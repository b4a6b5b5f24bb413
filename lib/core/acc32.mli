(** A packed accumulator of one 32-bit load slot per node: the scatter
    target of {!Balancer.kernel}'s [round_packed] in {!Engine.run}.

    n slots are 4n bytes of one [Bytes] on the OCaml heap, half an
    n-entry [int array], so the random adds of a round land in half the
    cache lines.  Slot [i] is the native-endian 32-bit word at byte
    offset [i lsl 2], read and written through the [get] and [set]
    primitives below: each compiles to one unboxed 32-bit load or store
    at its call site, with no call and no boxed [int32].

    The offset arithmetic is the one part of the layout a caller
    writes.  dune's dev profile compiles with [-opaque], so nothing but
    an [external] is inlined across modules: an [add] function here
    would cost a call per port, and a run-time stride ([i * stride]) an
    integer multiply on every scatter address, which ran the expander
    round about 10% slower than the constant shift. *)

type t

val max_slot : int
(** 2³¹ − 1, the largest load a slot holds. *)

val create : int -> t
(** [create n] is [n] slots holding 0. *)

val length : t -> int
(** The number of slots. *)

external get : t -> int -> int32 = "%caml_bytes_get32u"
(** [get a (i lsl 2)] is slot [i].  Unchecked: [i] must be in
    [\[0, length a)]. *)

external set : t -> int -> int32 -> unit = "%caml_bytes_set32u"
(** [set a (i lsl 2) x] stores [x] in slot [i].  Unchecked, like
    {!get}. *)
