(** A packed accumulator: the scatter target of {!Balancer.kernel}'s
    [round_packed] and [round_packed16] in {!Engine.run}.

    [create n] is 4n bytes of one [Bytes] on the OCaml heap, half an
    n-entry [int array].  It holds n 32-bit slots, or, through its
    16-bit view, one 16-bit slot per node in its first 2n bytes, so the
    random adds of a round land in a half or a quarter of the cache
    lines an [int array] would take.  Both views share the one buffer:
    a run that switches widths allocates nothing more.  32-bit slot [i]
    is the native-endian word at byte offset [i lsl 2]; 16-bit slot [i]
    the native-endian half-word at byte offset [i lsl 1].  Each is read
    and written through the primitives below, which compile to one
    unboxed load or store at their call site, with no call and, for the
    16-bit ones, no conversion at all.

    The offset arithmetic is the one part of the layout a caller
    writes.  dune's dev profile compiles with [-opaque], so nothing but
    an [external] is inlined across modules: an [add] function here
    would cost a call per port, and a run-time stride ([i * stride]) an
    integer multiply on every scatter address, which ran the expander
    round about 10% slower than the constant shift. *)

type t

val max_slot : int
(** 2³¹ − 1, the largest load a 32-bit slot holds. *)

val max_slot16 : int
(** 2¹⁶ − 1, the largest load a 16-bit slot holds. *)

val create : int -> t
(** [create n] is [n] 32-bit slots, that is [2n] 16-bit ones, holding
    0. *)

val length : t -> int
(** The number of 32-bit slots. *)

val length16 : t -> int
(** The number of 16-bit slots, twice {!length}. *)

external get : t -> int -> int32 = "%caml_bytes_get32u"
(** [get a (i lsl 2)] is 32-bit slot [i].  Unchecked: [i] must be in
    [\[0, length a)]. *)

external set : t -> int -> int32 -> unit = "%caml_bytes_set32u"
(** [set a (i lsl 2) x] stores [x] in 32-bit slot [i].  Unchecked,
    like {!get}. *)

external get16 : t -> int -> int = "%caml_bytes_get16u"
(** [get16 a (i lsl 1)] is 16-bit slot [i], in [\[0, max_slot16\]].
    Unchecked: [i] must be in [\[0, length16 a)]. *)

external set16 : t -> int -> int -> unit = "%caml_bytes_set16u"
(** [set16 a (i lsl 1) x] stores the low 16 bits of [x] in 16-bit slot
    [i]: a value past {!max_slot16} wraps.  Unchecked, like {!get16}. *)
