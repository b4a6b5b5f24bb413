(** 32-bit slots in one [Bytes]: the layout of the graph's edge list
    and of the buffers {!Splitmix.shuffle} permutes.

    Slot [i] is the native-endian 32-bit word at byte offset [i lsl 2],
    half the size of an [int array] entry.  {!make} sizes a buffer in
    whole slots, so none has a trailing partial word.  The two
    primitives compile to one unboxed load or store at their call site:
    dune's dev profile compiles with [-opaque], so nothing but an
    [external] is inlined across modules, and a hot loop indexes them
    by byte offset itself.  Everything else goes through the checked
    {!get} and {!set}. *)

type t

val make : int -> t
(** [make k] is [k] slots holding 0.
    @raise Invalid_argument ["Slots.make: bad length"] if [k < 0] or
    [4k] bytes exceed [Sys.max_string_length], before any shift can
    wrap. *)

val length : t -> int
(** The number of slots. *)

val get : t -> int -> int
(** [get a i] is slot [i], sign-extended.
    @raise Invalid_argument ["Slots.get: slot out of range"] unless
    [0 <= i < length a]. *)

val set : t -> int -> int -> unit
(** [set a i v] stores [v] in slot [i].
    @raise Invalid_argument ["Slots.set: slot out of range"] unless
    [0 <= i < length a], and ["Slots.set: value out of range"] unless
    [-2³¹ <= v < 2³¹]: a value never wraps. *)

external unsafe_get : t -> int -> int32 = "%caml_bytes_get32u"
(** [unsafe_get a (i lsl 2)] is slot [i].  Unchecked: [i] must be in
    [\[0, length a)]. *)

external unsafe_set : t -> int -> int32 -> unit = "%caml_bytes_set32u"
(** [unsafe_set a (i lsl 2) x] stores [x] in slot [i].  Unchecked, like
    {!unsafe_get}. *)
