(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All randomized components of the library draw from this generator so
    that every simulation is reproducible from a single integer seed.
    The generator is splittable: {!split} derives an independent stream,
    which lets parallel experiment sweeps share a master seed without
    correlating their draws. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy g] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  @raise Invalid_argument otherwise. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val bits53 : t -> int
(** [bits53 g] is the top 53 bits of the next raw output, uniform in
    [\[0, 2{^53})].  It is the draw behind {!float}: [float g b] is
    [float_of_int (bits53 g) /. 2{^53} *. b] on the same stream.  The
    result is an immediate int, so a caller in another compilation unit
    can build its own uniforms from it without the boxed float that a
    non-inlined {!float} call returns. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to
    [\[0, 1\]]). *)
