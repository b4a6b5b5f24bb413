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

val add_uniform : t -> int array -> int -> unit
(** [add_uniform g a c] adds one to [c] uniformly drawn entries of [a]
    ([c ≤ 0] draws nothing).  It is [c] calls of
    [let u = int g (Array.length a) in a.(u) <- a.(u) + 1], draw for
    draw: the same entries in the same order, the rejection path of
    {!int} included when the length is not a power of two, and the same
    generator state afterwards.  The state stays in a register across
    the batch, so the loop allocates nothing and costs no call per draw.
    @raise Invalid_argument if [c > 0] and [a] is empty. *)

val shuffle : t -> int array -> unit
(** [shuffle g a] shuffles [a] in place by Fisher–Yates: for [i] from
    [Array.length a - 1] down to 1 it swaps [a.(i)] with
    [a.(int g (i + 1))].  Draw for draw it is that loop over {!int}: the
    same permutation, the power-of-two and the rejection paths
    included, and the same generator state afterwards.  Like
    {!add_uniform}, it keeps the state in a register for the whole pass
    and allocates nothing.  To shuffle other values, shuffle an index
    permutation and map through it. *)

val fill_permutation : t -> int array -> unit
(** [fill_permutation g a] overwrites [a] with a uniformly random
    permutation of [0 .. Array.length a - 1]: the identity, then
    {!shuffle}.  It allocates nothing, so a caller drawing one
    permutation a round can reuse one buffer. *)

val knuth_count : t -> leaves:int -> float -> int
(** [knuth_count g ~leaves l] is the sum of [leaves] independent counts
    by Knuth's product-of-uniforms method with threshold [l]: each
    count multiplies uniforms [float g 1.0] into a running product,
    starting from 1, until the product is [≤ l], and counts the
    uniforms before that one.  With [l = exp (-λ)] each count is
    Poisson(λ).  The result and the generator state afterwards are those
    of that loop written out over {!float}, bit for bit ([leaves ≤ 0]
    draws nothing).  Like {!add_uniform}, it keeps the state in a
    register and the product unboxed for the whole call. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]: the top 53 bits of the
    next raw output, as an int, divided by 2{^53} and times [bound]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to
    [\[0, 1\]]). *)
