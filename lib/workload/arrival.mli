(** Seeded arrival processes for the open-system traffic engine.

    An arrival process decides, once per round, how many new tokens
    enter the network and where they land.  All randomness is drawn
    from a caller-supplied {!Prng.Splitmix} stream, so equal seeds
    replay the identical arrival trace bit for bit — the property every
    downstream steady-state measurement relies on.

    Processes are composable values: {!overlay} sums independent
    sources (e.g. a Poisson base plus a one-shot {!flash_crowd}), and
    {!diurnal} modulates a source's rate over time.  Placement order
    within one round is the overlay's list order; since injection is
    pure addition, final loads do not depend on that order, only the
    PRNG draw sequence does. *)

type t

val name : t -> string
(** Human-readable description ("poisson[λ=12]+flash[512@300+1→node0]"). *)

val uniform : rng:Prng.Splitmix.t -> per_round:int -> t
(** Exactly [per_round] tokens per round, each at an independently
    uniform node — one [Splitmix.int] draw per token, a stream that
    seeded open-system runs replay draw for draw.
    @raise Invalid_argument on a negative batch. *)

val poisson : rng:Prng.Splitmix.t -> rate:float -> t
(** Poisson-distributed batch with mean [rate] tokens per round, each
    token at an independently uniform node.  The count is sampled by
    Knuth's product-of-uniforms method (split recursively above mean
    30, using Poisson additivity, so no [exp] underflow at high rates).
    @raise Invalid_argument on a negative or non-finite rate. *)

val point : node:int -> per_round:int -> t
(** The whole batch lands on one fixed node every round (adversarial,
    PRNG-free).  The node index is range-checked by {!validate}.
    @raise Invalid_argument on a negative batch or node. *)

val hotspot : per_round:int -> t
(** Worst case: the batch lands on the currently max-loaded node
    (lowest index on ties), evaluated against the loads at injection
    time.  PRNG-free.  @raise Invalid_argument on a negative batch. *)

val flash_crowd : ?width:int -> at:int -> size:int -> node:int -> unit -> t
(** A spike: [size] tokens land on [node] in rounds
    [at .. at + width - 1] ([width] defaults to 1) and never again.
    Overlay it on a base process to measure time-to-absorb-a-burst
    ({!Steady.absorb_time}).
    @raise Invalid_argument unless [at ≥ 1], [width ≥ 1], [size ≥ 0]
    and [node ≥ 0]. *)

val diurnal : period:int -> amplitude:float -> t -> t
(** Modulate every source's rate by the smooth diurnal factor
    [1 + amplitude·sin(2π·round/period)] — deterministic bursty load.
    Fixed-batch sources round the scaled batch to nearest; Poisson
    sources scale their mean.
    @raise Invalid_argument unless [period ≥ 1] and [amplitude ∈ [0,1]],
    or if the process is already modulated or windowed. *)

val overlay : t -> t -> t
(** Sum of two independent processes (left sources inject first). *)

val validate : t -> n:int -> (unit, string) result
(** Check fixed node targets against the network size — called once by
    {!Engine.run} before the first round. *)

val inject : t -> round:int -> loads:int array -> int
(** Apply one round of arrivals ([round] is 1-based), mutating [loads]
    in place; returns the number of tokens injected. *)
