(** Token lifetimes: how long work stays in the system before it
    completes and leaves.

    A lifetime model decides, once per round and after arrivals, how
    many tokens depart and from where.  Every model clamps at zero — a
    departure aimed at an empty node is skipped, never counted — so
    loads stay non-negative and the conservation identity
    [injected − departed = Δ in-flight] holds exactly.  Randomized
    models draw from a caller-supplied {!Prng.Splitmix} stream and
    replay bit-identically under equal seeds. *)

type t

val name : t -> string
(** Human-readable description ("service[μ=2]", "geometric[mean=50]"). *)

val immortal : t
(** Tokens never leave — the closed-system limit. *)

val uniform_attempts : rng:Prng.Splitmix.t -> per_round:int -> t
(** Each round, [per_round] completion attempts at independently
    uniform nodes; an attempt at a non-empty node removes one token,
    one draw per attempt.  @raise Invalid_argument on a negative
    count. *)

val service : rate:int -> t
(** Deterministic capacity model: every node completes up to [rate]
    tokens per round.  System-wide capacity is [n·rate] tokens/round,
    the reference line the E17 stability sweep pushes λ against.
    @raise Invalid_argument on a negative rate. *)

val geometric : rng:Prng.Splitmix.t -> mean:float -> t
(** Memoryless service times: each in-flight token independently
    completes this round with probability [1/mean], i.e. lifetimes are
    geometric with the given mean.  Cost is one Bernoulli draw per
    in-flight token per round.
    @raise Invalid_argument unless [mean ≥ 1]. *)

val fixed : rng:Prng.Splitmix.t -> rounds:int -> t
(** Deterministic lifetimes: every token departs exactly [rounds]
    rounds after it arrived.  Departures are taken from uniformly
    drawn nodes (walking cyclically to the next non-empty node), since
    the balancer may have moved the physical tokens; the count is
    clamped to the current in-flight total.
    @raise Invalid_argument unless [rounds ≥ 1]. *)

val total : int array -> int
(** [total loads] is the token total, by a plain loop: {!fixed} takes it
    every round, and {!Engine} for its conservation check. *)

val depart : t -> round:int -> arrivals:int -> loads:int array -> int
(** Apply one round of departures ([round] is 1-based, [arrivals] is
    this round's injection count, needed by {!fixed}'s calendar).
    Mutates [loads] in place; returns the number departed. *)
