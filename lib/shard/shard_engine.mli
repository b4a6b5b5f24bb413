(** Domain-parallel execution of the synchronous balancing model.

    [run] produces {e bit-identical} results to [Core.Engine.run] — the
    same [result] record, field for field — for every deterministic
    balancer, while executing the per-node [assign] loop on one OCaml 5
    domain per shard.  The argument is a balancer {e factory}: each
    shard gets its own instance, so per-node mutable state (rotor
    positions, cumulative-flow accumulators) is owned by exactly one
    domain and never contended.

    Each step runs as two pooled phases separated by barriers:

    + {b assign}: every shard runs its own nodes through
      {!Core.Engine.node_step}, the checked node step every engine
      shares, accumulating sends into a private buffer whose slots are
      pre-resolved to either a local node or a halo (outbox) slot — one
      per distinct external neighbor;
    + {b halo merge}: every shard writes its own nodes' next loads and
      adds in the outbox contributions other shards accumulated for it,
      then computes its local min/max load and token total.

    The coordinator checks every round's total against the last one, as
    [Core.Engine.run] does, so a merge that loses or duplicates a token
    raises [Core.Engine.Invariant_violation] in that round.

    Token counts are integers and addition is commutative, so the merge
    order cannot perturb results — determinism needs no further care.
    Randomized balancers (PRNG state advanced in [assign] call order)
    still run correctly but produce a different — equally valid —
    trajectory than the sequential engine.

    Why a factory is safe: every balancer in this repository keeps
    {e per-node} state only, so shard [s]'s instance sees exactly the
    same call sequence for the nodes it owns as the sequential engine
    does.  Instances that derive global trajectories (e.g. the
    continuous-mimicking balancer) recompute them identically in every
    shard from the same inputs. *)

type checkpoint_config = {
  path : string;  (** checkpoint file, atomically overwritten *)
  every : int;    (** write after every [every]-th completed step *)
}

val run :
  ?audit:bool ->
  ?sample_every:int ->
  ?hook:(int -> int array -> unit) ->
  ?stop_at_discrepancy:int ->
  ?strategy:Partition.strategy ->
  ?checkpoint:checkpoint_config ->
  ?resume:Checkpoint.snapshot ->
  shards:int ->
  graph:Graphs.Graph.t ->
  make_balancer:(unit -> Core.Balancer.t) ->
  init:int array ->
  steps:int ->
  unit ->
  Core.Engine.result
(** Options shared with [Core.Engine.run] ([audit], [sample_every],
    [hook], [stop_at_discrepancy]) behave identically; [hook] gets the
    shared load vector and may add or remove tokens in place, as the
    fault layer's does: the next round's total check is made against
    the total it leaves, at the cost of one more pass over the vector.

    - [strategy] (default [Contiguous]): how nodes map to shards.
    - [checkpoint]: periodically snapshot (step, loads, balancer state,
      partial result) so the run can survive a kill; requires a
      checkpointable balancer ([Balancer.resumable]).
    - [resume]: continue from a {!Checkpoint.snapshot}; the final
      result equals the uninterrupted run's, including [steps_run] and
      the series prefix.  The shard count may differ from the run that
      wrote the snapshot.

    @raise Invalid_argument on bad sizes, a degree mismatch, or a
    factory that builds non-identical instances.
    @raise Core.Engine.Invariant_violation as the sequential engine.
    @raise Checkpoint.Checkpoint_error on an incompatible [resume]
    snapshot or an un-checkpointable balancer. *)
