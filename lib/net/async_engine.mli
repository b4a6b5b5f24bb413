(** The balancing engine over an unreliable network.

    Replaces {!Core.Engine}'s perfectly synchronous delivery — every
    token sent in round [t] arrives in round [t] — with a seeded lossy
    {!Channel} and the exactly-once retry {!Protocol}.  Each round:

    + scheduled faults ({!Faults.Schedule}) are applied by
      {!Faults.Apply}, as in {!Faults.Engine}: crashes and load shocks
      mutate the loads and the ledger, edge outages black out channel
      edges (the retry protocol recovers those tokens once the outage
      lifts);
    + every node runs its balancer on the load it currently holds;
      tokens assigned to original ports enter the transport, self-loop
      tokens stay — subject to the {e bounded-staleness} gate below;
    + the transport delivers what falls due this round, the protocol
      retransmits what timed out, and the {!Faults.Watchdog} audits
      [Σ loads + in-flight = ledger] plus the per-scheme invariants.

    {b Bounded staleness.} A node is {e stale} in round [t] if some
    message addressed to it, sent in a round ≤ [t − 1 − σ], has still
    not been applied ([staleness] = σ).  A fresh node balances
    normally.  A stale node either {e degrades gracefully} — balances
    the load it last knew about, i.e. what it currently holds
    ([degrade = true], the default) — or {e stalls} (skips its
    balancing pass) when [degrade = false].

    {b Equivalence.} With the {!Channel.reliable} configuration,
    σ = 0 and no fault plan, every message is delivered in its send
    round, no node is ever stale, and the run is bit-identical to
    {!Core.Engine.run} — same per-step load vectors, discrepancy
    series and final loads — for every deterministic balancer.

    {b Drain.} After the last balancing round the engine keeps ticking
    the protocol (no balancing) until it quiesces, so the final ledger
    can be checked exactly: [Σ final loads = Σ init + injected − lost]. *)

type config = {
  channel : Channel.config;
  protocol : Protocol.config;
  staleness : int;  (** σ ≥ 0 *)
  degrade : bool;
      (** stale nodes balance their held load instead of stalling *)
  seed : int;  (** channel fault stream ([--net-seed]) *)
  max_drain_rounds : int;
      (** bound on post-run protocol-only rounds (safety valve; the
          protocol quiesces with probability 1 whenever drop < 1) *)
}

val default_config : config
(** Reliable channel, {!Protocol.default_config}, σ = 0,
    degrade = true, seed 1, drain bound 100_000. *)

type report = {
  result : Core.Engine.result;
      (** series/min-load sampled after each round's deliveries;
          [fairness] is always [None] *)
  channel_stats : Channel.stats;
  protocol_stats : Protocol.stats;
  degraded_rounds : int;  (** node-rounds balanced while stale *)
  stalled_rounds : int;  (** node-rounds skipped while stale *)
  drain_rounds : int;  (** protocol-only rounds appended after the run *)
  drained : bool;  (** the protocol quiesced within the drain bound *)
  injected : int;  (** tokens added by fault shocks *)
  lost : int;  (** tokens destroyed by lose-token crashes *)
  spilled : int;  (** tokens redistributed by spill-token crashes *)
  initial_total : int;
  final_total : int;
      (** equals [initial_total + injected − lost] iff conservation
          held and the drain completed *)
  watchdog_checks : int;
}

val conserved : report -> bool
(** [final_total = initial_total + injected − lost] and [drained]. *)

val report_lines : report -> string list
(** Human-readable transport/staleness/ledger summary for the CLI. *)

val run :
  ?config:config ->
  ?plan:Faults.Schedule.plan ->
  ?watchdog:bool ->
  ?sample_every:int ->
  ?hook:(int -> int array -> unit) ->
  ?on_message:(Trace.message_event -> unit) ->
  graph:Graphs.Graph.t ->
  balancer:Core.Balancer.t ->
  init:int array ->
  steps:int ->
  unit ->
  report
(** [run ~graph ~balancer ~init ~steps ()] executes [steps] rounds over
    the unreliable network, then drains.

    - [config] (default {!default_config});
    - [plan]: fault events composed with the channel faults (crashes
      and shocks exactly as in {!Faults.Engine.run}; outages become
      channel blackouts); every step must lie in [\[1, steps\]];
    - [watchdog] (default true): audit conservation (including
      in-flight mass), NL non-negativity and balancer state range
      after every round;
    - [hook]: called after each round with the live load vector;
    - [on_message]: observes every transport event for tracing.

    @raise Invalid_argument on mismatched dimensions, a negative step
    count, an invalid config, or a plan referencing steps/nodes/ports
    out of range.
    @raise Core.Engine.Invariant_violation on a misbehaving balancer.
    @raise Faults.Watchdog.Invariant_violation on a broken run
    invariant when the watchdog is enabled. *)
