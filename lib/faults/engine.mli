(** Fault-aware engine wrapper: run a balancer under a {!Schedule.plan}
    and measure recovery.

    The wrapper drives the ordinary engines — {!Core.Engine.run}
    sequentially or {!Shard.Shard_engine.run} across domains — through
    their [hook] mechanism: faults scheduled at step [t] are applied to
    the live load vector (and balancer state) between steps [t-1] and
    [t], so the balancing pass of step [t] sees the perturbed
    configuration.  Because both engines are bit-identical for
    deterministic balancers and the fault pass itself is deterministic,
    a fault-injected run is replayable: equal (plan, seed, mode) give
    equal fault events, recovery reports and final loads in both
    sequential and sharded modes.

    Plan validation, the watchdog and the events themselves go through
    {!Apply}, the one applier shared with {!Net.Async_engine}, so a
    crash, spill, state wipe or shock has the same effect in both.
    The engines differ only in how they realize an edge outage.  Here
    it is a transparent balancer shim that adds
    one hidden self-loop port and, while an outage is active, moves the
    tokens a node assigned to the dead port onto that self-loop — the
    tokens stay put, exactly as if the link dropped the send.  The shim
    is only installed when the plan contains outages, so outage-free
    fault runs use the balancer unmodified.

    Recovery is reported per {e episode} (all events sharing a fault
    step): the discrepancy just before the faults hit ([pre]), just
    after ([shock]), the worst discrepancy seen until recovery, and the
    first step at which the discrepancy returned within [eps] of [pre] —
    the self-stabilization measurement that separates stateless
    (send-floor, cumulative-fair) from stateful (rotor-router) schemes. *)

type mode =
  | Sequential
  | Sharded of { shards : int; strategy : Shard.Partition.strategy }

type episode = {
  step : int;  (** faults applied before this step's balancing pass *)
  events : Schedule.event list;
  pre_discrepancy : int;  (** just before the faults hit *)
  shock_discrepancy : int;  (** just after *)
  worst_discrepancy : int;  (** maximum until recovery (or run end) *)
  recovered_at : int option;
      (** first step with discrepancy ≤ [pre_discrepancy + eps];
          [Some (step - 1)] when the shock never left the band *)
  injected : int;  (** tokens added by this episode's shocks *)
  lost : int;  (** tokens destroyed by lose-token crashes *)
  spilled : int;  (** tokens redistributed by spill-token crashes *)
}

val steps_to_recover : episode -> int option
(** Balancing steps from fault application to recovery: [recovered_at -
    step + 1], or [Some 0] if the shock stayed within the band. *)

type report = {
  result : Core.Engine.result;  (** the underlying engine result *)
  eps : int;
  episodes : episode list;  (** in fault-step order *)
  injected : int;
  lost : int;
  spilled : int;
  initial_total : int;  (** token mass of [init] *)
  final_total : int;
      (** always equals [initial_total + injected - lost] — enforced by
          the watchdog when enabled, recomputed here regardless *)
  watchdog_checks : int;  (** 0 when the watchdog was disabled *)
}

val all_recovered : report -> bool

val report_lines : report -> string list
(** Human-readable recovery report for CLI printing: one line per
    episode (event summary capped), plus the conservation ledger. *)

val run :
  ?mode:mode ->
  ?eps:int ->
  ?watchdog:bool ->
  ?sample_every:int ->
  ?hook:(int -> int array -> unit) ->
  graph:Graphs.Graph.t ->
  make_balancer:(unit -> Core.Balancer.t) ->
  plan:Schedule.plan ->
  init:int array ->
  steps:int ->
  unit ->
  report
(** [run ~graph ~make_balancer ~plan ~init ~steps ()] executes [steps]
    rounds with the plan's faults injected.

    - [mode] (default [Sequential]): which engine executes the rounds.
      [make_balancer] is called once (sequential) or once per shard.
    - [eps] (default: the graph degree d, the paper's O(d) band):
      recovery tolerance relative to the pre-fault discrepancy.
    - [watchdog] (default true): run {!Watchdog.check} after every
      step — conservation against the fault ledger, non-negative loads
      for NL schemes, rotor state in [0, d⁺) for rotor balancers.
    - [hook]: forwarded to the underlying engine (called after the
      watchdog and fault pass of each step).

    @raise Invalid_argument if the plan references steps outside
    [1, steps] or nodes/ports outside the graph, or [eps < 0].
    @raise Watchdog.Invariant_violation on corruption when enabled. *)
