(** Open-system runs over the full engine stack.

    {!Workload.Engine} abstracts the balancing step as a closure so it
    can sit below [lib/core]; this module supplies the concrete
    steppers: the plain synchronous {!Core.Engine}, the fault engine
    ({!Faults.Engine}) under a realized schedule, and the lossy
    asynchronous network ({!Net.Async_engine}).  Faults and packet
    loss therefore compose with live traffic — the fault ledgers flow
    into the workload conservation check, and an undrained network
    round surfaces as [conserved = false]. *)

type mode =
  | Plain
  | Faulty of { plan : Faults.Schedule.plan }
      (** events are applied at their scheduled round, outages stay
          down through their [last_step] *)
  | Lossy of { config : Net.Async_engine.config; plan : Faults.Schedule.plan }
      (** every round's token transfers ride the unreliable channel
          and are drained before the next round; the channel's fault
          stream is re-seeded per round from [config.seed + round] so
          runs stay replayable *)

val plan_at : Faults.Schedule.plan -> round:int -> Faults.Schedule.plan
(** The single-round slice of a plan: events scheduled at [round]
    (rewritten to step 1) plus outages still active at [round]
    (re-emitted as one-step outages).  Empty for fault-free rounds. *)

val stepper :
  ?mode:mode ->
  graph:Graphs.Graph.t ->
  balancer:Core.Balancer.t ->
  unit ->
  Workload.Engine.stepper
(** The balancing step for {!Workload.Engine.run}.  The balancer
    instance is shared across rounds, so stateful schemes (rotor
    state, accumulators) persist exactly as in a closed-system run.
    The [Plain] stepper, and [Faulty] in its fault-free rounds, run
    {!Core.Engine.step_into} into one kept spare n-array, made on the
    first call: each round scatters into the spare, and the array it
    was handed becomes the next spare, as the
    {!Workload.Engine.stepper} contract allows.  So one stepper
    allocates no n-array after its first round, and it must only be
    driven by callers that keep that contract. *)

val run :
  ?mode:mode ->
  config:Workload.Engine.config ->
  graph:Graphs.Graph.t ->
  balancer:Core.Balancer.t ->
  init:int array ->
  unit ->
  Workload.Engine.result
(** [run ~config ~graph ~balancer ~init ()] drives the open system
    with the chosen stepper. *)
