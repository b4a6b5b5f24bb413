(** The one fault-event applier: the only code that turns a
    {!Schedule.plan} into effects on a load vector and on balancer
    state.

    {!Engine} (sequential and sharded) and {!Net.Async_engine} both
    apply their faults here, so a crash, spill, state wipe or load
    shock has the same effect in every engine.  The engines differ only
    in how they realize an edge outage, which this module forwards to
    the caller's [outage] callback. *)

type ledger = {
  injected : int;  (** tokens added by load shocks *)
  lost : int;  (** tokens destroyed by lose-token crashes *)
  spilled : int;  (** tokens redistributed by spill-token crashes *)
}

val validate : fn:string -> n:int -> d:int -> steps:int -> Schedule.plan -> unit
(** [validate ~fn ~n ~d ~steps plan] checks every event against a run
    of [steps] rounds on [n] nodes of degree [d].
    @raise Invalid_argument, with the message prefixed by [fn], on a
    step outside [\[1, steps\]], a node outside [\[0, n)], a port
    outside [\[0, d)], or an outage that ends before it starts. *)

val watchdog :
  ?extra_mass:(unit -> int) ->
  expected_total:int ->
  Core.Balancer.t list ->
  Watchdog.t
(** The run's invariant monitor over the given balancer instances (one
    per shard, or the single sequential one): name and NL property from
    the first instance, the state range [\[0, state_bound)] from its
    [persist], and one state source per instance that persists.
    [extra_mass] is forwarded to {!Watchdog.create}.
    @raise Invalid_argument on an empty instance list. *)

val events :
  graph:Graphs.Graph.t ->
  balancers:Core.Balancer.t list ->
  outage:(edge:int -> until:int -> unit) ->
  loads:int array ->
  Schedule.event list ->
  ledger
(** [events ~graph ~balancers ~outage ~loads evs] applies one step's
    events in order, mutating [loads] in place, and returns that
    step's ledger.

    - Crash: the node's tokens are lost (set to 0) or spilled evenly
      to its neighbours, ports in order absorbing the remainder; then,
      with [Wipe_state], the node's entry of every instance's persisted
      state is reset to 0.
    - Load shock: [amount] tokens are added at the node.
    - Edge outage on [(node, port)]: [outage ~edge:(node·d + port)
      ~until:last_step]; nothing else is touched. *)
