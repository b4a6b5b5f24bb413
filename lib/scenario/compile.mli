(** The scenario compiler: expansion, checking and the one lowering of
    a typed run onto the engine stack, for [lb_scn] and [lb_sim] alike.

    {!plan} turns a parsed file into a flat list of runnable items:
    [sweep]s are unrolled ([$var] substituted at every use site, the
    binding recorded in the item label as ["name[d=0.05]"]), [overlay]s
    are merged clause-wise (an overlay clause replaces the base clause
    of the same kind, new kinds are appended), [seq]s are concatenated
    and references resolved (a binding sees only the bindings declared
    before it).  Every concrete scenario then goes through {!Check};
    [experiment] targets are resolved against the {!Harness.Suite}
    registry.

    Lowering is two steps.  {!prepare} builds the graph, the initial
    loads, the balancer, the horizon's step count and the open system's
    arrival and lifetime processes; µ, the Theorem 2.3 band, the
    realized fault plan and the resumed checkpoint are lazy, so a run
    that never reads them never pays for them (a [Mixing_multiple]
    horizon forces µ).  {!execute} then runs the engine the typed run
    selects and returns that engine's own report:

    - closed, fault-free, reliable → {!Core.Engine.run}, or
      {!Shard.Shard_engine.run} with [shards] (and any checkpoint);
    - closed + faults → {!Faults.Engine.run} under
      {!Faults.Schedule.realize}, sequential or sharded;
    - closed + net (faults optional) → {!Net.Async_engine.run};
    - open system → {!Harness.Openrun.run} with the matching
      [Plain]/[Faulty]/[Lossy] mode.  The arrival and lifetime streams
      are split off one master stream seeded by [workload-seed], in that
      order, so equal seeds replay bit for bit;
    - [dist] scenarios are compile-only: {!cluster_command} renders the
      equivalent multi-process [lb_cluster] invocation.

    Everything here is pure apart from the engines' own computation —
    printing belongs to the binaries. *)

type payload =
  | Run of Check.typed
  | Exper of string  (** validated {!Harness.Suite} id, upper-cased *)

type item = { label : string; at : Ast.pos; payload : payload }

val plan : ?root:string -> Ast.file -> (item list, string * Ast.pos) result
(** Expand + check the file.  [root] names the binding to compile
    (default: the binding named ["main"], else the last one). *)

type system =
  | Closed_system of Check.closed
  | Open_system of {
      arrival : Workload.Arrival.t;
      lifetime : Workload.Lifetime.t;
      config : Workload.Engine.config;
      faults : Faults.Schedule.spec list;
      net : Check.net option;
    }

type prepared = {
  typed : Check.typed;
  graph : Graphs.Graph.t;
  init : int array;
  balancer : Core.Balancer.t;
      (** the instance the core, network and open-system engines run;
          the sharded and fault engines make their own with
          [make_balancer], so this one only names the scheme *)
  make_balancer : unit -> Core.Balancer.t;
  steps : int;  (** the resolved horizon; an open run's rounds *)
  gap : float Lazy.t;  (** µ, {!Harness.Experiment.spec_gap} *)
  band : int Lazy.t;  (** {!Harness.Experiment.theorem_band} *)
  plan : Faults.Schedule.plan Lazy.t;
  resume : Shard.Checkpoint.recovery option Lazy.t;
      (** the snapshot a [resume] checkpoint starts from *)
  system : system;
}

val prepare : Check.typed -> prepared
(** Build one run.  A prepared run executes once: its balancer and its
    arrival and lifetime processes carry state.
    @raise Invalid_argument for a [dist] scenario or a constructor
    precondition (a graph or balancer the builders refuse). *)

type report =
  | Rounds of { result : Core.Engine.result; time_to_target : int option }
      (** core or sharded engine; [time_to_target] when a target is set *)
  | Faulted of Faults.Engine.report
  | Networked of Net.Async_engine.report
  | Opened of Workload.Engine.result

val execute : prepared -> report
(** Run the engine the typed run selects.  The discrepancy series is
    sampled every 50th step on the core engine, every 64th on the
    sharded and fault engines and every step on the network.
    @raise Invalid_argument on an engine precondition, and whatever the
    engine raises ({!Shard.Checkpoint.Checkpoint_error},
    {!Faults.Watchdog.Invariant_violation}, …). *)

type outcome = {
  kind : string;  (** "closed", "open+faults+net", … *)
  rounds : int;  (** rounds/steps actually executed *)
  final_loads : int array;
  discrepancy : int;
  initial_total : int;
  final_total : int;
  injected : int;  (** arrivals + fault shocks *)
  removed : int;  (** departures + crash-lost tokens *)
  conserved : bool;  (** final = initial + injected − removed *)
  drained : bool;  (** lossy transport quiesced (true when no net) *)
}

val kind : Check.typed -> string

val outcome : prepared -> report -> outcome
(** The engine-independent summary [lb_scn] prints and the fuzzer
    checks. *)

val run : Check.typed -> (outcome, string) result
(** {!prepare}, {!execute} and {!outcome} in one call.  [Error] for
    [dist] scenarios, which need the multi-process harness, and for any
    precondition the checker missed. *)

val cluster_command : Check.typed -> string option
(** The replayable [lb_cluster] invocation of a [dist] scenario,
    [None] for in-process scenarios. *)

val describe : item -> string list
(** Human-readable lowering summary, one string per line — what
    [lb_scn compile] prints. *)
