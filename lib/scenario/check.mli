(** The static checker: from a concrete (variable-free) scenario to a
    fully typed run description, or a positioned error.

    Checking enforces the cross-clause typing rules the individual
    engines only discover at run time (or not at all):

    - exactly one horizon: [steps] (closed system) xor [rounds]
      (open system / cluster);
    - [arrivals]/[lifetime]/[warmup]/[workload-seed] require [rounds];
    - a [net] clause needs at least one channel field — [staleness]
      alone is rejected ("staleness without a net layer");
    - [partition] requires a [dist] clause (no distributed run to cut);
    - [dist] excludes the in-process layers ([net], [faults],
      [arrivals], …) and requires [rounds];
    - every numeric value is range-checked against the target engine's
      documented preconditions (drop < 1, crash fraction ≤ 1, fault
      steps inside the horizon, arrival nodes inside the graph, …);
    - the [mimic] balancer is closed-system, fault-free only (it
      simulates the continuous process from the same start, which
      arrivals and crashes invalidate).

    The result is the compiler's input: plain OCaml values with every
    default applied, no scalars left. *)

type arrival =
  | Uniform of int
  | Poisson of float
  | Point of { node : int; batch : int }
  | Hotspot of int
  | Flash of { size : int; at : int; node : int; width : int }
  | Diurnal of { period : int; amplitude : float; body : arrival }
  | Plus of arrival * arrival

type lifetime =
  | Immortal
  | Work of int
  | Service of int
  | Geometric of float
  | Fixed of int

type warmup = Auto | Fixed_warmup of int

type net = {
  channel : Net.Channel.config;
  protocol : Net.Protocol.config;
      (** the ARQ's retransmission schedule; a [net] clause checks to
          {!Net.Protocol.default_config} *)
  staleness : int;
  degrade : bool;
  net_seed : int;
}

type cluster = {
  shards : int;
  cluster_faults : Dist.Super.fault list;
  cluster_drop : float;
  delay_prob : float;
  delay_max : float;
  partitions : Dist.Loss.window list;
}

type shards = { count : int; partition : Shard.Partition.strategy }

type checkpoint = {
  path : string;
  every : int;  (** snapshot after every [every]-th step *)
  resume : bool;  (** start from the newest usable snapshot at [path] *)
}

type closed = {
  horizon : Harness.Experiment.horizon;
  faults : Faults.Schedule.spec list;
  net : net option;
  shards : shards option;
      (** [Some] runs the domain-parallel engines (one domain per
          shard); [None] the sequential ones *)
  checkpoint : checkpoint option;
      (** runs on the sharded engine, one contiguous shard if [shards]
          is [None] *)
  audit : bool;  (** the Definition 2.1/3.1 fairness audit *)
  target : int option;  (** record the first step with discrepancy ≤ target *)
  recovery_eps : int option;
      (** fault-episode recovery tolerance (default: the degree d) *)
}

val closed : Harness.Experiment.horizon -> closed
(** A closed run over [horizon] with every layer off: no faults, no
    net, the sequential engine, no checkpoint, audit, target or
    recovery tolerance.  A [steps] clause checks to [closed (Fixed_steps
    s)] plus its [faults] and [net]. *)

type run =
  | Closed of closed
  | Open of {
      rounds : int;
      arrival : arrival;
      lifetime : lifetime;
      warmup : warmup;
      workload_seed : int;
      faults : Faults.Schedule.spec list;
      net : net option;
    }
  | Cluster of { rounds : int; cluster : cluster }

type typed = {
  graph : Harness.Experiment.graph_spec;
  init : Harness.Experiment.init_spec;
  algo_name : string;
  self_loops : int option;
  algo_seed : int option;
  fault_seed : int;  (** the [seed] clause; realizes fault plans *)
  run : run;
}

val nodes : Harness.Experiment.graph_spec -> int
(** Network size implied by a graph spec (2^r for hypercubes, side²
    for tori, …). *)

val scenario : at:Ast.pos -> Ast.scenario -> (typed, string * Ast.pos) result
(** Check one concrete scenario.  [at] positions errors that have no
    clause to point at (e.g. a missing [graph]).  Scenarios must be
    variable-free: a surviving [$var] reports "unbound sweep
    variable". *)
