(** Experiment registry: declarative specifications of graphs,
    algorithms, initial distributions and horizons, with one-call
    execution.  Both the CLI and the benchmark harness drive the system
    through this module, so every reported number is reproducible from a
    printable spec. *)

type graph_spec =
  | Cycle of int
  | Torus2d of int (** side length; n = side² *)
  | Hypercube of int (** dimension; n = 2^r *)
  | Random_regular of { n : int; d : int; seed : int }
  | Complete of int
  | Clique_circulant of { n : int; d : int }

val build_graph : graph_spec -> Graphs.Graph.t
val graph_name : graph_spec -> string

type algo_spec =
  | Rotor_router of { self_loops : int }
  | Rotor_router_star
  | Send_floor of { self_loops : int }
  | Send_round of { self_loops : int }
  | Mimic of { self_loops : int }
  | Random_extra of { self_loops : int; seed : int }
  | Random_rounding of { self_loops : int; seed : int }

val algo_name : algo_spec -> string

val algo_self_loops : algo_spec -> graph_degree:int -> int
(** The d° an algo spec will use on a graph of the given degree
    (resolves Rotor_router_star's implicit d° = d). *)

val build_balancer : algo_spec -> Graphs.Graph.t -> init:int array -> Core.Balancer.t
(** [init] is required because the mimic scheme simulates the continuous
    process from the same start. *)

type init_spec =
  | Point_mass of int (** total tokens, all on node 0 *)
  | Bimodal of { high : int; low : int }
  | Uniform_random of { total : int; seed : int }

val init_name : init_spec -> string
val build_init : init_spec -> n:int -> int array

(** {2 Spec parsing}

    The CLI grammar, shared by every front end (lb_sim, lb_cluster,
    lb_node) so one spec string selects the identical experiment
    everywhere. *)

val graph_of_string : string -> (graph_spec, string) result
(** ["cycle:N"], ["torus:AxA"], ["hypercube:R"], ["complete:N"],
    ["clique:N,D"], ["random:N,D[,SEED]"]. *)

val init_of_string : string -> (init_spec, string) result
(** ["point:TOTAL"], ["bimodal:HIGH,LOW"], ["random:TOTAL[,SEED]"]. *)

val algo_of_string :
  ?self_loops:int -> ?seed:int -> string -> (degree:int -> algo_spec, string) result
(** Algorithm by CLI name ("rotor-router", "send-floor", ...).  The
    result still needs the graph degree because the default d° is
    degree-dependent; [self_loops] overrides it, [seed] (default 1)
    seeds the randomized schemes. *)

type horizon =
  | Fixed_steps of int
  | Mixing_multiple of float
      (** c · ln(n·(K+2)) / µ, the paper's T with explicit constant c *)
  | Continuous_multiple of float
      (** c × the empirical step count at which continuous diffusion
          reaches discrepancy < 1 from the same start *)

val horizon_steps :
  gap:float ->
  graph:Graphs.Graph.t ->
  self_loops:int ->
  init:int array ->
  horizon ->
  int
(** Resolve a horizon to a concrete step count (≥ 1).  A
    [Mixing_multiple] horizon is priced with [gap], the µ of the
    balancing graph (from {!spec_gap} or {!spectral_gap}). *)

val spectral_gap : graph:Graphs.Graph.t -> self_loops:int -> float
(** µ of the balancing graph by power iteration, memoized per
    (graph, d°) so sweeps don't re-run it. *)

val spec_gap : graph_spec -> graph:Graphs.Graph.t -> self_loops:int -> float
(** µ of the balancing graph built from the spec: the closed form of
    {!Graphs.Spectral} for a cycle, torus, hypercube, complete graph or
    clique-circulant, else {!spectral_gap}.  A closed form costs at
    most O(n·d) where power iteration costs up to 50 000 sparse
    products. *)

type outcome = {
  graph_label : string;
  algo_label : string;
  n : int;
  degree : int;
  self_loops : int;
  gap : float;
  steps : int;                 (** steps actually executed *)
  horizon : int;               (** steps requested *)
  initial_discrepancy : int;
  final_discrepancy : int;
  time_to_target : int option; (** if [target] was given *)
  min_load_seen : int;
  fairness : Core.Fairness.report option;
}

val run :
  ?audit:bool ->
  ?target:int ->
  graph:graph_spec ->
  algo:algo_spec ->
  init:init_spec ->
  horizon:horizon ->
  unit ->
  outcome
(** Build everything from specs and execute one simulation.  [target]
    both records the first hitting time of that discrepancy and, when
    given, lets the run continue to the full horizon (no early stop) so
    the final discrepancy is still meaningful.  The outcome's [gap] is
    {!spec_gap}, which also prices a [Mixing_multiple] horizon. *)
