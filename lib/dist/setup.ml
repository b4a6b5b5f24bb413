(* Shared experiment construction for the cluster binaries.

   lb_cluster, lb_node and lb_coord must all build IDENTICAL graph,
   initial vector and balancer from the same textual specs — the
   cluster's determinism (and its bit-for-bit equality with
   lb_sim --dump-loads) hinges on every process deriving the same
   objects from the same strings.  Centralizing the build keeps the
   three CLIs from drifting apart. *)

type spec = {
  graph : string;
  init : string;
  algo : string;
  seed : int;
  self_loops : int option;
}

type built = {
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
  name : string; (* balancer display name, for logs and the watchdog *)
  self_loops : int; (* d° of G+, for the theorem band *)
}

let build (spec : spec) =
  match Harness.Experiment.graph_of_string spec.graph with
  | Error m -> Error ("--graph: " ^ m)
  | Ok gspec -> (
    match Harness.Experiment.init_of_string spec.init with
    | Error m -> Error ("--init: " ^ m)
    | Ok ispec -> (
      match
        Harness.Experiment.algo_of_string ?self_loops:spec.self_loops
          ~seed:spec.seed spec.algo
      with
      | Error m -> Error ("--algo: " ^ m)
      | Ok algo_of_degree ->
        let graph = Harness.Experiment.build_graph gspec in
        let n = Graphs.Graph.n graph in
        let degree = Graphs.Graph.degree graph in
        let init = Harness.Experiment.build_init ispec ~n in
        let algo = algo_of_degree ~degree in
        let make_balancer () =
          Harness.Experiment.build_balancer algo graph ~init
        in
        let probe = make_balancer () in
        if not (Core.Balancer.resumable probe) then
          Error
            (Printf.sprintf
               "balancer %s cannot be checkpointed; the cluster requires a \
                resumable balancer"
               probe.Core.Balancer.name)
        else
          Ok
            {
              graph;
              init;
              make_balancer;
              name = probe.Core.Balancer.name;
              self_loops =
                Harness.Experiment.algo_self_loops algo ~graph_degree:degree;
            }))

(* The closed-system discrepancy band the chaos run must re-enter:
   the paper's deterministic-scheme bound for this graph and d°. *)
let theorem_band built =
  Harness.Experiment.theorem_band ~graph:built.graph ~self_loops:built.self_loops

let parse_band built = function
  | "auto" -> Ok (Some (theorem_band built))
  | "none" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some b when b >= 0 -> Ok (Some b)
    | Some _ | None ->
      Error "--band must be \"auto\", \"none\", or a non-negative integer")
