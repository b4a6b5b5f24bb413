type point = {
  graph : string;
  algo : string;
  scenario : string;
  eps : int;
  pre : int;
  shock : int;
  worst : int;
  recovery : int option;
  episodes : int;
  conserved : bool;
}

type algo = {
  label : string;
  self_loops : int -> int;
  make : Graphs.Graph.t -> unit -> Core.Balancer.t;
}

let algos =
  [
    {
      label = "rotor-router";
      self_loops = (fun d -> d);
      make = (fun g () -> Core.Rotor_router.make g ~self_loops:(Graphs.Graph.degree g));
    };
    {
      label = "send-floor";
      self_loops = (fun _ -> 1);
      make = (fun g () -> Core.Send_floor.make g ~self_loops:1);
    };
  ]

(* The fault hits after a quarter of the horizon — late enough that the
   initial point mass has flattened, leaving 3/4 of the run to recover. *)
let scenarios ~n ~fault_step =
  [
    ("crash 10% (wipe,lose)", Printf.sprintf "crash:0.1@%d:wipe:lose" fault_step);
    ("crash 10% (keep,spill)", Printf.sprintf "crash:0.1@%d:keep:spill" fault_step);
    ("shock +4n", Printf.sprintf "shock:%d@%d" (4 * n) fault_step);
    ( "outage 20% for T/8",
      Printf.sprintf "outage:0.2@%d+%d" fault_step (max 1 (fault_step / 2)) );
  ]

let slowest_episode report =
  List.fold_left
    (fun acc (e : Faults.Engine.episode) ->
      let slower a b =
        match (Faults.Engine.steps_to_recover a, Faults.Engine.steps_to_recover b) with
        | None, _ -> a
        | _, None -> b
        | Some ka, Some kb -> if ka >= kb then a else b
      in
      match acc with None -> Some e | Some best -> Some (slower e best))
    None report.Faults.Engine.episodes

let run_point ?mode ~graph_label ~graph ~algo ~scenario_label ~spec ~steps () =
  let n = Graphs.Graph.n graph in
  let init = Core.Loads.point_mass ~n ~total:(16 * n) in
  let specs =
    match Faults.Schedule.parse spec with
    | Ok s -> s
    | Error m -> invalid_arg ("Faultsweep: " ^ m)
  in
  let plan = Faults.Schedule.realize ~seed:1 ~graph specs in
  let eps = Experiment.theorem_band ~graph ~self_loops:(algo.self_loops (Graphs.Graph.degree graph)) in
  let report =
    Faults.Engine.run ?mode ~eps ~sample_every:steps ~graph
      ~make_balancer:(algo.make graph) ~plan ~init ~steps ()
  in
  let episodes = List.length report.Faults.Engine.episodes in
  let pre, shock, worst, recovery =
    match slowest_episode report with
    | Some e ->
      ( e.Faults.Engine.pre_discrepancy,
        e.Faults.Engine.shock_discrepancy,
        e.Faults.Engine.worst_discrepancy,
        Faults.Engine.steps_to_recover e )
    | None -> (0, 0, 0, None)
  in
  {
    graph = graph_label;
    algo = algo.label;
    scenario = scenario_label;
    eps;
    pre;
    shock;
    worst;
    recovery;
    episodes;
    conserved =
      report.Faults.Engine.final_total
      = report.Faults.Engine.initial_total + report.Faults.Engine.injected
        - report.Faults.Engine.lost;
  }

let sweep ?mode ~quick () =
  let graphs =
    if quick then
      [
        ("cycle(64)", Graphs.Gen.cycle 64, 400);
        ("torus(8x8)", Graphs.Gen.torus [ 8; 8 ], 200);
        ("hypercube(6)", Graphs.Gen.hypercube 6, 120);
      ]
    else
      [
        ("cycle(256)", Graphs.Gen.cycle 256, 4000);
        ("torus(16x16)", Graphs.Gen.torus [ 16; 16 ], 800);
        ("hypercube(8)", Graphs.Gen.hypercube 8, 240);
      ]
  in
  List.concat_map
    (fun (graph_label, graph, steps) ->
      List.concat_map
        (fun algo ->
          List.map
            (fun (scenario_label, spec) ->
              run_point ?mode ~graph_label ~graph ~algo ~scenario_label ~spec
                ~steps ())
            (scenarios ~n:(Graphs.Graph.n graph) ~fault_step:(steps / 4)))
        algos)
    graphs

let to_rows points =
  List.map
    (fun p ->
      [
        p.graph;
        p.algo;
        p.scenario;
        string_of_int p.eps;
        string_of_int p.pre;
        string_of_int p.shock;
        string_of_int p.worst;
        (* A plan can realize to zero episodes (e.g. a 10% crash on a
           graph too small to pick any node): nothing to recover from,
           which is "n/a", not "never recovered". *)
        (if p.episodes = 0 then "n/a"
         else match p.recovery with Some k -> string_of_int k | None -> "never");
        (if p.conserved then "yes" else "NO");
      ])
    points

let print_table points =
  Table.print
    ~align:
      [
        Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Left;
      ]
    ~header:
      [ "graph"; "algorithm"; "fault"; "eps"; "pre"; "shock"; "worst";
        "recovered-in"; "conserved" ]
    ~rows:(to_rows points) ()
