type point = {
  graph : string;
  algo : string;
  ratio : float;
  lambda : float;
  mu : int;
  band : int;
  steady_mean : float;
  steady_p95 : float;
  steady_p99 : float;
  inflight_mean : float;
  overload_p99 : float;
  throughput : float;
  diverged : bool;
  conserved : bool;
}

type algo = {
  label : string;
  self_loops : int -> int;
  make : Graphs.Graph.t -> Core.Balancer.t;
}

let algos =
  [
    {
      label = "rotor-router";
      self_loops = (fun d -> d);
      make = (fun g -> Core.Rotor_router.make g ~self_loops:(Graphs.Graph.degree g));
    };
    {
      label = "send-round";
      self_loops = (fun d -> d);
      make = (fun g -> Core.Send_round.make g ~self_loops:(Graphs.Graph.degree g));
    };
  ]

let mu = 2

let run_point ~graph_label ~graph ~algo ~ratio ~rounds ~seed =
  let n = Graphs.Graph.n graph in
  let lambda = ratio *. float_of_int (n * mu) in
  let master = Prng.Splitmix.create seed in
  let arrival_rng = Prng.Splitmix.split master in
  let arrival = Workload.Arrival.poisson ~rng:arrival_rng ~rate:lambda in
  let lifetime = Workload.Lifetime.service ~rate:mu in
  let config =
    Workload.Engine.config ~probe_label:"loadsweep" ~arrival ~lifetime ~rounds ()
  in
  let balancer = algo.make graph in
  let r =
    Openrun.run ~config ~graph ~balancer
      ~init:(Core.Loads.flat ~n ~value:0) ()
  in
  let band =
    Experiment.theorem_band ~graph
      ~self_loops:(algo.self_loops (Graphs.Graph.degree graph))
  in
  {
    graph = graph_label;
    algo = algo.label;
    ratio;
    lambda;
    mu;
    band;
    steady_mean = r.Workload.Engine.steady_discrepancy.Workload.Steady.mean;
    steady_p95 = r.Workload.Engine.steady_discrepancy.Workload.Steady.p95;
    steady_p99 = r.Workload.Engine.steady_discrepancy.Workload.Steady.p99;
    inflight_mean = r.Workload.Engine.steady_inflight.Workload.Steady.mean;
    overload_p99 = r.Workload.Engine.steady_overload.Workload.Steady.p99;
    throughput = r.Workload.Engine.throughput;
    diverged = r.Workload.Engine.diverged;
    conserved = r.Workload.Engine.conserved;
  }

let sweep ~quick () =
  let graphs =
    if quick then
      [ ("torus(8x8)", Graphs.Gen.torus [ 8; 8 ]); ("hypercube(6)", Graphs.Gen.hypercube 6) ]
    else
      [
        ("torus(16x16)", Graphs.Gen.torus [ 16; 16 ]);
        ("hypercube(8)", Graphs.Gen.hypercube 8);
      ]
  in
  let ratios = if quick then [ 0.5; 0.9; 1.3 ] else [ 0.25; 0.5; 0.75; 0.9; 1.25 ] in
  let rounds = if quick then 400 else 1500 in
  List.concat_map
    (fun (graph_label, graph) ->
      List.concat_map
        (fun algo ->
          List.map
            (fun ratio ->
              run_point ~graph_label ~graph ~algo ~ratio ~rounds ~seed:17)
            ratios)
        algos)
    graphs

let under_capacity p = p.ratio < 1.0
let over_capacity p = p.ratio > 1.0

let stable_below_capacity points =
  List.for_all
    (fun p -> (not p.diverged) && p.conserved && Float.is_finite p.steady_mean)
    (List.filter under_capacity points)

let divergence_detected points =
  match List.filter over_capacity points with
  | [] -> false
  | over -> List.for_all (fun p -> p.diverged) over

(* Monotone up to noise: the steady band at a higher λ may wobble a
   little below the previous one (small integers, Poisson jitter), but
   it must not collapse — the tolerant inequality rejects only a real
   decrease. *)
let monotone_in_lambda points =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if under_capacity p then begin
        let key = p.graph ^ "/" ^ p.algo in
        let prev = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (p :: prev)
      end)
    points;
  (* lint: allow R1 — conjunction over groups, order-insensitive *)
  Hashtbl.fold
    (fun _ group acc ->
      (* group is in reverse sweep order; restore ascending-λ order. *)
      let sorted = List.rev group in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          b.steady_mean >= (0.75 *. a.steady_mean) -. 1.0 && ok rest
        | [ _ ] | [] -> true
      in
      acc && ok sorted)
    groups true

let to_rows points =
  List.map
    (fun p ->
      [
        p.graph;
        p.algo;
        Printf.sprintf "%.2f" p.ratio;
        Printf.sprintf "%.1f" p.lambda;
        string_of_int p.band;
        Printf.sprintf "%.1f" p.steady_mean;
        Printf.sprintf "%.1f" p.steady_p95;
        Printf.sprintf "%.1f" p.steady_p99;
        Printf.sprintf "%.1f" p.inflight_mean;
        Printf.sprintf "%.2f" p.overload_p99;
        Printf.sprintf "%.1f" p.throughput;
        (if p.diverged then "DIVERGED" else "stable");
        (if p.conserved then "yes" else "NO");
      ])
    points

let print_table points =
  Table.print
    ~align:
      [
        Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Left; Table.Left;
      ]
    ~header:
      [ "graph"; "algorithm"; "λ/cap"; "λ"; "band"; "disc mean"; "p95"; "p99";
        "backlog"; "overload p99"; "thru/r"; "verdict"; "conserved" ]
    ~rows:(to_rows points) ()
