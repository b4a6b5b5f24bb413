type point = {
  graph : string;
  algo : string;
  drop : float;
  delay : int;
  backoff : string;
  staleness : int;
  band : int;
  final : int;
  inflation : float;
  retx_overhead : float;
  degraded_rounds : int;
  drain_rounds : int;
  drained : bool;
  conserved : bool;
}

let run_point ~graph_label ~graph ~algo_label ~make_balancer ~self_loops ~drop
    ~delay ~backoff ~staleness ~steps ~seed =
  let n = Graphs.Graph.n graph in
  let init = Core.Loads.point_mass ~n ~total:(16 * n) in
  let band = Experiment.theorem_band ~graph ~self_loops in
  let config =
    {
      Net.Async_engine.channel = { Net.Channel.reliable with drop; delay };
      protocol = { Net.Protocol.default_config with backoff };
      staleness;
      degrade = true;
      seed;
      max_drain_rounds = 100_000;
    }
  in
  let report =
    Net.Async_engine.run ~config ~graph ~balancer:(make_balancer ()) ~init ~steps ()
  in
  let final = Core.Loads.discrepancy report.Net.Async_engine.result.Core.Engine.final_loads in
  let p = report.Net.Async_engine.protocol_stats in
  {
    graph = graph_label;
    algo = algo_label;
    drop;
    delay;
    backoff = Net.Protocol.backoff_name backoff;
    staleness;
    band;
    final;
    inflation = float_of_int final /. float_of_int (max 1 band);
    retx_overhead =
      (if p.Net.Protocol.messages_sent = 0 then 0.0
       else
         float_of_int p.Net.Protocol.retransmissions
         /. float_of_int p.Net.Protocol.messages_sent);
    degraded_rounds = report.Net.Async_engine.degraded_rounds;
    drain_rounds = report.Net.Async_engine.drain_rounds;
    drained = report.Net.Async_engine.drained;
    conserved = Net.Async_engine.conserved report;
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
      label = "rotor-router*";
      self_loops = (fun _ -> 1);
      make = (fun g () -> Core.Rotor_router_star.make g);
    };
    {
      label = "quasirandom";
      self_loops = (fun d -> d);
      make =
        (fun g () ->
          fst (Baselines.Quasirandom.make g ~self_loops:(Graphs.Graph.degree g)));
    };
  ]

let sweep ~quick () =
  let graphs =
    if quick then
      [
        ("torus(8x8)", Graphs.Gen.torus [ 8; 8 ], 120);
        ("hypercube(6)", Graphs.Gen.hypercube 6, 80);
        ("rand-reg(64,6)", Graphs.Gen.random_regular (Prng.Splitmix.create 5) ~n:64 ~d:6, 80);
      ]
    else
      [
        ("torus(16x16)", Graphs.Gen.torus [ 16; 16 ], 400);
        ("hypercube(8)", Graphs.Gen.hypercube 8, 160);
        ("rand-reg(256,8)", Graphs.Gen.random_regular (Prng.Splitmix.create 5) ~n:256 ~d:8, 160);
      ]
  in
  let grid =
    if quick then [ (0.1, 0, Net.Protocol.Exponential); (0.1, 2, Net.Protocol.Exponential) ]
    else
      List.concat_map
        (fun drop ->
          List.concat_map
            (fun delay ->
              List.map
                (fun backoff -> (drop, delay, backoff))
                [ Net.Protocol.Fixed; Net.Protocol.Exponential ])
            [ 0; 2 ])
        [ 0.02; 0.1; 0.3 ]
  in
  List.concat_map
    (fun (graph_label, graph, steps) ->
      List.concat_map
        (fun algo ->
          List.map
            (fun (drop, delay, backoff) ->
              run_point ~graph_label ~graph ~algo_label:algo.label
                ~make_balancer:(algo.make graph)
                ~self_loops:(algo.self_loops (Graphs.Graph.degree graph))
                ~drop ~delay ~backoff ~staleness:2 ~steps ~seed:42)
            grid)
        algos)
    graphs

let to_rows points =
  List.map
    (fun p ->
      [
        p.graph;
        p.algo;
        Printf.sprintf "%g" p.drop;
        string_of_int p.delay;
        p.backoff;
        string_of_int p.band;
        string_of_int p.final;
        Printf.sprintf "%.2f" p.inflation;
        Printf.sprintf "%.2f" p.retx_overhead;
        string_of_int p.degraded_rounds;
        string_of_int p.drain_rounds;
        (if p.conserved then "yes" else "NO");
      ])
    points

let print_table points =
  Table.print
    ~align:
      [
        Table.Left; Table.Left; Table.Right; Table.Right; Table.Left; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left;
      ]
    ~header:
      [ "graph"; "algorithm"; "drop"; "delay"; "backoff"; "band"; "final";
        "inflation"; "retx-ovh"; "degraded"; "drain"; "conserved" ]
    ~rows:(to_rows points) ()
