(* Tests for the dimension-exchange (matching model) balancers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_edge_coloring_proper () =
  List.iter
    (fun g ->
      let classes = Baselines.Dimexch.edge_coloring g in
      (* Proper: within a class, no node appears twice. *)
      Array.iter
        (fun cls ->
          let seen = Hashtbl.create 16 in
          Array.iter
            (fun (u, v) ->
              check_bool "u unused" false (Hashtbl.mem seen u);
              check_bool "v unused" false (Hashtbl.mem seen v);
              Hashtbl.add seen u ();
              Hashtbl.add seen v ())
            cls)
        classes;
      (* Complete: all edges covered once. *)
      let total = Array.fold_left (fun acc cls -> acc + Array.length cls) 0 classes in
      check_int "all edges colored" (Graphs.Graph.edge_count g) total;
      (* Bounded: at most 2d - 1 colors. *)
      check_bool "color bound" true
        (Array.length classes <= (2 * Graphs.Graph.degree g) - 1))
    [ Graphs.Gen.cycle 8; Graphs.Gen.hypercube 4; Graphs.Gen.torus [ 4; 4 ] ]

let test_hypercube_coloring_is_dimensional () =
  (* The greedy coloring of a hypercube listed dimension-by-dimension
     uses exactly d colors. *)
  let g = Graphs.Gen.hypercube 4 in
  check_int "d colors" 4 (Array.length (Baselines.Dimexch.edge_coloring g))

let test_balancing_circuit_conserves () =
  let g = Graphs.Gen.hypercube 4 in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  let r = Baselines.Dimexch.run Baselines.Dimexch.Balancing_circuit g ~init ~steps:100 in
  check_int "mass" 1000 (Core.Loads.total r.Baselines.Dimexch.final_loads)

let test_balancing_circuit_constant_discrepancy () =
  (* The dimension-exchange contrast: constant discrepancy, beating the
     Ω(d) diffusive lower bound. *)
  let g = Graphs.Gen.hypercube 5 in
  let init = Core.Loads.point_mass ~n:32 ~total:3210 in
  let r = Baselines.Dimexch.run Baselines.Dimexch.Balancing_circuit g ~init ~steps:500 in
  let disc = Core.Loads.discrepancy r.Baselines.Dimexch.final_loads in
  check_bool (Printf.sprintf "constant discrepancy (got %d)" disc) true (disc <= 3)

let test_random_matching_conserves () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:555 in
  let rng = Prng.Splitmix.create 5 in
  let r =
    Baselines.Dimexch.run (Baselines.Dimexch.Random_matching rng) g ~init ~steps:200
  in
  check_int "mass" 555 (Core.Loads.total r.Baselines.Dimexch.final_loads)

let test_random_matching_balances () =
  let rng_g = Prng.Splitmix.create 11 in
  let g = Graphs.Gen.random_regular rng_g ~n:32 ~d:4 in
  let init = Core.Loads.point_mass ~n:32 ~total:3200 in
  let rng = Prng.Splitmix.create 6 in
  let r =
    Baselines.Dimexch.run (Baselines.Dimexch.Random_matching rng) g ~init ~steps:800
  in
  let disc = Core.Loads.discrepancy r.Baselines.Dimexch.final_loads in
  check_bool (Printf.sprintf "balanced (got %d)" disc) true (disc <= 6)

let test_stop_at_discrepancy () =
  let g = Graphs.Gen.hypercube 4 in
  let init = Core.Loads.point_mass ~n:16 ~total:1600 in
  let r =
    Baselines.Dimexch.run ~stop_at_discrepancy:8 Baselines.Dimexch.Balancing_circuit g
      ~init ~steps:10_000
  in
  match r.Baselines.Dimexch.reached_target with
  | None -> Alcotest.fail "never reached"
  | Some t -> check_bool "early" true (t < 10_000)

let test_series_monotone_under_circuit () =
  (* Pairwise averaging can only shrink the spread between the matched
     pair; global discrepancy is non-increasing under any matching. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.bimodal ~n:16 ~high:100 ~low:0 in
  let r = Baselines.Dimexch.run Baselines.Dimexch.Balancing_circuit g ~init ~steps:100 in
  let prev = ref max_int in
  Array.iter
    (fun (_, d) ->
      check_bool "non-increasing" true (d <= !prev);
      prev := d)
    r.Baselines.Dimexch.series

(* A random-matching round reads the edge array and reuses its buffers
   instead of building them again: on torus 64×64, ten rounds more cost
   at most 10,000 more words.  Settle the GC first, so that a major
   slice in the window cannot bill earlier allocations to it, and empty
   the minor heap before reading: OCaml 5.1 undercounts the words still
   in it. *)
let test_random_matching_allocation () =
  let g = Graphs.Gen.torus [ 64; 64 ] in
  let n = Graphs.Graph.n g in
  let init = Core.Loads.point_mass ~n ~total:(100 * n) in
  let words steps =
    let mode = Baselines.Dimexch.Random_matching (Prng.Splitmix.create 3) in
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    let r = Baselines.Dimexch.run mode g ~init ~steps in
    Gc.minor ();
    let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
    check_int "mass" (100 * n) (Core.Loads.total r.Baselines.Dimexch.final_loads);
    words
  in
  let per_round = (words 12 -. words 2) /. 10.0 in
  check_bool
    (Printf.sprintf "%.0f words a round, budget 1000" per_round)
    true (per_round <= 1000.0)

let prop_pair_balance_conserves =
  QCheck.Test.make ~name:"matching steps conserve mass on random inputs" ~count:50
    QCheck.(pair (int_range 2 5) (int_range 0 2000))
    (fun (r, total) ->
      let g = Graphs.Gen.hypercube r in
      let n = Graphs.Graph.n g in
      let rng = Prng.Splitmix.create (r + total) in
      let init = Core.Loads.uniform_random rng ~n ~total in
      let res =
        Baselines.Dimexch.run (Baselines.Dimexch.Random_matching rng) g ~init ~steps:50
      in
      Core.Loads.total res.Baselines.Dimexch.final_loads = total)

let () =
  Alcotest.run "dimexch"
    [
      ( "edge coloring",
        [
          Alcotest.test_case "proper" `Quick test_edge_coloring_proper;
          Alcotest.test_case "hypercube dimensional" `Quick
            test_hypercube_coloring_is_dimensional;
        ] );
      ( "balancing",
        [
          Alcotest.test_case "circuit conserves" `Quick test_balancing_circuit_conserves;
          Alcotest.test_case "circuit constant discrepancy" `Quick
            test_balancing_circuit_constant_discrepancy;
          Alcotest.test_case "random matching conserves" `Quick
            test_random_matching_conserves;
          Alcotest.test_case "random matching balances" `Quick test_random_matching_balances;
          Alcotest.test_case "random matching allocation" `Quick
            test_random_matching_allocation;
          Alcotest.test_case "stop at discrepancy" `Quick test_stop_at_discrepancy;
          Alcotest.test_case "series monotone" `Quick test_series_monotone_under_circuit;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_pair_balance_conserves ]);
    ]
