(* Tests for open-system runs: arrivals and departures around one
   synchronous Core.Engine step per round (Workload.Engine driven by the
   plain Harness.Openrun stepper). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_open ?(lifetime = Workload.Lifetime.immortal) ~graph ~balancer ~arrival
    ~init ~rounds () =
  Harness.Openrun.run
    ~config:(Workload.Engine.config ~arrival ~lifetime ~rounds ())
    ~graph ~balancer ~init ()

(* Steady band over the second half of the discrepancy series. *)
let second_half (r : Workload.Engine.result) =
  let series = r.Workload.Engine.discrepancy_series in
  let start = Array.length series / 2 in
  Workload.Steady.summarize
    (Array.map
       (fun (_, d) -> float_of_int d)
       (Array.sub series start (Array.length series - start)))

let torus () = Graphs.Gen.torus [ 6; 6 ]

let test_mass_accounting_uniform () =
  let g = torus () in
  let n = 36 in
  let balancer = Core.Send_round.make g ~self_loops:4 in
  let init = Core.Loads.flat ~n ~value:2 in
  let r =
    run_open ~graph:g ~balancer
      ~arrival:(Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 1) ~per_round:9)
      ~init ~rounds:50 ()
  in
  check_int "injected" (50 * 9) r.Workload.Engine.total_arrivals;
  check_int "mass = init + injected" ((36 * 2) + (50 * 9))
    (Core.Loads.total r.Workload.Engine.final_loads)

let test_mass_accounting_with_departures () =
  let g = torus () in
  let n = 36 in
  let balancer = Core.Rotor_router.make g ~self_loops:4 in
  let init = Core.Loads.flat ~n ~value:10 in
  let r =
    run_open
      ~lifetime:(Workload.Lifetime.uniform_attempts ~rng:(Prng.Splitmix.create 2) ~per_round:5)
      ~graph:g ~balancer
      ~arrival:(Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 3) ~per_round:5)
      ~init ~rounds:100 ()
  in
  check_int "mass = init + injected − departed"
    ((36 * 10) + r.Workload.Engine.total_arrivals - r.Workload.Engine.total_departures)
    (Core.Loads.total r.Workload.Engine.final_loads);
  check_bool "departures happened" true (r.Workload.Engine.total_departures > 0)

let test_steady_state_band_uniform () =
  (* With uniform arrivals, the steady discrepancy stays near the static
     O(d√(log n/µ)) band rather than growing with injected volume. *)
  let g = torus () in
  let n = 36 in
  let balancer = Core.Send_round.make g ~self_loops:4 in
  let init = Core.Loads.flat ~n ~value:0 in
  let r =
    run_open ~graph:g ~balancer
      ~arrival:(Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 4) ~per_round:18)
      ~init ~rounds:600 ()
  in
  let steady = second_half r in
  check_bool
    (Printf.sprintf "steady mean %.1f small" steady.Workload.Steady.mean)
    true
    (steady.Workload.Steady.mean < 20.0);
  check_bool "volume grew much larger than the band" true
    (r.Workload.Engine.total_arrivals > 50 * int_of_float steady.Workload.Steady.max)

let test_point_injection_worse_than_uniform () =
  let g = torus () in
  let n = 36 in
  let run arrival =
    let balancer = Core.Rotor_router.make g ~self_loops:4 in
    (second_half
       (run_open ~graph:g ~balancer ~arrival
          ~init:(Core.Loads.flat ~n ~value:0) ~rounds:400 ()))
      .Workload.Steady.mean
  in
  let uniform =
    run (Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 5) ~per_round:12)
  in
  let point = run (Workload.Arrival.point ~node:0 ~per_round:12) in
  check_bool
    (Printf.sprintf "point (%.1f) ≥ uniform (%.1f)" point uniform)
    true (point >= uniform -. 1.0)

let test_max_loaded_is_bounded_anyway () =
  (* Even the adversarial max-loaded injection reaches a steady band:
     the balancer drains B per round as long as B stays below the
     node's d⁺-port throughput times the mixing headroom. *)
  let g = torus () in
  let n = 36 in
  let balancer = Core.Send_round.make g ~self_loops:4 in
  let r =
    run_open ~graph:g ~balancer
      ~arrival:(Workload.Arrival.hotspot ~per_round:4)
      ~init:(Core.Loads.flat ~n ~value:0) ~rounds:600 ()
  in
  let steady = second_half r in
  check_bool
    (Printf.sprintf "steady p95 %.1f bounded" steady.Workload.Steady.p95)
    true
    (steady.Workload.Steady.p95 < 60.0);
  (* And it does not trend upward: last-quarter mean ≈ steady mean. *)
  let len = Array.length r.Workload.Engine.discrepancy_series in
  let last_quarter =
    Array.map (fun (_, d) -> float_of_int d)
      (Array.sub r.Workload.Engine.discrepancy_series (3 * len / 4) (len - (3 * len / 4)))
  in
  let lq_mean =
    Array.fold_left ( +. ) 0.0 last_quarter /. float_of_int (Array.length last_quarter)
  in
  check_bool "no upward trend" true (lq_mean < 2.0 *. steady.Workload.Steady.mean +. 10.0)

let test_departure_drains_to_empty_and_clamps () =
  (* Departures far exceeding the remaining mass must clamp at zero:
     a departure aimed at an empty node is skipped, never counted, and
     no load ever goes negative. *)
  let g = Graphs.Gen.cycle 8 in
  let balancer = Core.Send_floor.make g ~self_loops:2 in
  let r =
    run_open
      ~lifetime:(Workload.Lifetime.uniform_attempts ~rng:(Prng.Splitmix.create 6) ~per_round:10)
      ~graph:g ~balancer
      ~arrival:(Workload.Arrival.point ~node:0 ~per_round:0)
      ~init:(Core.Loads.flat ~n:8 ~value:1) ~rounds:30 ()
  in
  check_int "injected nothing" 0 r.Workload.Engine.total_arrivals;
  check_int "departed exactly the initial mass" 8 r.Workload.Engine.total_departures;
  check_int "system fully drained" 0 (Core.Loads.total r.Workload.Engine.final_loads);
  Array.iter (fun x -> check_bool "never negative" true (x >= 0))
    r.Workload.Engine.final_loads

let test_departure_deterministic_replay () =
  let run () =
    let g = torus () in
    let balancer = Core.Rotor_router.make g ~self_loops:4 in
    run_open
      ~lifetime:(Workload.Lifetime.uniform_attempts ~rng:(Prng.Splitmix.create 8) ~per_round:7)
      ~graph:g ~balancer
      ~arrival:(Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 9) ~per_round:7)
      ~init:(Core.Loads.flat ~n:36 ~value:3) ~rounds:60 ()
  in
  let a = run () and b = run () in
  Alcotest.(check (array int))
    "same seeds, same loads" a.Workload.Engine.final_loads b.Workload.Engine.final_loads;
  check_int "same departures" a.Workload.Engine.total_departures
    b.Workload.Engine.total_departures;
  check_int "same injections" a.Workload.Engine.total_arrivals
    b.Workload.Engine.total_arrivals

let test_departure_heavy_turnover_stays_balanced () =
  (* Arrival rate = departure capacity: the open system churns its whole
     population many times over yet the discrepancy band stays static. *)
  let g = torus () in
  let balancer = Core.Send_round.make g ~self_loops:4 in
  let r =
    run_open
      ~lifetime:(Workload.Lifetime.uniform_attempts ~rng:(Prng.Splitmix.create 10) ~per_round:18)
      ~graph:g ~balancer
      ~arrival:(Workload.Arrival.uniform ~rng:(Prng.Splitmix.create 11) ~per_round:18)
      ~init:(Core.Loads.flat ~n:36 ~value:5) ~rounds:500 ()
  in
  check_bool "turned the population over" true
    (r.Workload.Engine.total_departures > 10 * (36 * 5));
  let steady = second_half r in
  check_bool
    (Printf.sprintf "steady mean %.1f small" steady.Workload.Steady.mean)
    true
    (steady.Workload.Steady.mean < 25.0)

let test_rejects_bad_inputs () =
  let g = torus () in
  let balancer = Core.Rotor_router.make g ~self_loops:4 in
  check_bool "bad node" true
    (try
       ignore
         (run_open ~graph:g ~balancer
            ~arrival:(Workload.Arrival.point ~node:99 ~per_round:1)
            ~init:(Core.Loads.flat ~n:36 ~value:0) ~rounds:1 ());
       false
     with Invalid_argument _ -> true)

let prop_dynamic_conserves_accounting =
  QCheck.Test.make ~name:"open-system accounting always balances" ~count:20
    QCheck.(triple (int_range 3 10) (int_range 0 20) (int_range 1 50))
    (fun (n, batch, rounds) ->
      let g = Graphs.Gen.cycle n in
      let balancer = Core.Send_floor.make g ~self_loops:2 in
      let r =
        run_open ~graph:g ~balancer
          ~arrival:
            (Workload.Arrival.uniform ~rng:(Prng.Splitmix.create (n + batch))
               ~per_round:batch)
          ~init:(Core.Loads.flat ~n ~value:1) ~rounds ()
      in
      Core.Loads.total r.Workload.Engine.final_loads = n + r.Workload.Engine.total_arrivals)

let () =
  Alcotest.run "dynamic"
    [
      ( "accounting",
        [
          Alcotest.test_case "uniform injection" `Quick test_mass_accounting_uniform;
          Alcotest.test_case "with departures" `Quick test_mass_accounting_with_departures;
          Alcotest.test_case "rejects bad inputs" `Quick test_rejects_bad_inputs;
        ] );
      ( "departures",
        [
          Alcotest.test_case "drains to empty, clamps at zero" `Quick
            test_departure_drains_to_empty_and_clamps;
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_departure_deterministic_replay;
          Alcotest.test_case "heavy turnover stays balanced" `Quick
            test_departure_heavy_turnover_stays_balanced;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "uniform band" `Quick test_steady_state_band_uniform;
          Alcotest.test_case "point ≥ uniform" `Quick test_point_injection_worse_than_uniform;
          Alcotest.test_case "max-loaded bounded" `Quick test_max_loaded_is_bounded_anyway;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_dynamic_conserves_accounting ]);
    ]
