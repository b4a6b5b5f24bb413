(* Tests for the proof-technique modules: Tap, Remainder (Prop. A.2),
   Coloring (Lemma 3.5), Metrics, and the quasirandom baseline [9]. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Tap --- *)

let test_tap_transparent () =
  let g = Graphs.Gen.cycle 8 in
  let mk () = Core.Rotor_router.make g ~self_loops:2 in
  let init = Core.Loads.point_mass ~n:8 ~total:100 in
  let plain = Core.Engine.run ~graph:g ~balancer:(mk ()) ~init ~steps:30 () in
  let count = ref 0 in
  let tapped =
    Core.Tap.wrap (mk ()) ~on_assign:(fun ~step:_ ~node:_ ~load:_ ~ports:_ -> incr count)
  in
  let seen = Core.Engine.run ~graph:g ~balancer:tapped ~init ~steps:30 () in
  Alcotest.(check (array int))
    "identical dynamics" plain.Core.Engine.final_loads seen.Core.Engine.final_loads;
  check_int "observer called n*steps times" (8 * 30) !count

let test_tap_sees_filled_ports () =
  let g = Graphs.Gen.cycle 4 in
  let sums_ok = ref true in
  let tapped =
    Core.Tap.wrap
      (Core.Send_floor.make g ~self_loops:2)
      ~on_assign:(fun ~step:_ ~node:_ ~load ~ports ->
        if Array.fold_left ( + ) 0 ports <> load then sums_ok := false)
  in
  let init = Core.Loads.flat ~n:4 ~value:13 in
  ignore (Core.Engine.run ~graph:g ~balancer:tapped ~init ~steps:10 ());
  check_bool "ports filled before observation" true !sums_ok

(* --- Remainder (Proposition A.2) --- *)

let test_remainder_bound_send_floor () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let balancer, finish = Core.Remainder.wrap (Core.Send_floor.make g ~self_loops:4) in
  let init = Core.Loads.point_mass ~n:16 ~total:977 in
  ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:100 ());
  let rep = finish () in
  check_bool
    (Printf.sprintf "max |r| = %d ≤ d+ = %d" rep.Core.Remainder.max_abs_remainder
       rep.Core.Remainder.remainder_bound)
    true rep.Core.Remainder.bound_ok;
  check_int "observed all node-steps" (16 * 100) rep.Core.Remainder.observations

let test_remainder_bound_rotor_router () =
  let g = Graphs.Gen.cycle 12 in
  let balancer, finish = Core.Remainder.wrap (Core.Rotor_router.make g ~self_loops:2) in
  let init = Core.Loads.point_mass ~n:12 ~total:500 in
  ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:200 ());
  check_bool "rotor-router remainder bounded" true (finish ()).Core.Remainder.bound_ok

let test_remainder_identical_dynamics () =
  let g = Graphs.Gen.hypercube 3 in
  let init = Core.Loads.point_mass ~n:8 ~total:333 in
  let plain =
    Core.Engine.run ~graph:g ~balancer:(Core.Send_round.make g ~self_loops:6) ~init
      ~steps:50 ()
  in
  let wrapped, _ = Core.Remainder.wrap (Core.Send_round.make g ~self_loops:6) in
  let via = Core.Engine.run ~graph:g ~balancer:wrapped ~init ~steps:50 () in
  Alcotest.(check (array int))
    "A and A' move the same load" plain.Core.Engine.final_loads
    via.Core.Engine.final_loads

let test_remainder_rejects_no_self_loops () =
  let g = Graphs.Gen.cycle 5 in
  check_bool "rejected" true
    (try
       ignore (Core.Remainder.wrap (Core.Rotor_router.make g ~self_loops:0));
       false
     with Invalid_argument _ -> true)

(* --- Coloring (Lemma 3.5) --- *)

let coloring_all_ok (r : Core.Coloring.report) =
  r.Core.Coloring.rule1_ok && r.Core.Coloring.no_forced_downgrade
  && r.Core.Coloring.drop_dominated && r.Core.Coloring.phi_equals_red

let test_coloring_send_round () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let d = 4 in
  let init = Core.Loads.point_mass ~n:16 ~total:888 in
  (* c around the average load level over d+ = 16. *)
  List.iter
    (fun c ->
      let balancer = Core.Send_round.make g ~self_loops:(3 * d) in
      let r = Core.Coloring.check ~graph:g ~balancer ~s:d ~c ~init ~steps:200 in
      check_bool (Printf.sprintf "c=%d all invariants" c) true (coloring_all_ok r);
      check_int (Printf.sprintf "c=%d steps" c) 200 r.Core.Coloring.steps_checked)
    [ 2; 4; 8 ]

let test_coloring_rotor_router_star () =
  let g = Graphs.Gen.hypercube 4 in
  let init = Core.Loads.point_mass ~n:16 ~total:500 in
  let balancer = Core.Rotor_router_star.make g in
  let r = Core.Coloring.check ~graph:g ~balancer ~s:1 ~c:5 ~init ~steps:300 in
  check_bool "rotor-router* satisfies the coloring argument" true (coloring_all_ok r)

let test_coloring_recolor_count_is_phi_drop () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let d = 4 in
  let dp = d + (3 * d) in
  let c = 3 in
  let init = Core.Loads.point_mass ~n:16 ~total:700 in
  let balancer = Core.Send_round.make g ~self_loops:(3 * d) in
  let phi0 = Core.Potential.phi ~d_plus:dp ~c init in
  let r = Core.Coloring.check ~graph:g ~balancer ~s:d ~c ~init ~steps:400 in
  check_bool "all invariants" true (coloring_all_ok r);
  (* Run the same config again to get final loads. *)
  let run =
    Core.Engine.run ~graph:g
      ~balancer:(Core.Send_round.make g ~self_loops:(3 * d))
      ~init ~steps:400 ()
  in
  let phi_final = Core.Potential.phi ~d_plus:dp ~c run.Core.Engine.final_loads in
  check_int "total recolorings = φ drop" (phi0 - phi_final) r.Core.Coloring.total_recolored

let test_gap_coloring_send_round () =
  (* Lemma 3.7's symmetric argument on a live run: start low-heavy so
     the gap potential genuinely drains. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let d = 4 in
  let init = Core.Loads.bimodal ~n:16 ~high:80 ~low:0 in
  List.iter
    (fun c ->
      let balancer = Core.Send_round.make g ~self_loops:(3 * d) in
      let r = Core.Coloring.check_gap ~graph:g ~balancer ~s:d ~c ~init ~steps:300 in
      check_bool (Printf.sprintf "gap c=%d all invariants" c) true (coloring_all_ok r))
    [ 1; 2 ]

let test_gap_coloring_recolor_count_is_phi'_drop () =
  let g = Graphs.Gen.hypercube 4 in
  let d = 4 in
  let d0 = 3 * d in
  let dp = d + d0 in
  let s = d in
  let c = 1 in
  let init = Core.Loads.bimodal ~n:16 ~high:66 ~low:2 in
  let balancer = Core.Send_round.make g ~self_loops:d0 in
  let phi0 = Core.Potential.phi' ~d_plus:dp ~s ~c init in
  let r = Core.Coloring.check_gap ~graph:g ~balancer ~s ~c ~init ~steps:400 in
  check_bool "all invariants" true (coloring_all_ok r);
  let run =
    Core.Engine.run ~graph:g
      ~balancer:(Core.Send_round.make g ~self_loops:d0)
      ~init ~steps:400 ()
  in
  let phi_final = Core.Potential.phi' ~d_plus:dp ~s ~c run.Core.Engine.final_loads in
  check_int "total recolorings = φ' drop" (phi0 - phi_final)
    r.Core.Coloring.total_recolored

let test_coloring_flags_bad_balancer () =
  (* A greedy balancer that is NOT round-fair must trip rule (1). *)
  let g = Graphs.Gen.cycle 6 in
  let greedy =
    {
      Core.Balancer.name = "greedy";
      degree = 2;
      self_loops = 2;
      props = Core.Balancer.paper_stateless;
      persist = None;
      kernel = None;
      assign =
        (fun ~step:_ ~node:_ ~load ~ports ->
          Array.fill ports 0 4 0;
          ports.(0) <- load);
    }
  in
  let init = Core.Loads.flat ~n:6 ~value:40 in
  let r = Core.Coloring.check ~graph:g ~balancer:greedy ~s:1 ~c:5 ~init ~steps:5 in
  check_bool "rule 1 violated" false r.Core.Coloring.rule1_ok

(* --- Metrics --- *)

let test_metrics_recorder () =
  let g = Graphs.Gen.complete 6 in
  let init = Core.Loads.point_mass ~n:6 ~total:60 in
  let t, hook = Core.Metrics.recorder () in
  hook 0 init;
  ignore
    (Core.Engine.run ~hook ~graph:g
       ~balancer:(Core.Rotor_router.make g ~self_loops:5)
       ~init ~steps:20 ());
  let samples = Core.Metrics.samples t in
  check_int "21 samples" 21 (Array.length samples);
  check_int "first is initial" 60 samples.(0).Core.Metrics.discrepancy;
  let last = samples.(20) in
  check_bool "converged" true (last.Core.Metrics.discrepancy <= 10);
  (* Quadratic potential of the continuous-like trajectory shrinks. *)
  check_bool "quadratic decreased" true
    (last.Core.Metrics.quadratic < samples.(0).Core.Metrics.quadratic)

let test_metrics_every () =
  let t, hook = Core.Metrics.recorder ~every:5 () in
  for step = 1 to 20 do
    hook step [| step; 0 |]
  done;
  let s = Core.Metrics.samples t in
  Alcotest.(check (list int)) "sampled steps" [ 5; 10; 15; 20 ]
    (Array.to_list (Array.map (fun x -> x.Core.Metrics.step) s))

let test_quadratic_potential () =
  Alcotest.(check (float 1e-9)) "flat" 0.0 (Core.Metrics.quadratic_potential [| 3; 3 |]);
  Alcotest.(check (float 1e-9)) "pair" 2.0 (Core.Metrics.quadratic_potential [| 2; 4 |])

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Core.Metrics.sparkline [||]);
  let s = Core.Metrics.sparkline [| 0.0; 1.0 |] in
  check_bool "two blocks" true (String.length s > 0);
  (* Monotone series renders monotone blocks: first char is the lowest
     block, last is the highest. *)
  let s = Core.Metrics.sparkline [| 0.0; 0.25; 0.5; 0.75; 1.0 |] in
  check_bool "starts low" true (String.sub s 0 3 = "\xe2\x96\x81");
  check_bool "ends high" true (String.sub s (String.length s - 3) 3 = "\xe2\x96\x88")

(* --- Quasirandom [9] --- *)

let test_quasirandom_bounded_error () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let balancer, max_err = Baselines.Quasirandom.make g ~self_loops:4 in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:300 ());
  check_bool
    (Printf.sprintf "per-edge error %.3f < 1" (max_err ()))
    true
    (max_err () < 1.0)

let test_quasirandom_conserves_and_balances () =
  let g = Graphs.Gen.hypercube 4 in
  let balancer, _ = Baselines.Quasirandom.make g ~self_loops:4 in
  let init = Core.Loads.point_mass ~n:16 ~total:1600 in
  let r = Core.Engine.run ~graph:g ~balancer ~init ~steps:300 () in
  check_int "mass" 1600 (Core.Loads.total r.Core.Engine.final_loads);
  check_bool "balanced" true (Core.Loads.discrepancy r.Core.Engine.final_loads <= 16)

let test_quasirandom_props () =
  let g = Graphs.Gen.cycle 4 in
  let balancer, _ = Baselines.Quasirandom.make g ~self_loops:1 in
  check_bool "deterministic" true balancer.Core.Balancer.props.deterministic;
  check_bool "may overdraw" false balancer.Core.Balancer.props.never_negative

(* --- randomized balancing circuit --- *)

let test_randomized_circuit_constant_on_torus () =
  let g = Graphs.Gen.torus [ 8; 8 ] in
  let init = Core.Loads.point_mass ~n:64 ~total:6400 in
  let rng = Prng.Splitmix.create 4 in
  let r =
    Baselines.Dimexch.run
      (Baselines.Dimexch.Balancing_circuit_randomized rng)
      g ~init ~steps:2000
  in
  let disc = Core.Loads.discrepancy r.Baselines.Dimexch.final_loads in
  check_bool (Printf.sprintf "constant discrepancy (got %d)" disc) true (disc <= 3)

let prop_remainder_bound_universal =
  QCheck.Test.make ~name:"Prop A.2 remainder bound holds for the paper's algorithms"
    ~count:40
    QCheck.(triple (int_range 0 2) (int_range 3 12) (int_range 0 1000))
    (fun (which, n, total) ->
      let g = Graphs.Gen.cycle n in
      let inner =
        match which with
        | 0 -> Core.Rotor_router.make g ~self_loops:2
        | 1 -> Core.Send_floor.make g ~self_loops:2
        | _ -> Core.Send_round.make g ~self_loops:2
      in
      let balancer, finish = Core.Remainder.wrap inner in
      let init = Core.Loads.point_mass ~n ~total in
      ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:40 ());
      (finish ()).Core.Remainder.bound_ok)

let prop_quasirandom_error_stays_bounded =
  QCheck.Test.make ~name:"quasirandom per-edge error < 1 on random inputs" ~count:30
    QCheck.(pair (int_range 4 16) (int_range 0 2000))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let balancer, max_err = Baselines.Quasirandom.make g ~self_loops:2 in
      let rng = Prng.Splitmix.create (n + total) in
      let init = Core.Loads.uniform_random rng ~n ~total in
      ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:60 ());
      max_err () < 1.0)

let () =
  Alcotest.run "analysis"
    [
      ( "tap",
        [
          Alcotest.test_case "transparent" `Quick test_tap_transparent;
          Alcotest.test_case "sees filled ports" `Quick test_tap_sees_filled_ports;
        ] );
      ( "remainder (Prop A.2)",
        [
          Alcotest.test_case "send-floor bounded" `Quick test_remainder_bound_send_floor;
          Alcotest.test_case "rotor-router bounded" `Quick
            test_remainder_bound_rotor_router;
          Alcotest.test_case "identical dynamics" `Quick test_remainder_identical_dynamics;
          Alcotest.test_case "needs self-loops" `Quick test_remainder_rejects_no_self_loops;
        ] );
      ( "coloring (Lemma 3.5)",
        [
          Alcotest.test_case "send-round invariants" `Quick test_coloring_send_round;
          Alcotest.test_case "rotor-router* invariants" `Quick
            test_coloring_rotor_router_star;
          Alcotest.test_case "recolorings = φ drop" `Quick
            test_coloring_recolor_count_is_phi_drop;
          Alcotest.test_case "gap coloring (Lemma 3.7)" `Quick
            test_gap_coloring_send_round;
          Alcotest.test_case "gap recolorings = φ' drop" `Quick
            test_gap_coloring_recolor_count_is_phi'_drop;
          Alcotest.test_case "flags bad balancer" `Quick test_coloring_flags_bad_balancer;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "recorder" `Quick test_metrics_recorder;
          Alcotest.test_case "every" `Quick test_metrics_every;
          Alcotest.test_case "quadratic potential" `Quick test_quadratic_potential;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "quasirandom [9]",
        [
          Alcotest.test_case "bounded error" `Quick test_quasirandom_bounded_error;
          Alcotest.test_case "conserves + balances" `Quick
            test_quasirandom_conserves_and_balances;
          Alcotest.test_case "properties" `Quick test_quasirandom_props;
        ] );
      ( "randomized circuit [10]",
        [
          Alcotest.test_case "constant on torus" `Quick
            test_randomized_circuit_constant_on_torus;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_remainder_bound_universal;
          QCheck_alcotest.to_alcotest prop_quasirandom_error_stays_bounded;
        ] );
    ]
