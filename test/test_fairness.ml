(* Tests for the Definition 2.1 / 3.1 auditors. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let audit_run ~graph ~balancer ~init ~steps =
  let r = Core.Engine.run ~audit:true ~graph ~balancer ~init ~steps () in
  Option.get r.Core.Engine.fairness

let test_send_floor_is_0_fair () =
  (* Observation 2.2: SEND(⌊x/d+⌋) is cumulatively 0-fair. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  let rep = audit_run ~graph:g ~balancer:(Core.Send_floor.make g ~self_loops:4) ~init ~steps:200 in
  check_int "delta = 0" 0 rep.Core.Fairness.cumulative_delta;
  check_bool "floor share" true rep.Core.Fairness.floor_share_ok

let test_send_round_is_0_fair () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  let rep = audit_run ~graph:g ~balancer:(Core.Send_round.make g ~self_loops:8) ~init ~steps:200 in
  check_int "delta = 0" 0 rep.Core.Fairness.cumulative_delta;
  check_bool "floor share" true rep.Core.Fairness.floor_share_ok;
  check_bool "round fair" true rep.Core.Fairness.round_fair;
  check_bool "ceil cap" true rep.Core.Fairness.ceil_cap_ok

let test_rotor_router_is_1_fair () =
  (* Observation 2.2: ROTOR-ROUTER is cumulatively 1-fair. *)
  List.iter
    (fun (g, d0) ->
      let n = Graphs.Graph.n g in
      let init = Core.Loads.point_mass ~n ~total:(37 * n) in
      let rep =
        audit_run ~graph:g ~balancer:(Core.Rotor_router.make g ~self_loops:d0) ~init
          ~steps:300
      in
      check_bool
        (Printf.sprintf "delta ≤ 1 (got %d)" rep.Core.Fairness.cumulative_delta)
        true
        (rep.Core.Fairness.cumulative_delta <= 1);
      check_bool "floor share" true rep.Core.Fairness.floor_share_ok;
      check_bool "round fair" true rep.Core.Fairness.round_fair)
    [
      (Graphs.Gen.cycle 9, 2);
      (Graphs.Gen.torus [ 4; 4 ], 4);
      (Graphs.Gen.hypercube 3, 3);
    ]

let test_rotor_router_star_good_1_balancer () =
  (* Observation 3.2: ROTOR-ROUTER* is a good 1-balancer. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:999 in
  let rep = audit_run ~graph:g ~balancer:(Core.Rotor_router_star.make g) ~init ~steps:300 in
  check_bool "cumulatively 1-fair" true (rep.Core.Fairness.cumulative_delta <= 1);
  check_bool "round fair" true rep.Core.Fairness.round_fair;
  check_bool "ceil cap" true rep.Core.Fairness.ceil_cap_ok;
  (match rep.Core.Fairness.self_pref_s with
  | None -> () (* never constrained: even stronger than s = 1 *)
  | Some s -> check_bool (Printf.sprintf "s ≥ 1 (got %d)" s) true (s >= 1))

let test_send_round_self_preference () =
  (* With d° = 3d, SEND([x/d+]) must audit as a good s-balancer with
     s ≥ ⌈(d+ - 2d)/2⌉ = d (see Send_round's doc). *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let d = 4 in
  let rep =
    audit_run ~graph:g
      ~balancer:(Core.Send_round.make g ~self_loops:(3 * d))
      ~init:(Core.Loads.point_mass ~n:16 ~total:1777)
      ~steps:300
  in
  (match rep.Core.Fairness.self_pref_s with
  | None -> ()
  | Some s -> check_bool (Printf.sprintf "s ≥ d (got %d)" s) true (s >= d));
  check_bool "round fair" true rep.Core.Fairness.round_fair

let test_unfair_balancer_flagged () =
  (* A balancer that always dumps the excess on original port 0 is not
     cumulatively fair: its delta grows with time. *)
  let g = Graphs.Gen.cycle 6 in
  let d = 2 in
  let self_loops = 2 in
  let dp = d + self_loops in
  let biased =
    {
      Core.Balancer.name = "biased";
      degree = d;
      self_loops;
      props = Core.Balancer.paper_stateless;
      persist = None;
      kernel = None;
      assign =
        (fun ~step:_ ~node:_ ~load ~ports ->
          let q = load / dp and e = load mod dp in
          Array.fill ports 0 dp q;
          ports.(0) <- ports.(0) + e);
    }
  in
  let init = Core.Loads.flat ~n:6 ~value:7 in
  (* load 7, dp 4: e = 3 extra on port 0 every step *)
  let rep = audit_run ~graph:g ~balancer:biased ~init ~steps:10 in
  check_bool
    (Printf.sprintf "delta grows (got %d)" rep.Core.Fairness.cumulative_delta)
    true
    (rep.Core.Fairness.cumulative_delta >= 10)

let test_floor_violation_flagged () =
  (* Sending everything on port 0 violates the ⌊x/d+⌋ floor share. *)
  let g = Graphs.Gen.cycle 4 in
  let greedy =
    {
      Core.Balancer.name = "greedy";
      degree = 2;
      self_loops = 1;
      props = Core.Balancer.paper_stateless;
      persist = None;
      kernel = None;
      assign =
        (fun ~step:_ ~node:_ ~load ~ports ->
          ports.(0) <- load;
          ports.(1) <- 0;
          ports.(2) <- 0);
    }
  in
  let rep =
    audit_run ~graph:g ~balancer:greedy ~init:(Core.Loads.flat ~n:4 ~value:9) ~steps:3
  in
  check_bool "floor violated" false rep.Core.Fairness.floor_share_ok;
  check_bool "not round fair" false rep.Core.Fairness.round_fair;
  check_bool "ceil cap violated" false rep.Core.Fairness.ceil_cap_ok

let test_eq3_deviation_small_for_fair_balancers () =
  (* Equation (3) of the Theorem 2.3 proof: after the A.2 reformulation,
     every original edge's cumulative flow stays within δ of F_out/d⁺. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  List.iter
    (fun (label, balancer, bound) ->
      let rep = audit_run ~graph:g ~balancer ~init ~steps:300 in
      check_bool
        (Printf.sprintf "%s: eq3 %.3f ≤ %.1f" label rep.Core.Fairness.eq3_deviation bound)
        true
        (rep.Core.Fairness.eq3_deviation <= bound))
    [
      ("send-floor", Core.Send_floor.make g ~self_loops:4, 1.0);
      ("send-round", Core.Send_round.make g ~self_loops:4, 1.0);
      ("rotor-router", Core.Rotor_router.make g ~self_loops:4, 2.0);
      ("rotor-router*", Core.Rotor_router_star.make g, 2.0);
    ]

let test_eq3_deviation_grows_for_unfair () =
  (* The Theorem 4.1 adversary's per-edge flows drift apart from
     F_out/d⁺ linearly — eq (3) is exactly what it violates. *)
  let g = Graphs.Gen.cycle 12 in
  let balancer, init = Baselines.Adversary_roundfair.make g in
  let r = Core.Engine.run ~audit:true ~graph:g ~balancer ~init ~steps:50 () in
  let rep = Option.get r.Core.Engine.fairness in
  check_bool
    (Printf.sprintf "deviation %.1f grows" rep.Core.Fairness.eq3_deviation)
    true
    (rep.Core.Fairness.eq3_deviation > 10.0)

let test_node_spread_accessor () =
  let tr = Core.Fairness.create ~degree:2 ~self_loops:1 ~n:2 in
  Core.Fairness.observe tr ~node:0 ~load:5 ~ports:[| 2; 1; 2 |];
  check_int "spread after one step" 1 (Core.Fairness.node_spread tr 0);
  Core.Fairness.observe tr ~node:0 ~load:5 ~ports:[| 1; 2; 2 |];
  check_int "spread evens out" 0 (Core.Fairness.node_spread tr 0)

let test_empirical_s_cap () =
  (* degree 1 not allowed; use degree 2, d° = 2, d+ = 4.  With load 6
     (e = 2) and both extras on original ports, zero self-loops get the
     ceil → empirical s = 0. *)
  let tr = Core.Fairness.create ~degree:2 ~self_loops:2 ~n:1 in
  Core.Fairness.observe tr ~node:0 ~load:6 ~ports:[| 2; 2; 1; 1 |];
  Alcotest.(check (option int))
    "s capped at 0" (Some 0)
    (Core.Fairness.report tr).Core.Fairness.self_pref_s

let prop_rotor_router_delta_at_most_1 =
  QCheck.Test.make ~name:"rotor-router audits at δ ≤ 1 on random cycles" ~count:25
    QCheck.(pair (int_range 3 20) (int_range 0 300))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let bal = Core.Rotor_router.make g ~self_loops:2 in
      let r = Core.Engine.run ~audit:true ~graph:g ~balancer:bal ~init ~steps:50 () in
      (Option.get r.Core.Engine.fairness).Core.Fairness.cumulative_delta <= 1)

let prop_send_floor_delta_zero =
  QCheck.Test.make ~name:"send-floor audits at δ = 0 on random input" ~count:25
    QCheck.(pair (int_range 3 20) (int_range 0 500))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let rng = Prng.Splitmix.create (n + total) in
      let init = Core.Loads.uniform_random rng ~n ~total in
      let bal = Core.Send_floor.make g ~self_loops:3 in
      let r = Core.Engine.run ~audit:true ~graph:g ~balancer:bal ~init ~steps:50 () in
      (Option.get r.Core.Engine.fairness).Core.Fairness.cumulative_delta = 0)

let () =
  Alcotest.run "fairness"
    [
      ( "class membership",
        [
          Alcotest.test_case "send-floor 0-fair" `Quick test_send_floor_is_0_fair;
          Alcotest.test_case "send-round 0-fair" `Quick test_send_round_is_0_fair;
          Alcotest.test_case "rotor-router 1-fair" `Quick test_rotor_router_is_1_fair;
          Alcotest.test_case "rotor-router* good 1-balancer" `Quick
            test_rotor_router_star_good_1_balancer;
          Alcotest.test_case "send-round self-preference" `Quick
            test_send_round_self_preference;
        ] );
      ( "violations",
        [
          Alcotest.test_case "unfair flagged" `Quick test_unfair_balancer_flagged;
          Alcotest.test_case "eq(3) small for fair" `Quick
            test_eq3_deviation_small_for_fair_balancers;
          Alcotest.test_case "eq(3) grows for adversary" `Quick
            test_eq3_deviation_grows_for_unfair;
          Alcotest.test_case "floor violation flagged" `Quick test_floor_violation_flagged;
        ] );
      ( "internals",
        [
          Alcotest.test_case "node spread" `Quick test_node_spread_accessor;
          Alcotest.test_case "empirical s cap" `Quick test_empirical_s_cap;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_rotor_router_delta_at_most_1;
          QCheck_alcotest.to_alcotest prop_send_floor_delta_zero;
        ] );
    ]
