(* Tests for the paper's named algorithms: rotor-router, rotor-router*,
   SEND(⌊x/d+⌋) and SEND([x/d+]). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assign_once balancer ~load =
  let dp = Core.Balancer.d_plus balancer in
  let ports = Array.make dp 0 in
  balancer.Core.Balancer.assign ~step:1 ~node:0 ~load ~ports;
  ports

(* --- default rotor order --- *)

let test_default_order_is_permutation () =
  List.iter
    (fun (d, d0) ->
      let ord = Core.Rotor_router.default_order ~degree:d ~self_loops:d0 in
      check_int "length" (d + d0) (Array.length ord);
      let sorted = Array.copy ord in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" (Array.init (d + d0) (fun i -> i)) sorted)
    [ (2, 0); (2, 2); (3, 3); (4, 2); (6, 12); (1, 5) ]

let test_default_order_interleaves () =
  (* With d = d°, originals and self-loops must alternate. *)
  let ord = Core.Rotor_router.default_order ~degree:3 ~self_loops:3 in
  let kinds = Array.map (fun k -> k < 3) ord in
  for i = 0 to 4 do
    check_bool "alternating" true (kinds.(i) <> kinds.(i + 1))
  done

(* --- rotor-router --- *)

let test_rotor_router_round_robin () =
  let g = Graphs.Gen.cycle 4 in
  let bal = Core.Rotor_router.make g ~self_loops:2 in
  (* d+ = 4; load 6: every port gets 1, two ports get 2 starting at
     rotor 0 (order positions 0 and 1). *)
  let p1 = assign_once bal ~load:6 in
  check_int "total" 6 (Array.fold_left ( + ) 0 p1);
  Array.iter (fun v -> check_bool "floor share" true (v >= 1 && v <= 2)) p1;
  (* Rotor advanced by 2; next assignment's extras start 2 later. *)
  let p2 = assign_once bal ~load:6 in
  check_int "total 2" 6 (Array.fold_left ( + ) 0 p2);
  (* Across the two steps every port has received exactly 3 tokens. *)
  let cum = Array.map2 ( + ) p1 p2 in
  Array.iter (fun v -> check_int "perfect rotation" 3 v) cum

let test_rotor_router_zero_load () =
  let g = Graphs.Gen.cycle 4 in
  let bal = Core.Rotor_router.make g ~self_loops:1 in
  let p = assign_once bal ~load:0 in
  Array.iter (fun v -> check_int "all zero" 0 v) p

let test_rotor_router_exact_multiple () =
  let g = Graphs.Gen.cycle 4 in
  let bal = Core.Rotor_router.make g ~self_loops:2 in
  let p = assign_once bal ~load:12 in
  Array.iter (fun v -> check_int "equal shares" 3 v) p

let test_rotor_router_rejects_negative () =
  let g = Graphs.Gen.cycle 4 in
  let bal = Core.Rotor_router.make g ~self_loops:1 in
  check_bool "negative rejected" true
    (try
       ignore (assign_once bal ~load:(-1));
       false
     with Invalid_argument _ -> true)

let test_rotor_router_custom_order_validated () =
  let g = Graphs.Gen.cycle 4 in
  check_bool "bad order rejected" true
    (try
       ignore (Core.Rotor_router.make g ~self_loops:1 ~order:(fun _ -> [| 0; 0; 1 |]));
       false
     with Invalid_argument _ -> true)

let test_rotor_router_init_rotor () =
  let g = Graphs.Gen.cycle 4 in
  (* order = identity [0;1] with d° = 0; rotor at 1 sends the odd token
     to port 1. *)
  let bal =
    Core.Rotor_router.make g ~self_loops:0
      ~order:(fun _ -> [| 0; 1 |])
      ~init_rotor:(fun _ -> 1)
  in
  let p = assign_once bal ~load:3 in
  Alcotest.(check (array int)) "extra on port 1" [| 1; 2 |] p

let test_rotor_router_balances_complete_graph () =
  let n = 8 in
  let g = Graphs.Gen.complete n in
  let init = Core.Loads.point_mass ~n ~total:(n * n * 4) in
  let bal = Core.Rotor_router.make g ~self_loops:(n - 1) in
  let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:200 () in
  check_bool
    (Printf.sprintf "small discrepancy (got %d)"
       (Core.Loads.discrepancy r.Core.Engine.final_loads))
    true
    (Core.Loads.discrepancy r.Core.Engine.final_loads <= 2 * (n - 1))

(* A checkpoint or snapshot whose rotor lies outside the rotor's range
   is refused whole by state_restore, before any node changes. *)
let check_restore_bound label bal ~bound =
  match bal.Core.Balancer.persist with
  | None -> Alcotest.fail (label ^ ": no persistence")
  | Some p ->
    let before = p.Core.Balancer.state_save () in
    let n = Array.length before in
    List.iter
      (fun bad ->
        let saved = Array.init n (fun u -> if u = n - 1 then bad else (u + 1) mod bound) in
        check_bool
          (Printf.sprintf "%s: rotor %d rejected" label bad)
          true
          (try
             p.Core.Balancer.state_restore saved;
             false
           with Invalid_argument _ -> true);
        Alcotest.(check (array int))
          (Printf.sprintf "%s: state untouched after rotor %d" label bad)
          before (p.Core.Balancer.state_save ()))
      [ -1; bound; bound + 7 ];
    let ok = Array.init n (fun u -> (bound - 1 + u) mod bound) in
    p.Core.Balancer.state_restore ok;
    Alcotest.(check (array int)) (label ^ ": in-range state restored") ok
      (p.Core.Balancer.state_save ())

let test_restore_rejects_out_of_range_rotor () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  check_restore_bound "rotor-router" (Core.Rotor_router.make g ~self_loops:3) ~bound:7;
  check_restore_bound "rotor-router*" (Core.Rotor_router_star.make g) ~bound:7;
  let h = Graphs.Gen.hypercube 3 in
  check_restore_bound "rotor-router d°=0" (Core.Rotor_router.make h ~self_loops:0) ~bound:3;
  check_restore_bound "rotor-router* d=3" (Core.Rotor_router_star.make h) ~bound:5

(* --- rotor-router* --- *)

let test_rotor_router_star_special_loop () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  (* d = 4, d+ = 8.  Load 21: special self-loop (last port) gets
     ceil(21/8) = 3; the other 18 spread as 2 each over 7 ports with 4
     extras. *)
  let bal = Core.Rotor_router_star.make g in
  let p = assign_once bal ~load:21 in
  check_int "special" 3 p.(7);
  check_int "total" 21 (Array.fold_left ( + ) 0 p);
  for k = 0 to 6 do
    check_bool "round fair" true (p.(k) = 2 || p.(k) = 3)
  done

let test_rotor_router_star_self_loops_is_d () =
  let g = Graphs.Gen.hypercube 3 in
  let bal = Core.Rotor_router_star.make g in
  check_int "d° = d" 3 bal.Core.Balancer.self_loops

(* --- SEND variants --- *)

let test_send_floor_exact () =
  let g = Graphs.Gen.cycle 4 in
  (* d = 2, d° = 2, d+ = 4; load 11: originals get 2 each, self-loop 0
     gets 2 + 3, self-loop 1 gets 2. *)
  let bal = Core.Send_floor.make g ~self_loops:2 in
  let p = assign_once bal ~load:11 in
  Alcotest.(check (array int)) "assignment" [| 2; 2; 5; 2 |] p

let test_send_floor_requires_self_loop () =
  let g = Graphs.Gen.cycle 4 in
  check_bool "rejected" true
    (try
       ignore (Core.Send_floor.make g ~self_loops:0);
       false
     with Invalid_argument _ -> true)

let test_send_round_rounds_half_up () =
  let g = Graphs.Gen.cycle 4 in
  (* d = 2, d° = 2, d+ = 4; load 10: 10/4 = 2.5 rounds to 3: originals
     get 3 each; self-loops share 4 = 2 + 2. *)
  let bal = Core.Send_round.make g ~self_loops:2 in
  let p = assign_once bal ~load:10 in
  check_int "orig 0" 3 p.(0);
  check_int "orig 1" 3 p.(1);
  check_int "total" 10 (Array.fold_left ( + ) 0 p);
  (* load 9: 9/4 = 2.25 rounds down: originals get 2. *)
  let p2 = assign_once bal ~load:9 in
  check_int "orig rounds down" 2 p2.(0);
  check_int "total 2" 9 (Array.fold_left ( + ) 0 p2)

let test_send_round_requires_enough_self_loops () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  check_bool "d° < d rejected" true
    (try
       ignore (Core.Send_round.make g ~self_loops:3);
       false
     with Invalid_argument _ -> true)

let test_send_variants_are_stateless () =
  let g = Graphs.Gen.cycle 6 in
  let floor_bal = Core.Send_floor.make g ~self_loops:2 in
  let round_bal = Core.Send_round.make g ~self_loops:2 in
  check_bool "floor stateless" true floor_bal.Core.Balancer.props.stateless;
  check_bool "round stateless" true round_bal.Core.Balancer.props.stateless;
  (* Statelessness in action: same load => same assignment, twice. *)
  let a = assign_once floor_bal ~load:17 in
  let b = assign_once floor_bal ~load:17 in
  Alcotest.(check (array int)) "same assignment" a b

let test_rotor_router_is_stateful () =
  let g = Graphs.Gen.cycle 6 in
  let bal = Core.Rotor_router.make g ~self_loops:2 in
  check_bool "not stateless" false bal.Core.Balancer.props.stateless;
  let a = assign_once bal ~load:17 in
  let b = assign_once bal ~load:17 in
  check_bool "rotor moved" true (a <> b)

(* --- property tests --- *)

let graph_pool =
  [|
    Graphs.Gen.cycle 8;
    Graphs.Gen.torus [ 3; 4 ];
    Graphs.Gen.hypercube 3;
    Graphs.Gen.complete 6;
  |]

let prop_assignments_valid =
  QCheck.Test.make ~name:"all core algorithms produce valid assignments" ~count:300
    QCheck.(triple (int_range 0 3) (int_range 0 10_000) (int_range 0 2))
    (fun (gi, load, which) ->
      let g = graph_pool.(gi) in
      let d = Graphs.Graph.degree g in
      let bal =
        match which with
        | 0 -> Core.Rotor_router.make g ~self_loops:d
        | 1 -> Core.Send_floor.make g ~self_loops:d
        | _ -> Core.Send_round.make g ~self_loops:(2 * d)
      in
      let dp = Core.Balancer.d_plus bal in
      let ports = Array.make dp 0 in
      (* The engines' node step: conservation and non-negative original
         ports, or an Invariant_violation. *)
      match
        Core.Engine.node_step ~balancer:bal ~tracker:None ~step:1 ~node:0 ~load ports
      with
      | kept ->
        kept = Array.fold_left ( + ) 0 (Array.sub ports d (dp - d))
        (* Definition 2.1(i): every port gets at least ⌊x/d+⌋. *)
        && Array.for_all (fun v -> v >= load / dp) ports
      | exception Core.Engine.Invariant_violation _ -> false)

let prop_send_round_round_fair =
  QCheck.Test.make ~name:"send-round is round-fair for every load" ~count:500
    QCheck.(int_range 0 100_000)
    (fun load ->
      let g = graph_pool.(1) in
      let bal = Core.Send_round.make g ~self_loops:12 in
      let dp = Core.Balancer.d_plus bal in
      let ports = Array.make dp 0 in
      bal.Core.Balancer.assign ~step:1 ~node:0 ~load ~ports;
      let q = load / dp in
      let ceil_share = if load mod dp > 0 then q + 1 else q in
      Array.for_all (fun v -> v = q || v = ceil_share) ports)

let prop_rotor_router_cumulative_rotation =
  QCheck.Test.make ~name:"rotor-router distributes exactly evenly over full cycles"
    ~count:100
    QCheck.(pair (int_range 0 3) (small_list (int_range 0 200)))
    (fun (gi, loads) ->
      let g = graph_pool.(gi) in
      let d = Graphs.Graph.degree g in
      let bal = Core.Rotor_router.make g ~self_loops:d in
      let dp = Core.Balancer.d_plus bal in
      let cum = Array.make dp 0 in
      let ports = Array.make dp 0 in
      List.iteri
        (fun i load ->
          bal.Core.Balancer.assign ~step:(i + 1) ~node:0 ~load ~ports;
          Array.iteri (fun k v -> cum.(k) <- cum.(k) + v) ports)
        loads;
      let lo = Array.fold_left min max_int cum and hi = Array.fold_left max 0 cum in
      hi - lo <= 1)

(* The reference Propp machine: node by node, token by token, each
   token leaves on order.((r + i) mod d⁺) and the rotor ends at
   (r + load) mod d⁺. *)
let propp_assign ~orders ~rotors ~node ~load =
  let ord = orders.(node) in
  let dp = Array.length ord in
  let ports = Array.make dp 0 in
  let r = rotors.(node) in
  for i = 0 to load - 1 do
    let k = ord.((r + i) mod dp) in
    ports.(k) <- ports.(k) + 1
  done;
  rotors.(node) <- (r + load) mod dp;
  ports

let prop_rotor_router_matches_propp_machine =
  QCheck.Test.make ~name:"rotor-router assign = token-by-token Propp machine" ~count:300
    QCheck.(quad (int_range 1 10) (int_range 0 12) bool small_nat)
    (fun (d, self_loops, custom, seed) ->
      let dp = d + self_loops in
      let g = Graphs.Gen.complete (d + 1) in
      let n = d + 1 in
      let rng = Prng.Splitmix.create seed in
      let orders =
        Array.init n (fun _ ->
            if custom then begin
              let p = Array.make dp 0 in
              Prng.Splitmix.fill_permutation rng p;
              p
            end
            else Core.Rotor_router.default_order ~degree:d ~self_loops)
      in
      let rotors = Array.init n (fun _ -> if custom then Prng.Splitmix.int rng dp else 0) in
      let bal =
        if custom then
          Core.Rotor_router.make g ~self_loops
            ~order:(fun u -> orders.(u))
            ~init_rotor:(fun u -> rotors.(u))
        else Core.Rotor_router.make g ~self_loops
      in
      let save =
        match bal.Core.Balancer.persist with
        | Some p -> p.Core.Balancer.state_save
        | None -> QCheck.Test.fail_report "rotor-router without persistence"
      in
      let ports = Array.make dp 0 in
      (* Loads of every kind: 0, below d⁺, exact multiples of d⁺, and at
         least 5·d⁺ with any remainder. *)
      let load_of = function
        | 0 -> 0
        | 1 -> Prng.Splitmix.int rng dp
        | 2 -> dp * (1 + Prng.Splitmix.int rng 6)
        | _ -> (5 * dp) + Prng.Splitmix.int rng (50 * dp)
      in
      for call = 1 to 40 do
        let node = Prng.Splitmix.int rng n in
        let load = load_of (Prng.Splitmix.int rng 4) in
        bal.Core.Balancer.assign ~step:call ~node ~load ~ports;
        let expect = propp_assign ~orders ~rotors ~node ~load in
        if ports <> expect || save () <> rotors then
          QCheck.Test.fail_reportf "d=%d d°=%d custom=%b call %d: node %d load %d" d
            self_loops custom call node load
      done;
      true)

(* --- Where the rotor-router's whole-round kernel must not run --- *)

let kernel_graph = Graphs.Gen.torus [ 5; 6 ]
let kernel_init = Core.Loads.point_mass ~n:30 ~total:1234

let rotor_state b =
  match b.Core.Balancer.persist with
  | Some p -> p.Core.Balancer.state_save ()
  | None -> Alcotest.fail "rotor-router without persistence"

let test_kernel_only_for_default_order () =
  let g = kernel_graph in
  check_bool "default order has a kernel" true
    (Option.is_some (Core.Rotor_router.make g ~self_loops:3).Core.Balancer.kernel);
  check_bool "custom order has none" true
    (Option.is_none
       (Core.Rotor_router.make g ~self_loops:3
          ~order:(fun _ -> Core.Rotor_router.default_order ~degree:4 ~self_loops:3))
         .Core.Balancer.kernel)

(* Tap.wrap rebuilds [assign] but keeps the kernel field: the engine
   must notice and call the observer for every node of every round. *)
let test_tap_sees_every_assignment () =
  let g = kernel_graph in
  let calls = ref 0 in
  let tapped =
    Core.Tap.wrap (Core.Rotor_router.make g ~self_loops:4)
      ~on_assign:(fun ~step:_ ~node:_ ~load:_ ~ports:_ -> incr calls)
  in
  check_bool "kernel field kept" true (Option.is_some tapped.Core.Balancer.kernel);
  ignore (Core.Engine.run ~graph:g ~balancer:tapped ~init:kernel_init ~steps:17 ());
  check_int "run: n·steps observations" (30 * 17) !calls;
  calls := 0;
  ignore (Core.Engine.step ~graph:g ~balancer:tapped ~step:1 kernel_init);
  check_int "step: n observations" 30 !calls

let no_op_tap b = Core.Tap.wrap b ~on_assign:(fun ~step:_ ~node:_ ~load:_ ~ports:_ -> ())

let test_audit_uses_generic_path () =
  let g = kernel_graph in
  let audited b =
    let r = Core.Engine.run ~audit:true ~graph:g ~balancer:b ~init:kernel_init ~steps:25 () in
    (r.Core.Engine.final_loads, r.Core.Engine.fairness, rotor_state b)
  in
  let plain = audited (Core.Rotor_router.make g ~self_loops:4) in
  let generic = audited (no_op_tap (Core.Rotor_router.make g ~self_loops:4)) in
  check_bool "same loads, report and rotors" true (plain = generic);
  match plain with
  | _, Some rep, _ -> check_int "every node-step audited" (30 * 25) rep.Core.Fairness.observations
  | _, None, _ -> Alcotest.fail "audit requested but no report"

(* The fault layer's outage wrapper rebuilds [assign] too. *)
let test_outage_wrapper_not_bypassed () =
  let g = kernel_graph in
  let plan =
    Faults.Schedule.realize ~seed:5 ~graph:g
      [ Faults.Schedule.Edge_outage_rate { rate = 0.4; step = 2; duration = 6 } ]
  in
  check_bool "plan has outages" true (plan <> []);
  let faulted wrap =
    let b = wrap (Core.Rotor_router.make g ~self_loops:4) in
    let rep =
      Faults.Engine.run ~graph:g ~make_balancer:(fun () -> b) ~plan ~init:kernel_init
        ~steps:20 ()
    in
    let r = rep.Faults.Engine.result in
    (r.Core.Engine.final_loads, r.Core.Engine.series, rotor_state b)
  in
  check_bool "outage run = outage run with a tapped balancer" true
    (faulted Fun.id = faulted no_op_tap);
  let r =
    Core.Engine.run ~graph:g ~balancer:(Core.Rotor_router.make g ~self_loops:4)
      ~init:kernel_init ~steps:20 ()
  in
  let loads, _, _ = faulted Fun.id in
  check_bool "the outages changed the run" true (loads <> r.Core.Engine.final_loads)

let () =
  Alcotest.run "algorithms"
    [
      ( "rotor order",
        [
          Alcotest.test_case "permutation" `Quick test_default_order_is_permutation;
          Alcotest.test_case "interleaves" `Quick test_default_order_interleaves;
        ] );
      ( "rotor-router",
        [
          Alcotest.test_case "round robin" `Quick test_rotor_router_round_robin;
          Alcotest.test_case "zero load" `Quick test_rotor_router_zero_load;
          Alcotest.test_case "exact multiple" `Quick test_rotor_router_exact_multiple;
          Alcotest.test_case "rejects negative" `Quick test_rotor_router_rejects_negative;
          Alcotest.test_case "order validated" `Quick
            test_rotor_router_custom_order_validated;
          Alcotest.test_case "init rotor" `Quick test_rotor_router_init_rotor;
          Alcotest.test_case "balances K8" `Quick test_rotor_router_balances_complete_graph;
          Alcotest.test_case "stateful" `Quick test_rotor_router_is_stateful;
          Alcotest.test_case "restore rejects out-of-range rotor" `Quick
            test_restore_rejects_out_of_range_rotor;
        ] );
      ( "rotor kernel",
        [
          Alcotest.test_case "default order only" `Quick test_kernel_only_for_default_order;
          Alcotest.test_case "tap sees every assignment" `Quick
            test_tap_sees_every_assignment;
          Alcotest.test_case "audit uses generic path" `Quick test_audit_uses_generic_path;
          Alcotest.test_case "outage wrapper not bypassed" `Quick
            test_outage_wrapper_not_bypassed;
        ] );
      ( "rotor-router*",
        [
          Alcotest.test_case "special loop" `Quick test_rotor_router_star_special_loop;
          Alcotest.test_case "d° = d" `Quick test_rotor_router_star_self_loops_is_d;
        ] );
      ( "send variants",
        [
          Alcotest.test_case "send-floor exact" `Quick test_send_floor_exact;
          Alcotest.test_case "send-floor needs loop" `Quick test_send_floor_requires_self_loop;
          Alcotest.test_case "send-round half up" `Quick test_send_round_rounds_half_up;
          Alcotest.test_case "send-round needs loops" `Quick
            test_send_round_requires_enough_self_loops;
          Alcotest.test_case "stateless" `Quick test_send_variants_are_stateless;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_assignments_valid;
          QCheck_alcotest.to_alcotest prop_send_round_round_fair;
          QCheck_alcotest.to_alcotest prop_rotor_router_cumulative_rotation;
          QCheck_alcotest.to_alcotest prop_rotor_router_matches_propp_machine;
        ] );
    ]
