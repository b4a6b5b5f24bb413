(* Tests for equation (7) (Core.Deviation), the traffic over original
   edges (through Obs.Probe), the reference engine differential check,
   the bipartite double cover, and the extra load profiles. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Deviation / equation (7) --- *)

let test_deviation_shrinks_with_window () =
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let n = 36 and d = 4 in
  let init = Core.Loads.point_mass ~n ~total:(20 * n) in
  let gap = Graphs.Spectral.eigenvalue_gap g ~self_loops:d in
  let burn_in =
    Graphs.Spectral.horizon ~gap ~n ~initial_discrepancy:(20 * n) ~c:8.0
  in
  let balancer = Core.Rotor_router.make g ~self_loops:d in
  let stats =
    Core.Deviation.measure ~graph:g ~balancer ~init ~burn_in ~windows:[ 1; 8; 64 ] ()
  in
  (match stats with
  | [ w1; _w8; w64 ] ->
    check_int "windows ordered" 1 w1.Core.Deviation.window;
    (* Longer windows average out the rounding noise. *)
    check_bool
      (Printf.sprintf "64-window (%.2f) ≤ 1-window (%.2f) + slack"
         w64.Core.Deviation.max_deviation w1.Core.Deviation.max_deviation)
      true
      (w64.Core.Deviation.max_deviation <= w1.Core.Deviation.max_deviation +. 0.5);
    check_bool "already balanced: small deviation" true
      (w1.Core.Deviation.max_deviation < 10.0);
    check_bool "long window very tight" true (w64.Core.Deviation.max_deviation < 5.0)
  | _ -> Alcotest.fail "expected three stats");
  ()

let test_deviation_within_eq7_bound () =
  (* The measured LHS of (7) must sit below the explicit RHS computed
     with the audited δ, the Prop A.2 remainder bound and the exact
     current sum (dense, small graph). *)
  let g = Graphs.Gen.cycle 12 in
  let d = 2 and d0 = 2 in
  let dp = d + d0 in
  let n = 12 in
  let init = Core.Loads.point_mass ~n ~total:(8 * n) in
  let gap = Graphs.Spectral.eigenvalue_gap g ~self_loops:d0 in
  let burn_in = Graphs.Spectral.horizon ~gap ~n ~initial_discrepancy:(8 * n) ~c:16.0 in
  let mix = Graphs.Mixing.create g ~self_loops:d0 in
  let current_sum =
    Graphs.Mixing.current_sum mix
      ~horizon:(int_of_float (24.0 *. log (float_of_int n) /. gap))
  in
  List.iter
    (fun window ->
      let balancer = Core.Rotor_router.make g ~self_loops:d0 in
      let stats =
        Core.Deviation.measure ~graph:g ~balancer ~init ~burn_in ~windows:[ window ] ()
      in
      let lhs = (List.hd stats).Core.Deviation.max_deviation in
      let rhs =
        Core.Deviation.rhs_bound ~delta:1 ~d_plus:dp ~remainder:dp ~current_sum ~window
      in
      check_bool (Printf.sprintf "T̂=%d: %.3f ≤ %.3f" window lhs rhs) true (lhs <= rhs))
    [ 1; 4; 32 ]

let test_deviation_rejects_bad_args () =
  let g = Graphs.Gen.cycle 4 in
  let balancer = Core.Send_floor.make g ~self_loops:1 in
  check_bool "bad window" true
    (try
       ignore
         (Core.Deviation.measure ~graph:g ~balancer ~init:[| 4; 0; 0; 0 |] ~burn_in:0
            ~windows:[ 0 ] ());
       false
     with Invalid_argument _ -> true)

(* --- Traffic over original edges --- *)

(* The cumulative tokens sent over original edges after each round of a
   probed run, read from the probe timeline. *)
let traffic ~graph ~balancer ~init ~steps =
  Obs.Probe.enable ~every:1 ();
  Fun.protect ~finally:Obs.Probe.disable (fun () ->
      ignore (Core.Engine.run ~graph ~balancer ~init ~steps ());
      Array.map (fun s -> s.Obs.Probe.tokens_moved) (Obs.Probe.timeline ()))

let test_comm_self_loops_reduce_traffic () =
  (* Diffusive schemes shuttle ≈ x·d/d⁺ tokens per round even once
     balanced (the gross-flow price of needing no neighbor info); adding
     self-loops cuts the per-round traffic proportionally.  d° = 3d
     should move about half the tokens of d° = d at steady state. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.flat ~n:16 ~value:64 in
  let measure d0 =
    traffic ~graph:g ~balancer:(Core.Send_floor.make g ~self_loops:d0) ~init ~steps:50
  in
  let lazy1 = measure 4 and lazy3 = measure 12 in
  let last a = a.(Array.length a - 1) in
  let idle a = last a - a.(Array.length a - 2) in
  (* exact: flat 64, d⁺=8: 8/port × 4 edges × 16 nodes = 512/step;
     d⁺=16: 4/port → 256/step. *)
  check_int "d°=d idle traffic" 512 (idle lazy1);
  check_int "d°=3d idle traffic" 256 (idle lazy3);
  check_bool "total halves" true (last lazy3 * 2 = last lazy1)

(* --- reference engine differential --- *)

let test_reference_engine_agrees () =
  List.iter
    (fun (label, g, mk) ->
      let n = Graphs.Graph.n g in
      let init = Core.Loads.point_mass ~n ~total:(7 * n) in
      let fast =
        (Core.Engine.run ~graph:g ~balancer:(mk ()) ~init ~steps:20 ()).Core.Engine
          .final_loads
      in
      let slow = Core.Engine_ref.run ~graph:g ~balancer:(mk ()) ~init ~steps:20 in
      Alcotest.(check (array int)) (label ^ ": engines agree") fast slow)
    [
      ( "rotor-router/cycle",
        Graphs.Gen.cycle 9,
        fun () -> Core.Rotor_router.make (Graphs.Gen.cycle 9) ~self_loops:2 );
      ( "send-round/torus",
        Graphs.Gen.torus [ 3; 3 ],
        fun () -> Core.Send_round.make (Graphs.Gen.torus [ 3; 3 ]) ~self_loops:8 );
      ( "rotor-router*/K5",
        Graphs.Gen.complete 5,
        fun () -> Core.Rotor_router_star.make (Graphs.Gen.complete 5) );
    ]

let prop_engines_differential =
  QCheck.Test.make ~name:"optimized and reference engines always agree" ~count:30
    QCheck.(triple (int_range 3 10) (int_range 0 120) (int_range 0 2))
    (fun (n, total, which) ->
      let g = Graphs.Gen.cycle n in
      let mk () =
        match which with
        | 0 -> Core.Rotor_router.make g ~self_loops:2
        | 1 -> Core.Send_floor.make g ~self_loops:2
        | _ -> Core.Send_round.make g ~self_loops:2
      in
      let rng = Prng.Splitmix.create (n + total) in
      let init = Core.Loads.uniform_random rng ~n ~total in
      let fast =
        (Core.Engine.run ~graph:g ~balancer:(mk ()) ~init ~steps:12 ()).Core.Engine
          .final_loads
      in
      let slow = Core.Engine_ref.run ~graph:g ~balancer:(mk ()) ~init ~steps:12 in
      fast = slow)

(* --- double cover --- *)

let test_double_cover_structure () =
  let g = Graphs.Gen.cycle 5 in
  let dc = Graphs.Gen.bipartite_double_cover g in
  check_int "2n nodes" 10 (Graphs.Graph.n dc);
  check_int "same degree" 2 (Graphs.Graph.degree dc);
  check_bool "bipartite" true (Graphs.Props.is_bipartite dc);
  (* Double cover of an odd cycle is the single 2n-cycle: connected. *)
  check_bool "connected (base non-bipartite)" true (Graphs.Props.is_connected dc);
  check_int "it is C10" 5 (Graphs.Props.diameter dc)

let test_double_cover_of_bipartite_disconnects () =
  let g = Graphs.Gen.cycle 6 in
  let dc = Graphs.Gen.bipartite_double_cover g in
  check_bool "disconnected (base bipartite)" false (Graphs.Props.is_connected dc)

let test_double_cover_petersen () =
  let dc = Graphs.Gen.bipartite_double_cover (Graphs.Gen.petersen ()) in
  check_int "20 nodes" 20 (Graphs.Graph.n dc);
  check_bool "bipartite" true (Graphs.Props.is_bipartite dc);
  check_bool "connected" true (Graphs.Props.is_connected dc)

(* --- load profiles --- *)

let test_staircase () =
  Alcotest.(check (array int)) "staircase" [| 0; 3; 6; 9 |]
    (Core.Loads.staircase ~n:4 ~step:3)

let test_exponential_decay () =
  Alcotest.(check (array int)) "decay" [| 16; 8; 4; 2; 1; 0 |]
    (Core.Loads.exponential_decay ~n:6 ~top:16)

let () =
  Alcotest.run "deviation"
    [
      ( "equation (7)",
        [
          Alcotest.test_case "windows average out noise" `Quick
            test_deviation_shrinks_with_window;
          Alcotest.test_case "within eq(7) bound" `Quick test_deviation_within_eq7_bound;
          Alcotest.test_case "rejects bad args" `Quick test_deviation_rejects_bad_args;
        ] );
      ( "communication",
        [
          Alcotest.test_case "self-loops reduce traffic" `Quick
            test_comm_self_loops_reduce_traffic;
        ] );
      ( "reference engine",
        [
          Alcotest.test_case "agree on fixtures" `Quick test_reference_engine_agrees;
          QCheck_alcotest.to_alcotest prop_engines_differential;
        ] );
      ( "double cover",
        [
          Alcotest.test_case "odd cycle" `Quick test_double_cover_structure;
          Alcotest.test_case "even cycle disconnects" `Quick
            test_double_cover_of_bipartite_disconnects;
          Alcotest.test_case "petersen" `Quick test_double_cover_petersen;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "staircase" `Quick test_staircase;
          Alcotest.test_case "exponential" `Quick test_exponential_decay;
        ] );
    ]
