(* Tests for the spectral machinery: transition matrices, numerical
   eigenvalue gaps vs closed forms, and balancing horizons. *)

let check_bool = Alcotest.(check bool)
let feq ?(eps = 1e-6) a b = abs_float (a -. b) < eps

let test_transition_matrix_stochastic () =
  List.iter
    (fun (g, d0) ->
      let p = Graphs.Spectral.transition_matrix g ~self_loops:d0 in
      let sums = Linalg.Csr.row_sums p in
      Array.iter (fun s -> check_bool "row sum 1" true (feq ~eps:1e-12 s 1.0)) sums;
      let dense = Linalg.Csr.to_dense p in
      check_bool "symmetric" true (Linalg.Mat.is_symmetric dense))
    [
      (Graphs.Gen.cycle 6, 2);
      (Graphs.Gen.hypercube 3, 3);
      (Graphs.Gen.complete 5, 0);
      (Graphs.Gen.torus [ 3; 4 ], 4);
    ]

let test_transition_matrix_entries () =
  let g = Graphs.Gen.cycle 4 in
  let p = Graphs.Spectral.transition_matrix g ~self_loops:2 in
  (* d+ = 4: each neighbor 1/4, self 2/4. *)
  check_bool "self" true (feq (Linalg.Csr.get p 1 1) 0.5);
  check_bool "neighbor" true (feq (Linalg.Csr.get p 1 2) 0.25);
  check_bool "non-neighbor" true (feq (Linalg.Csr.get p 0 2) 0.0)

let test_gap_matches_closed_form_cycle () =
  List.iter
    (fun n ->
      let g = Graphs.Gen.cycle n in
      let numeric = Graphs.Spectral.eigenvalue_gap g ~self_loops:2 in
      let exact = Graphs.Spectral.cycle_gap ~n ~self_loops:2 in
      check_bool
        (Printf.sprintf "cycle %d: %.8f vs %.8f" n numeric exact)
        true
        (feq ~eps:1e-5 numeric exact))
    [ 4; 8; 16; 32 ]

let test_gap_matches_closed_form_hypercube () =
  List.iter
    (fun r ->
      let g = Graphs.Gen.hypercube r in
      let numeric = Graphs.Spectral.eigenvalue_gap g ~self_loops:r in
      let exact = Graphs.Spectral.hypercube_gap ~r ~self_loops:r in
      check_bool
        (Printf.sprintf "Q%d: %.8f vs %.8f" r numeric exact)
        true
        (feq ~eps:1e-5 numeric exact))
    [ 3; 4; 5 ]

let test_gap_matches_closed_form_complete () =
  let n = 8 in
  let g = Graphs.Gen.complete n in
  let numeric = Graphs.Spectral.eigenvalue_gap g ~self_loops:(n - 1) in
  let exact = Graphs.Spectral.complete_gap ~n ~self_loops:(n - 1) in
  check_bool "K8" true (feq ~eps:1e-5 numeric exact)

let test_gap_matches_closed_form_torus () =
  let side = 5 in
  let g = Graphs.Gen.torus [ side; side ] in
  let numeric = Graphs.Spectral.eigenvalue_gap g ~self_loops:4 in
  let exact = Graphs.Spectral.torus2d_gap ~side ~self_loops:4 in
  check_bool
    (Printf.sprintf "torus %dx%d: %.8f vs %.8f" side side numeric exact)
    true
    (feq ~eps:1e-5 numeric exact)

let test_circulant_gap_closed_form () =
  (* circulant(n, [1]) is the cycle: the general formula must agree. *)
  List.iter
    (fun n ->
      check_bool "matches cycle form" true
        (feq
           (Graphs.Spectral.circulant_gap ~n ~offsets:[ 1 ] ~self_loops:2)
           (Graphs.Spectral.cycle_gap ~n ~self_loops:2)))
    [ 5; 8; 13 ];
  (* And against the numerical estimator on a denser circulant. *)
  let n = 16 and offsets = [ 1; 3; 8 ] in
  let g = Graphs.Gen.circulant n offsets in
  let d0 = Graphs.Graph.degree g in
  let numeric = Graphs.Spectral.eigenvalue_gap g ~self_loops:d0 in
  let exact = Graphs.Spectral.circulant_gap ~n ~offsets ~self_loops:d0 in
  check_bool
    (Printf.sprintf "circulant: %.8f vs %.8f" numeric exact)
    true
    (feq ~eps:1e-5 numeric exact)

(* Every closed form against all eigenvalues of the walk on G⁺ (dense
   Jacobi), over self-loop counts that put the largest modulus at either
   end of the spectrum: power iteration cannot separate λ₂ from a −λ₂ of
   the same modulus, the closed forms can. *)
let test_closed_forms_against_jacobi () =
  List.iter
    (fun (name, g, closed_form) ->
      for self_loops = 0 to 5 do
        let ev =
          Linalg.Jacobi.eigenvalues_of_transition
            (Graphs.Spectral.transition_matrix g ~self_loops)
        in
        let n = Array.length ev in
        let l = Float.max (abs_float ev.(1)) (abs_float ev.(n - 1)) in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s, d°=%d" name self_loops)
          (Float.max 1e-12 (1.0 -. l))
          (closed_form ~self_loops)
      done)
    (let open Graphs in
     let case name g gap = (name, g, gap) in
     List.map (fun n -> case (Printf.sprintf "C%d" n) (Gen.cycle n) (Spectral.cycle_gap ~n))
       [ 3; 4; 7; 12 ]
     @ List.map
         (fun side ->
           case (Printf.sprintf "torus %dx%d" side side) (Gen.torus [ side; side ])
             (Spectral.torus2d_gap ~side))
         [ 3; 4; 5 ]
     @ List.map
         (fun r -> case (Printf.sprintf "Q%d" r) (Gen.hypercube r) (Spectral.hypercube_gap ~r))
         [ 1; 3; 5 ]
     @ List.map
         (fun n -> case (Printf.sprintf "K%d" n) (Gen.complete n) (Spectral.complete_gap ~n))
         [ 2; 3; 9 ]
     @ List.map
         (fun (n, d) ->
           let offsets = Gen.clique_circulant_offsets ~n ~d in
           case (Printf.sprintf "clique-circulant(%d,d=%d)" n d) (Gen.clique_circulant ~n ~d)
             (Spectral.circulant_gap ~n ~offsets))
         [ (8, 3); (12, 4); (16, 5) ])

let test_gap_monotone_in_expansion () =
  (* The expander should have a much larger gap than the cycle of the
     same size. *)
  let n = 64 in
  let cyc = Graphs.Spectral.eigenvalue_gap (Graphs.Gen.cycle n) ~self_loops:2 in
  let rng = Prng.Splitmix.create 5 in
  let exp_g = Graphs.Gen.random_regular rng ~n ~d:6 in
  let expander = Graphs.Spectral.eigenvalue_gap exp_g ~self_loops:6 in
  check_bool
    (Printf.sprintf "expander %.4f >> cycle %.6f" expander cyc)
    true (expander > 10.0 *. cyc)

let test_horizon_sane () =
  let t = Graphs.Spectral.horizon ~gap:0.1 ~n:100 ~initial_discrepancy:50 ~c:4.0 in
  check_bool "positive" true (t >= 1);
  (* 4 * ln(100 * 52) / 0.1 = 4 * 8.56 / 0.1 ≈ 342 *)
  check_bool (Printf.sprintf "magnitude %d" t) true (t > 300 && t < 400);
  let t2 = Graphs.Spectral.horizon ~gap:0.1 ~n:100 ~initial_discrepancy:5000 ~c:4.0 in
  check_bool "grows with K" true (t2 > t)

let test_horizon_requires_positive_gap () =
  check_bool "bad gap rejected" true
    (try
       ignore (Graphs.Spectral.horizon ~gap:0.0 ~n:10 ~initial_discrepancy:1 ~c:1.0);
       false
     with Invalid_argument _ -> true)

let test_continuous_balancing_time () =
  let g = Graphs.Gen.complete 8 in
  let init = Array.make 8 0.0 in
  init.(0) <- 800.0;
  match Graphs.Spectral.continuous_balancing_time g ~self_loops:7 ~init () with
  | None -> Alcotest.fail "did not converge"
  | Some t ->
    check_bool (Printf.sprintf "converged at %d" t) true (t > 0 && t < 100);
    (* Already balanced input: time 0. *)
    (match
       Graphs.Spectral.continuous_balancing_time g ~self_loops:7
         ~init:(Array.make 8 3.0) ()
     with
    | Some 0 -> ()
    | _ -> Alcotest.fail "flat input should balance at time 0")

let test_continuous_balancing_time_bounded () =
  let g = Graphs.Gen.cycle 16 in
  let init = Array.make 16 0.0 in
  init.(0) <- 160.0;
  match
    Graphs.Spectral.continuous_balancing_time g ~self_loops:2 ~init ~max_steps:3 ()
  with
  | None -> ()
  | Some t -> Alcotest.failf "should not converge in 3 steps (got %d)" t

let prop_gap_in_unit_interval =
  QCheck.Test.make ~name:"spectral gap always in (0,1]" ~count:20
    QCheck.(int_range 3 24)
    (fun n ->
      let g = Graphs.Gen.cycle n in
      let gap = Graphs.Spectral.eigenvalue_gap g ~self_loops:2 in
      gap > 0.0 && gap <= 1.0)

let () =
  Alcotest.run "spectral"
    [
      ( "transition",
        [
          Alcotest.test_case "stochastic + symmetric" `Quick
            test_transition_matrix_stochastic;
          Alcotest.test_case "entries" `Quick test_transition_matrix_entries;
        ] );
      ( "gaps",
        [
          Alcotest.test_case "cycle closed form" `Quick test_gap_matches_closed_form_cycle;
          Alcotest.test_case "hypercube closed form" `Quick
            test_gap_matches_closed_form_hypercube;
          Alcotest.test_case "complete closed form" `Quick
            test_gap_matches_closed_form_complete;
          Alcotest.test_case "torus closed form" `Quick test_gap_matches_closed_form_torus;
          Alcotest.test_case "circulant closed form" `Quick test_circulant_gap_closed_form;
          Alcotest.test_case "closed forms vs Jacobi" `Quick test_closed_forms_against_jacobi;
          Alcotest.test_case "expander vs cycle" `Quick test_gap_monotone_in_expansion;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "sane magnitude" `Quick test_horizon_sane;
          Alcotest.test_case "rejects zero gap" `Quick test_horizon_requires_positive_gap;
          Alcotest.test_case "continuous balancing time" `Quick
            test_continuous_balancing_time;
          Alcotest.test_case "continuous time bounded" `Quick
            test_continuous_balancing_time_bounded;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_gap_in_unit_interval ]);
    ]
