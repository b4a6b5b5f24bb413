(* Heap budget of the open system at n = 2^20.  Its own executable, like
   test_torus_heap, so that Gc.top_heap_words counts this one run and no
   earlier one.  The torus takes about 76 MB (two n·d-word arrays); the
   plain stepper adds one kept spare n-array (8.4 MB) to the run's own
   vector, and a round allocates no other n-array.  When every round
   allocated a fresh vector, their floating garbage took the top heap
   to about 177 MB. *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let test_open_2_20 () =
  let g = Graphs.Gen.torus [ 1024; 1024 ] in
  let n = Graphs.Graph.n g in
  let arrival =
    Workload.Arrival.poisson ~rng:(Prng.Splitmix.create 24) ~rate:(0.9 *. 2.0 *. float_of_int n)
  in
  let config =
    Workload.Engine.config ~arrival ~lifetime:(Workload.Lifetime.service ~rate:2) ~rounds:16 ()
  in
  let r =
    Harness.Openrun.run ~config ~graph:g
      ~balancer:(Core.Rotor_router.make g ~self_loops:4)
      ~init:(Array.make n 0) ()
  in
  let top = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Alcotest.(check bool) (Printf.sprintf "2^20 open system, top heap %.1f MB <= 110 MB" top) true
    (top <= 110.0);
  Alcotest.(check bool) "conserved" true r.Workload.Engine.conserved

let () =
  Alcotest.run "open heap"
    [ ("open heap", [ Alcotest.test_case "1024 x 1024, 16 rounds" `Quick test_open_2_20 ]) ]
