(* Heap budget of the deterministic generators at n = 2^20.  Its own
   executable, like test_graph_heap, so that Gc.top_heap_words counts
   this one build and no earlier one.  Gen.torus writes its edge array
   in place: the graph's two n·d-word arrays (33.5 MB each at d = 4)
   plus the O(n) degree check read about 76 MB; the tuple list it once
   consed took the top heap to 185 MB. *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let test_torus_2_20 () =
  let g = Graphs.Gen.torus [ 1024; 1024 ] in
  let top = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Alcotest.(check bool) (Printf.sprintf "2^20 torus build, top heap %.1f MB <= 90 MB" top) true
    (top <= 90.0);
  Alcotest.(check int) "degree" 4 (Graphs.Graph.degree g)

let () =
  Alcotest.run "torus heap"
    [ ("torus heap", [ Alcotest.test_case "1024 x 1024" `Quick test_torus_2_20 ]) ]
