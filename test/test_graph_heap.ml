(* Heap budget of the random regular generator.  Its own executable, so
   that Gc.top_heap_words, the process's peak heap, counts the builds
   and little else.  The graph keeps two n·d-word arrays, the adjacency
   and the edge list; the build repairs the pairing on the adjacency
   rows in place, so its peak stays close to those two arrays. *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let top_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

let check_under what budget mb =
  Alcotest.(check bool) (Printf.sprintf "%s %.1f MB <= %.0f MB" what mb budget) true (mb <= budget)

let build n = Graphs.Gen.random_regular (Prng.Splitmix.create 7) ~n ~d:8

(* n = 2^18, d = 8: each array is 2^21 words, 16.8 MB. *)
let test_2_18 () =
  let g = build (1 lsl 18) in
  check_under "2^18 build, top heap" 48.0 (top_heap_mb ());
  Gc.compact ();
  check_under "2^18 graph, live heap after compaction" 34.0 (mb (Gc.stat ()).Gc.live_words);
  Alcotest.(check int) "degree" 8 (Graphs.Graph.degree g)

(* Collecting the dead 2^18 graph first lets the 2^20 build reuse part
   of its memory.  The top heap still counts the part it cannot reuse,
   so it reads above a fresh 2^20 build's (about 143 MB). *)
let test_2_20 () =
  Gc.compact ();
  let g = build (1 lsl 20) in
  check_under "2^20 build, top heap" 200.0 (top_heap_mb ());
  Alcotest.(check int) "degree" 8 (Graphs.Graph.degree g)

let () =
  Alcotest.run "graph heap"
    [
      ( "random regular heap",
        [
          Alcotest.test_case "n = 2^18, d = 8" `Quick test_2_18;
          Alcotest.test_case "n = 2^20, d = 8" `Quick test_2_20;
        ] );
    ]
