(* Heap budget of the random regular generator.  Its own executable, so
   that Gc.top_heap_words, the process's peak heap, counts the builds
   and little else.  The graph keeps an n·d-word adjacency and an edge
   list of n·d 32-bit slots, half that size; the build repairs the
   pairing on the adjacency rows in place, and its one n-int array, the
   row cursor, also serves the checks and the connectivity BFS, so its
   peak stays close to the graph itself. *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let top_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

let check_under what budget mb =
  Alcotest.(check bool) (Printf.sprintf "%s %.1f MB <= %.0f MB" what mb budget) true (mb <= budget)

let build n = Graphs.Gen.random_regular (Prng.Splitmix.create 7) ~n ~d:8

(* n = 2^18, d = 8: the adjacency is 2^21 words, 16.8 MB, the edge list
   8.4 MB. *)
let test_2_18 () =
  let g = build (1 lsl 18) in
  check_under "2^18 build, top heap" 31.0 (top_heap_mb ());
  Gc.compact ();
  check_under "2^18 graph, live heap after compaction" 28.0 (mb (Gc.stat ()).Gc.live_words);
  Alcotest.(check int) "degree" 8 (Graphs.Graph.degree g)

(* The 2^20 build runs in a child process of this executable, started
   with [child] set in its environment, so that its top heap counts that
   one build: built after the 2^18 graph in this process, it read
   126.7 MB against 109.9 MB fresh, since OCaml 5.1's Gc.compact returns
   nothing.  The child prints its top heap and the graph's degree. *)
let child = "LB_GRAPH_HEAP_2_20"

let build_2_20_and_report () =
  let g = build (1 lsl 20) in
  Printf.printf "%f %d\n" (top_heap_mb ()) (Graphs.Graph.degree g)

let test_2_20 () =
  Unix.putenv child "1";
  let out = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name |] in
  let line = In_channel.input_line out in
  let status = Unix.close_process_in out in
  Alcotest.(check bool) "the child exited 0" true (status = Unix.WEXITED 0);
  match Option.map (fun l -> Scanf.sscanf_opt l "%f %d" (fun top d -> (top, d))) line with
  | Some (Some (top, d)) ->
    check_under "2^20 build in a fresh process, top heap" 121.0 top;
    Alcotest.(check int) "degree" 8 d
  | _ -> Alcotest.fail "the 2^20 child printed no reading"

let () =
  if Sys.getenv_opt child <> None then build_2_20_and_report ()
  else
    Alcotest.run "graph heap"
      [
        ( "random regular heap",
          [
            Alcotest.test_case "n = 2^18, d = 8" `Quick test_2_18;
            Alcotest.test_case "n = 2^20, d = 8" `Quick test_2_20;
          ] );
      ]
