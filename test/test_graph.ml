(* Tests for the graph representation, generators and structural
   properties. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sorted_neighbors g u =
  let a = Array.init (Graphs.Graph.degree g) (Graphs.Graph.neighbor g u) in
  Array.sort compare a;
  a

(* --- Graph representation --- *)

let test_of_edges_triangle () =
  let g = Graphs.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check_int "n" 3 (Graphs.Graph.n g);
  check_int "degree" 2 (Graphs.Graph.degree g);
  check_int "edges" 3 (Graphs.Graph.edge_count g);
  Alcotest.(check (array int)) "nbrs of 0" [| 1; 2 |] (sorted_neighbors g 0)

let test_of_edges_rejects_self_edge () =
  Alcotest.check_raises "self edge"
    (Invalid_argument "Graph.of_edges: self-edges are not allowed") (fun () ->
      ignore (Graphs.Graph.of_edges ~n:2 [ (0, 0); (0, 1) ]))

let test_of_edges_rejects_irregular () =
  check_bool "irregular rejected" true
    (try
       ignore (Graphs.Graph.of_edges ~n:3 [ (0, 1) ]);
       false
     with Invalid_argument _ -> true)

let test_of_edges_rejects_out_of_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graphs.Graph.of_edges ~n:2 [ (0, 5) ]))

(* The constructor's text for each kind of bad input. *)
let test_of_edges_errors () =
  let raised f =
    match f () with
    | (_ : Graphs.Graph.t) -> "no exception"
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun (n, edges, expected) ->
      Alcotest.(check string) ("of_edges: " ^ expected) expected
        (raised (fun () -> Graphs.Graph.of_edges ~n edges)))
    [
      (0, [], "Graph.of_edges: n must be positive");
      (2, [ (0, 5) ], "Graph.of_edges: endpoint out of range");
      (2, [ (-1, 0) ], "Graph.of_edges: endpoint out of range");
      (2, [ (0, 0); (0, 1) ], "Graph.of_edges: self-edges are not allowed");
      (3, [ (0, 1) ], "Graph.of_edges: not regular (node 2 has degree 0, node 0 has 1)");
    ]

(* An edge list in 32-bit slots, written through the checked writer. *)
let ends_of a =
  let ends = Prng.Slots.make (Array.length a) in
  Array.iteri (Graphs.Graph.set_end ends) a;
  ends

(* [of_ends] is [of_edges]' validation and layout over a caller-filled
   edge list, which the graph adopts; an odd slot count is its own
   error. *)
let test_of_ends () =
  let ends = ends_of [| 0; 1; 1; 2; 2; 0 |] in
  let g = Graphs.Graph.of_ends ~n:3 ends in
  let g' = Graphs.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (array int)) "adjacency" (Graphs.Graph.adjacency g') (Graphs.Graph.adjacency g);
  Alcotest.(check (array (pair int int))) "edges" (Graphs.Graph.edges g') (Graphs.Graph.edges g);
  Alcotest.check_raises "odd length" (Invalid_argument "Graph.of_edges: odd number of endpoints")
    (fun () -> ignore (Graphs.Graph.of_ends ~n:3 (ends_of [| 0; 1; 2 |])));
  Alcotest.check_raises "self-edge" (Invalid_argument "Graph.of_edges: self-edges are not allowed")
    (fun () -> ignore (Graphs.Graph.of_ends ~n:2 (ends_of [| 1; 1 |])))

(* [of_rows] adopts rows that [fill_rows] laid out and runs [of_edges]'
   checks, with the same texts, counting degrees in the row cursor. *)
let test_of_rows () =
  let build n a =
    let ends = ends_of a in
    let d = Array.length a / n in
    let adj = Array.make (n * d) (-1) and cursor = Array.make n 0 in
    Graphs.Graph.fill_rows ~degree:d ends adj cursor;
    Graphs.Graph.of_rows ~n ends adj ~cursor
  in
  let g = build 3 [| 0; 1; 1; 2; 2; 0 |] in
  let g' = Graphs.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (array int)) "adjacency" (Graphs.Graph.adjacency g') (Graphs.Graph.adjacency g);
  Alcotest.(check (array (pair int int))) "edges" (Graphs.Graph.edges g') (Graphs.Graph.edges g);
  Alcotest.check_raises "self-edge" (Invalid_argument "Graph.of_edges: self-edges are not allowed")
    (fun () -> ignore (build 2 [| 1; 1 |]));
  Alcotest.check_raises "irregular"
    (Invalid_argument "Graph.of_edges: not regular (node 1 has degree 2, node 0 has 3)")
    (fun () -> ignore (build 4 [| 0; 1; 1; 2; 2; 0; 3; 0 |]));
  Alcotest.check_raises "odd length" (Invalid_argument "Graph.of_edges: odd number of endpoints")
    (fun () ->
      ignore
        (Graphs.Graph.of_rows ~n:3 (ends_of [| 0; 1; 2 |]) (Array.make 3 0)
           ~cursor:(Array.make 3 0)));
  Alcotest.check_raises "short cursor" (Invalid_argument "Graph.of_rows: cursor is not n long")
    (fun () ->
      ignore
        (Graphs.Graph.of_rows ~n:3 (ends_of [| 0; 1; 1; 2; 2; 0 |]) (Array.make 6 0)
           ~cursor:(Array.make 2 0)))

(* A node id is stored in a 32-bit slot.  One outside [0, 2^31) raises
   the range error through [of_edges] and [Graph.set_end], and never
   wraps: 2^32 and -2^32 would wrap to 0, which closes the triangle
   below. *)
let test_endpoint_range () =
  let out_of_range = Invalid_argument "Graph.of_edges: endpoint out of range" in
  let triangle = [| (0, 1); (1, 2); (2, 0) |] in
  List.iter
    (fun v ->
      let name = Printf.sprintf "endpoint %d" v in
      Alcotest.check_raises ("of_edges, " ^ name) out_of_range (fun () ->
          ignore (Graphs.Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, v) ]));
      let ends = ends_of [| 0; 1; 1; 2; 2; 0 |] in
      Alcotest.check_raises ("set_end, " ^ name) out_of_range (fun () ->
          Graphs.Graph.set_end ends 5 v);
      Alcotest.(check (array (pair int int)))
        ("set_end keeps the slot, " ^ name)
        triangle
        (Graphs.Graph.edges (Graphs.Graph.of_ends ~n:3 ends)))
    [ 1 lsl 32; -(1 lsl 32); 1 lsl 31; (1 lsl 32) + 3; -1; max_int; min_int ];
  (* 2^31 - 1, the largest id a slot holds, is stored as it is; a slot
     index past the end is refused. *)
  let top = ends_of [| Graphs.Graph.max_end |] in
  check_int "2^31 - 1 stored" 0x7fff_ffff (Prng.Slots.get top 0);
  Alcotest.check_raises "set_end past the end"
    (Invalid_argument "Slots.set: slot out of range") (fun () -> Graphs.Graph.set_end top 1 0)

(* The generators write their slots unchecked once [make_ends] has
   accepted n: more than 2^31 nodes is refused before anything is
   allocated, and so is a torus whose side product wraps (2^64 to 0)
   and a bipartite graph whose node count 2m wraps negative. *)
let test_node_count_range () =
  let out_of_range = Invalid_argument "Graph.of_edges: endpoint out of range" in
  let top = Graphs.Graph.max_end + 1 in
  check_int "2^31 nodes, no slots" 0 (Prng.Slots.length (Graphs.Graph.make_ends ~n:top 0));
  Alcotest.check_raises "2^31 + 1 nodes" out_of_range (fun () ->
      ignore (Graphs.Graph.make_ends ~n:(top + 1) 0));
  Alcotest.check_raises "no nodes" (Invalid_argument "Graph.of_edges: n must be positive")
    (fun () -> ignore (Graphs.Graph.make_ends ~n:0 0));
  Alcotest.check_raises "cycle 2^60" out_of_range (fun () ->
      ignore (Graphs.Gen.cycle (1 lsl 60)));
  Alcotest.check_raises "torus 2^32 x 2^32" out_of_range (fun () ->
      ignore (Graphs.Gen.torus [ 1 lsl 32; 1 lsl 32 ]));
  Alcotest.check_raises "bipartite 2^61" (Invalid_argument "Graph.of_edges: n must be positive")
    (fun () -> ignore (Graphs.Gen.complete_bipartite (1 lsl 61)))

(* Multigraphs whose parallel edges are interleaved with others and
   given in both orientations: the j-th copy of (u, v) at u pairs with
   the j-th copy at v.  Adjacency and reverse ports pinned literally. *)
let test_multigraph_reverse_ports () =
  List.iter
    (fun (n, edges, adj, rev) ->
      let g = Graphs.Graph.of_edges ~n edges in
      let d = Graphs.Graph.degree g in
      Alcotest.(check (array int)) "adjacency" adj (Graphs.Graph.adjacency g);
      Alcotest.(check (array int)) "reverse ports" rev
        (Array.init (n * d) (fun p -> Graphs.Graph.reverse_port g (p / d) (p mod d))))
    [
      ( 4,
        [ (0, 1); (2, 3); (1, 0); (0, 2); (1, 3); (3, 2) ],
        [| 1; 1; 2; 0; 0; 3; 3; 0; 3; 2; 1; 2 |],
        [| 0; 1; 1; 0; 1; 1; 0; 2; 2; 0; 2; 2 |] );
      (2, [ (1, 0); (0, 1); (1, 0) ], [| 1; 1; 1; 0; 0; 0 |], [| 0; 1; 2; 0; 1; 2 |]);
      ( 4,
        [ (0, 1); (2, 3); (0, 2); (1, 0); (3, 1); (2, 3);
          (0, 1); (3, 2); (1, 2); (0, 3); (1, 3); (2, 0) ],
        [| 1; 2; 1; 1; 3; 2; 0; 0; 3; 0; 2; 3; 3; 0; 3; 3; 1; 0; 2; 1; 2; 2; 0; 1 |],
        [| 0; 1; 1; 3; 4; 5; 0; 2; 1; 3; 4; 5; 0; 1; 2; 3; 4; 5; 0; 2; 2; 3; 4; 5 |] );
    ]

let test_reverse_port_involution () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  for u = 0 to Graphs.Graph.n g - 1 do
    for k = 0 to Graphs.Graph.degree g - 1 do
      let v = Graphs.Graph.neighbor g u k in
      let k' = Graphs.Graph.reverse_port g u k in
      check_int "reverse endpoint" u (Graphs.Graph.neighbor g v k');
      check_int "involution" k (Graphs.Graph.reverse_port g v k')
    done
  done

let test_parallel_edges_supported () =
  let g = Graphs.Graph.of_edges ~n:2 [ (0, 1); (0, 1) ] in
  check_int "degree" 2 (Graphs.Graph.degree g);
  check_int "multiplicity" 2 (Graphs.Graph.multiplicity g 0 1);
  check_bool "has parallel" true (Graphs.Graph.has_parallel_edges g)

let test_no_parallel_on_cycle () =
  check_bool "simple" false (Graphs.Graph.has_parallel_edges (Graphs.Gen.cycle 5))

let test_adjacency_flat () =
  let g = Graphs.Gen.cycle 4 in
  let adj = Graphs.Graph.adjacency g in
  check_int "length" (4 * 2) (Array.length adj);
  Graphs.Graph.iter_ports g 2 (fun k v ->
      check_int "flat matches" v adj.((2 * 2) + k))

(* --- Generators --- *)

let test_cycle_structure () =
  let g = Graphs.Gen.cycle 6 in
  check_int "n" 6 (Graphs.Graph.n g);
  check_int "d" 2 (Graphs.Graph.degree g);
  for u = 0 to 5 do
    let nbrs = sorted_neighbors g u in
    let expect = [| (u + 5) mod 6; (u + 1) mod 6 |] in
    Array.sort compare expect;
    Alcotest.(check (array int)) "cycle neighbors" expect nbrs
  done

let test_complete_structure () =
  let g = Graphs.Gen.complete 5 in
  check_int "d" 4 (Graphs.Graph.degree g);
  check_int "m" 10 (Graphs.Graph.edge_count g);
  check_bool "connected" true (Graphs.Props.is_connected g)

let test_complete_bipartite () =
  let g = Graphs.Gen.complete_bipartite 3 in
  check_int "n" 6 (Graphs.Graph.n g);
  check_int "d" 3 (Graphs.Graph.degree g);
  check_bool "bipartite" true (Graphs.Props.is_bipartite g)

let test_hypercube_structure () =
  let g = Graphs.Gen.hypercube 4 in
  check_int "n" 16 (Graphs.Graph.n g);
  check_int "d" 4 (Graphs.Graph.degree g);
  check_bool "connected" true (Graphs.Props.is_connected g);
  check_bool "bipartite" true (Graphs.Props.is_bipartite g);
  check_int "diameter" 4 (Graphs.Props.diameter g)

let test_torus_2d () =
  let g = Graphs.Gen.torus [ 4; 5 ] in
  check_int "n" 20 (Graphs.Graph.n g);
  check_int "d" 4 (Graphs.Graph.degree g);
  check_bool "connected" true (Graphs.Props.is_connected g);
  check_bool "no parallel" false (Graphs.Graph.has_parallel_edges g)

let test_torus_3d () =
  let g = Graphs.Gen.torus [ 3; 3; 3 ] in
  check_int "n" 27 (Graphs.Graph.n g);
  check_int "d" 6 (Graphs.Graph.degree g);
  check_bool "connected" true (Graphs.Props.is_connected g)

let test_torus_1d_is_cycle () =
  let g = Graphs.Gen.torus [ 7 ] in
  check_int "d" 2 (Graphs.Graph.degree g);
  check_int "diameter" 3 (Graphs.Props.diameter g)

let test_circulant () =
  let g = Graphs.Gen.circulant 8 [ 1; 2 ] in
  check_int "d" 4 (Graphs.Graph.degree g);
  let nbrs = sorted_neighbors g 0 in
  Alcotest.(check (array int)) "circulant neighbors" [| 1; 2; 6; 7 |] nbrs

let test_circulant_antipodal () =
  let g = Graphs.Gen.circulant 6 [ 1; 3 ] in
  check_int "d with antipodal offset" 3 (Graphs.Graph.degree g)

let test_clique_circulant_has_clique () =
  let d = 7 in
  let g = Graphs.Gen.clique_circulant ~n:20 ~d in
  check_int "d" d (Graphs.Graph.degree g);
  let h = d / 2 in
  (* C = {0..h-1} must be a clique. *)
  for i = 0 to h - 1 do
    for j = 0 to h - 1 do
      if i <> j then check_int "clique edge" 1 (Graphs.Graph.multiplicity g i j)
    done
  done

let test_petersen () =
  let g = Graphs.Gen.petersen () in
  check_int "n" 10 (Graphs.Graph.n g);
  check_int "d" 3 (Graphs.Graph.degree g);
  check_int "diameter" 2 (Graphs.Props.diameter g);
  Alcotest.(check (option int)) "girth" (Some 5) (Graphs.Props.girth g);
  Alcotest.(check (option int)) "odd girth" (Some 5) (Graphs.Props.odd_girth g);
  check_bool "connected" true (Graphs.Props.is_connected g)

let test_random_regular_valid () =
  let rng = Prng.Splitmix.create 123 in
  List.iter
    (fun (n, d) ->
      let g = Graphs.Gen.random_regular rng ~n ~d in
      check_int "n" n (Graphs.Graph.n g);
      check_int "d" d (Graphs.Graph.degree g);
      check_bool "connected" true (Graphs.Props.is_connected g);
      check_bool "simple" false (Graphs.Graph.has_parallel_edges g))
    [ (16, 3); (32, 4); (64, 6); (20, 8) ]

(* The generator lays its rows out in place: the ports must still follow
   edge order, so the stored-order reverse-port table agrees with the
   row scan and pairs the two orientations of every edge. *)
let test_random_regular_reverse_ports () =
  let g = Graphs.Gen.random_regular (Prng.Splitmix.create 5) ~n:200 ~d:7 in
  let d = Graphs.Graph.degree g in
  let rev = Graphs.Graph.reverse_ports g in
  for u = 0 to Graphs.Graph.n g - 1 do
    for k = 0 to d - 1 do
      let v = Graphs.Graph.neighbor g u k and k' = rev.((u * d) + k) in
      check_int "table = scan" k' (Graphs.Graph.reverse_port g u k);
      check_int "reverse endpoint" u (Graphs.Graph.neighbor g v k');
      check_int "involution" k rev.((v * d) + k')
    done
  done

let test_random_regular_rejects_odd () =
  let rng = Prng.Splitmix.create 1 in
  check_bool "odd nd rejected" true
    (try
       ignore (Graphs.Gen.random_regular rng ~n:5 ~d:3);
       false
     with Invalid_argument _ -> true)

(* --- Props --- *)

let test_bfs_distances_cycle () =
  let g = Graphs.Gen.cycle 7 in
  let d = Graphs.Props.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 3; 2; 1 |] d

(* Two disjoint triangles are disconnected, one hexagon is not, with a
   fresh queue or a lent one holding stale entries. *)
let test_is_connected () =
  let triangles = Graphs.Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  let hexagon = Graphs.Gen.cycle 6 in
  check_bool "two triangles" false (Graphs.Props.is_connected triangles);
  check_bool "hexagon" true (Graphs.Props.is_connected hexagon);
  let queue = Array.make 7 5 in
  check_bool "two triangles, lent queue" false (Graphs.Props.is_connected ~queue triangles);
  check_bool "hexagon, lent queue" true (Graphs.Props.is_connected ~queue hexagon);
  Alcotest.check_raises "short queue"
    (Invalid_argument "Props.is_connected: queue shorter than n") (fun () ->
      ignore (Graphs.Props.is_connected ~queue:(Array.make 5 0) hexagon))

let test_diameter_known () =
  check_int "cycle 8" 4 (Graphs.Props.diameter (Graphs.Gen.cycle 8));
  check_int "cycle 9" 4 (Graphs.Props.diameter (Graphs.Gen.cycle 9));
  check_int "K5" 1 (Graphs.Props.diameter (Graphs.Gen.complete 5));
  check_int "Q3" 3 (Graphs.Props.diameter (Graphs.Gen.hypercube 3))

let test_bipartite_known () =
  check_bool "even cycle" true (Graphs.Props.is_bipartite (Graphs.Gen.cycle 6));
  check_bool "odd cycle" false (Graphs.Props.is_bipartite (Graphs.Gen.cycle 7));
  check_bool "hypercube" true (Graphs.Props.is_bipartite (Graphs.Gen.hypercube 5));
  check_bool "K4" false (Graphs.Props.is_bipartite (Graphs.Gen.complete 4))

let test_girth_known () =
  Alcotest.(check (option int)) "cycle 9" (Some 9) (Graphs.Props.girth (Graphs.Gen.cycle 9));
  Alcotest.(check (option int)) "K4" (Some 3) (Graphs.Props.girth (Graphs.Gen.complete 4));
  Alcotest.(check (option int)) "Q3" (Some 4) (Graphs.Props.girth (Graphs.Gen.hypercube 3));
  Alcotest.(check (option int)) "parallel edge pair" (Some 2)
    (Graphs.Props.girth (Graphs.Graph.of_edges ~n:2 [ (0, 1); (0, 1) ]))

let test_odd_girth_known () =
  Alcotest.(check (option int)) "odd cycle 9" (Some 9)
    (Graphs.Props.odd_girth (Graphs.Gen.cycle 9));
  Alcotest.(check (option int)) "even cycle bipartite" None
    (Graphs.Props.odd_girth (Graphs.Gen.cycle 8));
  Alcotest.(check (option int)) "K4 triangle" (Some 3)
    (Graphs.Props.odd_girth (Graphs.Gen.complete 4));
  Alcotest.(check (option int)) "phi of 9-cycle" (Some 4)
    (Graphs.Props.phi (Graphs.Gen.cycle 9))

let test_eccentricity_disconnected () =
  let g = Graphs.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_bool "disconnected" false (Graphs.Props.is_connected g);
  check_bool "eccentricity raises" true
    (try
       ignore (Graphs.Props.eccentricity g 0);
       false
     with Failure _ -> true)

(* --- Property tests --- *)

let prop_generators_regular_connected =
  QCheck.Test.make ~name:"generators produce connected regular graphs" ~count:30
    QCheck.(int_range 3 20)
    (fun n ->
      let checks g = Graphs.Props.is_connected g && Graphs.Graph.degree g > 0 in
      checks (Graphs.Gen.cycle n)
      && checks (Graphs.Gen.complete (max 2 n))
      && checks (Graphs.Gen.torus [ n; 3 ]))

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"BFS distances satisfy edge Lipschitz" ~count:30
    QCheck.(int_range 4 30)
    (fun n ->
      let g = Graphs.Gen.cycle n in
      let dist = Graphs.Props.bfs_distances g 0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        Graphs.Graph.iter_ports g u (fun _ v ->
            if abs (dist.(u) - dist.(v)) > 1 then ok := false)
      done;
      !ok)

let prop_random_regular_simple =
  QCheck.Test.make ~name:"random regular graphs are simple and regular" ~count:15
    QCheck.(pair (int_range 10 40) (int_range 3 5))
    (fun (n, d) ->
      let n = if n * d mod 2 = 1 then n + 1 else n in
      let rng = Prng.Splitmix.create ((n * 1000) + d) in
      let g = Graphs.Gen.random_regular rng ~n ~d in
      Graphs.Graph.degree g = d
      && (not (Graphs.Graph.has_parallel_edges g))
      && Graphs.Props.is_connected g)

(* A random d-regular multigraph on 2·half nodes, as the union of d
   random perfect matchings with random edge orientations: parallel
   edges occur, self-edges cannot. *)
let random_matchings_edges rng ~half ~d =
  let n = 2 * half in
  List.concat
    (List.init d (fun _ ->
         let p = Slots.permutation rng n in
         List.init half (fun i ->
             if Prng.Splitmix.bool rng then (p.(2 * i), p.((2 * i) + 1))
             else (p.((2 * i) + 1), p.(2 * i)))))

let prop_of_edges_port_order =
  QCheck.Test.make ~name:"of_edges ports in edge order" ~count:100
    QCheck.(triple (int_range 1 20) (int_range 1 6) small_nat)
    (fun (half, d, seed) ->
      let n = 2 * half in
      let edges = random_matchings_edges (Prng.Splitmix.create seed) ~half ~d in
      let g = Graphs.Graph.of_edges ~n edges in
      (* Reference: ports numbered in order of appearance in the list. *)
      let adj = Array.make (n * d) (-1) and rev = Array.make (n * d) (-1) in
      let next = Array.make n 0 in
      List.iter
        (fun (u, v) ->
          let ku = next.(u) and kv = next.(v) in
          next.(u) <- ku + 1;
          next.(v) <- kv + 1;
          adj.((u * d) + ku) <- v;
          adj.((v * d) + kv) <- u;
          rev.((u * d) + ku) <- kv;
          rev.((v * d) + kv) <- ku)
        edges;
      Graphs.Graph.degree g = d
      && Array.for_all2 Int.equal adj (Graphs.Graph.adjacency g)
      && Array.for_all Fun.id
           (Array.init (n * d) (fun p ->
                Graphs.Graph.reverse_port g (p / d) (p mod d) = rev.(p)))
      && Array.for_all2 Int.equal rev (Graphs.Graph.reverse_ports g)
      && Graphs.Graph.edge_count g = List.length edges
      && Array.to_list (Graphs.Graph.edges g) = edges
      &&
      let seen = ref [] in
      Graphs.Graph.iter_edges g (fun u v -> seen := (u, v) :: !seen);
      List.rev !seen = edges)

(* The generator's allocation at n = 2^14, d = 8, in words.  Building
   through tuple lists and a tuple-keyed Hashtbl took about 2.2 M words
   here; the flat-array build takes about 0.85 M. *)
let test_random_regular_allocation () =
  let rng = Prng.Splitmix.create 1 in
  (* Settle the GC first, so that no earlier allocation is billed to
     the window, and empty the minor heap before reading (OCaml 5.1
     undercounts the words still in it). *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let g = Graphs.Gen.random_regular rng ~n:(1 lsl 14) ~d:8 in
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_int "degree" 8 (Graphs.Graph.degree g);
  check_bool (Printf.sprintf "%.0f words allocated, budget 1.5 M" words) true (words <= 1.5e6)

(* A deterministic generator writes its edge array in place: it
   allocates the graph's arrays, which go straight to the major heap,
   and a few words of scratch.  Consing the edges as a tuple list cost
   786 k minor words here. *)
let test_torus_minor_allocation () =
  Gc.full_major ();
  let before = Gc.minor_words () in
  let g = Graphs.Gen.torus [ 256; 256 ] in
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  check_int "degree" 4 (Graphs.Graph.degree g);
  check_bool (Printf.sprintf "%.0f minor words, budget 1000" words) true (words < 1000.0)

let () =
  Alcotest.run "graphs"
    [
      ( "representation",
        [
          Alcotest.test_case "triangle" `Quick test_of_edges_triangle;
          Alcotest.test_case "rejects self edge" `Quick test_of_edges_rejects_self_edge;
          Alcotest.test_case "rejects irregular" `Quick test_of_edges_rejects_irregular;
          Alcotest.test_case "rejects out of range" `Quick
            test_of_edges_rejects_out_of_range;
          Alcotest.test_case "of_edges errors" `Quick test_of_edges_errors;
          Alcotest.test_case "of_ends" `Quick test_of_ends;
          Alcotest.test_case "endpoint range" `Quick test_endpoint_range;
          Alcotest.test_case "node count range" `Quick test_node_count_range;
          Alcotest.test_case "of_rows" `Quick test_of_rows;
          Alcotest.test_case "multigraph reverse ports" `Quick
            test_multigraph_reverse_ports;
          Alcotest.test_case "reverse port involution" `Quick
            test_reverse_port_involution;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges_supported;
          Alcotest.test_case "cycle simple" `Quick test_no_parallel_on_cycle;
          Alcotest.test_case "flat adjacency" `Quick test_adjacency_flat;
        ] );
      ( "generators",
        [
          Alcotest.test_case "cycle" `Quick test_cycle_structure;
          Alcotest.test_case "complete" `Quick test_complete_structure;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "hypercube" `Quick test_hypercube_structure;
          Alcotest.test_case "torus 2d" `Quick test_torus_2d;
          Alcotest.test_case "torus 3d" `Quick test_torus_3d;
          Alcotest.test_case "torus 1d" `Quick test_torus_1d_is_cycle;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "circulant antipodal" `Quick test_circulant_antipodal;
          Alcotest.test_case "clique circulant" `Quick test_clique_circulant_has_clique;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "random regular" `Quick test_random_regular_valid;
          Alcotest.test_case "random regular reverse ports" `Quick
            test_random_regular_reverse_ports;
          Alcotest.test_case "random regular odd nd" `Quick
            test_random_regular_rejects_odd;
          Alcotest.test_case "random regular allocation" `Quick
            test_random_regular_allocation;
          Alcotest.test_case "torus minor allocation" `Quick test_torus_minor_allocation;
        ] );
      ( "props",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances_cycle;
          Alcotest.test_case "connected" `Quick test_is_connected;
          Alcotest.test_case "diameter" `Quick test_diameter_known;
          Alcotest.test_case "bipartite" `Quick test_bipartite_known;
          Alcotest.test_case "girth" `Quick test_girth_known;
          Alcotest.test_case "odd girth" `Quick test_odd_girth_known;
          Alcotest.test_case "disconnected" `Quick test_eccentricity_disconnected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_generators_regular_connected;
          QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality;
          QCheck_alcotest.to_alcotest prop_random_regular_simple;
          QCheck_alcotest.to_alcotest prop_of_edges_port_order;
        ] );
    ]
