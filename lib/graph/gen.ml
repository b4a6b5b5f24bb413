let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  if n < 2 then invalid_arg "Gen.complete: n must be >= 2";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let complete_bipartite m =
  if m < 1 then invalid_arg "Gen.complete_bipartite: m must be >= 1";
  let edges = ref [] in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      edges := (u, m + v) :: !edges
    done
  done;
  Graph.of_edges ~n:(2 * m) !edges

let hypercube r =
  if r < 1 then invalid_arg "Gen.hypercube: r must be >= 1";
  if r > 20 then invalid_arg "Gen.hypercube: r too large";
  let n = 1 lsl r in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to r - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let torus sides =
  if sides = [] then invalid_arg "Gen.torus: need at least one dimension";
  List.iter (fun s -> if s < 3 then invalid_arg "Gen.torus: sides must be >= 3") sides;
  let sides = Array.of_list sides in
  let r = Array.length sides in
  let n = Array.fold_left ( * ) 1 sides in
  (* Mixed-radix encoding: coordinate d has stride (product of sides > d). *)
  let stride = Array.make r 1 in
  for d = r - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * sides.(d + 1)
  done;
  let coord u d = u / stride.(d) mod sides.(d) in
  let with_coord u d c = u + ((c - coord u d) * stride.(d)) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for d = 0 to r - 1 do
      let c = coord u d in
      let v = with_coord u d ((c + 1) mod sides.(d)) in
      (* Emit each wrap-around edge once: from the node where it "starts". *)
      if c + 1 < sides.(d) || sides.(d) > 2 then
        if u <> v then edges := (u, v) :: !edges
    done
  done;
  (* Each undirected edge got emitted exactly once per direction d from the
     lower-coordinate side, except that for the wrap edge both descriptions
     coincide only when side = 2 (excluded).  The loop above emits (u, u+1)
     for every u including the wrap, so each edge appears once. *)
  Graph.of_edges ~n !edges

let circulant n offsets =
  if n < 3 then invalid_arg "Gen.circulant: n must be >= 3";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if o < 1 || o > n / 2 then invalid_arg "Gen.circulant: offset out of range";
      if Hashtbl.mem seen o then invalid_arg "Gen.circulant: duplicate offset";
      Hashtbl.add seen o ())
    offsets;
  let edges = ref [] in
  List.iter
    (fun o ->
      if 2 * o = n then
        (* Antipodal matching: each edge once. *)
        for i = 0 to (n / 2) - 1 do
          edges := (i, i + o) :: !edges
        done
      else
        for i = 0 to n - 1 do
          edges := (i, (i + o) mod n) :: !edges
        done)
    offsets;
  Graph.of_edges ~n !edges

let clique_circulant ~n ~d =
  if d < 2 then invalid_arg "Gen.clique_circulant: d must be >= 2";
  if n <= 2 * (d / 2) then invalid_arg "Gen.clique_circulant: n too small for d";
  let half = d / 2 in
  let offsets = List.init half (fun i -> i + 1) in
  let offsets =
    if d mod 2 = 1 then begin
      if n mod 2 <> 0 then
        invalid_arg "Gen.clique_circulant: odd d requires even n";
      offsets @ [ n / 2 ]
    end
    else offsets
  in
  circulant n offsets

let petersen () =
  (* Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.of_edges ~n:10 (outer @ inner @ spokes)

(* --- Random regular graphs: pairing model with swap repair. --- *)

(* The repair's multiset of unordered pairs {u, v}: an open-addressing
   table of counts keyed by [min u v * n + max u v], with a
   multiplicative hash and linear probing.  [cells] interleaves key and
   count; key -1 marks an empty cell.  A key whose count drops to 0 is
   deleted by shifting the rest of its probe run back, so no tombstones
   pile up: at most m keys are ever present and the capacity is at least
   2m.  The table only answers count queries, so its layout never
   reaches any output. *)
type pair_counts = { n : int; bits : int; cells : int array }

let pair_key t u v = if u < v then (u * t.n) + v else (v * t.n) + u

let home t key = (key * 0x2545F4914F6CDD1D) lsr (63 - t.bits)

let next_cell t s = (s + 1) land ((1 lsl t.bits) - 1)

(* The cell holding [key], or the empty cell where it would go. *)
let rec probe t key s =
  let k = t.cells.(2 * s) in
  if k = key || k = -1 then s else probe t key (next_cell t s)

let find_cell t key = probe t key (home t key)

let count t u v =
  let key = pair_key t u v in
  let s = find_cell t key in
  if t.cells.(2 * s) = key then t.cells.((2 * s) + 1) else 0

let add t u v =
  let key = pair_key t u v in
  let s = find_cell t key in
  if t.cells.(2 * s) = key then t.cells.((2 * s) + 1) <- t.cells.((2 * s) + 1) + 1
  else begin
    t.cells.(2 * s) <- key;
    t.cells.((2 * s) + 1) <- 1
  end

(* Empty cell [hole], then walk on through its run: a later key may
   move back into the hole unless its home lies cyclically in
   (hole, s], where the move would put it before its home. *)
let rec close_hole t hole s =
  let s = next_cell t s in
  let k = t.cells.(2 * s) in
  if k = -1 then t.cells.(2 * hole) <- -1
  else begin
    let h = home t k in
    let stays = if hole < s then hole < h && h <= s else hole < h || h <= s in
    if stays then close_hole t hole s
    else begin
      t.cells.(2 * hole) <- k;
      t.cells.((2 * hole) + 1) <- t.cells.((2 * s) + 1);
      close_hole t s s
    end
  end

let remove t u v =
  let key = pair_key t u v in
  let s = find_cell t key in
  if t.cells.(2 * s) = key then
    if t.cells.((2 * s) + 1) > 1 then t.cells.((2 * s) + 1) <- t.cells.((2 * s) + 1) - 1
    else close_hole t s s

let pair_counts ~n a b =
  let m = Array.length a in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * m do
    incr bits
  done;
  let t = { n; bits = !bits; cells = Array.make (2 lsl !bits) (-1) } in
  Array.iteri (fun i u -> add t u b.(i)) a;
  t

(* Repeatedly resolve loops / parallel edges by swapping endpoints with a
   random other pair; accepted only if it strictly reduces badness. *)
let repair rng ~n a b =
  let m = Array.length a in
  let multiset = pair_counts ~n a b in
  (* A loop, or a parallel edge (its pair is counted more than once). *)
  let bad i = a.(i) = b.(i) || count multiset a.(i) b.(i) > 1 in
  (* A pair about to be added: a loop, or any existing copy. *)
  let would_be_bad u v = u = v || count multiset u v > 0 in
  let budget = ref (200 * m) in
  let rec fix_one i =
    if !budget <= 0 then false
    else begin
      decr budget;
      let j = Prng.Splitmix.int rng m in
      if j = i then fix_one i
      else begin
        let u1 = a.(i) and v1 = b.(i) in
        let u2 = a.(j) and v2 = b.(j) in
        (* Propose the swap (u1,v1),(u2,v2) -> (u1,v2),(u2,v1). *)
        remove multiset u1 v1;
        remove multiset u2 v2;
        let ok =
          (not (would_be_bad u1 v2))
          && (not (would_be_bad u2 v1))
          && u1 <> v2 && u2 <> v1
          && pair_key multiset u1 v2 <> pair_key multiset u2 v1
        in
        if ok then begin
          b.(i) <- v2;
          b.(j) <- v1;
          add multiset u1 v2;
          add multiset u2 v1;
          true
        end
        else begin
          add multiset u1 v1;
          add multiset u2 v2;
          fix_one i
        end
      end
    end
  in
  let rec sweep () =
    let remaining = ref 0 in
    for i = 0 to m - 1 do
      if bad i then
        if fix_one i then () else incr remaining
    done;
    if !remaining = 0 then true else if !budget <= 0 then false else sweep ()
  in
  sweep ()

let random_regular ?(max_attempts = 200) rng ~n ~d =
  if d < 3 then invalid_arg "Gen.random_regular: d must be >= 3 (use cycle for d = 2)";
  if d >= n then invalid_arg "Gen.random_regular: d must be < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n * d must be even";
  let m = n * d / 2 in
  let attempt () =
    let stubs = Array.init (n * d) (fun i -> i / d) in
    Prng.Sample.shuffle rng stubs;
    let a = Array.init m (fun i -> stubs.(2 * i)) in
    let b = Array.init m (fun i -> stubs.((2 * i) + 1)) in
    if repair rng ~n a b then begin
      let g = Graph.of_edge_arrays ~n a b in
      if Props.is_connected g then Some g else None
    end
    else None
  in
  let rec go k =
    if k >= max_attempts then
      failwith "Gen.random_regular: exhausted attempts (graph too constrained)"
    else
      match attempt () with Some g -> g | None -> go (k + 1)
  in
  go 0

let bipartite_double_cover g =
  let n = Graph.n g in
  let edges =
    Array.to_list (Graph.edges g)
    |> List.concat_map (fun (u, v) -> [ (u, n + v); (v, n + u) ])
  in
  Graph.of_edges ~n:(2 * n) edges

let is_connected_regular g = Props.is_connected g
