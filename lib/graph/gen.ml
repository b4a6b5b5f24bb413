(* Each generator fills the interleaved edge array of {!Graph.of_ends}
   itself.  Most fill it from the back, edge g of m in loop order at
   slot m − 1 − g: that order sets the port numbering, which the digest
   goldens pin.  [push ends p u v] writes (u, v) just before slot !p. *)
let[@inline] push (ends : int array) p u v =
  p := !p - 2;
  ends.(!p) <- u;
  ends.(!p + 1) <- v

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: n must be >= 3";
  let ends = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    ends.(2 * i) <- i;
    ends.((2 * i) + 1) <- (if i = n - 1 then 0 else i + 1)
  done;
  Graph.of_ends ~n ends

let complete n =
  if n < 2 then invalid_arg "Gen.complete: n must be >= 2";
  let ends = Array.make (n * (n - 1)) 0 in
  let p = ref (Array.length ends) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      push ends p u v
    done
  done;
  Graph.of_ends ~n ends

let complete_bipartite m =
  if m < 1 then invalid_arg "Gen.complete_bipartite: m must be >= 1";
  let ends = Array.make (2 * m * m) 0 in
  let p = ref (Array.length ends) in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      push ends p u (m + v)
    done
  done;
  Graph.of_ends ~n:(2 * m) ends

let hypercube r =
  if r < 1 then invalid_arg "Gen.hypercube: r must be >= 1";
  if r > 20 then invalid_arg "Gen.hypercube: r too large";
  let n = 1 lsl r in
  let ends = Array.make (n * r) 0 in
  let p = ref (Array.length ends) in
  for u = 0 to n - 1 do
    for b = 0 to r - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then push ends p u v
    done
  done;
  Graph.of_ends ~n ends

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
  (* The coordinates of u, stepped along with u: the last one has
     stride 1 and carries into the one before it. *)
  let coord = Array.make r 0 in
  let rec step d =
    if d >= 0 then
      if coord.(d) + 1 < sides.(d) then coord.(d) <- coord.(d) + 1
      else begin
        coord.(d) <- 0;
        step (d - 1)
      end
  in
  let ends = Array.make (2 * n * r) 0 in
  let p = ref (Array.length ends) in
  for u = 0 to n - 1 do
    for d = 0 to r - 1 do
      (* Every side is >= 3, so (u, u+1 mod side) lists each edge once. *)
      let v =
        if coord.(d) + 1 < sides.(d) then u + stride.(d)
        else u - ((sides.(d) - 1) * stride.(d))
      in
      push ends p u v
    done;
    step (r - 1)
  done;
  Graph.of_ends ~n ends

let circulant n offsets =
  if n < 3 then invalid_arg "Gen.circulant: n must be >= 3";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if o < 1 || o > n / 2 then invalid_arg "Gen.circulant: offset out of range";
      if Hashtbl.mem seen o then invalid_arg "Gen.circulant: duplicate offset";
      Hashtbl.add seen o ())
    offsets;
  (* An antipodal offset is a matching: each edge once. *)
  let count o = if 2 * o = n then n / 2 else n in
  let m = List.fold_left (fun acc o -> acc + count o) 0 offsets in
  let ends = Array.make (2 * m) 0 in
  let p = ref (Array.length ends) in
  List.iter
    (fun o ->
      for i = 0 to count o - 1 do
        push ends p i (if i + o < n then i + o else i + o - n)
      done)
    offsets;
  Graph.of_ends ~n ends

let clique_circulant_offsets ~n ~d =
  if d < 2 then invalid_arg "Gen.clique_circulant: d must be >= 2";
  if n <= 2 * (d / 2) then invalid_arg "Gen.clique_circulant: n too small for d";
  let half = d / 2 in
  let offsets = List.init half (fun i -> i + 1) in
  if d mod 2 = 1 then begin
    if n mod 2 <> 0 then
      invalid_arg "Gen.clique_circulant: odd d requires even n";
    offsets @ [ n / 2 ]
  end
  else offsets

let clique_circulant ~n ~d = circulant n (clique_circulant_offsets ~n ~d)

let petersen () =
  (* Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.of_edges ~n:10 (outer @ inner @ spokes)

(* --- Random regular graphs: pairing model with swap repair. --- *)

(* The repair works on the adjacency rows themselves: row u lists the
   other end of each of u's stubs, so the multiplicity of the pair
   {u, v} is the number of v's in row u (asked only for u <> v).  An
   edge being moved leaves a -1 hole at both ends. *)
let count adj ~d u v =
  let c = ref 0 in
  for p = u * d to (u * d) + d - 1 do
    if adj.(p) = v then incr c
  done;
  !c

(* Overwrite the first [x] at or after [p] with [y]. *)
let rec replace adj p x y = if adj.(p) = x then adj.(p) <- y else replace adj (p + 1) x y

let remove adj ~d u v =
  replace adj (u * d) v (-1);
  replace adj (v * d) u (-1)

let add adj ~d u v =
  replace adj (u * d) (-1) v;
  replace adj (v * d) (-1) u

(* The nodes whose row holds a loop or a repeated entry.  Only edges
   listed from such a node can be bad, then or later: an accepted swap
   removes copies and adds two pairs that were absent, so it never makes
   an edge bad. *)
let suspects adj ~d =
  let n = Array.length adj / d in
  let s = Bytes.make n '\000' in
  for u = 0 to n - 1 do
    let last = (u * d) + d - 1 in
    for p = u * d to last do
      let v = adj.(p) in
      if v = u then Bytes.set s u '\001';
      for q = p + 1 to last do
        if adj.(q) = v then Bytes.set s u '\001'
      done
    done
  done;
  s

(* Repeatedly resolve loops / parallel edges by swapping endpoints with a
   random other pair; accepted only if it strictly reduces badness.
   Every node a proposal touches gets its cursor reset to 0, so that
   {!Graph.fill_rows} re-lays its row in edge order afterwards. *)
let repair rng ~d ends adj cursor =
  let m = Array.length ends / 2 in
  let suspect = suspects adj ~d in
  (* A loop, or a parallel edge (its pair is counted more than once).
     The suspect test first spares a random row access per good edge. *)
  let bad i =
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
    Bytes.get suspect u = '\001' && (u = v || count adj ~d u v > 1)
  in
  (* A pair about to be added: a loop, or any existing copy. *)
  let would_be_bad u v = u = v || count adj ~d u v > 0 in
  let budget = ref (200 * m) in
  let rec fix_one i =
    if !budget <= 0 then false
    else begin
      decr budget;
      let j = Prng.Splitmix.int rng m in
      if j = i then fix_one i
      else begin
        let u1 = ends.(2 * i) and v1 = ends.((2 * i) + 1) in
        let u2 = ends.(2 * j) and v2 = ends.((2 * j) + 1) in
        cursor.(u1) <- 0;
        cursor.(v1) <- 0;
        cursor.(u2) <- 0;
        cursor.(v2) <- 0;
        (* Propose the swap (u1,v1),(u2,v2) -> (u1,v2),(u2,v1). *)
        remove adj ~d u1 v1;
        remove adj ~d u2 v2;
        let ok =
          (not (would_be_bad u1 v2))
          && (not (would_be_bad u2 v1))
          && not ((u1 = u2 && v2 = v1) || (u1 = v1 && v2 = u2))
        in
        if ok then begin
          ends.((2 * i) + 1) <- v2;
          ends.((2 * j) + 1) <- v1;
          add adj ~d u1 v2;
          add adj ~d u2 v1;
          true
        end
        else begin
          add adj ~d u1 v1;
          add adj ~d u2 v2;
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
  let attempt () =
    (* The shuffled stubs, read in pairs, are the edge list itself. *)
    let ends = Array.make (n * d) 0 in
    for u = 0 to n - 1 do
      for p = u * d to (u * d) + d - 1 do
        ends.(p) <- u
      done
    done;
    Prng.Splitmix.shuffle rng ends;
    let adj = Array.make (n * d) (-1) in
    let cursor = Array.make n 0 in
    Graph.fill_rows ~degree:d ends adj cursor;
    if repair rng ~d ends adj cursor then begin
      Graph.fill_rows ~degree:d ends adj cursor;
      let g = Graph.of_rows ~n ends adj in
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
  let ends = Array.make (4 * Graph.edge_count g) 0 in
  let p = ref 0 in
  Graph.iter_edges g (fun u v ->
      ends.(!p) <- u;
      ends.(!p + 1) <- n + v;
      ends.(!p + 2) <- v;
      ends.(!p + 3) <- n + u;
      p := !p + 4);
  Graph.of_ends ~n:(2 * n) ends
