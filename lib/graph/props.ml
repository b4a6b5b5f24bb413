let bfs_distances g src =
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg "Props.bfs_distances";
  let d = Graph.degree g and adj = Graph.adjacency g in
  let dist = Array.make n max_int in
  (* Every node is enqueued at most once, so an n-slot array is the queue. *)
  let queue = Array.make n src in
  let head = ref 0 and tail = ref 1 in
  dist.(src) <- 0;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for p = u * d to (u * d) + d - 1 do
      let v = adj.(p) in
      if dist.(v) = max_int then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let eccentricity g src =
  let dist = bfs_distances g src in
  Array.fold_left
    (fun acc d ->
      if d = max_int then failwith "Props.eccentricity: graph is disconnected"
      else max acc d)
    0 dist

let diameter g =
  let n = Graph.n g in
  let best = ref 0 in
  for u = 0 to n - 1 do
    best := max !best (eccentricity g u)
  done;
  !best

(* A BFS from node 0 that marks each node it reaches with one byte and
   counts them: connected iff it reaches all n. *)
let is_connected ?queue g =
  let n = Graph.n g in
  let d = Graph.degree g and adj = Graph.adjacency g in
  let queue =
    match queue with
    | None -> Array.make n 0
    | Some q ->
      if Array.length q < n then invalid_arg "Props.is_connected: queue shorter than n";
      q
  in
  let seen = Bytes.make n '\000' in
  Bytes.set seen 0 '\001';
  queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for p = u * d to (u * d) + d - 1 do
      let v = adj.(p) in
      if Bytes.get seen v = '\000' then begin
        Bytes.set seen v '\001';
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail = n

let is_bipartite g =
  let n = Graph.n g in
  let color = Array.make n (-1) in
  let ok = ref true in
  for src = 0 to n - 1 do
    if color.(src) = -1 then begin
      color.(src) <- 0;
      let q = Queue.create () in
      Queue.add src q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Graph.iter_ports g u (fun _ v ->
            if color.(v) = -1 then begin
              color.(v) <- 1 - color.(u);
              Queue.add v q
            end
            else if color.(v) = color.(u) then ok := false)
      done
    end
  done;
  !ok

(* Shortest cycle through [root]: BFS, recording the parent; any non-tree
   edge between reached vertices closes a cycle of length
   dist u + dist v + 1.  Running this from every root gives the girth. *)
let shortest_cycle_through g root =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let best = ref max_int in
  let q = Queue.create () in
  dist.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let skipped_parent = ref false in
    Graph.iter_ports g u (fun _ v ->
        if v = parent.(u) && not !skipped_parent then
          (* Skip exactly one occurrence: the tree edge we arrived by.  A
             second parallel edge to the parent is a genuine 2-cycle. *)
          skipped_parent := true
        else if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v q
        end
        else best := min !best (dist.(u) + dist.(v) + 1))
  done;
  !best

let girth g =
  let n = Graph.n g in
  let best = ref max_int in
  for root = 0 to n - 1 do
    best := min !best (shortest_cycle_through g root)
  done;
  if !best = max_int then None else Some !best

(* Shortest odd closed walk through [root], via BFS on the bipartite
   double cover: states (v, parity); the answer is dist (root, 1).  The
   shortest odd closed walk in a graph is always a simple odd cycle, and
   minimizing over roots yields the odd girth. *)
let shortest_odd_walk_through g root =
  let n = Graph.n g in
  let dist = Array.make (2 * n) max_int in
  let q = Queue.create () in
  dist.(2 * root) <- 0;
  Queue.add (2 * root) q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    let u = s / 2 and p = s mod 2 in
    Graph.iter_ports g u (fun _ v ->
        let s' = (2 * v) + (1 - p) in
        if dist.(s') = max_int then begin
          dist.(s') <- dist.(s) + 1;
          Queue.add s' q
        end)
  done;
  dist.((2 * root) + 1)

let odd_girth g =
  let n = Graph.n g in
  let best = ref max_int in
  for root = 0 to n - 1 do
    best := min !best (shortest_odd_walk_through g root)
  done;
  if !best = max_int then None else Some !best

let phi g = Option.map (fun og -> (og - 1) / 2) (odd_girth g)
