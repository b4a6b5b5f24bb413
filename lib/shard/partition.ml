type strategy = Contiguous | Round_robin | Bfs_blocks

let strategy_name = function
  | Contiguous -> "contiguous"
  | Round_robin -> "round-robin"
  | Bfs_blocks -> "bfs-blocks"

type t = {
  shards : int;
  strategy : strategy;
  owner : int array;
  parts : int array array;
  local_index : int array;
}

type stats = {
  sizes : int array;
  cut_edges : int;
  internal_edges : int;
  boundary_nodes : int array;
  max_imbalance : float;
}

let of_owner ~strategy ~shards owner =
  let n = Array.length owner in
  let counts = Array.make shards 0 in
  Array.iter
    (fun s ->
      if s < 0 || s >= shards then invalid_arg "Partition: owner out of range";
      counts.(s) <- counts.(s) + 1)
    owner;
  let parts = Array.map (fun c -> Array.make c 0) counts in
  let next = Array.make shards 0 in
  let local_index = Array.make n 0 in
  for u = 0 to n - 1 do
    let s = owner.(u) in
    parts.(s).(next.(s)) <- u;
    local_index.(u) <- next.(s);
    next.(s) <- next.(s) + 1
  done;
  { shards; strategy; owner; parts; local_index }

(* Balanced block boundaries: the first (n mod k) blocks get one extra
   node, so sizes differ by at most one. *)
let block_owner ~n ~shards u =
  let q = n / shards and r = n mod shards in
  let cut = r * (q + 1) in
  if u < cut then u / (q + 1) else r + ((u - cut) / max q 1)

let bfs_order g =
  let n = Graphs.Graph.n g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let queue = Queue.create () in
  let filled = ref 0 in
  for root = 0 to n - 1 do
    if not seen.(root) then begin
      seen.(root) <- true;
      Queue.add root queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        order.(!filled) <- u;
        incr filled;
        Graphs.Graph.iter_ports g u (fun _ v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              Queue.add v queue
            end)
      done
    end
  done;
  order

let make ?(strategy = Contiguous) ~shards g =
  if shards < 1 then invalid_arg "Partition.make: shards must be >= 1";
  let n = Graphs.Graph.n g in
  let owner =
    match strategy with
    | Contiguous -> Array.init n (fun u -> block_owner ~n ~shards u)
    | Round_robin -> Array.init n (fun u -> u mod shards)
    | Bfs_blocks ->
      let order = bfs_order g in
      let owner = Array.make n 0 in
      Array.iteri (fun pos u -> owner.(u) <- block_owner ~n ~shards pos) order;
      owner
  in
  of_owner ~strategy ~shards owner

let shards t = t.shards
let owner t u = t.owner.(u)
let nodes_of t s = t.parts.(s)

let stats t g =
  let n = Graphs.Graph.n g in
  let sizes = Array.map Array.length t.parts in
  let cut = ref 0 and internal = ref 0 in
  let boundary = Array.make t.shards 0 in
  let is_boundary = Array.make n false in
  Graphs.Graph.iter_edges g (fun u v ->
      if t.owner.(u) = t.owner.(v) then incr internal
      else begin
        incr cut;
        is_boundary.(u) <- true;
        is_boundary.(v) <- true
      end);
  for u = 0 to n - 1 do
    if is_boundary.(u) then boundary.(t.owner.(u)) <- boundary.(t.owner.(u)) + 1
  done;
  let ideal = float_of_int n /. float_of_int t.shards in
  let max_imbalance =
    Array.fold_left
      (fun acc c -> Float.max acc (float_of_int c /. ideal))
      0.0 sizes
  in
  { sizes; cut_edges = !cut; internal_edges = !internal;
    boundary_nodes = boundary; max_imbalance }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>shard sizes: [%s]@ cut edges: %d (internal %d)@ boundary nodes: [%s]@ \
     max imbalance: %.3f@]"
    (String.concat "; " (Array.to_list (Array.map string_of_int s.sizes)))
    s.cut_edges s.internal_edges
    (String.concat "; " (Array.to_list (Array.map string_of_int s.boundary_nodes)))
    s.max_imbalance
