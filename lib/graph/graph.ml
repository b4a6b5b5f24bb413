type t = {
  n : int;
  degree : int;
  adj : int array;      (* adj.(u * degree + k) = endpoint of port k of u *)
  rev : int array;      (* rev.(u * degree + k) = matching port at the endpoint *)
  src : int array;      (* edge i is (src.(i), dst.(i)), in the order given *)
  dst : int array;
}

let of_edge_arrays ~n a b =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let m = Array.length a in
  if Array.length b <> m then
    invalid_arg "Graph.of_edge_arrays: endpoint arrays differ in length";
  let deg = Array.make n 0 in
  for i = 0 to m - 1 do
    let u = a.(i) and v = b.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-edges are not allowed";
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  let d = deg.(0) in
  Array.iteri
    (fun u du ->
      if du <> d then
        invalid_arg
          (Printf.sprintf "Graph.of_edges: not regular (node %d has degree %d, node 0 has %d)"
             u du d))
    deg;
  let adj = Array.make (n * d) (-1) in
  let rev = Array.make (n * d) (-1) in
  let next = Array.make n 0 in
  for i = 0 to m - 1 do
    let u = a.(i) and v = b.(i) in
    let ku = next.(u) in
    next.(u) <- ku + 1;
    let kv = next.(v) in
    next.(v) <- kv + 1;
    adj.((u * d) + ku) <- v;
    adj.((v * d) + kv) <- u;
    rev.((u * d) + ku) <- kv;
    rev.((v * d) + kv) <- ku
  done;
  { n; degree = d; adj; rev; src = a; dst = b }

let of_edges ~n edges =
  let edges = Array.of_list edges in
  of_edge_arrays ~n (Array.map fst edges) (Array.map snd edges)

let n g = g.n
let degree g = g.degree
let edge_count g = Array.length g.src

let check_port g u k =
  if u < 0 || u >= g.n || k < 0 || k >= g.degree then
    invalid_arg "Graph: port out of range"

let neighbor g u k =
  check_port g u k;
  g.adj.((u * g.degree) + k)

let neighbors g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbors";
  Array.sub g.adj (u * g.degree) g.degree

let reverse_port g u k =
  check_port g u k;
  g.rev.((u * g.degree) + k)

let edges g = Array.init (Array.length g.src) (fun i -> (g.src.(i), g.dst.(i)))

let directed_edge_index g u k =
  check_port g u k;
  (u * g.degree) + k

let adjacency g = g.adj

let iter_ports g u f =
  if u < 0 || u >= g.n then invalid_arg "Graph.iter_ports";
  let base = u * g.degree in
  for k = 0 to g.degree - 1 do
    f k g.adj.(base + k)
  done

let multiplicity g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then invalid_arg "Graph.multiplicity";
  let c = ref 0 in
  let base = u * g.degree in
  for k = 0 to g.degree - 1 do
    if g.adj.(base + k) = v then incr c
  done;
  !c

let has_parallel_edges g =
  let found = ref false in
  for u = 0 to g.n - 1 do
    let seen = Hashtbl.create g.degree in
    iter_ports g u (fun _ v ->
        if Hashtbl.mem seen v then found := true else Hashtbl.add seen v ())
  done;
  !found

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, d=%d, m=%d)" g.n g.degree (edge_count g)
