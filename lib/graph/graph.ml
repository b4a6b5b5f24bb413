type t = {
  n : int;
  degree : int;
  adj : int array;   (* adj.(u * degree + k) = endpoint of port k of u *)
  ends : int array;  (* edge i is (ends.(2i), ends.(2i+1)), in the order given *)
}

(* The common degree of the edges in [ends], after the length, range,
   self-edge and regularity checks. *)
let check_ends ~n ends =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  if Array.length ends mod 2 <> 0 then invalid_arg "Graph.of_edges: odd number of endpoints";
  let deg = Array.make n 0 in
  for i = 0 to (Array.length ends / 2) - 1 do
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
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
  d

let fill_rows ~degree:d ends adj cursor =
  for i = 0 to (Array.length ends / 2) - 1 do
    let u = ends.(2 * i) and v = ends.((2 * i) + 1) in
    let ku = cursor.(u) in
    if ku < d then begin
      adj.((u * d) + ku) <- v;
      cursor.(u) <- ku + 1
    end;
    let kv = cursor.(v) in
    if kv < d then begin
      adj.((v * d) + kv) <- u;
      cursor.(v) <- kv + 1
    end
  done

let of_rows ~n ends adj =
  let d = check_ends ~n ends in
  if Array.length adj <> n * d then invalid_arg "Graph.of_rows: adjacency is not n * degree long";
  { n; degree = d; adj; ends }

let of_ends ~n ends =
  let d = check_ends ~n ends in
  let adj = Array.make (n * d) (-1) in
  fill_rows ~degree:d ends adj (Array.make n 0);
  { n; degree = d; adj; ends }

let of_edges ~n edges =
  let ends = Array.make (2 * List.length edges) 0 in
  List.iteri
    (fun i (u, v) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- v)
    edges;
  of_ends ~n ends

let n g = g.n
let degree g = g.degree
let edge_count g = Array.length g.ends / 2

let check_port g u k =
  if u < 0 || u >= g.n || k < 0 || k >= g.degree then
    invalid_arg "Graph: port out of range"

let neighbor g u k =
  check_port g u k;
  g.adj.((u * g.degree) + k)

(* Ports follow edge order at both endpoints, so the j-th copy of (u, v)
   among u's ports is the j-th copy among v's. *)
let reverse_port g u k =
  check_port g u k;
  let d = g.degree and adj = g.adj in
  let v = adj.((u * d) + k) in
  let j = ref 0 in
  for p = u * d to (u * d) + k - 1 do
    if adj.(p) = v then incr j
  done;
  let rec find k' j =
    if adj.((v * d) + k') <> u then find (k' + 1) j
    else if j = 0 then k'
    else find (k' + 1) (j - 1)
  in
  find 0 !j

let reverse_ports g =
  let d = g.degree in
  let rev = Array.make (g.n * d) 0 in
  let next = Array.make g.n 0 in
  for i = 0 to edge_count g - 1 do
    let u = g.ends.(2 * i) and v = g.ends.((2 * i) + 1) in
    let ku = next.(u) and kv = next.(v) in
    next.(u) <- ku + 1;
    next.(v) <- kv + 1;
    rev.((u * d) + ku) <- kv;
    rev.((v * d) + kv) <- ku
  done;
  rev

let iter_edges g f =
  for i = 0 to edge_count g - 1 do
    f g.ends.(2 * i) g.ends.((2 * i) + 1)
  done

let edges g = Array.init (edge_count g) (fun i -> (g.ends.(2 * i), g.ends.((2 * i) + 1)))

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
  let rec from p =
    p < Array.length g.adj && (multiplicity g (p / g.degree) g.adj.(p) > 1 || from (p + 1))
  in
  from 0
