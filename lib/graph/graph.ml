type ends = Prng.Slots.t

type t = {
  n : int;
  degree : int;
  adj : int array;  (* adj.(u * degree + k) = endpoint of port k of u *)
  ends : ends;  (* edge i is (slot 2i, slot 2i+1), in the order given *)
}

let max_end = 0x7fff_ffff

(* A generator writes its slots unchecked, with ids below [n]: rejecting
   [n] here is what keeps them in [0, max_end], and [Slots.make] keeps
   [k] from wrapping. *)
let make_ends ~n k =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  if n > max_end + 1 then invalid_arg "Graph.of_edges: endpoint out of range";
  Prng.Slots.make k

let[@inline] get ends i = Int32.to_int (Prng.Slots.unsafe_get ends (i lsl 2))

let set_end ends i v =
  if v < 0 || v > max_end then invalid_arg "Graph.of_edges: endpoint out of range";
  Prng.Slots.set ends i v

(* Count one endpoint: [u]'s degree so far in [deg] and, if row [u] is
   marked, [v] written at that port while it is below [d].  Called only
   with u < n = length deg = length marked. *)
let[@inline] count deg ~d adj marked u v =
  let c = Array.unsafe_get deg u in
  if c < d && Bytes.unsafe_get marked u <> '\000' then adj.((u * d) + c) <- v;
  Array.unsafe_set deg u (c + 1)

(* The one pass over [ends] that every build makes to validate it: the
   length, range and self-edge checks, and the degrees counted in [deg],
   n long.  It also re-lays, in edge order, each row of [adj] ([d] wide)
   whose byte in [marked], n long, is set; with [d = 0] it lays nothing
   and reads no mark.  Returns the common degree after the regularity
   check. *)
let scan_ends ~n ends deg ~d adj marked =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let k = Prng.Slots.length ends in
  if k mod 2 <> 0 then invalid_arg "Graph.of_edges: odd number of endpoints";
  Array.fill deg 0 n 0;
  for i = 0 to (k / 2) - 1 do
    let u = get ends (2 * i) and v = get ends ((2 * i) + 1) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-edges are not allowed";
    count deg ~d adj marked u v;
    count deg ~d adj marked v u
  done;
  let d0 = deg.(0) in
  for u = 1 to n - 1 do
    if deg.(u) <> d0 then
      invalid_arg
        (Printf.sprintf "Graph.of_edges: not regular (node %d has degree %d, node 0 has %d)" u
           deg.(u) d0)
  done;
  d0

let fill_rows ~degree:d ends adj cursor =
  for i = 0 to (Prng.Slots.length ends / 2) - 1 do
    let u = get ends (2 * i) and v = get ends ((2 * i) + 1) in
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

let of_rows ~n ends adj ~cursor ~marked =
  if Array.length cursor <> n then invalid_arg "Graph.of_rows: cursor is not n long";
  if Bytes.length marked <> n then invalid_arg "Graph.of_rows: marks are not n long";
  let d = scan_ends ~n ends cursor ~d:(Array.length adj / max n 1) adj marked in
  if Array.length adj <> n * d then invalid_arg "Graph.of_rows: adjacency is not n * degree long";
  { n; degree = d; adj; ends }

(* The degree count and the row cursor are two n-int arrays, the count
   dead before the rows are allocated.  Counting in the cursor instead
   saves one array but moves the major cycle that frees them past the
   build: the open-torus benchmark's peak heap read 6.82 MB that way
   against 5.77 MB so (DESIGN.md §12.1). *)
let of_ends ~n ends =
  let d = scan_ends ~n ends (Array.make (max n 0) 0) ~d:0 [||] Bytes.empty in
  let adj = Array.make (n * d) (-1) in
  let cursor = Array.make n 0 in
  fill_rows ~degree:d ends adj cursor;
  { n; degree = d; adj; ends }

let of_edges ~n edges =
  let ends = make_ends ~n (2 * List.length edges) in
  List.iteri
    (fun i (u, v) ->
      set_end ends (2 * i) u;
      set_end ends ((2 * i) + 1) v)
    edges;
  of_ends ~n ends

let n g = g.n
let degree g = g.degree
let edge_count g = Prng.Slots.length g.ends / 2

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
    let u = get g.ends (2 * i) and v = get g.ends ((2 * i) + 1) in
    let ku = next.(u) and kv = next.(v) in
    next.(u) <- ku + 1;
    next.(v) <- kv + 1;
    rev.((u * d) + ku) <- kv;
    rev.((v * d) + kv) <- ku
  done;
  rev

let iter_edges g f =
  for i = 0 to edge_count g - 1 do
    f (get g.ends (2 * i)) (get g.ends ((2 * i) + 1))
  done

let edges g = Array.init (edge_count g) (fun i -> (get g.ends (2 * i), get g.ends ((2 * i) + 1)))

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
