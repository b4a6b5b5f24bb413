let transition_matrix g ~self_loops =
  if self_loops < 0 then invalid_arg "Spectral.transition_matrix: self_loops < 0";
  let n = Graph.n g in
  let d_plus = Graph.degree g + self_loops in
  let p = 1.0 /. float_of_int d_plus in
  let triplets = ref [] in
  for u = 0 to n - 1 do
    if self_loops > 0 then
      triplets := (u, u, float_of_int self_loops *. p) :: !triplets;
    Graph.iter_ports g u (fun _ v -> triplets := (u, v, p) :: !triplets)
  done;
  Linalg.Csr.of_triplets ~n !triplets

let eigenvalue_gap ?max_iter ?tol g ~self_loops =
  let p = transition_matrix g ~self_loops in
  Linalg.Eigen.spectral_gap ?max_iter ?tol p

let pi = 4.0 *. atan 1.0

(* µ = 1 − max |λ| over the walk's non-trivial eigenvalues (a + d°)/d⁺:
   the largest modulus comes from the largest non-trivial adjacency
   eigenvalue [a_max] or the smallest [a_min].  Clamped as
   [Linalg.Eigen.spectral_gap] clamps its estimate. *)
let walk_gap ~d ~self_loops ~a_max ~a_min =
  let d0 = float_of_int self_loops in
  let dp = float_of_int d +. d0 in
  let modulus a = abs_float ((a +. d0) /. dp) in
  let l = Float.max (modulus a_max) (modulus a_min) in
  let gap = 1.0 -. l in
  if gap <= 0.0 then 1e-12 else gap

(* 2 cos(2πk/n): eigenvalue k of the cycle C_n's adjacency. *)
let cycle_eigenvalue ~n k = 2.0 *. cos (2.0 *. pi *. float_of_int k /. float_of_int n)

let cycle_gap ~n ~self_loops =
  walk_gap ~d:2 ~self_loops ~a_max:(cycle_eigenvalue ~n 1)
    ~a_min:(cycle_eigenvalue ~n (n / 2))

let hypercube_gap ~r ~self_loops =
  walk_gap ~d:r ~self_loops ~a_max:(float_of_int r -. 2.0) ~a_min:(float_of_int (-r))

let complete_gap ~n ~self_loops = walk_gap ~d:(n - 1) ~self_loops ~a_max:(-1.0) ~a_min:(-1.0)

let torus2d_gap ~side ~self_loops =
  walk_gap ~d:4 ~self_loops
    ~a_max:(2.0 +. cycle_eigenvalue ~n:side 1)
    ~a_min:(2.0 *. cycle_eigenvalue ~n:side (side / 2))

let circulant_gap ~n ~offsets ~self_loops =
  let d =
    List.fold_left (fun acc o -> acc + if 2 * o = n then 1 else 2) 0 offsets
  in
  let d_plus = float_of_int (d + self_loops) in
  let adjacency_eigenvalue k =
    List.fold_left
      (fun acc o ->
        let w = if 2 * o = n then 1.0 else 2.0 in
        acc +. (w *. cos (2.0 *. pi *. float_of_int (k * o) /. float_of_int n)))
      0.0 offsets
  in
  let lambda2 = ref neg_infinity in
  for k = 1 to n - 1 do
    let l = (adjacency_eigenvalue k +. float_of_int self_loops) /. d_plus in
    if abs_float l > !lambda2 then lambda2 := abs_float l
  done;
  let gap = 1.0 -. !lambda2 in
  if gap <= 0.0 then 1e-12 else gap

let horizon ~gap ~n ~initial_discrepancy ~c =
  if gap <= 0.0 then invalid_arg "Spectral.horizon: gap must be positive";
  let k = float_of_int (max 0 initial_discrepancy) in
  let t = c *. log (float_of_int n *. (k +. 2.0)) /. gap in
  max 1 (int_of_float (ceil t))

let continuous_balancing_time g ~self_loops ~init ?(tolerance = 1.0)
    ?(max_steps = 10_000_000) () =
  let n = Graph.n g in
  if Array.length init <> n then
    invalid_arg "Spectral.continuous_balancing_time: init dimension mismatch";
  let p = transition_matrix g ~self_loops in
  let x = ref (Array.copy init) in
  let y = ref (Array.make n 0.0) in
  let discrepancy v = Linalg.Vec.max_elt v -. Linalg.Vec.min_elt v in
  let rec go t =
    if discrepancy !x < tolerance then Some t
    else if t >= max_steps then None
    else begin
      Linalg.Csr.mul_vec_into p !x !y;
      let tmp = !x in
      x := !y;
      y := tmp;
      go (t + 1)
    end
  in
  go 0
