let graph ~n ~d = Graphs.Gen.clique_circulant ~n ~d

let clique_size ~d = d / 2

(* Adversarial slot -> port permutation: clique node i's j-th rule slot
   (j < ℓ) is wired to its edge towards clique member (i+1+j) mod h, so
   the freeze argument's cyclic routing holds; remaining slots take the
   leftover ports in natural order.  Non-clique nodes keep identity. *)
let adversarial_permutation g ~d ~h u =
  if u >= h then Array.init d (fun k -> k)
  else begin
    let ell = h - 1 in
    let port_towards = Hashtbl.create d in
    Graphs.Graph.iter_ports g u (fun k v ->
        if v < h && v <> u && not (Hashtbl.mem port_towards v) then
          Hashtbl.add port_towards v k);
    let perm = Array.make d (-1) in
    let used = Array.make d false in
    for j = 0 to ell - 1 do
      let target = (u + 1 + j) mod h in
      match Hashtbl.find_opt port_towards target with
      | Some k ->
        perm.(j) <- k;
        used.(k) <- true
      | None ->
        invalid_arg "Adversary_stateless: clique nodes are not mutually adjacent"
    done;
    let next = ref ell in
    for k = 0 to d - 1 do
      if not used.(k) then begin
        perm.(!next) <- k;
        incr next
      end
    done;
    perm
  end

let make_general g ~d ~rule =
  let n = Graphs.Graph.n g in
  if Graphs.Graph.degree g <> d then
    invalid_arg "Adversary_stateless.make_general: graph degree mismatch";
  let h = clique_size ~d in
  if h < 2 then invalid_arg "Adversary_stateless.make_general: d too small for a clique";
  let ell = h - 1 in
  (* Sanity-check the rule on the loads the frozen run will feed it. *)
  List.iter
    (fun x ->
      let v = rule x in
      if Array.length v <> d + 1 then
        invalid_arg "Adversary_stateless: rule must return d+1 values";
      if Array.exists (fun p -> p < 0) v then
        invalid_arg "Adversary_stateless: rule must be non-negative";
      if Array.fold_left ( + ) 0 v <> x then
        invalid_arg "Adversary_stateless: rule must conserve load")
    [ 0; ell ];
  let perms = Array.init n (fun u -> adversarial_permutation g ~d ~h u) in
  let assign ~step:_ ~node ~load ~ports =
    if load < 0 then invalid_arg "Adversary_stateless: negative load";
    let v = rule load in
    Array.fill ports 0 (d + 1) 0;
    let perm = perms.(node) in
    for j = 0 to d - 1 do
      ports.(perm.(j)) <- v.(j)
    done;
    ports.(d) <- v.(d)
  in
  let init = Array.init n (fun u -> if u < h then ell else 0) in
  let balancer =
    {
      Core.Balancer.name = "adversary-stateless(general)";
      degree = d;
      self_loops = 1;
      props =
        {
          deterministic = true;
          stateless = true;
          never_negative = true;
          no_communication = true;
        };
      assign;
      persist = None;
      kernel = None;
    }
  in
  (balancer, init)

(* The concrete instantiation used throughout: unit-send — one token on
   each of the first min(x, d) slots, keep the rest. *)
let unit_send_rule ~d x =
  let v = Array.make (d + 1) 0 in
  let sends = min x d in
  for j = 0 to sends - 1 do
    v.(j) <- 1
  done;
  v.(d) <- x - sends;
  v

let make g ~d =
  let balancer, init = make_general g ~d ~rule:(unit_send_rule ~d) in
  ({ balancer with Core.Balancer.name = "adversary-stateless(unit-send)" }, init)
