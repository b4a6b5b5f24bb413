let default_order ~degree ~self_loops =
  let dp = degree + self_loops in
  (* Bresenham-style merge: spread the original ports as evenly as
     possible among the self-loop ports around the cycle. *)
  let out = Array.make dp 0 in
  let next_orig = ref 0 and next_self = ref degree in
  let err = ref (degree - self_loops) in
  for i = 0 to dp - 1 do
    if (!next_orig < degree && !err > 0) || !next_self >= dp then begin
      out.(i) <- !next_orig;
      incr next_orig;
      err := !err - (2 * self_loops)
    end
    else begin
      out.(i) <- !next_self;
      incr next_self;
      err := !err + (2 * degree)
    end
  done;
  out

let validate_order ~d_plus order =
  if Array.length order <> d_plus then
    invalid_arg "Rotor_router: order is not a permutation (wrong length)";
  let seen = Array.make d_plus false in
  Array.iter
    (fun k ->
      if k < 0 || k >= d_plus || seen.(k) then
        invalid_arg "Rotor_router: order is not a permutation";
      seen.(k) <- true)
    order;
  order

let make ?order ?init_rotor g ~self_loops =
  if self_loops < 0 then invalid_arg "Rotor_router.make: self_loops < 0";
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let n = Graphs.Graph.n g in
  (* Every order is stored twice over, order ++ order, so that for a
     rotor r < dp and an excess e < dp the window [r, r + e) is one
     contiguous slice: no index is reduced mod dp.  Node u's copy
     starts at u·stride — stride 0 makes the default order one table
     shared by every node. *)
  let ord, stride =
    match order with
    | None ->
      let o = default_order ~degree:d ~self_loops in
      (Array.append o o, 0)
    | Some f ->
      let stride = 2 * dp in
      let ord = Array.make (n * stride) 0 in
      for u = 0 to n - 1 do
        let o = validate_order ~d_plus:dp (f u) in
        Array.blit o 0 ord (u * stride) dp;
        Array.blit o 0 ord ((u * stride) + dp) dp
      done;
      (ord, stride)
  in
  let rotor =
    Array.init n (fun u ->
        match init_rotor with
        | None -> 0
        | Some f ->
          let r = f u in
          if r < 0 || r >= dp then
            invalid_arg "Rotor_router.make: initial rotor out of range";
          r)
  in
  let negative_load () =
    invalid_arg "Rotor_router: negative load (rotor-router never produces one)"
  in
  let assign ~step:_ ~node ~load ~ports =
    if load < 0 then negative_load ();
    let q = load / dp in
    let e = load - (q * dp) in
    for k = 0 to dp - 1 do
      ports.(k) <- q
    done;
    let r = rotor.(node) in
    let first = (node * stride) + r in
    for i = first to first + e - 1 do
      let k = ord.(i) in
      ports.(k) <- ports.(k) + 1
    done;
    (* r + e < 2·dp, so one compare and subtract brings it back. *)
    let r' = r + e in
    rotor.(node) <- (if r' >= dp then r' - dp else r')
  in
  (* The whole-round kernel, for the shared default order only: a
     custom order would need a window table per node, so it keeps the
     generic path.  Which original ports get the extra token depends
     only on the rotor r and the excess e, so win.(r·d⁺ + e) holds the
     window [r, r + e) once and for all: bit k is set when original
     port k lies in it, and bits 32 and up count those ports.  Hence
     d ≤ 31, and d⁺ ≤ 64 caps the table at 4096 ints; any other shape
     keeps the generic path too. *)
  let kernel =
    match order with
    | Some _ -> None
    | None when d > 31 || dp > 64 -> None
    | None ->
      let win = Array.make (dp * dp) 0 in
      for r = 0 to dp - 1 do
        for e = 1 to dp - 1 do
          let k = ord.(r + e - 1) and w = win.((r * dp) + e - 1) in
          win.((r * dp) + e) <- (if k < d then w + (1 lsl k) + (1 lsl 32) else w)
        done
      done;
      (* The loops are [Rotor_loop]'s, one template expanded per
         target; the int target's per-round choice reads [empties], the
         last round's count of empty nodes. *)
      let empties = ref n in
      Some
        {
          Balancer.reproduces = assign;
          round = Rotor_loop.Into_int.round ~d ~dp ~win ~rotor ~empties;
          round_packed = Rotor_loop.Into32.round ~d ~dp ~win ~rotor;
          round_packed16 = Rotor_loop.Into16.round ~d ~dp ~win ~rotor;
        }
  in
  {
    Balancer.name = Printf.sprintf "rotor-router(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props = Balancer.paper_deterministic;
    assign;
    persist = Balancer.per_node_persistence ~bound:dp rotor;
    kernel;
  }
