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
  (* The whole-round kernel, for the shared default order only: its
     d⁺-entry inverse table pos (port k sits at index pos.(k) of the
     order) tells whether original port k lies in the window [r, r + e)
     without a ports buffer.  A custom order would need an n·d⁺ inverse
     table, so it keeps the generic path. *)
  let kernel =
    match order with
    | Some _ -> None
    | None ->
      let pos = Array.make dp 0 in
      for i = 0 to dp - 1 do
        pos.(ord.(i)) <- i
      done;
      (* The port loop has no data-dependent branch.  Every value below
         lies in (-2⁶², 2⁶²), so on OCaml's 63-bit ints [v asr 62] is -1
         for a negative v and 0 otherwise, and [v lsr 62] is 1 or 0:
         - the window offset w = pos.(k) - r ∈ (-d⁺, d⁺) wraps by
           [dp land (w asr 62)];
         - port k gets q + 1 when w < e, that is q + ((w - e) lsr 62);
         - the rotor r + e ∈ [0, 2·d⁺) wraps the same way from r + e - d⁺.
         Every original port is scattered, a zero send as a zero add: at
         the small loads of an open system w < e and s > 0 are coin flips,
         and the mispredicted branch on s cost more than the add.  The
         shift counts are constants, as the [lsl 2] slot offset is:
         under dune's [-opaque] dev profile a shared run-time count would
         be a variable shift on every port. *)
      let round ~step:_ ~adj cur next =
        let moved = ref 0 in
        for u = 0 to Array.length cur - 1 do
          let x = cur.(u) in
          if x > 0 then begin
            (* A load below d⁺ needs no division. *)
            let q = if x < dp then 0 else x / dp in
            let e = x - (q * dp) in
            let r = rotor.(u) in
            let base = u * d in
            let sent = ref 0 in
            for k = 0 to d - 1 do
              let w = pos.(k) - r in
              let w = w + (dp land (w asr 62)) in
              let s = q + ((w - e) lsr 62) in
              let v = adj.(base + k) in
              next.(v) <- next.(v) + s;
              sent := !sent + s
            done;
            let r' = r + e - dp in
            rotor.(u) <- r' + (dp land (r' asr 62));
            moved := !moved + !sent;
            next.(u) <- next.(u) + x - !sent
          end
          else if x < 0 then negative_load ()
        done;
        !moved
      in
      (* [round] with the two adds into [next] made into [acc]'s 32-bit
         slots instead.  Copied rather than shared through a scatter
         closure, which would cost a call per port. *)
      let round_packed ~step:_ ~adj cur acc =
        let moved = ref 0 in
        for u = 0 to Array.length cur - 1 do
          let x = cur.(u) in
          if x > 0 then begin
            (* A load below d⁺ needs no division. *)
            let q = if x < dp then 0 else x / dp in
            let e = x - (q * dp) in
            let r = rotor.(u) in
            let base = u * d in
            let sent = ref 0 in
            for k = 0 to d - 1 do
              let w = pos.(k) - r in
              let w = w + (dp land (w asr 62)) in
              let s = q + ((w - e) lsr 62) in
              let o = adj.(base + k) lsl 2 in
              Acc32.set acc o (Int32.add (Acc32.get acc o) (Int32.of_int s));
              sent := !sent + s
            done;
            let r' = r + e - dp in
            rotor.(u) <- r' + (dp land (r' asr 62));
            moved := !moved + !sent;
            let o = u lsl 2 in
            Acc32.set acc o (Int32.add (Acc32.get acc o) (Int32.of_int (x - !sent)))
          end
          else if x < 0 then negative_load ()
        done;
        !moved
      in
      Some { Balancer.reproduces = assign; round; round_packed }
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
