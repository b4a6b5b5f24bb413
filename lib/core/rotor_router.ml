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
      (* Every original port of a loaded node is scattered, a zero send
         as a zero add: at the small loads of an open system the extra
         token is a coin flip, and a branch on it mispredicts.  The rotor
         wraps without one: r' = r + e - d⁺ ∈ (-d⁺, d⁺), and on 63-bit
         ints [r' asr 62] is -1 or 0.  Nor does the quotient branch on
         the data below 2·d⁺, where loads sit in a balanced round: there
         1 + ((x - d⁺) asr 62) is 0 or 1, and only a larger load pays
         for a division.  Ports go four at a time with constant shift
         counts, as the [lsl 2] slot offset has: port 4g + j reads bit j
         of the entry shifted right 4g times.  A plain loop takes the
         d mod 4 ports left over. *)
      let d4 = d land lnot 3 in
      (* One shape check per round.  It raises before any rotor moves,
         and after it every index into [cur], [rotor] and [adj] below is
         in bounds, so those accesses skip their own checks; the [win]
         lookup and the adds into [next] keep theirs. *)
      let check_shape ~adj cur =
        let n = Array.length cur in
        if Array.length rotor <> n || Array.length adj <> n * d then
          invalid_arg "Rotor_router: kernel round on loads or an adjacency of another graph";
        n
      in
      (* An empty node is skipped, so the first rounds after a point
         mass, when most nodes are empty, skip their d adds. *)
      let round ~step:_ ~adj cur next =
        let n = check_shape ~adj cur in
        let moved = ref 0 in
        for u = 0 to n - 1 do
          (* u < n = length cur *)
          let x = Array.unsafe_get cur u in
          if x > 0 then begin
            let q = if x < 2 * dp then 1 + ((x - dp) asr 62) else x / dp in
            let e = x - (q * dp) in
            (* u < n = length rotor *)
            let r = Array.unsafe_get rotor u in
            let t = win.((r * dp) + e) in
            let sent = (q * d) + (t lsr 32) in
            let base = u * d in
            let stop = base + d4 and k = ref base and m = ref t in
            while !k < stop do
              let k0 = !k and t = !m in
              (* k0 + 3 < base + d <= n·d = length adj *)
              let v = Array.unsafe_get adj k0 in
              next.(v) <- next.(v) + q + (t land 1);
              (* k0 + 1 < length adj, as above *)
              let v = Array.unsafe_get adj (k0 + 1) in
              next.(v) <- next.(v) + q + ((t lsr 1) land 1);
              (* k0 + 2 < length adj, as above *)
              let v = Array.unsafe_get adj (k0 + 2) in
              next.(v) <- next.(v) + q + ((t lsr 2) land 1);
              (* k0 + 3 < length adj, as above *)
              let v = Array.unsafe_get adj (k0 + 3) in
              next.(v) <- next.(v) + q + ((t lsr 3) land 1);
              k := k0 + 4;
              m := t lsr 4
            done;
            for k = stop to base + d - 1 do
              (* k < base + d <= n·d = length adj *)
              let v = Array.unsafe_get adj k in
              next.(v) <- next.(v) + q + (!m land 1);
              m := !m lsr 1
            done;
            let r' = r + e - dp in
            (* u < n = length rotor *)
            Array.unsafe_set rotor u (r' + (dp land (r' asr 62)));
            moved := !moved + sent;
            next.(u) <- next.(u) + x - sent
          end
          else if x < 0 then negative_load ()
        done;
        !moved
      in
      (* [round] with the adds into [next] made into [acc]'s 32-bit
         slots instead.  Copied rather than shared through a scatter
         closure, which would cost a call per port. *)
      let round_packed ~step:_ ~adj cur acc =
        let n = check_shape ~adj cur in
        if Acc.length acc < n then
          invalid_arg "Rotor_router: kernel round into an accumulator with too few slots";
        let moved = ref 0 in
        for u = 0 to n - 1 do
          (* u < n = length cur *)
          let x = Array.unsafe_get cur u in
          if x > 0 then begin
            let q = if x < 2 * dp then 1 + ((x - dp) asr 62) else x / dp in
            let e = x - (q * dp) in
            (* u < n = length rotor *)
            let r = Array.unsafe_get rotor u in
            let t = win.((r * dp) + e) in
            let sent = (q * d) + (t lsr 32) in
            let base = u * d in
            let stop = base + d4 and k = ref base and m = ref t in
            while !k < stop do
              let k0 = !k and t = !m in
              (* k0 + 3 < base + d <= n·d = length adj *)
              let o = Array.unsafe_get adj k0 lsl 2 in
              Acc.set acc o (Int32.add (Acc.get acc o) (Int32.of_int (q + (t land 1))));
              (* k0 + 1 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 1) lsl 2 in
              Acc.set acc o
                (Int32.add (Acc.get acc o) (Int32.of_int (q + ((t lsr 1) land 1))));
              (* k0 + 2 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 2) lsl 2 in
              Acc.set acc o
                (Int32.add (Acc.get acc o) (Int32.of_int (q + ((t lsr 2) land 1))));
              (* k0 + 3 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 3) lsl 2 in
              Acc.set acc o
                (Int32.add (Acc.get acc o) (Int32.of_int (q + ((t lsr 3) land 1))));
              k := k0 + 4;
              m := t lsr 4
            done;
            for k = stop to base + d - 1 do
              (* k < base + d <= n·d = length adj *)
              let o = Array.unsafe_get adj k lsl 2 in
              Acc.set acc o (Int32.add (Acc.get acc o) (Int32.of_int (q + (!m land 1))));
              m := !m lsr 1
            done;
            let r' = r + e - dp in
            (* u < n = length rotor *)
            Array.unsafe_set rotor u (r' + (dp land (r' asr 62)));
            moved := !moved + sent;
            let o = u lsl 2 in
            Acc.set acc o (Int32.add (Acc.get acc o) (Int32.of_int (x - sent)))
          end
          else if x < 0 then negative_load ()
        done;
        !moved
      in
      (* [round_packed] with plain int adds into [acc]'s 16-bit slots,
         at byte offset [i lsl 1]: no [Int32] conversion. *)
      let round_packed16 ~step:_ ~adj cur acc =
        let n = check_shape ~adj cur in
        if Acc.length16 acc < n then
          invalid_arg "Rotor_router: kernel round into an accumulator with too few slots";
        let moved = ref 0 in
        for u = 0 to n - 1 do
          (* u < n = length cur *)
          let x = Array.unsafe_get cur u in
          if x > 0 then begin
            let q = if x < 2 * dp then 1 + ((x - dp) asr 62) else x / dp in
            let e = x - (q * dp) in
            (* u < n = length rotor *)
            let r = Array.unsafe_get rotor u in
            let t = win.((r * dp) + e) in
            let sent = (q * d) + (t lsr 32) in
            let base = u * d in
            let stop = base + d4 and k = ref base and m = ref t in
            while !k < stop do
              let k0 = !k and t = !m in
              (* k0 + 3 < base + d <= n·d = length adj *)
              let o = Array.unsafe_get adj k0 lsl 1 in
              Acc.set16 acc o (Acc.get16 acc o + q + (t land 1));
              (* k0 + 1 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 1) lsl 1 in
              Acc.set16 acc o (Acc.get16 acc o + q + ((t lsr 1) land 1));
              (* k0 + 2 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 2) lsl 1 in
              Acc.set16 acc o (Acc.get16 acc o + q + ((t lsr 2) land 1));
              (* k0 + 3 < length adj, as above *)
              let o = Array.unsafe_get adj (k0 + 3) lsl 1 in
              Acc.set16 acc o (Acc.get16 acc o + q + ((t lsr 3) land 1));
              k := k0 + 4;
              m := t lsr 4
            done;
            for k = stop to base + d - 1 do
              (* k < base + d <= n·d = length adj *)
              let o = Array.unsafe_get adj k lsl 1 in
              Acc.set16 acc o (Acc.get16 acc o + q + (!m land 1));
              m := !m lsr 1
            done;
            let r' = r + e - dp in
            (* u < n = length rotor *)
            Array.unsafe_set rotor u (r' + (dp land (r' asr 62)));
            moved := !moved + sent;
            let o = u lsl 1 in
            Acc.set16 acc o (Acc.get16 acc o + x - sent)
          end
          else if x < 0 then negative_load ()
        done;
        !moved
      in
      Some { Balancer.reproduces = assign; round; round_packed; round_packed16 }
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
