let make g ~self_loops =
  let d = Graphs.Graph.degree g in
  if self_loops < d then
    invalid_arg "Send_round.make: needs d° >= d (self-loops absorb the rounding)";
  let dp = d + self_loops in
  let assign ~step:_ ~node:_ ~load ~ports =
    if load < 0 then invalid_arg "Send_round: negative load";
    let q = load / dp and e = load mod dp in
    let round_up = 2 * e >= dp in
    let share = if round_up then q + 1 else q in
    (* Original edges all get [x/d+]. *)
    for k = 0 to d - 1 do
      ports.(k) <- share
    done;
    (* Self-loops: base q each, then one extra per loop until the load is
       exhausted.  extra = e - d if the originals rounded up, else e;
       both are in [0, self_loops] (requires d° >= d). *)
    let extra = if round_up then e - d else e in
    for k = d to dp - 1 do
      ports.(k) <- q + (if k - d < extra then 1 else 0)
    done
  in
  {
    Balancer.name = Printf.sprintf "send-round(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props = Balancer.paper_stateless;
    assign;
    persist = None;
    kernel = None;
  }
