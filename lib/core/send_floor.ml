let make g ~self_loops =
  if self_loops < 1 then invalid_arg "Send_floor.make: needs at least one self-loop";
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let assign ~step:_ ~node:_ ~load ~ports =
    if load < 0 then invalid_arg "Send_floor: negative load";
    let q = load / dp and e = load mod dp in
    Array.fill ports 0 dp q;
    ports.(d) <- q + e
  in
  {
    Balancer.name = Printf.sprintf "send-floor(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props = Balancer.paper_stateless;
    assign;
    persist = None;
    kernel = None;
  }
