let make rng g ~self_loops =
  if self_loops < 0 then invalid_arg "Random_extra.make: self_loops < 0";
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let assign ~step:_ ~node:_ ~load ~ports =
    if load < 0 then invalid_arg "Random_extra: negative load";
    let q = load / dp and e = load mod dp in
    Array.fill ports 0 dp q;
    for _ = 1 to e do
      let k = Prng.Splitmix.int rng dp in
      ports.(k) <- ports.(k) + 1
    done
  in
  {
    Core.Balancer.name = Printf.sprintf "random-extra(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props =
      {
        deterministic = false;
        stateless = true;
        never_negative = true;
        no_communication = true;
      };
    assign;
    persist = None;
    kernel = None;
  }
