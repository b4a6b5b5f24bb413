let make ?init_rotor g =
  let d = Graphs.Graph.degree g in
  let n = Graphs.Graph.n g in
  let dp = 2 * d in
  let rotor_ports = dp - 1 in
  (* Special self-loop = last port (index dp - 1); the rotor serves the
     d original edges interleaved with the d - 1 plain self-loops. *)
  let order = Rotor_router.default_order ~degree:d ~self_loops:(d - 1) in
  let rotor =
    Array.init n (fun u ->
        match init_rotor with
        | None -> 0
        | Some f ->
          let r = f u in
          if r < 0 || r >= rotor_ports then
            invalid_arg "Rotor_router_star.make: initial rotor out of range";
          r)
  in
  let assign ~step:_ ~node ~load ~ports =
    if load < 0 then invalid_arg "Rotor_router_star: negative load";
    let special = (load + dp - 1) / dp in
    (* ⌈x / 2d⌉ *)
    let y = load - special in
    let q = y / rotor_ports and e = y mod rotor_ports in
    Array.fill ports 0 rotor_ports q;
    ports.(dp - 1) <- special;
    let r = rotor.(node) in
    for i = 0 to e - 1 do
      let k = order.((r + i) mod rotor_ports) in
      ports.(k) <- ports.(k) + 1
    done;
    rotor.(node) <- (r + e) mod rotor_ports
  in
  {
    Balancer.name = "rotor-router*";
    degree = d;
    self_loops = d;
    props = Balancer.paper_deterministic;
    assign;
    persist = Balancer.per_node_persistence ~bound:rotor_ports rotor;
    kernel = None;
  }
