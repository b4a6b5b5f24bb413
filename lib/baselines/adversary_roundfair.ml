let build ?(root = 0) g =
  let n = Graphs.Graph.n g in
  let d = Graphs.Graph.degree g in
  let b = Graphs.Props.bfs_distances g root in
  Array.iter
    (fun dist ->
      if dist = max_int then
        invalid_arg "Adversary_roundfair: graph must be connected")
    b;
  (* flow.(u * d + k): constant flow node u pushes through port k. *)
  let flow = Array.make (n * d) 0 in
  let init = Array.make n 0 in
  for u = 0 to n - 1 do
    let acc = ref b.(u) in
    Graphs.Graph.iter_ports g u (fun k v ->
        let f = min b.(u) b.(v) in
        flow.((u * d) + k) <- f;
        acc := !acc + f);
    init.(u) <- !acc
  done;
  (flow, init)

let make ?root g =
  let d = Graphs.Graph.degree g in
  let flow, init = build ?root g in
  let assign ~step:_ ~node ~load ~ports =
    let base = node * d in
    let sent = ref 0 in
    for k = 0 to d - 1 do
      ports.(k) <- flow.(base + k);
      sent := !sent + flow.(base + k)
    done;
    (* The keep slot: in steady state this is exactly b(node). *)
    ports.(d) <- load - !sent
  in
  let balancer =
    {
      Core.Balancer.name = "adversary-roundfair";
      degree = d;
      self_loops = 1;
      props =
        {
          deterministic = true;
          stateless = false;
          never_negative = true;
          no_communication = true;
        };
      assign;
      persist = None;
      kernel = None;
    }
  in
  (balancer, init)

let expected_discrepancy ?root g =
  let _, init = build ?root g in
  Core.Loads.discrepancy init
