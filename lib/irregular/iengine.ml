exception Invariant_violation of string

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
}

let scan_discrepancy loads =
  let lo = ref loads.(0) and hi = ref loads.(0) in
  Array.iter
    (fun x ->
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    loads;
  !hi - !lo

let run ?(sample_every = 1) ?hook ~graph ~balancer ~init ~steps () =
  let n = Igraph.n graph in
  let cap = balancer.Ibalancer.capacity in
  if Array.length init <> n then invalid_arg "Iengine.run: init length mismatch";
  if steps < 0 then invalid_arg "Iengine.run: negative step count";
  if sample_every <= 0 then invalid_arg "Iengine.run: sample_every must be positive";
  if cap <= Igraph.max_degree graph then
    invalid_arg "Iengine.run: capacity must exceed the maximum degree";
  let cur = ref (Array.copy init) in
  let next = ref (Array.make n 0) in
  let ports = Array.make cap 0 in
  let series = ref [ (0, scan_discrepancy !cur) ] in
  let steps_done = ref 0 in
  for t = 1 to steps do
    let cur_a = !cur and next_a = !next in
    Core.Loads.zero next_a;
    for u = 0 to n - 1 do
      let x = cur_a.(u) in
      balancer.Ibalancer.assign ~step:t ~node:u ~load:x ~ports;
      let deg = Igraph.degree graph u in
      let sum = ref 0 in
      for k = 0 to cap - 1 do
        sum := !sum + ports.(k);
        if k < deg && ports.(k) < 0 then
          raise
            (Invariant_violation
               (Printf.sprintf "%s: node %d step %d sends %d (< 0) on port %d"
                  balancer.Ibalancer.name u t ports.(k) k))
      done;
      if !sum <> x then
        raise
          (Invariant_violation
             (Printf.sprintf "%s: node %d step %d assigned %d of load %d"
                balancer.Ibalancer.name u t !sum x));
      let kept = ref 0 in
      for k = 0 to cap - 1 do
        if k < deg then begin
          let v = Igraph.neighbor graph u k in
          next_a.(v) <- next_a.(v) + ports.(k)
        end
        else kept := !kept + ports.(k)
      done;
      next_a.(u) <- next_a.(u) + !kept
    done;
    let tmp = !cur in
    cur := !next;
    next := tmp;
    steps_done := t;
    if t mod sample_every = 0 || t = steps then
      series := (t, scan_discrepancy !cur) :: !series;
    match hook with Some f -> f t !cur | None -> ()
  done;
  {
    steps_run = !steps_done;
    final_loads = !cur;
    series = Array.of_list (List.rev !series);
  }

let discrepancy_after ~graph ~balancer ~init ~steps =
  let r = run ~graph ~balancer ~init ~steps () in
  scan_discrepancy r.final_loads
