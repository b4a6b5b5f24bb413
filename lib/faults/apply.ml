type ledger = { injected : int; lost : int; spilled : int }

let validate ~fn ~n ~d ~steps plan =
  List.iter
    (fun { Schedule.step; event } ->
      if step < 1 || step > steps then
        invalid_arg
          (Printf.sprintf "%s: fault at step %d outside [1, %d]" fn step steps);
      match event with
      | Schedule.Crash { node; _ } | Schedule.Load_shock { node; _ } ->
        if node < 0 || node >= n then
          invalid_arg (Printf.sprintf "%s: node %d out of range" fn node)
      | Schedule.Edge_outage { node; port; last_step } ->
        if node < 0 || node >= n then
          invalid_arg (Printf.sprintf "%s: node %d out of range" fn node);
        if port < 0 || port >= d then
          invalid_arg (Printf.sprintf "%s: port %d out of range" fn port);
        if last_step < step then invalid_arg (fn ^ ": outage ends before it starts"))
    plan

let watchdog ?extra_mass ~expected_total balancers =
  match balancers with
  | [] -> invalid_arg "Faults.Apply.watchdog: no balancer instances"
  | b0 :: _ ->
    Watchdog.create
      ?state_range:
        (Option.map (fun p -> (0, p.Core.Balancer.state_bound)) b0.Core.Balancer.persist)
      ~state_sources:
        (List.filter_map
           (fun b ->
             Option.map (fun p () -> p.Core.Balancer.state_save ()) b.Core.Balancer.persist)
           balancers)
      ?extra_mass ~name:b0.Core.Balancer.name
      ~never_negative:b0.Core.Balancer.props.Core.Balancer.never_negative
      ~expected_total ()

let wipe_state balancers node =
  List.iter
    (fun b ->
      match b.Core.Balancer.persist with
      | None -> ()
      | Some p ->
        let s = p.Core.Balancer.state_save () in
        if s.(node) <> 0 then begin
          s.(node) <- 0;
          p.Core.Balancer.state_restore s
        end)
    balancers

let events ~graph ~balancers ~outage ~loads evs =
  let d = Graphs.Graph.degree graph in
  let adj = Graphs.Graph.adjacency graph in
  List.fold_left
    (fun l event ->
      match event with
      | Schedule.Crash { node; state; tokens } ->
        let x = loads.(node) in
        let l =
          match tokens with
          | Schedule.Lose_tokens ->
            loads.(node) <- 0;
            { l with lost = l.lost + x }
          | Schedule.Spill_tokens ->
            (* Spread as evenly as the integers allow; ports in order
               absorb the remainder.  Mass is conserved.  The crash
               handler dumps the tokens on the neighbours directly: it
               does not get to use the network. *)
            if x > 0 then begin
              let q = x / d and r = x mod d in
              let base = node * d in
              for k = 0 to d - 1 do
                let v = adj.(base + k) in
                loads.(v) <- loads.(v) + q + (if k < r then 1 else 0)
              done;
              loads.(node) <- 0
            end;
            { l with spilled = l.spilled + x }
        in
        (match state with
        | Schedule.Wipe_state -> wipe_state balancers node
        | Schedule.Keep_state -> ());
        l
      | Schedule.Edge_outage { node; port; last_step } ->
        outage ~edge:((node * d) + port) ~until:last_step;
        l
      | Schedule.Load_shock { node; amount } ->
        loads.(node) <- loads.(node) + amount;
        { l with injected = l.injected + amount })
    { injected = 0; lost = 0; spilled = 0 }
    evs
