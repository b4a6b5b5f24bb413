type mode =
  | Sequential
  | Sharded of { shards : int; strategy : Shard.Partition.strategy }

type episode = {
  step : int;
  events : Schedule.event list;
  pre_discrepancy : int;
  shock_discrepancy : int;
  worst_discrepancy : int;
  recovered_at : int option;
  injected : int;
  lost : int;
  spilled : int;
}

let steps_to_recover e =
  Option.map (fun r -> max 0 (r - e.step + 1)) e.recovered_at

type report = {
  result : Core.Engine.result;
  eps : int;
  episodes : episode list;
  injected : int;
  lost : int;
  spilled : int;
  initial_total : int;
  final_total : int;
  watchdog_checks : int;
}

let all_recovered r = List.for_all (fun e -> e.recovered_at <> None) r.episodes

(* Mutable in-flight view of an episode; frozen into [episode] at the
   end of the run. *)
type tracker = {
  tk_step : int;
  tk_events : Schedule.event list;
  tk_pre : int;
  tk_shock : int;
  mutable tk_worst : int;
  mutable tk_recovered : int option;
  tk_injected : int;
  tk_lost : int;
  tk_spilled : int;
}

let validate_plan ~n ~d ~steps plan =
  List.iter
    (fun { Schedule.step; event } ->
      if step < 1 || step > steps then
        invalid_arg
          (Printf.sprintf "Faults.Engine.run: fault at step %d outside [1, %d]" step
             steps);
      match event with
      | Schedule.Crash { node; _ } | Schedule.Load_shock { node; _ } ->
        if node < 0 || node >= n then
          invalid_arg (Printf.sprintf "Faults.Engine.run: node %d out of range" node)
      | Schedule.Edge_outage { node; port; last_step } ->
        if node < 0 || node >= n then
          invalid_arg (Printf.sprintf "Faults.Engine.run: node %d out of range" node);
        if port < 0 || port >= d then
          invalid_arg (Printf.sprintf "Faults.Engine.run: port %d out of range" port);
        if last_step < step then
          invalid_arg "Faults.Engine.run: outage ends before it starts")
    plan

(* Outage shim: one extra hidden self-loop port; while (node, port) is
   down, tokens assigned to the dead original port stay home on it.
   Transparent otherwise — same name/props/persist, so the sharded
   engine's identical-instance check and checkpoint capability hold. *)
let wrap_outages b ~d ~outage_until =
  let dp_in = Core.Balancer.d_plus b in
  let inner_assign = b.Core.Balancer.assign in
  let assign ~step ~node ~load ~ports =
    ports.(dp_in) <- 0;
    inner_assign ~step ~node ~load ~ports;
    let base = node * d in
    for k = 0 to d - 1 do
      if outage_until.(base + k) >= step && ports.(k) <> 0 then begin
        ports.(dp_in) <- ports.(dp_in) + ports.(k);
        ports.(k) <- 0
      end
    done
  in
  { b with Core.Balancer.self_loops = b.Core.Balancer.self_loops + 1; assign }

let run ?(mode = Sequential) ?eps ?(watchdog = true) ?(sample_every = 1) ?hook
    ~graph ~make_balancer ~plan ~init ~steps () =
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  let adj = Graphs.Graph.adjacency graph in
  if Array.length init <> n then invalid_arg "Faults.Engine.run: init length mismatch";
  validate_plan ~n ~d ~steps plan;
  let eps = match eps with Some e -> e | None -> d in
  if eps < 0 then invalid_arg "Faults.Engine.run: negative eps";
  let has_outages =
    List.exists
      (fun t -> match t.Schedule.event with Schedule.Edge_outage _ -> true | _ -> false)
      plan
  in
  let outage_until = if has_outages then Array.make (n * d) 0 else [||] in
  (* Pre-create every balancer instance the chosen engine will ask for,
     so state wipes and the watchdog can reach them even for faults
     scheduled before the first step. *)
  let instance_count = match mode with Sequential -> 1 | Sharded { shards; _ } -> shards in
  let inner_instances = List.init instance_count (fun _ -> make_balancer ()) in
  let engine_instances =
    if has_outages then List.map (fun b -> wrap_outages b ~d ~outage_until) inner_instances
    else inner_instances
  in
  let b0 =
    match inner_instances with
    | b :: _ -> b
    | [] -> invalid_arg "Faults.Engine.run: no balancer instances"
  in
  let initial_total = Core.Loads.total init in
  let wd =
    if not watchdog then None
    else
      Some
        (Watchdog.create
           ?state_range:
             (Option.map
                (fun p -> (0, p.Core.Balancer.state_bound))
                b0.Core.Balancer.persist)
           ~state_sources:
             (List.filter_map
                (fun b ->
                  Option.map
                    (fun p () -> p.Core.Balancer.state_save ())
                    b.Core.Balancer.persist)
                inner_instances)
           ~name:b0.Core.Balancer.name
           ~never_negative:b0.Core.Balancer.props.Core.Balancer.never_negative
           ~expected_total:initial_total ())
  in
  let injected = ref 0 and lost = ref 0 and spilled = ref 0 in
  let trackers = ref [] in
  let wipe_state node =
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
      inner_instances
  in
  let apply_episode ~loads ~step events =
    Obs.Prof.time "faults.episode" @@ fun () ->
    let pre = Core.Loads.discrepancy loads in
    let ep_injected = ref 0 and ep_lost = ref 0 and ep_spilled = ref 0 in
    List.iter
      (fun event ->
        match event with
        | Schedule.Crash { node; state; tokens } ->
          let x = loads.(node) in
          (match tokens with
          | Schedule.Lose_tokens ->
            loads.(node) <- 0;
            ep_lost := !ep_lost + x
          | Schedule.Spill_tokens ->
            (* Spread as evenly as the integers allow; ports in order
               absorb the remainder.  Mass is conserved. *)
            if x > 0 then begin
              let q = x / d and r = x mod d in
              let base = node * d in
              for k = 0 to d - 1 do
                let v = adj.(base + k) in
                loads.(v) <- loads.(v) + q + (if k < r then 1 else 0)
              done;
              loads.(node) <- 0
            end;
            ep_spilled := !ep_spilled + x);
          (match state with
          | Schedule.Wipe_state -> wipe_state node
          | Schedule.Keep_state -> ())
        | Schedule.Edge_outage { node; port; last_step } ->
          let slot = (node * d) + port in
          if outage_until.(slot) < last_step then outage_until.(slot) <- last_step
        | Schedule.Load_shock { node; amount } ->
          loads.(node) <- loads.(node) + amount;
          ep_injected := !ep_injected + amount)
      events;
    injected := !injected + !ep_injected;
    lost := !lost + !ep_lost;
    spilled := !spilled + !ep_spilled;
    (match wd with
    | Some w -> Watchdog.adjust_expected w (!ep_injected - !ep_lost)
    | None -> ());
    let shock = Core.Loads.discrepancy loads in
    let tk =
      {
        tk_step = step;
        tk_events = events;
        tk_pre = pre;
        tk_shock = shock;
        tk_worst = shock;
        tk_recovered = (if shock <= pre + eps then Some (step - 1) else None);
        tk_injected = !ep_injected;
        tk_lost = !ep_lost;
        tk_spilled = !ep_spilled;
      }
    in
    trackers := tk :: !trackers
  in
  let engine_hook t loads =
    (match wd with Some w -> Watchdog.check w ~step:t ~loads | None -> ());
    let open_tks = List.filter (fun tk -> tk.tk_recovered = None) !trackers in
    let events_next = Schedule.events_at plan ~step:(t + 1) in
    if open_tks <> [] || events_next <> [] then begin
      let disc = Core.Loads.discrepancy loads in
      List.iter
        (fun tk ->
          if disc > tk.tk_worst then tk.tk_worst <- disc;
          if disc <= tk.tk_pre + eps then tk.tk_recovered <- Some t)
        open_tks;
      if events_next <> [] then apply_episode ~loads ~step:(t + 1) events_next
    end;
    match hook with Some f -> f t loads | None -> ()
  in
  let cur = Array.copy init in
  (match Schedule.events_at plan ~step:1 with
  | [] -> ()
  | evs -> apply_episode ~loads:cur ~step:1 evs);
  let result =
    match mode with
    | Sequential ->
      let balancer =
        match engine_instances with
        | b :: _ -> b
        | [] -> invalid_arg "Faults.Engine.run: no balancer instances"
      in
      Core.Engine.run ~sample_every ~hook:engine_hook ~graph ~balancer
        ~init:cur ~steps ()
    | Sharded { shards; strategy } ->
      let queue = Queue.create () in
      List.iter (fun b -> Queue.add b queue) engine_instances;
      Shard.Shard_engine.run ~sample_every ~hook:engine_hook ~strategy ~shards
        ~graph
        ~make_balancer:(fun () ->
          match Queue.take_opt queue with
          | Some b -> b
          | None -> invalid_arg "Faults.Engine.run: engine requested extra balancers")
        ~init:cur ~steps ()
  in
  let episodes =
    List.rev_map
      (fun tk ->
        {
          step = tk.tk_step;
          events = tk.tk_events;
          pre_discrepancy = tk.tk_pre;
          shock_discrepancy = tk.tk_shock;
          worst_discrepancy = tk.tk_worst;
          recovered_at = tk.tk_recovered;
          injected = tk.tk_injected;
          lost = tk.tk_lost;
          spilled = tk.tk_spilled;
        })
      !trackers
  in
  let watchdog_checks = match wd with Some w -> Watchdog.checks w | None -> 0 in
  if Obs.Probe.enabled () then begin
    List.iter
      (fun e -> Obs.Probe.on_recovery ~engine:"faults" ~steps:(steps_to_recover e))
      episodes;
    Obs.Probe.on_watchdog ~engine:"faults" ~checks:watchdog_checks
  end;
  {
    result;
    eps;
    episodes;
    injected = !injected;
    lost = !lost;
    spilled = !spilled;
    initial_total;
    final_total = Core.Loads.total result.Core.Engine.final_loads;
    watchdog_checks;
  }

let summarize_events events =
  let crashes = ref 0 and outages = ref 0 and shocks = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Schedule.Crash _ -> incr crashes
      | Schedule.Edge_outage _ -> incr outages
      | Schedule.Load_shock _ -> incr shocks)
    events;
  String.concat ", "
    (List.filter_map
       (fun (count, what) ->
         if count = 0 then None else Some (Printf.sprintf "%d %s" count what))
       [ (!crashes, "crashes"); (!outages, "outages"); (!shocks, "shocks") ])

let report_lines r =
  let episode_line e =
    let events_part =
      if List.length e.events <= 4 then
        String.concat "; " (List.map Schedule.event_to_string e.events)
      else summarize_events e.events
    in
    Printf.sprintf "  step %d: %s — pre %d, shock %d, worst %d, %s" e.step
      events_part e.pre_discrepancy e.shock_discrepancy e.worst_discrepancy
      (match steps_to_recover e with
      | Some 0 -> "never left the band"
      | Some k -> Printf.sprintf "recovered in %d steps" k
      | None -> "NOT RECOVERED within the horizon")
  in
  (Printf.sprintf "fault episodes (recovery band: pre-fault discrepancy + %d):" r.eps
  :: List.map episode_line r.episodes)
  @ [
      Printf.sprintf "ledger:       injected %d, lost %d, spilled %d; total %d → %d%s"
        r.injected r.lost r.spilled r.initial_total r.final_total
        (if r.final_total = r.initial_total + r.injected - r.lost then
           " (conserved)"
         else " (CONSERVATION VIOLATED)");
    ]
  @
  if r.watchdog_checks > 0 then
    [ Printf.sprintf "watchdog:     %d checks, all invariants held" r.watchdog_checks ]
  else []
