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
  if Array.length init <> n then invalid_arg "Faults.Engine.run: init length mismatch";
  Apply.validate ~fn:"Faults.Engine.run" ~n ~d ~steps plan;
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
  (match inner_instances with
  | [] -> invalid_arg "Faults.Engine.run: no balancer instances"
  | _ :: _ -> ());
  let initial_total = Core.Loads.total init in
  let wd =
    if watchdog then Some (Apply.watchdog ~expected_total:initial_total inner_instances)
    else None
  in
  let injected = ref 0 and lost = ref 0 and spilled = ref 0 in
  let trackers = ref [] in
  let outage ~edge ~until =
    if outage_until.(edge) < until then outage_until.(edge) <- until
  in
  let apply_episode ~loads ~step events =
    Obs.Prof.time "faults.episode" @@ fun () ->
    let pre = Core.Loads.discrepancy loads in
    let l = Apply.events ~graph ~balancers:inner_instances ~outage ~loads events in
    injected := !injected + l.Apply.injected;
    lost := !lost + l.Apply.lost;
    spilled := !spilled + l.Apply.spilled;
    (match wd with
    | Some w -> Watchdog.adjust_expected w (l.Apply.injected - l.Apply.lost)
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
        tk_injected = l.Apply.injected;
        tk_lost = l.Apply.lost;
        tk_spilled = l.Apply.spilled;
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
