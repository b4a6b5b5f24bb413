type config = {
  channel : Channel.config;
  protocol : Protocol.config;
  staleness : int;
  degrade : bool;
  seed : int;
  max_drain_rounds : int;
}

let default_config =
  {
    channel = Channel.reliable;
    protocol = Protocol.default_config;
    staleness = 0;
    degrade = true;
    seed = 1;
    max_drain_rounds = 100_000;
  }

type report = {
  result : Core.Engine.result;
  channel_stats : Channel.stats;
  protocol_stats : Protocol.stats;
  degraded_rounds : int;
  stalled_rounds : int;
  drain_rounds : int;
  drained : bool;
  injected : int;
  lost : int;
  spilled : int;
  initial_total : int;
  final_total : int;
  watchdog_checks : int;
}

let conserved r =
  r.drained && r.final_total = r.initial_total + r.injected - r.lost

let run ?(config = default_config) ?(plan = []) ?(watchdog = true)
    ?(sample_every = 1) ?hook ?on_message ~graph ~balancer ~init ~steps () =
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  if balancer.Core.Balancer.degree <> d then
    invalid_arg
      (Printf.sprintf
         "Net.Async_engine.run: balancer %s built for degree %d, graph has %d"
         balancer.Core.Balancer.name balancer.Core.Balancer.degree d);
  if Array.length init <> n then
    invalid_arg "Net.Async_engine.run: init length mismatch";
  if steps < 0 then invalid_arg "Net.Async_engine.run: negative step count";
  if sample_every <= 0 then
    invalid_arg "Net.Async_engine.run: sample_every must be positive";
  if config.staleness < 0 then
    invalid_arg "Net.Async_engine.run: negative staleness bound";
  if config.max_drain_rounds < 0 then
    invalid_arg "Net.Async_engine.run: negative drain bound";
  Faults.Apply.validate ~fn:"Net.Async_engine.run" ~n ~d ~steps plan;
  let dp = Core.Balancer.d_plus balancer in
  let emit = match on_message with Some f -> f | None -> fun _ -> () in
  let on_drop ~now ~edge payload =
    match payload with
    | Channel.Data { seq; tokens } ->
      emit
        { Trace.m_step = now; m_kind = Trace.Msg_drop; m_edge = edge;
          m_seq = seq; m_tokens = tokens }
    | Channel.Ack _ -> ()
  in
  let channel =
    Channel.create ~on_drop ~seed:config.seed ~config:config.channel ~n ~degree:d
      ()
  in
  let proto =
    Protocol.create ~on_message:emit ~graph ~channel ~config:config.protocol ()
  in
  let initial_total = Core.Loads.total init in
  let wd =
    if watchdog then
      Some
        (Faults.Apply.watchdog
           ~extra_mass:(fun () -> Protocol.in_flight_tokens proto)
           ~expected_total:initial_total [ balancer ])
    else None
  in
  let injected = ref 0 and lost = ref 0 and spilled = ref 0 in
  let cur = Array.copy init in
  let apply_events events =
    let l =
      Faults.Apply.events ~graph ~balancers:[ balancer ]
        ~outage:(Channel.set_outage channel) ~loads:cur events
    in
    injected := !injected + l.Faults.Apply.injected;
    lost := !lost + l.Faults.Apply.lost;
    spilled := !spilled + l.Faults.Apply.spilled;
    match wd with
    | Some w ->
      Faults.Watchdog.adjust_expected w (l.Faults.Apply.injected - l.Faults.Apply.lost)
    | None -> ()
  in
  let ports = Array.make dp 0 in
  let degraded = ref 0 and stalled = ref 0 in
  (* Observation only, same bit-identical guarantee as Core.Engine: the
     probes never touch the channel's randomness or the protocol state. *)
  let probing = Obs.Probe.enabled () in
  let moved = ref 0 in
  let mirror_net_stats () =
    let c = Channel.stats channel and p = Protocol.stats proto in
    Obs.Probe.on_net ~engine:"net" ~sent:p.Protocol.messages_sent
      ~tokens:p.Protocol.tokens_sent ~retransmissions:p.Protocol.retransmissions
      ~dropped:(c.Channel.dropped + c.Channel.outage_dropped)
      ~acks:p.Protocol.acks_sent ~duplicates:p.Protocol.duplicates_discarded
      ~degraded:!degraded ~stalled:!stalled
  in
  let series = ref [] in
  let sc = { Core.Engine.disc = 0; min = 0; total = 0 } in
  Core.Engine.scan_into sc cur;
  let min_seen = ref sc.min in
  series := (0, sc.disc) :: !series;
  let deliver ~node ~tokens = cur.(node) <- cur.(node) + tokens in
  for t = 1 to steps do
    (match Faults.Schedule.events_at plan ~step:t with
    | [] -> ()
    | evs -> apply_events evs);
    let sp = Obs.Prof.start "net.assign" in
    moved := 0;
    for u = 0 to n - 1 do
      let stale =
        config.staleness >= 0
        &&
        match Protocol.oldest_pending proto ~node:u with
        | Some r -> r <= t - 1 - config.staleness
        | None -> false
      in
      if stale && not config.degrade then incr stalled
      else begin
        if stale then incr degraded;
        let x = cur.(u) in
        let kept =
          Core.Engine.node_step ~balancer ~tracker:None ~step:t ~node:u ~load:x ports
        in
        if probing then moved := !moved + (x - kept);
        cur.(u) <- kept;
        for k = 0 to d - 1 do
          if ports.(k) <> 0 then
            Protocol.send proto ~now:t ~node:u ~port:k ~tokens:ports.(k)
        done
      end
    done;
    Obs.Prof.stop sp;
    let sp = Obs.Prof.start "net.tick" in
    Protocol.tick proto ~now:t ~deliver;
    Obs.Prof.stop sp;
    (match wd with
    | Some w -> Faults.Watchdog.check w ~step:t ~loads:cur
    | None -> ());
    Core.Engine.scan_into sc cur;
    let disc = sc.disc and mn = sc.min in
    if probing then begin
      Obs.Probe.on_round ~engine:"net" ~d_plus:dp ~step:t ~tokens_moved:!moved
        ~discrepancy:disc ~max_load:(mn + disc) ~min_load:mn ~loads:cur;
      mirror_net_stats ()
    end;
    if mn < !min_seen then min_seen := mn;
    if t mod sample_every = 0 || t = steps then series := (t, disc) :: !series;
    Obs.Export.poll ();
    match hook with Some f -> f t cur | None -> ()
  done;
  (* Drain: protocol-only rounds until every in-flight token has landed
     and every message is acknowledged, so the ledger closes exactly. *)
  let drain_rounds = ref 0 in
  let sp = Obs.Prof.start "net.drain" in
  while
    (not (Protocol.quiesced proto)) && !drain_rounds < config.max_drain_rounds
  do
    incr drain_rounds;
    let now = steps + !drain_rounds in
    Protocol.tick proto ~now ~deliver;
    match wd with
    | Some w -> Faults.Watchdog.check w ~step:now ~loads:cur
    | None -> ()
  done;
  Obs.Prof.stop sp;
  let drained = Protocol.quiesced proto in
  if probing then begin
    mirror_net_stats ();
    Obs.Probe.on_watchdog ~engine:"net"
      ~checks:(match wd with Some w -> Faults.Watchdog.checks w | None -> 0)
  end;
  {
    result =
      {
        Core.Engine.steps_run = steps;
        final_loads = cur;
        series = Array.of_list (List.rev !series);
        min_load_seen = !min_seen;
        reached_target = None;
        fairness = None;
      };
    channel_stats = Channel.stats channel;
    protocol_stats = Protocol.stats proto;
    degraded_rounds = !degraded;
    stalled_rounds = !stalled;
    drain_rounds = !drain_rounds;
    drained;
    injected = !injected;
    lost = !lost;
    spilled = !spilled;
    initial_total;
    final_total = Core.Loads.total cur;
    watchdog_checks =
      (match wd with Some w -> Faults.Watchdog.checks w | None -> 0);
  }

let report_lines r =
  let c = r.channel_stats and p = r.protocol_stats in
  let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  [
    Printf.sprintf
      "transport:    %d transmissions: %d dropped (%.1f%%), %d outage-dropped, \
       %d duplicated, %d delayed"
      c.Channel.transmissions c.Channel.dropped
      (pct c.Channel.dropped c.Channel.transmissions)
      c.Channel.outage_dropped c.Channel.duplicated c.Channel.delayed;
    Printf.sprintf
      "protocol:     %d messages (%d tokens), %d retransmissions (%.1f%% \
       overhead), %d acks, %d dup-discarded, %d out-of-order, max in-flight %d"
      p.Protocol.messages_sent p.Protocol.tokens_sent p.Protocol.retransmissions
      (pct p.Protocol.retransmissions p.Protocol.messages_sent)
      p.Protocol.acks_sent p.Protocol.duplicates_discarded
      p.Protocol.out_of_order p.Protocol.max_in_flight_tokens;
    Printf.sprintf "staleness:    %d degraded node-rounds, %d stalled node-rounds"
      r.degraded_rounds r.stalled_rounds;
    Printf.sprintf "drain:        %d extra rounds%s" r.drain_rounds
      (if r.drained then "" else " — DID NOT QUIESCE within the bound");
    Printf.sprintf "net ledger:   injected %d, lost %d, spilled %d; total %d → %d%s"
      r.injected r.lost r.spilled r.initial_total r.final_total
      (if conserved r then " (conserved)" else " (CONSERVATION VIOLATED)");
  ]
  @
  if r.watchdog_checks > 0 then
    [ Printf.sprintf "watchdog:     %d checks, all invariants held" r.watchdog_checks ]
  else []
