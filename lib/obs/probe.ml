type snapshot = {
  at : float;
  engine : string;
  step : int;
  discrepancy : int;
  max_load : int;
  min_load : int;
  total : int;
  c_threshold : int;
  phi : int;
  phi_prime : int;
  tokens_moved : int;
}

(* Per-engine-label handle block, interned once so the per-round path is
   pure field updates. *)
type handles = {
  rounds : Metrics.counter;
  round_seconds : Metrics.histogram;
  tokens_moved : Metrics.counter;
  discrepancy : Metrics.gauge;
  load_max : Metrics.gauge;
  load_min : Metrics.gauge;
  load_total : Metrics.gauge;
  phi_gauge : Metrics.gauge;
  phi_prime_gauge : Metrics.gauge;
  mutable last_round_at : float;
}

(* Open-system (workload) handle block, interned per engine label like
   [handles] so the per-round path is pure field updates. *)
type workload_handles = {
  w_arrivals : Metrics.counter;
  w_departures : Metrics.counter;
  w_inflight : Metrics.gauge;
  w_discrepancy : Metrics.gauge;
  w_round_arrivals : Metrics.histogram;
}

type state = {
  registry : Metrics.t;
  every : int;
  timeline : snapshot Timeline.t;
  t0 : float;
  mutable sink : (snapshot -> unit) option;
  engines : (string, handles) Hashtbl.t;
  mutable last : (string * handles) option;
  workloads : (string, workload_handles) Hashtbl.t;
}

let state : state option ref = ref None

let enable ?(registry = Metrics.default) ?(every = 1) ?(timeline_capacity = 4096) () =
  if every < 1 then invalid_arg "Probe.enable: every must be >= 1";
  Metrics.reset ~registry ();
  state :=
    Some
      {
        registry;
        every;
        timeline = Timeline.create ~capacity:timeline_capacity;
        t0 = Unix.gettimeofday ();
        sink = None;
        engines = Hashtbl.create 4;
        last = None;
        workloads = Hashtbl.create 4;
      }

let disable () = state := None
let enabled () = !state <> None

let set_sink f = match !state with None -> () | Some st -> st.sink <- f

let timeline () =
  match !state with None -> [||] | Some st -> Timeline.to_array st.timeline

let timeline_dropped () =
  match !state with None -> 0 | Some st -> Timeline.dropped st.timeline

let intern_handles st engine =
  match Hashtbl.find_opt st.engines engine with
  | Some h -> h
  | None ->
    let registry = st.registry in
    let labels = [ ("engine", engine) ] in
    let h =
      {
        rounds =
          Metrics.counter ~registry ~labels ~help:"Balancing rounds executed."
            "lb_rounds_total";
        round_seconds =
          Metrics.histogram ~registry ~labels
            ~help:
              "Wall-clock seconds per round (mean over each snapshot window)."
            "lb_round_seconds";
        tokens_moved =
          Metrics.counter ~registry ~labels
            ~help:"Tokens sent over original (non-self-loop) ports."
            "lb_tokens_moved_total";
        discrepancy =
          Metrics.gauge ~registry ~labels
            ~help:"Current max load minus min load." "lb_discrepancy";
        load_max = Metrics.gauge ~registry ~labels ~help:"Current max load." "lb_load_max";
        load_min = Metrics.gauge ~registry ~labels ~help:"Current min load." "lb_load_min";
        load_total =
          Metrics.gauge ~registry ~labels ~help:"Total tokens in the load vector."
            "lb_load_total";
        phi_gauge =
          Metrics.gauge ~registry ~labels
            ~help:"Potential phi(c) at c = round(mean/d+), sampled every N rounds."
            "lb_potential_phi";
        phi_prime_gauge =
          Metrics.gauge ~registry ~labels
            ~help:"Potential phi'(c) with s=0 at the same height, sampled."
            "lb_potential_phi_prime";
        last_round_at = 0.0;
      }
    in
    Hashtbl.add st.engines engine h;
    h

(* Every engine passes a literal label, so on the per-round path the
   last label's handles are found by physical equality: hashing the
   string each round was about a quarter of [on_round]'s cost.  Any
   other string falls back to the table. *)
let handles_of st engine =
  match st.last with
  | Some (e, h) when e == engine -> h
  | _ ->
    let h = intern_handles st engine in
    st.last <- Some (engine, h);
    h

(* φ/φ′ at the canonical height c = round(x̄ / d⁺): φ counts the tokens
   above c·d⁺, φ′ the gaps below it (Lemma 3.5 / 3.7 with s = 0).
   Recomputed from scratch only on snapshot rounds. *)
let potentials ~d_plus loads =
  let n = Array.length loads in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + loads.(i)
  done;
  let c =
    if n = 0 || d_plus <= 0 then 0
    else
      int_of_float
        (Float.round (float_of_int !total /. float_of_int n /. float_of_int d_plus))
  in
  let height = c * d_plus in
  let phi = ref 0 and phi' = ref 0 in
  for i = 0 to n - 1 do
    let x = loads.(i) in
    if x > height then phi := !phi + (x - height)
    else phi' := !phi' + (height - x)
  done;
  (!total, c, !phi, !phi')

let on_round ~engine ~d_plus ~step ~tokens_moved ~discrepancy ~max_load ~min_load
    ~loads =
  match !state with
  | None -> ()
  | Some st ->
    let h = handles_of st engine in
    Metrics.inc h.rounds 1;
    Metrics.inc h.tokens_moved tokens_moved;
    Metrics.set h.discrepancy (float_of_int discrepancy);
    Metrics.set h.load_max (float_of_int max_load);
    Metrics.set h.load_min (float_of_int min_load);
    if step mod st.every = 0 then begin
      (* Wall-clock only on snapshot rounds: one gettimeofday per window,
         recorded as the mean per-round time across it. *)
      let now = Unix.gettimeofday () in
      if h.last_round_at > 0.0 then
        Metrics.observe h.round_seconds
          ((now -. h.last_round_at) /. float_of_int st.every);
      h.last_round_at <- now;
      let total, c, phi, phi' = potentials ~d_plus loads in
      Metrics.set h.load_total (float_of_int total);
      Metrics.set h.phi_gauge (float_of_int phi);
      Metrics.set h.phi_prime_gauge (float_of_int phi');
      let snap =
        {
          at = now -. st.t0;
          engine;
          step;
          discrepancy;
          max_load;
          min_load;
          total;
          c_threshold = c;
          phi;
          phi_prime = phi';
          tokens_moved = Metrics.counter_value h.tokens_moved;
        }
      in
      Timeline.push st.timeline snap;
      match st.sink with Some f -> f snap | None -> ()
    end

let workload_handles_of st engine =
  match Hashtbl.find_opt st.workloads engine with
  | Some h -> h
  | None ->
    let registry = st.registry in
    let labels = [ ("engine", engine) ] in
    let h =
      {
        w_arrivals =
          Metrics.counter ~registry ~labels
            ~help:"Tokens injected by the arrival process."
            "lb_workload_arrivals_total";
        w_departures =
          Metrics.counter ~registry ~labels
            ~help:"Tokens completed and departed." "lb_workload_departures_total";
        w_inflight =
          Metrics.gauge ~registry ~labels
            ~help:"Tokens currently in the system." "lb_workload_inflight";
        w_discrepancy =
          Metrics.gauge ~registry ~labels
            ~help:"Open-system discrepancy after the balancing step."
            "lb_workload_discrepancy";
        w_round_arrivals =
          Metrics.histogram ~registry ~labels
            ~help:"Arrival batch size per round." "lb_workload_round_arrivals";
      }
    in
    Hashtbl.add st.workloads engine h;
    h

let on_workload ~engine ~round:_ ~arrivals ~departures ~inflight ~discrepancy =
  match !state with
  | None -> ()
  | Some st ->
    let h = workload_handles_of st engine in
    Metrics.inc h.w_arrivals arrivals;
    Metrics.inc h.w_departures departures;
    Metrics.set h.w_inflight (float_of_int inflight);
    Metrics.set h.w_discrepancy (float_of_int discrepancy);
    Metrics.observe h.w_round_arrivals (float_of_int arrivals)

let on_net ~engine ~sent ~tokens ~retransmissions ~dropped ~acks ~duplicates
    ~degraded ~stalled =
  match !state with
  | None -> ()
  | Some st ->
    let registry = st.registry in
    let labels = [ ("engine", engine) ] in
    let setc name help v =
      Metrics.set_counter (Metrics.counter ~registry ~labels ~help name) v
    in
    setc "lb_messages_sent_total" "Distinct protocol messages first-sent." sent;
    setc "lb_message_tokens_total" "Tokens carried by protocol messages." tokens;
    setc "lb_retransmissions_total" "Protocol retransmissions." retransmissions;
    setc "lb_messages_dropped_total" "Transmissions lost in the channel." dropped;
    setc "lb_acks_total" "Acknowledgements sent." acks;
    setc "lb_duplicates_total" "Duplicate data packets discarded." duplicates;
    Metrics.set_counter
      (Metrics.counter ~registry
         ~labels:(("mode", "degraded") :: labels)
         ~help:"Node-rounds balanced on stale information." "lb_stale_rounds_total")
      degraded;
    Metrics.set_counter
      (Metrics.counter ~registry
         ~labels:(("mode", "stalled") :: labels)
         ~help:"Node-rounds skipped past the staleness window." "lb_stale_rounds_total")
      stalled

let on_recovery ~engine ~steps =
  match !state with
  | None -> ()
  | Some st ->
    let registry = st.registry in
    let outcome = match steps with Some _ -> "recovered" | None -> "unrecovered" in
    Metrics.inc
      (Metrics.counter ~registry
         ~labels:[ ("engine", engine); ("outcome", outcome) ]
         ~help:"Fault recovery episodes by outcome." "lb_recovery_episodes_total")
      1;
    match steps with
    | Some k ->
      Metrics.observe
        (Metrics.histogram ~registry
           ~labels:[ ("engine", engine) ]
           ~help:"Steps from fault injection back into the recovery band."
           "lb_recovery_steps")
        (float_of_int k)
    | None -> ()

let on_watchdog ~engine ~checks =
  match !state with
  | None -> ()
  | Some st ->
    Metrics.set_counter
      (Metrics.counter ~registry:st.registry
         ~labels:[ ("engine", engine) ]
         ~help:"Invariant watchdog checks performed." "lb_watchdog_checks_total")
      checks

let on_checkpoint ~bytes ~fsync_seconds =
  match !state with
  | None -> ()
  | Some st ->
    let registry = st.registry in
    Metrics.inc
      (Metrics.counter ~registry ~help:"Checkpoints durably written."
         "lb_checkpoints_total")
      1;
    Metrics.inc
      (Metrics.counter ~registry ~help:"Checkpoint bytes written."
         "lb_checkpoint_bytes_total")
      bytes;
    Metrics.observe
      (Metrics.histogram ~registry
         ~help:"Seconds spent in flush+fsync per checkpoint."
         "lb_checkpoint_fsync_seconds")
      fsync_seconds
