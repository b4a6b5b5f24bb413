type step_result = { loads : int array; injected : int; lost : int }
type stepper = round:int -> int array -> step_result
type warmup = Auto | Fixed_warmup of int

type config = {
  arrival : Arrival.t;
  lifetime : Lifetime.t;
  rounds : int;
  warmup : warmup;
  probe_label : string;
}

let config ?(warmup = Auto) ?(probe_label = "workload") ~arrival ~lifetime ~rounds
    () =
  if rounds < 0 then invalid_arg "Workload.Engine.config: negative rounds";
  (match warmup with
  | Fixed_warmup k when k < 0 ->
    invalid_arg "Workload.Engine.config: negative warmup"
  | Auto | Fixed_warmup _ -> ());
  { arrival; lifetime; rounds; warmup; probe_label }

type result = {
  rounds_run : int;
  final_loads : int array;
  discrepancy_series : (int * int) array;
  inflight_series : (int * int) array;
  overload_series : (int * float) array;
  total_arrivals : int;
  total_departures : int;
  fault_injected : int;
  fault_lost : int;
  conserved : bool;
  warmup_end : int;
  steady_discrepancy : Steady.summary;
  steady_inflight : Steady.summary;
  steady_overload : Steady.summary;
  throughput : float;
  diverged : bool;
}

(* Steady window = series after the warm-up cutoff.  Fixed cutoffs are
   clamped to the series length; Auto uses MSER on the discrepancy
   trace (the quantity E17's band is about). *)
let cut xs d = Array.sub xs d (Array.length xs - d)

let run config ~init stepper =
  let n = Array.length init in
  (match Arrival.validate config.arrival ~n with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Workload.Engine.run: " ^ msg));
  let loads = ref (Array.copy init) in
  let arrivals = ref 0 and departures = ref 0 in
  let fault_injected = ref 0 and fault_lost = ref 0 in
  let disc_series = Array.make config.rounds (0, 0) in
  let inflight_series = Array.make config.rounds (0, 0) in
  let overload_series = Array.make config.rounds (0, 0.0) in
  for round = 1 to config.rounds do
    let a = Arrival.inject config.arrival ~round ~loads:!loads in
    arrivals := !arrivals + a;
    let d = Lifetime.depart config.lifetime ~round ~arrivals:a ~loads:!loads in
    departures := !departures + d;
    let step = stepper ~round !loads in
    loads := step.loads;
    fault_injected := !fault_injected + step.injected;
    fault_lost := !fault_lost + step.lost;
    (* One fused scan for the extremes and the total. *)
    let cur = !loads in
    let mn = ref cur.(0) and mx = ref cur.(0) and inflight = ref 0 in
    for u = 0 to n - 1 do
      let x = cur.(u) in
      if x < !mn then mn := x;
      if x > !mx then mx := x;
      inflight := !inflight + x
    done;
    let disc = !mx - !mn and inflight = !inflight in
    disc_series.(round - 1) <- (round, disc);
    inflight_series.(round - 1) <- (round, inflight);
    (* p99 node load over mean node load — the per-round overload
       factor.  1.0 means perfectly flat; large values mean a heavy tail
       of hot nodes.  0.0 by convention when the system is empty. *)
    overload_series.(round - 1) <-
      ( round,
        if inflight = 0 then 0.0
        else
          Steady.int_percentile ~min:!mn ~max:!mx cur 99.0
          /. (float_of_int inflight /. float_of_int n) );
    if Obs.Probe.enabled () then
      Obs.Probe.on_workload ~engine:config.probe_label ~round ~arrivals:a
        ~departures:d ~inflight ~discrepancy:disc;
    Obs.Export.poll ()
  done;
  let disc_f = Array.map (fun (_, d) -> float_of_int d) disc_series in
  let inflight_f = Array.map (fun (_, t) -> float_of_int t) inflight_series in
  let overload_f = Array.map snd overload_series in
  let warmup_end =
    match config.warmup with
    | Auto -> Steady.warmup_cutoff disc_f
    | Fixed_warmup k -> min k config.rounds
  in
  let steady_of xs =
    let tail = cut xs warmup_end in
    if Array.length tail = 0 then Steady.empty_summary else Steady.summarize tail
  in
  let diverged =
    (* The backlog ramps during its own warm-up even below capacity, so
       the divergence test gets the backlog's MSER cutoff, not the
       discrepancy's. *)
    let tail = cut inflight_f (Steady.warmup_cutoff inflight_f) in
    Steady.diverging tail
  in
  let conserved =
    Lifetime.total !loads
    = Lifetime.total init + !arrivals + !fault_injected - !departures - !fault_lost
  in
  {
    rounds_run = config.rounds;
    final_loads = !loads;
    discrepancy_series = disc_series;
    inflight_series;
    overload_series;
    total_arrivals = !arrivals;
    total_departures = !departures;
    fault_injected = !fault_injected;
    fault_lost = !fault_lost;
    conserved;
    warmup_end;
    steady_discrepancy = steady_of disc_f;
    steady_inflight = steady_of inflight_f;
    steady_overload = steady_of overload_f;
    throughput = float_of_int !departures /. float_of_int (max 1 config.rounds);
    diverged;
  }
