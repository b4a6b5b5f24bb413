(* Compatibility shim: the open-system loop itself lives in
   lib/workload (Workload.Engine); this module keeps the historical API
   and maps its injection/departure variants onto Workload.Arrival /
   Workload.Lifetime.  The PRNG draw order is identical, so seeded runs
   reproduce the pre-refactor results bit for bit. *)

type injection =
  | Uniform_batch of { rng : Prng.Splitmix.t; per_round : int }
  | Point_batch of { node : int; per_round : int }
  | Max_loaded_batch of { per_round : int }

type departure =
  | No_departure
  | Uniform_work of { rng : Prng.Splitmix.t; per_round : int }

type result = {
  rounds_run : int;
  final_loads : int array;
  series : (int * int) array;
  steady_mean : float;
  steady_p95 : float;
  steady_max : int;
  total_injected : int;
  total_departed : int;
}

let run ?(departure = No_departure) ~graph ~balancer ~injection ~init ~rounds () =
  let n = Graphs.Graph.n graph in
  if Array.length init <> n then invalid_arg "Dynamic.run: init length mismatch";
  if rounds < 0 then invalid_arg "Dynamic.run: negative rounds";
  (match injection with
  | Point_batch { node; _ } when node < 0 || node >= n ->
    invalid_arg "Dynamic.run: injection node out of range"
  | Uniform_batch { per_round; _ } | Point_batch { per_round; _ }
  | Max_loaded_batch { per_round } ->
    if per_round < 0 then invalid_arg "Dynamic.run: negative batch");
  let arrival =
    match injection with
    | Uniform_batch { rng; per_round } -> Workload.Arrival.uniform ~rng ~per_round
    | Point_batch { node; per_round } -> Workload.Arrival.point ~node ~per_round
    | Max_loaded_batch { per_round } -> Workload.Arrival.hotspot ~per_round
  in
  let lifetime =
    match departure with
    | No_departure -> Workload.Lifetime.immortal
    | Uniform_work { rng; per_round } ->
      Workload.Lifetime.uniform_attempts ~rng ~per_round
  in
  let stepper ~round:_ loads =
    {
      Workload.Engine.loads = Engine.step ~graph ~balancer ~step:1 loads;
      injected = 0;
      lost = 0;
    }
  in
  let config =
    Workload.Engine.config ~probe_label:"dynamic" ~arrival ~lifetime ~rounds ()
  in
  let w = Workload.Engine.run config ~init stepper in
  (* Historical steady-window convention: the second half of the series,
     with interpolated percentiles (same semantics as Steady). *)
  let series = w.Workload.Engine.discrepancy_series in
  let tail_start = Array.length series / 2 in
  let tail =
    Array.map
      (fun (_, d) -> float_of_int d)
      (Array.sub series tail_start (Array.length series - tail_start))
  in
  let steady_mean, steady_p95, steady_max =
    if Array.length tail = 0 then (0.0, 0.0, 0)
    else begin
      let s = Workload.Steady.summarize tail in
      (s.Workload.Steady.mean, s.Workload.Steady.p95, int_of_float s.Workload.Steady.max)
    end
  in
  {
    rounds_run = w.Workload.Engine.rounds_run;
    final_loads = w.Workload.Engine.final_loads;
    series;
    steady_mean;
    steady_p95;
    steady_max;
    total_injected = w.Workload.Engine.total_arrivals;
    total_departed = w.Workload.Engine.total_departures;
  }
