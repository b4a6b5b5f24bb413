(* The benchmark harness (deliverable (d)).

   One section per table/figure-equivalent of the paper — E1 (Table 1)
   through E10, see DESIGN.md §4 — plus Bechamel microbenchmarks of the
   engine's per-step throughput for each algorithm family.

   Usage:
     dune exec bench/main.exe                 # full suite + microbenchmarks
     dune exec bench/main.exe -- --quick      # smoke-test sizes
     dune exec bench/main.exe -- e3 e7        # selected experiments
     dune exec bench/main.exe -- micro        # microbenchmarks only
     dune exec bench/main.exe -- shard        # sharded-engine strong scaling
     dune exec bench/main.exe -- faults       # fault-recovery sweep (BENCH_faults.json)
     dune exec bench/main.exe -- net          # unreliable-network sweep (BENCH_net.json)
     dune exec bench/main.exe -- obs          # probes-on overhead (BENCH_obs.json)
     dune exec bench/main.exe -- workload     # open-system stability sweep (BENCH_workload.json)
     dune exec bench/main.exe -- dist         # forked-cluster throughput + recovery (BENCH_dist.json)
     dune exec bench/main.exe -- --csv out.csv e1
*)

let microbench_tests () =
  let open Bechamel in
  let mk_engine_test ~name ~graph ~balancer_of ~init ~steps =
    Test.make ~name
      (Staged.stage (fun () ->
           let balancer = balancer_of () in
           ignore (Core.Engine.run ~graph ~balancer ~init ~steps ())))
  in
  let n = 1024 in
  let d = 8 in
  let g = Graphs.Gen.random_regular (Prng.Splitmix.create 1) ~n ~d in
  let init = Core.Loads.point_mass ~n ~total:(16 * n) in
  let steps = 8 in
  [
    mk_engine_test ~name:"rotor-router/1024n-8steps" ~graph:g
      ~balancer_of:(fun () -> Core.Rotor_router.make g ~self_loops:d)
      ~init ~steps;
    mk_engine_test ~name:"rotor-router*/1024n-8steps" ~graph:g
      ~balancer_of:(fun () -> Core.Rotor_router_star.make g)
      ~init ~steps;
    mk_engine_test ~name:"send-floor/1024n-8steps" ~graph:g
      ~balancer_of:(fun () -> Core.Send_floor.make g ~self_loops:d)
      ~init ~steps;
    mk_engine_test ~name:"send-round/1024n-8steps" ~graph:g
      ~balancer_of:(fun () -> Core.Send_round.make g ~self_loops:(2 * d))
      ~init ~steps;
    mk_engine_test ~name:"mimic/1024n-8steps" ~graph:g
      ~balancer_of:(fun () -> Baselines.Mimic.make g ~self_loops:d ~init)
      ~init ~steps;
    mk_engine_test ~name:"random-extra/1024n-8steps" ~graph:g
      ~balancer_of:(fun () ->
        Baselines.Random_extra.make (Prng.Splitmix.create 2) g ~self_loops:d)
      ~init ~steps;
    Test.make ~name:"continuous/1024n-8steps"
      (Staged.stage
         (let finit = Array.map float_of_int init in
          fun () ->
            ignore
              (Baselines.Continuous.run ~graph:g ~self_loops:d ~init:finit ~steps ())));
    Test.make ~name:"spectral-gap/torus16x16"
      (Staged.stage
         (let gt = Graphs.Gen.torus [ 16; 16 ] in
          fun () -> ignore (Graphs.Spectral.eigenvalue_gap gt ~self_loops:4)));
    Test.make ~name:"dimexch-circuit/1024n-8steps"
      (Staged.stage (fun () ->
           ignore
             (Baselines.Dimexch.run Baselines.Dimexch.Balancing_circuit g ~init ~steps)));
    Test.make ~name:"irregular-rotor/wheel256-8steps"
      (Staged.stage
         (let wg = Irregular.Igraph.wheel 256 in
          let cap = 2 * Irregular.Igraph.max_degree wg in
          let winit = Array.make 256 16 in
          fun () ->
            let balancer = Irregular.Ibalancer.rotor_router wg ~capacity:cap in
            ignore (Irregular.Iengine.run ~graph:wg ~balancer ~init:winit ~steps ())));
    Test.make ~name:"weighted-rotor/256n-8steps"
      (Staged.stage
         (let wg = Graphs.Gen.torus [ 16; 16 ] in
          let winit =
            Hetero.Wtokens.uniform_random (Prng.Splitmix.create 7) ~n:256 ~tokens:2048
              ~max_weight:4
          in
          fun () ->
            ignore
              (Hetero.Wtokens.run Hetero.Wtokens.Oblivious ~graph:wg ~self_loops:4
                 ~init:winit ~steps)));
    Test.make ~name:"rotor-walk-cover/torus16x16"
      (Staged.stage
         (let wg = Graphs.Gen.torus [ 16; 16 ] in
          fun () ->
            ignore (Rotorwalk.Walk.cover_time (Rotorwalk.Walk.create wg) ~start:0)));
  ]

(* Strong-scaling section: the sharded engine at 1/2/4/8 domains on
   random 8-regular graphs of n ∈ {2¹⁴, 2¹⁷, 2²⁰}, reported as
   steps/sec and written to BENCH_shard.json.  The step budget per cell
   is inversely proportional to n so every cell does comparable work. *)
let run_shard_scaling ?(json_path = "BENCH_shard.json") ~quick () =
  let sizes = if quick then [ 1 lsl 10; 1 lsl 12 ] else [ 1 lsl 14; 1 lsl 17; 1 lsl 20 ] in
  let domain_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let d = 8 in
  Printf.printf
    "\n=== Strong scaling: sharded engine (rotor-router, d=%d, host cores=%d) ===\n"
    d
    (Domain.recommended_domain_count ());
  Printf.printf "%-10s %-8s %-8s %12s %14s %10s\n" "n" "domains" "steps" "wall (s)"
    "steps/sec" "speedup";
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = Graphs.Gen.random_regular (Prng.Splitmix.create 11) ~n ~d in
      let init = Core.Loads.point_mass ~n ~total:(16 * n) in
      let steps = max 4 ((1 lsl 22) / n) in
      let base_rate = ref nan in
      List.iter
        (fun domains ->
          let t0 = Unix.gettimeofday () in
          let result =
            Shard.Shard_engine.run ~strategy:Shard.Partition.Bfs_blocks
              ~shards:domains ~graph:g
              ~make_balancer:(fun () -> Core.Rotor_router.make g ~self_loops:d)
              ~init ~steps ()
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          assert (result.Core.Engine.steps_run = steps);
          let rate = float_of_int steps /. elapsed in
          if domains = 1 then base_rate := rate;
          let speedup = rate /. !base_rate in
          Printf.printf "%-10d %-8d %-8d %12.3f %14.1f %9.2fx\n" n domains steps
            elapsed rate speedup;
          rows := (n, domains, steps, elapsed, rate, speedup) :: !rows)
        domain_counts)
    sizes;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"shard-strong-scaling\",\n  \"algo\": \"rotor-router\",\n\
    \  \"degree\": %d,\n  \"partition\": \"bfs-blocks\",\n  \"host_cores\": %d,\n\
    \  \"note\": \"speedup_vs_1 is bounded above by host_cores\",\n\
    \  \"results\": [\n"
    d
    (Domain.recommended_domain_count ());
  let rows = List.rev !rows in
  List.iteri
    (fun i (n, domains, steps, elapsed, rate, speedup) ->
      Printf.fprintf oc
        "    {\"n\": %d, \"domains\": %d, \"steps\": %d, \"seconds\": %.4f, \
         \"steps_per_sec\": %.2f, \"speedup_vs_1\": %.3f}%s\n"
        n domains steps elapsed rate speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "strong-scaling results written to %s\n" json_path

(* Fault-recovery section: the Faultsweep scenarios (crash with state
   wiped/kept, load shock, edge outage) for the stateful rotor-router vs
   the stateless send-floor on ring/torus/hypercube, written to
   BENCH_faults.json.  The recovery tolerance is the Theorem 2.3 band. *)
let run_fault_recovery ?(json_path = "BENCH_faults.json") ~quick () =
  Printf.printf "\n=== Fault recovery: rotor-router vs send-floor (Thm 2.3 band) ===\n";
  let t0 = Unix.gettimeofday () in
  let points = Harness.Faultsweep.sweep ~quick () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Harness.Faultsweep.print_table points;
  (* Per-algorithm mean recovery, counting only points that actually had
     a fault episode and recovered — a sweep where nothing recovered (or
     nothing faulted) reports n/a instead of dividing by zero. *)
  let algos =
    List.sort_uniq compare
      (List.map (fun (p : Harness.Faultsweep.point) -> p.Harness.Faultsweep.algo) points)
  in
  List.iter
    (fun algo ->
      let recovered =
        List.filter_map
          (fun (p : Harness.Faultsweep.point) ->
            if p.Harness.Faultsweep.algo = algo && p.Harness.Faultsweep.episodes > 0
            then p.Harness.Faultsweep.recovery
            else None)
          points
      in
      match recovered with
      | [] -> Printf.printf "mean recovery (%s): n/a (no recovered episodes)\n" algo
      | ks ->
        Printf.printf "mean recovery (%s): %.1f steps over %d points\n" algo
          (float_of_int (List.fold_left ( + ) 0 ks) /. float_of_int (List.length ks))
          (List.length ks))
    algos;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"fault-recovery\",\n  \"eps\": \"theorem-2.3 band \
     d*min(sqrt(log n/mu), sqrt n)\",\n  \"quick\": %b,\n  \"seconds\": %.3f,\n\
    \  \"results\": [\n"
    quick elapsed;
  let last = List.length points - 1 in
  List.iteri
    (fun i (p : Harness.Faultsweep.point) ->
      Printf.fprintf oc
        "    {\"graph\": %S, \"algo\": %S, \"fault\": %S, \"eps\": %d, \
         \"pre\": %d, \"shock\": %d, \"worst\": %d, \"episodes\": %d, \
         \"recovery_steps\": %s, \"conserved\": %b}%s\n"
        p.Harness.Faultsweep.graph p.Harness.Faultsweep.algo
        p.Harness.Faultsweep.scenario p.Harness.Faultsweep.eps
        p.Harness.Faultsweep.pre p.Harness.Faultsweep.shock
        p.Harness.Faultsweep.worst p.Harness.Faultsweep.episodes
        (match p.Harness.Faultsweep.recovery with
        | Some k -> string_of_int k
        | None -> "null")
        p.Harness.Faultsweep.conserved
        (if i = last then "" else ","))
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "fault-recovery results written to %s\n" json_path

(* Unreliable-network section: the Netsweep degradation grid (drop ×
   delay × backoff for rotor-router / rotor-router* / quasirandom on
   torus, hypercube and a random-regular expander), written to
   BENCH_net.json.  Inflation is relative to the Theorem 2.3 band on a
   reliable network; retx_overhead is retransmissions per first-copy
   message — the traffic cost of the exactly-once guarantee. *)
let run_net_degradation ?(json_path = "BENCH_net.json") ~quick () =
  Printf.printf
    "\n=== Unreliable network: discrepancy inflation vs Thm 2.3 band ===\n";
  let t0 = Unix.gettimeofday () in
  let points = Harness.Netsweep.sweep ~quick () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Harness.Netsweep.print_table points;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"net-degradation\",\n  \"band\": \"theorem-2.3 band \
     d*min(sqrt(log n/mu), sqrt n)\",\n  \"staleness\": 2,\n  \"quick\": %b,\n\
    \  \"seconds\": %.3f,\n  \"results\": [\n"
    quick elapsed;
  let last = List.length points - 1 in
  List.iteri
    (fun i (p : Harness.Netsweep.point) ->
      Printf.fprintf oc
        "    {\"graph\": %S, \"algo\": %S, \"drop\": %g, \"delay\": %d, \
         \"backoff\": %S, \"band\": %d, \"final\": %d, \"inflation\": %.4f, \
         \"retx_overhead\": %.4f, \"degraded_rounds\": %d, \"drain_rounds\": %d, \
         \"drained\": %b, \"conserved\": %b}%s\n"
        p.Harness.Netsweep.graph p.Harness.Netsweep.algo p.Harness.Netsweep.drop
        p.Harness.Netsweep.delay p.Harness.Netsweep.backoff
        p.Harness.Netsweep.band p.Harness.Netsweep.final
        p.Harness.Netsweep.inflation p.Harness.Netsweep.retx_overhead
        p.Harness.Netsweep.degraded_rounds p.Harness.Netsweep.drain_rounds
        p.Harness.Netsweep.drained p.Harness.Netsweep.conserved
        (if i = last then "" else ","))
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "net-degradation results written to %s\n" json_path

(* Observability-overhead section: rotor-router on torus / hypercube /
   random-regular expander, probes off vs on (snapshot cadence 16):
   the median on/off ratio over paired runs, plus the fastest run each
   way, written to BENCH_obs.json.  Probes
   must be free in both senses: the final load vectors are asserted
   bit-identical, and the wall-clock overhead must stay under 5%. *)
let obs_budget_pct = 5.0

let run_obs_overhead ?(json_path = "BENCH_obs.json") ~quick () =
  let cells =
    if quick then
      [
        ("torus-16x16", Graphs.Gen.torus [ 16; 16 ]);
        ("hypercube-8", Graphs.Gen.hypercube 8);
        ( "random-8reg-1024",
          Graphs.Gen.random_regular (Prng.Splitmix.create 21) ~n:1024 ~d:8 );
      ]
    else
      [
        ("torus-64x64", Graphs.Gen.torus [ 64; 64 ]);
        ("hypercube-12", Graphs.Gen.hypercube 12);
        ( "random-8reg-4096",
          Graphs.Gen.random_regular (Prng.Splitmix.create 21) ~n:4096 ~d:8 );
      ]
  in
  Printf.printf
    "\n=== Observability overhead: probes off vs on (rotor-router, every=16) ===\n";
  Printf.printf "%-20s %-8s %-8s %10s %10s %10s\n" "graph" "n" "steps" "off (s)"
    "on (s)" "overhead";
  let rows = ref [] in
  List.iter
    (fun (label, g) ->
      let n = Graphs.Graph.n g in
      let d = Graphs.Graph.degree g in
      let init = Core.Loads.point_mass ~n ~total:(16 * n) in
      let steps = max 64 ((if quick then 1 lsl 18 else 1 lsl 20) / n) in
      let once () =
        let balancer = Core.Rotor_router.make g ~self_loops:d in
        let t0 = Unix.gettimeofday () in
        let r = Core.Engine.run ~graph:g ~balancer ~init ~steps () in
        (Unix.gettimeofday () -. t0, r.Core.Engine.final_loads)
      in
      (* Paired measurement: each rep times an off run and an on run
         back to back, alternating which goes first, and the overhead
         is the median of the per-rep on/off ratios.  Many short pairs
         beat a few long ones on a shared host, which slows loops for
         seconds at a time: a pair of ≈5 ms runs (quick mode) sits
         inside one such spell, so both sides see it.  On a 2-vCPU
         host 121 such pairs kept the torus cell's median, a true
         overhead of ≈3.3%, within 3.3–4.1% over six runs, where 7
         pairs of ≈50 ms crossed 5% in about half the runs and 15 pairs
         of ≈250 ms spread from −6% to +11%. *)
      let reps = 121 in
      let ratios = ref [] in
      let off_s = ref infinity and on_s = ref infinity in
      let off_loads = ref [||] and on_loads = ref [||] in
      let timed_off () =
        Obs.Probe.disable ();
        once ()
      in
      let timed_on () =
        Obs.Probe.enable ~every:16 ();
        once ()
      in
      for rep = 0 to reps do
        let (t_off, l_off), (t_on, l_on) =
          if rep mod 2 = 0 then
            let off = timed_off () in
            (off, timed_on ())
          else
            let on = timed_on () in
            (timed_off (), on)
        in
        if rep > 0 then begin
          (* rep 0 is warmup: first touches of the graph and balancer
             arrays go through cold caches. *)
          ratios := (t_on /. t_off) :: !ratios;
          if t_off < !off_s then off_s := t_off;
          if t_on < !on_s then on_s := t_on;
          off_loads := l_off;
          on_loads := l_on
        end
      done;
      Obs.Probe.disable ();
      let median =
        let a = Array.of_list !ratios in
        Array.sort Float.compare a;
        a.(Array.length a / 2)
      in
      let off_s = !off_s and on_s = !on_s in
      let off_loads = !off_loads and on_loads = !on_loads in
      if off_loads <> on_loads then
        failwith
          (Printf.sprintf
             "obs-overhead: %s: probes changed the result (loads differ)" label);
      let overhead = (median -. 1.0) *. 100.0 in
      Printf.printf "%-20s %-8d %-8d %10.4f %10.4f %9.2f%%\n" label n steps off_s
        on_s overhead;
      rows := (label, n, d, steps, off_s, on_s, overhead) :: !rows)
    cells;
  let rows = List.rev !rows in
  let max_overhead =
    List.fold_left (fun a (_, _, _, _, _, _, o) -> Float.max a o) neg_infinity rows
  in
  let within = max_overhead < obs_budget_pct in
  Printf.printf "max overhead: %.2f%% (budget %.0f%%) — %s\n" max_overhead
    obs_budget_pct
    (if within then "within budget" else "OVER BUDGET");
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"obs-overhead\",\n  \"algo\": \"rotor-router\",\n\
    \  \"every\": 16,\n  \"budget_pct\": %.1f,\n  \"quick\": %b,\n\
    \  \"results\": [\n"
    obs_budget_pct quick;
  let last = List.length rows - 1 in
  List.iteri
    (fun i (label, n, d, steps, off_s, on_s, overhead) ->
      Printf.fprintf oc
        "    {\"graph\": %S, \"n\": %d, \"d\": %d, \"steps\": %d, \
         \"off_seconds\": %.4f, \"on_seconds\": %.4f, \"overhead_pct\": %.2f, \
         \"bit_identical\": true}%s\n"
        label n d steps off_s on_s overhead
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"max_overhead_pct\": %.2f,\n  \"within_budget\": %b\n}\n"
    max_overhead within;
  close_out oc;
  Printf.printf "obs-overhead results written to %s\n" json_path;
  if not within then exit 1

(* Open-system workload section: the Loadsweep λ-grid (Poisson arrivals
   vs per-node service rate µ) for rotor-router and send-round on torus
   and hypercube, written to BENCH_workload.json together with the three
   stability-shape verdicts E17 asserts: bounded-and-conserved below
   capacity, λ-monotone steady band, divergence detected above. *)
let run_workload_sweep ?(json_path = "BENCH_workload.json") ~quick () =
  Printf.printf
    "\n=== Open-system workload: steady-state band vs arrival rate ===\n";
  let t0 = Unix.gettimeofday () in
  let points = Harness.Loadsweep.sweep ~quick () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Harness.Loadsweep.print_table points;
  let stable = Harness.Loadsweep.stable_below_capacity points in
  let diverged = Harness.Loadsweep.divergence_detected points in
  let monotone = Harness.Loadsweep.monotone_in_lambda points in
  Printf.printf
    "below capacity bounded: %b; lambda-monotone: %b; above capacity diverged: %b\n"
    stable monotone diverged;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"workload-stability\",\n  \"model\": \"poisson(lambda) \
     arrivals vs per-node service rate mu\",\n  \"quick\": %b,\n\
    \  \"seconds\": %.3f,\n  \"results\": [\n"
    quick elapsed;
  let last = List.length points - 1 in
  List.iteri
    (fun i (p : Harness.Loadsweep.point) ->
      Printf.fprintf oc
        "    {\"graph\": %S, \"algo\": %S, \"ratio\": %.2f, \"lambda\": %.1f, \
         \"mu\": %d, \"band\": %d, \"steady_mean\": %.2f, \"steady_p95\": %.2f, \
         \"steady_p99\": %.2f, \"inflight_mean\": %.1f, \"overload_p99\": %.2f, \
         \"throughput\": %.1f, \"diverged\": %b, \"conserved\": %b}%s\n"
        p.Harness.Loadsweep.graph p.Harness.Loadsweep.algo
        p.Harness.Loadsweep.ratio p.Harness.Loadsweep.lambda
        p.Harness.Loadsweep.mu p.Harness.Loadsweep.band
        p.Harness.Loadsweep.steady_mean p.Harness.Loadsweep.steady_p95
        p.Harness.Loadsweep.steady_p99 p.Harness.Loadsweep.inflight_mean
        p.Harness.Loadsweep.overload_p99 p.Harness.Loadsweep.throughput
        p.Harness.Loadsweep.diverged p.Harness.Loadsweep.conserved
        (if i = last then "" else ","))
    points;
  Printf.fprintf oc
    "  ],\n  \"below_capacity_bounded\": %b,\n  \"lambda_monotone\": %b,\n\
    \  \"above_capacity_diverged\": %b\n}\n"
    stable monotone diverged;
  close_out oc;
  Printf.printf "workload-stability results written to %s\n" json_path;
  if not (stable && diverged && monotone) then exit 1

(* Scenario-language section: generator + checker + compiler + double
   execution (the replay-determinism probe) over a seeded stream of
   well-typed scenarios, written to BENCH_scenario.json.  This is the
   same machinery as `lb_scn fuzz` (E18), measured as scenarios/sec and
   gated on the universal invariants. *)
let run_scenario_fuzz ?(json_path = "BENCH_scenario.json") ~quick () =
  Printf.printf "\n=== Scenario language: fuzz throughput + invariants ===\n";
  let count = if quick then 300 else 2000 in
  let seed = 42 in
  let kinds = Hashtbl.create 8 in
  let violations = ref 0 in
  let t0 = Unix.gettimeofday () in
  for index = 0 to count - 1 do
    let sc = Scenario.Gen.scenario ~seed ~index in
    match Scenario.Check.scenario ~at:Scenario.Ast.no_pos sc with
    | Error _ -> incr violations
    | Ok t -> (
      match (Scenario.Compile.run t, Scenario.Compile.run t) with
      | Ok a, Ok b ->
        let k = Scenario.Compile.kind t in
        Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
        if
          not
            (a.Scenario.Compile.conserved && a.Scenario.Compile.drained
           && a.Scenario.Compile.final_loads = b.Scenario.Compile.final_loads)
        then incr violations
      | Error _, _ | _, Error _ -> incr violations)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let kind_list =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds [])
  in
  Printf.printf "%d scenarios (x2 executions) in %.3f s — %.0f scenarios/sec\n" count
    elapsed
    (float_of_int count /. elapsed);
  List.iter (fun (k, v) -> Printf.printf "  %-20s %d\n" k v) kind_list;
  Printf.printf "invariant violations: %d\n" !violations;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"scenario-fuzz\",\n  \"invariants\": \"conservation, drain, \
     replay bit-determinism\",\n  \"quick\": %b,\n  \"seed\": %d,\n\
    \  \"scenarios\": %d,\n  \"seconds\": %.3f,\n  \"scenarios_per_sec\": %.1f,\n\
    \  \"kinds\": {%s},\n  \"violations\": %d\n}\n"
    quick seed count elapsed
    (float_of_int count /. elapsed)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) kind_list))
    !violations;
  close_out oc;
  Printf.printf "scenario-fuzz results written to %s\n" json_path;
  if !violations > 0 then exit 1

(* Distributed-runtime section: real forked lb_node clusters over
   loopback sockets (lib/dist), at 2/4/8 shards.  Each shard count runs
   three ways — lossless (steady-state round throughput), chaos (5%
   frame drop plus a kill -9 of shard 1 a third of the way in), and
   coord-crash (the COORDINATOR is SIGKILLed a third of the way in and
   its replacement recovers by WAL replay).  The reported stall is the
   longest inter-commit gap, which brackets detection + abort + respawn
   + re-admission (chaos) or WAL replay + re-hello + resume
   (coord-crash; measured from the WAL itself, the one observer that
   survives the coordinator).  The coordinator's exact token
   conservation check gates every run; written to BENCH_dist.json. *)
let run_dist_cluster ?(json_path = "BENCH_dist.json") ~quick () =
  Printf.printf
    "\n=== Distributed runtime: forked shard processes over loopback ===\n";
  let built =
    match
      Dist.Setup.build
        { Dist.Setup.graph = "hypercube:5"; init = "point:8192";
          algo = "rotor-router"; seed = 1; self_loops = None }
    with
    | Ok b -> b
    | Error e -> failwith ("dist bench: " ^ e)
  in
  let rounds = if quick then 40 else 150 in
  let shard_counts = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let kill_round = rounds / 3 in
  let mkdtemp () =
    let base = Filename.get_temp_dir_name () in
    let rec go k =
      let d = Printf.sprintf "%s/bench_dist.%d.%d" base (Unix.getpid ()) k in
      match Unix.mkdir d 0o700 with
      | () -> d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
    in
    go 0
  in
  let rmdir_r d =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  in
  Dist.Launch.ignore_sigpipe ();
  let max_gap times =
    (* newest-first list of commit timestamps *)
    let rec gaps acc = function
      | a :: (b :: _ as rest) -> gaps (Float.max acc (a -. b)) rest
      | _ -> acc
    in
    gaps 0.0 times
  in
  let node_cfg_for ~shards ~ckpt_dir ~loss ~port shard =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init;
      make_balancer = built.Dist.Setup.make_balancer; rounds; ckpt_dir;
      loss; protocol = Net.Protocol.default_config; tick = 0.01;
      hb_interval = 0.03; metrics_port = None; reconnects = 8;
      graceful_term = false; injection = Dist.Node.No_injection;
      verbose = false }
  in
  (* lossless / chaos: coordinator in this process (Launch supervisor);
     the commit-hook clock feeds the stall metric directly. *)
  let run_launch ~shards ~chaos =
    let ckpt_dir = mkdtemp () in
    let listen_fd, port = Dist.Transport.listen_loopback () in
    let loss =
      if chaos then
        { Dist.Loss.drop = 0.05; delay_prob = 0.; delay_max = 0.; seed = 5;
          partitions = [] }
      else Dist.Loss.none
    in
    let node_cfg = node_cfg_for ~shards ~ckpt_dir ~loss ~port in
    let sup = Dist.Launch.create ~listen_fd ~node_cfg ~shards ~verbose:false in
    Dist.Launch.spawn_all sup;
    let commit_times = ref [] in
    let on_commit round =
      commit_times := Unix.gettimeofday () :: !commit_times;
      if chaos && round = kill_round then Dist.Launch.kill sup 1
    in
    let cfg =
      { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
        init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
        listen_fd; suspect_timeout = 0.25; band = None; out_path = None;
        metrics_port = None;
        respawn =
          Some (fun s -> Dist.Launch.reap sup; Dist.Launch.spawn sup s);
        on_commit = Some on_commit; deadline = Some 120.; wal = None;
        graceful_term = false; verbose = false }
    in
    let t0 = Unix.gettimeofday () in
    let code =
      Fun.protect
        ~finally:(fun () -> Dist.Launch.shutdown sup)
        (fun () -> Dist.Coord.main cfg)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    rmdir_r ckpt_dir;
    (code, elapsed, max_gap !commit_times)
  in
  (* coord-crash: everything (coordinator included) forked under Super;
     the coordinator is SIGKILLed at kill_round and its replacement
     replays the WAL.  The stall comes from the WAL's own Commit
     timestamps — the recovery gap is the largest one. *)
  let run_coord_crash ~shards =
    let ckpt_dir = mkdtemp () in
    let wal_path = Filename.concat ckpt_dir "coord.wal" in
    let coord_cfg ~listen_fd =
      { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
        init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
        listen_fd; suspect_timeout = 0.25; band = None; out_path = None;
        metrics_port = None; respawn = None; on_commit = None;
        deadline = Some 120.; wal = Some wal_path; graceful_term = false;
        verbose = false }
    in
    let t0 = Unix.gettimeofday () in
    let code =
      Dist.Super.run
        { Dist.Super.shards;
          node_cfg =
            (fun ~port shard ->
              node_cfg_for ~shards ~ckpt_dir ~loss:Dist.Loss.none ~port shard);
          coord_cfg; wal_path;
          faults = [ Dist.Super.Kill_coord { round = kill_round } ];
          deadline = Some 150.; coord_respawns = 1; node_respawns = 3;
          verbose = false }
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let stall =
      match Dist.Wal.commit_times ~path:wal_path with
      | Ok times -> max_gap (List.rev times) (* oldest first -> newest first *)
      | Error _ -> 0.0
    in
    rmdir_r ckpt_dir;
    (code, elapsed, stall)
  in
  let run_once ~shards ~mode =
    match mode with
    | `Lossless -> run_launch ~shards ~chaos:false
    | `Chaos -> run_launch ~shards ~chaos:true
    | `Coord_crash -> run_coord_crash ~shards
  in
  Printf.printf "%-8s %-12s %8s %12s %14s %6s\n" "shards" "mode" "rounds"
    "rounds/sec" "max stall (s)" "ok";
  let mode_name = function
    | `Lossless -> "lossless"
    | `Chaos -> "chaos"
    | `Coord_crash -> "coord-crash"
  in
  let rows = ref [] in
  let all_ok = ref true in
  List.iter
    (fun shards ->
      List.iter
        (fun mode ->
          let code, elapsed, stall = run_once ~shards ~mode in
          let ok = code = 0 in
          if not ok then all_ok := false;
          let rps = float rounds /. elapsed in
          Printf.printf "%-8d %-12s %8d %12.1f %14.3f %6b\n" shards
            (mode_name mode) rounds rps stall ok;
          rows := (shards, mode, elapsed, rps, stall, code) :: !rows)
        [ `Lossless; `Chaos; `Coord_crash ])
    shard_counts;
  let rows = List.rev !rows in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"bench\": \"dist-cluster\",\n  \"graph\": \"hypercube:5\",\n\
    \  \"algo\": \"%s\",\n  \"chaos\": \"drop 0.05 + kill -9 shard 1 at \
     round %d\",\n  \"coord_crash\": \"kill -9 coordinator at round %d, \
     WAL-replay restart\",\n  \"rounds\": %d,\n  \"quick\": %b,\n\
    \  \"results\": [\n"
    built.Dist.Setup.name kill_round kill_round rounds quick;
  let last = List.length rows - 1 in
  List.iteri
    (fun i (shards, mode, elapsed, rps, stall, code) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"mode\": %S, \"seconds\": %.3f, \
         \"rounds_per_sec\": %.1f, \"max_commit_stall_s\": %.3f, \
         \"exit_code\": %d, \"conserved\": %b}%s\n"
        shards (mode_name mode) elapsed rps stall code (code = 0)
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"all_conserved\": %b\n}\n" !all_ok;
  close_out oc;
  Printf.printf "dist-cluster results written to %s\n" json_path;
  if not !all_ok then exit 1

let run_microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n=== Microbenchmarks: engine step throughput (Bechamel) ===\n";
  Printf.printf "%-32s %14s %10s\n" "benchmark" "time/run" "r²";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
          in
          let pretty =
            if time_ns > 1e6 then Printf.sprintf "%.3f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.3f µs" (time_ns /. 1e3)
            else Printf.sprintf "%.1f ns" time_ns
          in
          Printf.printf "%-32s %14s %10.4f\n" name pretty r2)
        analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" [ t ]) (microbench_tests ()))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let csv_path =
    let rec find = function
      | "--csv" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let rec drop_csv = function
    | "--csv" :: _ :: rest -> drop_csv rest
    | x :: rest -> x :: drop_csv rest
    | [] -> []
  in
  let selected =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) (drop_csv args)
  in
  let want_micro = selected = [] || List.mem "micro" selected in
  let want_shard = selected = [] || List.mem "shard" selected in
  let want_faults = selected = [] || List.mem "faults" selected in
  let want_net = selected = [] || List.mem "net" selected in
  let want_obs = selected = [] || List.mem "obs" selected in
  let want_workload = selected = [] || List.mem "workload" selected in
  let want_scenario = selected = [] || List.mem "scenario" selected in
  let want_dist = selected = [] || List.mem "dist" selected in
  let experiment_ids =
    match
      List.filter
        (fun a ->
          let a = String.lowercase_ascii a in
          a <> "micro" && a <> "shard" && a <> "faults" && a <> "net" && a <> "obs"
          && a <> "workload" && a <> "scenario" && a <> "dist")
        selected
    with
    | [] when selected = [] -> List.map (fun e -> e.Harness.Suite.id) Harness.Suite.all
    | ids -> ids
  in
  Printf.printf
    "Load-balancing benchmark harness — reproduction of Berenbrink et al.,\n\
     \"Improved Analysis of Deterministic Load-Balancing Schemes\" (PODC 2015).\n";
  if quick then Printf.printf "(quick mode: reduced sizes)\n";
  (* dist first: it forks shard processes, and OCaml 5 forbids
     Unix.fork once anything else (shard scaling, suite experiments
     with --shards) has spawned domains. *)
  if want_dist then run_dist_cluster ~quick ();
  let csv_rows = ref [] in
  List.iter
    (fun id ->
      match Harness.Suite.run_by_id ~quick id with
      | Ok rows -> csv_rows := !csv_rows @ rows
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2)
    experiment_ids;
  (match csv_path with
  | Some path ->
    Harness.Csv.write ~path
      ~header:[ "experiment"; "c1"; "c2"; "c3"; "c4"; "c5"; "c6"; "c7"; "c8"; "c9" ]
      ~rows:
        (List.map
           (fun r ->
             let pad = List.init (max 0 (10 - List.length r)) (fun _ -> "") in
             let r = r @ pad in
             List.filteri (fun i _ -> i < 10) r)
           !csv_rows);
    Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  if want_shard then run_shard_scaling ~quick ();
  if want_faults then run_fault_recovery ~quick ();
  if want_net then run_net_degradation ~quick ();
  if want_obs then run_obs_overhead ~quick ();
  if want_workload then run_workload_sweep ~quick ();
  if want_scenario then run_scenario_fuzz ~quick ();
  if want_micro then run_microbenchmarks ()
