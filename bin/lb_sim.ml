(* lb_sim: run one load-balancing simulation from the command line.

   Examples:
     lb_sim --graph cycle:64 --algo rotor-router --init point:512
     lb_sim --graph torus:16x16 --algo send-round --self-loops 12 \
            --horizon continuous:2 --target 8 --audit
     lb_sim --graph random:256,6,42 --algo mimic --steps 500 --series
     lb_sim --graph torus:64x64 --algo rotor-router --steps 2000 \
            --shards 4 --partition bfs \
            --checkpoint run.ckpt --checkpoint-every 500
     lb_sim ... --checkpoint run.ckpt --resume   # continue a killed run
     lb_sim --graph cycle:1024 --algo rotor-router --init random:65536 \
            --steps 4000 --crash-nodes 0.1@500 --recovery-eps 64
     lb_sim --graph torus:16x16 --algo send-floor --steps 2000 \
            --fault-plan "crash:0.05@200:keep:spill; outage:0.1@600+50; shock:500@1200" \
            --fault-seed 7 --require-recovery

   The flags are validated here and mapped onto one typed run
   (Scenario.Check.typed); Scenario.Compile prepares it and runs the
   engine it selects, the same lowering lb_scn runs .lbs files through.
   This file only prints: a preamble from the prepared run, a summary
   from the engine's report.
*)

module Check = Scenario.Check
module Compile = Scenario.Compile

exception Spec_error of string

let spec_fail fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

let positive what v =
  if v <= 0 then spec_fail "%s must be positive (got %d)" what v;
  v

let non_negative what v =
  if v < 0 then spec_fail "%s must be non-negative (got %d)" what v;
  v

let parse_horizon steps horizon =
  match (steps, horizon) with
  | Some s, None ->
    if s < 1 then Error (Printf.sprintf "--steps must be >= 1 (got %d)" s)
    else Ok (Harness.Experiment.Fixed_steps s)
  | None, None -> Ok (Harness.Experiment.Continuous_multiple 1.0)
  | None, Some h -> (
    match String.split_on_char ':' h with
    | [ "mixing"; c ] -> (
      match float_of_string_opt c with
      | Some c when c > 0.0 -> Ok (Harness.Experiment.Mixing_multiple c)
      | Some _ -> Error "mixing multiple must be positive"
      | None -> Error "bad mixing multiple")
    | [ "continuous"; c ] -> (
      match float_of_string_opt c with
      | Some c when c > 0.0 -> Ok (Harness.Experiment.Continuous_multiple c)
      | Some _ -> Error "continuous multiple must be positive"
      | None -> Error "bad continuous multiple")
    | _ -> Error "bad horizon (expected mixing:C or continuous:C)")
  | Some _, Some _ -> Error "--steps and --horizon are mutually exclusive"

let parse_partition = function
  | "contiguous" -> Ok Shard.Partition.Contiguous
  | "round-robin" -> Ok Shard.Partition.Round_robin
  | "bfs" -> Ok Shard.Partition.Bfs_blocks
  | other ->
    Error
      (Printf.sprintf "unknown partition strategy %S (expected contiguous, \
                       round-robin or bfs)"
         other)

(* --arrivals uniform | bursty[:PERIOD,AMP] | point:N | hotspot, scaled
   by --arrival-rate.  Fixed-placement processes round the rate to a
   whole batch; uniform/bursty keep it as a Poisson mean. *)
let parse_arrivals ~rate s =
  let fail () =
    spec_fail
      "bad arrivals spec %S (expected uniform, bursty[:PERIOD,AMP], point:N or \
       hotspot)"
      s
  in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  let float_of x =
    match float_of_string_opt x with Some v -> v | None -> fail ()
  in
  let batch = int_of_float (Float.round rate) in
  match String.split_on_char ':' s with
  | [ "uniform" ] -> Check.Poisson rate
  | [ "bursty" ] -> Check.Diurnal { period = 100; amplitude = 0.5; body = Poisson rate }
  | [ "bursty"; args ] -> (
    match String.split_on_char ',' args with
    | [ p; a ] ->
      let amplitude = float_of a in
      let period = positive "bursty period" (int_of p) in
      Check.Diurnal { period; amplitude; body = Poisson rate }
    | _ -> fail ())
  | [ "point"; node ] ->
    Check.Point { node = non_negative "arrival node" (int_of node); batch }
  | [ "hotspot" ] -> Check.Hotspot batch
  | _ -> fail ()

(* --burst SIZE@ROUND[+WIDTH][:node=N] *)
let parse_burst s =
  let fail () = spec_fail "bad burst spec %S (expected SIZE@ROUND[+WIDTH][:node=N])" s in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  let head, node =
    match String.split_on_char ':' s with
    | [ h ] -> (h, 0)
    | [ h; nodespec ] -> (
      match String.split_on_char '=' nodespec with
      | [ "node"; v ] -> (h, non_negative "burst node" (int_of v))
      | _ -> fail ())
    | _ -> fail ()
  in
  match String.split_on_char '@' head with
  | [ size; where ] ->
    let size = non_negative "burst size" (int_of size) in
    let at, width =
      match String.split_on_char '+' where with
      | [ at ] -> (positive "burst round" (int_of at), 1)
      | [ at; w ] ->
        (positive "burst round" (int_of at), positive "burst width" (int_of w))
      | _ -> fail ()
    in
    Check.Flash { size; at; node; width }
  | _ -> fail ()

(* --lifetime immortal | service:R | geometric:M | fixed:L | work:B *)
let parse_lifetime s =
  let fail () =
    spec_fail
      "bad lifetime spec %S (expected immortal, service:RATE, geometric:MEAN, \
       fixed:ROUNDS or work:BATCH)"
      s
  in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  let float_of x =
    match float_of_string_opt x with Some v -> v | None -> fail ()
  in
  match String.split_on_char ':' s with
  | [ "immortal" ] -> Check.Immortal
  | [ "service"; r ] -> Check.Service (int_of r)
  | [ "geometric"; m ] -> Check.Geometric (float_of m)
  | [ "fixed"; l ] -> Check.Fixed (int_of l)
  | [ "work"; b ] -> Check.Work (int_of b)
  | _ -> fail ()

(* The open system's arrival process: --arrivals, then --hotspot, then
   --burst, overlaid in that order. *)
let open_arrival ~arrival_rate ~arrivals ~hotspot ~burst =
  let rate = Option.value ~default:8.0 arrival_rate in
  match
    List.filter_map Fun.id
      [
        Option.map (parse_arrivals ~rate) arrivals;
        Option.map (fun b -> Check.Hotspot (non_negative "--hotspot" b)) hotspot;
        Option.map parse_burst burst;
      ]
  with
  | p :: rest -> List.fold_left (fun a b -> Check.Plus (a, b)) p rest
  | [] -> spec_fail "open-system mode needs at least one arrival source"

let die msg =
  prerr_endline ("lb_sim: " ^ msg);
  exit 2

(* Exit 4 (documented in EXIT STATUS): an invariant the run was supposed
   to maintain — token conservation, non-negative NL loads, state range,
   network drain — failed.  Distinct from 2 (bad specs) and 3
   (--require-recovery), so scripts can tell "you asked wrong" from
   "the simulation broke its own guarantees". *)
let die_invariant msg =
  prerr_endline ("lb_sim: invariant violation: " ^ msg);
  exit 4

(* --dump-loads: final load vector, one integer per line — the format
   lb_cluster also writes, so `cmp` gives the bit-for-bit equivalence
   check between the simulator and the distributed runtime. *)
let dump_loads_to path loads =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Array.iter (fun x -> Printf.fprintf oc "%d\n" x) loads)
  with
  | () -> ()
  | exception Sys_error msg -> die (Printf.sprintf "--dump-loads: %s" msg)

let print_graph_and_algo (p : Compile.prepared) =
  let degree = Graphs.Graph.degree p.graph in
  Printf.printf "graph:        %s (n=%d, d=%d)\n"
    (Harness.Experiment.graph_name p.typed.graph)
    (Graphs.Graph.n p.graph) degree;
  let self_loops = p.balancer.Core.Balancer.self_loops in
  Printf.printf "algorithm:    %s (d°=%d, d⁺=%d)\n" p.balancer.Core.Balancer.name
    self_loops (degree + self_loops)

let print_summary (p : Compile.prepared) ~target ~time_to_target
    (result : Core.Engine.result) =
  print_graph_and_algo p;
  Printf.printf "spectral gap: µ = %.6g\n" (Lazy.force p.gap);
  Printf.printf "initial K:    %d\n" (Core.Loads.discrepancy p.init);
  Printf.printf "steps run:    %d (horizon %d)\n" result.Core.Engine.steps_run p.steps;
  Printf.printf "final disc:   %d\n"
    (Core.Loads.discrepancy result.Core.Engine.final_loads);
  (match target with
  | Some t ->
    Printf.printf "time to ≤%d:  %s\n" t
      (match time_to_target with Some tt -> string_of_int tt | None -> "not reached")
  | None -> ());
  if result.Core.Engine.min_load_seen < 0 then
    Printf.printf "NEGATIVE LOAD observed (min %d)\n" result.Core.Engine.min_load_seen;
  match result.Core.Engine.fairness with
  | Some rep -> Format.printf "fairness audit:@\n%a@." Core.Fairness.pp_report rep
  | None -> ()

let print_fault_plan (p : Compile.prepared) faults ~count ~unit =
  Printf.printf "fault plan:   %d %s, seed %d (%s)\n" count unit p.typed.fault_seed
    (String.concat "; " (List.map Faults.Schedule.spec_to_string faults))

let print_network (net : Check.net) =
  Printf.printf "network:      %s; %s; staleness σ=%d; net seed %d\n"
    (Net.Channel.config_to_string net.channel)
    (Net.Protocol.config_to_string net.protocol)
    net.staleness net.net_seed

(* What lb_sim prints before the run, path by path.  The realized plan
   and the resumed checkpoint are forced where the line that names them
   is printed (the network path names the plan by its specs and realizes
   it before the network line), so a bad plan or an unreadable
   checkpoint fails right after the lines before it. *)
let print_preamble (p : Compile.prepared) =
  let events () = List.length (Lazy.force p.plan) in
  match p.system with
  | Compile.Open_system { faults; net; _ } ->
    if faults <> [] then print_fault_plan p faults ~count:(events ()) ~unit:"events";
    Option.iter print_network net
  | Compile.Closed_system { net = Some net; faults; _ } ->
    if faults <> [] then
      print_fault_plan p faults ~count:(List.length faults) ~unit:"specs";
    ignore (events ());
    print_network net
  | Compile.Closed_system ({ faults = _ :: _; _ } as c) ->
    print_fault_plan p c.faults ~count:(events ()) ~unit:"events";
    Option.iter
      (fun (s : Check.shards) ->
        Printf.printf "shards:       %d (%s partition)\n" s.count
          (Shard.Partition.strategy_name s.partition))
      c.shards
  | Compile.Closed_system { shards = None; _ } -> ()
  | Compile.Closed_system ({ shards = Some s; _ } as c) -> (
    let pstats =
      Shard.Partition.stats
        (Shard.Partition.make ~strategy:s.partition ~shards:s.count p.graph)
        p.graph
    in
    Printf.printf "shards:       %d (%s partition, %d cut edges, imbalance %.3f)\n"
      s.count
      (Shard.Partition.strategy_name s.partition)
      pstats.Shard.Partition.cut_edges pstats.Shard.Partition.max_imbalance;
    Option.iter
      (fun (k : Check.checkpoint) ->
        Printf.printf "checkpoint:   %s (every %d steps)\n" k.path k.every)
      c.checkpoint;
    match Lazy.force p.resume with
    | None -> ()
    | Some r ->
      (* Recover survives a corrupted primary: the checksum rejects it
         and the rotated .prev copy is used instead. *)
      List.iter
        (fun (_, err) ->
          Printf.printf "rejected:     %s\n" (Shard.Checkpoint.error_message err))
        r.Shard.Checkpoint.rejected;
      Printf.printf "resuming:     %s%s\n"
        (Shard.Checkpoint.describe r.Shard.Checkpoint.snapshot)
        (match (r.Shard.Checkpoint.source, c.checkpoint) with
        | Shard.Checkpoint.Rotated, Some k ->
          Printf.sprintf " (from rotated copy %s)" (Shard.Checkpoint.prev_path k.path)
        | _ -> ""))

let print_workload (p : Compile.prepared) =
  match (p.system, p.typed.run) with
  | Compile.Open_system { arrival; lifetime; _ }, Check.Open { workload_seed; _ } ->
    Printf.printf "workload:     arrivals %s; lifetime %s; seed %d\n"
      (Workload.Arrival.name arrival)
      (Workload.Lifetime.name lifetime)
      workload_seed
  | _ -> ()

(* What lb_sim prints after the run, from the engine's report, and the
   exit code the run's invariants ask for. *)
let print_report (p : Compile.prepared) ~target ~series ~dump_loads
    ~require_recovery ~elapsed report =
  let dump loads = Option.iter (fun path -> dump_loads_to path loads) dump_loads in
  let step_series (result : Core.Engine.result) =
    if series then begin
      print_endline "step,discrepancy";
      Array.iter (fun (t, d) -> Printf.printf "%d,%d\n" t d) result.Core.Engine.series
    end
  in
  match (report : Compile.report) with
  | Compile.Rounds { result; time_to_target } ->
    print_summary p ~target ~time_to_target result;
    (match p.system with
    | Compile.Closed_system { shards = Some _; _ } ->
      let resumed_at =
        match Lazy.force p.resume with
        | Some r -> r.Shard.Checkpoint.snapshot.Shard.Checkpoint.step
        | None -> 0
      in
      let steps_executed = result.Core.Engine.steps_run - resumed_at in
      if elapsed > 0.0 && steps_executed > 0 then
        Printf.printf "throughput:   %.0f steps/sec (%.2fs wall)\n"
          (float_of_int steps_executed /. elapsed)
          elapsed
    | _ -> ());
    dump result.Core.Engine.final_loads;
    step_series result
  | Compile.Faulted r ->
    print_summary p ~target:None ~time_to_target:None r.Faults.Engine.result;
    List.iter print_endline (Faults.Engine.report_lines r);
    step_series r.Faults.Engine.result;
    dump r.Faults.Engine.result.Core.Engine.final_loads;
    if require_recovery && not (Faults.Engine.all_recovered r) then begin
      prerr_endline "lb_sim: --require-recovery: some fault episodes did not recover";
      exit 3
    end
  | Compile.Networked r ->
    print_summary p ~target:None ~time_to_target:None r.Net.Async_engine.result;
    List.iter print_endline (Net.Async_engine.report_lines r);
    step_series r.Net.Async_engine.result;
    dump r.Net.Async_engine.result.Core.Engine.final_loads;
    if not r.Net.Async_engine.drained then
      die_invariant
        (Printf.sprintf "network failed to quiesce within %d drain rounds"
           Net.Async_engine.default_config.Net.Async_engine.max_drain_rounds);
    if not (Net.Async_engine.conserved r) then
      die_invariant
        (Printf.sprintf "net ledger unbalanced: total %d, expected %d"
           r.Net.Async_engine.final_total
           (r.Net.Async_engine.initial_total + r.Net.Async_engine.injected
          - r.Net.Async_engine.lost))
  | Compile.Opened r ->
    print_graph_and_algo p;
    print_workload p;
    Printf.printf "rounds run:   %d (warm-up %d)\n" r.Workload.Engine.rounds_run
      r.Workload.Engine.warmup_end;
    let sd = r.Workload.Engine.steady_discrepancy in
    Printf.printf "steady disc:  mean %.1f, p95 %.1f, p99 %.1f (Thm 2.3 band %d)\n"
      sd.Workload.Steady.mean sd.Workload.Steady.p95 sd.Workload.Steady.p99
      (Lazy.force p.band);
    Printf.printf "backlog:      mean %.1f tokens in flight; overload p99 %.2f×mean\n"
      r.Workload.Engine.steady_inflight.Workload.Steady.mean
      r.Workload.Engine.steady_overload.Workload.Steady.p99;
    Printf.printf "throughput:   %.1f tokens/round (arrivals %d, departures %d)\n"
      r.Workload.Engine.throughput r.Workload.Engine.total_arrivals
      r.Workload.Engine.total_departures;
    if r.Workload.Engine.fault_injected <> 0 || r.Workload.Engine.fault_lost <> 0 then
      Printf.printf "fault ledger: injected %d, lost %d\n"
        r.Workload.Engine.fault_injected r.Workload.Engine.fault_lost;
    Printf.printf "verdict:      %s, ledger %s\n"
      (if r.Workload.Engine.diverged then "DIVERGED (backlog grows without settling)"
       else "stable")
      (if r.Workload.Engine.conserved then "conserved" else "UNBALANCED");
    if series then begin
      print_endline "round,discrepancy,inflight";
      Array.iteri
        (fun i (round, d) ->
          Printf.printf "%d,%d,%d\n" round d (snd r.Workload.Engine.inflight_series.(i)))
        r.Workload.Engine.discrepancy_series
    end;
    dump r.Workload.Engine.final_loads;
    if not r.Workload.Engine.conserved then
      die_invariant
        (Printf.sprintf
           "workload ledger unbalanced: final %d, expected init %d + arrivals %d + \
            injected %d − departures %d − lost %d"
           (Array.fold_left ( + ) 0 r.Workload.Engine.final_loads)
           (Array.fold_left ( + ) 0 p.init)
           r.Workload.Engine.total_arrivals r.Workload.Engine.fault_injected
           r.Workload.Engine.total_departures r.Workload.Engine.fault_lost)

(* Observability: enable probes/profiling before the run; the export
   itself is registered with at_exit. *)
let setup_obs ~metrics ~metrics_out ~metrics_every ~profile =
  let metrics_on = metrics || metrics_out <> None in
  if metrics_every < 1 then die "--metrics-every must be >= 1";
  let jsonl = ref None in
  if metrics_on then begin
    Obs.Probe.enable ~every:metrics_every ();
    match metrics_out with
    | None -> ()
    | Some path ->
      let oc =
        try open_out (path ^ ".jsonl")
        with Sys_error msg -> die (Printf.sprintf "--metrics-out: %s" msg)
      in
      jsonl := Some oc;
      Obs.Probe.set_sink
        (Some
           (fun snap ->
             output_string oc (Obs.Export.snapshot_json snap);
             output_char oc '\n';
             flush oc));
      (* kill -USR1 <pid> scrapes a live run into the same file. *)
      ignore (Obs.Export.install_sigusr1 ~path ())
  end;
  if profile then Obs.Prof.set_enabled true;
  (* at_exit so the export also happens on the non-zero exits (3:
     unrecovered, 4: invariant violation) — the metrics of a failed run
     are exactly the ones worth reading. *)
  if metrics_on || profile then
    at_exit (fun () ->
        (match !jsonl with Some oc -> close_out oc | None -> ());
        if metrics_on then begin
          match metrics_out with
          | Some path ->
            (try Obs.Export.write ~path ()
             with Sys_error msg ->
               Printf.eprintf "error: metrics export failed: %s\n" msg);
            Printf.printf "metrics:      %s (timeline: %s.jsonl, %d snapshots%s)\n"
              path path
              (Array.length (Obs.Probe.timeline ()))
              (let d = Obs.Probe.timeline_dropped () in
               if d = 0 then "" else Printf.sprintf ", %d dropped" d)
          | None ->
            print_endline "--- metrics (Prometheus text exposition) ---";
            print_string (Obs.Export.prometheus ())
        end;
        if profile then begin
          print_endline "--- profile (wall-clock + GC per engine phase) ---";
          List.iter print_endline (Obs.Prof.report_lines ())
        end)

let run graph algo self_loops init steps horizon target audit series seed shards
    domains partition checkpoint_path checkpoint_every resume fault_plan
    crash_nodes edge_outage fault_seed recovery_eps require_recovery drop delay
    dup reorder staleness retx_timeout retx_backoff net_seed no_degrade arrivals
    arrival_rate burst hotspot lifetime warmup workload_seed metrics metrics_out
    metrics_every profile dump_loads =
  (* Spec parsing lives in Harness.Experiment so lb_cluster and lb_node
     accept the same grammar; a bad init spec is reported first. *)
  match
    (Harness.Experiment.graph_of_string graph, Harness.Experiment.init_of_string init)
  with
  | _, Error msg | Error msg, _ -> die msg
  | Ok graph_spec, Ok init_spec ->
  match Harness.Experiment.algo_of_string algo with
  | Error msg -> die msg
  | Ok _ -> (
    match parse_horizon steps horizon with
    | Error msg -> die msg
    | Ok horizon_spec ->
    match parse_partition partition with
    | Error msg -> die msg
    | Ok strategy ->
      (match self_loops with
      | Some k when k < 0 -> die "--self-loops must be non-negative"
      | _ -> ());
      (match shards with
      | Some k when k < 1 -> die "--shards must be >= 1"
      | _ -> ());
      (match domains with
      | Some k when k < 1 -> die "--domains must be >= 1"
      | _ -> ());
      if checkpoint_every < 1 then die "--checkpoint-every must be >= 1";
      (* One domain per shard: --shards picks the partition, --domains
         alone is shorthand for the same count. *)
      let shard_count =
        match (shards, domains) with
        | Some k, _ -> k
        | None, Some d -> d
        | None, None -> 1
      in
      let fault_specs =
        let parse_or_die label s =
          match Faults.Schedule.parse s with
          | Ok specs -> specs
          | Error m -> die (label ^ ": " ^ m)
        in
        List.concat
          [
            (match fault_plan with
            | Some s -> parse_or_die "--fault-plan" s
            | None -> []);
            (match crash_nodes with
            | Some s -> parse_or_die "--crash-nodes" ("crash:" ^ s)
            | None -> []);
            (match edge_outage with
            | Some s -> parse_or_die "--edge-outage" ("outage:" ^ s)
            | None -> []);
          ]
      in
      let faulted = fault_specs <> [] in
      let netted =
        drop <> None || delay <> None || dup <> None || reorder <> None
        || staleness <> None || retx_timeout <> None || retx_backoff <> None
        || net_seed <> None || no_degrade
      in
      if netted
         && (shards <> None || domains <> None || checkpoint_path <> None || resume)
      then
        die "the unreliable-network engine is single-domain (no --shards, \
             --domains, --checkpoint or --resume)";
      if netted && audit then die "--audit is not available on an unreliable network";
      (* A stalled node skips a step of the continuous process that mimic
         follows, and its loads can go negative. *)
      if no_degrade && algo = "mimic" then
        die "--no-degrade: the mimic balancer needs every node to step every round";
      if netted && target <> None then
        die "--target is not available on an unreliable network";
      if netted && (recovery_eps <> None || require_recovery) then
        die "--recovery-eps/--require-recovery measure fault episodes, which \
             the network engine does not track";
      let net_cfg =
        if not netted then None
        else begin
          let backoff =
            match retx_backoff with
            | None -> Net.Protocol.default_config.Net.Protocol.backoff
            | Some s -> (
              match Net.Protocol.backoff_of_string s with
              | Ok b -> b
              | Error m -> die ("--retx-backoff: " ^ m))
          in
          let channel =
            {
              Net.Channel.drop = Option.value ~default:0.0 drop;
              dup = Option.value ~default:0.0 dup;
              reorder = Option.value ~default:0.0 reorder;
              delay = Option.value ~default:0 delay;
            }
          in
          (match Net.Channel.validate_config channel with
          | Ok () -> ()
          | Error m -> die m);
          let protocol =
            {
              Net.Protocol.default_config with
              Net.Protocol.timeout =
                Option.value
                  ~default:Net.Protocol.default_config.Net.Protocol.timeout
                  retx_timeout;
              backoff;
            }
          in
          (match Net.Protocol.validate_config protocol with
          | Ok () -> ()
          | Error m -> die m);
          (match staleness with
          | Some s when s < 0 -> die "--staleness must be non-negative"
          | _ -> ());
          Some
            {
              Check.channel;
              protocol;
              staleness = Option.value ~default:0 staleness;
              degrade = not no_degrade;
              net_seed = Option.value ~default:1 net_seed;
            }
        end
      in
      let workloaded = arrivals <> None || burst <> None || hotspot <> None in
      if (not workloaded)
         && (arrival_rate <> None || lifetime <> None || warmup <> None
           || workload_seed <> None)
      then
        die "--arrival-rate/--lifetime/--warmup/--workload-seed need an \
             open-system workload (--arrivals, --burst or --hotspot)";
      if workloaded then begin
        if horizon <> None then
          die "--horizon is not available in open-system mode (--steps sets \
               the round count, default 1000)";
        if audit then die "--audit is not available in open-system mode";
        if target <> None then
          die "--target is not available in open-system mode (read the steady \
               band instead)";
        if shards <> None || domains <> None || checkpoint_path <> None || resume
        then
          die "the open-system engine is single-domain (no --shards, --domains, \
               --checkpoint or --resume)";
        if recovery_eps <> None || require_recovery then
          die "--recovery-eps/--require-recovery measure closed-system fault \
               episodes; open-system faults surface in the conservation ledger";
        match warmup with
        | Some w when w < 0 -> die "--warmup must be non-negative"
        | _ -> ()
      end;
      if faulted && (checkpoint_path <> None || resume) then
        die "fault injection and checkpointing cannot be combined (fault state \
             is not checkpointed)";
      if faulted && audit then
        die "--audit is not available under fault injection";
      if faulted && target <> None then
        die "--target is not available under fault injection (use --recovery-eps)";
      (match recovery_eps with
      | Some e when e < 0 -> die "--recovery-eps must be non-negative"
      | _ -> ());
      if (not faulted)
         && (recovery_eps <> None || require_recovery || crash_nodes <> None
           || edge_outage <> None)
      then
        die "--recovery-eps/--require-recovery need a fault plan \
             (--fault-plan, --crash-nodes or --edge-outage)";
      let sharded =
        shards <> None || domains <> None || checkpoint_path <> None || resume
      in
      setup_obs ~metrics ~metrics_out ~metrics_every ~profile;
      try
        let run =
          if workloaded then begin
            let arrival = open_arrival ~arrival_rate ~arrivals ~hotspot ~burst in
            let lifetime =
              match lifetime with Some s -> parse_lifetime s | None -> Check.Immortal
            in
            Check.Open
              {
                rounds = Option.value ~default:1000 steps;
                arrival;
                lifetime;
                warmup =
                  (match warmup with Some w -> Check.Fixed_warmup w | None -> Check.Auto);
                workload_seed = Option.value ~default:1 workload_seed;
                faults = fault_specs;
                net = net_cfg;
              }
          end
          else
            Check.Closed
              {
                horizon = horizon_spec;
                faults = fault_specs;
                net = net_cfg;
                shards =
                  (if sharded then Some { Check.count = shard_count; partition = strategy }
                   else None);
                checkpoint =
                  Option.map
                    (fun path -> { Check.path; every = checkpoint_every; resume })
                    checkpoint_path;
                audit;
                target;
                recovery_eps;
              }
        in
        let p =
          Compile.prepare
            { Check.graph = graph_spec; init = init_spec; algo_name = algo; self_loops;
              algo_seed = Some seed; fault_seed; run }
        in
        print_preamble p;
        if resume && checkpoint_path = None then die "--resume requires --checkpoint PATH";
        let t0 = Unix.gettimeofday () in
        let report = Compile.execute p in
        print_report p ~target ~series ~dump_loads ~require_recovery
          ~elapsed:(Unix.gettimeofday () -. t0) report
      with
      | Spec_error msg | Invalid_argument msg -> die msg
      | Shard.Checkpoint.Checkpoint_error err ->
        die ("checkpoint: " ^ Shard.Checkpoint.error_message err)
      | Faults.Watchdog.Invariant_violation d ->
        die_invariant (Faults.Watchdog.to_string d))

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"SPEC"
        ~doc:"Graph: cycle:N, torus:AxA, hypercube:R, complete:N, clique:N,D, random:N,D[,SEED].")

let algo_arg =
  Arg.(
    value
    & opt string "rotor-router"
    & info [ "algo"; "a" ] ~docv:"NAME"
        ~doc:
          "Algorithm: rotor-router, rotor-router-star, send-floor, send-round, mimic, \
           random-extra, random-rounding.")

let self_loops_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "self-loops" ] ~docv:"K"
        ~doc:"Self-loops d° per node (default: algorithm-specific, usually d).")

let init_arg =
  Arg.(
    value
    & opt string "point:1024"
    & info [ "init"; "i" ] ~docv:"SPEC"
        ~doc:"Initial loads: point:TOTAL, bimodal:HIGH,LOW, random:TOTAL[,SEED].")

let steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "steps"; "s" ] ~docv:"N" ~doc:"Run exactly N steps.")

let horizon_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "horizon" ] ~docv:"SPEC"
        ~doc:
          "Horizon: mixing:C (C·ln(nK)/µ steps) or continuous:C (C× the continuous \
           balancing time; default continuous:1).")

let target_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "target" ] ~docv:"D" ~doc:"Also report the first step with discrepancy ≤ D.")

let audit_arg =
  Arg.(value & flag & info [ "audit" ] ~doc:"Run the Definition 2.1/3.1 fairness audit.")

let series_arg =
  Arg.(value & flag & info [ "series" ] ~doc:"Print a step,discrepancy CSV series.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Seed for randomized algorithms.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Partition the graph into K shards and run the domain-parallel engine \
           (one OCaml domain per shard). Bit-identical to the sequential engine \
           for deterministic algorithms.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"K"
        ~doc:"Shorthand for --shards K (the engine runs one domain per shard).")

let partition_arg =
  Arg.(
    value
    & opt string "contiguous"
    & info [ "partition" ] ~docv:"STRATEGY"
        ~doc:"Shard partition strategy: contiguous, round-robin or bfs.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"PATH"
        ~doc:"Write crash-resumable checkpoints to PATH (atomically overwritten).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:"Checkpoint after every K-th step (default 1000).")

let resume_arg =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the checkpoint at --checkpoint PATH instead of starting \
           from the initial loads.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Semicolon-separated fault specs: crash:FRAC@STEP[:wipe|keep][:lose|spill], \
           outage:RATE@STEP+DURATION, shock:AMOUNT@STEP[:node=N]. Realized \
           into concrete node/edge events with --fault-seed; same seed and plan \
           replay the identical faulted run.")

let crash_nodes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "crash-nodes" ] ~docv:"FRAC@STEP"
        ~doc:"Shorthand for --fault-plan crash:FRAC@STEP (wipe state, lose tokens).")

let edge_outage_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "edge-outage" ] ~docv:"RATE@STEP+DUR"
        ~doc:"Shorthand for --fault-plan outage:RATE@STEP+DUR.")

let fault_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "fault-seed" ] ~docv:"S"
        ~doc:"Seed used to realize the fault plan into concrete events (default 1).")

let recovery_eps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "recovery-eps" ] ~docv:"E"
        ~doc:
          "A fault episode counts as recovered once the discrepancy returns \
           within E of its pre-fault value (default: the graph degree d).")

let require_recovery_arg =
  Arg.(
    value
    & flag
    & info [ "require-recovery" ]
        ~doc:"Exit with status 3 if any fault episode fails to recover.")

let drop_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "drop" ] ~docv:"P"
        ~doc:
          "Run on an unreliable network: drop each transmission with \
           probability P in [0, 1). Tokens ride an exactly-once retry \
           protocol, so conservation still holds end-to-end.")

let delay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "delay" ] ~docv:"D"
        ~doc:"Delay each packet by a uniform 0..D extra rounds.")

let dup_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dup" ] ~docv:"P"
        ~doc:"Duplicate each transmission with probability P (the receiver \
              discards the extra copy).")

let reorder_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "reorder" ] ~docv:"P"
        ~doc:"Hold each packet back one round with probability P, letting \
              later traffic overtake it.")

let staleness_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "staleness" ] ~docv:"S"
        ~doc:
          "Bounded-staleness window σ: a node whose oldest undelivered \
           message is more than σ rounds old balances on its last-known \
           load instead of fresh information (default 0).")

let retx_timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retx-timeout" ] ~docv:"T"
        ~doc:"Rounds before an unacknowledged message is retransmitted \
              (default 4).")

let retx_backoff_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "retx-backoff" ] ~docv:"POLICY"
        ~doc:"Retransmission backoff: fixed or exp[onential] (default exp, \
              capped at 64 rounds).")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Strict staleness: a node past its $(b,--staleness) window skips \
           the round entirely instead of balancing its last-known load. \
           Refused with mimic, which needs every node to step every \
           round.")

let net_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "net-seed" ] ~docv:"S"
        ~doc:
          "Seed for the channel's fault randomness; the same seed and flags \
           replay the identical lossy run bit for bit (default 1).")

let arrivals_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "arrivals" ] ~docv:"SPEC"
        ~doc:
          "Run an open system with streaming arrivals: $(b,uniform) \
           (Poisson-distributed batch at uniform nodes), \
           $(b,bursty[:PERIOD,AMP]) (diurnal rate modulation, default \
           100,0.5), $(b,point:N) (whole batch on node N) or $(b,hotspot) \
           (batch on the currently max-loaded node). Scaled by \
           $(b,--arrival-rate); each round also applies $(b,--lifetime) \
           departures and one balancing step.")

let arrival_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "arrival-rate" ] ~docv:"R"
        ~doc:
          "Mean tokens arriving per round (default 8). Poisson mean for \
           uniform/bursty arrivals, rounded to a whole batch for \
           point/hotspot.")

let burst_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "burst" ] ~docv:"SIZE@ROUND[+WIDTH][:node=N]"
        ~doc:
          "Overlay a flash crowd: SIZE extra tokens land on node N (default \
           0) in rounds ROUND..ROUND+WIDTH-1 (default width 1). Implies \
           open-system mode.")

let hotspot_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hotspot" ] ~docv:"B"
        ~doc:
          "Overlay an adversarial source: B extra tokens per round on the \
           currently max-loaded node. Implies open-system mode.")

let lifetime_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lifetime" ] ~docv:"SPEC"
        ~doc:
          "Token lifetimes: $(b,immortal) (default, tokens never leave), \
           $(b,service:RATE) (each node completes up to RATE tokens/round), \
           $(b,geometric:MEAN) (memoryless, mean MEAN rounds), \
           $(b,fixed:ROUNDS) (depart exactly ROUNDS rounds after arrival) or \
           $(b,work:BATCH) (BATCH uniform completion attempts per round).")

let warmup_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "warmup" ] ~docv:"N"
        ~doc:
          "Discard the first N rounds before computing steady-state \
           statistics (default: automatic MSER warm-up detection).")

let workload_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workload-seed" ] ~docv:"S"
        ~doc:
          "Seed for arrival and lifetime randomness (default 1); identical \
           seeds replay the identical open-system trace bit for bit.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect per-round metrics (discrepancy, load extrema, potentials \
           $(b,φ)/$(b,φ'), tokens moved, network and fault counters) and print \
           them in Prometheus text format after the run. Probes observe only: \
           the simulation itself is bit-identical with or without this flag.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the Prometheus exposition to $(docv) (atomically) instead of \
           stdout, plus a JSONL snapshot timeline to $(docv).jsonl. Implies \
           $(b,--metrics). Sending SIGUSR1 scrapes a live run into $(docv).")

let metrics_every_arg =
  Arg.(
    value
    & opt int 1
    & info [ "metrics-every" ] ~docv:"N"
        ~doc:
          "Take a full snapshot (potentials, timeline entry, JSONL line) only \
           every $(docv)-th round; cheap counters still update every round \
           (default 1).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time each engine phase (assign, scan, merge, checkpoint, drain) and \
           report wall-clock and GC allocation per phase after the run.")

let dump_loads_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-loads" ] ~docv:"FILE"
        ~doc:
          "Write the final load vector to $(docv), one integer per line \
           (node order). lb_cluster emits the same format, so `cmp` checks \
           simulator/cluster equivalence bit for bit.")

let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 2
       ~doc:"on an invalid graph/algorithm/init/fault/network specification."
  :: Cmd.Exit.info 3
       ~doc:"when $(b,--require-recovery) is set and a fault episode never \
             recovers."
  :: Cmd.Exit.info 4
       ~doc:
         "when a run violates its own invariants: the watchdog trips \
          (conservation, negative load, state range) or the unreliable \
          network fails to drain."
  :: Cmd.Exit.defaults

let cmd =
  let doc = "simulate deterministic load-balancing schemes (Berenbrink et al., PODC 2015)" in
  Cmd.v
    (Cmd.info "lb_sim" ~version:"1.0.0" ~doc ~exits)
    Term.(
      const run $ graph_arg $ algo_arg $ self_loops_arg $ init_arg $ steps_arg
      $ horizon_arg $ target_arg $ audit_arg $ series_arg $ seed_arg $ shards_arg
      $ domains_arg $ partition_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg $ fault_plan_arg $ crash_nodes_arg $ edge_outage_arg
      $ fault_seed_arg $ recovery_eps_arg $ require_recovery_arg $ drop_arg
      $ delay_arg $ dup_arg $ reorder_arg $ staleness_arg $ retx_timeout_arg
      $ retx_backoff_arg $ net_seed_arg $ no_degrade_arg $ arrivals_arg
      $ arrival_rate_arg $ burst_arg $ hotspot_arg $ lifetime_arg $ warmup_arg
      $ workload_seed_arg $ metrics_arg $ metrics_out_arg $ metrics_every_arg
      $ profile_arg $ dump_loads_arg)

let () = exit (Cmd.eval cmd)
