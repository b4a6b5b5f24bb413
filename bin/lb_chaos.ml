(* lb_chaos: seeded fuzzer over the cluster's fault-schedule space.

   Generates N scenarios (Dist.Chaos, a pure function of --seed and the
   scenario index), runs each as a real multi-process cluster under
   Dist.Super, and checks the universal invariants every schedule must
   preserve: exact token conservation, re-entry into the Theorem 2.3
   discrepancy band (widened against the fault-free reference
   trajectory, so short schedules gate on "no worse than an
   undisturbed run could be from the first disturbance onward"), and
   termination within the per-scenario deadline
   (the coordinator exits 4 on the first two, 3 on the third — any
   non-zero exit is a finding).

   On a failure the schedule is shrunk: faults, partition windows, the
   loss shim and the horizon are removed piecewise while the failure
   persists, and the minimal reproducer is printed as a replayable
   lb_cluster command line.

   --inject plants an audit-misreporting bug into every scenario
   (once:S@R must be healed by the poisoned-commit rollback;
   from:S@R must trip the poison budget) — the expected-failure mode
   used by CI to prove the shrinker works. *)

let version = "%%VERSION%%"

let die msg =
  Printf.eprintf "lb_chaos: %s\n%!" msg;
  exit 2

let make_temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    if k > 999 then die "cannot create a scratch directory under temp"
    else begin
      let d = Printf.sprintf "%s/lb_chaos.%d.%03d" base (Unix.getpid ()) k in
      match Unix.mkdir d 0o700 with
      | () -> d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
      | exception Unix.Unix_error (e, _, _) ->
        die (Printf.sprintf "cannot create %s: %s" d (Unix.error_message e))
    end
  in
  go 0

let remove_dir d =
  match Sys.readdir d with
  | entries ->
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      entries;
    (try Unix.rmdir d with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

(* "once:S@R" | "from:S@R" -> (shard, injection). *)
let parse_inject s =
  let err =
    Error
      (Printf.sprintf
         "bad --inject %S (expected once:SHARD@ROUND or from:SHARD@ROUND)" s)
  in
  match String.index_opt s ':' with
  | None -> err
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest '@' with
    | None -> err
    | Some j -> (
      let shard = int_of_string_opt (String.sub rest 0 j) in
      let round =
        int_of_string_opt
          (String.sub rest (j + 1) (String.length rest - j - 1))
      in
      match (kind, shard, round) with
      | "once", Some s, Some r when s >= 0 && r >= 0 ->
        Ok (s, Dist.Node.Misreport_once r)
      | "from", Some s, Some r when s >= 0 && r >= 0 ->
        Ok (s, Dist.Node.Misreport_from r)
      | _ -> err))

(* Run one scenario as a real cluster; the exit code is the verdict. *)
let run_scenario ~inject ~deadline ~verbose (s : Dist.Chaos.scenario) =
  match
    Dist.Setup.build
      { graph = s.graph; init = s.init; algo = s.algo; seed = s.seed;
        self_loops = None }
  with
  | Error m ->
    Printf.eprintf "lb_chaos: scenario %d does not build: %s\n%!" s.index m;
    2
  | Ok built ->
    let dir = make_temp_dir () in
    let wal_path = Filename.concat dir "coord.wal" in
    let loss =
      { Dist.Loss.drop = s.drop; delay_prob = s.delay_prob;
        delay_max = s.delay_max; seed = s.seed; partitions = s.partitions }
    in
    (* Short scenarios have not converged into the Theorem 2.3 band
       yet, so the gate is the band widened against the fault-free
       reference trajectory.  A dead or partitioned shard freezes — it
       makes no progress while the survivors advance — so the healed
       run can land anywhere the reference visits between the first
       disturbance and the horizon — plus up to one degree's worth of
       rounding drift, because the survivors keep balancing
       indivisible tokens on the induced subgraph and a node there can
       sink slightly below the frozen-time global minimum.  The gate
       is the worst reference discrepancy over that window plus a
       degree of slack (and the exact final value, no slack, when the
       schedule is disturbance-free). *)
    let ref_disc rounds =
      let r =
        Core.Engine.run ~graph:built.Dist.Setup.graph
          ~balancer:(built.Dist.Setup.make_balancer ())
          ~init:built.Dist.Setup.init ~steps:rounds ()
      in
      let loads = r.Core.Engine.final_loads in
      Array.fold_left max loads.(0) loads - Array.fold_left min loads.(0) loads
    in
    let first_disturbance =
      let fault_round = function
        | Dist.Super.Kill_shard { round; _ }
        | Dist.Super.Term_shard { round; _ }
        | Dist.Super.Kill_coord { round } ->
          round
      in
      let r0 =
        List.fold_left (fun acc f -> min acc (fault_round f)) s.rounds s.faults
      in
      (* Partition windows are wall-clock, not round-indexed; any
         window can freeze a shard from the first round onward. *)
      if s.partitions <> [] then min r0 1 else r0
    in
    let disturbed = s.faults <> [] || s.partitions <> [] in
    let reference =
      let worst = ref 0 in
      for r = first_disturbance to s.rounds do
        worst := max !worst (ref_disc r)
      done;
      if disturbed then
        !worst + Graphs.Graph.degree built.Dist.Setup.graph
      else !worst
    in
    let band =
      match Dist.Setup.parse_band built "auto" with
      | Ok (Some b) -> Some (max b reference)
      | Ok None -> Some reference
      | Error m -> die m
    in
    let node_cfg ~port shard =
      { Dist.Node.shard; shards = s.shards; port;
        graph = built.Dist.Setup.graph; init = built.Dist.Setup.init;
        make_balancer = built.Dist.Setup.make_balancer; rounds = s.rounds;
        ckpt_dir = dir; loss; protocol = Net.Protocol.default_config;
        tick = 0.005; hb_interval = 0.02; metrics_port = None;
        reconnects = 8; graceful_term = true;
        injection =
          (match inject with
           | Some (sh, inj) when sh = shard -> inj
           | Some _ | None -> Dist.Node.No_injection);
        verbose }
    in
    let coord_cfg ~listen_fd =
      { Dist.Coord.shards = s.shards; rounds = s.rounds;
        graph = built.Dist.Setup.graph; init = built.Dist.Setup.init;
        balancer_name = built.Dist.Setup.name; listen_fd;
        suspect_timeout = 0.3; band; out_path = None; metrics_port = None;
        respawn = None; on_commit = None; deadline = Some deadline;
        wal = Some wal_path; graceful_term = true; verbose }
    in
    let coord_kills =
      List.length
        (List.filter
           (function Dist.Super.Kill_coord _ -> true | _ -> false)
           s.faults)
    in
    let code =
      try
        Dist.Super.run
          { Dist.Super.shards = s.shards; node_cfg; coord_cfg; wal_path;
            faults = s.faults; deadline = Some (deadline +. 5.);
            coord_respawns = coord_kills;
            node_respawns = 3 + List.length s.faults; verbose }
      with e ->
        Printf.eprintf "lb_chaos: scenario %d: supervisor died: %s\n%!"
          s.index (Printexc.to_string e);
        3
    in
    remove_dir dir;
    code

let run scenarios seed from inject_s deadline lbs_out verbose =
  if scenarios < 1 then die "--scenarios must be >= 1";
  if from < 0 then die "--from must be >= 0";
  if deadline <= 0. then die "--deadline must be > 0";
  let inject =
    match inject_s with
    | None -> None
    | Some s -> (
      match parse_inject s with Ok i -> Some i | Error m -> die m)
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let failed = ref None in
  let i = ref from in
  while !failed = None && !i < from + scenarios do
    let s = Dist.Chaos.generate ~seed ~index:!i in
    (* The injection targets a shard by id; clamp it into range so every
       scenario actually exercises the bug. *)
    let inject =
      match inject with
      | Some (sh, inj) -> Some (sh mod s.shards, inj)
      | None -> None
    in
    Printf.printf "scenario %s\n%!" (Dist.Chaos.describe s);
    let code = run_scenario ~inject ~deadline ~verbose s in
    if code <> 0 then begin
      Printf.printf "scenario %d FAILED (exit %d)\n%!" s.index code;
      failed := Some (s, inject)
    end;
    incr i
  done;
  match !failed with
  | None ->
    Printf.printf "all %d scenario(s) passed (seed %d, indices %d..%d)\n%!"
      scenarios seed from
      (from + scenarios - 1);
    exit 0
  | Some (s, inject) ->
    Printf.printf "shrinking scenario %d...\n%!" s.index;
    let fails c = run_scenario ~inject ~deadline ~verbose c <> 0 in
    let minimal = Dist.Chaos.minimize ~fails s in
    Printf.printf "minimal reproducer (scenario %d, seed %d):\n  %s%s\n%!"
      minimal.Dist.Chaos.index seed
      (Dist.Chaos.command_line minimal)
      (match inject_s with Some inj -> " --inject " ^ inj | None -> "");
    (* The same schedule as a scenario file, so the finding can be
       archived and re-checked with lb_scn (the --inject bug is a node
       implementation detail, not part of the scenario language). *)
    (match Scenario.Cluster.to_string minimal with
    | Ok text ->
      let path = lbs_out in
      (try
         Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
         Printf.printf "scenario file written to %s (lb_scn check/compile):\n%s%!" path
           text
       with Sys_error m ->
         Printf.eprintf "lb_chaos: cannot write %s: %s\n%!" path m)
    | Error m -> Printf.eprintf "lb_chaos: cannot render scenario file: %s\n%!" m);
    exit 1

open Cmdliner

let scenarios_t =
  Arg.(value & opt int 25
       & info [ "scenarios" ] ~docv:"N" ~doc:"Number of scenarios to run.")

let seed_t =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"S" ~doc:"Fuzzer stream seed.")

let from_t =
  Arg.(value & opt int 0
       & info [ "from" ] ~docv:"I" ~doc:"First scenario index.")

let inject_t =
  Arg.(value & opt (some string) None
       & info [ "inject" ] ~docv:"KIND:SHARD@ROUND"
           ~doc:"Plant an audit-misreporting bug in every scenario \
                 (once:S@R or from:S@R); used to demonstrate the \
                 shrinker on a known failure.")

let deadline_t =
  Arg.(value & opt float 60.
       & info [ "deadline" ] ~docv:"SEC" ~doc:"Per-scenario budget.")

let lbs_out_t =
  Arg.(value & opt string "chaos-finding.lbs"
       & info [ "lbs-out" ] ~docv:"PATH"
           ~doc:"Where to write the minimal reproducer as a scenario (.lbs) file.")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log cluster internals.")

let term =
  Term.(const run $ scenarios_t $ seed_t $ from_t $ inject_t $ deadline_t
        $ lbs_out_t $ verbose_t)

let cmd =
  let doc = "fuzz the cluster's fault-schedule space with seeded scenarios" in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"every scenario preserved the invariants";
      Cmd.Exit.info 1 ~doc:"a scenario failed; minimal reproducer printed";
      Cmd.Exit.info 2 ~doc:"configuration error" ]
  in
  Cmd.v (Cmd.info "lb_chaos" ~version ~doc ~exits) term

let () = exit (Cmd.eval cmd)
