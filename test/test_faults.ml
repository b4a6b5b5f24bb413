(* Tests for lib/faults: seeded fault schedules, the invariant
   watchdog, and the fault-injecting engine wrapper —

   - Schedule.parse / spec_to_string round-trip and realize determinism
     (same seed + specs + graph ⇒ identical plans);
   - Watchdog raises structured diagnostics naming step/node/kind;
   - Faults.Engine: replayable (sequential ≡ sharded, run-to-run
     identical), token ledger exact for lose/spill/shock, recovery
     episodes measured, outages conserve mass and end on schedule. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Schedule ---------- *)

let test_parse_roundtrip () =
  let s = "crash:0.1@500:keep:spill; outage:0.25@10+5; shock:64@100:node=3" in
  match Faults.Schedule.parse s with
  | Error m -> Alcotest.fail m
  | Ok specs ->
    check_int "three specs" 3 (List.length specs);
    let printed = String.concat "; " (List.map Faults.Schedule.spec_to_string specs) in
    (match Faults.Schedule.parse printed with
    | Ok specs' -> check_bool "round-trip" true (specs = specs')
    | Error m -> Alcotest.fail ("reparse failed: " ^ m))

let test_parse_defaults_and_errors () =
  (match Faults.Schedule.parse "crash:0.5@3" with
  | Ok [ Faults.Schedule.Crash_fraction { state; tokens; _ } ] ->
    check_bool "default wipe" true (state = Faults.Schedule.Wipe_state);
    check_bool "default lose" true (tokens = Faults.Schedule.Lose_tokens)
  | _ -> Alcotest.fail "crash defaults");
  List.iter
    (fun bad ->
      match Faults.Schedule.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ bad))
    [ ""; "crash:half@3"; "outage:0.1@5"; "shock:10"; "frobnicate:1@2";
      "crash:0.1@3:explode" ]

let test_realize_deterministic () =
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let specs =
    match Faults.Schedule.parse "crash:0.25@5; outage:0.3@2+4; shock:100@8" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let p1 = Faults.Schedule.realize ~seed:42 ~graph:g specs in
  let p2 = Faults.Schedule.realize ~seed:42 ~graph:g specs in
  let p3 = Faults.Schedule.realize ~seed:43 ~graph:g specs in
  check_bool "same seed, same plan" true (p1 = p2);
  check_bool "different seed, different plan" true (p1 <> p3);
  (* 25% of 36 nodes = 9 crash events. *)
  let crashes =
    List.length
      (List.filter
         (fun t ->
           match t.Faults.Schedule.event with
           | Faults.Schedule.Crash _ -> true
           | _ -> false)
         p1)
  in
  check_int "crash count" 9 crashes;
  (* Outages come in matched directed pairs: an even count, all within
     the declared window. *)
  let outages =
    List.filter_map
      (fun t ->
        match t.Faults.Schedule.event with
        | Faults.Schedule.Edge_outage { last_step; _ } ->
          check_int "outage start" 2 t.Faults.Schedule.step;
          check_int "outage end" 5 last_step;
          Some ()
        | _ -> None)
      p1
  in
  check_int "paired directed outages" 0 (List.length outages mod 2);
  (* Plan is sorted by step. *)
  let steps = List.map (fun t -> t.Faults.Schedule.step) p1 in
  check_bool "sorted" true (steps = List.sort compare steps)

(* ---------- Watchdog ---------- *)

let test_watchdog_conservation () =
  let w =
    Faults.Watchdog.create ~name:"test" ~never_negative:false ~expected_total:10 ()
  in
  Faults.Watchdog.check w ~step:1 ~loads:[| 4; 6 |];
  (match Faults.Watchdog.check w ~step:2 ~loads:[| 4; 7 |] with
  | () -> Alcotest.fail "drift not caught"
  | exception Faults.Watchdog.Invariant_violation d ->
    check_int "step named" 2 d.Faults.Watchdog.step;
    check_bool "kind" true (d.Faults.Watchdog.kind = Faults.Watchdog.Conservation));
  Faults.Watchdog.adjust_expected w 1;
  Faults.Watchdog.check w ~step:3 ~loads:[| 4; 7 |];
  check_int "checks counted" 3 (Faults.Watchdog.checks w)

let test_watchdog_negative_and_range () =
  let w =
    Faults.Watchdog.create ~name:"nl" ~never_negative:true ~expected_total:0 ()
  in
  (match Faults.Watchdog.check w ~step:5 ~loads:[| 3; -3 |] with
  | () -> Alcotest.fail "negative load not caught"
  | exception Faults.Watchdog.Invariant_violation d ->
    check_bool "kind" true (d.Faults.Watchdog.kind = Faults.Watchdog.Negative_load);
    check_bool "node named" true (d.Faults.Watchdog.node = Some 1));
  let state = [| 0; 3; 7 |] in
  let w =
    Faults.Watchdog.create ~state_range:(0, 4)
      ~state_sources:[ (fun () -> state) ]
      ~name:"rotor" ~never_negative:false ~expected_total:6 ()
  in
  match Faults.Watchdog.check w ~step:9 ~loads:[| 2; 2; 2 |] with
  | () -> Alcotest.fail "out-of-range state not caught"
  | exception Faults.Watchdog.Invariant_violation d ->
    check_bool "kind" true (d.Faults.Watchdog.kind = Faults.Watchdog.State_range);
    check_bool "node named" true (d.Faults.Watchdog.node = Some 2)

(* ---------- Engine ---------- *)

let episode_key (e : Faults.Engine.episode) =
  ( e.Faults.Engine.step,
    e.Faults.Engine.events,
    e.Faults.Engine.pre_discrepancy,
    e.Faults.Engine.shock_discrepancy,
    e.Faults.Engine.worst_discrepancy,
    e.Faults.Engine.recovered_at )

let run_faulted ?mode ?eps ~graph ~plan ~init ~steps () =
  Faults.Engine.run ?mode ?eps ~graph
    ~make_balancer:(fun () ->
      Core.Rotor_router.make graph ~self_loops:(Graphs.Graph.degree graph))
    ~plan ~init ~steps ()

let test_replayable_and_shard_equivalent () =
  let g = Graphs.Gen.torus [ 5; 5 ] in
  let init = Core.Loads.point_mass ~n:25 ~total:2500 in
  let specs =
    match Faults.Schedule.parse "crash:0.2@10:wipe:lose; outage:0.2@20+6; shock:80@35" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let plan = Faults.Schedule.realize ~seed:7 ~graph:g specs in
  let r1 = run_faulted ~graph:g ~plan ~init ~steps:60 () in
  let r2 = run_faulted ~graph:g ~plan ~init ~steps:60 () in
  let shard mode_shards =
    run_faulted
      ~mode:
        (Faults.Engine.Sharded
           { shards = mode_shards; strategy = Shard.Partition.Contiguous })
      ~graph:g ~plan ~init ~steps:60 ()
  in
  let r4 = shard 4 in
  let r3 = shard 3 in
  Alcotest.(check (array int))
    "run-to-run final loads" r1.Faults.Engine.result.Core.Engine.final_loads
    r2.Faults.Engine.result.Core.Engine.final_loads;
  List.iter
    (fun (label, r) ->
      Alcotest.(check (array int))
        (label ^ ": final loads") r1.Faults.Engine.result.Core.Engine.final_loads
        r.Faults.Engine.result.Core.Engine.final_loads;
      check_bool (label ^ ": episodes") true
        (List.map episode_key r1.Faults.Engine.episodes
        = List.map episode_key r.Faults.Engine.episodes);
      check_int (label ^ ": lost") r1.Faults.Engine.lost r.Faults.Engine.lost)
    [ ("rerun", r2); ("4 shards", r4); ("3 shards", r3) ]

let test_ledger_exact () =
  let g = Graphs.Gen.cycle 16 in
  let init = Array.make 16 10 in
  let plan =
    Faults.Schedule.
      [
        { step = 3; event = Crash { node = 2; state = Keep_state; tokens = Lose_tokens } };
        { step = 3; event = Crash { node = 9; state = Keep_state; tokens = Spill_tokens } };
        { step = 6; event = Load_shock { node = 0; amount = 37 } };
      ]
  in
  let r = run_faulted ~graph:g ~plan ~init ~steps:20 () in
  check_int "lost = node 2's 10 tokens" 10 r.Faults.Engine.lost;
  check_int "spilled = node 9's 10 tokens" 10 r.Faults.Engine.spilled;
  check_int "injected" 37 r.Faults.Engine.injected;
  check_int "initial total" 160 r.Faults.Engine.initial_total;
  check_int "final = initial + injected - lost" (160 + 37 - 10)
    r.Faults.Engine.final_total;
  check_int "watchdog ran every step" 20 r.Faults.Engine.watchdog_checks;
  check_int "two episodes" 2 (List.length r.Faults.Engine.episodes)

let test_recovery_measured () =
  let g = Graphs.Gen.hypercube 4 in
  let n = 16 in
  (* Start uniform, crash one heavy corner: recovery back to a flat
     profile is fast on the hypercube. *)
  let init = Array.make n 50 in
  let plan =
    Faults.Schedule.
      [ { step = 5; event = Crash { node = 0; state = Wipe_state; tokens = Lose_tokens } } ]
  in
  let r = run_faulted ~graph:g ~plan ~init ~steps:200 () in
  (match r.Faults.Engine.episodes with
  | [ e ] ->
    (* Rotor remainder rotation keeps a small transient ripple even from
       a uniform start; the crash craters one node by ~50. *)
    check_bool "pre-discrepancy near flat" true (e.Faults.Engine.pre_discrepancy <= 4);
    check_bool "shock is the crater" true (e.Faults.Engine.shock_discrepancy >= 40);
    check_bool "recovered" true (e.Faults.Engine.recovered_at <> None);
    (match Faults.Engine.steps_to_recover e with
    | Some k -> check_bool "took at least a step" true (k >= 1)
    | None -> Alcotest.fail "no recovery count");
    check_bool "worst >= shock" true
      (e.Faults.Engine.worst_discrepancy >= e.Faults.Engine.shock_discrepancy)
  | es -> Alcotest.failf "expected 1 episode, got %d" (List.length es));
  check_bool "report says recovered" true (Faults.Engine.all_recovered r);
  check_bool "report renders" true (List.length (Faults.Engine.report_lines r) >= 3)

let test_shock_within_band_is_instant_recovery () =
  let g = Graphs.Gen.cycle 8 in
  let init = Array.make 8 5 in
  let plan =
    Faults.Schedule.[ { step = 4; event = Load_shock { node = 3; amount = 1 } } ]
  in
  let r = run_faulted ~eps:2 ~graph:g ~plan ~init ~steps:10 () in
  match r.Faults.Engine.episodes with
  | [ e ] -> (
    match Faults.Engine.steps_to_recover e with
    | Some 0 -> ()
    | other ->
      Alcotest.failf "expected instant recovery, got %s"
        (match other with None -> "none" | Some k -> string_of_int k))
  | _ -> Alcotest.fail "expected 1 episode"

let test_outage_conserves_and_expires () =
  let g = Graphs.Gen.cycle 10 in
  let init = Core.Loads.point_mass ~n:10 ~total:1000 in
  let plan =
    Faults.Schedule.
      [
        { step = 2; event = Edge_outage { node = 0; port = 0; last_step = 6 } };
        {
          step = 2;
          event =
            Edge_outage
              {
                node = Graphs.Graph.neighbor g 0 0;
                port = Graphs.Graph.reverse_port g 0 0;
                last_step = 6;
              };
        };
      ]
  in
  let faulted = run_faulted ~graph:g ~plan ~init ~steps:80 () in
  let clean = run_faulted ~graph:g ~plan:[] ~init ~steps:80 () in
  check_int "outage conserves mass" 1000 faulted.Faults.Engine.final_total;
  (* The severed edge perturbs the flow while down... *)
  check_bool "outage perturbs the run" true
    (faulted.Faults.Engine.result.Core.Engine.series
    <> clean.Faults.Engine.result.Core.Engine.series);
  (* ...but once restored the rotor-router still balances to the same
     discrepancy band (cycle: within O(d) = O(1) of clean). *)
  let final_disc r =
    Core.Loads.discrepancy r.Faults.Engine.result.Core.Engine.final_loads
  in
  check_bool "balances after restoration" true
    (final_disc faulted <= final_disc clean + 2 * Graphs.Graph.degree g)

let test_fault_injection_detected_by_watchdog () =
  (* Corrupt the run behind the ledger's back: a hook that teleports a
     token in must trip the conservation check at the next step. *)
  let g = Graphs.Gen.cycle 6 in
  let init = Array.make 6 4 in
  check_bool "corruption caught" true
    (try
       ignore
         (Faults.Engine.run ~graph:g
            ~make_balancer:(fun () -> Core.Send_floor.make g ~self_loops:1)
            ~plan:[]
            ~hook:(fun t loads -> if t = 3 then loads.(0) <- loads.(0) + 1)
            ~init ~steps:10 ());
       false
     with Faults.Watchdog.Invariant_violation d ->
       d.Faults.Watchdog.kind = Faults.Watchdog.Conservation
       && d.Faults.Watchdog.step = 4)

(* A rotor-router* whose saved state shows node 0's rotor at 2d − 1.
   Its rotor turns over the 2d − 1 ports other than the special
   self-loop, so that is one past the last position, although it is
   below d⁺ = 2d. *)
let stuck_star g =
  let b = Core.Rotor_router_star.make g in
  match b.Core.Balancer.persist with
  | None -> Alcotest.fail "rotor-router* without persistence"
  | Some p ->
    let state_save () =
      let s = p.Core.Balancer.state_save () in
      s.(0) <- (2 * Graphs.Graph.degree g) - 1;
      s
    in
    { b with Core.Balancer.persist = Some { p with Core.Balancer.state_save } }

let test_star_state_range () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Array.make 16 9 in
  match
    Faults.Engine.run ~graph:g ~make_balancer:(fun () -> stuck_star g) ~plan:[] ~init
      ~steps:3 ()
  with
  | _ -> Alcotest.fail "rotor-router* state 2d - 1 not flagged"
  | exception Faults.Watchdog.Invariant_violation d ->
    check_bool "kind" true (d.Faults.Watchdog.kind = Faults.Watchdog.State_range);
    check_bool "node named" true (d.Faults.Watchdog.node = Some 0);
    Alcotest.(check string) "range" "state 7 outside [0, 7)" d.Faults.Watchdog.detail

(* Both engines validate a plan through Faults.Apply: every bad plan is
   rejected by each, and so is a step-1 event in a zero-step run. *)
let test_plan_validation () =
  let g = Graphs.Gen.cycle 4 in
  let init = Array.make 4 1 in
  let engines =
    [
      ("", "Faults.Engine.run", fun ~plan ~steps ->
          ignore (run_faulted ~graph:g ~plan ~init ~steps ()));
      ("net: ", "Net.Async_engine.run", fun ~plan ~steps ->
          ignore
            (Net.Async_engine.run ~plan ~graph:g
               ~balancer:(Core.Rotor_router.make g ~self_loops:2)
               ~init ~steps ()));
    ]
  in
  List.iter
    (fun (prefix, fn, run) ->
      List.iter
        (fun (label, plan) ->
          check_bool (prefix ^ label) true
            (try
               run ~plan ~steps:5;
               false
             with Invalid_argument _ -> true))
        Faults.Schedule.
          [
            ( "step out of range",
              [ { step = 9; event = Load_shock { node = 0; amount = 1 } } ] );
            ( "node out of range",
              [ { step = 1; event = Load_shock { node = 7; amount = 1 } } ] );
            ( "port out of range",
              [ { step = 1; event = Edge_outage { node = 0; port = 5; last_step = 2 } } ]
            );
          ];
      Alcotest.check_raises (prefix ^ "step 1 of a zero-step run")
        (Invalid_argument (fn ^ ": fault at step 1 outside [1, 0]"))
        (fun () ->
          run
            ~plan:
              [
                {
                  Faults.Schedule.step = 1;
                  event = Faults.Schedule.Load_shock { node = 0; amount = 100 };
                };
              ]
            ~steps:0))
    engines

let prop_sequential_equals_sharded_under_faults =
  QCheck.Test.make
    ~name:"faulted runs: sequential ≡ sharded final loads and episodes" ~count:15
    QCheck.(triple (int_range 0 1000) (int_range 1 6) (int_range 2 5))
    (fun (seed, fault_step, shards) ->
      let g = Graphs.Gen.torus [ 4; 4 ] in
      let init = Core.Loads.uniform_random (Prng.Splitmix.create 11) ~n:16 ~total:800 in
      let specs =
        match
          Faults.Schedule.parse
            (Printf.sprintf "crash:0.2@%d:wipe:spill; shock:50@%d" fault_step
               (fault_step + 3))
        with
        | Ok s -> s
        | Error m -> failwith m
      in
      let plan = Faults.Schedule.realize ~seed ~graph:g specs in
      let seq = run_faulted ~graph:g ~plan ~init ~steps:25 () in
      let par =
        run_faulted
          ~mode:(Faults.Engine.Sharded { shards; strategy = Shard.Partition.Bfs_blocks })
          ~graph:g ~plan ~init ~steps:25 ()
      in
      seq.Faults.Engine.result.Core.Engine.final_loads
      = par.Faults.Engine.result.Core.Engine.final_loads
      && List.map episode_key seq.Faults.Engine.episodes
         = List.map episode_key par.Faults.Engine.episodes)

let () =
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          Alcotest.test_case "parse round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "defaults and rejects" `Quick
            test_parse_defaults_and_errors;
          Alcotest.test_case "realize is seeded-deterministic" `Quick
            test_realize_deterministic;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "conservation ledger" `Quick test_watchdog_conservation;
          Alcotest.test_case "negative load and state range" `Quick
            test_watchdog_negative_and_range;
        ] );
      ( "engine",
        [
          Alcotest.test_case "replayable, shard-equivalent" `Quick
            test_replayable_and_shard_equivalent;
          Alcotest.test_case "token ledger exact" `Quick test_ledger_exact;
          Alcotest.test_case "recovery measured" `Quick test_recovery_measured;
          Alcotest.test_case "in-band shock recovers instantly" `Quick
            test_shock_within_band_is_instant_recovery;
          Alcotest.test_case "outage conserves and expires" `Quick
            test_outage_conserves_and_expires;
          Alcotest.test_case "watchdog catches corruption" `Quick
            test_fault_injection_detected_by_watchdog;
          Alcotest.test_case "rotor-router* state range" `Quick test_star_state_range;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          QCheck_alcotest.to_alcotest prop_sequential_equals_sharded_under_faults;
        ] );
    ]
