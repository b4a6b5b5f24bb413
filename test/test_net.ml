(* Tests for the unreliable-network layer: channel faults, the
   exactly-once protocol, and the async engine's equivalence to the
   synchronous core on a reliable network. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Reliable network ≡ Core.Engine, bit for bit                         *)
(* ------------------------------------------------------------------ *)

(* Fresh balancer instances per run: stateful balancers (rotor pointers)
   must not leak state between the reference and the network run. *)
let equivalence_cases =
  [
    ("cycle(17)", fun () -> Graphs.Gen.cycle 17);
    ("torus(6x6)", fun () -> Graphs.Gen.torus [ 6; 6 ]);
    ("hypercube(5)", fun () -> Graphs.Gen.hypercube 5);
    ("rand-reg(24,4)", fun () -> Graphs.Gen.random_regular (Prng.Splitmix.create 3) ~n:24 ~d:4);
  ]

let balancers g =
  let d = Graphs.Graph.degree g in
  [
    (fun () -> Core.Rotor_router.make g ~self_loops:d);
    (fun () -> Core.Rotor_router_star.make g);
    (fun () -> Core.Send_floor.make g ~self_loops:1);
    (fun () -> Core.Send_round.make g ~self_loops:(2 * d));
  ]

let test_reliable_equivalence () =
  List.iter
    (fun (label, mk_graph) ->
      let g = mk_graph () in
      let n = Graphs.Graph.n g in
      let init = Core.Loads.point_mass ~n ~total:(13 * n) in
      List.iter
        (fun make_balancer ->
          let reference =
            Core.Engine.run ~graph:g ~balancer:(make_balancer ()) ~init ~steps:60 ()
          in
          let report =
            Net.Async_engine.run ~graph:g ~balancer:(make_balancer ()) ~init
              ~steps:60 ()
          in
          let r = report.Net.Async_engine.result in
          Alcotest.(check (array int))
            (label ^ ": final loads bit-identical")
            reference.Core.Engine.final_loads r.Core.Engine.final_loads;
          Alcotest.(check (array (pair int int)))
            (label ^ ": series bit-identical")
            reference.Core.Engine.series r.Core.Engine.series;
          check_int (label ^ ": min load") reference.Core.Engine.min_load_seen
            r.Core.Engine.min_load_seen;
          check_int (label ^ ": no drain needed") 0
            report.Net.Async_engine.drain_rounds;
          check_int (label ^ ": nothing degraded") 0
            report.Net.Async_engine.degraded_rounds;
          check_bool (label ^ ": conserved") true
            (Net.Async_engine.conserved report))
        (balancers g))
    equivalence_cases

(* ------------------------------------------------------------------ *)
(* Protocol guarantees                                                 *)
(* ------------------------------------------------------------------ *)

let lossy_config ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0) ?(delay = 0)
    ?(staleness = 0) ?(seed = 11) () =
  {
    Net.Async_engine.default_config with
    Net.Async_engine.channel = { Net.Channel.drop; dup; reorder; delay };
    staleness;
    seed;
  }

let test_exactly_once_under_dup_and_reorder () =
  (* Duplication and reordering but no loss: every token must be applied
     exactly once, so the drained run conserves and the receiver
     discards every duplicate copy. *)
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let n = 36 in
  let init = Core.Loads.point_mass ~n ~total:720 in
  let report =
    Net.Async_engine.run
      ~config:(lossy_config ~dup:0.3 ~reorder:0.3 ~delay:2 ~staleness:2 ())
      ~graph:g
      ~balancer:(Core.Send_floor.make g ~self_loops:1)
      ~init ~steps:50 ()
  in
  check_bool "drained" true report.Net.Async_engine.drained;
  check_bool "conserved" true (Net.Async_engine.conserved report);
  check_int "total preserved" 720 report.Net.Async_engine.final_total;
  let c = report.Net.Async_engine.channel_stats in
  let p = report.Net.Async_engine.protocol_stats in
  check_bool "channel did duplicate" true (c.Net.Channel.duplicated > 0);
  check_bool "receiver discarded duplicates" true
    (p.Net.Protocol.duplicates_discarded > 0);
  check_bool "reordering was seen" true (p.Net.Protocol.out_of_order > 0)

let test_ledger_exact_under_drops_and_outage () =
  (* Heavy loss plus a scheduled outage: retransmission must recover
     every dropped token; the watchdog audits Σ loads + in-flight at
     every round, so a single lost token fails the run loudly. *)
  let g = Graphs.Gen.hypercube 5 in
  let n = 32 in
  let init = Core.Loads.point_mass ~n ~total:960 in
  let plan =
    [
      { Faults.Schedule.step = 10;
        event = Faults.Schedule.Edge_outage { node = 0; port = 1; last_step = 25 } };
      { Faults.Schedule.step = 12;
        event = Faults.Schedule.Edge_outage { node = 7; port = 0; last_step = 20 } };
    ]
  in
  let report =
    Net.Async_engine.run
      ~config:(lossy_config ~drop:0.25 ~staleness:1 ())
      ~plan ~graph:g
      ~balancer:(Core.Rotor_router.make g ~self_loops:5)
      ~init ~steps:60 ()
  in
  check_bool "drained" true report.Net.Async_engine.drained;
  check_bool "conserved" true (Net.Async_engine.conserved report);
  let c = report.Net.Async_engine.channel_stats in
  check_bool "drops happened" true (c.Net.Channel.dropped > 0);
  check_bool "outage dropped traffic" true (c.Net.Channel.outage_dropped > 0);
  check_bool "retransmissions recovered them" true
    (report.Net.Async_engine.protocol_stats.Net.Protocol.retransmissions
     >= c.Net.Channel.dropped)

let run_lossy_with_trace seed =
  let g = Graphs.Gen.torus [ 5; 5 ] in
  let init = Core.Loads.point_mass ~n:25 ~total:500 in
  let events = ref [] in
  let report =
    Net.Async_engine.run
      ~config:(lossy_config ~drop:0.15 ~dup:0.1 ~reorder:0.2 ~delay:3 ~staleness:2 ~seed ())
      ~on_message:(fun e -> events := e :: !events)
      ~graph:g
      ~balancer:(Core.Rotor_router.make g ~self_loops:4)
      ~init ~steps:40 ()
  in
  (report, List.rev !events)

let test_lossy_replay_is_deterministic () =
  let r1, ev1 = run_lossy_with_trace 77 in
  let r2, ev2 = run_lossy_with_trace 77 in
  Alcotest.(check (array int))
    "identical final loads" r1.Net.Async_engine.result.Core.Engine.final_loads
    r2.Net.Async_engine.result.Core.Engine.final_loads;
  check_int "identical message streams" (List.length ev1) (List.length ev2);
  List.iter2
    (fun (a : Trace.message_event) b ->
      check_bool "event equal" true (a = b))
    ev1 ev2;
  check_int "identical retransmission counts"
    r1.Net.Async_engine.protocol_stats.Net.Protocol.retransmissions
    r2.Net.Async_engine.protocol_stats.Net.Protocol.retransmissions;
  (* A different seed must produce a different fault pattern (the odds
     of a collision on thousands of packets are negligible). *)
  let r3, _ = run_lossy_with_trace 78 in
  check_bool "different seed differs" true
    (r1.Net.Async_engine.channel_stats.Net.Channel.dropped
     <> r3.Net.Async_engine.channel_stats.Net.Channel.dropped
    || r1.Net.Async_engine.result.Core.Engine.final_loads
       <> r3.Net.Async_engine.result.Core.Engine.final_loads)

let test_fixed_vs_exponential_backoff () =
  let run backoff =
    let g = Graphs.Gen.cycle 20 in
    let init = Core.Loads.point_mass ~n:20 ~total:400 in
    let config =
      {
        (lossy_config ~drop:0.3 ~seed:5 ()) with
        Net.Async_engine.protocol =
          { Net.Protocol.timeout = 2; backoff; cap = 16 };
      }
    in
    Net.Async_engine.run ~config ~graph:g
      ~balancer:(Core.Send_floor.make g ~self_loops:1)
      ~init ~steps:40 ()
  in
  let fixed = run Net.Protocol.Fixed in
  let exp = run Net.Protocol.Exponential in
  check_bool "fixed drains" true fixed.Net.Async_engine.drained;
  check_bool "exponential drains" true exp.Net.Async_engine.drained;
  check_bool "both conserve" true
    (Net.Async_engine.conserved fixed && Net.Async_engine.conserved exp)

let test_staleness_gates_balancing () =
  (* With σ = 0 and real delays, nodes waiting on in-flight messages
     must either degrade (balance on held load) or stall. *)
  let g = Graphs.Gen.torus [ 5; 5 ] in
  let init = Core.Loads.point_mass ~n:25 ~total:500 in
  let run degrade =
    Net.Async_engine.run
      ~config:
        { (lossy_config ~delay:3 ~seed:4 ()) with Net.Async_engine.degrade = degrade }
      ~graph:g
      ~balancer:(Core.Send_floor.make g ~self_loops:1)
      ~init ~steps:30 ()
  in
  let degraded = run true in
  check_bool "degrade mode balances on stale info" true
    (degraded.Net.Async_engine.degraded_rounds > 0);
  check_int "degrade mode never stalls" 0 degraded.Net.Async_engine.stalled_rounds;
  let stalled = run false in
  check_bool "strict mode stalls instead" true
    (stalled.Net.Async_engine.stalled_rounds > 0);
  check_int "strict mode never degrades" 0 stalled.Net.Async_engine.degraded_rounds;
  check_bool "both conserve" true
    (Net.Async_engine.conserved degraded && Net.Async_engine.conserved stalled)

let test_invalid_configs_rejected () =
  let g = Graphs.Gen.cycle 8 in
  let init = Core.Loads.flat ~n:8 ~value:4 in
  let balancer () = Core.Send_floor.make g ~self_loops:1 in
  let expect_invalid label config =
    match
      Net.Async_engine.run ~config ~graph:g ~balancer:(balancer ()) ~init
        ~steps:5 ()
    with
    | _ -> Alcotest.fail (label ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "drop = 1" (lossy_config ~drop:1.0 ());
  expect_invalid "negative delay" (lossy_config ~delay:(-1) ());
  expect_invalid "negative staleness"
    { Net.Async_engine.default_config with Net.Async_engine.staleness = -1 };
  expect_invalid "zero timeout"
    {
      Net.Async_engine.default_config with
      Net.Async_engine.protocol =
        { Net.Protocol.timeout = 0; backoff = Net.Protocol.Fixed; cap = 4 };
    }

(* ------------------------------------------------------------------ *)
(* Property: conservation for every balancer under random faults       *)
(* ------------------------------------------------------------------ *)

let algo_specs d =
  [
    Harness.Experiment.Rotor_router { self_loops = d };
    Harness.Experiment.Rotor_router_star;
    Harness.Experiment.Send_floor { self_loops = 1 };
    Harness.Experiment.Send_round { self_loops = 2 * d };
    Harness.Experiment.Mimic { self_loops = d };
    Harness.Experiment.Random_extra { self_loops = d; seed = 13 };
    Harness.Experiment.Random_rounding { self_loops = d; seed = 13 };
  ]

let prop_retx_delay_backoff =
  (* retx_delay is the single source of truth for ARQ backoff (simulated
     rounds in Net.Protocol, real-time seconds in the dist runtime), so
     pin down its shape: monotone non-decreasing in the retry count,
     never below the base timeout, never above the cap (once the cap
     dominates the base), and a pure function of its arguments. *)
  QCheck.Test.make ~name:"retx_delay monotone, capped, deterministic" ~count:200
    QCheck.(triple (int_range 1 64) (int_range 1 1024) bool)
    (fun (timeout, cap_extra, exp) ->
      let cap = timeout + cap_extra in
      let config =
        {
          Net.Protocol.timeout;
          backoff = (if exp then Net.Protocol.Exponential else Net.Protocol.Fixed);
          cap;
        }
      in
      let delays = List.init 64 (fun r -> Net.Protocol.retx_delay config ~retries:r) in
      let monotone =
        List.for_all2
          (fun a b -> a <= b)
          (List.filteri (fun i _ -> i < 63) delays)
          (List.tl delays)
      in
      let bounded = List.for_all (fun d -> d >= timeout && d <= cap) delays in
      let capped = List.nth delays 63 <= cap in
      let deterministic =
        List.for_all2 ( = ) delays
          (List.init 64 (fun r -> Net.Protocol.retx_delay config ~retries:r))
      in
      let fixed_flat =
        exp || List.for_all (fun d -> d = timeout) delays
      in
      monotone && bounded && capped && deterministic && fixed_flat)

let prop_conservation_under_random_faults =
  (* 50 seeded iterations; each picks a graph, a channel-fault config, a
     staleness window, a retry policy and a random fault plan, then runs
     EVERY registered balancer spec through the async engine with the
     watchdog on.  The ledger must balance exactly after the final
     drain, for all of them. *)
  QCheck.Test.make ~name:"ledger exact for every balancer under random faults"
    ~count:50 QCheck.(int_range 0 1_000_000)
    (fun case_seed ->
      let rng = Prng.Splitmix.create case_seed in
      let graph =
        match Prng.Splitmix.int rng 4 with
        | 0 -> Graphs.Gen.cycle (8 + Prng.Splitmix.int rng 12)
        | 1 -> Graphs.Gen.torus [ 5; 5 ]
        | 2 -> Graphs.Gen.hypercube 5
        | _ ->
          Graphs.Gen.random_regular
            (Prng.Splitmix.create (1 + Prng.Splitmix.int rng 100))
            ~n:24 ~d:4
      in
      let n = Graphs.Graph.n graph in
      let d = Graphs.Graph.degree graph in
      let steps = 30 in
      let config =
        {
          Net.Async_engine.channel =
            {
              Net.Channel.drop = 0.4 *. Prng.Splitmix.float rng 1.0;
              dup = 0.2 *. Prng.Splitmix.float rng 1.0;
              reorder = 0.3 *. Prng.Splitmix.float rng 1.0;
              delay = Prng.Splitmix.int rng 4;
            };
          protocol =
            {
              Net.Protocol.timeout = 1 + Prng.Splitmix.int rng 4;
              backoff =
                (if Prng.Splitmix.bool rng then Net.Protocol.Fixed
                 else Net.Protocol.Exponential);
              cap = 32;
            };
          staleness = Prng.Splitmix.int rng 3;
          (* degrade=true: strict stalling can skip a whole round, which
             balancers that demand consecutive steps (mimic) reject. *)
          degrade = true;
          seed = Prng.Splitmix.int rng 1_000_000;
          max_drain_rounds = 100_000;
        }
      in
      let plan =
        List.concat_map
          (fun _ ->
            let step = 1 + Prng.Splitmix.int rng steps in
            match Prng.Splitmix.int rng 3 with
            | 0 ->
              [
                {
                  Faults.Schedule.step;
                  event =
                    Faults.Schedule.Crash
                      {
                        node = Prng.Splitmix.int rng n;
                        state =
                          (if Prng.Splitmix.bool rng then Faults.Schedule.Wipe_state
                           else Faults.Schedule.Keep_state);
                        tokens =
                          (if Prng.Splitmix.bool rng then Faults.Schedule.Lose_tokens
                           else Faults.Schedule.Spill_tokens);
                      };
                };
              ]
            | 1 ->
              [
                {
                  Faults.Schedule.step;
                  event =
                    Faults.Schedule.Load_shock
                      { node = Prng.Splitmix.int rng n;
                        amount = 1 + Prng.Splitmix.int rng 200 };
                };
              ]
            | _ ->
              [
                {
                  Faults.Schedule.step;
                  event =
                    Faults.Schedule.Edge_outage
                      {
                        node = Prng.Splitmix.int rng n;
                        port = Prng.Splitmix.int rng d;
                        last_step = step + Prng.Splitmix.int rng 10;
                      };
                };
              ])
          (List.init (Prng.Splitmix.int rng 4) Fun.id)
      in
      let init = Core.Loads.random_composition rng ~n ~total:(12 * n) in
      List.for_all
        (fun spec ->
          let balancer = Harness.Experiment.build_balancer spec graph ~init in
          let report =
            Net.Async_engine.run ~config ~plan ~graph ~balancer ~init ~steps ()
          in
          report.Net.Async_engine.drained
          && report.Net.Async_engine.final_total
             = report.Net.Async_engine.initial_total
               + report.Net.Async_engine.injected - report.Net.Async_engine.lost)
        (algo_specs d))

(* Both engines apply crashes and shocks through Faults.Apply, so on a
   reliable network with σ = 0 a faulted run must end exactly where the
   sequential fault engine ends.  Outages are left out: the fault
   engine keeps a dead port's tokens home, the network retransmits
   them once the link is back. *)
let prop_matches_fault_engine =
  QCheck.Test.make ~name:"reliable network ≡ fault engine under crashes and shocks"
    ~count:30 QCheck.(int_range 0 1_000_000)
    (fun case_seed ->
      let rng = Prng.Splitmix.create case_seed in
      let graph =
        match Prng.Splitmix.int rng 3 with
        | 0 -> Graphs.Gen.cycle (8 + Prng.Splitmix.int rng 12)
        | 1 -> Graphs.Gen.torus [ 4; 4 ]
        | _ -> Graphs.Gen.hypercube 4
      in
      let n = Graphs.Graph.n graph in
      let d = Graphs.Graph.degree graph in
      let steps = 25 in
      let plan =
        List.init (1 + Prng.Splitmix.int rng 4) (fun _ ->
            let step = 1 + Prng.Splitmix.int rng steps in
            let node = Prng.Splitmix.int rng n in
            let event =
              if Prng.Splitmix.bool rng then
                Faults.Schedule.Crash
                  {
                    node;
                    state =
                      (if Prng.Splitmix.bool rng then Faults.Schedule.Wipe_state
                       else Faults.Schedule.Keep_state);
                    tokens =
                      (if Prng.Splitmix.bool rng then Faults.Schedule.Lose_tokens
                       else Faults.Schedule.Spill_tokens);
                  }
              else
                Faults.Schedule.Load_shock
                  { node; amount = 1 + Prng.Splitmix.int rng 200 }
            in
            { Faults.Schedule.step; event })
      in
      let init = Core.Loads.random_composition rng ~n ~total:(12 * n) in
      List.for_all
        (fun spec ->
          let make_balancer () = Harness.Experiment.build_balancer spec graph ~init in
          let f =
            Faults.Engine.run ~graph ~make_balancer ~plan ~init ~steps ()
          in
          let r =
            Net.Async_engine.run ~plan ~graph ~balancer:(make_balancer ()) ~init
              ~steps ()
          in
          f.Faults.Engine.result.Core.Engine.final_loads
          = r.Net.Async_engine.result.Core.Engine.final_loads
          && f.Faults.Engine.injected = r.Net.Async_engine.injected
          && f.Faults.Engine.lost = r.Net.Async_engine.lost
          && f.Faults.Engine.spilled = r.Net.Async_engine.spilled)
        (List.filter
           (function Harness.Experiment.Mimic _ -> false | _ -> true)
           (algo_specs d)))

(* A rotor-router* whose saved state shows node 0's rotor at 2d − 1,
   one past the last of the 2d − 1 positions its rotor turns over: the
   network watchdog must flag it like the fault layer's. *)
let test_star_state_range () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let b = Core.Rotor_router_star.make g in
  let balancer =
    match b.Core.Balancer.persist with
    | None -> Alcotest.fail "rotor-router* without persistence"
    | Some p ->
      let state_save () =
        let s = p.Core.Balancer.state_save () in
        s.(0) <- (2 * Graphs.Graph.degree g) - 1;
        s
      in
      { b with Core.Balancer.persist = Some { p with Core.Balancer.state_save } }
  in
  match Net.Async_engine.run ~graph:g ~balancer ~init:(Array.make 16 9) ~steps:3 () with
  | _ -> Alcotest.fail "rotor-router* state 2d - 1 not flagged"
  | exception Faults.Watchdog.Invariant_violation d ->
    check_bool "kind" true (d.Faults.Watchdog.kind = Faults.Watchdog.State_range);
    check_bool "node named" true (d.Faults.Watchdog.node = Some 0);
    Alcotest.(check string) "range" "state 7 outside [0, 7)" d.Faults.Watchdog.detail

let () =
  Alcotest.run "net"
    [
      ( "equivalence",
        [ Alcotest.test_case "reliable ≡ core engine" `Quick test_reliable_equivalence ] );
      ( "protocol",
        [
          Alcotest.test_case "exactly-once under dup+reorder" `Quick
            test_exactly_once_under_dup_and_reorder;
          Alcotest.test_case "ledger exact under drops+outage" `Quick
            test_ledger_exact_under_drops_and_outage;
          Alcotest.test_case "lossy replay deterministic" `Quick
            test_lossy_replay_is_deterministic;
          Alcotest.test_case "fixed vs exponential backoff" `Quick
            test_fixed_vs_exponential_backoff;
          Alcotest.test_case "staleness gates balancing" `Quick
            test_staleness_gates_balancing;
          Alcotest.test_case "invalid configs rejected" `Quick
            test_invalid_configs_rejected;
          Alcotest.test_case "rotor-router* state range" `Quick test_star_state_range;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_retx_delay_backoff;
          QCheck_alcotest.to_alcotest prop_conservation_under_random_faults;
          QCheck_alcotest.to_alcotest prop_matches_fault_engine;
        ] );
    ]
