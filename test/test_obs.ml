(* Tests for lib/obs: the metrics registry, snapshot timeline, profiler,
   engine probes (including the φ/φ′ cross-check against
   Core.Potential), the Prometheus/JSONL export — and the property the
   whole subsystem stands on: probes only observe, so every engine is
   bit-identical with probes on and off. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Metrics --- *)

let test_counter () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:r "lb_test_total" in
  check_int "fresh" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.inc c 3;
  Obs.Metrics.inc c 4;
  check_int "after incs" 7 (Obs.Metrics.counter_value c);
  check_bool "negative inc rejected" true
    (try
       Obs.Metrics.inc c (-1);
       false
     with Invalid_argument _ -> true);
  (* set_counter mirrors an external monotone value and never rewinds. *)
  Obs.Metrics.set_counter c 5;
  check_int "set_counter cannot rewind" 7 (Obs.Metrics.counter_value c);
  Obs.Metrics.set_counter c 12;
  check_int "set_counter advances" 12 (Obs.Metrics.counter_value c)

let test_interning () =
  let r = Obs.Metrics.create () in
  let a = Obs.Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "lb_i_total" in
  let b = Obs.Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "lb_i_total" in
  Obs.Metrics.inc a 1;
  Obs.Metrics.inc b 1;
  check_int "same cell" 2 (Obs.Metrics.counter_value a);
  let other = Obs.Metrics.counter ~registry:r ~labels:[ ("k", "w") ] "lb_i_total" in
  check_int "different labels, different cell" 0 (Obs.Metrics.counter_value other);
  check_bool "kind clash rejected" true
    (try
       ignore (Obs.Metrics.gauge ~registry:r ~labels:[ ("k", "v") ] "lb_i_total");
       false
     with Invalid_argument _ -> true);
  check_bool "bad name rejected" true
    (try
       ignore (Obs.Metrics.counter ~registry:r "99 bad name");
       false
     with Invalid_argument _ -> true)

let test_gauge_and_reset () =
  let r = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge ~registry:r "lb_g" in
  Obs.Metrics.set g 4.25;
  check_float "gauge set" 4.25 (Obs.Metrics.gauge_value g);
  let c = Obs.Metrics.counter ~registry:r "lb_c_total" in
  Obs.Metrics.inc c 9;
  Obs.Metrics.reset ~registry:r ();
  check_float "gauge zeroed" 0.0 (Obs.Metrics.gauge_value g);
  check_int "counter zeroed" 0 (Obs.Metrics.counter_value c);
  (* Registration survives the reset: the handle still updates the
     registry's cell. *)
  Obs.Metrics.inc c 2;
  check_int "handle still live" 2 (Obs.Metrics.counter_value c)

let test_histogram () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~registry:r "lb_h_seconds" in
  List.iter (Obs.Metrics.observe h) [ 0.001; 0.003; 0.5; 100.0; 0.0 ];
  check_int "count" 5 (Obs.Metrics.histogram_count h);
  check_float "sum" 100.504 (Obs.Metrics.histogram_sum h);
  match Obs.Metrics.snapshot ~registry:r () with
  | [ { Obs.Metrics.value = Obs.Metrics.Histogram_value { cumulative; count; _ }; _ } ] ->
    check_int "snapshot count" 5 count;
    (* Cumulative counts are non-decreasing and end at (+inf, count). *)
    let rec monotone prev = function
      | [] -> Alcotest.fail "empty cumulative list"
      | [ (ub, c) ] ->
        check_bool "last bound is +inf" true (ub = infinity);
        check_int "last cumulative is total" 5 c
      | (_, c) :: rest ->
        check_bool "monotone" true (c >= prev);
        monotone c rest
    in
    monotone 0 cumulative
  | _ -> Alcotest.fail "expected exactly one histogram sample"

let test_snapshot_sorted () =
  let r = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter ~registry:r "lb_z_total");
  ignore (Obs.Metrics.counter ~registry:r "lb_a_total");
  ignore (Obs.Metrics.counter ~registry:r ~labels:[ ("engine", "b") ] "lb_m_total");
  ignore (Obs.Metrics.counter ~registry:r ~labels:[ ("engine", "a") ] "lb_m_total");
  let names =
    List.map (fun s -> (s.Obs.Metrics.name, s.Obs.Metrics.labels))
      (Obs.Metrics.snapshot ~registry:r ())
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "sorted by (name, labels)"
    [
      ("lb_a_total", []);
      ("lb_m_total", [ ("engine", "a") ]);
      ("lb_m_total", [ ("engine", "b") ]);
      ("lb_z_total", []);
    ]
    names

(* --- Timeline --- *)

let test_timeline_ring () =
  let t = Obs.Timeline.create ~capacity:3 in
  check_int "empty" 0 (Obs.Timeline.length t);
  Alcotest.(check (option int)) "no last" None (Obs.Timeline.last t);
  List.iter (Obs.Timeline.push t) [ 1; 2; 3 ];
  Alcotest.(check (array int)) "full, in order" [| 1; 2; 3 |] (Obs.Timeline.to_array t);
  List.iter (Obs.Timeline.push t) [ 4; 5 ];
  Alcotest.(check (array int)) "oldest overwritten" [| 3; 4; 5 |]
    (Obs.Timeline.to_array t);
  check_int "dropped" 2 (Obs.Timeline.dropped t);
  Alcotest.(check (option int)) "last" (Some 5) (Obs.Timeline.last t);
  Obs.Timeline.clear t;
  check_int "cleared" 0 (Obs.Timeline.length t);
  check_int "dropped reset" 0 (Obs.Timeline.dropped t);
  check_bool "capacity >= 1 enforced" true
    (try
       ignore (Obs.Timeline.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* --- Prof --- *)

let test_prof () =
  Obs.Prof.reset ();
  Obs.Prof.set_enabled false;
  check_int "disabled records nothing"
    0
    (Obs.Prof.time "ghost" (fun () -> List.length (Obs.Prof.phases ())));
  Obs.Prof.set_enabled true;
  for _ = 1 to 3 do
    Obs.Prof.time "work" (fun () -> Sys.opaque_identity (Array.make 64 0)) |> ignore
  done;
  let sp = Obs.Prof.start "other" in
  Obs.Prof.stop sp;
  (match Obs.Prof.phases () with
  | [] -> Alcotest.fail "no phases recorded"
  | phases ->
    check_int "two phases" 2 (List.length phases);
    let work = List.find (fun p -> p.Obs.Prof.name = "work") phases in
    check_int "calls accumulated" 3 work.Obs.Prof.calls;
    check_bool "time is non-negative" true (work.Obs.Prof.seconds >= 0.0);
    check_bool "allocation observed" true (work.Obs.Prof.minor_words > 0.0));
  (* Exception safety: the span still closes. *)
  (try Obs.Prof.time "boom" (fun () -> failwith "x") with Failure _ -> ());
  let boom = List.find (fun p -> p.Obs.Prof.name = "boom") (Obs.Prof.phases ()) in
  check_int "span closed on exception" 1 boom.Obs.Prof.calls;
  check_bool "report has lines" true (List.length (Obs.Prof.report_lines ()) > 2);
  Obs.Prof.set_enabled false;
  Obs.Prof.reset ();
  check_int "reset" 0 (List.length (Obs.Prof.phases ()))

(* --- Probe: potentials cross-check and timeline --- *)

let test_probe_potentials_match_core () =
  let prng = Prng.Splitmix.create 42 in
  let registry = Obs.Metrics.create () in
  for trial = 1 to 20 do
    let n = 4 + Prng.Splitmix.int prng 60 in
    let d_plus = 1 + Prng.Splitmix.int prng 12 in
    let loads = Array.init n (fun _ -> Prng.Splitmix.int prng 50) in
    Obs.Probe.enable ~registry ~every:1 ();
    Obs.Probe.on_round ~engine:"core" ~d_plus ~step:1 ~tokens_moved:0
      ~discrepancy:0 ~max_load:0 ~min_load:0 ~loads;
    let snap =
      match Obs.Probe.timeline () with
      | [| s |] -> s
      | a -> Alcotest.failf "expected 1 snapshot, got %d" (Array.length a)
    in
    Obs.Probe.disable ();
    let c = snap.Obs.Probe.c_threshold in
    check_int
      (Printf.sprintf "trial %d: phi matches Core.Potential.phi" trial)
      (Core.Potential.phi ~d_plus ~c loads)
      snap.Obs.Probe.phi;
    check_int
      (Printf.sprintf "trial %d: phi' matches Core.Potential.phi'" trial)
      (Core.Potential.phi' ~d_plus ~s:0 ~c loads)
      snap.Obs.Probe.phi_prime;
    check_int
      (Printf.sprintf "trial %d: total" trial)
      (Core.Loads.total loads) snap.Obs.Probe.total
  done

let test_probe_cadence_and_sink () =
  let registry = Obs.Metrics.create () in
  Obs.Probe.enable ~registry ~every:5 ~timeline_capacity:8 ();
  let sunk = ref [] in
  Obs.Probe.set_sink (Some (fun s -> sunk := s.Obs.Probe.step :: !sunk));
  let loads = [| 3; 1 |] in
  for step = 1 to 23 do
    Obs.Probe.on_round ~engine:"core" ~d_plus:2 ~step ~tokens_moved:1
      ~discrepancy:2 ~max_load:3 ~min_load:1 ~loads
  done;
  (* Snapshots land only on steps 5, 10, 15, 20 … *)
  Alcotest.(check (list int)) "sink saw the cadence" [ 20; 15; 10; 5 ] !sunk;
  check_int "timeline holds them" 4 (Array.length (Obs.Probe.timeline ()));
  (* … but the cheap counters saw every round. *)
  let rounds =
    Obs.Metrics.counter ~registry ~labels:[ ("engine", "core") ] "lb_rounds_total"
  in
  check_int "every round counted" 23 (Obs.Metrics.counter_value rounds);
  Obs.Probe.disable ();
  check_int "disabled timeline is empty" 0 (Array.length (Obs.Probe.timeline ()));
  (* Probes are inert when disabled. *)
  Obs.Probe.on_round ~engine:"core" ~d_plus:2 ~step:99 ~tokens_moved:1
    ~discrepancy:2 ~max_load:3 ~min_load:1 ~loads;
  check_int "no update while disabled" 23 (Obs.Metrics.counter_value rounds)

(* --- Export --- *)

let test_prometheus_format () =
  let registry = Obs.Metrics.create () in
  let c1 =
    Obs.Metrics.counter ~registry ~help:"Rounds." ~labels:[ ("engine", "core") ]
      "lb_rounds_total"
  in
  let c2 =
    Obs.Metrics.counter ~registry ~help:"Rounds." ~labels:[ ("engine", "net") ]
      "lb_rounds_total"
  in
  Obs.Metrics.inc c1 7;
  Obs.Metrics.inc c2 9;
  let g = Obs.Metrics.gauge ~registry ~help:"Gap with \"quotes\" and \\." "lb_gap" in
  Obs.Metrics.set g 1.5;
  let h = Obs.Metrics.histogram ~registry ~help:"H." "lb_h_seconds" in
  Obs.Metrics.observe h 0.25;
  let text = Obs.Export.prometheus ~registry () in
  check_bool "single HELP per metric name" true
    (contains ~needle:"# HELP lb_rounds_total Rounds." text
    && not
         (contains
            ~needle:
              "# HELP lb_rounds_total Rounds.\n\
               lb_rounds_total{engine=\"core\"} 7\n\
               # HELP lb_rounds_total"
            text));
  check_bool "TYPE counter" true (contains ~needle:"# TYPE lb_rounds_total counter" text);
  check_bool "core sample" true (contains ~needle:"lb_rounds_total{engine=\"core\"} 7" text);
  check_bool "net sample" true (contains ~needle:"lb_rounds_total{engine=\"net\"} 9" text);
  check_bool "gauge sample" true (contains ~needle:"lb_gap 1.5" text);
  check_bool "histogram bucket series" true (contains ~needle:"lb_h_seconds_bucket{le=" text);
  check_bool "+Inf bucket" true (contains ~needle:"le=\"+Inf\"} 1" text);
  check_bool "histogram sum" true (contains ~needle:"lb_h_seconds_sum 0.25" text);
  check_bool "histogram count" true (contains ~needle:"lb_h_seconds_count 1" text);
  check_bool "help escapes backslash" true
    (contains ~needle:"Gap with \"quotes\" and \\\\." text)

let test_export_write_and_json () =
  let registry = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter ~registry "lb_w_total") 3;
  let path = Filename.temp_file "obs_test" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.write ~path ~registry ();
      let ic = open_in path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_string "file matches renderer" (Obs.Export.prometheus ~registry ()) content);
  let snap =
    {
      Obs.Probe.at = 1.5;
      engine = "core";
      step = 42;
      discrepancy = 7;
      max_load = 20;
      min_load = 13;
      total = 640;
      c_threshold = 3;
      phi = 11;
      phi_prime = 5;
      tokens_moved = 1234;
    }
  in
  let json = Obs.Export.snapshot_json snap in
  check_bool "single line" true (not (String.contains json '\n'));
  List.iter
    (fun needle -> check_bool needle true (contains ~needle json))
    [
      "\"engine\": \"core\"";
      "\"step\": 42";
      "\"discrepancy\": 7";
      "\"phi\": 11";
      "\"phi_prime\": 5";
      "\"tokens_moved\": 1234";
    ]

let test_sigusr1_deferred_to_poll () =
  (* The SIGUSR1 handler is async-signal-safe: it only sets a flag, so
     nothing may be written until the next round boundary calls poll. *)
  let registry = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter ~registry "lb_scrape_total") 9;
  let path = Filename.temp_file "obs_test_usr1" ".prom" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      check_bool "handler installed" true
        (Obs.Export.install_sigusr1 ~path ~registry ());
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      check_bool "no write before the round boundary" false (Sys.file_exists path);
      Obs.Export.poll ();
      check_bool "poll serviced the request" true (Sys.file_exists path);
      Sys.remove path;
      (* No pending request: poll is a no-op. *)
      Obs.Export.poll ();
      check_bool "poll without a request writes nothing" false
        (Sys.file_exists path))

let test_step_probe_matches_run () =
  (* Core.Engine.step emits the same per-round core probe as run. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:1000 in
  let observe drive =
    let registry = Obs.Metrics.create () in
    Obs.Probe.enable ~registry ~every:1 ();
    Fun.protect ~finally:Obs.Probe.disable (fun () ->
        drive (Core.Rotor_router.make g ~self_loops:4);
        let labels = [ ("engine", "core") ] in
        let gauge name = Obs.Metrics.gauge_value (Obs.Metrics.gauge ~registry ~labels name) in
        ( Obs.Metrics.counter_value (Obs.Metrics.counter ~registry ~labels "lb_rounds_total"),
          Obs.Metrics.counter_value
            (Obs.Metrics.counter ~registry ~labels "lb_tokens_moved_total"),
          List.map gauge [ "lb_discrepancy"; "lb_load_max"; "lb_load_min" ],
          Array.map (fun s -> (s.Obs.Probe.step, s.Obs.Probe.phi)) (Obs.Probe.timeline ()) ))
  in
  let via_run =
    observe (fun balancer -> ignore (Core.Engine.run ~graph:g ~balancer ~init ~steps:7 ()))
  in
  let via_step =
    observe (fun balancer ->
        let loads = ref init in
        for t = 1 to 7 do
          loads := Core.Engine.step ~graph:g ~balancer ~step:t !loads
        done)
  in
  let rounds, moved, _, _ = via_step in
  check_int "every step counted" 7 rounds;
  check_bool "tokens moved" true (moved > 0);
  check_bool "same probe readings as run" true (via_run = via_step)

(* --- Probes only observe: engines are bit-identical on/off --- *)

let with_probes_off f =
  Obs.Probe.disable ();
  f ()

let with_probes_on f =
  (* A throwaway registry so these property runs don't pollute the
     default one other tests read. *)
  Obs.Probe.enable ~registry:(Obs.Metrics.create ()) ~every:3 ();
  Fun.protect ~finally:Obs.Probe.disable f

let result_fingerprint (r : Core.Engine.result) =
  (Array.to_list r.Core.Engine.final_loads, r.Core.Engine.steps_run,
   Array.to_list r.Core.Engine.series, r.Core.Engine.min_load_seen)

let equiv_core =
  QCheck.Test.make ~count:30 ~name:"core engine bit-identical with probes on"
    QCheck.(triple (int_range 8 40) (int_range 1 60) small_nat)
    (fun (n, steps, seed) ->
      let g = Graphs.Gen.random_regular (Prng.Splitmix.create (seed + 1)) ~n:(2 * n) ~d:4 in
      let init =
        Core.Loads.uniform_random (Prng.Splitmix.create (seed + 2)) ~n:(2 * n)
          ~total:(64 * n)
      in
      let run () =
        Core.Engine.run ~graph:g
          ~balancer:(Core.Rotor_router.make g ~self_loops:4)
          ~init ~steps ()
      in
      result_fingerprint (with_probes_off run)
      = result_fingerprint (with_probes_on run))

let equiv_faults =
  QCheck.Test.make ~count:20 ~name:"faults engine bit-identical with probes on"
    QCheck.(triple (int_range 8 32) (int_range 10 40) small_nat)
    (fun (n, steps, seed) ->
      let g = Graphs.Gen.cycle (4 * n) in
      let init =
        Core.Loads.uniform_random (Prng.Splitmix.create (seed + 3)) ~n:(4 * n)
          ~total:(32 * n)
      in
      let plan =
        [
          {
            Faults.Schedule.step = 1 + (steps / 2);
            event =
              Faults.Schedule.Crash
                {
                  node = seed mod (4 * n);
                  state = Faults.Schedule.Wipe_state;
                  tokens = Faults.Schedule.Spill_tokens;
                };
          };
        ]
      in
      let run () =
        let report =
          Faults.Engine.run ~graph:g
            ~make_balancer:(fun () -> Core.Rotor_router.make g ~self_loops:2)
            ~plan ~init ~steps ()
        in
        ( result_fingerprint report.Faults.Engine.result,
          List.map
            (fun (e : Faults.Engine.episode) ->
              (e.Faults.Engine.step, e.Faults.Engine.recovered_at,
               e.Faults.Engine.worst_discrepancy))
            report.Faults.Engine.episodes,
          report.Faults.Engine.final_total )
      in
      with_probes_off run = with_probes_on run)

let equiv_net =
  QCheck.Test.make ~count:15 ~name:"net engine bit-identical with probes on"
    QCheck.(triple (int_range 4 6) (int_range 10 40) small_nat)
    (fun (r, steps, seed) ->
      let g = Graphs.Gen.hypercube r in
      let n = Graphs.Graph.n g in
      let init =
        Core.Loads.uniform_random (Prng.Splitmix.create (seed + 4)) ~n ~total:(16 * n)
      in
      let config =
        {
          Net.Async_engine.default_config with
          Net.Async_engine.channel =
            { Net.Channel.drop = 0.1; dup = 0.05; reorder = 0.1; delay = 1 };
          staleness = 1;
          seed = seed + 5;
        }
      in
      let run () =
        let report =
          Net.Async_engine.run ~config ~graph:g
            ~balancer:(Core.Send_floor.make g ~self_loops:r)
            ~init ~steps ()
        in
        ( result_fingerprint report.Net.Async_engine.result,
          report.Net.Async_engine.final_total,
          report.Net.Async_engine.degraded_rounds,
          report.Net.Async_engine.drain_rounds )
      in
      with_probes_off run = with_probes_on run)

(* The open-system stepper path: Core.Engine.step_into driven round by round
   under live arrivals and departures, on its own and composed with a
   mid-run crash. *)
let equiv_stepper =
  QCheck.Test.make ~count:20 ~name:"open-system stepper bit-identical with probes on"
    QCheck.(triple (int_range 3 6) (int_range 10 40) small_nat)
    (fun (side, rounds, seed) ->
      let g = Graphs.Gen.torus [ side; side ] in
      let n = Graphs.Graph.n g in
      let run mode () =
        let arrival =
          Workload.Arrival.overlay
            (Workload.Arrival.poisson ~rng:(Prng.Splitmix.create seed)
               ~rate:(1.8 *. float_of_int n))
            (Workload.Arrival.flash_crowd ~at:3 ~size:(8 * n) ~node:(seed mod n) ())
        in
        let config =
          Workload.Engine.config ~arrival
            ~lifetime:(Workload.Lifetime.service ~rate:2) ~rounds ()
        in
        let r =
          Harness.Openrun.run ~mode ~config ~graph:g
            ~balancer:(Core.Rotor_router.make g ~self_loops:4)
            ~init:(Array.make n 0) ()
        in
        ( r.Workload.Engine.final_loads,
          r.Workload.Engine.discrepancy_series,
          r.Workload.Engine.inflight_series,
          Array.map (fun (_, x) -> Int64.bits_of_float x) r.Workload.Engine.overload_series )
      in
      let crash =
        [
          {
            Faults.Schedule.step = 1 + (rounds / 2);
            event =
              Faults.Schedule.Crash
                {
                  node = seed mod n;
                  state = Faults.Schedule.Wipe_state;
                  tokens = Faults.Schedule.Spill_tokens;
                };
          };
        ]
      in
      List.for_all
        (fun mode -> with_probes_off (run mode) = with_probes_on (run mode))
        [ Harness.Openrun.Plain; Harness.Openrun.Faulty { plan = crash } ])

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "gauge and reset" `Quick test_gauge_and_reset;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "timeline",
        [ Alcotest.test_case "ring buffer" `Quick test_timeline_ring ] );
      ("prof", [ Alcotest.test_case "spans" `Quick test_prof ]);
      ( "probe",
        [
          Alcotest.test_case "potentials match Core.Potential" `Quick
            test_probe_potentials_match_core;
          Alcotest.test_case "cadence and sink" `Quick test_probe_cadence_and_sink;
          Alcotest.test_case "step emits the core probe" `Quick
            test_step_probe_matches_run;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "write + snapshot json" `Quick
            test_export_write_and_json;
          Alcotest.test_case "sigusr1 deferred to poll" `Quick
            test_sigusr1_deferred_to_poll;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest equiv_core;
          QCheck_alcotest.to_alcotest equiv_faults;
          QCheck_alcotest.to_alcotest equiv_net;
          QCheck_alcotest.to_alcotest equiv_stepper;
        ] );
    ]
