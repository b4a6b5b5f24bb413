(* Tests for trace record / save / load / replay / verify. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_run () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:777 in
  let balancer = Core.Rotor_router.make g ~self_loops:4 in
  (g, init, balancer)

let test_record_shape () =
  let g, init, balancer = make_run () in
  let t, result = Trace.record ~graph:g ~balancer ~init ~steps:25 in
  check_int "steps" 25 t.Trace.steps;
  check_int "n" 16 t.Trace.n;
  check_int "records" 25 (Array.length t.Trace.assignments);
  check_int "per step" 16 (Array.length t.Trace.assignments.(0));
  check_int "ports" 8 (Array.length t.Trace.assignments.(0).(0));
  check_int "engine steps" 25 result.Core.Engine.steps_run

let test_replay_matches_original () =
  let g, init, balancer = make_run () in
  let t, original = Trace.record ~graph:g ~balancer ~init ~steps:40 in
  let replayed = Trace.replay t in
  Alcotest.(check (array int))
    "identical final loads" original.Core.Engine.final_loads
    replayed.Core.Engine.final_loads

let test_graph_roundtrip () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:3 in
  let g' = Trace.graph_of t in
  check_int "same n" (Graphs.Graph.n g) (Graphs.Graph.n g');
  check_int "same degree" (Graphs.Graph.degree g) (Graphs.Graph.degree g');
  (* Port order must be preserved exactly for replay to be faithful. *)
  for u = 0 to 15 do
    for k = 0 to 3 do
      check_int "same port wiring" (Graphs.Graph.neighbor g u k)
        (Graphs.Graph.neighbor g' u k)
    done
  done

let test_save_load_roundtrip () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:10 in
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  let t' = Trace.load ~path in
  Sys.remove path;
  check_int "n" t.Trace.n t'.Trace.n;
  check_int "steps" t.Trace.steps t'.Trace.steps;
  Alcotest.(check (array int)) "init" t.Trace.init t'.Trace.init;
  Alcotest.(check (array int))
    "final loads agree" (Trace.final_loads t) (Trace.final_loads t');
  (* Deep equality of one sampled assignment. *)
  Alcotest.(check (array int)) "assignment" t.Trace.assignments.(4).(7)
    t'.Trace.assignments.(4).(7)

let test_verify_ok () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:15 in
  match Trace.verify t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_verify_detects_tampering () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:15 in
  (* Steal a token at step 5, node 3. *)
  t.Trace.assignments.(4).(3).(0) <- t.Trace.assignments.(4).(3).(0) + 1;
  (match Trace.verify t with
  | Ok () -> Alcotest.fail "tampering not detected"
  | Error _ -> ());
  (* Restore, then make a send negative. *)
  t.Trace.assignments.(4).(3).(0) <- t.Trace.assignments.(4).(3).(0) - 1;
  let old = t.Trace.assignments.(9).(0).(1) in
  t.Trace.assignments.(9).(0).(1) <- -1;
  t.Trace.assignments.(9).(0).(4) <- t.Trace.assignments.(9).(0).(4) + old + 1;
  match Trace.verify t with
  | Ok () -> Alcotest.fail "negative send not detected"
  | Error _ -> ()

(* A trace file whose edge list names a node id past 32 bits: the
   rebuilt graph must reject it with the range error, not wrap it.  The
   triangle's last endpoint is 0; 2^32 would wrap to it, n + 2^32 to n. *)
let test_verify_rejects_wide_endpoint () =
  let g = Graphs.Gen.cycle 3 in
  let balancer = Core.Rotor_router.make g ~self_loops:2 in
  let t, _ = Trace.record ~graph:g ~balancer ~init:[| 9; 0; 4 |] ~steps:4 in
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let verify_with last =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun l ->
            let l = if l = "edges 0 1 1 2 2 0" then "edges 0 1 1 2 2 " ^ last else l in
            Out_channel.output_string oc (l ^ "\n"))
          lines);
    Trace.verify (Trace.load ~path)
  in
  let as_written = verify_with "0" in
  let wrapped = List.map (fun v -> verify_with (string_of_int v)) [ 1 lsl 32; 3 + (1 lsl 32) ] in
  Sys.remove path;
  check_bool "edges line as recorded" true (List.mem "edges 0 1 1 2 2 0" lines);
  check_bool "as written verifies" true (as_written = Ok ());
  List.iter
    (fun r ->
      check_bool "endpoint out of range" true (r = Error "Graph.of_edges: endpoint out of range"))
    wrapped

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let load_error contents =
  let path = Filename.temp_file "loadbal" ".trace" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  let r =
    try
      ignore (Trace.load ~path);
      None
    with Trace.Parse_error { line; reason } -> Some (line, reason)
  in
  Sys.remove path;
  r

let test_load_rejects_garbage () =
  match load_error "not a trace\n" with
  | Some (line, _) -> check_int "error on magic line" 1 line
  | None -> Alcotest.fail "garbage not rejected"

let test_load_parse_error_pinpoints_line () =
  (* Valid magic, then a malformed graph line: the error names line 2. *)
  (match load_error "loadbal-trace 1\ngraph 4 two 0 3\n" with
  | Some (line, reason) ->
    check_int "error on graph line" 2 line;
    check_bool "reason names the bad token" true (contains ~needle:"two" reason)
  | None -> Alcotest.fail "bad graph line not rejected");
  (* A file truncated mid-header reports the line after the last read. *)
  match load_error "loadbal-trace 1\n" with
  | Some (line, _) -> check_int "EOF reported past last line" 2 line
  | None -> Alcotest.fail "truncated header not rejected"

let test_load_reports_missing_assignment () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:3 in
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  (* Drop the last assignment line. *)
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let kept = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
  let r =
    try
      ignore (Trace.load ~path);
      None
    with Trace.Parse_error { reason; _ } -> Some reason
  in
  Sys.remove path;
  match r with
  | Some reason ->
    check_bool "reason names the gap" true
      (contains ~needle:"missing assignment" reason)
  | None -> Alcotest.fail "truncated assignment stream not rejected"

let test_trace_of_randomized_run_is_deterministic_replay () =
  (* The point of tracing: a randomized run, once recorded, replays
     deterministically. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:500 in
  let balancer = Baselines.Random_extra.make (Prng.Splitmix.create 9) g ~self_loops:4 in
  let t, original = Trace.record ~graph:g ~balancer ~init ~steps:30 in
  let r1 = Trace.replay t in
  let r2 = Trace.replay t in
  Alcotest.(check (array int)) "replay = original" original.Core.Engine.final_loads
    r1.Core.Engine.final_loads;
  Alcotest.(check (array int)) "replay idempotent" r1.Core.Engine.final_loads
    r2.Core.Engine.final_loads

let test_message_events_roundtrip () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:3 in
  (* One event of each kind; edges must be < n·d = 64. *)
  let msgs =
    [
      { Trace.m_step = 1; m_kind = Trace.Msg_send; m_edge = 0; m_seq = 1; m_tokens = 5 };
      { Trace.m_step = 1; m_kind = Trace.Msg_drop; m_edge = 7; m_seq = 1; m_tokens = 5 };
      { Trace.m_step = 2; m_kind = Trace.Msg_retransmit; m_edge = 7; m_seq = 1; m_tokens = 5 };
      { Trace.m_step = 2; m_kind = Trace.Msg_deliver; m_edge = 63; m_seq = 2; m_tokens = 1 };
    ]
  in
  let t = Trace.with_messages t msgs in
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  let t' = Trace.load ~path in
  Sys.remove path;
  check_int "message count" 4 (Array.length t'.Trace.messages);
  List.iteri
    (fun i m ->
      check_bool
        (Printf.sprintf "message %d round-trips" i)
        true
        (t'.Trace.messages.(i) = m))
    msgs

let test_recorded_net_messages_roundtrip () =
  (* The real producer: a lossy async run's on_message stream, attached
     to a trace and round-tripped through disk. *)
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:5 in
  let events = ref [] in
  let config =
    {
      Net.Async_engine.default_config with
      Net.Async_engine.channel =
        { Net.Channel.drop = 0.2; dup = 0.1; reorder = 0.1; delay = 2 };
      staleness = 2;
    }
  in
  let balancer2 = Core.Rotor_router.make g ~self_loops:4 in
  ignore
    (Net.Async_engine.run ~config ~on_message:(fun e -> events := e :: !events)
       ~graph:g ~balancer:balancer2 ~init ~steps:5 ());
  let msgs = List.rev !events in
  check_bool "run produced message events" true (msgs <> []);
  let t = Trace.with_messages t msgs in
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  let t' = Trace.load ~path in
  Sys.remove path;
  check_int "all events survive" (List.length msgs) (Array.length t'.Trace.messages);
  List.iteri
    (fun i m -> check_bool "event identical" true (t'.Trace.messages.(i) = m))
    msgs

let append_lines path lines =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_malformed_message_records_pinpoint_line () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:2 in
  let base = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path:base t;
  let base_lines =
    List.length (In_channel.with_open_text base In_channel.input_lines)
  in
  let expect_error ?(needle = "message") ~label extra =
    let path = Filename.temp_file "loadbal" ".trace" in
    (let contents = In_channel.with_open_text base In_channel.input_all in
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc contents));
    append_lines path extra;
    let r =
      try
        ignore (Trace.load ~path);
        None
      with Trace.Parse_error { line; reason } -> Some (line, reason)
    in
    Sys.remove path;
    match r with
    | Some (line, reason) ->
      check_int (label ^ ": error on the appended line") (base_lines + 1) line;
      check_bool (label ^ ": reason names the defect") true
        (contains ~needle reason)
    | None -> Alcotest.fail (label ^ ": malformed record not rejected")
  in
  (* Wrong field count, unknown kind, non-integer seq, out-of-range
     edge, and a zero seq: all rejected with the exact line number. *)
  expect_error ~label:"truncated" [ "m s 1 0" ];
  expect_error ~label:"unknown kind" [ "m z 1 0 1 5" ];
  expect_error ~needle:"one" ~label:"non-integer seq" [ "m s 1 0 one 5" ];
  expect_error ~label:"edge out of range" [ "m s 1 64 1 5" ];
  expect_error ~label:"zero seq" [ "m s 1 0 0 5" ];
  Sys.remove base

let test_messages_default_empty () =
  let g, init, balancer = make_run () in
  let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:2 in
  check_int "record has no messages" 0 (Array.length t.Trace.messages);
  let path = Filename.temp_file "loadbal" ".trace" in
  Trace.save ~path t;
  let t' = Trace.load ~path in
  Sys.remove path;
  check_int "load keeps it empty" 0 (Array.length t'.Trace.messages)

let prop_trace_roundtrip_preserves_finals =
  QCheck.Test.make ~name:"save/load preserves replayed final loads" ~count:20
    QCheck.(pair (int_range 3 10) (int_range 0 300))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let balancer = Core.Send_floor.make g ~self_loops:2 in
      let t, _ = Trace.record ~graph:g ~balancer ~init ~steps:10 in
      let path = Filename.temp_file "loadbal" ".trace" in
      Trace.save ~path t;
      let t' = Trace.load ~path in
      Sys.remove path;
      Trace.final_loads t = Trace.final_loads t')

let () =
  Alcotest.run "trace"
    [
      ( "record/replay",
        [
          Alcotest.test_case "record shape" `Quick test_record_shape;
          Alcotest.test_case "replay matches" `Quick test_replay_matches_original;
          Alcotest.test_case "graph roundtrip" `Quick test_graph_roundtrip;
          Alcotest.test_case "randomized replay" `Quick
            test_trace_of_randomized_run_is_deterministic_replay;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage;
          Alcotest.test_case "parse error pinpoints line" `Quick
            test_load_parse_error_pinpoints_line;
          Alcotest.test_case "missing assignment reported" `Quick
            test_load_reports_missing_assignment;
        ] );
      ( "message events",
        [
          Alcotest.test_case "hand-built events round-trip" `Quick
            test_message_events_roundtrip;
          Alcotest.test_case "recorded net events round-trip" `Quick
            test_recorded_net_messages_roundtrip;
          Alcotest.test_case "malformed records pinpoint line" `Quick
            test_malformed_message_records_pinpoint_line;
          Alcotest.test_case "messages default empty" `Quick
            test_messages_default_empty;
        ] );
      ( "verification",
        [
          Alcotest.test_case "verify ok" `Quick test_verify_ok;
          Alcotest.test_case "detects tampering" `Quick test_verify_detects_tampering;
          Alcotest.test_case "rejects wide endpoint" `Quick test_verify_rejects_wide_endpoint;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_trace_roundtrip_preserves_finals ]);
    ]
