(* Tests for the distributed runtime (lib/dist):

   - Frame: stream framing round-trips through arbitrary chunkings,
     truncation waits for more input, corrupted CRC and oversized
     headers poison the stream permanently (satellite of Issue 7's
     Net.Protocol hardening);
   - Msg: wire codec round-trips every message shape and rejects
     garbage and unknown versions;
   - Arq: the real-time sender/receiver pair delivers in order exactly
     once, retransmits on the Net.Protocol backoff schedule, and
     discards duplicates;
   - Heartbeat: pacing and fixed-timeout failure detection;
   - Loss: the seeded shim is replayable, its rates are honest, and
     partition windows cut exactly the configured links;
   - Wal: the coordinator's write-ahead log round-trips, replays to the
     last snapshot, discards torn tails, and truncates them on reopen;
   - Member: the membership/round-barrier state machine — boot,
     commits, death mid-round (abort + respawn), checkpoint-matched
     re-admission, snapshot/recover (coordinator restart), poisoned
     commit rollback, shutdown — plus a property-based fuzz of the
     whole machine (epoch monotonicity, no double-commit, sum
     conservation, recoverable frozen rounds);
   - Chaos: scenario generation is a pure function of (seed, index)
     and the shrinker reduces a failing schedule to a minimal one;
   - end-to-end: real forked clusters over loopback sockets — the
     Launch supervisor (in-process coordinator) matches Core.Engine
     bit for bit when lossless and conserves tokens under drop +
     kill -9 chaos; the Super supervisor (forked coordinator) survives
     a coordinator kill -9 with bit-identical output via WAL replay,
     heals partitions, handles graceful SIGTERM, and rolls back a
     once-misreported audit while failing a persistent liar. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let mkdtemp () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d = Printf.sprintf "%s/test_dist.%d.%d" base (Unix.getpid ()) k in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
  in
  go 0

let rmdir_r d =
  Array.iter (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (Sys.readdir d);
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------- Frame ---------- *)

(* Feed [data] to a decoder in [chunk]-byte slices. *)
let feed_chunked dec data chunk =
  let buf = Bytes.of_string data in
  let len = Bytes.length buf in
  let pos = ref 0 in
  while !pos < len do
    let k = min chunk (len - !pos) in
    Dist.Frame.feed dec buf !pos k;
    pos := !pos + k
  done

let drain dec =
  let rec go acc =
    match Dist.Frame.next dec with
    | None -> List.rev acc
    | Some (Ok p) -> go (p :: acc)
    | Some (Error e) -> Alcotest.fail (Dist.Frame.error_message e)
  in
  go []

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "hello"; String.make 1000 '\255'; "\000\001\002" ] in
  let stream = String.concat "" (List.map Dist.Frame.encode payloads) in
  List.iter
    (fun chunk ->
      let dec = Dist.Frame.create () in
      feed_chunked dec stream chunk;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk=%d" chunk)
        payloads (drain dec))
    [ 1; 2; 3; 7; 8; 9; 1024; String.length stream ]

let test_frame_truncated () =
  let frame = Dist.Frame.encode "truncate me" in
  let dec = Dist.Frame.create () in
  (* everything but the last byte: no frame, no error *)
  Dist.Frame.feed dec (Bytes.of_string frame) 0 (String.length frame - 1);
  (match Dist.Frame.next dec with
   | None -> ()
   | Some _ -> Alcotest.fail "truncated frame should yield nothing yet");
  check_int "buffered" (String.length frame - 1) (Dist.Frame.buffered dec);
  (* the last byte completes it *)
  Dist.Frame.feed dec (Bytes.of_string frame) (String.length frame - 1) 1;
  match Dist.Frame.next dec with
  | Some (Ok p) -> check_string "payload" "truncate me" p
  | _ -> Alcotest.fail "completed frame should decode"

let test_frame_bad_crc () =
  let frame = Bytes.of_string (Dist.Frame.encode "corrupt me") in
  (* flip a payload bit (past the 8-byte header) *)
  Bytes.set frame 9 (Char.chr (Char.code (Bytes.get frame 9) lxor 0x40));
  let dec = Dist.Frame.create () in
  Dist.Frame.feed dec frame 0 (Bytes.length frame);
  (match Dist.Frame.next dec with
   | Some (Error (Dist.Frame.Bad_crc _)) -> ()
   | _ -> Alcotest.fail "corrupted payload should fail the checksum");
  (* the error is sticky: feeding a pristine frame cannot resync *)
  let good = Dist.Frame.encode "fine" in
  Dist.Frame.feed dec (Bytes.of_string good) 0 (String.length good);
  match Dist.Frame.next dec with
  | Some (Error (Dist.Frame.Bad_crc _)) -> ()
  | _ -> Alcotest.fail "framing errors must be sticky"

let test_frame_oversized () =
  let header = Bytes.create 8 in
  Bytes.set_int32_be header 0 (Int32.of_int (Dist.Frame.max_payload + 1));
  Bytes.set_int32_be header 4 0l;
  let dec = Dist.Frame.create () in
  Dist.Frame.feed dec header 0 8;
  match Dist.Frame.next dec with
  | Some (Error (Dist.Frame.Oversized _)) -> ()
  | _ -> Alcotest.fail "oversized length claim should be rejected"

(* ---------- Msg ---------- *)

let sample_msgs =
  [ Dist.Msg.Hello
      { shard = 3; staged_round = Some 7; primary_round = Some 6;
        rotated_round = None };
    Dist.Msg.Welcome
      { epoch = 2; round = 8; members = [ 0; 1; 3 ];
        use = Dist.Msg.Use_staged };
    Dist.Msg.Start { epoch = 2; round = 9; members = [ 0; 1; 3 ] };
    Dist.Msg.Abort { epoch = 3; round = 9; members = [ 0; 1 ] };
    Dist.Msg.Data
      { src = 1; dst = 2; epoch = 2; round = 9; seq = 41;
        transfers = [ { Dist.Msg.dest = 5; tokens = 3 } ]; fin = true };
    Dist.Msg.Data_ack { src = 2; dst = 1; epoch = 2; ack = 41 };
    Dist.Msg.Round_done
      { shard = 0; epoch = 2; round = 9; load_sum = 128; min_load = 1;
        max_load = 9 };
    Dist.Msg.Heartbeat { shard = 1; epoch = 2; round = 9; load_sum = 64 };
    Dist.Msg.Shutdown { epoch = 2 };
    Dist.Msg.Result { shard = 0; loads = [ (0, 4); (1, 5) ] } ]

let test_msg_roundtrip () =
  List.iter
    (fun m ->
      match Dist.Msg.decode (Dist.Msg.encode m) with
      | Ok m' -> check_bool (Dist.Msg.describe m) true (m = m')
      | Error e -> Alcotest.fail e)
    sample_msgs

let test_msg_rejects_garbage () =
  let bad s =
    match Dist.Msg.decode s with
    | Error _ -> ()
    | Ok m ->
      Alcotest.fail ("garbage decoded as " ^ Dist.Msg.describe m)
  in
  bad "";
  bad "\002rest";
  (* future version *)
  bad "\001not a marshalled value"

(* ---------- Arq ---------- *)

let arq_config = { Net.Protocol.timeout = 2; backoff = Net.Protocol.Exponential; cap = 8 }

let test_arq_sender_flow () =
  let s = Dist.Arq.sender ~config:arq_config ~tick:1.0 in
  let s0 = Dist.Arq.send s ~now:0.0 "a" in
  let s1 = Dist.Arq.send s ~now:0.0 "b" in
  let s2 = Dist.Arq.send s ~now:0.0 "c" in
  Alcotest.(check (list int)) "seqs" [ 0; 1; 2 ] [ s0; s1; s2 ];
  (* first sweep transmits everything, ascending *)
  Alcotest.(check (list (pair int string)))
    "first due" [ (0, "a"); (1, "b"); (2, "c") ]
    (Dist.Arq.due s ~now:0.0);
  check_int "no retransmissions yet" 0 (Dist.Arq.retransmissions s);
  (* nothing due before the 2-tick timeout *)
  Alcotest.(check (list (pair int string))) "quiet" [] (Dist.Arq.due s ~now:1.9);
  Dist.Arq.ack s ~upto:1;
  check_int "unacked after ack" 1 (Dist.Arq.unacked s);
  (* only the unacked tail retransmits *)
  Alcotest.(check (list (pair int string)))
    "retransmit" [ (2, "c") ] (Dist.Arq.due s ~now:2.5);
  check_int "retransmissions" 1 (Dist.Arq.retransmissions s);
  (* exponential backoff: next gap is 4 ticks (2 * 2^1) *)
  Alcotest.(check (list (pair int string))) "backoff quiet" []
    (Dist.Arq.due s ~now:5.0);
  Alcotest.(check (list (pair int string)))
    "backoff fire" [ (2, "c") ] (Dist.Arq.due s ~now:6.6);
  Dist.Arq.ack s ~upto:2;
  check_int "drained" 0 (Dist.Arq.unacked s);
  check_bool "no deadline when drained" true
    (Dist.Arq.next_deadline s = None)

let test_arq_receiver_flow () =
  let r = Dist.Arq.receiver () in
  (* out-of-order arrival stashes *)
  Alcotest.(check (list string)) "gap" [] (Dist.Arq.accept r ~seq:1 "b");
  check_int "ack before seq 0" (-1) (Dist.Arq.cumulative_ack r);
  Alcotest.(check (list string))
    "in-order drain" [ "a"; "b" ] (Dist.Arq.accept r ~seq:0 "a");
  check_int "ack after drain" 1 (Dist.Arq.cumulative_ack r);
  (* duplicates are counted and not redelivered *)
  Alcotest.(check (list string)) "dup" [] (Dist.Arq.accept r ~seq:0 "a");
  check_int "duplicates" 1 (Dist.Arq.duplicates r);
  Alcotest.(check (list string)) "next" [ "c" ] (Dist.Arq.accept r ~seq:2 "c")

(* ---------- Heartbeat ---------- *)

let test_heartbeat_pacer () =
  let p = Dist.Heartbeat.pacer ~interval:0.5 ~now:10.0 in
  check_bool "not yet" false (Dist.Heartbeat.due p ~now:10.4);
  check_bool "due" true (Dist.Heartbeat.due p ~now:10.5);
  check_bool "advanced" false (Dist.Heartbeat.due p ~now:10.6);
  check_bool "due again" true (Dist.Heartbeat.due p ~now:11.1)

let test_heartbeat_monitor () =
  let m = Dist.Heartbeat.monitor ~timeout:1.0 in
  Dist.Heartbeat.watch m ~now:0.0 3;
  Dist.Heartbeat.watch m ~now:0.0 1;
  Alcotest.(check (list int)) "watched" [ 1; 3 ] (Dist.Heartbeat.watched m);
  Alcotest.(check (list int)) "quiet" [] (Dist.Heartbeat.suspects m ~now:0.9);
  Dist.Heartbeat.beat m ~now:0.8 1;
  Alcotest.(check (list int))
    "only the silent one" [ 3 ]
    (Dist.Heartbeat.suspects m ~now:1.1);
  Dist.Heartbeat.unwatch m 3;
  Dist.Heartbeat.beat m ~now:5.0 1;
  Alcotest.(check (list int)) "unwatched" [] (Dist.Heartbeat.suspects m ~now:5.5);
  (* a beat cannot resurrect an unwatched shard *)
  Dist.Heartbeat.beat m ~now:5.5 3;
  Alcotest.(check (list int)) "no resurrection" [ 1 ] (Dist.Heartbeat.watched m)

let test_heartbeat_validate () =
  (match Dist.Heartbeat.validate_timeout ~interval:0.05 ~timeout:0.5 () with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let bad interval timeout =
    match Dist.Heartbeat.validate_timeout ~interval ~timeout () with
    | Error _ -> ()
    | Ok () ->
      Alcotest.fail
        (Printf.sprintf "interval %g / timeout %g should be rejected" interval
           timeout)
  in
  (* non-positive, non-finite, and a timeout the heartbeat cadence
     cannot possibly satisfy *)
  bad 0.05 0.0;
  bad 0.05 (-1.0);
  bad 0.05 Float.infinity;
  bad 0.05 Float.nan;
  bad 0.5 0.5;
  bad (-0.1) 0.5

(* ---------- Loss ---------- *)

let test_loss_none () =
  let t = Dist.Loss.create Dist.Loss.none in
  for _ = 1 to 100 do
    match Dist.Loss.decide t ~src:0 ~dst:1 with
    | Dist.Loss.Deliver -> ()
    | _ -> Alcotest.fail "lossless shim must always deliver"
  done;
  check_int "dropped" 0 (Dist.Loss.dropped t)

let test_loss_replayable () =
  let config =
    { Dist.Loss.drop = 0.3; delay_prob = 0.2; delay_max = 0.1; seed = 42;
      partitions = [] }
  in
  let sample () =
    let t = Dist.Loss.create config in
    List.init 200 (fun i ->
        match Dist.Loss.decide t ~src:(i mod 3) ~dst:((i + 1) mod 3) with
        | Dist.Loss.Deliver -> "D"
        | Dist.Loss.Drop -> "X"
        | Dist.Loss.Delay d -> Printf.sprintf "%.6f" d)
  in
  Alcotest.(check (list string)) "same seed, same verdicts" (sample ()) (sample ());
  let other = Dist.Loss.create { config with seed = 43 } in
  let differs = ref false in
  let t = Dist.Loss.create config in
  for _ = 1 to 200 do
    if Dist.Loss.decide t ~src:0 ~dst:1 <> Dist.Loss.decide other ~src:0 ~dst:1
    then differs := true
  done;
  check_bool "different seed differs" true !differs

let test_loss_rates () =
  let t =
    Dist.Loss.create
      { Dist.Loss.drop = 0.3; delay_prob = 0.; delay_max = 0.; seed = 7;
        partitions = [] }
  in
  let n = 20_000 in
  for _ = 1 to n do
    ignore (Dist.Loss.decide t ~src:0 ~dst:1)
  done;
  let rate = float (Dist.Loss.dropped t) /. float n in
  check_bool
    (Printf.sprintf "drop rate %.3f near 0.3" rate)
    true
    (abs_float (rate -. 0.3) < 0.02)

let test_loss_delay_bounds () =
  let t =
    Dist.Loss.create
      { Dist.Loss.drop = 0.; delay_prob = 0.9; delay_max = 0.25; seed = 9;
        partitions = [] }
  in
  for _ = 1 to 1000 do
    match Dist.Loss.decide t ~src:4 ~dst:5 with
    | Dist.Loss.Delay d ->
      check_bool "delay in bounds" true (d >= 0. && d <= 0.25)
    | Dist.Loss.Deliver -> ()
    | Dist.Loss.Drop -> Alcotest.fail "drop=0 must not drop"
  done;
  check_bool "some delays happened" true (Dist.Loss.delayed t > 500)

let test_loss_partition_cut () =
  let w = { Dist.Loss.cut = [ 1 ]; from_s = 1.0; until_s = 2.0 } in
  let cfg = { Dist.Loss.none with Dist.Loss.partitions = [ w ] } in
  check_bool "closed before the window" false
    (Dist.Loss.cut cfg ~elapsed:0.99 ~src:1 ~dst:(-1));
  check_bool "open: shard to coordinator" true
    (Dist.Loss.cut cfg ~elapsed:1.0 ~src:1 ~dst:(-1));
  check_bool "open: coordinator to shard" true
    (Dist.Loss.cut cfg ~elapsed:1.5 ~src:(-1) ~dst:1);
  check_bool "open: across the cut" true
    (Dist.Loss.cut cfg ~elapsed:1.5 ~src:0 ~dst:1);
  check_bool "open: both on the majority side" false
    (Dist.Loss.cut cfg ~elapsed:1.5 ~src:0 ~dst:2);
  check_bool "closed at until_s" false
    (Dist.Loss.cut cfg ~elapsed:2.0 ~src:1 ~dst:0);
  (* two shards cut together still talk to each other *)
  let both = { Dist.Loss.cut = [ 0; 1 ]; from_s = 0.0; until_s = 1.0 } in
  let cfg2 = { Dist.Loss.none with Dist.Loss.partitions = [ both ] } in
  check_bool "inside the cut group" false
    (Dist.Loss.cut cfg2 ~elapsed:0.5 ~src:0 ~dst:1);
  check_bool "cut group to coordinator" true
    (Dist.Loss.cut cfg2 ~elapsed:0.5 ~src:0 ~dst:(-1));
  (* validation rejects nonsense windows *)
  let bad win =
    match
      Dist.Loss.validate { Dist.Loss.none with Dist.Loss.partitions = [ win ] }
    with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "bad partition window accepted"
  in
  bad { Dist.Loss.cut = []; from_s = 0.0; until_s = 1.0 };
  bad { Dist.Loss.cut = [ 0 ]; from_s = 1.0; until_s = 1.0 };
  bad { Dist.Loss.cut = [ 0 ]; from_s = -0.5; until_s = 1.0 }

(* ---------- Wal ---------- *)

let wal_snap ~epoch ~committed =
  { Dist.Member.epoch; committed; sums = [| 64; 64 |]; mins = [| 0; 0 |];
    maxs = [| 64; 64 |]; dead = []; admitted = [] }

let test_wal_roundtrip_replay () =
  let dir = mkdtemp () in
  let path = Filename.concat dir "coord.wal" in
  let w = Dist.Wal.create ~path in
  Dist.Wal.append w
    (Dist.Wal.Boot
       { time = 1.0; shards = 2; rounds = 3; expected_total = 128;
         snap = wal_snap ~epoch:1 ~committed:0 });
  Dist.Wal.append w
    (Dist.Wal.Commit { time = 2.0; snap = wal_snap ~epoch:1 ~committed:1 });
  Dist.Wal.append w
    (Dist.Wal.Elect
       { time = 2.5; shard = 1; round = 1; use = Dist.Msg.Use_primary });
  Dist.Wal.append w
    (Dist.Wal.Epoch
       { time = 3.0; reason = "shard death";
         snap =
           { (wal_snap ~epoch:2 ~committed:1) with dead = [ (1, 1, 64) ] } });
  Dist.Wal.sync w;
  Dist.Wal.close w;
  (match Dist.Wal.read_records ~path with
   | Ok (records, torn) ->
     check_int "records" 4 (List.length records);
     check_bool "no tear" false torn
   | Error e -> Alcotest.fail e);
  (match Dist.Wal.replay ~path with
   | Ok (Some r) ->
     check_int "shards" 2 r.Dist.Wal.shards;
     check_int "rounds" 3 r.Dist.Wal.rounds;
     check_int "expected_total" 128 r.Dist.Wal.expected_total;
     check_int "commits" 1 r.Dist.Wal.commits;
     check_bool "no torn tail" false r.Dist.Wal.torn_tail;
     check_int "last epoch wins" 2 r.Dist.Wal.snap.Dist.Member.epoch;
     check_int "committed" 1 r.Dist.Wal.snap.Dist.Member.committed;
     Alcotest.(check (list (pair int (pair int int))))
       "dead roster carried" [ (1, (1, 64)) ]
       (List.map (fun (s, a, b) -> (s, (a, b)))
          r.Dist.Wal.snap.Dist.Member.dead)
   | Ok None -> Alcotest.fail "non-empty log replayed as a fresh boot"
   | Error e -> Alcotest.fail e);
  (match Dist.Wal.commit_times ~path with
   | Ok ts ->
     Alcotest.(check (list (float 1e-9))) "commit times" [ 1.0; 2.0 ] ts
   | Error e -> Alcotest.fail e);
  check_bool "commit advances the round" true
    (Dist.Wal.committed_round
       (Dist.Wal.Commit { time = 0.; snap = wal_snap ~epoch:0 ~committed:5 })
     = Some 5);
  check_bool "elect advances nothing" true
    (Dist.Wal.committed_round
       (Dist.Wal.Elect
          { time = 0.; shard = 0; round = 1; use = Dist.Msg.Use_fresh })
     = None);
  rmdir_r dir

let test_wal_fresh_and_bootless () =
  let dir = mkdtemp () in
  (match Dist.Wal.replay ~path:(Filename.concat dir "absent.wal") with
   | Ok None -> ()
   | _ -> Alcotest.fail "a missing log is a fresh boot");
  let path = Filename.concat dir "bootless.wal" in
  let w = Dist.Wal.create ~path in
  Dist.Wal.append w
    (Dist.Wal.Commit { time = 1.0; snap = wal_snap ~epoch:0 ~committed:1 });
  Dist.Wal.sync w;
  Dist.Wal.close w;
  (match Dist.Wal.replay ~path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "a log without a Boot record must not replay");
  rmdir_r dir

let test_wal_torn_tail () =
  let dir = mkdtemp () in
  let path = Filename.concat dir "torn.wal" in
  let w = Dist.Wal.create ~path in
  Dist.Wal.append w
    (Dist.Wal.Boot
       { time = 1.0; shards = 2; rounds = 3; expected_total = 128;
         snap = wal_snap ~epoch:1 ~committed:0 });
  Dist.Wal.append w
    (Dist.Wal.Commit { time = 2.0; snap = wal_snap ~epoch:1 ~committed:1 });
  Dist.Wal.sync w;
  Dist.Wal.close w;
  (* a crash mid-append leaves a partial frame at the tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
  output_string oc "\000\000\000\012torn";
  close_out oc;
  (match Dist.Wal.read_records ~path with
   | Ok (records, torn) ->
     check_int "valid prefix" 2 (List.length records);
     check_bool "tear detected" true torn
   | Error e -> Alcotest.fail e);
  (match Dist.Wal.replay ~path with
   | Ok (Some r) ->
     check_int "commits despite the tear" 1 r.Dist.Wal.commits;
     check_bool "tear flagged" true r.Dist.Wal.torn_tail
   | _ -> Alcotest.fail "torn log must still replay its valid prefix");
  (* a new writer truncates the tear, so its appends extend the valid
     prefix instead of hiding behind the garbage *)
  let w2 = Dist.Wal.create ~path in
  Dist.Wal.append w2
    (Dist.Wal.Commit { time = 3.0; snap = wal_snap ~epoch:1 ~committed:2 });
  Dist.Wal.sync w2;
  Dist.Wal.close w2;
  (match Dist.Wal.replay ~path with
   | Ok (Some r) ->
     check_int "appended past the tear" 2 r.Dist.Wal.commits;
     check_bool "tear gone" false r.Dist.Wal.torn_tail;
     check_int "resumes at the new commit" 2
       r.Dist.Wal.snap.Dist.Member.committed
   | _ -> Alcotest.fail "truncated log must replay cleanly");
  rmdir_r dir

(* ---------- Member ---------- *)

let hello_fresh m shard =
  Dist.Member.on_hello m ~shard ~staged_round:None ~primary_round:None
    ~rotated_round:None

let tells_to shard actions =
  List.filter_map
    (function
      | Dist.Member.Tell { shard = s; msg } when s = shard -> Some msg
      | _ -> None)
    actions

let has_respawn shard actions =
  List.exists
    (function Dist.Member.Respawn { shard = s } -> s = shard | _ -> false)
    actions

let committed_round actions =
  List.filter_map
    (function
      | Dist.Member.Committed { round; _ } -> Some round
      | _ -> None)
    actions

let mk_member () =
  (* 2 shards, 64 tokens each, horizon 3 rounds *)
  Dist.Member.create ~shards:2 ~rounds:3 ~init_sums:[| 64; 64 |]
    ~init_mins:[| 0; 0 |] ~init_maxs:[| 64; 64 |]

let round_done m ~shard ~round =
  Dist.Member.on_round_done m ~shard ~epoch:(Dist.Member.epoch m) ~round
    ~load_sum:64 ~min_load:0 ~max_load:64

let test_member_boot () =
  let m = mk_member () in
  check_int "no hello yet" 0 (List.length (hello_fresh m 0));
  let acts = hello_fresh m 1 in
  (* the round-0 baseline commits, then both shards are welcomed fresh *)
  Alcotest.(check (list int)) "round 0 committed" [ 0 ] (committed_round acts);
  List.iter
    (fun shard ->
      match tells_to shard acts with
      | [ Dist.Msg.Welcome { round = 1; use = Dist.Msg.Use_fresh; members; _ } ]
        ->
        Alcotest.(check (list int)) "members" [ 0; 1 ] members
      | _ -> Alcotest.fail "boot should welcome every shard fresh")
    [ 0; 1 ];
  check_bool "running" true (Dist.Member.phase m = Dist.Member.Running)

let test_member_commit_and_finish () =
  let m = mk_member () in
  ignore (hello_fresh m 0);
  ignore (hello_fresh m 1);
  (* round 1: first reporter does not commit, the last one does *)
  check_int "half-barrier" 0 (List.length (round_done m ~shard:0 ~round:1));
  let acts = round_done m ~shard:1 ~round:1 in
  Alcotest.(check (list int)) "round 1 commits" [ 1 ] (committed_round acts);
  (match tells_to 0 acts with
   | [ Dist.Msg.Start { round = 2; _ } ] -> ()
   | _ -> Alcotest.fail "commit should start the next round");
  ignore (round_done m ~shard:0 ~round:2);
  ignore (round_done m ~shard:1 ~round:2);
  ignore (round_done m ~shard:0 ~round:3);
  let final = round_done m ~shard:1 ~round:3 in
  check_bool "finishes" true
    (List.exists (fun a -> a = Dist.Member.Finished) final);
  (match tells_to 0 final with
   | [ Dist.Msg.Shutdown _ ] -> ()
   | _ -> Alcotest.fail "horizon reached should shut shards down");
  check_bool "stale round_done ignored" true (round_done m ~shard:0 ~round:3 = [])

let test_member_death_and_rejoin () =
  let m = mk_member () in
  ignore (hello_fresh m 0);
  ignore (hello_fresh m 1);
  ignore (round_done m ~shard:0 ~round:1);
  ignore (round_done m ~shard:1 ~round:1);
  let epoch0 = Dist.Member.epoch m in
  (* shard 1 dies mid-round-2: respawn + abort to the survivor *)
  let acts = Dist.Member.on_death m ~shard:1 in
  check_bool "respawn requested" true (has_respawn 1 acts);
  (match tells_to 0 acts with
   | [ Dist.Msg.Abort { round = 2; epoch; members } ] ->
     check_bool "new epoch" true (epoch > epoch0);
     Alcotest.(check (list int)) "survivors" [ 0 ] members
   | _ -> Alcotest.fail "death mid-round should abort the round");
  check_bool "idempotent" true (Dist.Member.on_death m ~shard:1 = []);
  (match Dist.Member.status m 1 with
   | Dist.Member.Dead { frozen_round = 1; frozen_sum = 64 } -> ()
   | _ -> Alcotest.fail "dead shard should freeze at its committed round");
  (* survivor re-runs round 2 alone; commit happens without shard 1 *)
  let solo = round_done m ~shard:0 ~round:2 in
  Alcotest.(check (list int)) "degraded commit" [ 2 ] (committed_round solo);
  (* the replacement reports a primary checkpoint for round 1: admitted
     at the next commit, directed to its committed state *)
  let back =
    Dist.Member.on_hello m ~shard:1 ~staged_round:(Some 2)
      ~primary_round:(Some 1) ~rotated_round:(Some 0)
  in
  check_int "admission waits for the barrier" 0 (List.length back);
  (match Dist.Member.status m 1 with
   | Dist.Member.Joining { use = Dist.Msg.Use_primary; frozen_round = 1; _ } ->
     ()
   | _ -> Alcotest.fail "rejoin should match the primary checkpoint");
  (* round 3 is the horizon, so the joiner is re-admitted straight into
     the shutdown sequence: restore committed state, then report *)
  let admit = round_done m ~shard:0 ~round:3 in
  match tells_to 1 admit with
  | [ Dist.Msg.Welcome { round = 4; use = Dist.Msg.Use_primary; _ };
      Dist.Msg.Shutdown _ ] ->
    ()
  | _ -> Alcotest.fail "final commit should welcome the joiner and shut down"

(* A shard admitted at the very commit the coordinator dies on has
   checkpoints only for its old frozen round: the snapshot must carry
   the admission so recovery demands THAT round, not the global one.
   Same for a re-death before the shard commits a round of its own. *)
let test_member_admitted_recover () =
  let drive () =
    let m = mk_member () in
    ignore (hello_fresh m 0);
    ignore (hello_fresh m 1);
    ignore (round_done m ~shard:0 ~round:1);
    ignore (round_done m ~shard:1 ~round:1);
    ignore (Dist.Member.on_death m ~shard:1);
    ignore (round_done m ~shard:0 ~round:2);
    ignore
      (Dist.Member.on_hello m ~shard:1 ~staged_round:(Some 2)
         ~primary_round:(Some 1) ~rotated_round:(Some 0));
    (* the horizon commit admits shard 1; its checkpoints still top out
       at round 2 even though the cluster committed round 3 *)
    ignore (round_done m ~shard:0 ~round:3);
    m
  in
  let m = drive () in
  let snap = Dist.Member.snapshot m in
  check_int "committed at horizon" 3 snap.Dist.Member.committed;
  check_bool "admitted recorded" true
    (snap.Dist.Member.admitted = [ (1, 1, 64) ]);
  let m' = Dist.Member.recover ~shards:2 ~rounds:3 snap in
  (match Dist.Member.status m' 1 with
   | Dist.Member.Dead { frozen_round = 1; frozen_sum = 64 } -> ()
   | _ ->
     Alcotest.fail
       "recovery must demand the admitted shard's pre-admission round");
  (match Dist.Member.status m' 0 with
   | Dist.Member.Dead { frozen_round = 3; _ } -> ()
   | _ -> Alcotest.fail "full members recover at the committed round");
  (* re-death right after admission: freeze back at the old round *)
  let m2 = drive () in
  ignore (Dist.Member.on_death m2 ~shard:1);
  (match Dist.Member.status m2 1 with
   | Dist.Member.Dead { frozen_round = 1; frozen_sum = 64 } -> ()
   | _ -> Alcotest.fail "re-death must restore the pre-admission freeze");
  (* a duplicate hello from an alive shard is a lost Welcome, not a
     config error: demote (no respawn) and replay against the frozen
     state *)
  let m3 = drive () in
  let again =
    Dist.Member.on_hello m3 ~shard:1 ~staged_round:(Some 2)
      ~primary_round:(Some 1) ~rotated_round:(Some 0)
  in
  check_bool "no fatal" true
    (List.for_all
       (function Dist.Member.Fail _ -> false | _ -> true)
       again);
  check_bool "no respawn" false (has_respawn 1 again);
  match tells_to 1 again with
  | Dist.Msg.Welcome { use = Dist.Msg.Use_primary; _ } :: _ -> ()
  | _ -> Alcotest.fail "re-hello during Finishing should re-welcome"

let test_member_choose_source () =
  let ok = function Ok c -> c | Error e -> Alcotest.fail e in
  check_bool "primary preferred" true
    (ok
       (Dist.Member.choose_source ~frozen_round:5 ~staged:(Some 5)
          ~primary:(Some 5) ~rotated:None)
     = Dist.Msg.Use_primary);
  check_bool "staged carries the frozen round" true
    (ok
       (Dist.Member.choose_source ~frozen_round:5 ~staged:(Some 5)
          ~primary:(Some 4) ~rotated:None)
     = Dist.Msg.Use_staged);
  check_bool "rotated as last resort" true
    (ok
       (Dist.Member.choose_source ~frozen_round:4 ~staged:(Some 6)
          ~primary:(Some 5) ~rotated:(Some 4))
     = Dist.Msg.Use_rotated);
  check_bool "fresh only for a virgin round-0 restart" true
    (ok
       (Dist.Member.choose_source ~frozen_round:0 ~staged:None ~primary:None
          ~rotated:None)
     = Dist.Msg.Use_fresh);
  check_bool "no matching checkpoint is unrecoverable" true
    (match
       Dist.Member.choose_source ~frozen_round:3 ~staged:(Some 5)
         ~primary:(Some 4) ~rotated:(Some 2)
     with
     | Error _ -> true
     | Ok _ -> false)

let test_member_snapshot_recover () =
  let m = mk_member () in
  ignore (hello_fresh m 0);
  ignore (hello_fresh m 1);
  ignore (round_done m ~shard:0 ~round:1);
  ignore (round_done m ~shard:1 ~round:1);
  let snap = Dist.Member.snapshot m in
  check_int "snapshot committed" 1 snap.Dist.Member.committed;
  check_int "snapshot conserves" 128
    (Array.fold_left ( + ) 0 snap.Dist.Member.sums);
  check_bool "no dead shards" true (snap.Dist.Member.dead = []);
  (* a coordinator restart rebuilds from the snapshot: everything Dead
     at the logged round, epoch fenced past the logged one *)
  let m' = Dist.Member.recover ~shards:2 ~rounds:3 snap in
  check_bool "recovering" true (Dist.Member.phase m' = Dist.Member.Recovering);
  check_bool "epoch fenced" true
    (Dist.Member.epoch m' > snap.Dist.Member.epoch);
  check_int "committed preserved" 1 (Dist.Member.committed m');
  (match Dist.Member.status m' 0 with
   | Dist.Member.Dead { frozen_round = 1; frozen_sum = 64 } -> ()
   | _ -> Alcotest.fail "recovered shards start Dead at the logged round");
  (* recovery is a barrier: the first re-hello stays pending *)
  let a0 =
    Dist.Member.on_hello m' ~shard:0 ~staged_round:None ~primary_round:(Some 1)
      ~rotated_round:None
  in
  check_int "barrier holds" 0 (List.length a0);
  let a1 =
    Dist.Member.on_hello m' ~shard:1 ~staged_round:(Some 1)
      ~primary_round:(Some 1) ~rotated_round:None
  in
  (* the frozen round re-commits as a fresh audit point, then round 2
     starts exactly where the crash interrupted it *)
  Alcotest.(check (list int)) "re-audit" [ 1 ] (committed_round a1);
  List.iter
    (fun s ->
      match tells_to s a1 with
      | [ Dist.Msg.Welcome { round = 2; use = Dist.Msg.Use_primary; _ } ] -> ()
      | _ -> Alcotest.fail "recovery should resume the frozen round")
    [ 0; 1 ];
  (* a snapshot that does not fit the cluster is rejected *)
  match Dist.Member.recover ~shards:3 ~rounds:3 snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mis-sized snapshot must be rejected"

let test_member_poison_rollback () =
  let m = mk_member () in
  ignore (hello_fresh m 0);
  ignore (hello_fresh m 1);
  ignore (round_done m ~shard:0 ~round:1);
  ignore (round_done m ~shard:1 ~round:1);
  let epoch1 = Dist.Member.epoch m in
  (* the audit of round 1 failed: roll it back and re-run *)
  let acts = Dist.Member.on_poison m ~reason:"sums diverged" in
  check_bool "recoverable" true
    (not
       (List.exists
          (function Dist.Member.Fail _ -> true | _ -> false)
          acts));
  check_int "rolled back one commit" 0 (Dist.Member.committed m);
  check_bool "epoch fenced" true (Dist.Member.epoch m > epoch1);
  check_bool "recovering" true (Dist.Member.phase m = Dist.Member.Recovering);
  (match Dist.Member.status m 0 with
   | Dist.Member.Dead { frozen_round = 0; frozen_sum = 64 } -> ()
   | _ -> Alcotest.fail "poison freezes live shards at the rolled-back round");
  (* both re-hello from round-0 checkpoints; round 1 re-runs *)
  ignore
    (Dist.Member.on_hello m ~shard:0 ~staged_round:None ~primary_round:(Some 0)
       ~rotated_round:None);
  let a =
    Dist.Member.on_hello m ~shard:1 ~staged_round:None ~primary_round:(Some 0)
      ~rotated_round:None
  in
  Alcotest.(check (list int)) "re-audit of the rollback" [ 0 ]
    (committed_round a);
  List.iter
    (fun s ->
      match tells_to s a with
      | [ Dist.Msg.Welcome { round = 1; _ } ] -> ()
      | _ -> Alcotest.fail "the poisoned round must re-run")
    [ 0; 1 ]

let test_member_poison_unrecoverable () =
  let m = mk_member () in
  ignore (hello_fresh m 0);
  ignore (hello_fresh m 1);
  (* only the round-0 baseline exists: nothing to roll back *)
  match Dist.Member.on_poison m ~reason:"bad baseline" with
  | [ Dist.Member.Fail { code = 4; _ } ] -> ()
  | _ -> Alcotest.fail "poison without a rollback window must fail the run"

(* Property-based fuzz of the Member machine: arbitrary interleavings
   of hellos, round completions, deaths, and poisons must preserve
   epoch monotonicity, never commit the same round twice under one
   epoch, conserve the snapshot's token total, and keep every frozen
   shard within reach of a checkpoint (frozen_round <= committed + 1,
   the rollback window). *)

type op = Op_hello of int | Op_done of int | Op_death of int | Op_poison

let op_print = function
  | Op_hello s -> Printf.sprintf "hello:%d" s
  | Op_done s -> Printf.sprintf "done:%d" s
  | Op_death s -> Printf.sprintf "death:%d" s
  | Op_poison -> "poison"

let ops_arb shards =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map op_print l))
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [ (3, map (fun s -> Op_hello s) (int_bound (shards - 1)));
             (6, map (fun s -> Op_done s) (int_bound (shards - 1)));
             (2, map (fun s -> Op_death s) (int_bound (shards - 1)));
             (1, return Op_poison) ]))

let member_machine_prop ops =
  let shards = 3 in
  let total = 96 in
  let m =
    Dist.Member.create ~shards ~rounds:6 ~init_sums:[| 32; 32; 32 |]
      ~init_mins:[| 0; 0; 0 |] ~init_maxs:[| 32; 32; 32 |]
  in
  let last_epoch = ref 0 in
  let commits = Hashtbl.create 16 in
  let failed = ref false in
  let observe acts =
    let e = Dist.Member.epoch m in
    if e < !last_epoch then
      QCheck.Test.fail_reportf "epoch went backwards: %d -> %d" !last_epoch e;
    last_epoch := e;
    List.iter
      (function
        | Dist.Member.Committed { round; sums; _ } ->
          if Hashtbl.mem commits (e, round) then
            QCheck.Test.fail_reportf "round %d committed twice under epoch %d"
              round e;
          Hashtbl.add commits (e, round) ();
          let s = Array.fold_left ( + ) 0 sums in
          if s <> total then
            QCheck.Test.fail_reportf "commit of round %d sums to %d" round s
        | Dist.Member.Fail _ -> failed := true
        | Dist.Member.Tell _ | Dist.Member.Respawn _ | Dist.Member.Finished ->
          ())
      acts;
    let snap = Dist.Member.snapshot m in
    let s = Array.fold_left ( + ) 0 snap.Dist.Member.sums in
    if s <> total then QCheck.Test.fail_reportf "snapshot sums to %d" s;
    List.iter
      (fun (shard, fr, _) ->
        if fr < 0 || fr > Dist.Member.committed m + 1 then
          QCheck.Test.fail_reportf
            "shard %d frozen at round %d with only %d committed" shard fr
            (Dist.Member.committed m))
      snap.Dist.Member.dead
  in
  List.iter
    (fun op ->
      if not !failed then
        let acts =
          match op with
          | Op_hello s -> (
            match Dist.Member.status m s with
            | Dist.Member.Waiting_hello -> hello_fresh m s
            | Dist.Member.Dead { frozen_round; _ } ->
              Dist.Member.on_hello m ~shard:s ~staged_round:None
                ~primary_round:(Some frozen_round) ~rotated_round:None
            | Dist.Member.Alive | Dist.Member.Joining _ -> [])
          | Op_done s -> (
            match (Dist.Member.status m s, Dist.Member.phase m) with
            | Dist.Member.Alive, Dist.Member.Running ->
              Dist.Member.on_round_done m ~shard:s
                ~epoch:(Dist.Member.epoch m)
                ~round:(Dist.Member.committed m + 1)
                ~load_sum:32 ~min_load:0 ~max_load:32
            | _ -> [])
          | Op_death s -> Dist.Member.on_death m ~shard:s
          | Op_poison -> Dist.Member.on_poison m ~reason:"fuzz"
        in
        observe acts)
    ops;
  true

let member_machine_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"machine invariants under fuzz"
       (ops_arb 3) member_machine_prop)

(* ---------- Chaos ---------- *)

let test_chaos_generate_deterministic () =
  for i = 0 to 19 do
    let a = Dist.Chaos.generate ~seed:42 ~index:i in
    let b = Dist.Chaos.generate ~seed:42 ~index:i in
    check_bool (Printf.sprintf "index %d replays" i) true (a = b);
    check_bool "shard count in range" true (a.shards >= 2 && a.shards <= 4);
    check_bool "rounds in range" true (a.rounds >= 6 && a.rounds <= 15);
    List.iter
      (function
        | Dist.Super.Kill_shard { shard; round }
        | Dist.Super.Term_shard { shard; round } ->
          check_bool "shard fault in range" true
            (shard >= 0 && shard < a.shards && round >= 1 && round < a.rounds)
        | Dist.Super.Kill_coord { round } ->
          check_bool "coord fault in range" true
            (round >= 1 && round < a.rounds))
      a.faults;
    List.iter
      (fun (w : Dist.Loss.window) ->
        check_bool "partition in range" true
          (w.from_s < w.until_s
           && List.for_all (fun s -> s >= 0 && s < a.shards) w.cut))
      a.partitions
  done;
  check_bool "different streams diverge" true
    (List.exists
       (fun i ->
         Dist.Chaos.generate ~seed:1 ~index:i
         <> Dist.Chaos.generate ~seed:2 ~index:i)
       (List.init 10 (fun i -> i)))

let test_chaos_shrink_minimizes () =
  (* find a rich scenario, declare one of its faults "the bug", and
     check the shrinker strips everything else *)
  let rec find i =
    if i > 500 then Alcotest.fail "no rich scenario in 500 indices"
    else
      let s = Dist.Chaos.generate ~seed:7 ~index:i in
      if
        List.length s.faults >= 2
        && (s.drop > 0.0 || s.delay_prob > 0.0 || s.partitions <> [])
      then s
      else find (i + 1)
  in
  let s = find 0 in
  let target = match s.faults with f :: _ -> f | [] -> assert false in
  let fails c = List.mem target c.Dist.Chaos.faults in
  let m = Dist.Chaos.minimize ~fails s in
  check_bool "still failing" true (fails m);
  check_int "single fault survives" 1 (List.length m.faults);
  check_bool "partitions stripped" true (m.partitions = []);
  check_bool "loss silenced" true (m.drop = 0.0 && m.delay_prob = 0.0);
  check_bool "horizon no larger" true (m.rounds <= s.rounds);
  check_bool "experiment unchanged" true
    (m.graph = s.graph && m.init = s.init && m.algo = s.algo && m.seed = s.seed);
  (* every shrink candidate is strictly simpler, so minimize terminates
     with nothing left to strip *)
  check_bool "locally minimal" true
    (not (List.exists fails (Dist.Chaos.shrink m)));
  let cl = Dist.Chaos.command_line m in
  check_bool "replayable command line" true
    (contains cl "lb_cluster --graph"
     && (contains cl "--kill" || contains cl "--term"));
  check_bool "no loss flags when lossless" true (not (contains cl "--drop"))

(* ---------- Setup ---------- *)

let test_setup_build () =
  match
    Dist.Setup.build
      { Dist.Setup.graph = "cycle:8"; init = "point:256"; algo = "rotor-router";
        seed = 1; self_loops = None }
  with
  | Error e -> Alcotest.fail e
  | Ok b ->
    check_int "n" 8 (Graphs.Graph.n b.Dist.Setup.graph);
    check_int "total" 256 (Array.fold_left ( + ) 0 b.Dist.Setup.init);
    check_bool "band positive" true (Dist.Setup.theorem_band b > 0);
    (match Dist.Setup.parse_band b "auto" with
     | Ok (Some _) -> ()
     | _ -> Alcotest.fail "band auto");
    (match Dist.Setup.parse_band b "none" with
     | Ok None -> ()
     | _ -> Alcotest.fail "band none");
    (match Dist.Setup.parse_band b "17" with
     | Ok (Some 17) -> ()
     | _ -> Alcotest.fail "band int");
    (match Dist.Setup.parse_band b "-3" with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "negative band must be rejected")

let test_setup_rejects () =
  let bad spec =
    match Dist.Setup.build spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "bad spec accepted"
  in
  bad
    { Dist.Setup.graph = "nonsense"; init = "point:256"; algo = "rotor-router";
      seed = 1; self_loops = None };
  bad
    { Dist.Setup.graph = "cycle:8"; init = "nonsense"; algo = "rotor-router";
      seed = 1; self_loops = None };
  bad
    { Dist.Setup.graph = "cycle:8"; init = "point:256"; algo = "nonsense";
      seed = 1; self_loops = None }

(* ---------- End-to-end over real sockets ---------- *)

let read_loads out =
  if Sys.file_exists out then begin
    let ic = open_in out in
    let rec go acc =
      match input_line ic with
      | line -> go (int_of_string line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let l = go [] in
    close_in ic;
    Some (Array.of_list l)
  end
  else None

(* Run a full forked cluster under the Launch supervisor (coordinator
   in-process); returns (exit_code, final_loads option). *)
let run_cluster ~shards ~rounds ~loss ~kills ~band built =
  let ckpt_dir = mkdtemp () in
  let out = Filename.concat ckpt_dir "loads.txt" in
  Dist.Launch.ignore_sigpipe ();
  let listen_fd, port = Dist.Transport.listen_loopback () in
  let node_cfg shard =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init;
      make_balancer = built.Dist.Setup.make_balancer; rounds; ckpt_dir; loss;
      protocol = Net.Protocol.default_config; tick = 0.01; hb_interval = 0.03;
      metrics_port = None; reconnects = 5; graceful_term = false;
      injection = Dist.Node.No_injection; verbose = false }
  in
  let sup = Dist.Launch.create ~listen_fd ~node_cfg ~shards ~verbose:false in
  Dist.Launch.spawn_all sup;
  let on_commit round =
    List.iter (fun (sh, r) -> if r = round then Dist.Launch.kill sup sh) kills
  in
  let cfg =
    { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
      listen_fd; suspect_timeout = 0.25; band; out_path = Some out;
      metrics_port = None;
      respawn = Some (fun s -> Dist.Launch.reap sup; Dist.Launch.spawn sup s);
      on_commit = (if kills = [] then None else Some on_commit);
      deadline = Some 60.; wal = None; graceful_term = false; verbose = false }
  in
  let code =
    Fun.protect
      ~finally:(fun () -> Dist.Launch.shutdown sup)
      (fun () -> Dist.Coord.main cfg)
  in
  let loads = read_loads out in
  rmdir_r ckpt_dir;
  (code, loads)

(* Run a full forked cluster under the Super supervisor (coordinator
   forked too, WAL-backed); returns (exit_code, final_loads option). *)
let run_super ?(faults = []) ?(partitions = []) ?(loss = Dist.Loss.none)
    ?(injection = fun _ -> Dist.Node.No_injection) ?(band = None) ~shards
    ~rounds built =
  let dir = mkdtemp () in
  let out = Filename.concat dir "loads.txt" in
  let wal_path = Filename.concat dir "coord.wal" in
  let loss = { loss with Dist.Loss.partitions } in
  let node_cfg ~port shard =
    { Dist.Node.shard; shards; port; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init;
      make_balancer = built.Dist.Setup.make_balancer; rounds; ckpt_dir = dir;
      loss; protocol = Net.Protocol.default_config; tick = 0.005;
      hb_interval = 0.02; metrics_port = None; reconnects = 8;
      graceful_term = true; injection = injection shard; verbose = false }
  in
  let coord_cfg ~listen_fd =
    { Dist.Coord.shards; rounds; graph = built.Dist.Setup.graph;
      init = built.Dist.Setup.init; balancer_name = built.Dist.Setup.name;
      listen_fd; suspect_timeout = 0.3; band; out_path = Some out;
      metrics_port = None; respawn = None; on_commit = None;
      deadline = Some 60.; wal = Some wal_path; graceful_term = true;
      verbose = false }
  in
  let coord_kills =
    List.length
      (List.filter
         (function Dist.Super.Kill_coord _ -> true | _ -> false)
         faults)
  in
  let code =
    Dist.Super.run
      { Dist.Super.shards; node_cfg; coord_cfg; wal_path; faults;
        deadline = Some 90.; coord_respawns = coord_kills;
        node_respawns = 3 + List.length faults; verbose = false }
  in
  let loads = read_loads out in
  rmdir_r dir;
  (code, loads)

let build_e2e () =
  match
    Dist.Setup.build
      { Dist.Setup.graph = "cycle:8"; init = "point:256"; algo = "rotor-router";
        seed = 1; self_loops = None }
  with
  | Ok b -> b
  | Error e -> Alcotest.fail e

let engine_reference built rounds =
  Core.Engine.run ~graph:built.Dist.Setup.graph
    ~balancer:(built.Dist.Setup.make_balancer ())
    ~init:built.Dist.Setup.init ~steps:rounds ()

let test_e2e_lossless_matches_engine () =
  let built = build_e2e () in
  let rounds = 12 in
  let code, loads =
    run_cluster ~shards:3 ~rounds ~loss:Dist.Loss.none ~kills:[] ~band:None
      built
  in
  check_int "exit code" 0 code;
  let reference = engine_reference built rounds in
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l ->
    Alcotest.(check (array int))
      "bit-for-bit with Core.Engine" reference.Core.Engine.final_loads l

let test_e2e_chaos_conserves () =
  let built = build_e2e () in
  let loss =
    { Dist.Loss.drop = 0.15; delay_prob = 0.1; delay_max = 0.02; seed = 5;
      partitions = [] }
  in
  let code, loads =
    run_cluster ~shards:3 ~rounds:12 ~loss ~kills:[ (1, 4) ] ~band:None built
  in
  (* exit 0 already implies the coordinator's exact-conservation check
     passed; re-assert the total from the written vector anyway *)
  check_int "exit code" 0 code;
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l -> check_int "tokens conserved" 256 (Array.fold_left ( + ) 0 l)

let test_e2e_coord_crash_replays () =
  let built = build_e2e () in
  let rounds = 40 in
  let code, loads =
    run_super ~faults:[ Dist.Super.Kill_coord { round = 6 } ] ~shards:3 ~rounds
      built
  in
  check_int "exit code" 0 code;
  let reference = engine_reference built rounds in
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l ->
    (* WAL replay resumed the frozen round exactly: the full-roster
       lossless run is indistinguishable from an uninterrupted one *)
    Alcotest.(check (array int))
      "bit-for-bit through the crash" reference.Core.Engine.final_loads l

let test_e2e_partition_heals () =
  let built = build_e2e () in
  let partitions =
    [ { Dist.Loss.cut = [ 1 ]; from_s = 0.15; until_s = 0.55 } ]
  in
  let code, loads = run_super ~partitions ~shards:3 ~rounds:40 built in
  check_int "exit code" 0 code;
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l -> check_int "tokens conserved" 256 (Array.fold_left ( + ) 0 l)

let test_e2e_sigterm_graceful () =
  let built = build_e2e () in
  let code, loads =
    run_super ~faults:[ Dist.Super.Term_shard { shard = 2; round = 3 } ]
      ~shards:3 ~rounds:20 built
  in
  check_int "exit code" 0 code;
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l -> check_int "tokens conserved" 256 (Array.fold_left ( + ) 0 l)

let test_e2e_misreport_once_heals () =
  let built = build_e2e () in
  let rounds = 12 in
  let injection s =
    if s = 1 then Dist.Node.Misreport_once 3 else Dist.Node.No_injection
  in
  let code, loads = run_super ~injection ~shards:3 ~rounds built in
  (* the poisoned commit rolls back, round 3 re-runs with an honest
     report, and the rollback is exact: bit-identical output *)
  check_int "exit code" 0 code;
  let reference = engine_reference built rounds in
  match loads with
  | None -> Alcotest.fail "cluster wrote no load vector"
  | Some l ->
    Alcotest.(check (array int))
      "bit-for-bit through the rollback" reference.Core.Engine.final_loads l

let test_e2e_misreport_persistent_fails () =
  let built = build_e2e () in
  let injection s =
    if s = 1 then Dist.Node.Misreport_from 3 else Dist.Node.No_injection
  in
  let code, _ = run_super ~injection ~shards:3 ~rounds:12 built in
  (* the same round poisons twice: the fault is durable, exit 4 *)
  check_int "exit code" 4 code

(* A coordinator stub that accepts each connection and resets it at
   once, until it has been idle for half a second; its exit status is
   the number of connections it took.  The node's first hello, sent
   right after connecting, hits the reset link: the node builds its
   n-word vectors between connect and hello, which gives the stub's
   reset time to land first, and a hello that still gets through meets
   the reset on its first read.  Either way the link loss must go
   through the reconnect budget: budget 0 exits 3 after one
   connection, budget 1 reconnects once and then exits 3. *)
let test_node_first_hello_reconnects () =
  Dist.Launch.ignore_sigpipe ();
  let n = 1 lsl 18 in
  let graph = Graphs.Gen.cycle n in
  let run_against_stub ~reconnects =
    let listen_fd, port = Dist.Transport.listen_loopback () in
    match Unix.fork () with
    | 0 ->
      let rec serve taken =
        match Unix.select [ listen_fd ] [] [] 0.5 with
        | [], _, _ -> taken
        | _ ->
          let fd, _ = Unix.accept listen_fd in
          Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
          Unix.close fd;
          serve (taken + 1)
      in
      Unix._exit (serve 0)
    | pid ->
      Unix.close listen_fd;
      let dir = mkdtemp () in
      let cfg =
        { Dist.Node.shard = 0; shards = 2; port; graph;
          init = Core.Loads.point_mass ~n ~total:64;
          make_balancer = (fun () -> Core.Rotor_router.make graph ~self_loops:2);
          rounds = 4; ckpt_dir = dir; loss = Dist.Loss.none;
          protocol = Net.Protocol.default_config; tick = 0.001;
          hb_interval = 0.02; metrics_port = None; reconnects;
          graceful_term = false; injection = Dist.Node.No_injection;
          verbose = false }
      in
      let code = Dist.Node.main cfg in
      let taken =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED k -> k
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
      in
      rmdir_r dir;
      (code, taken)
  in
  let code, taken = run_against_stub ~reconnects:0 in
  check_int "budget 0: exit code" 3 code;
  check_int "budget 0: connections" 1 taken;
  let code, taken = run_against_stub ~reconnects:1 in
  check_int "budget 1: exit code" 3 code;
  check_int "budget 1: connections" 2 taken

let () =
  Alcotest.run "dist"
    [ ( "frame",
        [ Alcotest.test_case "roundtrip under chunking" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "truncation waits" `Quick test_frame_truncated;
          Alcotest.test_case "bad crc is sticky" `Quick test_frame_bad_crc;
          Alcotest.test_case "oversized rejected" `Quick test_frame_oversized ] );
      ( "msg",
        [ Alcotest.test_case "roundtrip" `Quick test_msg_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_msg_rejects_garbage ] );
      ( "arq",
        [ Alcotest.test_case "sender flow" `Quick test_arq_sender_flow;
          Alcotest.test_case "receiver flow" `Quick test_arq_receiver_flow ] );
      ( "heartbeat",
        [ Alcotest.test_case "pacer" `Quick test_heartbeat_pacer;
          Alcotest.test_case "monitor" `Quick test_heartbeat_monitor;
          Alcotest.test_case "timeout validation" `Quick
            test_heartbeat_validate ] );
      ( "loss",
        [ Alcotest.test_case "none delivers" `Quick test_loss_none;
          Alcotest.test_case "replayable" `Quick test_loss_replayable;
          Alcotest.test_case "rates" `Quick test_loss_rates;
          Alcotest.test_case "delay bounds" `Quick test_loss_delay_bounds;
          Alcotest.test_case "partition windows" `Quick
            test_loss_partition_cut ] );
      ( "wal",
        [ Alcotest.test_case "roundtrip and replay" `Quick
            test_wal_roundtrip_replay;
          Alcotest.test_case "fresh boot and bootless logs" `Quick
            test_wal_fresh_and_bootless;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail ] );
      ( "member",
        [ Alcotest.test_case "boot" `Quick test_member_boot;
          Alcotest.test_case "commit and finish" `Quick
            test_member_commit_and_finish;
          Alcotest.test_case "death and rejoin" `Quick
            test_member_death_and_rejoin;
          Alcotest.test_case "choose_source" `Quick test_member_choose_source;
          Alcotest.test_case "admitted shard recovers at its own round"
            `Quick test_member_admitted_recover;
          Alcotest.test_case "snapshot and recover" `Quick
            test_member_snapshot_recover;
          Alcotest.test_case "poison rollback" `Quick
            test_member_poison_rollback;
          Alcotest.test_case "poison unrecoverable" `Quick
            test_member_poison_unrecoverable;
          member_machine_test ] );
      ( "chaos",
        [ Alcotest.test_case "generation is deterministic" `Quick
            test_chaos_generate_deterministic;
          Alcotest.test_case "shrinker minimizes" `Quick
            test_chaos_shrink_minimizes ] );
      ( "setup",
        [ Alcotest.test_case "build" `Quick test_setup_build;
          Alcotest.test_case "rejects" `Quick test_setup_rejects ] );
      ( "node",
        [ Alcotest.test_case "a link lost before the first hello reconnects"
            `Quick test_node_first_hello_reconnects ] );
      ( "e2e",
        [ Alcotest.test_case "lossless matches Core.Engine" `Slow
            test_e2e_lossless_matches_engine;
          Alcotest.test_case "chaos conserves tokens" `Slow
            test_e2e_chaos_conserves;
          Alcotest.test_case "coordinator crash replays the WAL" `Slow
            test_e2e_coord_crash_replays;
          Alcotest.test_case "partition heals" `Slow test_e2e_partition_heals;
          Alcotest.test_case "graceful SIGTERM" `Slow
            test_e2e_sigterm_graceful;
          Alcotest.test_case "misreport once heals" `Slow
            test_e2e_misreport_once_heals;
          Alcotest.test_case "persistent misreport fails" `Slow
            test_e2e_misreport_persistent_fails ] ) ]
