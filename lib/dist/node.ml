(* The lb_node daemon: one process owning one shard of the graph.

   Life cycle: connect to the coordinator (capped-backoff retries) →
   Hello (reporting which checkpoint rounds are on disk) → Welcome
   (restore the directed state: fresh init or a checkpoint) → rounds.

   Each round r is a local transaction:

   1. run [assign] for every owned node (ascending), accumulating
      local transfers into the staging vector and remote transfers into
      per-destination-shard batches (tokens for dead shards stay at the
      sender — the frozen-node semantics of degraded mode);
   2. ship the batches through the per-pair ARQ; every live peer gets
      at least one frame (the [fin] marker), so receivers can detect
      round completion;
   3. once every peer's fin arrived and all own sends are acked, save
      the {e staged} checkpoint (fsync'd) and send [Round_done] — the
      coordinator's commit can therefore always rely on the state
      being on disk;
   4. [Start (r+1)] commits: staging becomes the committed load vector
      and the {e primary} checkpoint; [Abort] rolls back to the
      committed state (balancer state included) and re-runs r under a
      new epoch; [Shutdown] is the final commit, answered with the
      owned slice of the load vector.

   The data plane (Data / Data_ack) passes the seeded loss shim on the
   way out; control messages do not.  All frames flow over the single
   coordinator connection, which relays them to the destination
   shard.

   The coordinator link is expendable: EOF, a corrupt stream, or a
   send failure tears the session down to Waiting_welcome and
   reconnects (capped cycles), re-reporting the on-disk checkpoints in
   a fresh Hello — this is how a shard survives a coordinator restart
   or a healed partition.  The current epoch survives reconnects, so
   control messages from a fenced-off coordinator incarnation (or
   delayed packets from an old partition) are rejected as stale. *)

type injection =
  | No_injection
  | Misreport_once of int
      (* lie (+1) in the first Round_done for this round; honest after
         the poisoned commit rolls back and the round re-runs *)
  | Misreport_from of int
      (* lie in every Round_done from this round on: the audit can
         never pass, so the coordinator's poison budget must trip *)

type config = {
  shard : int;
  shards : int;
  port : int; (* coordinator listen port on 127.0.0.1 *)
  graph : Graphs.Graph.t;
  init : int array;
  make_balancer : unit -> Core.Balancer.t;
  rounds : int;
  ckpt_dir : string;
  loss : Loss.config;
  protocol : Net.Protocol.config;
  tick : float; (* seconds per protocol round-unit (retransmit clock) *)
  hb_interval : float;
  metrics_port : int option;
  reconnects : int; (* consecutive lost-coordinator cycles tolerated *)
  graceful_term : bool; (* catch SIGTERM; exit 0 at the next barrier *)
  injection : injection; (* conservation-audit fault injection (tests) *)
  verbose : bool;
}

exception Fatal of int * string

exception Reconnect of string
(* the coordinator link failed; tear the session down and re-hello *)

type phase = Waiting_welcome | Running | Await_commit | Idle_done

type peer_state = {
  sender : (int * Msg.transfer list * bool) Arq.sender;
      (* payload: round, transfers, fin *)
  receiver : (Msg.transfer list * bool * int) Arq.receiver;
      (* payload: transfers, fin, round *)
  mutable future : (Msg.transfer list * bool * int) list;
      (* in-order deliveries for a round we have not started yet *)
}

type t = {
  cfg : config;
  mutable conn : Transport.conn;
  part : Shard.Partition.t;
  owned : int array;
  mutable balancer : Core.Balancer.t;
  n : int;
  d : int;
  ports : int array; (* assign scratch *)
  loads : int array; (* committed loads; authoritative for owned nodes *)
  staged : int array; (* next-loads accumulator for the running round *)
  mutable committed_state : int array option;
  mutable epoch : int;
  mutable round : int;
  mutable members : int list;
  member_of : bool array;
  mutable phase : phase;
  peers : peer_state option array; (* per shard; Some for live peers *)
  fin_from : bool array;
  shim : Loss.t;
  mutable delayed : (float * string) list; (* release time, framed bytes *)
  hb : Heartbeat.pacer;
  httpd : Httpd.t option;
  mutable stop : int option;
  started : float; (* partition windows are relative to this *)
  mutable term : bool; (* SIGTERM seen; leave at the next barrier *)
  mutable lied : bool; (* Misreport_once already fired *)
  mutable reconnects_left : int;
  (* metrics *)
  m_reconnects : Obs.Metrics.counter;
  m_rounds : Obs.Metrics.counter;
  m_aborts : Obs.Metrics.counter;
  m_retx : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  m_hb : Obs.Metrics.counter;
  m_epoch : Obs.Metrics.gauge;
  m_load : Obs.Metrics.gauge;
}

let logf t fmt =
  if t.cfg.verbose then
    Printf.eprintf ("lb_node[%d]: " ^^ fmt ^^ "\n%!") t.cfg.shard
  else Printf.ifprintf stderr fmt

let primary_path cfg = Filename.concat cfg.ckpt_dir (Printf.sprintf "shard%d.ckpt" cfg.shard)
let staged_path cfg = Filename.concat cfg.ckpt_dir (Printf.sprintf "shard%d.staged" cfg.shard)

let checkpoint_round path =
  match Shard.Checkpoint.load ~path with
  | snap -> Some snap.Shard.Checkpoint.step
  | exception Shard.Checkpoint.Checkpoint_error _ -> None
  | exception Sys_error _ -> None

let persist t = t.balancer.Core.Balancer.persist

let save_state t = match persist t with Some p -> Some (p.Core.Balancer.state_save ()) | None -> None

let restore_state t = function
  | None -> ()
  | Some arr -> (
    match persist t with
    | Some p -> p.Core.Balancer.state_restore arr
    | None -> ())

let snapshot t ~step ~loads =
  let mn = ref 0 in
  Array.iter (fun u -> if loads.(u) < !mn then mn := loads.(u)) t.owned;
  {
    Shard.Checkpoint.balancer_name = t.balancer.Core.Balancer.name;
    n = t.n;
    degree = t.d;
    total_steps = t.cfg.rounds;
    step;
    loads;
    balancer_state = save_state t;
    series_rev = [];
    min_load_seen = !mn;
    reached_target = None;
  }

let owned_slice t src =
  let out = Array.make t.n 0 in
  Array.iter (fun u -> out.(u) <- src.(u)) t.owned;
  out

let committed_sum t =
  let s = ref 0 in
  Array.iter (fun u -> s := !s + t.loads.(u)) t.owned;
  !s

(* Every write to the coordinator link goes through here: a dead peer
   surfaces as EPIPE/ECONNRESET (SIGPIPE is ignored by the launchers),
   which means "tear down and reconnect", never "die". *)
let send_ctl t msg =
  try Transport.send t.conn msg
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    raise (Reconnect "send failed")

(* An open partition window cuts this shard off from the coordinator —
   and, the cluster being a star, from everyone. *)
let muted t ~now =
  Loss.cut t.cfg.loss ~elapsed:(now -. t.started) ~src:t.cfg.shard ~dst:(-1)

(* --- data-plane output through the loss shim --- *)

let emit_data t ~dst msg =
  match Loss.decide t.shim ~src:t.cfg.shard ~dst with
  | Loss.Deliver -> send_ctl t msg
  | Loss.Drop -> Obs.Metrics.inc t.m_dropped 1
  | Loss.Delay dt ->
    let release = Clock.now () +. dt in
    t.delayed <- (release, Frame.encode (Msg.encode msg)) :: t.delayed

let release_delayed t ~now =
  let due, later = List.partition (fun (r, _) -> r <= now) t.delayed in
  t.delayed <- later;
  (* Oldest first: preserves per-link order among same-instant releases. *)
  List.iter
    (fun (_, framed) ->
      try
        Transport.write_all (Transport.fd t.conn) framed 0
          (String.length framed)
      with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        raise (Reconnect "send failed"))
    (List.rev due)

let flush_arq t ~now =
  List.iter
    (fun p ->
      if p <> t.cfg.shard then
        match t.peers.(p) with
        | None -> ()
        | Some ps ->
          List.iter
            (fun (seq, (round, transfers, fin)) ->
              emit_data t ~dst:p
                (Msg.Data
                   {
                     src = t.cfg.shard;
                     dst = p;
                     epoch = t.epoch;
                     round;
                     seq;
                     transfers;
                     fin;
                   }))
            (Arq.due ps.sender ~now))
    t.members

let reset_peers t =
  Array.fill t.peers 0 t.cfg.shards None;
  Array.fill t.member_of 0 t.cfg.shards false;
  List.iter
    (fun p ->
      t.member_of.(p) <- true;
      if p <> t.cfg.shard then
        t.peers.(p) <-
          Some
            {
              sender = Arq.sender ~config:t.cfg.protocol ~tick:t.cfg.tick;
              receiver = Arq.receiver ();
              future = [];
            })
    t.members;
  t.delayed <- []

(* --- round execution --- *)

let batch_size = 64

let stage_round t =
  t.phase <- Running;
  Array.fill t.staged 0 t.n 0;
  Array.fill t.fin_from 0 t.cfg.shards false;
  let out = Array.make t.cfg.shards [] in
  let self = t.cfg.shard in
  Array.iter
    (fun u ->
      let x = t.loads.(u) in
      let kept =
        match
          Core.Engine.node_step ~balancer:t.balancer ~tracker:None ~step:t.round
            ~node:u ~load:x t.ports
        with
        | k -> ref k
        | exception Core.Engine.Invariant_violation m -> raise (Fatal (4, m))
      in
      for k = 0 to t.d - 1 do
        let tk = t.ports.(k) in
        if tk <> 0 then begin
          let v = Graphs.Graph.neighbor t.cfg.graph u k in
          let ow = t.part.Shard.Partition.owner.(v) in
          if ow = self then t.staged.(v) <- t.staged.(v) + tk
          else if t.member_of.(ow) then out.(ow) <- (v, tk) :: out.(ow)
          else kept := !kept + tk (* dead destination: tokens stay here *)
        end
      done;
      t.staged.(u) <- t.staged.(u) + !kept)
    t.owned;
  let now = Clock.now () in
  List.iter
    (fun p ->
      if p <> self then
        match t.peers.(p) with
        | None -> ()
        | Some ps ->
          let transfers =
            List.rev_map
              (fun (v, tk) -> { Msg.dest = v; tokens = tk })
              out.(p)
          in
          let rec chunks = function
            | [] -> [ ([], true) ]
            | l ->
              let rec take k acc rest =
                match rest with
                | x :: tl when k < batch_size -> take (k + 1) (x :: acc) tl
                | _ -> (List.rev acc, rest)
              in
              let chunk, rest = take 0 [] l in
              if rest = [] then [ (chunk, true) ]
              else (chunk, false) :: chunks rest
          in
          List.iter
            (fun (chunk, fin) ->
              ignore (Arq.send ps.sender ~now (t.round, chunk, fin)))
            (chunks transfers)
    )
    t.members;
  flush_arq t ~now

let round_quiescent t =
  t.phase = Running
  && List.for_all
       (fun p -> p = t.cfg.shard || t.fin_from.(p))
       t.members
  && List.for_all
       (fun p ->
         p = t.cfg.shard
         ||
         match t.peers.(p) with
         | None -> true
         | Some ps -> Arq.unacked ps.sender = 0)
       t.members

let stage_done t =
  let sum = ref 0 and mn = ref max_int and mx = ref min_int in
  Array.iter
    (fun u ->
      let v = t.staged.(u) in
      sum := !sum + v;
      if v < !mn then mn := v;
      if v > !mx then mx := v)
    t.owned;
  let mn = if Array.length t.owned = 0 then 0 else !mn in
  let mx = if Array.length t.owned = 0 then 0 else !mx in
  Shard.Checkpoint.save ~path:(staged_path t.cfg)
    (snapshot t ~step:t.round ~loads:(owned_slice t t.staged));
  (* Fault injection for the quarantine/fuzzer tests: misreport the
     staged sum so the coordinator's conservation audit trips.  The
     durable state stays honest — exactly the shape of a flaky reporter
     or a memory-corrupted counter. *)
  let reported =
    match t.cfg.injection with
    | Misreport_once r when r = t.round && not t.lied ->
      t.lied <- true;
      !sum + 1
    | Misreport_from r when t.round >= r -> !sum + 1
    | No_injection | Misreport_once _ | Misreport_from _ -> !sum
  in
  send_ctl t
    (Msg.Round_done
       {
         shard = t.cfg.shard;
         epoch = t.epoch;
         round = t.round;
         load_sum = reported;
         min_load = mn;
         max_load = mx;
       });
  t.phase <- Await_commit;
  logf t "round %d staged (sum=%d)" t.round reported

let check_complete t = if round_quiescent t then stage_done t

let apply_delivery t ~src (transfers, fin, r) =
  if r = t.round && t.phase = Running then begin
    List.iter
      (fun { Msg.dest; tokens } -> t.staged.(dest) <- t.staged.(dest) + tokens)
      transfers;
    if fin then t.fin_from.(src) <- true
  end
  else begin
    (* The peer already advanced to the next round (it saw the commit
       before we did); hold its traffic until our Start arrives. *)
    match t.peers.(src) with
    | None -> ()
    | Some ps -> ps.future <- ps.future @ [ (transfers, fin, r) ]
  end

let drain_future t =
  List.iter
    (fun p ->
      if p <> t.cfg.shard then
        match t.peers.(p) with
        | None -> ()
        | Some ps ->
          let pending = ps.future in
          ps.future <- [];
          List.iter (fun d -> apply_delivery t ~src:p d) pending)
    t.members

let commit t =
  Array.iter (fun u -> t.loads.(u) <- t.staged.(u)) t.owned;
  t.committed_state <- save_state t;
  Shard.Checkpoint.save ~path:(primary_path t.cfg)
    (snapshot t ~step:t.round ~loads:(owned_slice t t.loads));
  Obs.Metrics.inc t.m_rounds 1;
  Obs.Metrics.set t.m_load (float_of_int (committed_sum t))

let start_round t ~round =
  t.round <- round;
  stage_round t;
  drain_future t;
  check_complete t

(* --- control messages --- *)

let on_welcome t ~epoch ~round ~members ~use =
  if t.phase <> Waiting_welcome then
    (* A live session has no use for a Welcome; if the coordinator
       really wants a re-handshake it closes our connection first and
       we arrive here through the reconnect path. *)
    logf t "ignoring welcome outside the handshake (e=%d r=%d)" epoch round
  else if epoch < t.epoch then
    logf t "fencing stale welcome (e=%d < local %d)" epoch t.epoch
  else begin
  (match use with
   | Msg.Use_fresh ->
     (* A fresh start must also shed any balancer state left from a
        previous session of this same process (reconnect after the
        coordinator lost our round-0 hello). *)
     t.balancer <- t.cfg.make_balancer ();
     Array.blit t.cfg.init 0 t.loads 0 t.n
   | Msg.Use_primary | Msg.Use_staged | Msg.Use_rotated ->
     let path =
       match use with
       | Msg.Use_primary -> primary_path t.cfg
       | Msg.Use_staged -> staged_path t.cfg
       | Msg.Use_rotated -> Shard.Checkpoint.prev_path (primary_path t.cfg)
       | Msg.Use_fresh -> assert false
     in
     let snap =
       match Shard.Checkpoint.load ~path with
       | snap -> snap
       | exception Shard.Checkpoint.Checkpoint_error e ->
         raise
           (Fatal
              ( 3,
                Printf.sprintf "cannot load directed checkpoint %s: %s" path
                  (Shard.Checkpoint.error_message e) ))
     in
     if
       snap.Shard.Checkpoint.n <> t.n
       || snap.Shard.Checkpoint.degree <> t.d
       || not (String.equal snap.Shard.Checkpoint.balancer_name t.balancer.Core.Balancer.name)
     then raise (Fatal (3, "checkpoint does not match this run's spec"));
     (match restore_state t snap.Shard.Checkpoint.balancer_state with
      | () -> ()
      | exception Invalid_argument m ->
        raise (Fatal (3, Printf.sprintf "checkpoint %s: %s" path m)));
     Array.blit snap.Shard.Checkpoint.loads 0 t.loads 0 t.n;
     logf t "restored %s (%s)" path (Msg.choice_name use));
  t.committed_state <- save_state t;
  (* Promote the restored state to the primary checkpoint so the next
     recovery is uniform. *)
  Shard.Checkpoint.save ~path:(primary_path t.cfg)
    (snapshot t ~step:(round - 1) ~loads:(owned_slice t t.loads));
  t.epoch <- epoch;
  t.members <- members;
  t.reconnects_left <- t.cfg.reconnects;
  reset_peers t;
  Obs.Metrics.set t.m_epoch (float_of_int epoch);
  Obs.Metrics.set t.m_load (float_of_int (committed_sum t));
  if round <= t.cfg.rounds then start_round t ~round
  else t.phase <- Idle_done
  end

let on_start t ~epoch ~round ~members =
  match t.phase with
  | Await_commit when round = t.round + 1 && epoch >= t.epoch ->
    commit t;
    t.members <- members;
    if epoch <> t.epoch then begin
      t.epoch <- epoch;
      reset_peers t;
      Obs.Metrics.set t.m_epoch (float_of_int epoch)
    end;
    start_round t ~round
  | Waiting_welcome | Running | Await_commit | Idle_done ->
    logf t "ignoring stale start (e=%d r=%d)" epoch round

let on_abort t ~epoch ~round ~members =
  match t.phase with
  | (Running | Await_commit) when epoch > t.epoch ->
    Obs.Metrics.inc t.m_aborts 1;
    restore_state t t.committed_state;
    t.epoch <- epoch;
    t.members <- members;
    reset_peers t;
    Obs.Metrics.set t.m_epoch (float_of_int epoch);
    logf t "abort: re-running round %d under epoch %d" round epoch;
    start_round t ~round
  | Waiting_welcome | Running | Await_commit | Idle_done ->
    logf t "ignoring stale abort (e=%d r=%d)" epoch round

let on_shutdown t ~epoch =
  if epoch < t.epoch then
    (* A fenced-off coordinator incarnation (or a delayed frame from an
       old partition) cannot tear down a cluster that moved on. *)
    logf t "fencing stale shutdown (e=%d < local %d)" epoch t.epoch
  else begin
    if t.phase = Await_commit then commit t;
    let loads = Array.map (fun u -> (u, t.loads.(u))) t.owned in
    send_ctl t
      (Msg.Result { shard = t.cfg.shard; loads = Array.to_list loads });
    t.stop <- Some 0
  end

let handle t msg =
  match msg with
  | Msg.Welcome { epoch; round; members; use } ->
    on_welcome t ~epoch ~round ~members ~use
  | Msg.Start { epoch; round; members } -> on_start t ~epoch ~round ~members
  | Msg.Abort { epoch; round; members } -> on_abort t ~epoch ~round ~members
  | Msg.Shutdown { epoch } -> on_shutdown t ~epoch
  | Msg.Data { src; dst; epoch; round; seq; transfers; fin } ->
    if dst = t.cfg.shard && epoch = t.epoch then (
      match t.peers.(src) with
      | None -> ()
      | Some ps ->
        let delivered = Arq.accept ps.receiver ~seq (transfers, fin, round) in
        emit_data t ~dst:src
          (Msg.Data_ack
             {
               src = t.cfg.shard;
               dst = src;
               epoch = t.epoch;
               ack = Arq.cumulative_ack ps.receiver;
             });
        List.iter (fun d -> apply_delivery t ~src d) delivered;
        check_complete t)
  | Msg.Data_ack { src; dst; epoch; ack } ->
    if dst = t.cfg.shard && epoch = t.epoch then (
      match t.peers.(src) with
      | None -> ()
      | Some ps ->
        Arq.ack ps.sender ~upto:ack;
        check_complete t)
  | Msg.Hello _ | Msg.Round_done _ | Msg.Heartbeat _ | Msg.Result _ ->
    logf t "ignoring unexpected %s" (Msg.describe msg)

(* --- event loop --- *)

let next_deadline t ~now =
  let dl = ref (Heartbeat.next_due t.hb) in
  let keep d = if d < !dl then dl := d in
  List.iter
    (fun p ->
      if p <> t.cfg.shard then
        match t.peers.(p) with
        | None -> ()
        | Some ps -> (
          match Arq.next_deadline ps.sender with
          | Some d -> keep d
          | None -> ()))
    t.members;
  List.iter (fun (r, _) -> keep r) t.delayed;
  Float.max 0.002 (Float.min 0.25 (!dl -. now))

let tickers t =
  let now = Clock.now () in
  if Heartbeat.due t.hb ~now then begin
    Obs.Metrics.inc t.m_hb 1;
    send_ctl t
      (Msg.Heartbeat
         {
           shard = t.cfg.shard;
           epoch = t.epoch;
           round = t.round;
           load_sum = committed_sum t;
         })
  end;
  release_delayed t ~now;
  flush_arq t ~now;
  (* retransmission counter mirrors the sum over live senders *)
  let retx = ref 0 in
  List.iter
    (fun p ->
      if p <> t.cfg.shard then
        match t.peers.(p) with
        | None -> ()
        | Some ps -> retx := !retx + Arq.retransmissions ps.sender)
    t.members;
  Obs.Metrics.set_counter t.m_retx !retx

let validate cfg =
  let fail m = raise (Fatal (2, m)) in
  if cfg.shards < 1 then fail "shards must be >= 1";
  if cfg.shard < 0 || cfg.shard >= cfg.shards then fail "shard id out of range";
  if cfg.rounds < 1 then fail "rounds must be >= 1";
  if cfg.tick <= 0.0 then fail "tick must be > 0";
  if cfg.hb_interval <= 0.0 then fail "heartbeat interval must be > 0";
  if cfg.reconnects < 0 then fail "reconnect budget must be >= 0";
  if Array.length cfg.init <> Graphs.Graph.n cfg.graph then
    fail "init vector does not match the graph";
  (match Loss.validate cfg.loss with Ok () -> () | Error m -> fail m);
  (match Net.Protocol.validate_config cfg.protocol with
   | Ok () -> ()
   | Error m -> fail m)

let connect cfg =
  match
    Transport.connect_loopback ~port:cfg.port ~config:cfg.protocol
      ~tick:cfg.tick ~attempts:8
  with
  | fd -> Transport.of_fd ~peer:"coordinator" fd
  | exception Transport.Connect_failed m -> raise (Reconnect m)

let hello t =
  send_ctl t
    (Msg.Hello
       {
         shard = t.cfg.shard;
         staged_round = checkpoint_round (staged_path t.cfg);
         primary_round = checkpoint_round (primary_path t.cfg);
         rotated_round =
           checkpoint_round (Shard.Checkpoint.prev_path (primary_path t.cfg));
       })

let run cfg =
  validate cfg;
  let balancer = cfg.make_balancer () in
  if not (Core.Balancer.resumable balancer) then
    raise
      (Fatal
         ( 2,
           Printf.sprintf "balancer %s cannot be checkpointed/rolled back"
             balancer.Core.Balancer.name ));
  if balancer.Core.Balancer.degree <> Graphs.Graph.degree cfg.graph then
    raise (Fatal (2, "balancer degree does not match the graph"));
  let part =
    Shard.Partition.make ~strategy:Shard.Partition.Contiguous
      ~shards:cfg.shards cfg.graph
  in
  let conn =
    try connect cfg with Reconnect m -> raise (Fatal (3, "coordinator: " ^ m))
  in
  let n = Graphs.Graph.n cfg.graph in
  let d = Graphs.Graph.degree cfg.graph in
  let registry = Obs.Metrics.default in
  let metric name help = Obs.Metrics.counter ~registry ~help name in
  let t =
    {
      cfg;
      conn;
      part;
      owned = part.Shard.Partition.parts.(cfg.shard);
      balancer;
      n;
      d;
      ports = Array.make (Core.Balancer.d_plus balancer) 0;
      loads = Array.make n 0;
      staged = Array.make n 0;
      committed_state = None;
      epoch = 0;
      round = 0;
      members = [];
      member_of = Array.make cfg.shards false;
      phase = Waiting_welcome;
      peers = Array.make cfg.shards None;
      fin_from = Array.make cfg.shards false;
      shim = Loss.create cfg.loss;
      delayed = [];
      hb = Heartbeat.pacer ~interval:cfg.hb_interval ~now:(Clock.now ());
      httpd =
        (match cfg.metrics_port with
         | None -> None
         | Some p -> Some (Httpd.create ~port:p ~registry ()));
      stop = None;
      started = Clock.now ();
      term = false;
      lied = false;
      reconnects_left = cfg.reconnects;
      m_reconnects =
        metric "lb_node_reconnects_total" "coordinator link reconnects";
      m_rounds = metric "lb_node_rounds_committed_total" "rounds committed";
      m_aborts = metric "lb_node_aborts_total" "rounds aborted and re-run";
      m_retx = metric "lb_node_retransmissions_total" "ARQ retransmissions";
      m_dropped = metric "lb_node_frames_dropped_total" "frames dropped by the loss shim";
      m_hb = metric "lb_node_heartbeats_total" "heartbeats sent";
      m_epoch = Obs.Metrics.gauge ~registry ~help:"current epoch" "lb_node_epoch";
      m_load =
        Obs.Metrics.gauge ~registry ~help:"committed owned token sum"
          "lb_node_load_sum";
    }
  in
  if cfg.graceful_term then
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> t.term <- true));
  hello t;
  (* One connected session.  Raises Reconnect when the coordinator link
     fails; returns the exit code once t.stop is set. *)
  let rec session () =
    match t.stop with
    | Some code -> code
    | None ->
      let now = Clock.now () in
      (* Graceful SIGTERM: leave at a round barrier, never mid-round —
         by Await_commit the staged checkpoint is durable, so a
         replacement (or a rejoin) resumes without losing a token. *)
      if t.term && t.phase <> Running then begin
        logf t "SIGTERM: leaving at the round barrier (round %d)" t.round;
        t.stop <- Some 0;
        session ()
      end
      else begin
        let m = muted t ~now in
        if not m then tickers t;
        let now = Clock.now () in
        let timeout = if m then 0.05 else next_deadline t ~now in
        let fds =
          (if m then [] else [ Transport.fd t.conn ])
          @ (match t.httpd with None -> [] | Some h -> [ Httpd.fd h ])
        in
        let readable, _, _ =
          try Unix.select fds [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (match t.httpd with
         | Some h when List.memq (Httpd.fd h) readable -> Httpd.serve_ready h
         | Some _ | None -> ());
        if (not m) && List.memq (Transport.fd t.conn) readable then begin
          match Transport.read_step t.conn with
          | Transport.Msgs msgs -> List.iter (handle t) msgs
          | Transport.Closed ->
            if t.stop = None then raise (Reconnect "connection closed")
          | Transport.Corrupt m ->
            (* A corrupt coordinator stream poisons only this session's
               decoder; a fresh connection resynchronizes from scratch. *)
            raise (Reconnect ("stream corrupt: " ^ m))
        end;
        session ()
      end
  in
  let rec lifecycle () =
    match session () with
    | code -> code
    | exception Reconnect reason ->
      Obs.Metrics.inc t.m_reconnects 1;
      logf t "coordinator link lost (%s); reconnecting" reason;
      Transport.close t.conn;
      t.phase <- Waiting_welcome;
      t.members <- [];
      reset_peers t;
      let rec re () =
        if t.reconnects_left <= 0 then
          raise
            (Fatal
               (3, "coordinator link lost and the reconnect budget is spent"));
        t.reconnects_left <- t.reconnects_left - 1;
        match connect t.cfg with
        | conn -> (
          t.conn <- conn;
          (* Re-report the on-disk checkpoints: the coordinator (same
             incarnation or a WAL-restarted one) re-elects our source. *)
          try hello t
          with Reconnect _ ->
            Transport.close t.conn;
            re ())
        | exception Reconnect _ -> re ()
      in
      re ();
      lifecycle ()
  in
  Fun.protect
    ~finally:(fun () ->
      Transport.close t.conn;
      match t.httpd with Some h -> Httpd.close h | None -> ())
    lifecycle

let main cfg =
  match run cfg with
  | code -> code
  | exception Fatal (code, msg) ->
    Printf.eprintf "lb_node[%d]: %s\n%!" cfg.shard msg;
    code
  | exception Unix.Unix_error (e, fn, _) ->
    Printf.eprintf "lb_node[%d]: %s: %s\n%!" cfg.shard fn (Unix.error_message e);
    3
