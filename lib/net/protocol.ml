type backoff = Fixed | Exponential

let backoff_of_string = function
  | "fixed" -> Ok Fixed
  | "exp" | "exponential" -> Ok Exponential
  | other ->
    Error (Printf.sprintf "unknown backoff %S (expected fixed or exp)" other)

let backoff_name = function Fixed -> "fixed" | Exponential -> "exponential"

type config = { timeout : int; backoff : backoff; cap : int }

let default_config = { timeout = 4; backoff = Exponential; cap = 64 }

let validate_config c =
  if c.timeout < 1 then
    Error (Printf.sprintf "retransmit timeout %d must be >= 1" c.timeout)
  else if c.cap < c.timeout then
    Error
      (Printf.sprintf "backoff cap %d below the base timeout %d" c.cap c.timeout)
  else Ok ()

let config_to_string c =
  Printf.sprintf "retx timeout %d (%s, cap %d)" c.timeout (backoff_name c.backoff)
    c.cap

type stats = {
  messages_sent : int;
  tokens_sent : int;
  retransmissions : int;
  duplicates_discarded : int;
  out_of_order : int;
  acks_sent : int;
  max_in_flight_tokens : int;
}

(* One unacknowledged message on the sender side. *)
type unacked = {
  u_seq : int;
  u_tokens : int;
  mutable u_retries : int;
  mutable u_next_retx : int;
}

type t = {
  channel : Channel.t;
  config : config;
  on_message : Trace.message_event -> unit;
  degree : int;
  adj : int array;  (** flat adjacency: destination of each edge *)
  rev : int array;  (** reverse directed edge of each edge *)
  incoming : int array array;  (** per node: incoming directed edges *)
  next_seq : int array;  (** per edge: next sequence number to assign *)
  unacked : unacked Queue.t array;  (** per edge, in seq order *)
  expect : int array;  (** per edge: next in-order seq at the receiver *)
  ooo : (int, int) Hashtbl.t array;  (** per edge: seq → tokens stash *)
  pending_round : int Queue.t array;
      (** per edge: first-send rounds of undelivered messages, seq order *)
  mutable in_flight : int;
  mutable unacked_count : int;
  mutable messages_sent : int;
  mutable tokens_sent : int;
  mutable retransmissions : int;
  mutable duplicates_discarded : int;
  mutable out_of_order : int;
  mutable acks_sent : int;
  mutable max_in_flight : int;
}

let create ?(on_message = fun _ -> ()) ~graph ~channel ~config () =
  (match validate_config config with
  | Ok () -> ()
  | Error m -> invalid_arg ("Net.Protocol.create: " ^ m));
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  let edges = n * d in
  let adj = Graphs.Graph.adjacency graph in
  let rev = Graphs.Graph.reverse_ports graph in
  let incoming_lists = Array.make n [] in
  for e = 0 to edges - 1 do
    let v = adj.(e) in
    rev.(e) <- (v * d) + rev.(e);
    incoming_lists.(v) <- e :: incoming_lists.(v)
  done;
  {
    channel;
    config;
    on_message;
    degree = d;
    adj;
    rev;
    incoming = Array.map (fun l -> Array.of_list (List.rev l)) incoming_lists;
    next_seq = Array.make edges 1;
    unacked = Array.init edges (fun _ -> Queue.create ());
    expect = Array.make edges 1;
    ooo = Array.init edges (fun _ -> Hashtbl.create 4);
    pending_round = Array.init edges (fun _ -> Queue.create ());
    in_flight = 0;
    unacked_count = 0;
    messages_sent = 0;
    tokens_sent = 0;
    retransmissions = 0;
    duplicates_discarded = 0;
    out_of_order = 0;
    acks_sent = 0;
    max_in_flight = 0;
  }

let event t ~now kind ~edge ~seq ~tokens =
  t.on_message
    { Trace.m_step = now; m_kind = kind; m_edge = edge; m_seq = seq;
      m_tokens = tokens }

let retx_delay config ~retries =
  if retries < 0 then invalid_arg "Net.Protocol.retx_delay: negative retries";
  match config.backoff with
  | Fixed -> config.timeout
  | Exponential ->
    if retries >= 30 then config.cap
    else min config.cap (config.timeout lsl retries)

let next_timeout t retries = retx_delay t.config ~retries

let send t ~now ~node ~port ~tokens =
  if tokens <= 0 then invalid_arg "Net.Protocol.send: tokens must be positive";
  if port < 0 || port >= t.degree then invalid_arg "Net.Protocol.send: bad port";
  let edge = (node * t.degree) + port in
  let seq = t.next_seq.(edge) in
  t.next_seq.(edge) <- seq + 1;
  Queue.add
    { u_seq = seq; u_tokens = tokens; u_retries = 0;
      u_next_retx = now + t.config.timeout }
    t.unacked.(edge);
  t.unacked_count <- t.unacked_count + 1;
  Queue.add now t.pending_round.(edge);
  t.in_flight <- t.in_flight + tokens;
  if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight;
  t.messages_sent <- t.messages_sent + 1;
  t.tokens_sent <- t.tokens_sent + tokens;
  event t ~now Trace.Msg_send ~edge ~seq ~tokens;
  Channel.send t.channel ~now ~edge (Channel.Data { seq; tokens })

let send_ack t ~now ~data_edge =
  t.acks_sent <- t.acks_sent + 1;
  Channel.send t.channel ~now ~edge:t.rev.(data_edge)
    (Channel.Ack { cum = t.expect.(data_edge) - 1 })

let apply_in_order t ~now ~edge ~deliver tokens =
  let node = t.adj.(edge) in
  deliver ~node ~tokens;
  t.in_flight <- t.in_flight - tokens;
  ignore (Queue.pop t.pending_round.(edge));
  event t ~now Trace.Msg_deliver ~edge ~seq:t.expect.(edge) ~tokens;
  t.expect.(edge) <- t.expect.(edge) + 1

let handle_data t ~now ~deliver ~edge ~seq ~tokens =
  if seq < t.expect.(edge) then
    t.duplicates_discarded <- t.duplicates_discarded + 1
  else if seq = t.expect.(edge) then begin
    apply_in_order t ~now ~edge ~deliver tokens;
    (* Drain any stashed successors that are now in order. *)
    let rec drain () =
      match Hashtbl.find_opt t.ooo.(edge) t.expect.(edge) with
      | None -> ()
      | Some tk ->
        Hashtbl.remove t.ooo.(edge) t.expect.(edge);
        apply_in_order t ~now ~edge ~deliver tk;
        drain ()
    in
    drain ()
  end
  else if Hashtbl.mem t.ooo.(edge) seq then
    t.duplicates_discarded <- t.duplicates_discarded + 1
  else begin
    Hashtbl.replace t.ooo.(edge) seq tokens;
    t.out_of_order <- t.out_of_order + 1
  end;
  (* Every data packet — fresh, early or duplicate — refreshes the
     cumulative ACK, so a lost ACK is repaired by the next arrival. *)
  send_ack t ~now ~data_edge:edge

let handle_ack t ~edge ~cum =
  (* [edge] is the edge the ACK travelled on; it acknowledges the data
     stream of the reverse edge. *)
  let data_edge = t.rev.(edge) in
  let q = t.unacked.(data_edge) in
  let rec trim () =
    match Queue.peek_opt q with
    | Some u when u.u_seq <= cum ->
      ignore (Queue.pop q);
      t.unacked_count <- t.unacked_count - 1;
      trim ()
    | _ -> ()
  in
  trim ()

let retransmit_pass t ~now =
  let fired = ref 0 in
  Array.iteri
    (fun edge q ->
      Queue.iter
        (fun u ->
          if u.u_next_retx <= now then begin
            u.u_retries <- u.u_retries + 1;
            u.u_next_retx <- now + next_timeout t u.u_retries;
            t.retransmissions <- t.retransmissions + 1;
            incr fired;
            event t ~now Trace.Msg_retransmit ~edge ~seq:u.u_seq
              ~tokens:u.u_tokens;
            Channel.send t.channel ~now ~edge
              (Channel.Data { seq = u.u_seq; tokens = u.u_tokens })
          end)
        q)
    t.unacked;
  !fired

let tick t ~now ~deliver =
  let handle ~edge payload =
    match payload with
    | Channel.Data { seq; tokens } -> handle_data t ~now ~deliver ~edge ~seq ~tokens
    | Channel.Ack { cum } -> handle_ack t ~edge ~cum
  in
  (* Retransmissions can be delivered within the same round (zero-delay
     channel), so alternate deliver/retransmit until stable. *)
  let rec go () =
    Channel.deliver t.channel ~now handle;
    if retransmit_pass t ~now > 0 then go ()
  in
  go ()

let in_flight_tokens t = t.in_flight
let quiesced t = t.in_flight = 0 && t.unacked_count = 0

let oldest_pending t ~node =
  Array.fold_left
    (fun acc edge ->
      match (Queue.peek_opt t.pending_round.(edge), acc) with
      | None, _ -> acc
      | Some r, None -> Some r
      | Some r, Some best -> if r < best then Some r else acc)
    None t.incoming.(node)

let stats t =
  {
    messages_sent = t.messages_sent;
    tokens_sent = t.tokens_sent;
    retransmissions = t.retransmissions;
    duplicates_discarded = t.duplicates_discarded;
    out_of_order = t.out_of_order;
    acks_sent = t.acks_sent;
    max_in_flight_tokens = t.max_in_flight;
  }
