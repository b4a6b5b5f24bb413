type message_kind = Msg_send | Msg_deliver | Msg_drop | Msg_retransmit

type message_event = {
  m_step : int;
  m_kind : message_kind;
  m_edge : int;
  m_seq : int;
  m_tokens : int;
}

type t = {
  n : int;
  degree : int;
  self_loops : int;
  steps : int;
  edges : (int * int) array;
  init : int array;
  assignments : int array array array;
  messages : message_event array;
}

let message_kind_char = function
  | Msg_send -> 's'
  | Msg_deliver -> 'd'
  | Msg_drop -> 'x'
  | Msg_retransmit -> 'r'

let with_messages t events = { t with messages = Array.of_list events }

let record ~graph ~balancer ~init ~steps =
  let n = Graphs.Graph.n graph in
  let dp = Core.Balancer.d_plus balancer in
  let assignments =
    Array.init steps (fun _ -> Array.init n (fun _ -> Array.make dp 0))
  in
  let on_assign ~step ~node ~load:_ ~ports =
    Array.blit ports 0 assignments.(step - 1).(node) 0 dp
  in
  let tapped = Core.Tap.wrap balancer ~on_assign in
  let result = Core.Engine.run ~graph ~balancer:tapped ~init ~steps () in
  let trace =
    {
      n;
      degree = balancer.Core.Balancer.degree;
      self_loops = balancer.Core.Balancer.self_loops;
      steps;
      edges = Graphs.Graph.edges graph;
      init = Array.copy init;
      assignments;
      messages = [||];
    }
  in
  (trace, result)

let graph_of t =
  let ends = Graphs.Graph.make_ends ~n:t.n (2 * Array.length t.edges) in
  Array.iteri
    (fun i (u, v) ->
      Graphs.Graph.set_end ends (2 * i) u;
      Graphs.Graph.set_end ends ((2 * i) + 1) v)
    t.edges;
  Graphs.Graph.of_ends ~n:t.n ends

let playback_balancer t =
  let dp = t.degree + t.self_loops in
  {
    Core.Balancer.name = "trace-playback";
    degree = t.degree;
    self_loops = t.self_loops;
    props = Core.Balancer.paper_deterministic;
    assign =
      (fun ~step ~node ~load:_ ~ports ->
        if step < 1 || step > t.steps then
          invalid_arg "Trace.replay: step outside recorded range";
        Array.blit t.assignments.(step - 1).(node) 0 ports 0 dp);
    persist = None;
    kernel = None;
  }

let replay t =
  let graph = graph_of t in
  Core.Engine.run ~graph ~balancer:(playback_balancer t) ~init:t.init ~steps:t.steps ()

let final_loads t =
  let r = replay t in
  r.Core.Engine.final_loads

let verify t =
  match replay t with
  | (_ : Core.Engine.result) -> Ok ()
  | exception Core.Engine.Invariant_violation msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* --- serialization --- *)

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "loadbal-trace 1\n";
      Printf.fprintf oc "graph %d %d %d %d\n" t.n t.degree t.self_loops t.steps;
      output_string oc "edges";
      Array.iter (fun (u, v) -> Printf.fprintf oc " %d %d" u v) t.edges;
      output_char oc '\n';
      output_string oc "init";
      Array.iter (fun x -> Printf.fprintf oc " %d" x) t.init;
      output_char oc '\n';
      for step = 1 to t.steps do
        for u = 0 to t.n - 1 do
          Printf.fprintf oc "a %d %d" step u;
          Array.iter (fun p -> Printf.fprintf oc " %d" p) t.assignments.(step - 1).(u);
          output_char oc '\n'
        done
      done;
      Array.iter
        (fun m ->
          Printf.fprintf oc "m %c %d %d %d %d\n" (message_kind_char m.m_kind)
            m.m_step m.m_edge m.m_seq m.m_tokens)
        t.messages)

exception Parse_error of { line : int; reason : string }

let parse_error_message = function
  | Parse_error { line; reason } ->
    Some (Printf.sprintf "trace parse error at line %d: %s" line reason)
  | _ -> None

let tokens_of_line line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun reason -> raise (Parse_error { line = !lineno; reason }))
          fmt
      in
      let int_of_token tok =
        match int_of_string_opt tok with
        | Some v -> v
        | None -> fail "bad integer %S" tok
      in
      (* Distinguishes the legal end of the assignment stream from a file
         that ends mid-header, without matching on exception strings. *)
      let exception End_of_input in
      let line () =
        match In_channel.input_line ic with
        | Some l ->
          incr lineno;
          l
        | None ->
          incr lineno;
          raise End_of_input
      in
      let header_line what =
        match line () with
        | l -> l
        | exception End_of_input -> fail "unexpected end of file (expected %s)" what
      in
      (match tokens_of_line (header_line "magic") with
      | [ "loadbal-trace"; "1" ] -> ()
      | _ -> fail "bad magic (expected 'loadbal-trace 1')");
      let n, degree, self_loops, steps =
        match tokens_of_line (header_line "graph line") with
        | [ "graph"; a; b; c; d ] ->
          (int_of_token a, int_of_token b, int_of_token c, int_of_token d)
        | _ -> fail "bad graph line (expected 'graph N DEGREE SELF_LOOPS STEPS')"
      in
      let edges =
        match tokens_of_line (header_line "edges line") with
        | "edges" :: rest ->
          let vals = List.map int_of_token rest in
          let rec pair = function
            | [] -> []
            | u :: v :: rest -> (u, v) :: pair rest
            | [ _ ] -> fail "odd edge endpoint count"
          in
          Array.of_list (pair vals)
        | _ -> fail "bad edges line (expected 'edges U1 V1 U2 V2 ...')"
      in
      let init =
        match tokens_of_line (header_line "init line") with
        | "init" :: rest ->
          let a = Array.of_list (List.map int_of_token rest) in
          if Array.length a <> n then
            fail "init has %d loads, graph line declared n = %d" (Array.length a) n;
          a
        | _ -> fail "bad init line (expected 'init X1 ... Xn')"
      in
      let dp = degree + self_loops in
      let assignments =
        Array.init steps (fun _ -> Array.init n (fun _ -> Array.make dp 0))
      in
      let seen = Array.make_matrix steps n false in
      let messages = ref [] in
      let message_kind_of_token = function
        | "s" -> Msg_send
        | "d" -> Msg_deliver
        | "x" -> Msg_drop
        | "r" -> Msg_retransmit
        | tok -> fail "bad message kind %S (expected s, d, x or r)" tok
      in
      (try
         while true do
           let l = line () in
           match tokens_of_line l with
           | "a" :: s :: u :: ports ->
             let step = int_of_token s and node = int_of_token u in
             if step < 1 || step > steps || node < 0 || node >= n then
               fail "assignment record (step %d, node %d) out of range" step node;
             let ports = List.map int_of_token ports in
             if List.length ports <> dp then
               fail "assignment has %d ports, expected d⁺ = %d"
                 (List.length ports) dp;
             List.iteri (fun k p -> assignments.(step - 1).(node).(k) <- p) ports;
             seen.(step - 1).(node) <- true
           | [ "m"; kind; s; e; q; toks ] ->
             let m_kind = message_kind_of_token kind in
             let m_step = int_of_token s and m_edge = int_of_token e in
             let m_seq = int_of_token q and m_tokens = int_of_token toks in
             if m_edge < 0 || m_edge >= n * degree then
               fail "message record edge %d outside [0, %d)" m_edge (n * degree);
             if m_seq < 1 then fail "message record seq %d < 1" m_seq;
             messages := { m_step; m_kind; m_edge; m_seq; m_tokens } :: !messages
           | "m" :: _ ->
             fail "bad message record %S (expected 'm KIND STEP EDGE SEQ TOKENS')" l
           | [] -> ()
           | _ -> fail "bad line %S" l
         done
       with End_of_input -> ());
      Array.iteri
        (fun s row ->
          Array.iteri
            (fun u present ->
              if not present then
                fail "missing assignment for step %d node %d" (s + 1) u)
            row)
        seen;
      { n; degree; self_loops; steps; edges; init; assignments;
        messages = Array.of_list (List.rev !messages) })
