type state_loss = Wipe_state | Keep_state
type token_policy = Lose_tokens | Spill_tokens

type event =
  | Crash of { node : int; state : state_loss; tokens : token_policy }
  | Edge_outage of { node : int; port : int; last_step : int }
  | Load_shock of { node : int; amount : int }

type timed = { step : int; event : event }
type plan = timed list

type spec =
  | Crash_fraction of {
      fraction : float;
      step : int;
      state : state_loss;
      tokens : token_policy;
    }
  | Edge_outage_rate of { rate : float; step : int; duration : int }
  | Shock of { node : int option; amount : int; step : int }

let validate_spec = function
  | Crash_fraction { fraction; step; _ } ->
    if fraction < 0.0 || fraction > 1.0 then
      invalid_arg "Schedule.realize: crash fraction outside [0, 1]";
    if step < 1 then invalid_arg "Schedule.realize: crash step < 1"
  | Edge_outage_rate { rate; step; duration } ->
    if rate < 0.0 || rate > 1.0 then
      invalid_arg "Schedule.realize: outage rate outside [0, 1]";
    if step < 1 then invalid_arg "Schedule.realize: outage step < 1";
    if duration < 1 then invalid_arg "Schedule.realize: outage duration < 1"
  | Shock { amount; step; _ } ->
    if amount < 0 then invalid_arg "Schedule.realize: negative shock amount";
    if step < 1 then invalid_arg "Schedule.realize: shock step < 1"

let realize ~seed ~graph specs =
  List.iter validate_spec specs;
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  let rng = Prng.Splitmix.create seed in
  let events =
    List.concat_map
      (fun spec ->
        match spec with
        | Crash_fraction { fraction; step; state; tokens } ->
          let count =
            min n (int_of_float (Float.round (fraction *. float_of_int n)))
          in
          let count = if fraction > 0.0 && count = 0 then 1 else count in
          let nodes = Prng.Sample.sample_without_replacement rng count n in
          Array.sort Int.compare nodes;
          Array.to_list nodes
          |> List.map (fun node -> { step; event = Crash { node; state; tokens } })
        | Edge_outage_rate { rate; step; duration } ->
          (* Draw once per undirected edge (canonical orientation), then
             emit both directed halves so the edge is fully down. *)
          let out = ref [] in
          let rev = Graphs.Graph.reverse_ports graph in
          for u = 0 to n - 1 do
            for k = 0 to d - 1 do
              let v = Graphs.Graph.neighbor graph u k in
              let k' = rev.((u * d) + k) in
              if (u, k) < (v, k') && Prng.Splitmix.bernoulli rng rate then begin
                let last_step = step + duration - 1 in
                out :=
                  { step; event = Edge_outage { node = v; port = k'; last_step } }
                  :: { step; event = Edge_outage { node = u; port = k; last_step } }
                  :: !out
              end
            done
          done;
          List.rev !out
        | Shock { node; amount; step } ->
          let node =
            match node with
            | Some u ->
              if u < 0 || u >= n then
                invalid_arg "Schedule.realize: shock node out of range";
              u
            | None -> Prng.Splitmix.int rng n
          in
          [ { step; event = Load_shock { node; amount } } ])
      specs
  in
  List.stable_sort (fun a b -> Int.compare a.step b.step) events

(* --- CLI plan syntax --- *)

let spec_to_string = function
  | Crash_fraction { fraction; step; state; tokens } ->
    Printf.sprintf "crash:%g@%d:%s:%s" fraction step
      (match state with Wipe_state -> "wipe" | Keep_state -> "keep")
      (match tokens with Lose_tokens -> "lose" | Spill_tokens -> "spill")
  | Edge_outage_rate { rate; step; duration } ->
    Printf.sprintf "outage:%g@%d+%d" rate step duration
  | Shock { node; amount; step } -> (
    match node with
    | Some u -> Printf.sprintf "shock:%d@%d:node=%d" amount step u
    | None -> Printf.sprintf "shock:%d@%d" amount step)

let event_to_string = function
  | Crash { node; state; tokens } ->
    Printf.sprintf "crash node %d (%s state, %s tokens)" node
      (match state with Wipe_state -> "wipe" | Keep_state -> "keep")
      (match tokens with Lose_tokens -> "lose" | Spill_tokens -> "spill")
  | Edge_outage { node; port; last_step } ->
    Printf.sprintf "edge outage (node %d, port %d) through step %d" node port
      last_step
  | Load_shock { node; amount } ->
    Printf.sprintf "load shock: +%d tokens at node %d" amount node

let parse s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let float_of item x =
    match float_of_string_opt x with
    | Some v -> Ok v
    | None -> err "bad number %S in fault spec %S" x item
  in
  let int_of item x =
    match int_of_string_opt x with
    | Some v -> Ok v
    | None -> err "bad integer %S in fault spec %S" x item
  in
  let at_step item x =
    match String.split_on_char '@' x with
    | [ v; step ] ->
      let* step = int_of item step in
      Ok (v, step)
    | _ -> err "expected VALUE@STEP in fault spec %S" item
  in
  let parse_item item =
    match String.split_on_char ':' item with
    | "crash" :: spec :: flags ->
      let* frac, step = at_step item spec in
      let* fraction = float_of item frac in
      let* state, tokens =
        List.fold_left
          (fun acc flag ->
            let* state, tokens = acc in
            match flag with
            | "wipe" -> Ok (Wipe_state, tokens)
            | "keep" -> Ok (Keep_state, tokens)
            | "lose" -> Ok (state, Lose_tokens)
            | "spill" -> Ok (state, Spill_tokens)
            | f -> err "unknown crash flag %S in %S (wipe|keep|lose|spill)" f item)
          (Ok (Wipe_state, Lose_tokens))
          flags
      in
      Ok (Crash_fraction { fraction; step; state; tokens })
    | [ "outage"; spec ] -> (
      match String.split_on_char '@' spec with
      | [ rate_s; tail ] -> (
        let* rate = float_of item rate_s in
        match String.split_on_char '+' tail with
        | [ step_s; dur_s ] ->
          let* step = int_of item step_s in
          let* duration = int_of item dur_s in
          Ok (Edge_outage_rate { rate; step; duration })
        | _ -> err "outage spec %S needs RATE@STEP+DURATION" item)
      | _ -> err "outage spec %S needs RATE@STEP+DURATION" item)
    | [ "shock"; spec ] ->
      let* amount_s, step = at_step item spec in
      let* amount = int_of item amount_s in
      Ok (Shock { node = None; amount; step })
    | [ "shock"; spec; nodeflag ] -> (
      let* amount_s, step = at_step item spec in
      let* amount = int_of item amount_s in
      match String.split_on_char '=' nodeflag with
      | [ "node"; u ] ->
        let* u = int_of item u in
        Ok (Shock { node = Some u; amount; step })
      | _ -> err "unknown shock flag %S in %S (node=N)" nodeflag item)
    | _ ->
      err "unknown fault spec %S (expected crash:FRAC@STEP[:wipe|keep][:lose|spill], \
           outage:RATE@STEP+DUR or shock:AMOUNT@STEP[:node=N])"
        item
  in
  let items =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if items = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc item ->
        let* specs = acc in
        let* spec = parse_item item in
        Ok (spec :: specs))
      (Ok []) items
    |> Result.map List.rev

let events_at plan ~step =
  List.filter_map (fun t -> if t.step = step then Some t.event else None) plan

let last_step plan =
  List.fold_left
    (fun acc t ->
      let upper =
        match t.event with Edge_outage { last_step; _ } -> last_step | _ -> t.step
      in
      max acc upper)
    0 plan
