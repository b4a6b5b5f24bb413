exception Invariant_violation of string

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
  min_load_seen : int;
  reached_target : int option;
  fairness : Fairness.report option;
}

(* Discrepancy, minimum and token total of the last scanned vector:
   one per call, so a round's scan allocates nothing. *)
type scan = { mutable disc : int; mutable min : int; mutable total : int }

let scan_into s loads =
  let lo = ref loads.(0) and hi = ref loads.(0) and total = ref loads.(0) in
  for i = 1 to Array.length loads - 1 do
    let x = loads.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x;
    total := !total + x
  done;
  s.disc <- !hi - !lo;
  s.min <- !lo;
  s.total <- !total

(* [scan_into] over the 32-bit slots a packed round filled, fused with
   moving them into [loads] and zeroing them for the next round: the
   packed path's only pass over the vector besides the round itself. *)
let drain_scan_into s acc loads =
  let lo = ref max_int and hi = ref min_int and total = ref 0 in
  for i = 0 to Array.length loads - 1 do
    let o = i lsl 2 in
    let x = Int32.to_int (Acc.get acc o) in
    Acc.set acc o 0l;
    loads.(i) <- x;
    if x < !lo then lo := x;
    if x > !hi then hi := x;
    total := !total + x
  done;
  s.disc <- !hi - !lo;
  s.min <- !lo;
  s.total <- !total

(* [drain_scan_into] over the 16-bit slots, which it zeroes; the bytes
   past them, which only 32-bit rounds write, are zero already. *)
let drain_scan16_into s acc loads =
  let lo = ref max_int and hi = ref min_int and total = ref 0 in
  for i = 0 to Array.length loads - 1 do
    let o = i lsl 1 in
    let x = Acc.get16 acc o in
    Acc.set16 acc o 0;
    loads.(i) <- x;
    if x < !lo then lo := x;
    if x > !hi then hi := x;
    total := !total + x
  done;
  s.disc <- !hi - !lo;
  s.min <- !lo;
  s.total <- !total

let check_shape ~fn ~graph ~balancer loads =
  let d = Graphs.Graph.degree graph in
  if balancer.Balancer.degree <> d then
    invalid_arg
      (Printf.sprintf "Engine.%s: balancer %s built for degree %d, graph has %d" fn
         balancer.Balancer.name balancer.Balancer.degree d);
  if Array.length loads <> Graphs.Graph.n graph then
    invalid_arg (Printf.sprintf "Engine.%s: init length mismatch" fn)

(* The one check of a [Balancer.assign] result (engine.mli). *)
let node_step ~balancer ~tracker ~step ~node ~load ports =
  balancer.Balancer.assign ~step ~node ~load ~ports;
  let d = balancer.Balancer.degree in
  let sent = ref 0 in
  for k = 0 to d - 1 do
    let p = ports.(k) in
    if p < 0 then
      raise
        (Invariant_violation
           (Printf.sprintf "%s: node %d step %d sends %d (< 0) on original port %d"
              balancer.Balancer.name node step p k));
    sent := !sent + p
  done;
  let kept = ref 0 in
  for k = d to Balancer.d_plus balancer - 1 do
    kept := !kept + ports.(k)
  done;
  if !sent + !kept <> load then
    raise
      (Invariant_violation
         (Printf.sprintf "%s: node %d step %d assigned %d tokens of load %d"
            balancer.Balancer.name node step (!sent + !kept) load));
  (match tracker with
   | Some tr -> Fairness.observe tr ~node ~load ~ports
   | None -> ());
  !kept

let check_total ~balancer ~step ~expected total =
  if total <> expected then
    raise
      (Invariant_violation
         (Printf.sprintf "%s: step %d changed the token total from %d to %d"
            balancer.Balancer.name step expected total))

(* Every node's checked assignment routed into [next].  On a violation
   [next] is left partially written — both callers discard it.
   Returns the tokens that left their node when [probing], else 0. *)
let assign_round ~balancer ~adj ~d ~tracker ~probing ~step cur next =
  let ports = Array.make (Balancer.d_plus balancer) 0 in
  let moved = ref 0 in
  for u = 0 to Array.length cur - 1 do
    let x = cur.(u) in
    let kept = node_step ~balancer ~tracker ~step ~node:u ~load:x ports in
    let base = u * d in
    for k = 0 to d - 1 do
      let v = adj.(base + k) in
      next.(v) <- next.(v) + ports.(k)
    done;
    if probing then moved := !moved + (x - kept);
    next.(u) <- next.(u) + kept
  done;
  !moved

(* The balancer's kernel, when the engine may run it in place of
   [assign]. *)
let active_kernel ~balancer ~tracker =
  match balancer.Balancer.kernel, tracker with
  | (Some k as kernel), None when k.Balancer.reproduces == balancer.Balancer.assign ->
    kernel
  | _ -> None

(* One synchronous round from [cur] into [next], which must hold zeros;
   [step_into] and [run]'s unpacked rounds drive it.  The balancer's whole-round kernel
   runs when it has one, the run is not audited and the record's
   [assign] is still the closure the kernel reproduces (a record
   rebuilt around another [assign], as {!Tap.wrap} makes, falls back);
   otherwise [assign_round].  A kernel returns its moved count whether
   or not [probing]. *)
let round_into ~balancer ~adj ~d ~tracker ~probing ~step cur next =
  let sp = Obs.Prof.start "core.assign" in
  let moved =
    match active_kernel ~balancer ~tracker with
    | Some k -> k.Balancer.round ~step ~adj cur next
    | None -> assign_round ~balancer ~adj ~d ~tracker ~probing ~step cur next
  in
  Obs.Prof.stop sp;
  moved

let probe_round ~dp ~step ~moved ~disc ~mn loads =
  Obs.Probe.on_round ~engine:"core" ~d_plus:dp ~step ~tokens_moved:moved
    ~discrepancy:disc ~max_load:(mn + disc) ~min_load:mn ~loads

(* The one single-round body: [step_into] names itself in its errors,
   and [step] runs it on a fresh target under its own name. *)
let round_step ~fn ~graph ~balancer ~step cur next =
  check_shape ~fn ~graph ~balancer cur;
  if Array.length next <> Array.length cur then
    invalid_arg (Printf.sprintf "Engine.%s: next length mismatch" fn);
  if next == cur then invalid_arg (Printf.sprintf "Engine.%s: next is cur" fn);
  let dp = Balancer.d_plus balancer in
  let probing = Obs.Probe.enabled () in
  Loads.zero next;
  let moved =
    round_into ~balancer ~adj:(Graphs.Graph.adjacency graph)
      ~d:balancer.Balancer.degree ~tracker:None ~probing ~step cur next
  in
  if probing then begin
    let sc = { disc = 0; min = 0; total = 0 } in
    scan_into sc next;
    probe_round ~dp ~step ~moved ~disc:sc.disc ~mn:sc.min next
  end

let step_into ~graph ~balancer ~step cur next =
  round_step ~fn:"step_into" ~graph ~balancer ~step cur next

let step ~graph ~balancer ~step loads =
  let next = Array.make (Array.length loads) 0 in
  round_step ~fn:"step" ~graph ~balancer ~step loads next;
  next

(* [run]'s packed target before its first packed round, shared so
   that a run allocates nothing for it until then. *)
let no_slots = Acc.create 0

let run ?(audit = false) ?(sample_every = 1) ?hook ?stop_at_discrepancy ~graph
    ~balancer ~init ~steps () =
  check_shape ~fn:"run" ~graph ~balancer init;
  if steps < 0 then invalid_arg "Engine.run: negative step count";
  if sample_every <= 0 then invalid_arg "Engine.run: sample_every must be positive";
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  let dp = Balancer.d_plus balancer in
  let tracker =
    if audit then
      Some (Fairness.create ~degree:d ~self_loops:balancer.Balancer.self_loops ~n)
    else None
  in
  let adj = Graphs.Graph.adjacency graph in
  (* Probes only read; with them disabled this costs one branch per
     node, and either way the dynamics are untouched (bit-identical
     results — property-tested in test_obs.ml). *)
  let probing = Obs.Probe.enabled () in
  let kernel = active_kernel ~balancer ~tracker in
  (* Both scatter targets are made on first use: [acc] by the first
     packed round, [next] by the first int round. *)
  let cur = ref (Array.copy init) in
  let next = ref [||] in
  let acc = ref no_slots in
  let series = ref [] in
  let reached = ref None in
  let sc = { disc = 0; min = 0; total = 0 } in
  scan_into sc !cur;
  let total = ref sc.total in
  let min_seen = ref sc.min in
  series := (0, sc.disc) :: !series;
  (match stop_at_discrepancy with
   | Some target when sc.disc <= target -> reached := Some 0
   | _ -> ());
  let steps_done = ref 0 in
  (try
     for t = 1 to steps do
       if !reached <> None && stop_at_discrepancy <> None then raise Exit;
       (* With no load negative, a slot is at most the round's total,
          and, the kernel being round-fair, at most d⁺·⌈max/d⁺⌉ ≤
          max + d⁺ − 1: at max + d⁺ ≤ 2¹⁶ no 16-bit slot can
          overflow, else at total ≤ 2³¹ − 1 no 32-bit one.  Both widths
          share the one buffer.  (max = min + disc cannot overflow once
          min ≥ 0.) *)
       let packed = sc.min >= 0 in
       let narrow = packed && sc.min + sc.disc <= Acc.max_slot16 + 1 - dp in
       let moved =
         match kernel with
         | Some k when narrow || (packed && sc.total <= Acc.max_slot) ->
           if Acc.length !acc = 0 then acc := Acc.create n;
           let sp = Obs.Prof.start "core.assign" in
           let moved =
             if narrow then k.Balancer.round_packed16 ~step:t ~adj !cur !acc
             else k.Balancer.round_packed ~step:t ~adj !cur !acc
           in
           Obs.Prof.stop sp;
           let sp = Obs.Prof.start "core.scan" in
           if narrow then drain_scan16_into sc !acc !cur else drain_scan_into sc !acc !cur;
           Obs.Prof.stop sp;
           moved
         | _ ->
           if Array.length !next = 0 then next := Array.make n 0
           else Loads.zero !next;
           let moved =
             round_into ~balancer ~adj ~d ~tracker ~probing ~step:t !cur !next
           in
           let tmp = !cur in
           cur := !next;
           next := tmp;
           let sp = Obs.Prof.start "core.scan" in
           scan_into sc !cur;
           Obs.Prof.stop sp;
           moved
       in
       steps_done := t;
       let disc = sc.disc and mn = sc.min in
       (* Per-node checks cannot see a kernel that drops or duplicates a
          token; the round total can. *)
       check_total ~balancer ~step:t ~expected:!total sc.total;
       if probing then probe_round ~dp ~step:t ~moved ~disc ~mn !cur;
       if mn < !min_seen then min_seen := mn;
       if t mod sample_every = 0 || t = steps then series := (t, disc) :: !series;
       (* Round boundary: service any pending SIGUSR1 scrape request
          (the handler itself only sets a flag). *)
       Obs.Export.poll ();
       (* The fault layer's hook injects and removes tokens in place,
          so the next round is checked against the total it leaves, and
          its guard sees any negative load the hook leaves. *)
       (match hook with
        | Some f ->
          f t !cur;
          scan_into sc !cur;
          total := sc.total
        | None -> ());
       (match stop_at_discrepancy with
        | Some target when disc <= target && !reached = None -> reached := Some t
        | _ -> ())
     done
   with Exit -> ());
  {
    steps_run = !steps_done;
    final_loads = !cur;
    series = Array.of_list (List.rev !series);
    min_load_seen = !min_seen;
    reached_target = !reached;
    fairness = Option.map Fairness.report tracker;
  }

let discrepancy_after ~graph ~balancer ~init ~steps =
  let r = run ~graph ~balancer ~init ~steps () in
  match r.series with
  | [||] -> 0
  | s -> snd s.(Array.length s - 1)
