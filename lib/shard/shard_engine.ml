type checkpoint_config = { path : string; every : int }

(* Everything one worker domain needs for its part of a step.  [acc] is
   the shard's accumulation buffer: slots [0 .. m-1] are the next loads
   of its own m nodes, slots [m ..] are outbox slots, one per distinct
   external neighbor (the halo).  [targets] pre-resolves every
   (local node, port) pair to an [acc] slot, so the hot loop is a single
   indexed add with no ownership branch. *)
type shard_ctx = {
  mine : int array;
  targets : int array;       (* length m * d *)
  acc : int array;           (* length m + ext_count *)
  ports : int array;         (* per-worker assign buffer, length d+ *)
  inbox_shard : int array;   (* halo: which shard's acc to read *)
  inbox_slot : int array;    (* ... at which slot *)
  inbox_local : int array;   (* ... added into which of my local nodes *)
  tracker : Core.Fairness.t option;
  mutable lo : int;          (* per-step min/max/total over my nodes *)
  mutable hi : int;
  mutable total : int;
  mutable moved : int;       (* per-step tokens sent on original ports *)
}

let build_contexts ~graph ~part ~d ~dp ~audit ~self_loops =
  let shards = part.Partition.shards in
  let adj = Graphs.Graph.adjacency graph in
  let n = Graphs.Graph.n graph in
  let ext_nodes = Array.make shards [||] in
  let ctxs =
    Array.init shards (fun s ->
        let mine = part.Partition.parts.(s) in
        let m = Array.length mine in
        let targets = Array.make (m * d) 0 in
        let ext_slot = Hashtbl.create 64 in
        let ext_rev = ref [] in
        let ext_count = ref 0 in
        for i = 0 to m - 1 do
          let base = mine.(i) * d in
          for k = 0 to d - 1 do
            let v = adj.(base + k) in
            targets.((i * d) + k) <-
              (if part.Partition.owner.(v) = s then part.Partition.local_index.(v)
               else
                 m
                 +
                 match Hashtbl.find_opt ext_slot v with
                 | Some j -> j
                 | None ->
                   let j = !ext_count in
                   Hashtbl.add ext_slot v j;
                   ext_rev := v :: !ext_rev;
                   incr ext_count;
                   j)
          done
        done;
        ext_nodes.(s) <- Array.of_list (List.rev !ext_rev);
        {
          mine;
          targets;
          acc = Array.make (m + !ext_count) 0;
          ports = Array.make dp 0;
          inbox_shard = [||];
          inbox_slot = [||];
          inbox_local = [||];
          tracker =
            (if audit then Some (Core.Fairness.create ~degree:d ~self_loops ~n)
             else None);
          lo = max_int;
          hi = min_int;
          total = 0;
          moved = 0;
        })
  in
  (* Halo wiring: every outbox slot of shard o targeting a node of shard
     s becomes an inbox entry of s. *)
  let inboxes = Array.make shards [] in
  for o = 0 to shards - 1 do
    let m_o = Array.length ctxs.(o).mine in
    Array.iteri
      (fun j v ->
        let s = part.Partition.owner.(v) in
        inboxes.(s) <- (o, m_o + j, part.Partition.local_index.(v)) :: inboxes.(s))
      ext_nodes.(o)
  done;
  Array.mapi
    (fun s ctx ->
      let entries = Array.of_list (List.rev inboxes.(s)) in
      {
        ctx with
        inbox_shard = Array.map (fun (o, _, _) -> o) entries;
        inbox_slot = Array.map (fun (_, j, _) -> j) entries;
        inbox_local = Array.map (fun (_, _, li) -> li) entries;
      })
    ctxs

let merged_balancer_state ~part ~balancers ~n =
  match balancers.(0).Core.Balancer.persist with
  | None -> None
  | Some _ ->
    let combined = Array.make n 0 in
    Array.iteri
      (fun s b ->
        match b.Core.Balancer.persist with
        | None -> assert false
        | Some p ->
          let saved = p.Core.Balancer.state_save () in
          Array.iter (fun u -> combined.(u) <- saved.(u)) part.Partition.parts.(s))
      balancers;
    Some combined

let run ?(audit = false) ?(sample_every = 1) ?hook ?stop_at_discrepancy
    ?(strategy = Partition.Contiguous) ?checkpoint ?resume ~shards ~graph
    ~make_balancer ~init ~steps () =
  if shards < 1 then invalid_arg "Shard_engine.run: shards must be >= 1";
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  if Array.length init <> n then invalid_arg "Shard_engine.run: init length mismatch";
  if steps < 0 then invalid_arg "Shard_engine.run: negative step count";
  if sample_every <= 0 then
    invalid_arg "Shard_engine.run: sample_every must be positive";
  let part = Partition.make ~strategy ~shards graph in
  let balancers = Array.init shards (fun _ -> make_balancer ()) in
  let b0 = balancers.(0) in
  if b0.Core.Balancer.degree <> d then
    invalid_arg
      (Printf.sprintf
         "Shard_engine.run: balancer %s built for degree %d, graph has %d"
         b0.Core.Balancer.name b0.Core.Balancer.degree d);
  Array.iter
    (fun b ->
      if
        b.Core.Balancer.name <> b0.Core.Balancer.name
        || b.Core.Balancer.degree <> b0.Core.Balancer.degree
        || b.Core.Balancer.self_loops <> b0.Core.Balancer.self_loops
      then
        invalid_arg
          "Shard_engine.run: make_balancer must build identical instances")
    balancers;
  let dp = Core.Balancer.d_plus b0 in
  (match checkpoint with
  | Some { every; _ } when every <= 0 ->
    invalid_arg "Shard_engine.run: checkpoint every must be positive"
  | Some _ when not (Core.Balancer.resumable b0) ->
    raise
      (Checkpoint.Checkpoint_error
         (Checkpoint.Mismatch
            (Printf.sprintf
               "balancer %s is not checkpointable (stateful without a persist \
                capability)"
               b0.Core.Balancer.name)))
  | _ -> ());
  let cur =
    match resume with None -> Array.copy init | Some s -> Array.copy s.Checkpoint.loads
  in
  let sc = { Core.Engine.disc = 0; min = 0; total = 0 } in
  Core.Engine.scan_into sc cur;
  (* Resume: rebuild the exact mid-run state the snapshot captured. *)
  let start, series0, min0, reached0 =
    match resume with
    | None ->
      let reached =
        match stop_at_discrepancy with
        | Some target when sc.disc <= target -> Some 0
        | _ -> None
      in
      (0, [ (0, sc.disc) ], sc.min, reached)
    | Some snap ->
      if snap.Checkpoint.n <> n || snap.Checkpoint.degree <> d then
        raise
          (Checkpoint.Checkpoint_error
             (Checkpoint.Mismatch
                (Printf.sprintf "checkpoint is for n=%d d=%d, run has n=%d d=%d"
                   snap.Checkpoint.n snap.Checkpoint.degree n d)));
      if snap.Checkpoint.balancer_name <> b0.Core.Balancer.name then
        raise
          (Checkpoint.Checkpoint_error
             (Checkpoint.Mismatch
                (Printf.sprintf "checkpoint is for balancer %s, run uses %s"
                   snap.Checkpoint.balancer_name b0.Core.Balancer.name)));
      if snap.Checkpoint.step > steps then
        raise
          (Checkpoint.Checkpoint_error
             (Checkpoint.Mismatch
                (Printf.sprintf "checkpoint is at step %d, past the %d-step horizon"
                   snap.Checkpoint.step steps)));
      (match (snap.Checkpoint.balancer_state, b0.Core.Balancer.persist) with
      | Some state, Some _ ->
        Array.iter
          (fun b ->
            match b.Core.Balancer.persist with
            | Some p -> p.Core.Balancer.state_restore state
            | None -> assert false)
          balancers
      | None, None when b0.Core.Balancer.props.Core.Balancer.stateless -> ()
      | _ ->
        raise
          (Checkpoint.Checkpoint_error
             (Checkpoint.Mismatch
                "checkpoint balancer state does not match the balancer's persist \
                 capability")));
      ( snap.Checkpoint.step,
        snap.Checkpoint.series_rev,
        snap.Checkpoint.min_load_seen,
        snap.Checkpoint.reached_target )
  in
  let ctxs =
    build_contexts ~graph ~part ~d ~dp ~audit
      ~self_loops:b0.Core.Balancer.self_loops
  in
  (* Observation only — same bit-identical guarantee as Core.Engine.
     Workers accumulate into their own ctx; the coordinator reduces, so
     no cross-domain races. *)
  let probing = Obs.Probe.enabled () in
  let series = ref series0 in
  let min_seen = ref min0 in
  let reached = ref reached0 in
  let steps_done = ref start in
  (* The round-total check's reference: the last round's total, or the
     one the hook leaves. *)
  let expected_total = ref sc.total in
  let phase_assign t w =
    let ctx = ctxs.(w) in
    let balancer = balancers.(w) and tracker = ctx.tracker in
    let mine = ctx.mine and targets = ctx.targets in
    let acc = ctx.acc and ports = ctx.ports in
    let m = Array.length mine in
    Core.Loads.zero acc;
    ctx.moved <- 0;
    for i = 0 to m - 1 do
      let u = mine.(i) in
      let x = cur.(u) in
      let kept = Core.Engine.node_step ~balancer ~tracker ~step:t ~node:u ~load:x ports in
      let base = i * d in
      for k = 0 to d - 1 do
        acc.(targets.(base + k)) <- acc.(targets.(base + k)) + ports.(k)
      done;
      if probing then ctx.moved <- ctx.moved + (x - kept);
      acc.(i) <- acc.(i) + kept
    done
  in
  let phase_merge w =
    let ctx = ctxs.(w) in
    let mine = ctx.mine and acc = ctx.acc in
    let m = Array.length mine in
    for i = 0 to m - 1 do
      cur.(mine.(i)) <- acc.(i)
    done;
    for e = 0 to Array.length ctx.inbox_shard - 1 do
      let u = mine.(ctx.inbox_local.(e)) in
      cur.(u) <- cur.(u) + ctxs.(ctx.inbox_shard.(e)).acc.(ctx.inbox_slot.(e))
    done;
    let lo = ref max_int and hi = ref min_int and total = ref 0 in
    for i = 0 to m - 1 do
      let x = cur.(mine.(i)) in
      if x < !lo then lo := x;
      if x > !hi then hi := x;
      total := !total + x
    done;
    ctx.lo <- !lo;
    ctx.hi <- !hi;
    ctx.total <- !total
  in
  let write_checkpoint t =
    match checkpoint with
    | Some { path; every } when t mod every = 0 && t < steps ->
      Obs.Prof.time "shard.checkpoint" @@ fun () ->
      Checkpoint.save ~path
        {
          Checkpoint.balancer_name = b0.Core.Balancer.name;
          n;
          degree = d;
          total_steps = steps;
          step = t;
          loads = Array.copy cur;
          balancer_state = merged_balancer_state ~part ~balancers ~n;
          series_rev = !series;
          min_load_seen = !min_seen;
          reached_target = !reached;
        }
    | _ -> ()
  in
  Pool.with_pool ~domains:shards (fun pool ->
      try
        for t = start + 1 to steps do
          if !reached <> None && stop_at_discrepancy <> None then raise Exit;
          let sp = Obs.Prof.start "shard.assign" in
          Pool.run pool (phase_assign t);
          Obs.Prof.stop sp;
          let sp = Obs.Prof.start "shard.merge" in
          Pool.run pool phase_merge;
          Obs.Prof.stop sp;
          steps_done := t;
          let lo = ref max_int and hi = ref min_int and sum = ref 0 in
          Array.iter
            (fun ctx ->
              if ctx.lo < !lo then lo := ctx.lo;
              if ctx.hi > !hi then hi := ctx.hi;
              sum := !sum + ctx.total)
            ctxs;
          let disc = !hi - !lo and mn = !lo in
          (* Per-node checks cannot see a merge that drops or duplicates
             a token; the round total can. *)
          Core.Engine.check_total ~balancer:b0 ~step:t ~expected:!expected_total !sum;
          if probing then begin
            let moved = Array.fold_left (fun a ctx -> a + ctx.moved) 0 ctxs in
            Obs.Probe.on_round ~engine:"shard" ~d_plus:dp ~step:t
              ~tokens_moved:moved ~discrepancy:disc ~max_load:!hi ~min_load:mn
              ~loads:cur
          end;
          if mn < !min_seen then min_seen := mn;
          if t mod sample_every = 0 || t = steps then series := (t, disc) :: !series;
          Obs.Export.poll ();
          (* A hook may add or remove tokens in place, as the fault
             layer's does: the next round is checked against the total
             it leaves. *)
          (match hook with
          | Some f ->
            f t cur;
            expected_total := Core.Loads.total cur
          | None -> ());
          (match stop_at_discrepancy with
          | Some target when disc <= target && !reached = None -> reached := Some t
          | _ -> ());
          write_checkpoint t
        done
      with Exit -> ());
  {
    Core.Engine.steps_run = !steps_done;
    final_loads = cur;
    series = Array.of_list (List.rev !series);
    min_load_seen = !min_seen;
    reached_target = !reached;
    fairness =
      (if audit then
         Some
           (Core.Fairness.merge_reports
              (Array.to_list ctxs
              |> List.filter_map (fun ctx -> Option.map Core.Fairness.report ctx.tracker)))
       else None);
  }
