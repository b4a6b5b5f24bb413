open Ast

type payload =
  | Run of Check.typed
  | Exper of string

type item = { label : string; at : Ast.pos; payload : payload }

exception Exp_err of string * pos

let fail pos fmt = Printf.ksprintf (fun m -> raise (Exp_err (m, pos))) fmt

(* ---- substitution: replace $var with its sweep value, keeping the
   use-site position so checker errors point into the source ---- *)

let subst_scalar env s =
  match s.sv with
  | Var v -> (
    match List.assoc_opt v env with
    | Some (value : scalar) -> { sv = value.sv; spos = s.spos }
    | None -> s)
  | Int _ | Float _ -> s

let subst_opt env = Option.map (subst_scalar env)

let subst_graph env = function
  | Cycle n -> Cycle (subst_scalar env n)
  | Torus (a, b) -> Torus (subst_scalar env a, subst_scalar env b)
  | Hypercube r -> Hypercube (subst_scalar env r)
  | Complete n -> Complete (subst_scalar env n)
  | Clique (n, d) -> Clique (subst_scalar env n, subst_scalar env d)
  | Random (n, d, s) -> Random (subst_scalar env n, subst_scalar env d, subst_scalar env s)

let subst_init env = function
  | Point t -> Point (subst_scalar env t)
  | Bimodal (h, l) -> Bimodal (subst_scalar env h, subst_scalar env l)
  | Uniform_random (t, s) -> Uniform_random (subst_scalar env t, subst_scalar env s)

let subst_balancer env (b : balancer) =
  { b with self_loops = subst_opt env b.self_loops; algo_seed = subst_opt env b.algo_seed }

let rec subst_arrival env = function
  | Uniform k -> Uniform (subst_scalar env k)
  | Poisson r -> Poisson (subst_scalar env r)
  | Point_arrival (n, k) -> Point_arrival (subst_scalar env n, subst_scalar env k)
  | Hotspot k -> Hotspot (subst_scalar env k)
  | Flash { size; at; node; width } ->
    Flash
      { size = subst_scalar env size; at = subst_scalar env at;
        node = subst_scalar env node; width = subst_opt env width }
  | Diurnal { period; amplitude; body } ->
    Diurnal
      { period = subst_scalar env period; amplitude = subst_scalar env amplitude;
        body = subst_arrival env body }
  | Plus (a, b) -> Plus (subst_arrival env a, subst_arrival env b)

let subst_lifetime env = function
  | Immortal -> Immortal
  | Work k -> Work (subst_scalar env k)
  | Service r -> Service (subst_scalar env r)
  | Geometric m -> Geometric (subst_scalar env m)
  | Fixed r -> Fixed (subst_scalar env r)

let subst_fault env it =
  let f =
    match it.f with
    | Crash c -> Crash { c with frac = subst_scalar env c.frac; step = subst_scalar env c.step }
    | Outage o ->
      Outage
        { rate = subst_scalar env o.rate; step = subst_scalar env o.step;
          duration = subst_scalar env o.duration }
    | Shock s ->
      Shock
        { amount = subst_scalar env s.amount; step = subst_scalar env s.step;
          node = subst_opt env s.node }
  in
  { it with f }

let subst_net env (n : net) =
  { drop = subst_opt env n.drop; dup = subst_opt env n.dup;
    reorder = subst_opt env n.reorder; delay = subst_opt env n.delay;
    staleness = subst_opt env n.staleness; degrade = n.degrade;
    net_seed = subst_opt env n.net_seed }

let subst_dist env (d : dist) =
  { shards = subst_opt env d.shards;
    kills = List.map (fun (s, r) -> (subst_scalar env s, subst_scalar env r)) d.kills;
    terms = List.map (fun (s, r) -> (subst_scalar env s, subst_scalar env r)) d.terms;
    coord_kills = List.map (subst_scalar env) d.coord_kills;
    dist_drop = subst_opt env d.dist_drop; delay_prob = subst_opt env d.delay_prob;
    delay_max = subst_opt env d.delay_max }

let subst_partition env (p : partition) =
  { cut = List.map (subst_scalar env) p.cut; from_s = subst_scalar env p.from_s;
    until_s = subst_scalar env p.until_s }

let subst_clause env cl =
  let c =
    match cl.c with
    | Graph g -> Graph (subst_graph env g)
    | Init i -> Init (subst_init env i)
    | Balancer b -> Balancer (subst_balancer env b)
    | Steps s -> Steps (subst_scalar env s)
    | Rounds r -> Rounds (subst_scalar env r)
    | Arrivals a -> Arrivals (subst_arrival env a)
    | Lifetime l -> Lifetime (subst_lifetime env l)
    | Warmup Auto -> Warmup Auto
    | Warmup (Fixed_rounds k) -> Warmup (Fixed_rounds (subst_scalar env k))
    | Workload_seed s -> Workload_seed (subst_scalar env s)
    | Seed s -> Seed (subst_scalar env s)
    | Faults fs -> Faults (List.map (subst_fault env) fs)
    | Net n -> Net (subst_net env n)
    | Dist d -> Dist (subst_dist env d)
    | Partition p -> Partition (subst_partition env p)
  in
  { cl with c }

let subst_scenario env sc = List.map (subst_clause env) sc

(* ---- expansion ---- *)

(* overlay: every clause kind present in [over] replaces all base
   clauses of that kind; the overlay's clauses are appended in order.
   (An overlay that duplicates a non-repeatable kind is caught by the
   checker's duplicate-clause rule afterwards.) *)
let merge base over =
  let over_kinds = List.map (fun o -> clause_kind o.c) over in
  List.filter (fun b -> not (List.mem (clause_kind b.c) over_kinds)) base @ over

type concrete = C_scenario of Ast.scenario | C_exper of string

(* [decls] is the file in order; a binding sees only bindings with a
   smaller index, so references can never cycle *)
let rec expand_expr ~decls ~limit ~env ~label ex =
  match ex.e with
  | Scenario sc -> [ (label, ex.epos, C_scenario (subst_scenario env sc)) ]
  | Experiment id -> [ (label, ex.epos, C_exper id) ]
  | Ref n -> (
    let found = ref None in
    List.iteri
      (fun i (d : decl) -> if i < limit && d.dname = n then found := Some (i, d))
      decls;
    match !found with
    | Some (i, d) -> expand_expr ~decls ~limit:i ~env ~label d.body
    | None ->
      fail ex.epos "unknown binding '%s' (bindings are visible after their definition)" n)
  | Overlay (base, sc) ->
    let over = subst_scenario env sc in
    List.map
      (fun (l, p, c) ->
        match c with
        | C_scenario b -> (l, p, C_scenario (merge b over))
        | C_exper _ -> fail ex.epos "cannot overlay an experiment target")
      (expand_expr ~decls ~limit ~env ~label base)
  | Sweep { var; values; body } ->
    if values = [] then fail ex.epos "sweep over an empty value list";
    List.concat_map
      (fun v ->
        let v = subst_scalar env v in
        (match v.sv with
        | Var u -> fail v.spos "unbound sweep variable '$%s' (in sweep values)" u
        | Int _ | Float _ -> ());
        let label = Printf.sprintf "%s[%s=%s]" label var (Pretty.scalar v) in
        expand_expr ~decls ~limit ~env:((var, v) :: env) ~label body)
      values
  | Seq es ->
    List.concat
      (List.mapi
         (fun i e ->
           let label =
             match e.e with
             | Ref n -> n
             | _ -> Printf.sprintf "%s#%d" label (i + 1)
           in
           expand_expr ~decls ~limit ~env ~label e)
         es)

let plan ?root (file : Ast.file) =
  try
    (match file with [] -> fail no_pos "empty scenario file (no let bindings)" | _ -> ());
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (d : decl) ->
        if Hashtbl.mem seen d.dname then fail d.dpos "duplicate binding '%s'" d.dname;
        Hashtbl.add seen d.dname ())
      file;
    let indexed = List.mapi (fun i d -> (i, d)) file in
    let root_index, root_decl =
      match root with
      | Some n -> (
        match List.find_opt (fun (_, (d : decl)) -> d.dname = n) indexed with
        | Some (i, d) -> (i, d)
        | None -> fail no_pos "no binding named '%s' in this file" n)
      | None -> (
        match List.find_opt (fun (_, (d : decl)) -> d.dname = "main") indexed with
        | Some (i, d) -> (i, d)
        | None -> (
          match List.rev indexed with
          | (i, d) :: _ -> (i, d)
          | [] -> fail no_pos "empty scenario file (no let bindings)"))
    in
    let concrete =
      expand_expr ~decls:file ~limit:root_index ~env:[] ~label:root_decl.dname
        root_decl.body
    in
    let items =
      List.map
        (fun (label, at, c) ->
          match c with
          | C_scenario sc -> (
            match Check.scenario ~at sc with
            | Ok typed -> { label; at; payload = Run typed }
            | Error (m, p) -> raise (Exp_err (m, p)))
          | C_exper id -> (
            match Harness.Suite.find id with
            | Some e -> { label; at; payload = Exper e.Harness.Suite.id }
            | None ->
              fail at "unknown experiment '%s' (valid: %s)" id
                (String.concat ", " Harness.Suite.ids)))
        concrete
    in
    Ok items
  with Exp_err (m, p) -> Error (m, p)

(* ---- lowering ---- *)

let spec_of_graph = function
  | Harness.Experiment.Cycle n -> Printf.sprintf "cycle:%d" n
  | Harness.Experiment.Torus2d side -> Printf.sprintf "torus:%dx%d" side side
  | Harness.Experiment.Hypercube r -> Printf.sprintf "hypercube:%d" r
  | Harness.Experiment.Complete n -> Printf.sprintf "complete:%d" n
  | Harness.Experiment.Clique_circulant { n; d } -> Printf.sprintf "clique:%d,%d" n d
  | Harness.Experiment.Random_regular { n; d; seed } ->
    Printf.sprintf "random:%d,%d,%d" n d seed

let spec_of_init = function
  | Harness.Experiment.Point_mass t -> Printf.sprintf "point:%d" t
  | Harness.Experiment.Bimodal { high; low } -> Printf.sprintf "bimodal:%d,%d" high low
  | Harness.Experiment.Uniform_random { total; seed } ->
    Printf.sprintf "random:%d,%d" total seed

let kind (t : Check.typed) =
  let layered base faults net =
    base ^ (if faults <> [] then "+faults" else "") ^ if net <> None then "+net" else ""
  in
  match t.run with
  | Check.Closed { faults; net; _ } -> layered "closed" faults net
  | Check.Open { faults; net; _ } -> layered "open" faults net
  | Check.Cluster _ -> "cluster"

let build_balancer_fn (t : Check.typed) graph init =
  let spec_fn =
    match
      Harness.Experiment.algo_of_string ?self_loops:t.self_loops ?seed:t.algo_seed
        t.algo_name
    with
    | Ok f -> f
    | Error m -> invalid_arg m (* unreachable: the checker validated the name *)
  in
  let spec = spec_fn ~degree:(Graphs.Graph.degree graph) in
  fun () -> Harness.Experiment.build_balancer spec graph ~init

let async_config (net : Check.net) =
  { Net.Async_engine.default_config with
    channel = net.channel;
    protocol = net.protocol;
    staleness = net.staleness;
    degrade = net.degrade;
    seed = net.net_seed }

let rec build_arrival ~rng = function
  | Check.Uniform k -> Workload.Arrival.uniform ~rng ~per_round:k
  | Check.Poisson r -> Workload.Arrival.poisson ~rng ~rate:r
  | Check.Point { node; batch } -> Workload.Arrival.point ~node ~per_round:batch
  | Check.Hotspot k -> Workload.Arrival.hotspot ~per_round:k
  | Check.Flash { size; at; node; width } ->
    Workload.Arrival.flash_crowd ~width ~at ~size ~node ()
  | Check.Diurnal { period; amplitude; body } ->
    Workload.Arrival.diurnal ~period ~amplitude (build_arrival ~rng body)
  | Check.Plus (a, b) ->
    Workload.Arrival.overlay (build_arrival ~rng a) (build_arrival ~rng b)

let build_lifetime ~rng = function
  | Check.Immortal -> Workload.Lifetime.immortal
  | Check.Work k -> Workload.Lifetime.uniform_attempts ~rng ~per_round:k
  | Check.Service r -> Workload.Lifetime.service ~rate:r
  | Check.Geometric m -> Workload.Lifetime.geometric ~rng ~mean:m
  | Check.Fixed r -> Workload.Lifetime.fixed ~rng ~rounds:r

type system =
  | Closed_system of Check.closed
  | Open_system of {
      arrival : Workload.Arrival.t;
      lifetime : Workload.Lifetime.t;
      config : Workload.Engine.config;
      faults : Faults.Schedule.spec list;
      net : Check.net option;
    }

type prepared = {
  typed : Check.typed;
  graph : Graphs.Graph.t;
  init : int array;
  balancer : Core.Balancer.t;
  make_balancer : unit -> Core.Balancer.t;
  steps : int;
  gap : float Lazy.t;
  band : int Lazy.t;
  plan : Faults.Schedule.plan Lazy.t;
  resume : Shard.Checkpoint.recovery option Lazy.t;
  system : system;
}

let prepare (t : Check.typed) =
  let graph = Harness.Experiment.build_graph t.graph in
  let init = Harness.Experiment.build_init t.init ~n:(Graphs.Graph.n graph) in
  let make_balancer = build_balancer_fn t graph init in
  let balancer = make_balancer () in
  let self_loops = balancer.Core.Balancer.self_loops in
  let gap = lazy (Harness.Experiment.spec_gap t.graph ~graph ~self_loops) in
  let realize faults =
    lazy (Faults.Schedule.realize ~seed:t.fault_seed ~graph faults)
  in
  let steps, plan, resume, system =
    match t.run with
    | Check.Closed c ->
      ( Harness.Experiment.horizon_steps ~gap ~graph ~self_loops ~init c.horizon,
        realize c.faults,
        lazy
          (match c.checkpoint with
          | Some { resume = true; path; _ } -> Some (Shard.Checkpoint.recover ~path ())
          | Some { resume = false; _ } | None -> None),
        Closed_system c )
    | Check.Open { rounds; arrival; lifetime; warmup; workload_seed; faults; net } ->
      (* lb_sim's PRNG convention: one master stream, arrival then
         lifetime split off in that order *)
      let master = Prng.Splitmix.create workload_seed in
      let arrival_rng = Prng.Splitmix.split master in
      let lifetime_rng = Prng.Splitmix.split master in
      let arrival = build_arrival ~rng:arrival_rng arrival in
      let lifetime = build_lifetime ~rng:lifetime_rng lifetime in
      let warmup =
        match warmup with
        | Check.Auto -> Workload.Engine.Auto
        | Check.Fixed_warmup w -> Workload.Engine.Fixed_warmup w
      in
      let config = Workload.Engine.config ~warmup ~arrival ~lifetime ~rounds () in
      ( rounds,
        realize faults,
        lazy None,
        Open_system { arrival; lifetime; config; faults; net } )
    | Check.Cluster _ ->
      invalid_arg
        "dist scenarios are compile-only in-process: use 'lb_scn compile' and run \
         the printed lb_cluster command"
  in
  { typed = t; graph; init; balancer; make_balancer; steps; gap;
    band = lazy (Harness.Experiment.theorem_band ~graph ~self_loops);
    plan; resume; system }

type report =
  | Rounds of { result : Core.Engine.result; time_to_target : int option }
  | Faulted of Faults.Engine.report
  | Networked of Net.Async_engine.report
  | Opened of Workload.Engine.result

(* The discrepancy series' cadences are lb_sim's: every 50th step of the
   core engine, every 64th of the sharded and fault engines, every step
   of the network. *)
let execute p =
  let { graph; init; steps; balancer; make_balancer; _ } = p in
  let plan = Lazy.force p.plan in
  match p.system with
  | Open_system { config; faults; net; _ } ->
    let mode =
      match (net, faults) with
      | Some net, _ -> Harness.Openrun.Lossy { config = async_config net; plan }
      | None, _ :: _ -> Harness.Openrun.Faulty { plan }
      | None, [] -> Harness.Openrun.Plain
    in
    Opened (Harness.Openrun.run ~mode ~config ~graph ~balancer ~init ())
  | Closed_system { net = Some net; _ } ->
    Networked
      (Net.Async_engine.run ~config:(async_config net) ~plan ~graph ~balancer ~init
         ~steps ())
  | Closed_system ({ faults = _ :: _; _ } as c) ->
    let mode =
      match c.shards with
      | None -> Faults.Engine.Sequential
      | Some { count; partition } ->
        Faults.Engine.Sharded { shards = count; strategy = partition }
    in
    Faulted
      (Faults.Engine.run ~mode ?eps:c.recovery_eps
         ~sample_every:(max 1 (steps / 64))
         ~graph ~make_balancer ~plan ~init ~steps ())
  | Closed_system ({ faults = []; _ } as c) ->
    let first_hit = ref None in
    let hook =
      Option.map
        (fun tgt t loads ->
          if !first_hit = None && Core.Loads.discrepancy loads <= tgt then
            first_hit := Some t)
        c.target
    in
    let result =
      match (c.shards, c.checkpoint) with
      | None, None ->
        Core.Engine.run ~audit:c.audit ~sample_every:(max 1 (steps / 50)) ?hook ~graph
          ~balancer ~init ~steps ()
      | shards, checkpoint ->
        let { Check.count; partition } =
          Option.value shards
            ~default:{ Check.count = 1; partition = Shard.Partition.Contiguous }
        in
        Shard.Shard_engine.run ~audit:c.audit
          ~sample_every:(max 1 (steps / 64))
          ?hook ~strategy:partition
          ?checkpoint:
            (Option.map
               (fun (k : Check.checkpoint) ->
                 { Shard.Shard_engine.path = k.path; every = k.every })
               checkpoint)
          ?resume:
            (Option.map
               (fun r -> r.Shard.Checkpoint.snapshot)
               (Lazy.force p.resume))
          ~shards:count ~graph ~make_balancer ~init ~steps ()
    in
    let time_to_target =
      Option.bind c.target (fun tgt ->
          if Core.Loads.discrepancy init <= tgt then Some 0 else !first_hit)
    in
    Rounds { result; time_to_target }

type outcome = {
  kind : string;
  rounds : int;
  final_loads : int array;
  discrepancy : int;
  initial_total : int;
  final_total : int;
  injected : int;
  removed : int;
  conserved : bool;
  drained : bool;
}

let outcome p report =
  let closed (r : Core.Engine.result) = (r.steps_run, r.final_loads) in
  let (rounds, final), injected, removed, drained =
    match report with
    | Rounds { result; _ } -> (closed result, 0, 0, true)
    | Faulted r -> (closed r.result, r.injected, r.lost, true)
    | Networked r -> (closed r.result, r.injected, r.lost, r.drained)
    | Opened r ->
      ( (r.rounds_run, r.final_loads),
        r.total_arrivals + r.fault_injected,
        r.total_departures + r.fault_lost,
        r.conserved )
  in
  let initial_total = Core.Loads.total p.init in
  let final_total = Core.Loads.total final in
  { kind = kind p.typed;
    rounds;
    final_loads = final;
    discrepancy = Core.Loads.discrepancy final;
    initial_total;
    final_total;
    injected;
    removed;
    conserved = final_total = initial_total + injected - removed;
    drained }

(* A constructor precondition the checker missed must surface as a
   compile error, not a crash — the fuzzer counts on it. *)
let run t =
  match prepare t with
  | p -> ( try Ok (outcome p (execute p)) with Invalid_argument m -> Error m)
  | exception Invalid_argument m -> Error m

let cluster_command (t : Check.typed) =
  match t.run with
  | Check.Cluster { rounds; cluster } ->
    Some
      (Dist.Chaos.command_line
         { Dist.Chaos.index = 0;
           shards = cluster.Check.shards;
           rounds;
           graph = spec_of_graph t.graph;
           init = spec_of_init t.init;
           algo = t.algo_name;
           seed = t.fault_seed;
           drop = cluster.Check.cluster_drop;
           delay_prob = cluster.Check.delay_prob;
           delay_max = cluster.Check.delay_max;
           faults = cluster.Check.cluster_faults;
           partitions = cluster.Check.partitions })
  | Check.Closed _ | Check.Open _ -> None

let describe it =
  match it.payload with
  | Exper id -> [ Printf.sprintf "%s: experiment %s (Harness.Suite registry)" it.label id ]
  | Run t -> (
    let head =
      Printf.sprintf "%s: %s  graph=%s init=%s algo=%s seed=%d" it.label (kind t)
        (spec_of_graph t.graph) (spec_of_init t.init) t.algo_name t.fault_seed
    in
    match t.run with
    | Check.Cluster _ -> (
      match cluster_command t with
      | Some cmd -> [ head; "  target: multi-process cluster"; "  " ^ cmd ]
      | None -> [ head ])
    | Check.Closed { horizon; faults; net; shards; _ } ->
      [ head;
        Printf.sprintf "  target: %s  %s faults=%d%s"
          (match (net, faults, shards) with
          | Some _, _, _ -> "Net.Async_engine.run"
          | None, [], None -> "Core.Engine.run"
          | None, [], Some _ -> "Shard.Shard_engine.run"
          | None, _, _ -> "Faults.Engine.run")
          (match horizon with
          | Harness.Experiment.Fixed_steps s -> Printf.sprintf "steps=%d" s
          | Harness.Experiment.Mixing_multiple c -> Printf.sprintf "horizon=mixing:%g" c
          | Harness.Experiment.Continuous_multiple c ->
            Printf.sprintf "horizon=continuous:%g" c)
          (List.length faults)
          (match net with
          | Some nc ->
            Printf.sprintf " channel=%s staleness=%d"
              (Net.Channel.config_to_string nc.Check.channel)
              nc.Check.staleness
          | None -> "") ]
    | Check.Open { rounds; faults; net; workload_seed; _ } ->
      [ head;
        Printf.sprintf "  target: Harness.Openrun.run (%s)  rounds=%d workload-seed=%d faults=%d%s"
          (match (net, faults) with
          | Some _, _ -> "Lossy"
          | None, [] -> "Plain"
          | None, _ -> "Faulty")
          rounds workload_seed (List.length faults)
          (match net with
          | Some nc ->
            Printf.sprintf " channel=%s"
              (Net.Channel.config_to_string nc.Check.channel)
          | None -> "") ])
