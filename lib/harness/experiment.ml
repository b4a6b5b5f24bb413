type graph_spec =
  | Cycle of int
  | Torus2d of int
  | Hypercube of int
  | Random_regular of { n : int; d : int; seed : int }
  | Complete of int
  | Clique_circulant of { n : int; d : int }

let build_graph = function
  | Cycle n -> Graphs.Gen.cycle n
  | Torus2d side -> Graphs.Gen.torus [ side; side ]
  | Hypercube r -> Graphs.Gen.hypercube r
  | Random_regular { n; d; seed } ->
    Graphs.Gen.random_regular (Prng.Splitmix.create seed) ~n ~d
  | Complete n -> Graphs.Gen.complete n
  | Clique_circulant { n; d } -> Graphs.Gen.clique_circulant ~n ~d

let graph_name = function
  | Cycle n -> Printf.sprintf "cycle(%d)" n
  | Torus2d side -> Printf.sprintf "torus2d(%dx%d)" side side
  | Hypercube r -> Printf.sprintf "hypercube(%d)" r
  | Random_regular { n; d; seed } -> Printf.sprintf "random-%d-regular(%d,seed=%d)" d n seed
  | Complete n -> Printf.sprintf "complete(%d)" n
  | Clique_circulant { n; d } -> Printf.sprintf "clique-circulant(%d,d=%d)" n d

type algo_spec =
  | Rotor_router of { self_loops : int }
  | Rotor_router_star
  | Send_floor of { self_loops : int }
  | Send_round of { self_loops : int }
  | Mimic of { self_loops : int }
  | Random_extra of { self_loops : int; seed : int }
  | Random_rounding of { self_loops : int; seed : int }

let algo_name = function
  | Rotor_router { self_loops } -> Printf.sprintf "rotor-router(d°=%d)" self_loops
  | Rotor_router_star -> "rotor-router*"
  | Send_floor { self_loops } -> Printf.sprintf "send-floor(d°=%d)" self_loops
  | Send_round { self_loops } -> Printf.sprintf "send-round(d°=%d)" self_loops
  | Mimic { self_loops } -> Printf.sprintf "mimic(d°=%d)" self_loops
  | Random_extra { self_loops; seed } ->
    Printf.sprintf "random-extra(d°=%d,seed=%d)" self_loops seed
  | Random_rounding { self_loops; seed } ->
    Printf.sprintf "random-rounding(d°=%d,seed=%d)" self_loops seed

let algo_self_loops spec ~graph_degree =
  match spec with
  | Rotor_router { self_loops }
  | Send_floor { self_loops }
  | Send_round { self_loops }
  | Mimic { self_loops }
  | Random_extra { self_loops; _ }
  | Random_rounding { self_loops; _ } -> self_loops
  | Rotor_router_star -> graph_degree

let build_balancer spec g ~init =
  match spec with
  | Rotor_router { self_loops } -> Core.Rotor_router.make g ~self_loops
  | Rotor_router_star -> Core.Rotor_router_star.make g
  | Send_floor { self_loops } -> Core.Send_floor.make g ~self_loops
  | Send_round { self_loops } -> Core.Send_round.make g ~self_loops
  | Mimic { self_loops } -> Baselines.Mimic.make g ~self_loops ~init
  | Random_extra { self_loops; seed } ->
    Baselines.Random_extra.make (Prng.Splitmix.create seed) g ~self_loops
  | Random_rounding { self_loops; seed } ->
    Baselines.Random_rounding.make (Prng.Splitmix.create seed) g ~self_loops

type init_spec =
  | Point_mass of int
  | Bimodal of { high : int; low : int }
  | Uniform_random of { total : int; seed : int }

let build_init spec ~n =
  match spec with
  | Point_mass total -> Core.Loads.point_mass ~n ~total
  | Bimodal { high; low } -> Core.Loads.bimodal ~n ~high ~low
  | Uniform_random { total; seed } ->
    Core.Loads.uniform_random (Prng.Splitmix.create seed) ~n ~total

(* --- spec parsers ---

   One grammar shared by every front end (lb_sim, lb_cluster, lb_node),
   so a spec string that works on the single-process simulator selects
   the identical experiment on the distributed runtime. *)

exception Parse_fail of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_fail m)) fmt

let parsed f = match f () with v -> Ok v | exception Parse_fail m -> Error m

let p_positive what v =
  if v <= 0 then parse_fail "%s must be positive (got %d)" what v;
  v

let p_non_negative what v =
  if v < 0 then parse_fail "%s must be non-negative (got %d)" what v;
  v

let graph_of_string s =
  parsed @@ fun () ->
  let fail () =
    parse_fail
      "bad graph spec %S (expected cycle:N, torus:AxA, hypercube:R, complete:N, \
       clique:N,D or random:N,D[,SEED])"
      s
  in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  match String.split_on_char ':' s with
  | [ "cycle"; n ] -> Cycle (p_positive "cycle size" (int_of n))
  | [ "hypercube"; r ] -> Hypercube (p_positive "hypercube dimension" (int_of r))
  | [ "complete"; n ] -> Complete (p_positive "complete-graph size" (int_of n))
  | [ "torus"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ a; b ] when a = b -> Torus2d (p_positive "torus side" (int_of a))
    | _ -> fail ())
  | [ "clique"; args ] -> (
    match String.split_on_char ',' args with
    | [ n; d ] ->
      Clique_circulant
        { n = p_positive "clique n" (int_of n);
          d = p_positive "clique degree" (int_of d) }
    | _ -> fail ())
  | [ "random"; args ] -> (
    match String.split_on_char ',' args with
    | [ n; d ] ->
      Random_regular
        { n = p_positive "graph size" (int_of n);
          d = p_positive "graph degree" (int_of d);
          seed = 1 }
    | [ n; d; seed ] ->
      Random_regular
        { n = p_positive "graph size" (int_of n);
          d = p_positive "graph degree" (int_of d);
          seed = int_of seed }
    | _ -> fail ())
  | _ -> fail ()

let init_of_string s =
  parsed @@ fun () ->
  let fail () =
    parse_fail
      "bad init spec %S (expected point:TOTAL, bimodal:HIGH,LOW or \
       random:TOTAL[,SEED])"
      s
  in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  match String.split_on_char ':' s with
  | [ "point"; t ] -> Point_mass (p_non_negative "initial total" (int_of t))
  | [ "bimodal"; args ] -> (
    match String.split_on_char ',' args with
    | [ h; l ] ->
      Bimodal
        { high = p_non_negative "bimodal high" (int_of h);
          low = p_non_negative "bimodal low" (int_of l) }
    | _ -> fail ())
  | [ "random"; args ] -> (
    match String.split_on_char ',' args with
    | [ t ] ->
      Uniform_random { total = p_non_negative "initial total" (int_of t); seed = 1 }
    | [ t; seed ] ->
      Uniform_random
        { total = p_non_negative "initial total" (int_of t); seed = int_of seed }
    | _ -> fail ())
  | _ -> fail ()

let algo_of_string ?self_loops ?(seed = 1) s =
  let sl default = match self_loops with Some k -> k | None -> default in
  match s with
  | "rotor-router" -> Ok (fun ~degree:d -> Rotor_router { self_loops = sl d })
  | "rotor-router-star" -> Ok (fun ~degree:_ -> Rotor_router_star)
  | "send-floor" -> Ok (fun ~degree:d -> Send_floor { self_loops = sl d })
  | "send-round" -> Ok (fun ~degree:d -> Send_round { self_loops = sl (2 * d) })
  | "mimic" -> Ok (fun ~degree:d -> Mimic { self_loops = sl d })
  | "random-extra" ->
    Ok (fun ~degree:d -> Random_extra { self_loops = sl d; seed })
  | "random-rounding" ->
    Ok (fun ~degree:d -> Random_rounding { self_loops = sl d; seed })
  | other ->
    Error
      (Printf.sprintf
         "unknown algorithm %S (expected rotor-router, rotor-router-star, \
          send-floor, send-round, mimic, random-extra or random-rounding)"
         other)

type horizon =
  | Fixed_steps of int
  | Mixing_multiple of float
  | Continuous_multiple of float

(* Spectral gaps are expensive on large graphs; memoize per graph shape.
   The key combines size, degree, d° and an FNV-1a fold of the flat
   adjacency — deterministic across runs and OCaml versions, unlike
   [Hashtbl.hash_param], and collision-safe enough for a cache of a
   handful of experiment graphs. *)
let gap_cache : (int * int * int * int, float) Hashtbl.t = Hashtbl.create 16

let adjacency_fingerprint (adj : int array) =
  Array.fold_left (fun h v -> (h lxor v) * 0x1000193) 0x811c9dc5 adj

let spectral_gap ~graph ~self_loops =
  let key =
    ( Graphs.Graph.n graph,
      Graphs.Graph.degree graph,
      self_loops,
      adjacency_fingerprint (Graphs.Graph.adjacency graph) )
  in
  match Hashtbl.find_opt gap_cache key with
  | Some g -> g
  | None ->
    let g = Graphs.Spectral.eigenvalue_gap graph ~self_loops in
    Hashtbl.add gap_cache key g;
    g

let spec_gap spec ~graph ~self_loops =
  match spec with
  | Cycle n -> Graphs.Spectral.cycle_gap ~n ~self_loops
  | Torus2d side -> Graphs.Spectral.torus2d_gap ~side ~self_loops
  | Hypercube r -> Graphs.Spectral.hypercube_gap ~r ~self_loops
  | Complete n -> Graphs.Spectral.complete_gap ~n ~self_loops
  | Clique_circulant { n; d } ->
    Graphs.Spectral.circulant_gap ~n
      ~offsets:(Graphs.Gen.clique_circulant_offsets ~n ~d)
      ~self_loops
  | Random_regular _ -> spectral_gap ~graph ~self_loops

let theorem_band ~graph ~self_loops =
  let n = Graphs.Graph.n graph in
  let d = Graphs.Graph.degree graph in
  let mu = spectral_gap ~graph ~self_loops in
  let via_n = sqrt (float_of_int n) in
  (* A degenerate spectral gap (µ ≤ 0, or NaN from numerical noise on
     tiny graphs) would turn the √(log n/µ) branch into ∞ or NaN; the
     theorem's min then falls back to the unconditional √n branch. *)
  let via_gap =
    if Float.is_finite mu && mu > 0.0 then sqrt (log (float_of_int n) /. mu)
    else infinity
  in
  let band = float_of_int d *. Float.min via_gap via_n in
  if not (Float.is_finite band) then max 1 d
  else max 1 (int_of_float (ceil band))

let horizon_steps ~gap ~graph ~self_loops ~init = function
  | Fixed_steps s ->
    if s < 1 then invalid_arg "Experiment.horizon_steps: need >= 1 step";
    s
  | Mixing_multiple c ->
    Graphs.Spectral.horizon ~gap:(Lazy.force gap) ~n:(Graphs.Graph.n graph)
      ~initial_discrepancy:(Core.Loads.discrepancy init) ~c
  | Continuous_multiple c ->
    let finit = Array.map float_of_int init in
    (match
       Graphs.Spectral.continuous_balancing_time graph ~self_loops ~init:finit ()
     with
     | Some t -> max 1 (int_of_float (ceil (c *. float_of_int (max t 1))))
     | None -> invalid_arg "Experiment.horizon_steps: continuous process did not converge")
