type placement =
  | Uniform_nodes of Prng.Splitmix.t
  | At_node of int
  | At_max_loaded

type counting =
  | Const of int
  | Poisson of { rng : Prng.Splitmix.t; rate : float }

type shape =
  | Flat
  | Diurnal of { period : int; amplitude : float }
  | Window of { from_round : int; width : int }

type src = { placement : placement; counting : counting; shape : shape }
type t = src list

(* Poisson additivity keeps Knuth's product-of-uniforms method in the
   regime where exp(-rate) is comfortably above the float underflow
   threshold: a rate above 30 is split in half until the halves are at
   most 30.  Halving a float is exact and so is [rate -. rate /. 2.0]
   (Sterbenz), so all 2^j leaves of that split have the same rate and
   are drawn one after another off the one stream — by one
   [Splitmix.knuth_count] call for the whole count, which keeps the
   stream's state and the running product unboxed in registers. *)
let poisson_draw rng rate =
  if rate <= 0.0 then 0
  else begin
    let leaf = ref rate and leaves = ref 1 in
    while !leaf > 30.0 do
      leaf := !leaf /. 2.0;
      leaves := 2 * !leaves
    done;
    Prng.Splitmix.knuth_count rng ~leaves:!leaves (exp (-. !leaf))
  end

let factor shape ~round =
  match shape with
  | Flat -> 1.0
  | Diurnal { period; amplitude } ->
    1.0
    +. amplitude
       *. sin (2.0 *. Float.pi *. float_of_int round /. float_of_int period)
  | Window { from_round; width } ->
    if round >= from_round && round < from_round + width then 1.0 else 0.0

(* The count drawn for one source this round.  A Flat Const source must
   cost zero PRNG draws and return the batch exactly, so seeded runs
   replay draw for draw. *)
let count src ~round =
  match (src.counting, src.shape) with
  | Const b, Flat -> b
  | Const b, shape ->
    let f = factor shape ~round in
    if f <= 0.0 then 0
    else max 0 (int_of_float (Float.round (float_of_int b *. f)))
  | Poisson { rng; rate }, shape ->
    let f = factor shape ~round in
    if f <= 0.0 then 0 else poisson_draw rng (rate *. f)

let argmax loads =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > loads.(!best) then best := i) loads;
  !best

let inject_src src ~round loads =
  let c = count src ~round in
  if c <= 0 then 0
  else begin
    (match src.placement with
    | Uniform_nodes rng -> Prng.Splitmix.add_uniform rng loads c
    | At_node u -> loads.(u) <- loads.(u) + c
    | At_max_loaded ->
      let u = argmax loads in
      loads.(u) <- loads.(u) + c);
    c
  end

(* A plain recursion rather than a fold, which would allocate a closure
   over [round] and [loads] every round. *)
let rec inject_from acc t ~round loads =
  match t with
  | [] -> acc
  | src :: rest -> inject_from (acc + inject_src src ~round loads) rest ~round loads

let inject t ~round ~loads = inject_from 0 t ~round loads

let uniform ~rng ~per_round =
  if per_round < 0 then invalid_arg "Arrival.uniform: negative batch";
  [ { placement = Uniform_nodes rng; counting = Const per_round; shape = Flat } ]

let poisson ~rng ~rate =
  if rate < 0.0 || not (Float.is_finite rate) then
    invalid_arg "Arrival.poisson: rate must be finite and non-negative";
  [ { placement = Uniform_nodes rng; counting = Poisson { rng; rate }; shape = Flat } ]

let point ~node ~per_round =
  if per_round < 0 then invalid_arg "Arrival.point: negative batch";
  if node < 0 then invalid_arg "Arrival.point: negative node";
  [ { placement = At_node node; counting = Const per_round; shape = Flat } ]

let hotspot ~per_round =
  if per_round < 0 then invalid_arg "Arrival.hotspot: negative batch";
  [ { placement = At_max_loaded; counting = Const per_round; shape = Flat } ]

let flash_crowd ?(width = 1) ~at ~size ~node () =
  if at < 1 then invalid_arg "Arrival.flash_crowd: at must be >= 1";
  if width < 1 then invalid_arg "Arrival.flash_crowd: width must be >= 1";
  if size < 0 then invalid_arg "Arrival.flash_crowd: negative size";
  if node < 0 then invalid_arg "Arrival.flash_crowd: negative node";
  [
    {
      placement = At_node node;
      counting = Const size;
      shape = Window { from_round = at; width };
    };
  ]

let diurnal ~period ~amplitude t =
  if period < 1 then invalid_arg "Arrival.diurnal: period must be >= 1";
  if amplitude < 0.0 || amplitude > 1.0 then
    invalid_arg "Arrival.diurnal: amplitude must be in [0, 1]";
  List.map
    (fun src ->
      match src.shape with
      | Flat -> { src with shape = Diurnal { period; amplitude } }
      | Diurnal _ | Window _ ->
        invalid_arg "Arrival.diurnal: process is already modulated")
    t

let overlay a b = a @ b

let validate t ~n =
  let bad =
    List.find_opt
      (fun src ->
        match src.placement with
        | At_node u -> u >= n
        | Uniform_nodes _ | At_max_loaded -> false)
      t
  in
  match bad with
  | Some { placement = At_node u; _ } ->
    Error (Printf.sprintf "arrival targets node %d, network has %d nodes" u n)
  | Some _ | None -> if n <= 0 then Error "empty network" else Ok ()

let src_name src =
  let base =
    match (src.placement, src.counting) with
    | Uniform_nodes _, Const b -> Printf.sprintf "uniform[%d/r]" b
    | Uniform_nodes _, Poisson { rate; _ } -> Printf.sprintf "poisson[λ=%g]" rate
    | At_node u, Const b -> Printf.sprintf "point[%d/r→node%d]" b u
    | At_node u, Poisson { rate; _ } ->
      Printf.sprintf "point[λ=%g→node%d]" rate u
    | At_max_loaded, Const b -> Printf.sprintf "hotspot[%d/r]" b
    | At_max_loaded, Poisson { rate; _ } -> Printf.sprintf "hotspot[λ=%g]" rate
  in
  match src.shape with
  | Flat -> base
  | Diurnal { period; amplitude } ->
    Printf.sprintf "diurnal[p=%d,a=%g](%s)" period amplitude base
  | Window { from_round; width } ->
    Printf.sprintf "flash(%s@%d+%d)" base from_round width

let name t = String.concat "+" (List.map src_name t)
