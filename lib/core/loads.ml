let require_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Loads." ^ name ^ ": empty load vector")

let total a =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + a.(i)
  done;
  !s

(* A store loop, not [Array.fill]: on an array in the major heap,
   OCaml 5's [caml_array_fill] tests every old value it overwrites, and
   on live loads that test mispredicts.  The stores here are of an
   immediate into an [int array], so they need no write barrier. *)
let zero (a : int array) =
  for i = 0 to Array.length a - 1 do
    a.(i) <- 0
  done

let max_load a =
  require_nonempty "max_load" a;
  Array.fold_left max a.(0) a

let min_load a =
  require_nonempty "min_load" a;
  Array.fold_left min a.(0) a

let discrepancy a = max_load a - min_load a

let average a =
  require_nonempty "average" a;
  float_of_int (total a) /. float_of_int (Array.length a)

let balancedness a = float_of_int (max_load a) -. average a

let initial_discrepancy = discrepancy

let point_mass ~n ~total =
  if n <= 0 then invalid_arg "Loads.point_mass: n <= 0";
  if total < 0 then invalid_arg "Loads.point_mass: negative total";
  let a = Array.make n 0 in
  a.(0) <- total;
  a

let uniform_random g ~n ~total =
  if n <= 0 then invalid_arg "Loads.uniform_random: n <= 0";
  Prng.Sample.multinomial_tokens g ~tokens:total ~bins:n

let bimodal ~n ~high ~low =
  if n <= 0 then invalid_arg "Loads.bimodal: n <= 0";
  Array.init n (fun i -> if i < n / 2 then high else low)

let random_composition g ~n ~total =
  if n <= 0 then invalid_arg "Loads.random_composition: n <= 0";
  Prng.Sample.geometric_split g ~total ~parts:n

let flat ~n ~value =
  if n <= 0 then invalid_arg "Loads.flat: n <= 0";
  Array.make n value

let staircase ~n ~step =
  if n <= 0 then invalid_arg "Loads.staircase: n <= 0";
  if step < 0 then invalid_arg "Loads.staircase: negative step";
  Array.init n (fun i -> i * step)

let exponential_decay ~n ~top =
  if n <= 0 then invalid_arg "Loads.exponential_decay: n <= 0";
  if top < 0 then invalid_arg "Loads.exponential_decay: negative top";
  Array.init n (fun i -> if i >= 62 then 0 else top lsr i)
