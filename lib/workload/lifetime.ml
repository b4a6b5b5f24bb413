type t =
  | Immortal
  | Uniform_attempts of { rng : Prng.Splitmix.t; per_round : int }
  | Service of { rate : int }
  | Geometric of { rng : Prng.Splitmix.t; mean : float }
  | Fixed of { rng : Prng.Splitmix.t; rounds : int; calendar : int array }

let immortal = Immortal

let uniform_attempts ~rng ~per_round =
  if per_round < 0 then invalid_arg "Lifetime.uniform_attempts: negative count";
  Uniform_attempts { rng; per_round }

let service ~rate =
  if rate < 0 then invalid_arg "Lifetime.service: negative rate";
  Service { rate }

let geometric ~rng ~mean =
  if mean < 1.0 || not (Float.is_finite mean) then
    invalid_arg "Lifetime.geometric: mean must be finite and >= 1";
  Geometric { rng; mean }

let fixed ~rng ~rounds =
  if rounds < 1 then invalid_arg "Lifetime.fixed: rounds must be >= 1";
  (* Ring calendar: slot (r mod (rounds+1)) holds the tokens due to
     depart at round r.  A slot is consumed exactly rounds+1 rounds
     after it was written, so one extra slot suffices. *)
  Fixed { rng; rounds; calendar = Array.make (rounds + 1) 0 }

let total loads =
  let s = ref 0 in
  for u = 0 to Array.length loads - 1 do
    s := !s + loads.(u)
  done;
  !s

(* Remove [count] tokens starting from a uniformly drawn node, walking
   cyclically to the next non-empty node.  The caller guarantees
   count <= total loads. *)
let remove_uniform rng loads count =
  let n = Array.length loads in
  for _ = 1 to count do
    let u = ref (Prng.Splitmix.int rng n) in
    while loads.(!u) = 0 do
      u := (!u + 1) mod n
    done;
    loads.(!u) <- loads.(!u) - 1
  done

let depart t ~round ~arrivals ~loads =
  let n = Array.length loads in
  match t with
  | Immortal -> 0
  | Uniform_attempts { rng; per_round } ->
    let departed = ref 0 in
    for _ = 1 to per_round do
      let u = Prng.Splitmix.int rng n in
      if loads.(u) > 0 then begin
        loads.(u) <- loads.(u) - 1;
        incr departed
      end
    done;
    !departed
  | Service { rate } ->
    (* c = min l rate without a branch: z asr 62 is -1 when z < 0 and 0
       otherwise, so c is l below the rate and the rate from it on.  A
       branch would be a coin flip: after departures about a third of
       an open system's nodes are empty.  Exact while l - rate does not
       overflow, that is for every l >= min_int + rate. *)
    let departed = ref 0 in
    for u = 0 to n - 1 do
      let l = loads.(u) in
      let z = l - rate in
      let c = rate + (z land (z asr 62)) in
      loads.(u) <- l - c;
      departed := !departed + c
    done;
    !departed
  | Geometric { rng; mean } ->
    let p = 1.0 /. mean in
    let departed = ref 0 in
    for u = 0 to n - 1 do
      let completions = ref 0 in
      for _ = 1 to loads.(u) do
        if Prng.Splitmix.bernoulli rng p then incr completions
      done;
      loads.(u) <- loads.(u) - !completions;
      departed := !departed + !completions
    done;
    !departed
  | Fixed { rng; rounds; calendar } ->
    let slots = rounds + 1 in
    let due_slot = round mod slots in
    calendar.((round + rounds) mod slots) <- arrivals;
    let due = calendar.(due_slot) in
    calendar.(due_slot) <- 0;
    let removable = min due (total loads) in
    remove_uniform rng loads removable;
    removable

let name = function
  | Immortal -> "immortal"
  | Uniform_attempts { per_round; _ } -> Printf.sprintf "work[%d/r]" per_round
  | Service { rate } -> Printf.sprintf "service[μ=%d]" rate
  | Geometric { mean; _ } -> Printf.sprintf "geometric[mean=%g]" mean
  | Fixed { rounds; _ } -> Printf.sprintf "fixed[%dr]" rounds
