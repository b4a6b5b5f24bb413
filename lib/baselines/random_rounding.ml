(* Euclidean floor division (loads can be negative here). *)
let fdiv x y = if x >= 0 then x / y else -(((-x) + y - 1) / y)

let make rng g ~self_loops =
  if self_loops < 1 then
    invalid_arg "Random_rounding.make: needs a self-loop to hold the residue";
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let assign ~step:_ ~node:_ ~load ~ports =
    let q = fdiv load dp in
    let e = load - (q * dp) in
    let frac = float_of_int e /. float_of_int dp in
    let sent = ref 0 in
    for k = 0 to d - 1 do
      (* Negative loads would make q negative; clamp sends at 0 so the
         assignment stays legal (the residue absorbs the difference). *)
      let s = max 0 (q + if Prng.Splitmix.bernoulli rng frac then 1 else 0) in
      ports.(k) <- s;
      sent := !sent + s
    done;
    ports.(d) <- load - !sent;
    for k = d + 1 to dp - 1 do
      ports.(k) <- 0
    done
  in
  {
    Core.Balancer.name = Printf.sprintf "random-rounding(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props =
      {
        deterministic = false;
        stateless = true;
        never_negative = false;
        no_communication = true;
      };
    assign;
    persist = None;
    kernel = None;
  }
