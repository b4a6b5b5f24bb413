(* Negative loads are possible; use Euclidean floor so the "send
   ⌊share + acc⌋" rule stays monotone in the share. *)
let floor_div_frac x =
  let f = floor x in
  (int_of_float f, x -. f)

let make g ~self_loops =
  if self_loops < 1 then
    invalid_arg "Quasirandom.make: needs a self-loop to hold the residue";
  let n = Graphs.Graph.n g in
  let d = Graphs.Graph.degree g in
  let dp = d + self_loops in
  let acc = Array.make (n * d) 0.0 in
  let assign ~step:_ ~node ~load ~ports =
    let share = float_of_int load /. float_of_int dp in
    let base = node * d in
    let sent = ref 0 in
    for k = 0 to d - 1 do
      let send, residue = floor_div_frac (share +. acc.(base + k)) in
      (* A deeply negative load would give a negative send; clamp and
         leave the deficit in the accumulator (the residue absorbs it
         next round). *)
      let send = max send 0 in
      ports.(k) <- send;
      acc.(base + k) <- residue;
      sent := !sent + send
    done;
    ports.(d) <- load - !sent;
    for k = d + 1 to dp - 1 do
      ports.(k) <- 0
    done
  in
  let inspector () = Array.fold_left (fun m a -> max m (abs_float a)) 0.0 acc in
  ( {
      Core.Balancer.name = Printf.sprintf "quasirandom(d°=%d)" self_loops;
      degree = d;
      self_loops;
      props =
        {
          deterministic = true;
          stateless = false;
          never_negative = false;
          no_communication = true;
        };
      assign;
      persist = None;
      kernel = None;
    },
    inspector )
