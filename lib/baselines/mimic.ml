let make g ~self_loops ~init =
  if self_loops < 1 then invalid_arg "Mimic.make: needs a self-loop to hold the residue";
  let n = Graphs.Graph.n g in
  let d = Graphs.Graph.degree g in
  if Array.length init <> n then invalid_arg "Mimic.make: init length mismatch";
  let dp = d + self_loops in
  (* Internal continuous trajectory and per-directed-edge cumulative flows. *)
  let xc = ref (Array.map float_of_int init) in
  let xc_next = ref (Array.make n 0.0) in
  let w = Array.make (n * d) 0.0 in
  let f = Array.make (n * d) 0 in
  let last_step = ref 0 in
  let advance_continuous () =
    (* Accumulate this step's continuous flows, then advance the state. *)
    let dpf = float_of_int dp in
    for u = 0 to n - 1 do
      let share = !xc.(u) /. dpf in
      let base = u * d in
      for k = 0 to d - 1 do
        w.(base + k) <- w.(base + k) +. share
      done
    done;
    Continuous.step_into g ~self_loops !xc !xc_next;
    let tmp = !xc in
    xc := !xc_next;
    xc_next := tmp
  in
  let assign ~step ~node ~load ~ports =
    if step <> !last_step then begin
      if step <> !last_step + 1 then
        invalid_arg "Mimic: engine must run steps consecutively from 1";
      advance_continuous ();
      last_step := step
    end;
    let base = node * d in
    let sent = ref 0 in
    for k = 0 to d - 1 do
      (* Keep cumulative discrete flow at the nearest integer of the
         cumulative continuous flow.  W is non-decreasing, so the target
         never drops below the already-sent total. *)
      let target = int_of_float (Float.round w.(base + k)) in
      let s = target - f.(base + k) in
      ports.(k) <- s;
      f.(base + k) <- target;
      sent := !sent + s
    done;
    (* Residue (possibly negative: the node may promise tokens it does
       not hold — the NL ✗ column) sits on the first self-loop. *)
    ports.(d) <- load - !sent;
    for k = d + 1 to dp - 1 do
      ports.(k) <- 0
    done
  in
  {
    Core.Balancer.name = Printf.sprintf "mimic-continuous(d°=%d)" self_loops;
    degree = d;
    self_loops;
    props =
      {
        deterministic = true;
        stateless = false;
        never_negative = false;
        no_communication = false;
      };
    assign;
    persist = None;
    kernel = None;
  }
