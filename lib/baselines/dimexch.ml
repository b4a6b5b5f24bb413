type mode =
  | Random_matching of Prng.Splitmix.t
  | Balancing_circuit
  | Balancing_circuit_randomized of Prng.Splitmix.t

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
  reached_target : int option;
}

let edge_coloring g =
  let n = Graphs.Graph.n g in
  let d = Graphs.Graph.degree g in
  let max_colors = (2 * d) - 1 in
  let node_used = Array.make_matrix n max_colors false in
  let classes = Array.make max_colors [] in
  let used_colors = ref 0 in
  Graphs.Graph.iter_edges g (fun u v ->
      let c = ref 0 in
      while node_used.(u).(!c) || node_used.(v).(!c) do
        incr c
      done;
      node_used.(u).(!c) <- true;
      node_used.(v).(!c) <- true;
      classes.(!c) <- (u, v) :: classes.(!c);
      if !c + 1 > !used_colors then used_colors := !c + 1);
  Array.init !used_colors (fun c -> Array.of_list classes.(c))

(* A maximal matching grown greedily over the edges in a random order,
   written into [pairs] as u₀ v₀ u₁ v₁ …; returns the pair count.
   [order] is refilled with a random permutation in place and [matched]
   is cleared, so a round allocates nothing. *)
let random_maximal_matching rng ~edges ~order ~matched ~pairs =
  Prng.Splitmix.fill_permutation rng order;
  Array.fill matched 0 (Array.length matched) false;
  let count = ref 0 in
  for i = 0 to Array.length order - 1 do
    let u, v = edges.(order.(i)) in
    if (not matched.(u)) && not matched.(v) then begin
      matched.(u) <- true;
      matched.(v) <- true;
      pairs.(2 * !count) <- u;
      pairs.((2 * !count) + 1) <- v;
      incr count
    end
  done;
  !count

let balance_pair ~excess_to_u loads u v =
  let tot = loads.(u) + loads.(v) in
  let lo = tot / 2 and rem = tot mod 2 in
  if excess_to_u then begin
    loads.(u) <- lo + rem;
    loads.(v) <- lo
  end
  else begin
    loads.(u) <- lo;
    loads.(v) <- lo + rem
  end

let scan_discrepancy loads =
  let lo = ref loads.(0) and hi = ref loads.(0) in
  Array.iter
    (fun x ->
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    loads;
  !hi - !lo

let run ?(sample_every = 1) ?stop_at_discrepancy mode g ~init ~steps =
  let n = Graphs.Graph.n g in
  if Array.length init <> n then invalid_arg "Dimexch.run: init length mismatch";
  if steps < 0 then invalid_arg "Dimexch.run: negative steps";
  if sample_every <= 0 then invalid_arg "Dimexch.run: sample_every must be positive";
  let loads = Array.copy init in
  let circuit =
    match mode with
    | Balancing_circuit | Balancing_circuit_randomized _ -> edge_coloring g
    | Random_matching _ -> [||]
  in
  (* The random matching's buffers, made once per run. *)
  let edges, order, matched, pairs =
    match mode with
    | Random_matching _ ->
      let edges = Graphs.Graph.edges g in
      (edges, Array.make (Array.length edges) 0, Array.make n false, Array.make n 0)
    | Balancing_circuit | Balancing_circuit_randomized _ -> ([||], [||], [||], [||])
  in
  let series = ref [ (0, scan_discrepancy loads) ] in
  let reached = ref None in
  (match stop_at_discrepancy with
   | Some target when scan_discrepancy loads <= target -> reached := Some 0
   | _ -> ());
  let steps_done = ref 0 in
  (try
     for t = 1 to steps do
       if !reached <> None && stop_at_discrepancy <> None then raise Exit;
       (match mode with
        | Random_matching rng ->
          let count = random_maximal_matching rng ~edges ~order ~matched ~pairs in
          (* Last pair found first: each pair draws one coin, and the
             goldens fix which pair draws which. *)
          for i = count - 1 downto 0 do
            balance_pair ~excess_to_u:(Prng.Splitmix.bool rng) loads pairs.(2 * i)
              pairs.((2 * i) + 1)
          done
        | Balancing_circuit ->
          let matching = circuit.((t - 1) mod Array.length circuit) in
          Array.iter
            (fun (u, v) ->
              let excess_to_u =
                loads.(u) > loads.(v) || (loads.(u) = loads.(v) && u < v)
              in
              balance_pair ~excess_to_u loads u v)
            matching
        | Balancing_circuit_randomized rng ->
          let matching = circuit.((t - 1) mod Array.length circuit) in
          Array.iter
            (fun (u, v) ->
              balance_pair ~excess_to_u:(Prng.Splitmix.bool rng) loads u v)
            matching);
       steps_done := t;
       let disc = scan_discrepancy loads in
       if t mod sample_every = 0 || t = steps then series := (t, disc) :: !series;
       match stop_at_discrepancy with
       | Some target when disc <= target && !reached = None -> reached := Some t
       | _ -> ()
     done
   with Exit -> ());
  {
    steps_run = !steps_done;
    final_loads = loads;
    series = Array.of_list (List.rev !series);
    reached_target = !reached;
  }
