(* Tests for the experiment suite plumbing (Harness.Suite) and the
   multi-seed replication helper (Harness.Series).

   The cheap lower-bound experiments are executed for real (they're
   milliseconds at quick size and fully deterministic); the expensive
   sweeps are only validated through the registry. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_silenced_stdout f =
  (* The suite prints reports; keep test output clean by diverting. *)
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

let run_exp id =
  (* All execution goes through the named registry — the same lookup
     the CLI and the scenario compiler use. *)
  match Harness.Suite.find id with
  | Some e -> e.Harness.Suite.run ~quick:true
  | None -> Alcotest.fail (id ^ " missing from the registry")

let test_registry_complete () =
  check_int "17 experiments" 17 (List.length Harness.Suite.all);
  let ids = List.map (fun e -> e.Harness.Suite.id) Harness.Suite.all in
  List.iteri
    (fun i id -> Alcotest.(check string) "ordered ids" (Printf.sprintf "E%d" (i + 1)) id)
    ids;
  List.iter
    (fun e -> check_bool "has description" true (String.length e.Harness.Suite.reproduces > 0))
    Harness.Suite.all

let test_run_by_id_unknown () =
  match Harness.Suite.run_by_id ~quick:true "E99" with
  | Ok _ -> Alcotest.fail "E99 should not exist"
  | Error msg -> check_bool "lists valid ids" true (String.length msg > 10)

let test_run_by_id_case_insensitive () =
  with_silenced_stdout (fun () ->
      match Harness.Suite.run_by_id ~quick:true "e6" with
      | Ok rows -> check_bool "rows produced" true (List.length rows > 0)
      | Error msg -> Alcotest.fail msg)

let test_e5_rows () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E5" in
      check_bool "at least one row" true (List.length rows >= 1);
      List.iter
        (fun row ->
          match row with
          | "E5" :: _ :: _ :: _ :: disc :: _ ->
            check_bool "discrepancy parses" true (int_of_string_opt disc <> None)
          | _ -> Alcotest.fail "unexpected row shape")
        rows)

let test_e7_rows_match_formula () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E7" in
      List.iter
        (fun row ->
          match row with
          | [ "E7"; n; _phi; disc; amp; periodic ] ->
            let n = int_of_string n in
            check_int "disc = 2dφ − 1" (2 * (n - 1) - 1) (int_of_string disc);
            check_int "amp = 2dφ" (2 * (n - 1)) (int_of_string amp);
            Alcotest.(check string) "period 2" "yes" periodic
          | _ -> Alcotest.fail "unexpected row shape")
        rows)

let test_e6_rows_match_formula () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E6" in
      List.iter
        (fun row ->
          match row with
          | [ "E6"; _n; d; _c; disc; frozen ] ->
            check_int "disc = ⌊d/2⌋ − 1"
              ((int_of_string d / 2) - 1)
              (int_of_string disc);
            Alcotest.(check string) "frozen" "yes" frozen
          | _ -> Alcotest.fail "unexpected row shape")
        rows)

let test_e12_rows_within_bound () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E12" in
      List.iter
        (fun row ->
          match row with
          | [ "E12"; _g; rotor; _random; bound; _ratio ] ->
            check_bool "rotor cover ≤ 2mD" true
              (int_of_string rotor <= int_of_string bound)
          | _ -> Alcotest.fail "unexpected E12 row shape")
        rows)

let test_e14_rows_all_hold () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E14" in
      check_bool "several windows" true (List.length rows >= 3);
      List.iter
        (fun row ->
          match row with
          | [ "E14"; _w; _lhs; _rhs; holds ] ->
            Alcotest.(check string) "eq(7) holds" "yes" holds
          | _ -> Alcotest.fail "unexpected E14 row shape")
        rows)

let test_e15_rows_recover_and_conserve () =
  with_silenced_stdout (fun () ->
      let rows = run_exp "E15" in
      (* 3 graphs × 2 algorithms × 4 fault scenarios. *)
      check_int "24 sweep points" 24 (List.length rows);
      List.iter
        (fun row ->
          match row with
          | [ "E15"; _g; _a; _fault; _eps; _pre; _shock; _worst; recovered; conserved ] ->
            check_bool "recovered within band" true
              (recovered <> "never" && int_of_string_opt recovered <> None);
            Alcotest.(check string) "tokens conserved" "yes" conserved
          | _ -> Alcotest.fail "unexpected E15 row shape")
        rows)

(* --- Series --- *)

let test_summarize () =
  let s = Harness.Series.summarize [| 1.0; 2.0; 3.0 |] in
  check_int "n" 3 s.Harness.Series.n;
  Alcotest.(check (float 1e-9)) "mean" 2.0 s.Harness.Series.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Harness.Series.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Harness.Series.max;
  Alcotest.(check (float 1e-9)) "median" 2.0 s.Harness.Series.median

let test_replicate_randomized_baseline () =
  (* Replicate the random-extra discrepancy across seeds: all runs are
     in a sane band, and distinct seeds genuinely differ. *)
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:640 in
  let measure seed =
    let bal = Baselines.Random_extra.make (Prng.Splitmix.create seed) g ~self_loops:4 in
    let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:100 () in
    float_of_int (Core.Loads.discrepancy r.Core.Engine.final_loads)
  in
  let s = Harness.Series.replicate ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] measure in
  check_int "8 runs" 8 s.Harness.Series.n;
  check_bool "band" true (s.Harness.Series.max <= 40.0 && s.Harness.Series.min >= 0.0);
  check_bool "seeds differ" true (s.Harness.Series.stddev > 0.0)

let test_replicate_deterministic_has_zero_variance () =
  let measure _seed = 42.0 in
  let s = Harness.Series.replicate ~seeds:[ 1; 2; 3 ] measure in
  Alcotest.(check (float 1e-12)) "no variance" 0.0 s.Harness.Series.stddev

let test_sweep () =
  let out = Harness.Series.sweep [ 1; 2; 3 ] (fun x -> x * x) in
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 1); (2, 4); (3, 9) ] out

let test_replicate_empty_rejected () =
  check_bool "empty rejected" true
    (try
       ignore (Harness.Series.replicate ~seeds:[] (fun _ -> 0.0));
       false
     with Invalid_argument _ -> true)

(* --- Parallel replicas over Shard.Pool --- *)

let pool_map ~domains f xs =
  Shard.Pool.with_pool ~domains (fun pool ->
      Array.to_list (Shard.Pool.map pool f (Array.of_list xs)))

let test_parallel_map_order () =
  let xs = List.init 37 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * 2) xs)
    (pool_map ~domains:2 (fun x -> x * 2) xs)

let test_parallel_map_single_domain () =
  Alcotest.(check (list int)) "degenerate" [ 2; 4 ] (pool_map ~domains:1 (fun x -> x * 2) [ 1; 2 ])

let test_parallel_map_empty () =
  Alcotest.(check (list int)) "empty" [] (pool_map ~domains:2 (fun x -> x) [])

let test_parallel_exception_propagates () =
  check_bool "raises" true
    (try
       ignore (pool_map ~domains:2 (fun x -> if x = 3 then failwith "boom" else x) [ 1; 2; 3; 4 ]);
       false
     with Failure m -> m = "boom")

let test_parallel_matches_sequential_experiment () =
  (* Real workload: discrepancy of random-extra across seeds, computed
     both ways, must agree exactly (everything is seed-deterministic). *)
  let measure seed =
    let g = Graphs.Gen.torus [ 4; 4 ] in
    let init = Core.Loads.point_mass ~n:16 ~total:320 in
    let bal = Baselines.Random_extra.make (Prng.Splitmix.create seed) g ~self_loops:4 in
    let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:60 () in
    float_of_int (Core.Loads.discrepancy r.Core.Engine.final_loads)
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let seq = Harness.Series.replicate ~seeds measure in
  let par = Harness.Series.summarize (Array.of_list (pool_map ~domains:2 measure seeds)) in
  Alcotest.(check (float 1e-12)) "same mean" seq.Harness.Series.mean par.Harness.Series.mean;
  Alcotest.(check (float 1e-12)) "same stddev" seq.Harness.Series.stddev
    par.Harness.Series.stddev

let () =
  Alcotest.run "suite"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "unknown id" `Quick test_run_by_id_unknown;
          Alcotest.test_case "case insensitive" `Quick test_run_by_id_case_insensitive;
        ] );
      ( "experiment rows",
        [
          Alcotest.test_case "E5 shape" `Quick test_e5_rows;
          Alcotest.test_case "E7 formulas" `Quick test_e7_rows_match_formula;
          Alcotest.test_case "E6 formulas" `Quick test_e6_rows_match_formula;
          Alcotest.test_case "E12 within bound" `Quick test_e12_rows_within_bound;
          Alcotest.test_case "E14 all hold" `Quick test_e14_rows_all_hold;
          Alcotest.test_case "E15 recovery" `Quick test_e15_rows_recover_and_conserve;
        ] );
      ( "series",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "replicate randomized" `Quick
            test_replicate_randomized_baseline;
          Alcotest.test_case "replicate deterministic" `Quick
            test_replicate_deterministic_has_zero_variance;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "empty rejected" `Quick test_replicate_empty_rejected;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map order" `Quick test_parallel_map_order;
          Alcotest.test_case "single domain" `Quick test_parallel_map_single_domain;
          Alcotest.test_case "empty" `Quick test_parallel_map_empty;
          Alcotest.test_case "exception propagates" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential_experiment;
        ] );
    ]
