(* Tests for the harness: stats, tables, CSV, and the experiment
   registry. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Stats --- *)

let test_mean_variance () =
  check_float "mean" 3.0 (Harness.Stats.mean [| 1.0; 3.0; 5.0 |]);
  check_float "variance" 4.0 (Harness.Stats.variance [| 1.0; 3.0; 5.0 |]);
  check_float "stddev" 2.0 (Harness.Stats.stddev [| 1.0; 3.0; 5.0 |]);
  check_float "variance singleton" 0.0 (Harness.Stats.variance [| 7.0 |])

let test_median_percentile () =
  check_float "median odd" 3.0 (Harness.Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "median even" 2.5 (Harness.Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p0" 1.0 (Harness.Stats.percentile [| 1.0; 2.0; 3.0 |] 0.0);
  check_float "p100" 3.0 (Harness.Stats.percentile [| 1.0; 2.0; 3.0 |] 100.0)

let test_empty_samples_rejected () =
  (* Every sample-taking helper must refuse an empty array with a clear
     message rather than returning nan/infinity. *)
  let rejects name f =
    check_bool name true
      (try
         ignore (f [||]);
         false
       with Invalid_argument m ->
         (* The message names the offending function. *)
         String.length m > String.length "Stats."
         && String.sub m 0 6 = "Stats.")
  in
  rejects "mean" Harness.Stats.mean;
  rejects "variance" Harness.Stats.variance;
  rejects "stddev" Harness.Stats.stddev;
  rejects "median" Harness.Stats.median;
  rejects "percentile" (fun a -> Harness.Stats.percentile a 50.0);
  rejects "minimum" Harness.Stats.minimum;
  rejects "maximum" Harness.Stats.maximum;
  (* Singletons are fine everywhere. *)
  check_float "singleton mean" 7.0 (Harness.Stats.mean [| 7.0 |]);
  check_float "singleton stddev" 0.0 (Harness.Stats.stddev [| 7.0 |]);
  check_float "singleton median" 7.0 (Harness.Stats.median [| 7.0 |])

let test_linear_fit () =
  let a, b = Harness.Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  check_float "slope" 2.0 a;
  check_float "intercept" 1.0 b

let test_power_law_fit () =
  (* y = 3 x^0.5 exactly. *)
  let pts = Array.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 3.0 *. sqrt x))
  in
  let a, c = Harness.Stats.power_law_fit pts in
  check_bool "exponent" true (abs_float (a -. 0.5) < 1e-9);
  check_bool "factor" true (abs_float (c -. 3.0) < 1e-9)

let test_power_law_rejects_nonpositive () =
  check_bool "rejected" true
    (try
       ignore (Harness.Stats.power_law_fit [| (0.0, 1.0); (1.0, 2.0) |]);
       false
     with Invalid_argument _ -> true)

let test_correlation () =
  check_float "perfect" 1.0 (Harness.Stats.correlation [| (0.0, 0.0); (1.0, 2.0); (2.0, 4.0) |]);
  check_float "anti" (-1.0)
    (Harness.Stats.correlation [| (0.0, 4.0); (1.0, 2.0); (2.0, 0.0) |])

(* --- Table --- *)

let test_table_render () =
  let s =
    Harness.Table.render ~header:[ "name"; "value" ]
      ~rows:[ [ "x"; "1" ]; [ "longer"; "22" ] ]
      ()
  in
  let lines = String.split_on_char '\n' s in
  check_int "line count" 4 (List.length lines);
  List.iter
    (fun l -> check_int "equal widths" (String.length (List.hd lines)) (String.length l))
    lines

let test_table_alignment () =
  let s =
    Harness.Table.render ~align:[ Harness.Table.Left; Harness.Table.Right ]
      ~header:[ "a"; "num" ]
      ~rows:[ [ "x"; "5" ] ]
      ()
  in
  let data_row = List.nth (String.split_on_char '\n' s) 2 in
  Alcotest.(check string) "right aligned" "| x |   5 |" data_row

let test_table_rejects_ragged () =
  check_bool "ragged rejected" true
    (try
       ignore (Harness.Table.render ~header:[ "a"; "b" ] ~rows:[ [ "only one" ] ] ());
       false
     with Invalid_argument _ -> true)

let test_table_formatters () =
  Alcotest.(check string) "float" "3.14" (Harness.Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "none" "-" (Harness.Table.fmt_opt_int None);
  Alcotest.(check string) "some" "7" (Harness.Table.fmt_opt_int (Some 7))

(* --- Csv --- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Harness.Csv.escape_cell "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Harness.Csv.escape_cell "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Harness.Csv.escape_cell "a\"b")

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "loadbal" ".csv" in
  Harness.Csv.write ~path ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let content = In_channel.input_all ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "content" "x,y\n1,2\n3,4\n" content

(* --- Experiment registry --- *)

let test_graph_specs_build () =
  List.iter
    (fun (spec, expect_n, expect_d) ->
      let g = Harness.Experiment.build_graph spec in
      check_int (Harness.Experiment.graph_name spec ^ " n") expect_n (Graphs.Graph.n g);
      check_int (Harness.Experiment.graph_name spec ^ " d") expect_d (Graphs.Graph.degree g))
    [
      (Harness.Experiment.Cycle 10, 10, 2);
      (Harness.Experiment.Torus2d 4, 16, 4);
      (Harness.Experiment.Hypercube 3, 8, 3);
      (Harness.Experiment.Complete 7, 7, 6);
      (Harness.Experiment.Random_regular { n = 20; d = 4; seed = 1 }, 20, 4);
      (Harness.Experiment.Clique_circulant { n = 20; d = 6 }, 20, 6);
    ]

let test_init_specs_build () =
  let x = Harness.Experiment.build_init (Harness.Experiment.Point_mass 99) ~n:7 in
  check_int "point mass total" 99 (Core.Loads.total x);
  let y =
    Harness.Experiment.build_init
      (Harness.Experiment.Uniform_random { total = 55; seed = 3 })
      ~n:7
  in
  check_int "random total" 55 (Core.Loads.total y)

let test_algo_specs_build () =
  let g = Harness.Experiment.build_graph (Harness.Experiment.Torus2d 3) in
  let init = Core.Loads.point_mass ~n:9 ~total:90 in
  List.iter
    (fun spec ->
      let b = Harness.Experiment.build_balancer spec g ~init in
      check_bool
        (Harness.Experiment.algo_name spec ^ " builds")
        true
        (Core.Balancer.d_plus b > Graphs.Graph.degree g || b.Core.Balancer.self_loops = 0))
    [
      Harness.Experiment.Rotor_router { self_loops = 4 };
      Harness.Experiment.Rotor_router_star;
      Harness.Experiment.Send_floor { self_loops = 4 };
      Harness.Experiment.Send_round { self_loops = 8 };
      Harness.Experiment.Mimic { self_loops = 4 };
      Harness.Experiment.Random_extra { self_loops = 4; seed = 1 };
      Harness.Experiment.Random_rounding { self_loops = 4; seed = 1 };
    ]

let test_horizon_fixed_and_mixing () =
  let g = Harness.Experiment.build_graph (Harness.Experiment.Complete 8) in
  let init = Core.Loads.point_mass ~n:8 ~total:80 in
  let gap = Graphs.Spectral.complete_gap ~n:8 ~self_loops:7 in
  check_int "fixed" 42
    (Harness.Experiment.horizon_steps ~gap ~graph:g ~self_loops:7 ~init
       (Harness.Experiment.Fixed_steps 42));
  let t =
    Harness.Experiment.horizon_steps ~gap ~graph:g ~self_loops:7 ~init
      (Harness.Experiment.Mixing_multiple 4.0)
  in
  check_bool "mixing positive" true (t >= 1 && t < 1000)

let test_horizon_continuous () =
  let g = Harness.Experiment.build_graph (Harness.Experiment.Complete 8) in
  let init = Core.Loads.point_mass ~n:8 ~total:800 in
  let gap = Graphs.Spectral.complete_gap ~n:8 ~self_loops:7 in
  let t =
    Harness.Experiment.horizon_steps ~gap ~graph:g ~self_loops:7 ~init
      (Harness.Experiment.Continuous_multiple 2.0)
  in
  check_bool "continuous positive" true (t >= 2 && t < 1000)

(* [spec_gap] takes the spec's closed form where there is one and the
   memoized power iteration for a random regular graph. *)
let test_spec_gap_dispatch () =
  let open Harness.Experiment in
  let gap spec ~self_loops = spec_gap spec ~graph:(build_graph spec) ~self_loops in
  Alcotest.(check (float 0.0))
    "torus" (Graphs.Spectral.torus2d_gap ~side:64 ~self_loops:4)
    (gap (Torus2d 64) ~self_loops:4);
  Alcotest.(check (float 0.0)) "hypercube, d°=1" 0.5 (gap (Hypercube 3) ~self_loops:1);
  Alcotest.(check (float 0.0)) "clique-circulant"
    (Graphs.Spectral.circulant_gap ~n:64 ~offsets:[ 1; 2; 32 ] ~self_loops:5)
    (gap (Clique_circulant { n = 64; d = 5 }) ~self_loops:5);
  let spec = Random_regular { n = 64; d = 6; seed = 3 } in
  let graph = build_graph spec in
  Alcotest.(check (float 0.0)) "random regular" (spectral_gap ~graph ~self_loops:6)
    (spec_gap spec ~graph ~self_loops:6)

let test_run_end_to_end () =
  let outcome =
    Harness.Experiment.run ~audit:true ~target:14
      ~graph:(Harness.Experiment.Torus2d 4)
      ~algo:(Harness.Experiment.Rotor_router { self_loops = 4 })
      ~init:(Harness.Experiment.Point_mass 640)
      ~horizon:(Harness.Experiment.Mixing_multiple 4.0)
      ()
  in
  check_int "n" 16 outcome.Harness.Experiment.n;
  check_int "initial discrepancy" 640 outcome.Harness.Experiment.initial_discrepancy;
  check_bool "gap recorded" true (outcome.Harness.Experiment.gap > 0.0);
  check_bool "final small" true (outcome.Harness.Experiment.final_discrepancy < 100);
  check_bool "fairness present" true (outcome.Harness.Experiment.fairness <> None);
  (match outcome.Harness.Experiment.fairness with
  | Some rep -> check_bool "delta ≤ 1" true (rep.Core.Fairness.cumulative_delta <= 1)
  | None -> ());
  check_bool "ran to horizon" true
    (outcome.Harness.Experiment.steps = outcome.Harness.Experiment.horizon)

let test_run_records_time_to_target () =
  let outcome =
    Harness.Experiment.run ~target:20
      ~graph:(Harness.Experiment.Complete 8)
      ~algo:(Harness.Experiment.Rotor_router { self_loops = 7 })
      ~init:(Harness.Experiment.Point_mass 800)
      ~horizon:(Harness.Experiment.Fixed_steps 500)
      ()
  in
  match outcome.Harness.Experiment.time_to_target with
  | None -> Alcotest.fail "K8 should hit 20 quickly"
  | Some t -> check_bool "positive hit time" true (t > 0 && t < 500)

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "median/percentile" `Quick test_median_percentile;
          Alcotest.test_case "empty samples rejected" `Quick
            test_empty_samples_rejected;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "power law fit" `Quick test_power_law_fit;
          Alcotest.test_case "power law rejects" `Quick test_power_law_rejects_nonpositive;
          Alcotest.test_case "correlation" `Quick test_correlation;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "ragged rejected" `Quick test_table_rejects_ragged;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
        ] );
      ( "experiment registry",
        [
          Alcotest.test_case "graph specs" `Quick test_graph_specs_build;
          Alcotest.test_case "init specs" `Quick test_init_specs_build;
          Alcotest.test_case "algo specs" `Quick test_algo_specs_build;
          Alcotest.test_case "horizons" `Quick test_horizon_fixed_and_mixing;
          Alcotest.test_case "continuous horizon" `Quick test_horizon_continuous;
          Alcotest.test_case "spec gap" `Quick test_spec_gap_dispatch;
          Alcotest.test_case "end to end" `Quick test_run_end_to_end;
          Alcotest.test_case "time to target" `Quick test_run_records_time_to_target;
        ] );
    ]
