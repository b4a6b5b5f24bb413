(* Tests for the open-system traffic engine (lib/workload): seeded
   arrival processes, token lifetimes, steady-state estimators, the
   workload driver's conservation ledger, and the E17 stability sweep. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module A = Workload.Arrival
module L = Workload.Lifetime
module S = Workload.Steady
module E = Workload.Engine

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Steady: estimators over synthetic series with known answers.        *)

let test_percentile_known () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (S.percentile sorted 0.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (S.percentile sorted 25.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (S.percentile sorted 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (S.percentile sorted 100.0);
  (* Interpolated rank: p90 of 5 points sits at rank 3.6. *)
  Alcotest.(check (float 1e-9)) "p90" 4.6 (S.percentile sorted 90.0)

let test_percentile_empty_raises () =
  check_bool "empty sample raises" true (raises (fun () -> S.percentile [||] 50.0))

let test_summarize_known () =
  let s = S.summarize [| 4.0; 1.0; 3.0; 2.0 |] in
  check_int "count" 4 s.S.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.S.mean;
  Alcotest.(check (float 1e-9)) "p50" 2.5 s.S.p50;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.S.max

let test_summarize_empty_is_zero () =
  let s = S.summarize [||] in
  check_int "count" 0 s.S.count;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.S.mean;
  check_bool "equals empty_summary" true (s = S.empty_summary)

let test_warmup_cutoff_step_series () =
  (* A hot prefix followed by a flat tail: MSER must delete exactly the
     prefix — the all-flat suffix has zero standard error. *)
  let xs = Array.init 40 (fun i -> if i < 10 then 50.0 else 0.0) in
  check_int "cutoff at the step" 10 (S.warmup_cutoff xs);
  check_int "short series: no cutoff" 0 (S.warmup_cutoff [| 9.0; 1.0; 1.0 |]);
  check_int "already flat: no cutoff" 0 (S.warmup_cutoff (Array.make 30 2.0))

let test_diverging_detector () =
  check_bool "linear ramp diverges" true
    (S.diverging (Array.init 100 float_of_int));
  check_bool "flat series settles" false (S.diverging (Array.make 100 5.0));
  check_bool "bounded noise settles" false
    (S.diverging (Array.init 100 (fun i -> if i mod 2 = 0 then 3.0 else 5.0)));
  check_bool "under 8 points never diverges" false
    (S.diverging [| 0.0; 10.0; 20.0; 30.0 |])

let test_absorb_time () =
  let series = [| (1, 2); (2, 50); (3, 30); (4, 10); (5, 4); (6, 3) |] in
  (match S.absorb_time ~series ~at:2 ~band:5 with
  | Some k -> check_int "absorbed 3 rounds after the spike" 3 k
  | None -> Alcotest.fail "expected absorption");
  (match S.absorb_time ~series ~at:1 ~band:5 with
  | Some k -> check_int "already within band" 0 k
  | None -> Alcotest.fail "expected Some 0");
  check_bool "never recovers" true (S.absorb_time ~series ~at:2 ~band:1 = None)

(* ------------------------------------------------------------------ *)
(* Arrival: determinism, composition, windows, validation.             *)

let test_arrival_replay_deterministic () =
  let trace seed =
    let arr =
      A.overlay
        (A.poisson ~rng:(Prng.Splitmix.create seed) ~rate:5.0)
        (A.flash_crowd ~at:7 ~size:32 ~node:1 ())
    in
    let loads = Array.make 8 0 in
    let counts = Array.init 20 (fun i -> A.inject arr ~round:(i + 1) ~loads) in
    (counts, loads)
  in
  let a = trace 9 and b = trace 9 and c = trace 10 in
  check_bool "same seed, same counts" true (fst a = fst b);
  Alcotest.(check (array int)) "same seed, same loads" (snd a) (snd b);
  check_bool "different seed, different trace" true (a <> c)

let test_poisson_empirical_rate () =
  (* rate 12 stays in Knuth's direct regime; rate 100 exercises the
     recursive-halving path.  500 draws pin the empirical mean within a
     few percent of λ for any healthy stream. *)
  List.iter
    (fun rate ->
      let arr = A.poisson ~rng:(Prng.Splitmix.create 61) ~rate in
      let loads = Array.make 10 0 in
      let total = ref 0 in
      for r = 1 to 500 do
        total := !total + A.inject arr ~round:r ~loads
      done;
      let mean = float_of_int !total /. 500.0 in
      check_bool
        (Printf.sprintf "empirical mean %.2f near λ=%g" mean rate)
        true
        (Float.abs (mean -. rate) < 0.15 *. rate);
      check_int "loads sum to the injected total" !total
        (Array.fold_left ( + ) 0 loads))
    [ 12.0; 100.0 ]

let test_flash_crowd_window () =
  let arr = A.flash_crowd ~width:2 ~at:5 ~size:10 ~node:3 () in
  let loads = Array.make 6 0 in
  let per_round = Array.init 10 (fun i -> A.inject arr ~round:(i + 1) ~loads) in
  check_int "fires at round 5" 10 per_round.(4);
  check_int "fires at round 6" 10 per_round.(5);
  check_int "quiet everywhere else" 20 (Array.fold_left ( + ) 0 per_round);
  check_int "lands entirely on the target node" 20 loads.(3)

let test_hotspot_targets_max_loaded () =
  let arr = A.hotspot ~per_round:4 in
  let loads = [| 0; 9; 3 |] in
  check_int "injects the batch" 4 (A.inject arr ~round:1 ~loads);
  check_int "onto the max-loaded node" 13 loads.(1);
  (* Ties break to the lowest index. *)
  let tied = [| 5; 5; 0 |] in
  ignore (A.inject arr ~round:2 ~loads:tied);
  check_int "tie goes to node 0" 9 tied.(0)

let test_diurnal_modulation () =
  (* period 4, amplitude 1: factors (1+sin) over one period are
     2, 1, 0, 1 — so a batch of 4 injects 16 tokens per period. *)
  let arr = A.diurnal ~period:4 ~amplitude:1.0 (A.point ~node:0 ~per_round:4) in
  let loads = Array.make 2 0 in
  let total = ref 0 in
  for r = 1 to 4 do
    total := !total + A.inject arr ~round:r ~loads
  done;
  check_int "one period injects batch x period" 16 !total

let test_validate_node_range () =
  let arr = A.point ~node:5 ~per_round:3 in
  (match A.validate arr ~n:4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an out-of-range node");
  (match A.validate arr ~n:8 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match A.validate (A.hotspot ~per_round:1) ~n:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an empty network")

let test_rejects_bad_specs () =
  let rng () = Prng.Splitmix.create 1 in
  check_bool "negative batch" true
    (raises (fun () -> A.uniform ~rng:(rng ()) ~per_round:(-1)));
  check_bool "negative rate" true
    (raises (fun () -> A.poisson ~rng:(rng ()) ~rate:(-2.0)));
  check_bool "amplitude > 1" true
    (raises (fun () -> A.diurnal ~period:10 ~amplitude:1.5 (A.hotspot ~per_round:1)));
  check_bool "double modulation" true
    (raises (fun () ->
         A.diurnal ~period:5 ~amplitude:0.5
           (A.diurnal ~period:5 ~amplitude:0.5 (A.hotspot ~per_round:1))));
  check_bool "flash crowd before round 1" true
    (raises (fun () -> A.flash_crowd ~at:0 ~size:1 ~node:0 ()));
  check_bool "negative service rate" true (raises (fun () -> L.service ~rate:(-1)));
  check_bool "geometric mean < 1" true
    (raises (fun () -> L.geometric ~rng:(rng ()) ~mean:0.5));
  check_bool "fixed lifetime of 0 rounds" true
    (raises (fun () -> L.fixed ~rng:(rng ()) ~rounds:0));
  check_bool "negative engine rounds" true
    (raises (fun () ->
         E.config ~arrival:(A.hotspot ~per_round:1) ~lifetime:L.immortal
           ~rounds:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Lifetime: capacity caps, calendars, clamping.                       *)

let test_service_caps_per_node () =
  let lt = L.service ~rate:2 in
  let loads = [| 5; 0; 3 |] in
  check_int "departs min(load, rate) per node" 4
    (L.depart lt ~round:1 ~arrivals:0 ~loads);
  check_bool "loads reduced in place" true (loads = [| 3; 0; 1 |]);
  check_int "immortal never departs" 0
    (L.depart L.immortal ~round:1 ~arrivals:0 ~loads)

(* Service departs min(load, rate) at every node, by sign-bit
   arithmetic rather than a branch: against the plain [min], on loads
   that include negative ones and at rate 0.  A negative load departs a
   negative count and is raised to zero. *)
let prop_service_is_min =
  QCheck.Test.make ~name:"service departs min(load, rate) at every node" ~count:200
    QCheck.(pair (int_range 0 9) (array_of_size Gen.(int_range 1 40) (int_range (-50) 50)))
    (fun (rate, loads) ->
      let want = Array.map (fun l -> l - min l rate) loads in
      let departed = Array.fold_left (fun acc l -> acc + min l rate) 0 loads in
      let got = Array.copy loads in
      let d = L.depart (L.service ~rate) ~round:1 ~arrivals:0 ~loads:got in
      d = departed && got = want)

let test_service_edges () =
  let depart rate loads =
    let loads = Array.copy loads in
    let d = L.depart (L.service ~rate) ~round:1 ~arrivals:0 ~loads in
    (d, loads)
  in
  let pair = Alcotest.(pair int (array int)) in
  Alcotest.check pair "rate 0 departs only a negative load" (-3, [| 0; 0; 7 |])
    (depart 0 [| -3; 0; 7 |]);
  Alcotest.check pair "negative loads depart themselves" (-4, [| 0; 0; 0 |])
    (depart 2 [| -3; 0; -1 |]);
  Alcotest.check pair "at and around the rate" (5, [| 0; 0; 1; 0 |])
    (depart 2 [| 1; 2; 3; 0 |]);
  Alcotest.check pair "huge loads" (4, [| max_int - 2; 0 |]) (depart 2 [| max_int; 2 |]);
  Alcotest.check pair "huge rate" (7, [| 0; 0 |]) (depart max_int [| 7; 0 |])

let test_fixed_lifetime_calendar () =
  (* Lifetime 3: the cohort injected at round r departs at round r+3. *)
  let lt = L.fixed ~rng:(Prng.Splitmix.create 51) ~rounds:3 in
  let loads = [| 10; 0; 0; 0 |] in
  check_int "round 1: nothing due" 0 (L.depart lt ~round:1 ~arrivals:10 ~loads);
  check_int "round 2: nothing due" 0 (L.depart lt ~round:2 ~arrivals:0 ~loads);
  check_int "round 3: nothing due" 0 (L.depart lt ~round:3 ~arrivals:0 ~loads);
  check_int "round 4: the round-1 cohort departs" 10
    (L.depart lt ~round:4 ~arrivals:0 ~loads);
  check_int "fully drained" 0 (Array.fold_left ( + ) 0 loads)

let test_fixed_lifetime_clamps_to_inflight () =
  (* The calendar says 5 are due but only 3 tokens survive (e.g. a crash
     destroyed some): departures clamp to the in-flight total. *)
  let lt = L.fixed ~rng:(Prng.Splitmix.create 52) ~rounds:2 in
  let loads = [| 3 |] in
  check_int "cohort recorded" 0 (L.depart lt ~round:1 ~arrivals:5 ~loads);
  check_int "nothing due yet" 0 (L.depart lt ~round:2 ~arrivals:0 ~loads);
  check_int "clamped to what is present" 3 (L.depart lt ~round:3 ~arrivals:0 ~loads);
  check_int "never negative" 0 loads.(0)

let test_geometric_mean_one_drains () =
  let lt = L.geometric ~rng:(Prng.Splitmix.create 53) ~mean:1.0 in
  let loads = [| 3; 2; 0 |] in
  check_int "probability-1 completion drains everything" 5
    (L.depart lt ~round:1 ~arrivals:0 ~loads);
  check_int "empty" 0 (Array.fold_left ( + ) 0 loads)

let test_uniform_attempts_clamp () =
  let lt = L.uniform_attempts ~rng:(Prng.Splitmix.create 54) ~per_round:100 in
  let loads = Array.make 4 0 in
  check_int "attempts at empty nodes never count" 0
    (L.depart lt ~round:1 ~arrivals:0 ~loads)

(* ------------------------------------------------------------------ *)
(* Engine + Openrun: conservation, replay, probes, warm-up, E17.       *)

let test_engine_rejects_bad_target () =
  let g = Graphs.Gen.cycle 8 in
  let balancer = Core.Send_floor.make g ~self_loops:2 in
  let config =
    E.config ~arrival:(A.point ~node:99 ~per_round:1) ~lifetime:L.immortal
      ~rounds:5 ()
  in
  check_bool "out-of-range arrival target rejected" true
    (raises (fun () ->
         Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make 8 0) ()))

let test_fixed_warmup_window () =
  let g = Graphs.Gen.cycle 12 in
  let balancer = Core.Send_round.make g ~self_loops:2 in
  let config =
    E.config ~warmup:(E.Fixed_warmup 25)
      ~arrival:(A.uniform ~rng:(Prng.Splitmix.create 41) ~per_round:3)
      ~lifetime:(L.service ~rate:1) ~rounds:100 ()
  in
  let r = Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make 12 0) () in
  check_int "warm-up honoured" 25 r.E.warmup_end;
  check_int "steady window = rounds - warm-up" 75 r.E.steady_discrepancy.S.count;
  check_bool "conserved" true r.E.conserved

let test_probes_on_off_bit_identical () =
  let run () =
    let g = Graphs.Gen.torus [ 4; 4 ] in
    let balancer = Core.Send_round.make g ~self_loops:4 in
    let config =
      E.config
        ~arrival:(A.uniform ~rng:(Prng.Splitmix.create 21) ~per_round:6)
        ~lifetime:(L.service ~rate:1) ~rounds:120 ()
    in
    Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make 16 0) ()
  in
  let off = run () in
  Obs.Probe.enable ();
  let on_ = Fun.protect ~finally:Obs.Probe.disable run in
  Alcotest.(check (array int)) "same final loads" off.E.final_loads on_.E.final_loads;
  check_bool "same discrepancy series" true
    (off.E.discrepancy_series = on_.E.discrepancy_series);
  check_bool "same in-flight series" true
    (off.E.inflight_series = on_.E.inflight_series)

let test_flash_crowd_absorbed () =
  (* A 720-token spike at round 40 on a 6x6 torus with system capacity
     36/round against base load 4/round: the backlog drains and the
     discrepancy returns to the Theorem 2.3 band (d·√n = 24). *)
  let g = Graphs.Gen.torus [ 6; 6 ] in
  let balancer = Core.Rotor_router.make g ~self_loops:4 in
  let arrival =
    A.overlay
      (A.uniform ~rng:(Prng.Splitmix.create 31) ~per_round:4)
      (A.flash_crowd ~at:40 ~size:720 ~node:0 ())
  in
  let config = E.config ~arrival ~lifetime:(L.service ~rate:1) ~rounds:400 () in
  let r = Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make 36 0) () in
  check_bool "conserved through the spike" true r.E.conserved;
  match S.absorb_time ~series:r.E.discrepancy_series ~at:40 ~band:24 with
  | Some k ->
    check_bool (Printf.sprintf "absorbed %d rounds after the spike" k) true
      (k < 360)
  | None -> Alcotest.fail "flash crowd never absorbed"

let test_e17_quick_stability_shape () =
  (* The acceptance gate: the quick E17 sweep must reproduce the arXiv
     2302.12201 stability shape — bounded λ-monotone steady discrepancy
     below capacity, detected divergence above. *)
  let points = Harness.Loadsweep.sweep ~quick:true () in
  check_bool "has under- and over-capacity points" true
    (List.exists (fun (p : Harness.Loadsweep.point) -> p.ratio < 1.0) points
    && List.exists (fun (p : Harness.Loadsweep.point) -> p.ratio > 1.0) points);
  check_bool "bounded below capacity" true
    (Harness.Loadsweep.stable_below_capacity points);
  check_bool "diverges above capacity" true
    (Harness.Loadsweep.divergence_detected points);
  check_bool "steady band monotone in λ" true
    (Harness.Loadsweep.monotone_in_lambda points);
  List.iter
    (fun (p : Harness.Loadsweep.point) ->
      check_bool (Printf.sprintf "%s/%s@%.2f conserved" p.graph p.algo p.ratio)
        true p.conserved)
    points

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let balancer_of g ~self_loops = function
  | 0 -> Core.Send_floor.make g ~self_loops
  | 1 -> Core.Send_round.make g ~self_loops
  | _ -> Core.Rotor_router.make g ~self_loops

let arrival_of ~seed ~rate = function
  | 0 -> A.uniform ~rng:(Prng.Splitmix.create seed) ~per_round:rate
  | 1 -> A.poisson ~rng:(Prng.Splitmix.create seed) ~rate:(float_of_int rate)
  | _ -> A.hotspot ~per_round:rate

let prop_conservation_across_families =
  QCheck.Test.make
    ~name:"open-system ledger balances for every balancer x arrival pair"
    ~count:40
    QCheck.(
      quad (int_range 4 12) (int_range 0 15) (int_range 5 60) (int_range 0 8))
    (fun (n, rate, rounds, pick) ->
      let g = Graphs.Gen.cycle n in
      let balancer = balancer_of g ~self_loops:2 (pick mod 3) in
      let seed = (n * 1000) + (rate * 10) + rounds in
      let arrival = arrival_of ~seed ~rate (pick / 3) in
      let lifetime =
        L.uniform_attempts
          ~rng:(Prng.Splitmix.create (seed + 1))
          ~per_round:(rate / 2)
      in
      let config = E.config ~arrival ~lifetime ~rounds () in
      let r = Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make n 1) () in
      let final = Array.fold_left ( + ) 0 r.E.final_loads in
      r.E.conserved
      && final = n + r.E.total_arrivals - r.E.total_departures
      && Array.for_all (fun x -> x >= 0) r.E.final_loads)

let prop_replay_bit_identical =
  QCheck.Test.make ~name:"equal workload seeds replay bit-identically" ~count:20
    QCheck.(triple (int_range 4 10) (int_range 1 12) (int_range 10 80))
    (fun (n, rate, rounds) ->
      let run () =
        let g = Graphs.Gen.cycle n in
        let balancer = Core.Rotor_router.make g ~self_loops:2 in
        let master = Prng.Splitmix.create ((n * 1000) + rate) in
        let arrival =
          A.poisson ~rng:(Prng.Splitmix.split master) ~rate:(float_of_int rate)
        in
        let lifetime = L.geometric ~rng:(Prng.Splitmix.split master) ~mean:4.0 in
        let config = E.config ~arrival ~lifetime ~rounds () in
        Harness.Openrun.run ~config ~graph:g ~balancer ~init:(Array.make n 2) ()
      in
      let a = run () and b = run () in
      a.E.final_loads = b.E.final_loads
      && a.E.discrepancy_series = b.E.discrepancy_series
      && a.E.inflight_series = b.E.inflight_series
      && a.E.total_arrivals = b.E.total_arrivals
      && a.E.total_departures = b.E.total_departures)

(* Integer samples of every shape the per-round p99 meets, each paired
   with a percentile.  Shape 0 keeps max − min < n (the counting pass);
   shapes 1 and 2 spread wider than n (the selection fallback, on random
   and on sorted or reversed input); then n = 1, all-equal loads, the
   empty system (all zeros, or a zero total from negative loads), and
   values near both ends of the int range, whose max − min overflows. *)
let int_sample =
  let open QCheck.Gen in
  let sample =
    pair (int_range 0 7) (int_range 1 200) >>= fun (shape, n) ->
    match shape with
    | 0 ->
      int_range (-50) 50 >>= fun base ->
      array_repeat n (int_range base (base + n - 1))
    | 1 -> array_repeat n (int_range (-1_000_000_000) 1_000_000_000)
    | 2 ->
      pair bool (array_repeat n (int_range 0 (1 lsl 40))) >|= fun (rev, xs) ->
      Array.sort (if rev then fun a b -> Int.compare b a else Int.compare) xs;
      xs
    | 3 -> int_range (-5) 1000 >|= fun x -> [| x |]
    | 4 -> int_range (-5) 1000 >|= fun x -> Array.make n x
    | 5 -> return (Array.make n 0)
    | 6 ->
      array_repeat n
        (oneof
           [
             int_range min_int (min_int + 99);
             int_range (max_int - 99) max_int;
             int_range (-9) 9;
           ])
    | _ -> int_range 0 100 >|= fun x -> [| x; -x |]
  in
  let p = oneof [ oneofl [ 0.0; 1.0; 50.0; 95.0; 99.0; 99.9; 100.0 ]; float_range 0.0 100.0 ] in
  QCheck.make
    ~print:(fun (xs, p) ->
      Printf.sprintf "p=%h [|%s|]" p
        (String.concat "; " (Array.to_list (Array.map string_of_int xs))))
    (pair sample p)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [S.int_percentile] with the extremes it expects the caller to know. *)
let int_pct xs p =
  S.int_percentile
    ~min:(Array.fold_left Int.min xs.(0) xs)
    ~max:(Array.fold_left Int.max xs.(0) xs)
    xs p

let prop_int_percentile_matches_sort =
  QCheck.Test.make ~count:500
    ~name:"int_percentile = percentile of the sorted float copy, bit for bit"
    int_sample
    (fun (xs, p) ->
      let sorted = Array.map float_of_int xs in
      Array.sort Float.compare sorted;
      same_bits (S.percentile sorted p) (int_pct xs p)
      && same_bits (S.percentile sorted 99.0) (int_pct xs 99.0))

let test_int_percentile_edges () =
  check_bool "empty sample raises" true 
    (raises (fun () -> S.int_percentile ~min:0 ~max:0 [||] 99.0));
  let empty =
    E.run
      (E.config ~arrival:(A.point ~node:0 ~per_round:0) ~lifetime:L.immortal ~rounds:5 ())
      ~init:(Array.make 9 0)
      (fun ~round:_ loads -> { E.loads = Array.copy loads; injected = 0; lost = 0 })
  in
  check_bool "empty system: overload 0.0" true
    (Array.for_all (fun (_, x) -> same_bits x 0.0) empty.E.overload_series);
  Alcotest.(check (float 0.0)) "p90 of 1..5" 4.6 (int_pct [| 5; 3; 1; 4; 2 |] 90.0);
  Alcotest.(check (float 0.0))
    "p90 of a wide sample" 4.6e12
    (int_pct [| 5_000_000_000_000; 3; 1; 4_000_000_000_000; 2 |] 90.0);
  Alcotest.(check (float 0.0))
    "p50 across a max - min that overflows" 0.0
    (int_pct [| max_int; 0; min_int |] 50.0)

(* Poisson arrivals at 90% of a µ = 2 capacity on 2^12 nodes, about
   7400 uniforms a round: drawing them must not box a float each. *)
let test_poisson_inject_allocation () =
  let n = 1 lsl 12 in
  let arrival = A.poisson ~rng:(Prng.Splitmix.create 5) ~rate:(0.9 *. 2.0 *. float_of_int n) in
  let loads = Array.make n 0 in
  ignore (A.inject arrival ~round:1 ~loads);
  let rounds = 50 in
  let before = Gc.minor_words () in
  let injected = ref 0 in
  for round = 2 to rounds + 1 do
    injected := !injected + A.inject arrival ~round ~loads
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  check_bool "tokens arrived" true (!injected > 0);
  check_bool
    (Printf.sprintf "%.1f minor words per round, budget 64" per_round)
    true (per_round <= 64.0)

(* A constant uniform source on 2^12 nodes, 3686 placements a round by
   one batched draw: the loop holds the generator state in a register
   and allocates nothing. *)
let test_uniform_placement_allocation () =
  let n = 1 lsl 12 in
  let arrival = A.uniform ~rng:(Prng.Splitmix.create 6) ~per_round:(9 * n / 10) in
  let loads = Array.make n 0 in
  ignore (A.inject arrival ~round:1 ~loads);
  let rounds = 50 in
  let before = Gc.minor_words () in
  let injected = ref 0 in
  for round = 2 to rounds + 1 do
    injected := !injected + A.inject arrival ~round ~loads
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  check_int "tokens arrived" (rounds * (9 * n / 10)) !injected;
  check_bool
    (Printf.sprintf "%.1f minor words per round, budget 0" per_round)
    true (per_round = 0.0)

(* The benchmark's open torus in small: Poisson arrivals at 90% of a
   rate-2 service capacity on a side × side torus. *)
let open_torus ~side ~seed ~rounds =
  let g = Graphs.Gen.torus [ side; side ] in
  let n = Graphs.Graph.n g in
  let arrival = A.poisson ~rng:(Prng.Splitmix.create seed) ~rate:(0.9 *. 2.0 *. float_of_int n) in
  let config = E.config ~arrival ~lifetime:(L.service ~rate:2) ~rounds () in
  (g, config, Core.Rotor_router.make g ~self_loops:4, Array.make n 0)

(* A stepper may reuse any array it was handed once it has returned, so
   a wrapper that scribbles over those arrays must leave the run's
   result unchanged: [run] never reads an array after handing it over.
   Both the array of the previous call and that of this one (after the
   inner step) are scribbled over. *)
let test_hostile_stepper () =
  let rounds = 60 in
  let g, config, balancer, init = open_torus ~side:16 ~seed:7 ~rounds in
  let reference = Harness.Openrun.run ~config ~graph:g ~balancer ~init () in
  let g, config, balancer, init = open_torus ~side:16 ~seed:7 ~rounds in
  let inner = Harness.Openrun.stepper ~graph:g ~balancer () in
  let junk = Prng.Splitmix.create 99 in
  let scribble a = Array.iteri (fun i _ -> a.(i) <- Prng.Splitmix.int junk 1000 - 500) a in
  let prev = ref [||] and calls = ref 0 in
  let hostile ~round loads =
    incr calls;
    scribble !prev;
    let r = inner ~round loads in
    scribble loads;
    prev := loads;
    r
  in
  let pristine = Array.copy init in
  let got = E.run config ~init hostile in
  check_int "stepper called every round" rounds !calls;
  Alcotest.(check (array int)) "init untouched" pristine init;
  check_bool "result byte-identical" true
    (String.equal (Marshal.to_string reference []) (Marshal.to_string got []))

(* The [Faulty] stepper keeps the plain stepper's spare across its
   fault rounds: against a reference that takes every fault-free round
   from [Core.Engine.step] (a fresh vector each time) and hands only
   the fault rounds to a [Faulty] stepper, a run with a crash, an
   outage over six rounds and a load shock is byte-identical. *)
let test_faulty_spare () =
  let rounds = 40 in
  let plan =
    let at step event = { Faults.Schedule.step; event } in
    [
      at 5 (Faults.Schedule.Load_shock { node = 3; amount = 900 });
      at 12
        (Faults.Schedule.Crash
           { node = 17; state = Faults.Schedule.Wipe_state; tokens = Faults.Schedule.Spill_tokens });
      at 13
        (Faults.Schedule.Crash
           { node = 40; state = Faults.Schedule.Keep_state; tokens = Faults.Schedule.Lose_tokens });
      at 20 (Faults.Schedule.Edge_outage { node = 8; port = 1; last_step = 25 });
    ]
  in
  let mode = Harness.Openrun.Faulty { plan } in
  let g, config, balancer, init = open_torus ~side:16 ~seed:5 ~rounds in
  let got = Harness.Openrun.run ~mode ~config ~graph:g ~balancer ~init () in
  let g, config, balancer, init = open_torus ~side:16 ~seed:5 ~rounds in
  let faulty = Harness.Openrun.stepper ~mode ~graph:g ~balancer () in
  let reference ~round loads =
    match Harness.Openrun.plan_at plan ~round with
    | [] ->
      { E.loads = Core.Engine.step ~graph:g ~balancer ~step:1 loads; injected = 0; lost = 0 }
    | _ -> faulty ~round loads
  in
  let want = E.run config ~init reference in
  check_bool "tokens shocked in and lost" true (want.E.fault_injected > 0 && want.E.fault_lost > 0);
  check_bool "result byte-identical" true
    (String.equal (Marshal.to_string want []) (Marshal.to_string got []))

(* The plain open round allocates no n-array: after the stepper's first
   call (its spare) and [run]'s copy of [init], a round costs its series
   entries and step record, far below the 4097 words a fresh vector
   would take. *)
let test_open_round_allocation () =
  let rounds = 200 in
  let g, config, balancer, init = open_torus ~side:64 ~seed:3 ~rounds in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let r = Harness.Openrun.run ~config ~graph:g ~balancer ~init () in
  Gc.minor ();
  let per_round =
    (Gc.allocated_bytes () -. before)
    /. float_of_int (Sys.word_size / 8)
    /. float_of_int rounds
  in
  check_bool "conserved" true r.E.conserved;
  check_bool
    (Printf.sprintf "%.0f words a round, budget 1000" per_round)
    true (per_round <= 1000.0)

let () =
  Alcotest.run "workload"
    [
      ( "steady",
        [
          Alcotest.test_case "percentile: known values" `Quick test_percentile_known;
          Alcotest.test_case "percentile: empty raises" `Quick
            test_percentile_empty_raises;
          Alcotest.test_case "int percentile: edges" `Quick test_int_percentile_edges;
          Alcotest.test_case "summarize: known values" `Quick test_summarize_known;
          Alcotest.test_case "summarize: empty is zero" `Quick
            test_summarize_empty_is_zero;
          Alcotest.test_case "MSER cutoff on a step series" `Quick
            test_warmup_cutoff_step_series;
          Alcotest.test_case "divergence detector" `Quick test_diverging_detector;
          Alcotest.test_case "absorb time" `Quick test_absorb_time;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_arrival_replay_deterministic;
          Alcotest.test_case "poisson empirical rate" `Quick
            test_poisson_empirical_rate;
          Alcotest.test_case "flash crowd window" `Quick test_flash_crowd_window;
          Alcotest.test_case "hotspot targets max-loaded" `Quick
            test_hotspot_targets_max_loaded;
          Alcotest.test_case "diurnal modulation" `Quick test_diurnal_modulation;
          Alcotest.test_case "validate node range" `Quick test_validate_node_range;
          Alcotest.test_case "rejects bad specs" `Quick test_rejects_bad_specs;
          Alcotest.test_case "poisson inject allocation" `Quick
            test_poisson_inject_allocation;
          Alcotest.test_case "uniform placement allocation" `Quick
            test_uniform_placement_allocation;
        ] );
      ( "lifetimes",
        [
          Alcotest.test_case "service caps per node" `Quick test_service_caps_per_node;
          Alcotest.test_case "service edges" `Quick test_service_edges;
          Alcotest.test_case "fixed calendar" `Quick test_fixed_lifetime_calendar;
          Alcotest.test_case "fixed clamps to in-flight" `Quick
            test_fixed_lifetime_clamps_to_inflight;
          Alcotest.test_case "geometric mean-1 drains" `Quick
            test_geometric_mean_one_drains;
          Alcotest.test_case "uniform attempts clamp" `Quick
            test_uniform_attempts_clamp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rejects bad arrival target" `Quick
            test_engine_rejects_bad_target;
          Alcotest.test_case "fixed warm-up window" `Quick test_fixed_warmup_window;
          Alcotest.test_case "hostile stepper" `Quick test_hostile_stepper;
          Alcotest.test_case "faulty stepper keeps its spare" `Quick test_faulty_spare;
          Alcotest.test_case "open round allocation" `Quick test_open_round_allocation;
          Alcotest.test_case "probes on/off bit-identical" `Quick
            test_probes_on_off_bit_identical;
          Alcotest.test_case "flash crowd absorbed" `Quick test_flash_crowd_absorbed;
          Alcotest.test_case "E17 quick stability shape" `Quick
            test_e17_quick_stability_shape;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_conservation_across_families;
          QCheck_alcotest.to_alcotest prop_replay_bit_identical;
          QCheck_alcotest.to_alcotest prop_service_is_min;
          QCheck_alcotest.to_alcotest prop_int_percentile_matches_sort;
        ] );
    ]
