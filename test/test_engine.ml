(* Tests for the synchronous balancing engine: conservation, token
   movement semantics, series sampling, early stop, hooks, and invariant
   enforcement. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A trivial balancer that keeps everything on its first self-loop. *)
let keep_all g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "keep-all";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(d) <- load);
  }

(* Sends its whole load along original port 0. *)
let push_port0 g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "push-port0";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- load);
  }

(* A deliberately broken balancer: loses one token when it has any. *)
let leaky g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "leaky";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(d) <- (if load > 0 then load - 1 else 0));
  }

(* Sends -1 on an original edge. *)
let negative_sender g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "negative-sender";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- -1;
        ports.(d) <- load + 1);
  }

let test_keep_all_is_identity () =
  let g = Graphs.Gen.cycle 5 in
  let init = [| 5; 0; 3; 1; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:2) ~init ~steps:7 ()
  in
  Alcotest.(check (array int)) "loads unchanged" init r.Core.Engine.final_loads;
  check_int "steps" 7 r.Core.Engine.steps_run

let test_push_port0_moves_tokens () =
  (* On the cycle built by Gen.cycle, port 0 of node 0 points at node 1;
     verify tokens actually travel along edges. *)
  let g = Graphs.Gen.cycle 4 in
  let init = [| 8; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(push_port0 g ~self_loops:1) ~init ~steps:1 ()
  in
  let target = Graphs.Graph.neighbor g 0 0 in
  check_int "tokens arrived" 8 r.Core.Engine.final_loads.(target);
  check_int "total conserved" 8 (Core.Loads.total r.Core.Engine.final_loads)

let test_total_conserved_many_steps () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Core.Loads.point_mass ~n:16 ~total:4321 in
  let bal = Core.Rotor_router.make g ~self_loops:4 in
  let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:100 () in
  check_int "mass conserved" 4321 (Core.Loads.total r.Core.Engine.final_loads)

let test_conservation_enforced () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 4; 4; 4 |] in
  check_bool "leak detected" true
    (try
       ignore
         (Core.Engine.run ~graph:g ~balancer:(leaky g ~self_loops:1) ~init ~steps:1 ());
       false
     with Core.Engine.Invariant_violation _ -> true)

let test_negative_send_enforced () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 1; 1; 1; 1 |] in
  check_bool "negative send detected" true
    (try
       ignore
         (Core.Engine.run ~graph:g ~balancer:(negative_sender g ~self_loops:1) ~init
            ~steps:1 ());
       false
     with Core.Engine.Invariant_violation _ -> true)

let test_series_sampling () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 12; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~sample_every:3 ~graph:g
      ~balancer:(keep_all g ~self_loops:1)
      ~init ~steps:9 ()
  in
  let steps = Array.map fst r.Core.Engine.series in
  Alcotest.(check (array int)) "sampled steps" [| 0; 3; 6; 9 |] steps;
  Array.iter (fun (_, d) -> check_int "static discrepancy" 12 d) r.Core.Engine.series

let test_zero_steps () =
  let g = Graphs.Gen.cycle 3 in
  let init = [| 1; 2; 3 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:0 ()
  in
  check_int "no steps" 0 r.Core.Engine.steps_run;
  Alcotest.(check (array int)) "untouched" init r.Core.Engine.final_loads

let test_stop_at_discrepancy () =
  let g = Graphs.Gen.complete 8 in
  let init = Core.Loads.point_mass ~n:8 ~total:800 in
  let bal = Core.Rotor_router.make g ~self_loops:7 in
  let r =
    Core.Engine.run ~stop_at_discrepancy:20 ~graph:g ~balancer:bal ~init ~steps:10_000 ()
  in
  (match r.Core.Engine.reached_target with
  | None -> Alcotest.fail "target never reached on K8"
  | Some t -> check_bool "stopped early" true (t < 10_000 && r.Core.Engine.steps_run <= t + 1));
  check_bool "final below target" true
    (Core.Loads.discrepancy r.Core.Engine.final_loads <= 20)

let test_hook_called_every_step () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 0; 0; 0 |] in
  let calls = ref [] in
  let hook t loads = calls := (t, Core.Loads.total loads) :: !calls in
  ignore
    (Core.Engine.run ~hook ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:5 ());
  Alcotest.(check (list (pair int int)))
    "hook trace"
    [ (1, 4); (2, 4); (3, 4); (4, 4); (5, 4) ]
    (List.rev !calls)

let test_min_load_seen () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 4; 0; 0; 0 |] in
  let r =
    Core.Engine.run ~graph:g ~balancer:(keep_all g ~self_loops:1) ~init ~steps:2 ()
  in
  check_int "min load" 0 r.Core.Engine.min_load_seen

let test_degree_mismatch_rejected () =
  let g4 = Graphs.Gen.cycle 4 in
  let g_k5 = Graphs.Gen.complete 5 in
  let bal = Core.Rotor_router.make g_k5 ~self_loops:4 in
  check_bool "degree mismatch" true
    (try
       ignore (Core.Engine.run ~graph:g4 ~balancer:bal ~init:[| 0; 0; 0; 0 |] ~steps:1 ());
       false
     with Invalid_argument _ -> true)

let test_audit_attached () =
  let g = Graphs.Gen.cycle 4 in
  let init = [| 9; 1; 3; 3 |] in
  let bal = Core.Send_floor.make g ~self_loops:2 in
  let r = Core.Engine.run ~audit:true ~graph:g ~balancer:bal ~init ~steps:10 () in
  match r.Core.Engine.fairness with
  | None -> Alcotest.fail "audit requested but no report"
  | Some rep -> check_int "observations" (4 * 10) rep.Core.Fairness.observations

let prop_conservation_under_rotor_router =
  QCheck.Test.make ~name:"engine conserves mass under rotor-router" ~count:50
    QCheck.(triple (int_range 3 20) (int_range 0 4) (int_range 0 500))
    (fun (n, self_loops, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let bal = Core.Rotor_router.make g ~self_loops in
      let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:20 () in
      Core.Loads.total r.Core.Engine.final_loads = total)

let prop_discrepancy_series_starts_at_initial =
  QCheck.Test.make ~name:"series starts with initial discrepancy" ~count:50
    QCheck.(pair (int_range 3 15) (int_range 0 200))
    (fun (n, total) ->
      let g = Graphs.Gen.cycle n in
      let init = Core.Loads.point_mass ~n ~total in
      let bal = Core.Send_floor.make g ~self_loops:2 in
      let r = Core.Engine.run ~graph:g ~balancer:bal ~init ~steps:5 () in
      Array.length r.Core.Engine.series > 0 && r.Core.Engine.series.(0) = (0, total))

(* --- Core.Engine.step: the single-round kernel --- *)

let violation_of f =
  try
    ignore (f ());
    None
  with Core.Engine.Invariant_violation m -> Some m

let test_step_reports_like_run () =
  (* Same kernel, same checks, same messages. *)
  let g = Graphs.Gen.cycle 4 in
  List.iter
    (fun (label, make, init) ->
      let via_run =
        violation_of (fun () ->
            Core.Engine.run ~graph:g ~balancer:(make g ~self_loops:1) ~init ~steps:1 ())
      in
      let via_step =
        violation_of (fun () ->
            Core.Engine.step ~graph:g ~balancer:(make g ~self_loops:1) ~step:1 init)
      in
      check_bool (label ^ ": detected") true (via_run <> None);
      Alcotest.(check (option string)) (label ^ ": same message") via_run via_step)
    [ ("leak", leaky, [| 4; 4; 4; 4 |]); ("negative send", negative_sender, [| 1; 1; 1; 1 |]) ];
  check_bool "step: init length mismatch" true
    (try
       ignore
         (Core.Engine.step ~graph:g ~balancer:(keep_all g ~self_loops:1) ~step:1 [| 1 |]);
       false
     with Invalid_argument _ -> true)

(* Sends -1 on original port 0 and -2 on original port 1, and keeps
   nothing: it breaks conservation too, but the first negative original
   port is what gets reported. *)
let negative_and_leaky g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "negative-and-leaky";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load:_ ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- -1;
        ports.(1) <- -2);
  }

(* Overdraws a self-loop: -1 kept, load + 1 sent on port 0.  The engine
   only forbids negative sends on original edges. *)
let negative_self_loop g ~self_loops =
  let d = Graphs.Graph.degree g in
  {
    Core.Balancer.name = "negative-self-loop";
    degree = d;
    self_loops;
    props = Core.Balancer.paper_stateless;
    persist = None;
    kernel = None;
    assign =
      (fun ~step:_ ~node:_ ~load ~ports ->
        Array.fill ports 0 (d + self_loops) 0;
        ports.(0) <- load + 1;
        ports.(d) <- -1);
  }

(* Each case runs through [run ~steps:1] and [step], through the
   sharded engine at one shard and at two (contiguous: nodes 0–1 and
   2–3), and through the network engine on a reliable channel: every
   engine checks its nodes with [Engine.node_step], so all give the same
   final loads or the same violation text.  At two shards the first case
   fails in both, and the pool reports the lowest shard's failure; the
   dropped token's nodes share the second shard. *)
let test_validation_precedence () =
  let g = Graphs.Gen.cycle 4 in
  let outcome f = try Ok (f ()) with Core.Engine.Invariant_violation m -> Error m in
  let check label expect make init =
    let balancer () = make g ~self_loops:1 in
    let engines =
      [
        ( "run",
          fun () ->
            (Core.Engine.run ~graph:g ~balancer:(balancer ()) ~init ~steps:1 ())
              .Core.Engine.final_loads );
        ("step", fun () -> Core.Engine.step ~graph:g ~balancer:(balancer ()) ~step:1 init);
        ( "1 shard",
          fun () ->
            (Shard.Shard_engine.run ~shards:1 ~graph:g ~make_balancer:balancer ~init
               ~steps:1 ())
              .Core.Engine.final_loads );
        ( "2 shards",
          fun () ->
            (Shard.Shard_engine.run ~shards:2 ~graph:g ~make_balancer:balancer ~init
               ~steps:1 ())
              .Core.Engine.final_loads );
        (* Without the watchdog, which would flag the negative loads of
           a balancer that claims the NL property. *)
        ( "net",
          fun () ->
            (Net.Async_engine.run ~watchdog:false ~graph:g ~balancer:(balancer ()) ~init
               ~steps:1 ())
              .Net.Async_engine.result.Core.Engine.final_loads );
      ]
    in
    List.iter
      (fun (engine, f) ->
        Alcotest.(check (result (array int) string))
          (Printf.sprintf "%s (%s)" label engine)
          expect (outcome f))
      engines
  in
  check "negative original port beats conservation"
    (Error "negative-and-leaky: node 0 step 1 sends -1 (< 0) on original port 0")
    negative_and_leaky [| 3; 0; 2; 5 |];
  let init = [| 3; 0; 2; 5 |] in
  let expect = Array.make 4 0 in
  Array.iteri
    (fun u x ->
      let v = Graphs.Graph.neighbor g u 0 in
      expect.(v) <- expect.(v) + x + 1;
      expect.(u) <- expect.(u) - 1)
    init;
  check "negative self-loop with a correct sum is accepted" (Ok expect) negative_self_loop
    init;
  check "a dropped token is caught at its first node"
    (Error "leaky: node 2 step 1 assigned 1 tokens of load 2")
    leaky [| 0; 0; 2; 5 |]

(* The single round allocates its output vector and its ports buffer
   and nothing per node.  The default-order rotor-router runs its
   whole-round kernel, which needs no ports buffer. *)
let test_step_allocation () =
  let g = Graphs.Gen.torus [ 64; 64 ] in
  let n = Graphs.Graph.n g in
  let bal = Core.Rotor_router.make g ~self_loops:4 in
  check_bool "kernel path" true (Option.is_some bal.Core.Balancer.kernel);
  let dp = Core.Balancer.d_plus bal in
  let init = Core.Loads.point_mass ~n ~total:(1000 * n) in
  let loads = Core.Engine.step ~graph:g ~balancer:bal ~step:1 init in
  (* Settle the GC first: otherwise a major slice landing in the window
     can bill earlier allocations to it.  Empty the minor heap before
     reading: OCaml 5.1 undercounts the words still in it by 8x. *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let loads = Core.Engine.step ~graph:g ~balancer:bal ~step:2 loads in
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_int "mass conserved" (1000 * n) (Core.Loads.total loads);
  let budget = n + dp + 64 in
  check_bool
    (Printf.sprintf "%.0f words allocated, budget n + d+ + 64 = %d" words budget)
    true
    (words <= float_of_int budget)

(* [step_into] on the kernel path allocates nothing at all: the target
   is the caller's. *)
let test_step_into_allocation () =
  let g = Graphs.Gen.torus [ 64; 64 ] in
  let n = Graphs.Graph.n g in
  let bal = Core.Rotor_router.make g ~self_loops:4 in
  let a = Core.Loads.point_mass ~n ~total:(1000 * n) and b = Array.make n 5 in
  Core.Engine.step_into ~graph:g ~balancer:bal ~step:1 a b;
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  Core.Engine.step_into ~graph:g ~balancer:bal ~step:2 b a;
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_int "mass conserved" (1000 * n) (Core.Loads.total a);
  check_bool (Printf.sprintf "%.0f words allocated, budget 64" words) true (words <= 64.0)

(* On the packed path [run] allocates its copy of [init] and n 32-bit
   slots, 1.5·n words in all, and no second n-word vector. *)
let check_run_allocation ~graph ~balancer ~init ~steps =
  let n = Graphs.Graph.n graph in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let r = Core.Engine.run ~graph ~balancer ~init ~steps () in
  Gc.minor ();
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  check_int "mass conserved" (Core.Loads.total init)
    (Core.Loads.total r.Core.Engine.final_loads);
  let budget = n + (n / 2) + 256 in
  check_bool
    (Printf.sprintf "%.0f words allocated, budget 1.5 n + 256 = %d" words budget)
    true
    (words <= float_of_int budget)

(* A point mass of 1000·n keeps 32-bit slots for 4 rounds. *)
let test_run_allocation () =
  let g = Graphs.Gen.torus [ 64; 64 ] in
  let n = Graphs.Graph.n g in
  check_run_allocation ~graph:g ~balancer:(Core.Rotor_router.make g ~self_loops:4)
    ~init:(Core.Loads.point_mass ~n ~total:(1000 * n))
    ~steps:4

(* Every balancer family of Table 1, each with a view of its mutable
   state after the run: the persisted per-node state, the position of a
   private random stream, or the quasirandom accumulator bound. *)
let families =
  let persisted b () =
    match b.Core.Balancer.persist with
    | Some p -> p.Core.Balancer.state_save ()
    | None -> [||]
  in
  let with_state b = (b, persisted b) in
  let seeded make g =
    let rng = Prng.Splitmix.create 11 in
    (make rng g ~self_loops:4, fun () -> [| Prng.Splitmix.int rng (1 lsl 30) |])
  in
  [
    ("rotor-router", fun g _ -> with_state (Core.Rotor_router.make g ~self_loops:4));
    ("rotor-router*", fun g _ -> with_state (Core.Rotor_router_star.make g));
    ("send-floor", fun g _ -> with_state (Core.Send_floor.make g ~self_loops:1));
    ("send-round", fun g _ -> with_state (Core.Send_round.make g ~self_loops:4));
    ("random-extra", fun g _ -> seeded Baselines.Random_extra.make g);
    ("random-rounding", fun g _ -> seeded Baselines.Random_rounding.make g);
    ( "quasirandom",
      fun g _ ->
        let b, worst = Baselines.Quasirandom.make g ~self_loops:4 in
        (b, fun () -> [| Int64.to_int (Int64.bits_of_float (worst ())) |]) );
    ("mimic", fun g init -> with_state (Baselines.Mimic.make g ~self_loops:4 ~init));
  ]

let prop_step_iterates_to_run =
  QCheck.Test.make ~count:25
    ~name:"step iterated k times = run ~steps:k for every balancer family"
    QCheck.(triple (int_range 4 20) (int_range 0 30) small_nat)
    (fun (half, k, seed) ->
      let n = 2 * half in
      let g = Graphs.Gen.random_regular (Prng.Splitmix.create (seed + 1)) ~n ~d:4 in
      let init =
        Core.Loads.uniform_random (Prng.Splitmix.create (seed + 2)) ~n ~total:(37 * n)
      in
      let pristine = Array.copy init in
      List.for_all
        (fun (label, make) ->
          let b_run, state_run = make g init in
          let r = Core.Engine.run ~graph:g ~balancer:b_run ~init ~steps:k () in
          let b_step, state_step = make g init in
          let loads = ref init in
          for t = 1 to k do
            loads := Core.Engine.step ~graph:g ~balancer:b_step ~step:t !loads
          done;
          let ok =
            r.Core.Engine.final_loads = !loads
            && state_run () = state_step ()
            && init = pristine
          in
          if not ok then QCheck.Test.fail_reportf "%s diverged after %d steps" label k;
          ok)
        families)

(* [step_into] into a target holding garbage, ping-ponging two buffers
   as the open-system plain stepper does, is [step]: same loads after
   every round, same balancer state at the end. *)
let prop_step_into_is_step =
  QCheck.Test.make ~count:25
    ~name:"step_into over a garbage target = step for every balancer family"
    QCheck.(triple (int_range 4 20) (int_range 1 30) small_nat)
    (fun (half, k, seed) ->
      let n = 2 * half in
      let g = Graphs.Gen.random_regular (Prng.Splitmix.create (seed + 1)) ~n ~d:4 in
      let init =
        Core.Loads.uniform_random (Prng.Splitmix.create (seed + 2)) ~n ~total:(37 * n)
      in
      let junk = Prng.Splitmix.create (seed + 3) in
      let scribble a = Array.iteri (fun i _ -> a.(i) <- Prng.Splitmix.int junk 2001 - 1000) a in
      List.for_all
        (fun (label, make) ->
          let b_step, state_step = make g init in
          let b_into, state_into = make g init in
          let loads = ref init in
          let cur = ref (Array.copy init) and spare = ref (Array.make n 0) in
          scribble !spare;
          let same = ref true in
          for t = 1 to k do
            loads := Core.Engine.step ~graph:g ~balancer:b_step ~step:t !loads;
            Core.Engine.step_into ~graph:g ~balancer:b_into ~step:t !cur !spare;
            let next = !spare in
            spare := !cur;
            cur := next;
            if !loads <> !cur then same := false;
            (* The handed-back array is the next target. *)
            scribble !spare
          done;
          let ok = !same && state_step () = state_into () in
          if not ok then QCheck.Test.fail_reportf "%s diverged within %d steps" label k;
          ok)
        families)

(* A [next] of the wrong length, or [cur] itself, is rejected before the
   round starts: no rotor moves and [cur] is untouched. *)
let test_step_into_shape () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let n = Graphs.Graph.n g in
  let b = Core.Rotor_router.make g ~self_loops:4 in
  let init = Array.init n (fun i -> 3 + (5 * i)) in
  let state0 = (Option.get b.Core.Balancer.persist).Core.Balancer.state_save () in
  let rejects label next cur =
    let pristine = Array.copy cur in
    check_bool (label ^ ": Invalid_argument") true
      (match Core.Engine.step_into ~graph:g ~balancer:b ~step:1 cur next with
      | () -> false
      | exception Invalid_argument _ -> true);
    Alcotest.(check (array int)) (label ^ ": rotors unmoved") state0
      ((Option.get b.Core.Balancer.persist).Core.Balancer.state_save ());
    Alcotest.(check (array int)) (label ^ ": cur untouched") pristine cur
  in
  rejects "next one short" (Array.make (n - 1) 7) init;
  rejects "next one long" (Array.make (n + 1) 7) init;
  rejects "next is cur" init init;
  rejects "cur one short" (Array.make (n - 1) 0) (Array.make (n - 1) 1)

(* --- The rotor-router's whole-round kernel --- *)

let kernel_of b =
  match b.Core.Balancer.kernel with
  | None -> Alcotest.fail "default-order rotor-router has no kernel"
  | Some k -> k

(* Adds [x] to node [v]'s 32-bit, or 16-bit, slot of a packed
   accumulator. *)
let acc_add acc v x =
  let o = v lsl 2 in
  Core.Acc.set acc o (Int32.add (Core.Acc.get acc o) (Int32.of_int x))

let acc_add16 acc v x =
  let o = v lsl 1 in
  Core.Acc.set16 acc o (Core.Acc.get16 acc o + x)

(* A kernel whose three variants all corrupt the round after the real
   one ran, installed through the public field with the same
   [reproduces], so the engine runs it.  [corrupt ~adj add] makes its
   change through [add v x], which adds [x] to node [v]'s next load in
   whichever target the round scattered into. *)
let with_corrupt_kernel b corrupt =
  let k = kernel_of b in
  let round ~step ~adj cur next =
    let moved = k.Core.Balancer.round ~step ~adj cur next in
    corrupt ~adj (fun v x -> next.(v) <- next.(v) + x);
    moved
  in
  let round_packed ~step ~adj cur acc =
    let moved = k.Core.Balancer.round_packed ~step ~adj cur acc in
    corrupt ~adj (acc_add acc);
    moved
  in
  let round_packed16 ~step ~adj cur acc =
    let moved = k.Core.Balancer.round_packed16 ~step ~adj cur acc in
    corrupt ~adj (acc_add16 acc);
    moved
  in
  {
    b with
    Core.Balancer.kernel = Some { k with Core.Balancer.round; round_packed; round_packed16 };
  }

(* A kernel that counts the rounds each variant ran, as (int, 32-bit,
   16-bit).  A balancer with no kernel is returned as it is, and its
   counts stay (0, 0, 0). *)
let with_counting_kernel b =
  let ints = ref 0 and packed = ref 0 and packed16 = ref 0 in
  let counts () = (!ints, !packed, !packed16) in
  match b.Core.Balancer.kernel with
  | None -> (b, counts)
  | Some k ->
    let round ~step ~adj cur next =
      incr ints;
      k.Core.Balancer.round ~step ~adj cur next
    in
    let round_packed ~step ~adj cur acc =
      incr packed;
      k.Core.Balancer.round_packed ~step ~adj cur acc
    in
    let round_packed16 ~step ~adj cur acc =
      incr packed16;
      k.Core.Balancer.round_packed16 ~step ~adj cur acc
    in
    ( {
        b with
        Core.Balancer.kernel = Some { k with Core.Balancer.round; round_packed; round_packed16 };
      },
      counts )

let check_paths label = Alcotest.(check (triple int int int)) (label ^ ": rounds (int, 32, 16)")

(* The same corruptions on all three paths of [run]: 20 tokens a node
   take the 16-bit one, 2²⁰ (total 2²⁴) the 32-bit one and 2²⁸ (total
   2³²) the int one; a broken round is the first and only one. *)
let test_broken_kernel_caught () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let outcome ~per_node corrupt =
    let balancer, counts =
      with_counting_kernel (with_corrupt_kernel (Core.Rotor_router.make g ~self_loops:4) corrupt)
    in
    let m =
      try
        ignore (Core.Engine.run ~graph:g ~balancer ~init:(Array.make 16 per_node) ~steps:5 ());
        None
      with Core.Engine.Invariant_violation m -> Some m
    in
    (m, counts ())
  in
  let drop ~adj:_ add = add 0 (-1) in
  (* Node 0 sends q = load / 8 tokens on port 0, so the extra 2 doubles
     that scatter at load 20. *)
  let double ~adj add = add adj.(0) 2 in
  let conserve ~adj:_ _ = () in
  let caught label ~per_node ~path corrupt expected =
    let m, counts = outcome ~per_node corrupt in
    Alcotest.(check (option string)) label expected m;
    check_paths label path counts
  in
  let total = Printf.sprintf "rotor-router(d°=4): step 1 changed the token total from %s to %s" in
  caught "drop one token, 16-bit path" ~per_node:20 ~path:(0, 0, 1) drop
    (Some (total "320" "319"));
  caught "double one scatter, 16-bit path" ~per_node:20 ~path:(0, 0, 1) double
    (Some (total "320" "322"));
  caught "the real kernel conserves, 16-bit path" ~per_node:20 ~path:(0, 0, 5) conserve None;
  let wide = 1 lsl 20 in
  caught "drop one token, 32-bit path" ~per_node:wide ~path:(0, 1, 0) drop
    (Some (total "16777216" "16777215"));
  caught "one extra scatter, 32-bit path" ~per_node:wide ~path:(0, 1, 0) double
    (Some (total "16777216" "16777218"));
  caught "the real kernel conserves, 32-bit path" ~per_node:wide ~path:(0, 5, 0) conserve None;
  let big = 1 lsl 28 in
  caught "drop one token, int path" ~per_node:big ~path:(1, 0, 0) drop
    (Some (total "4294967296" "4294967295"));
  caught "one extra scatter, int path" ~per_node:big ~path:(1, 0, 0) double
    (Some (total "4294967296" "4294967298"));
  caught "the real kernel conserves, int path" ~per_node:big ~path:(5, 0, 0) conserve None

(* The 16-bit guard rests on round-fairness.  A planted kernel that
   breaks it, each node sending all of its load on its one port to
   node 0 of K₅ (node 0 on its port 0), gives node 0 4 · 20 000 tokens
   in a 16-bit round: the slot wraps to 80 000 − 2¹⁶, and the round's
   total check raises in that round. *)
let test_unfair_kernel_caught () =
  let g = Graphs.Gen.complete 5 in
  let b = Core.Rotor_router.make g ~self_loops:4 in
  let k = kernel_of b in
  let d = Graphs.Graph.degree g in
  let all_on_one_port ~step:_ ~adj cur acc =
    let moved = ref 0 in
    Array.iteri
      (fun u x ->
        let port = ref 0 in
        for j = 0 to d - 1 do
          if adj.((u * d) + j) = 0 then port := j
        done;
        acc_add16 acc adj.((u * d) + !port) x;
        moved := !moved + x)
      cur;
    !moved
  in
  let balancer, counts =
    with_counting_kernel
      {
        b with
        Core.Balancer.kernel = Some { k with Core.Balancer.round_packed16 = all_on_one_port };
      }
  in
  let m =
    match Core.Engine.run ~graph:g ~balancer ~init:(Array.make 5 20_000) ~steps:3 () with
    | _ -> None
    | exception Core.Engine.Invariant_violation m -> Some m
  in
  Alcotest.(check (option string))
    "wrapped slot caught"
    (Some "rotor-router(d°=4): step 1 changed the token total from 100000 to 34464")
    m;
  check_paths "unfair kernel" (0, 0, 1) (counts ())

(* A balanced start, 1000 tokens a node, takes 16-bit slots from round
   1, and they are the first half of the same buffer: the budget of the
   32-bit run holds. *)
let test_run_allocation16 () =
  let g = Graphs.Gen.torus [ 64; 64 ] in
  let balancer, counts = with_counting_kernel (Core.Rotor_router.make g ~self_loops:4) in
  check_run_allocation ~graph:g ~balancer ~init:(Array.make (Graphs.Graph.n g) 1000) ~steps:4;
  check_paths "balanced start" (0, 0, 4) (counts ())

(* A random instance for the differential property: a random regular
   graph of degree 3 to 9, up to two groups of four ports and a leftover,
   or a torus, d° in [0, 2d], random initial rotors, and loads
   mixing 0, below d⁺, multiples of d⁺ and at least 5·d⁺. *)
let rotor_instance seed =
  let rng = Prng.Splitmix.create seed in
  let g =
    if Prng.Splitmix.bool rng then
      Graphs.Gen.torus [ Prng.Splitmix.int_in rng 3 7; Prng.Splitmix.int_in rng 3 7 ]
    else
      let d = Prng.Splitmix.int_in rng 3 9 in
      let n = 2 * Prng.Splitmix.int_in rng (d / 2 + 2) 20 in
      Graphs.Gen.random_regular rng ~n ~d
  in
  let n = Graphs.Graph.n g and d = Graphs.Graph.degree g in
  let self_loops = Prng.Splitmix.int_in rng 0 (2 * d) in
  let dp = d + self_loops in
  let rotors = Array.init n (fun _ -> Prng.Splitmix.int rng dp) in
  let init =
    Array.init n (fun _ ->
        match Prng.Splitmix.int rng 4 with
        | 0 -> 0
        | 1 -> Prng.Splitmix.int_in rng 1 (dp - 1)
        | 2 -> dp * Prng.Splitmix.int_in rng 1 4
        | _ -> (5 * dp) + Prng.Splitmix.int rng (3 * dp))
  in
  let steps = Prng.Splitmix.int rng 12 in
  let make () =
    Core.Rotor_router.make g ~self_loops ~init_rotor:(fun u -> rotors.(u))
  in
  (g, make, init, steps)

let no_op_tap b = Core.Tap.wrap b ~on_assign:(fun ~step:_ ~node:_ ~load:_ ~ports:_ -> ())

let rotor_state b =
  match b.Core.Balancer.persist with
  | Some p -> p.Core.Balancer.state_save ()
  | None -> Alcotest.fail "rotor-router without persistence"

(* Every single-node round of the three kernel variants against [assign]'s
   ports, for d⁺ ∈ {2, 3, 8, 16} with d° ∈ {0, d}, for d ∈ {5, 6, 7},
   which leave 1, 2 and 3 ports after a group of four, and for d = 31
   with d⁺ = 64, the largest window table: every rotor r < d⁺ and every
   load x < 3·d⁺, across both bounds of the division-free quotient at
   d⁺ and 2·d⁺, checking the send on each original port, the kept
   tokens, the moved count and the new rotor.  Node 0 of the complete graph
   K_{d+1} reaches every other node by its own port, so each port's send
   is one entry of the scatter target.  This pins every (rotor, excess)
   entry of the table and the rotor wrap at every boundary, which
   [prop_kernel_matches_generic] only samples. *)
let test_kernel_table () =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (d, self_loops) ->
      let g = Graphs.Gen.complete (d + 1) in
      let n = d + 1 and dp = d + self_loops in
      let adj = Graphs.Graph.adjacency g in
      let make r = Core.Rotor_router.make g ~self_loops ~init_rotor:(fun _ -> r) in
      for r = 0 to dp - 1 do
        for x = 0 to (3 * dp) - 1 do
          let want = make r in
          let ports = Array.make dp 0 in
          want.Core.Balancer.assign ~step:1 ~node:0 ~load:x ~ports;
          let sends = Array.sub ports 0 d in
          let moved = Array.fold_left ( + ) 0 sends in
          let expect = (sends, x - moved, moved, rotor_state want) in
          let cur = Array.make n 0 in
          cur.(0) <- x;
          let check variant run =
            let b = make r in
            let next, moved = run (kernel_of b) in
            let sends = Array.init d (fun k -> next.(adj.(k))) in
            let got = (sends, next.(0), moved, rotor_state b) in
            if got <> expect then fail "%s d=%d d°=%d r=%d x=%d" variant d self_loops r x
          in
          check "round" (fun k ->
              let next = Array.make n 0 in
              let moved = k.Core.Balancer.round ~step:1 ~adj cur next in
              (next, moved));
          check "round_packed" (fun k ->
              let acc = Core.Acc.create n in
              let moved = k.Core.Balancer.round_packed ~step:1 ~adj cur acc in
              let slot v = Int32.to_int (Core.Acc.get acc (v lsl 2)) in
              (Array.init n slot, moved));
          check "round_packed16" (fun k ->
              let acc = Core.Acc.create n in
              let moved = k.Core.Balancer.round_packed16 ~step:1 ~adj cur acc in
              let slot v = Core.Acc.get16 acc (v lsl 1) in
              (Array.init n slot, moved))
        done
      done)
    [ (2, 0); (1, 1); (3, 0); (8, 0); (4, 4); (5, 3); (6, 0); (7, 7); (16, 0); (8, 8); (31, 33) ];
  Alcotest.(check (list string)) "rounds that differ from assign" [] (List.rev !failures)

(* Loads, an adjacency or an accumulator of another shape are refused
   with [Invalid_argument] before any rotor moves, by every variant: the
   kernel's one shape check per round is what lets its reads of the
   loads, the rotors and the adjacency go unchecked. *)
let test_kernel_shape_check () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let n = Graphs.Graph.n g and adj = Graphs.Graph.adjacency g in
  let other = Graphs.Graph.adjacency (Graphs.Gen.torus [ 4; 5 ]) in
  let loads n = Array.init n (fun u -> 3 + (5 * u mod 11)) in
  let refused label run =
    let b = Core.Rotor_router.make g ~self_loops:4 ~init_rotor:(fun u -> u mod 8) in
    let before = rotor_state b in
    (match run (kernel_of b) with
     | _ -> Alcotest.failf "%s: not refused" label
     | exception Invalid_argument _ -> ());
    check_bool (label ^ ": rotors unchanged") true (rotor_state b = before)
  in
  let round ~adj cur k = k.Core.Balancer.round ~step:1 ~adj cur (Array.make n 0) in
  let packed ~adj ~slots cur k =
    k.Core.Balancer.round_packed ~step:1 ~adj cur (Core.Acc.create slots)
  in
  (* [Acc.create m] holds 2m 16-bit slots. *)
  let packed16 ~adj ~slots cur k =
    k.Core.Balancer.round_packed16 ~step:1 ~adj cur (Core.Acc.create slots)
  in
  refused "round, n - 1 loads" (round ~adj (loads (n - 1)));
  refused "round, another graph's adjacency" (round ~adj:other (loads n));
  refused "round_packed, n - 1 loads" (packed ~adj ~slots:n (loads (n - 1)));
  refused "round_packed, another graph's adjacency" (packed ~adj:other ~slots:20 (loads n));
  refused "round_packed, n - 1 slots" (packed ~adj ~slots:(n - 1) (loads n));
  refused "round_packed16, n - 1 loads" (packed16 ~adj ~slots:n (loads (n - 1)));
  refused "round_packed16, another graph's adjacency" (packed16 ~adj:other ~slots:20 (loads n));
  refused "round_packed16, n - 2 16-bit slots" (packed16 ~adj ~slots:((n / 2) - 1) (loads n))

(* What a run leaves, for comparing the kernel's paths with the
   Tap-forced generic one. *)
let outcome_of b r =
  ( r.Core.Engine.final_loads,
    r.Core.Engine.series,
    r.Core.Engine.min_load_seen,
    rotor_state b )

let same_as_generic ~label ~steps ?hook ~graph ~make init =
  let counted, counts = with_counting_kernel (make ()) in
  let fused = Core.Engine.run ?hook ~graph ~balancer:counted ~init ~steps () in
  let generic_b = no_op_tap (make ()) in
  let generic = Core.Engine.run ?hook ~graph ~balancer:generic_b ~init ~steps () in
  check_bool (label ^ ": bit-identical to the generic path") true
    (outcome_of counted fused = outcome_of generic_b generic);
  counts ()

(* Past the window table's limits, d = 32 or d⁺ = 65, the rotor-router
   has no kernel, and [Engine.run] takes the generic path: its loads,
   series, minimum and rotors match a Tap-forced run's, and its loads
   and rotors [Engine_ref]'s. *)
let test_no_kernel_past_table () =
  List.iter
    (fun (label, g, self_loops) ->
      let n = Graphs.Graph.n g and dp = Graphs.Graph.degree g + self_loops in
      let init = Array.init n (fun u -> (((7 * u) + 3) mod 5 * dp) + (11 * u mod dp)) in
      let make () =
        Core.Rotor_router.make g ~self_loops ~init_rotor:(fun u -> 13 * u mod dp)
      in
      check_bool (label ^ ": no kernel") true (Option.is_none (make ()).Core.Balancer.kernel);
      let counts = same_as_generic ~label ~steps:20 ~graph:g ~make init in
      check_paths label (0, 0, 0) counts;
      let b = make () and ref_b = make () in
      let r = Core.Engine.run ~graph:g ~balancer:b ~init ~steps:20 () in
      let ref_loads = Core.Engine_ref.run ~graph:g ~balancer:ref_b ~init ~steps:20 in
      check_bool (label ^ ": same as Engine_ref") true
        ((r.Core.Engine.final_loads, rotor_state b) = (ref_loads, rotor_state ref_b)))
    [
      ("d=32 d°=0", Graphs.Gen.complete 33, 0);
      ("d=4 d°=61", Graphs.Gen.torus [ 4; 4 ], 61);
    ]

(* A total above 2³¹ - 1, here just over 2³², is never packed: every
   round takes the int kernel, and its loads, series, minimum and rotors
   match the generic path's ([Engine_ref] is too slow at this total). *)
let test_guard_falls_back () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Array.init 16 (fun u -> (1 lsl 28) + (37 * u)) in
  let make () =
    Core.Rotor_router.make g ~self_loops:4 ~init_rotor:(fun u -> (5 * u) mod 8)
  in
  check_paths "total 2^32" (30, 0, 0)
    (same_as_generic ~label:"total 2^32" ~steps:30 ~graph:g ~make init)

(* A hook that lifts the largest load past 2¹⁶ - 8 after round 2, the
   total past 2³¹ - 1 after round 6, and cuts the loads back after
   rounds 10 and 12 moves the run through every switch between the three
   paths: rounds 1-2 take 16 bits, 3-4 32 (the largest load is 65 560
   after round 3), 5-6 16, 7-10 the int vector, 11-12 32 and 13-16 16
   bits; the run stays bit-identical.  A hook that leaves a negative load sends the next
   round to the int kernel, which raises as [assign] does. *)
let test_guard_switches_mid_run () =
  let g = Graphs.Gen.torus [ 4; 4 ] in
  let init = Array.init 16 (fun u -> 20 + u) in
  let make () = Core.Rotor_router.make g ~self_loops:4 in
  let hook t loads =
    if t = 2 then loads.(5) <- loads.(5) + (1 lsl 17);
    if t = 6 then loads.(5) <- loads.(5) + (1 lsl 31);
    if t = 10 then Array.iteri (fun u x -> loads.(u) <- x / 1024) loads;
    if t = 12 then Array.iteri (fun u x -> loads.(u) <- x / 64) loads
  in
  check_paths "lift and cut" (4, 4, 8)
    (same_as_generic ~label:"lift and cut" ~steps:16 ~hook ~graph:g ~make init);
  let balancer, counts = with_counting_kernel (make ()) in
  let hook t loads = if t = 2 then loads.(3) <- -1 in
  (match Core.Engine.run ~hook ~graph:g ~balancer ~init ~steps:5 () with
  | _ -> Alcotest.fail "negative load not raised"
  | exception Invalid_argument _ -> ());
  check_paths "negative load" (1, 0, 2) (counts ())

(* The 16-bit guard at its edge: on a 16×16 torus with d⁺ = 8 a point
   mass of 65 528 has max + d⁺ = 2¹⁶ and takes 16-bit slots from round
   1; one token more takes 32-bit slots in round 1 and 16-bit ones once
   it has spread.  Both runs match the Tap-forced generic path and
   [Engine_ref]. *)
let test_guard_edge16 () =
  let g = Graphs.Gen.torus [ 16; 16 ] in
  let n = Graphs.Graph.n g and steps = 8 in
  List.iter
    (fun (total, path) ->
      let label = Printf.sprintf "point mass %d" total in
      let init = Core.Loads.point_mass ~n ~total in
      let make () = Core.Rotor_router.make g ~self_loops:4 in
      check_paths label path (same_as_generic ~label ~steps ~graph:g ~make init);
      let b = make () and ref_b = make () in
      let r = Core.Engine.run ~graph:g ~balancer:b ~init ~steps () in
      let ref_loads = Core.Engine_ref.run ~graph:g ~balancer:ref_b ~init ~steps in
      check_bool (label ^ ": same as Engine_ref") true
        ((r.Core.Engine.final_loads, rotor_state b) = (ref_loads, rotor_state ref_b)))
    [ (65_528, (0, 0, steps)); (65_529, (0, 1, steps - 1)) ]

(* Cumulative probe tokens_moved per snapshot, collected with probes
   on at cadence 1 (or [||] with probes off). *)
let probed ~probes f =
  if probes then Obs.Probe.enable ~registry:(Obs.Metrics.create ()) ~every:1 ();
  Fun.protect ~finally:Obs.Probe.disable (fun () ->
      let r = f () in
      (r, Array.map (fun s -> (s.Obs.Probe.step, s.Obs.Probe.tokens_moved)) (Obs.Probe.timeline ())))

let prop_kernel_matches_generic =
  QCheck.Test.make ~count:200
    ~name:"rotor kernel = Tap-forced generic path = Engine_ref (run and step)"
    QCheck.(pair int bool)
    (fun (seed, probes) ->
      let g, make, init, steps = rotor_instance seed in
      let via_run b =
        probed ~probes (fun () ->
            let r = Core.Engine.run ~graph:g ~balancer:b ~init ~steps () in
            ( r.Core.Engine.final_loads,
              r.Core.Engine.series,
              r.Core.Engine.min_load_seen,
              rotor_state b ))
      in
      let via_step b =
        probed ~probes (fun () ->
            let loads = ref init in
            for t = 1 to steps do
              loads := Core.Engine.step ~graph:g ~balancer:b ~step:t !loads
            done;
            (!loads, rotor_state b))
      in
      let fused = make () in
      if Option.is_none fused.Core.Balancer.kernel then
        QCheck.Test.fail_report "default-order rotor-router has no kernel";
      let ref_b = make () in
      let ref_loads = Core.Engine_ref.run ~graph:g ~balancer:ref_b ~init ~steps in
      let run_fused = via_run fused and run_generic = via_run (no_op_tap (make ())) in
      let step_fused = via_step (make ()) and step_generic = via_step (no_op_tap (make ())) in
      let (loads, _, _, state), _ = run_fused in
      let ok =
        run_fused = run_generic
        && step_fused = step_generic
        && loads = ref_loads
        && state = rotor_state ref_b
        && fst step_fused = (ref_loads, state)
        && ((not probes) || Array.length (snd run_fused) = steps)
      in
      if not ok then QCheck.Test.fail_reportf "seed %d probes %b diverged" seed probes;
      ok)

(* A negative load raises the rotor-router's Invalid_argument at the
   same node on both paths: the rotors of the nodes before it have
   advanced, the rest have not. *)
let prop_kernel_negative_load =
  QCheck.Test.make ~count:100 ~name:"rotor kernel raises on a negative load like assign"
    QCheck.int
    (fun seed ->
      let g, make, init, _ = rotor_instance seed in
      let init = Array.copy init in
      let bad = Prng.Splitmix.int (Prng.Splitmix.create seed) (Array.length init) in
      init.(bad) <- -1 - init.(bad);
      let outcome f b =
        match f b with
        | () -> Error "no exception"
        | exception Invalid_argument m -> Ok (m, rotor_state b)
      in
      let run b = ignore (Core.Engine.run ~graph:g ~balancer:b ~init ~steps:3 ()) in
      let step b = ignore (Core.Engine.step ~graph:g ~balancer:b ~step:1 init) in
      let fused = outcome run (make ()) in
      let ok =
        Result.is_ok fused
        && fused = outcome run (no_op_tap (make ()))
        && fused = outcome step (make ())
        && fused = outcome step (no_op_tap (make ()))
      in
      if not ok then QCheck.Test.fail_reportf "seed %d: paths disagree" seed;
      ok)

(* [step_into]'s kernel round picks the empty-node skip or a dense
   round from the empty count of the round before.  On an 8×8 torus
   (d = 4) each 55-round cycle starts from a point mass (almost every
   node empty), spreads it in closed rounds until almost none is, drains
   it by service departures, runs open Poisson arrivals at 90% of the
   service rate (about a third of the nodes empty) and drains again, so
   the choice flips each way several times.  Each round's loads and the
   rotors afterwards equal [Engine_ref]'s one round from the same
   loads. *)
let test_step_into_skip_choice () =
  let g = Graphs.Gen.torus [ 8; 8 ] in
  let n = Graphs.Graph.n g in
  let make () = Core.Rotor_router.make g ~self_loops:4 ~init_rotor:(fun u -> (3 * u) mod 8) in
  let fused = make () and ref_b = make () in
  let rng = Prng.Splitmix.create 17 in
  let arrival = Workload.Arrival.poisson ~rng ~rate:(0.9 *. 2.0 *. float_of_int n) in
  let service = Workload.Lifetime.service ~rate:2 in
  let cur = ref (Array.make n 0) and spare = ref (Array.make n 0) in
  let fractions = ref [] in
  for t = 1 to 110 do
    let phase = (t - 1) mod 55 in
    if phase = 0 then (!cur).(t mod n) <- !cur.(t mod n) + (4 * n);
    if phase >= 20 && phase < 50 then
      ignore (Workload.Arrival.inject arrival ~round:t ~loads:!cur);
    if phase >= 15 then ignore (Workload.Lifetime.depart service ~round:t ~arrivals:0 ~loads:!cur);
    let empty = Array.fold_left (fun c x -> if x = 0 then c + 1 else c) 0 !cur in
    fractions := (float_of_int empty /. float_of_int n) :: !fractions;
    let want = Core.Engine_ref.run ~graph:g ~balancer:ref_b ~init:!cur ~steps:1 in
    Core.Engine.step_into ~graph:g ~balancer:fused ~step:t !cur !spare;
    let next = !spare in
    spare := !cur;
    cur := next;
    if (next, rotor_state fused) <> (want, rotor_state ref_b) then
      Alcotest.failf "round %d: step_into differs from Engine_ref" t
  done;
  (* The empty fraction went from ≥ 0.9 to ≤ 0.5 and back: at d = 4
     those rounds sit on either side of the rule. *)
  let flips, _ =
    List.fold_left
      (fun (flips, sparse) f ->
        if sparse && f <= 0.5 then (flips + 1, false)
        else if (not sparse) && f >= 0.9 then (flips + 1, true)
        else (flips, sparse))
      (0, true) (List.rev !fractions)
  in
  check_bool (Printf.sprintf "%d flips between sparse and dense rounds" flips) true (flips >= 6)

(* A negative load raises at the same node whichever way the round
   treats empty nodes: a round on a point mass (almost all empty) sets
   the next one to skip, a round on a full vector sets it to dense; the
   kernel's exception and rotors then match the generic path's. *)
let test_negative_load_either_mode () =
  let g = Graphs.Gen.torus [ 8; 8 ] in
  let n = Graphs.Graph.n g in
  let make () = Core.Rotor_router.make g ~self_loops:4 ~init_rotor:(fun u -> (5 * u) mod 8) in
  let bad = Array.init n (fun u -> if u mod 3 = 0 then 0 else 1 + (u mod 11)) in
  bad.(37) <- -2;
  let outcome prelude b =
    Core.Engine.step_into ~graph:g ~balancer:b ~step:1 prelude (Array.make n 0);
    match Core.Engine.step_into ~graph:g ~balancer:b ~step:2 bad (Array.make n 0) with
    | () -> Error "no exception"
    | exception Invalid_argument m -> Ok (m, rotor_state b)
  in
  List.iter
    (fun (label, prelude) ->
      let fused = outcome prelude (make ()) in
      check_bool (label ^ ": raised") true (Result.is_ok fused);
      check_bool (label ^ ": same node and rotors as assign") true
        (fused = outcome prelude (no_op_tap (make ()))))
    [
      ("after a sparse round", Core.Loads.point_mass ~n ~total:100);
      ("after a dense round", Array.init n (fun u -> 1 + (u mod 9)));
    ]

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "keep-all identity" `Quick test_keep_all_is_identity;
          Alcotest.test_case "tokens move along edges" `Quick test_push_port0_moves_tokens;
          Alcotest.test_case "mass conserved" `Quick test_total_conserved_many_steps;
          Alcotest.test_case "zero steps" `Quick test_zero_steps;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "conservation enforced" `Quick test_conservation_enforced;
          Alcotest.test_case "negative send enforced" `Quick test_negative_send_enforced;
          Alcotest.test_case "degree mismatch" `Quick test_degree_mismatch_rejected;
          Alcotest.test_case "step reports like run" `Quick test_step_reports_like_run;
          Alcotest.test_case "validation precedence" `Quick test_validation_precedence;
          Alcotest.test_case "step_into shape check" `Quick test_step_into_shape;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "step allocation" `Quick test_step_allocation;
          Alcotest.test_case "step_into allocation" `Quick test_step_into_allocation;
          Alcotest.test_case "run allocation" `Quick test_run_allocation;
          Alcotest.test_case "run allocation, 16-bit rounds" `Quick
            test_run_allocation16;
        ] );
      ( "rotor kernel",
        [
          Alcotest.test_case "single-node table against assign" `Quick test_kernel_table;
          Alcotest.test_case "shape check" `Quick test_kernel_shape_check;
          Alcotest.test_case "broken kernel caught in round 1" `Quick
            test_broken_kernel_caught;
          Alcotest.test_case "no kernel past the table's limits" `Quick
            test_no_kernel_past_table;
          Alcotest.test_case "guard falls back at 2^32" `Quick test_guard_falls_back;
          Alcotest.test_case "guard switches mid-run" `Quick test_guard_switches_mid_run;
          Alcotest.test_case "16-bit guard edge" `Quick test_guard_edge16;
          Alcotest.test_case "unfair kernel caught in a 16-bit round" `Quick
            test_unfair_kernel_caught;
          QCheck_alcotest.to_alcotest prop_kernel_matches_generic;
          QCheck_alcotest.to_alcotest prop_kernel_negative_load;
          Alcotest.test_case "step_into skip choice against Engine_ref" `Quick
            test_step_into_skip_choice;
          Alcotest.test_case "negative load under either skip choice" `Quick
            test_negative_load_either_mode;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "series sampling" `Quick test_series_sampling;
          Alcotest.test_case "stop at discrepancy" `Quick test_stop_at_discrepancy;
          Alcotest.test_case "hook" `Quick test_hook_called_every_step;
          Alcotest.test_case "min load seen" `Quick test_min_load_seen;
          Alcotest.test_case "audit attached" `Quick test_audit_attached;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_conservation_under_rotor_router;
          QCheck_alcotest.to_alcotest prop_discrepancy_series_starts_at_initial;
          QCheck_alcotest.to_alcotest prop_step_iterates_to_run;
          QCheck_alcotest.to_alcotest prop_step_into_is_step;
        ] );
    ]
