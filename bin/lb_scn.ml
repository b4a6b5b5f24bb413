(* lb_scn: the scenario-language front end (DESIGN.md §15).

   Subcommands:
     check FILE...    parse + type-check, "file:line:col: message" on stderr
     fmt FILE...      canonical pretty-print to stdout
     compile FILE     show the lowering plan (engine, seeds, cluster cmd)
     run FILE         execute each planned item in-process; [experiment
                      ENN] items print exactly what lb_experiments does,
                      so goldens can cmp the two byte for byte
     fuzz             seeded sweep over generated scenarios checking the
                      machine-wide invariants (conservation, drain,
                      replay determinism), with a shrinking minimizer
                      that writes a minimal replayable .lbs finding

   Exit codes: 0 ok; 1 fuzz finding (minimal reproducer printed);
   2 configuration/check error; 3 runtime error. *)

let version = "%%VERSION%%"

let die_code code msg =
  Printf.eprintf "lb_scn: %s\n%!" msg;
  (* lint: allow T4 — callers pass only bin/exit_contract codes
     (2 configuration, 3 runtime) *)
  exit code

let die msg = die_code 2 msg

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> die m

(* Plan-level errors with no source anchor (e.g. an unknown --name)
   carry {!Scenario.Ast.no_pos}; printing "0:0" for those would point at
   nothing, so the location is dropped. *)
let positioned path pos msg =
  if pos = Scenario.Ast.no_pos then Printf.sprintf "%s: %s" path msg
  else Printf.sprintf "%s:%d:%d: %s" path pos.Scenario.Ast.line pos.Scenario.Ast.col msg

let parse_file path =
  match Scenario.Parser.parse (read_file path) with
  | Ok file -> file
  | Error (msg, pos) -> die_code 2 (positioned path pos msg)

let plan_file ?root path =
  let file = parse_file path in
  match Scenario.Compile.plan ?root file with
  | Ok items -> items
  | Error (msg, pos) -> die_code 2 (positioned path pos msg)

(* ---- check ---- *)

let check_cmd_run paths =
  if paths = [] then die "check needs at least one FILE";
  List.iter
    (fun path ->
      let items = plan_file path in
      Printf.printf "%s: ok (%d item%s)\n" path (List.length items)
        (if List.length items = 1 then "" else "s"))
    paths;
  0

(* ---- fmt ---- *)

let fmt_cmd_run paths =
  if paths = [] then die "fmt needs at least one FILE";
  List.iter (fun path -> print_string (Scenario.Pretty.file (parse_file path))) paths;
  0

(* ---- compile ---- *)

let compile_cmd_run root path =
  let items = plan_file ?root path in
  List.iter
    (fun it -> List.iter print_endline (Scenario.Compile.describe it))
    items;
  0

(* ---- run ---- *)

let print_outcome label (o : Scenario.Compile.outcome) =
  Printf.printf
    "%s: %s rounds=%d disc=%d total=%d->%d injected=%d removed=%d conserved=%s \
     drained=%s\n"
    label o.kind o.rounds o.discrepancy o.initial_total o.final_total o.injected
    o.removed
    (if o.conserved then "yes" else "NO")
    (if o.drained then "yes" else "NO")

let run_cmd_run root quick path =
  let items = plan_file ?root path in
  List.iter
    (fun (it : Scenario.Compile.item) ->
      match it.payload with
      | Scenario.Compile.Exper id -> (
        (* The experiment prints its own report; adding nothing here
           keeps the output cmp-identical to lb_experiments. *)
        match Harness.Suite.run_by_id ~quick id with
        | Ok _rows -> ()
        | Error msg -> die_code 3 msg)
      | Scenario.Compile.Run t -> (
        match t.Scenario.Check.run with
        | Scenario.Check.Cluster _ ->
          die
            (Printf.sprintf
               "%s: dist scenarios are compile-only in-process; run the printed \
                command instead:\n  %s"
               it.label
               (Option.value ~default:"" (Scenario.Compile.cluster_command t)))
        | Scenario.Check.Closed _ | Scenario.Check.Open _ -> (
          match Scenario.Compile.run t with
          | Ok o -> print_outcome it.label o
          | Error msg -> die_code 3 (it.label ^ ": " ^ msg))))
    items;
  0

(* ---- fuzz ---- *)

let same_outcome (a : Scenario.Compile.outcome) (b : Scenario.Compile.outcome) =
  a.kind = b.kind && a.rounds = b.rounds && a.final_loads = b.final_loads
  && a.discrepancy = b.discrepancy
  && a.initial_total = b.initial_total
  && a.final_total = b.final_total
  && a.injected = b.injected && a.removed = b.removed

(* What broke, or None.  Evaluated twice per scenario: the second
   execution must be bit-identical to the first (same AST, fresh
   engines), which is the replay-determinism invariant. *)
let violation sc =
  match Scenario.Check.scenario ~at:Scenario.Ast.no_pos sc with
  | Error (msg, _) -> Some ("ill-typed: " ^ msg)
  | Ok t -> (
    match (Scenario.Compile.run t, Scenario.Compile.run t) with
    | Error msg, _ | _, Error msg -> Some ("execution error: " ^ msg)
    | Ok o1, Ok o2 ->
      if not (same_outcome o1 o2) then Some "replay diverged (nondeterminism)"
      else if not o1.conserved then
        Some
          (Printf.sprintf "tokens not conserved (%d -> %d, injected %d, removed %d)"
             o1.initial_total o1.final_total o1.injected o1.removed)
      else if not o1.drained then Some "lossy transport failed to drain"
      else None)

let well_typed sc =
  match Scenario.Check.scenario ~at:Scenario.Ast.no_pos sc with
  | Ok _ -> true
  | Error _ -> false

(* Synthetic failure predicates for the CI shrinker demo: treat the
   presence of a whole layer as "the bug", so the minimizer must strip
   everything else while keeping that layer. *)
let fail_on_pred = function
  | "net" -> Some (fun sc -> List.exists (fun c -> Scenario.Ast.clause_kind c.Scenario.Ast.c = "net") sc)
  | "faults" ->
    Some (fun sc -> List.exists (fun c -> Scenario.Ast.clause_kind c.Scenario.Ast.c = "faults") sc)
  | "open" ->
    Some (fun sc -> List.exists (fun c -> Scenario.Ast.clause_kind c.Scenario.Ast.c = "rounds") sc)
  | _ -> None

let clause_count sc = List.length sc

let fuzz_cmd_run seed count from fail_on out =
  if count < 1 then die "--count must be >= 1";
  if from < 0 then die "--from must be >= 0";
  let synthetic =
    match fail_on with
    | None -> None
    | Some k -> (
      match fail_on_pred k with
      | Some p -> Some (k, p)
      | None -> die (Printf.sprintf "bad --fail-on %S (expected net, faults or open)" k))
  in
  let finding = ref None in
  let i = ref from in
  let ran = ref 0 in
  while !finding = None && !i < from + count do
    let sc = Scenario.Gen.scenario ~seed ~index:!i in
    (match synthetic with
    | Some (_, p) -> if well_typed sc && p sc then finding := Some (sc, "synthetic failure (--fail-on)")
    | None -> (
      match violation sc with
      | Some why -> finding := Some (sc, why)
      | None -> ()));
    incr ran;
    if !finding = None && !ran mod 200 = 0 then
      Printf.printf "fuzz: %d/%d ok\n%!" !ran count;
    incr i
  done;
  match !finding with
  | None ->
    (match synthetic with
    | Some (k, _) ->
      Printf.printf
        "fuzz: no scenario matched --fail-on %s in %d scenario(s) (seed %d)\n" k count
        seed
    | None ->
      Printf.printf
        "fuzz: %d/%d scenario(s) ok (seed %d, indices %d..%d): conservation, drain, \
         replay determinism\n"
        count count seed from
        (from + count - 1));
    0
  | Some (sc, why) ->
    let index = !i - 1 in
    Printf.printf "scenario %d FAILED: %s\n%!" index why;
    Printf.printf "shrinking...\n%!";
    let fails =
      match synthetic with
      | Some (_, p) -> fun c -> well_typed c && p c
      | None -> fun c -> violation c <> None
    in
    let minimal = Scenario.Gen.minimize ~fails sc in
    let text = Scenario.Pretty.file (Scenario.Gen.to_file minimal) in
    (match Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc text) with
    | () -> ()
    | exception Sys_error m -> die m);
    Printf.printf "minimal reproducer (%d clause(s), down from %d) written to %s:\n%s"
      (clause_count minimal) (clause_count sc) out text;
    Printf.printf "replay:\n  lb_scn run %s\n  lb_scn fuzz --seed %d --count 1 --from %d%s\n"
      out seed index
      (match fail_on with Some k -> " --fail-on " ^ k | None -> "");
    1

(* ---- cmdliner plumbing ---- *)

open Cmdliner

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario (.lbs) files.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario (.lbs) file.")

let name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"BINDING"
        ~doc:"Binding to compile (default: $(b,main), else the last one).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sizes for [experiment] items.")

let check_cmd =
  let doc = "parse and type-check scenario files" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const check_cmd_run $ files_arg)

let fmt_cmd =
  let doc = "pretty-print scenario files in canonical form" in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const fmt_cmd_run $ files_arg)

let compile_cmd =
  let doc = "show how a scenario file lowers onto the engines" in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const compile_cmd_run $ name_arg $ file_arg)

let run_cmd =
  let doc = "execute a scenario file in-process" in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run_cmd_run $ name_arg $ quick_arg $ file_arg)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Generator stream seed.")

let count_arg =
  Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N" ~doc:"Scenarios to run.")

let from_arg =
  Arg.(value & opt int 0 & info [ "from" ] ~docv:"I" ~doc:"First scenario index.")

let fail_on_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fail-on" ] ~docv:"KIND"
        ~doc:
          "Treat any scenario carrying the given layer ($(b,net), $(b,faults) or \
           $(b,open)) as failing; used to demonstrate the shrinker on a known \
           \"bug\".")

let out_arg =
  Arg.(
    value
    & opt string "scn-finding.lbs"
    & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the minimal reproducer.")

let fuzz_cmd =
  let doc = "fuzz generated scenarios against the machine-wide invariants" in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"every scenario preserved the invariants";
      Cmd.Exit.info 1 ~doc:"a scenario failed; minimal reproducer written";
      Cmd.Exit.info 2 ~doc:"configuration error" ]
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~exits)
    Term.(const fuzz_cmd_run $ seed_arg $ count_arg $ from_arg $ fail_on_arg $ out_arg)

let main_cmd =
  let doc = "check, format, compile, run and fuzz load-balancing scenarios" in
  Cmd.group (Cmd.info "lb_scn" ~version ~doc) [ check_cmd; fmt_cmd; compile_cmd; run_cmd; fuzz_cmd ]

let () = exit (Cmd.eval' main_cmd)
