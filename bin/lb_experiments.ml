(* lb_experiments: run the paper-reproduction experiment suite
   (Harness.Suite, DESIGN.md §4) from the command line.

   Examples:
     lb_experiments                 # everything, full size
     lb_experiments --quick e3 e7   # selected, smoke-test size
     lb_experiments --csv out.csv   # also dump the raw rows
*)

open Cmdliner

let run quick csv ids =
  let ids =
    match ids with [] -> Harness.Suite.ids | l -> l
  in
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun id ->
      match Harness.Suite.run_by_id ~quick id with
      | Ok r -> rows := !rows @ r
      | Error msg ->
        prerr_endline ("lb_experiments: " ^ msg);
        ok := false)
    ids;
  (match csv with
  | Some path ->
    let width = List.fold_left (fun acc r -> max acc (List.length r)) 0 !rows in
    let header = List.init width (fun i -> if i = 0 then "experiment" else Printf.sprintf "c%d" i) in
    let pad r = r @ List.init (width - List.length r) (fun _ -> "") in
    Harness.Csv.write ~path ~header ~rows:(List.map pad !rows);
    Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  if !ok then 0 else 2

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test sizes (seconds, not minutes).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Write all experiment rows to a CSV file.")

let ids_arg =
  (* Built from the registry, so it lists every experiment there is. *)
  let doc =
    Printf.sprintf "Experiment ids, any of %s; none runs them all."
      (String.concat ", " Harness.Suite.ids)
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let cmd =
  let doc = "reproduce the tables and theorem shapes of Berenbrink et al. (PODC 2015)" in
  Cmd.v
    (Cmd.info "lb_experiments" ~version:"1.0.0" ~doc)
    Term.(const run $ quick_arg $ csv_arg $ ids_arg)

let () = exit (Cmd.eval' cmd)
