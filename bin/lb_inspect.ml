(* lb_inspect: structural and spectral analysis of a balancing graph.

   Examples:
     lb_inspect --graph cycle:64
     lb_inspect --graph random:256,6,7 --self-loops 0,1,6,12
*)

exception Spec_error of string

let parse_self_loops d s =
  match s with
  | None -> [ 0; 1; d; 2 * d ]
  | Some s ->
    List.map
      (fun tok ->
        match int_of_string_opt (String.trim tok) with
        | Some v when v >= 0 -> v
        | _ -> raise (Spec_error (Printf.sprintf "bad self-loop count %S" tok)))
      (String.split_on_char ',' s)

let run graph self_loops k =
  (* The generators raise Invalid_argument on a shape they cannot build
     (cycle:2): a bad spec like any other. *)
  let built =
    Result.bind (Harness.Experiment.graph_of_string graph) (fun spec ->
        try Ok (spec, Harness.Experiment.build_graph spec) with Invalid_argument m -> Error m)
  in
  match built with
  | Error msg ->
    prerr_endline ("lb_inspect: " ^ msg);
    exit 2
  | Ok (spec, g) -> (
    let n = Graphs.Graph.n g in
    let d = Graphs.Graph.degree g in
    Printf.printf "graph:      %s\n" (Harness.Experiment.graph_name spec);
    Printf.printf "nodes:      %d\n" n;
    Printf.printf "degree:     %d\n" d;
    Printf.printf "edges:      %d\n" (Graphs.Graph.edge_count g);
    Printf.printf "connected:  %b\n" (Graphs.Props.is_connected g);
    Printf.printf "bipartite:  %b\n" (Graphs.Props.is_bipartite g);
    if Graphs.Props.is_connected g then
      Printf.printf "diameter:   %d\n" (Graphs.Props.diameter g);
    (match Graphs.Props.girth g with
    | Some girth -> Printf.printf "girth:      %d\n" girth
    | None -> Printf.printf "girth:      none (forest)\n");
    (match Graphs.Props.odd_girth g with
    | Some og -> Printf.printf "odd girth:  %d (φ(G) = %d)\n" og ((og - 1) / 2)
    | None -> Printf.printf "odd girth:  none (bipartite)\n");
    match try Ok (parse_self_loops d self_loops) with Spec_error m -> Error m with
    | Error msg ->
      prerr_endline ("lb_inspect: " ^ msg);
      exit 2
    | Ok loops ->
      Printf.printf "\nBalancing graph G⁺ per self-loop count (K = %d):\n" k;
      let rows =
        List.map
          (fun d0 ->
            let gap = Graphs.Spectral.eigenvalue_gap g ~self_loops:d0 in
            (* A numerically-zero gap (|λ| = 1: disconnected, or bipartite
               with no laziness) means the walk never mixes. *)
            let degenerate = gap < 1e-9 in
            let t =
              if degenerate then "∞"
              else
                string_of_int
                  (Graphs.Spectral.horizon ~gap ~n ~initial_discrepancy:k ~c:1.0)
            in
            let bound =
              if degenerate then "-"
              else
                let bound_i = float_of_int d *. sqrt (log (float_of_int n) /. gap) in
                let bound_ii = float_of_int d *. sqrt (float_of_int n) in
                Printf.sprintf "%.1f" (min bound_i bound_ii)
            in
            [
              string_of_int d0;
              string_of_int (d + d0);
              (if degenerate then "~0" else Printf.sprintf "%.6f" gap);
              t;
              bound;
            ])
          loops
      in
      Harness.Table.print
        ~align:
          [
            Harness.Table.Right; Harness.Table.Right; Harness.Table.Right;
            Harness.Table.Right; Harness.Table.Right;
          ]
        ~header:[ "d°"; "d⁺"; "µ"; "T = ln(nK)/µ"; "Thm 2.3 bound" ]
        ~rows ())

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"SPEC"
        ~doc:"Graph: cycle:N, torus:AxA, hypercube:R, complete:N, clique:N,D, random:N,D[,SEED].")

let self_loops_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "self-loops" ] ~docv:"LIST"
        ~doc:"Comma-separated d° values to analyze (default 0,1,d,2d).")

let k_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "k" ] ~docv:"K" ~doc:"Initial discrepancy used in the horizon column.")

let cmd =
  let doc = "inspect a load-balancing graph: structure, spectrum, horizons" in
  Cmd.v
    (Cmd.info "lb_inspect" ~version:"1.0.0" ~doc)
    Term.(const run $ graph_arg $ self_loops_arg $ k_arg)

let () = exit (Cmd.eval cmd)
