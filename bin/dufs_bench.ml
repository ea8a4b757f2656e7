(* Command-line driver: run any single experiment from the paper's
   evaluation (or the extensions) by id, as declared once in
   [Scenarios.Experiments.table]. `dune exec bin/dufs_bench.exe -- --help` *)

open Cmdliner

let ids = Scenarios.Experiments.ids
let names = String.concat ", " (List.map (fun (n, _, _) -> n) ids)

let experiment =
  let doc = "Experiment to run: " ^ names in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let list_ci =
  let doc =
    "Print the ids CI runs, one per line, and exit: each gated \
     experiment's smoke, or the experiment itself when it has no smoke."
  in
  Arg.(value & flag & info [ "list-ci" ] ~doc)

let host_profile =
  let doc =
    "Sample the simulator's host CPU with a SIGPROF timer (1 ms of CPU \
     per sample) while the experiment runs; print the heaviest self and \
     inclusive frames and write folded stacks to $(docv). Off by default."
  in
  Arg.(value & opt (some string) None & info [ "host-profile" ] ~docv:"FILE" ~doc)

let run_id name host_profile =
  match List.find_opt (fun (n, _, _) -> n = name) ids with
  | Some (_, _, f) ->
    (* the host's peak OCaml heap, on stderr so stdout stays a pure
       function of the experiment; printed on a failed gate too *)
    let peak_heap () =
      Printf.eprintf "host_peak_heap_mb=%d\n%!"
        ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) / 1_048_576)
    in
    Fun.protect ~finally:peak_heap (fun () ->
        match host_profile with
        | None -> f ()
        | Some file -> Hostprof.profile ~file f);
    `Ok ()
  | None ->
    `Error (false, Printf.sprintf "unknown experiment %S; available: %s" name names)

let run name list_ci host_profile =
  match (list_ci, name) with
  | true, _ ->
    List.iter print_endline Scenarios.Experiments.ci_ids;
    `Ok ()
  | false, Some name -> run_id name host_profile
  | false, None -> `Error (true, "required argument EXPERIMENT is missing")

let cmd =
  let doc = "Regenerate the DUFS paper's tables and figures" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Each experiment rebuilds the corresponding figure of 'Can a \
         Decentralized Metadata Service Layer benefit Parallel Filesystems?' \
         (CLUSTER 2011) on the discrete-event simulator.";
      `S "EXPERIMENTS" ]
    @ List.map (fun (n, d, _) -> `P (Printf.sprintf "$(b,%s): %s" n d)) ids
  in
  Cmd.v
    (Cmd.info "dufs_bench" ~doc ~man)
    Term.(ret (const run $ experiment $ list_ci $ host_profile))

let () = exit (Cmd.eval cmd)
