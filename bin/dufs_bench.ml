(* Command-line driver: run any single experiment from the paper's
   evaluation (or the extensions) by id. `dune exec bin/dufs_bench.exe -- --help` *)

let experiments =
  [ ("fig7", "ZooKeeper raw op throughput vs ensemble size",
     fun () -> Scenarios.Figures.fig7 ());
    ("fig8", "DUFS op throughput vs number of ZooKeeper servers",
     Scenarios.Figures.fig8);
    ("fig9", "DUFS file ops with 2 vs 4 Lustre backends", Scenarios.Figures.fig9);
    ("fig10", "DUFS vs Basic Lustre and Basic PVFS2", Scenarios.Figures.fig10);
    ("headline", "§V-D headline ratios at 256 procs", Scenarios.Figures.headline);
    ("fig11", "memory usage vs directories created",
     fun () -> Scenarios.Figures.fig11 ());
    ("ablation-mapping", "MD5-mod-N vs consistent hashing; gated: mod-N \
                          relocates ~N/(N+1) of FIDs on grow, the ring \
                          ~1/(N+1), both balanced",
     Scenarios.Figures.ablation_mapping);
    ("ablation-cmd", "DUFS vs hypothetical Lustre Clustered MDS; gated: more \
                      MDSes speed dir-stat and slow dir-create, DUFS beats \
                      both CMD variants",
     Scenarios.Figures.ablation_cmd);
    ("ablation-unique", "shared vs unique working directories (mdtest -u); \
                         gated: Lustre gains >= 10%, DUFS within 2%",
     Scenarios.Figures.ablation_unique);
    ("ablation-async", "synchronous vs pipelined coordination API; gated: \
                        window 16 >= 2.5x window 1 at 1 client, flat at 8",
     Scenarios.Figures.ablation_async);
    ("ablation-cache", "client-side metadata cache with lease invalidation; \
                        gated: DUFS+cache within 2% of DUFS on mdtest, hot \
                        stat loop >= 20x",
     fun () -> Scenarios.Figures.ablation_cache ());
    ("ablation-cache-smoke", "ablation-cache at 64 procs, 12 dirs and 12 \
                              files per proc (CI)",
     fun () ->
       Scenarios.Figures.ablation_cache ~procs:64 ~items:12 ~hot_procs:[ 64 ] ());
    ("ablation-giga", "GIGA+ directory indexing vs DUFS vs Lustre; gated: \
                       GIGA+ >= 10x both, partly unavailable after a crash",
     Scenarios.Figures.ablation_giga);
    ("ablation-observers", "non-voting observers: reads scale, writes \
                            unaffected; gated: 3 voters + 4 observers keep \
                            95% of 7 voters' gets and 3 voters' creates",
     Scenarios.Figures.ablation_observers);
    ("faults", "mdtest under fault schedules: fault-free vs faulted (writes BENCH_pr2.json)",
     fun () -> Scenarios.Figures.faults ~json_path:"BENCH_pr2.json" ());
    ("faults-smoke", "faults at 32 procs, 30 dirs and 30 files per proc (CI; \
                      writes BENCH_pr2_smoke.json)",
     fun () ->
       Scenarios.Figures.faults_smoke ~json_path:"BENCH_pr2_smoke.json" ());
    ("profile", "span-traced mdtest: latency percentiles + quorum phase breakdown (writes BENCH_pr3.json)",
     fun () -> Scenarios.Figures.profile ~json_path:"BENCH_pr3.json" ());
    ("profile-smoke", "profile at 64 procs only (CI; writes BENCH_pr3_smoke.json)",
     fun () ->
       Scenarios.Figures.profile ~procs_list:[ 64 ]
         ~json_path:"BENCH_pr3_smoke.json" ());
    ("sharding", "namespace sharded across 1/2/4 ZAB ensembles, batched and \
                  unbatched (writes BENCH_pr4.json)",
     fun () -> Scenarios.Figures.sharding ~json_path:"BENCH_pr4.json" ());
    ("sharding-smoke", "sharding at 64 procs, 1x8 vs 2x4 batched (CI; writes \
                        BENCH_pr4_smoke.json)",
     fun () ->
       Scenarios.Figures.sharding ~procs_list:[ 64 ]
         ~topologies:[ (1, 8); (2, 4) ] ~batches:[ 16 ]
         ~json_path:"BENCH_pr4_smoke.json" ());
    ("chaos", "randomized network-fault schedules + linearizability checker \
               (writes BENCH_pr5.json)",
     fun () -> Scenarios.Figures.chaos ~json_path:"BENCH_pr5.json" ());
    ("chaos-smoke", "chaos at 64 procs, 2 fixed seeds (CI; writes \
                     BENCH_pr5_smoke.json)",
     fun () -> Scenarios.Figures.chaos_smoke ~json_path:"BENCH_pr5_smoke.json" ());
    ("engine", "simulator engine wall-clock throughput: 10^6-event \
                timer/mailbox/net mixes (writes BENCH_pr6.json)",
     fun () -> Scenarios.Figures.engine ~json_path:"BENCH_pr6.json" ());
    ("engine-smoke", "engine throughput at 10^5 events (CI; writes \
                      BENCH_pr6_smoke.json)",
     fun () ->
       Scenarios.Figures.engine ~events:100_000 ~quota_s:0.5
         ~json_path:"BENCH_pr6_smoke.json" ());
    ("sessions", "lease-coherent client caches at 1k-100k sessions: \
                  server state per working directory, observer read \
                  scaling (writes BENCH_pr7.json)",
     fun () -> Scenarios.Figures.sessions ~json_path:"BENCH_pr7.json" ());
    ("sessions-smoke", "sessions at 1k, 2 observers (CI; writes \
                        BENCH_pr7_smoke.json)",
     fun () ->
       Scenarios.Figures.sessions_smoke ~json_path:"BENCH_pr7_smoke.json" ());
    ("reshard", "elastic resharding: live 2->4 shard split (and 4->2 merge) \
                 during mdtest file creates, linearizability-checked (writes \
                 BENCH_pr8.json)",
     fun () -> Scenarios.Figures.reshard ~json_path:"BENCH_pr8.json" ());
    ("reshard-smoke", "resharding at 64 procs (CI; writes \
                       BENCH_pr8_smoke.json)",
     fun () ->
       Scenarios.Figures.reshard_smoke ~json_path:"BENCH_pr8_smoke.json" ());
    ("pipeline", "pipelined ZAB write path: windowed proposals vs \
                  stop-and-wait, traced breakdown + chaos sweep with the \
                  window open (writes BENCH_pr9.json)",
     fun () -> Scenarios.Figures.pipeline ~json_path:"BENCH_pr9.json" ());
    ("pipeline-smoke", "pipeline at 64 procs, 2 chaos seeds (CI; writes \
                        BENCH_pr9_smoke.json)",
     fun () ->
       Scenarios.Figures.pipeline_smoke ~json_path:"BENCH_pr9_smoke.json" ());
    ("durability", "checksummed-WAL durability: whole-cluster power failures \
                    + storage corruption under mdtest, durability oracle \
                    (writes BENCH_pr10.json)",
     fun () -> Scenarios.Figures.durability ~json_path:"BENCH_pr10.json" ());
    ("durability-smoke", "durability at 16 procs, 4 schedules (CI; writes \
                          BENCH_pr10_smoke.json)",
     fun () ->
       Scenarios.Figures.durability_smoke
         ~json_path:"BENCH_pr10_smoke.json" ());
    ("all", "every experiment in order", Scenarios.Figures.all) ]

open Cmdliner

let experiment =
  let doc =
    "Experiment to run: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) experiments)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let host_profile =
  let doc =
    "Sample the simulator's host CPU with a SIGPROF timer (1 ms of CPU \
     per sample) while the experiment runs; print the heaviest self and \
     inclusive frames and write folded stacks to $(docv). Off by default."
  in
  Arg.(value & opt (some string) None & info [ "host-profile" ] ~docv:"FILE" ~doc)

let run name host_profile =
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
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
    `Error
      (false,
       Printf.sprintf "unknown experiment %S; available: %s" name
         (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))

let cmd =
  let doc = "Regenerate the DUFS paper's tables and figures" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Each experiment rebuilds the corresponding figure of 'Can a \
         Decentralized Metadata Service Layer benefit Parallel Filesystems?' \
         (CLUSTER 2011) on the discrete-event simulator.";
      `S "EXPERIMENTS" ]
    @ List.map (fun (n, d, _) -> `P (Printf.sprintf "$(b,%s): %s" n d)) experiments
  in
  Cmd.v
    (Cmd.info "dufs_bench" ~doc ~man)
    Term.(ret (const run $ experiment $ host_profile))

let () = exit (Cmd.eval cmd)
