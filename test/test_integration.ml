(* Whole-stack integration tests: DUFS clients over the simulated
   ZooKeeper ensemble and filesystem simulators, driven by the mdtest
   harness — checking correctness invariants and the evaluation's
   qualitative shapes at reduced scale. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Vfs = Fuselike.Vfs
module Runner = Mdtest.Runner
module Workload = Mdtest.Workload
module Systems = Scenarios.Systems

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a full DUFS stack on a fresh engine; returns (engine, ensemble,
   backends, ops_for_proc). *)
let dufs_stack ?(zk_servers = 3) ?(backends = 2) () =
  let engine = Engine.create () in
  let ensemble = Engine.create |> ignore;
    Zk.Ensemble.start engine (Zk.Ensemble.default_config ~servers:zk_servers)
  in
  let mounts =
    Array.init backends (fun _ ->
        Pfs.Lustre_sim.create engine ~config:(Pfs.Lustre_sim.backend_config ()) ())
  in
  Array.iter
    (fun mount ->
      match
        Dufs.Physical.format Dufs.Physical.default_layout
          (Pfs.Lustre_sim.local_ops mount)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "format: %s" (Fuselike.Errno.to_string e))
    mounts;
  let ops_for_proc proc =
    let coord = Zk.Ensemble.session ensemble () in
    let backend_ops =
      Array.mapi
        (fun i mount -> Pfs.Lustre_sim.client mount ~client_id:((proc * backends) + i))
        mounts
    in
    Dufs.Client.ops
      (Dufs.Client.mount ~coord ~backends:backend_ops
         ~client_id:(Int64.of_int (proc + 1))
         ~clock:(fun () -> Engine.now engine)
         ~delay:Process.sleep ())
  in
  (engine, ensemble, mounts, ops_for_proc)

(* {2 mdtest over the full stack} *)

let test_mdtest_run_is_error_free () =
  let engine, _, _, ops_for_proc = dufs_stack () in
  let cfg = Workload.config ~procs:8 ~dirs_per_proc:20 ~files_per_proc:20 () in
  let results = Runner.run engine cfg ~ops_for_proc in
  check_int "no operation failed" 0 results.Runner.errors;
  List.iter
    (fun (phase, rate) ->
      check_bool (Runner.phase_to_string phase ^ " rate positive") true (rate > 0.))
    results.Runner.rates;
  check_int "all six phases measured" 6 (List.length results.Runner.rates)

let test_mdtest_namespace_consistent_after_run () =
  (* after create phases and before removals the namespace must contain
     exactly the expected counts; after the run everything is removed *)
  let engine, ensemble, mounts, ops_for_proc = dufs_stack () in
  let cfg = Workload.config ~procs:4 ~dirs_per_proc:10 ~files_per_proc:10 () in
  let results = Runner.run engine cfg ~ops_for_proc in
  check_int "clean run" 0 results.Runner.errors;
  (* all mdtest files were removed: backends hold no regular files *)
  Array.iter
    (fun mount ->
      let stats = (Pfs.Lustre_sim.local_ops mount).Vfs.statfs () in
      check_int "no leaked physical file" 0 stats.Vfs.files)
    mounts;
  (* the znode namespace retains only the skeleton *)
  let tree = Zk.Ensemble.tree_of ensemble 0 in
  let skeleton_nodes = List.length (Workload.skeleton cfg) in
  (* root of namespace (/dufs) + skeleton + zk root *)
  check_int "znodes = skeleton + roots" (skeleton_nodes + 2) (Zk.Ztree.node_count tree)

let test_replicas_agree_after_mdtest () =
  let engine, ensemble, _, ops_for_proc = dufs_stack ~zk_servers:5 () in
  let cfg = Workload.config ~procs:6 ~dirs_per_proc:15 ~files_per_proc:15 () in
  let results = Runner.run engine cfg ~ops_for_proc in
  check_int "clean run" 0 results.Runner.errors;
  let reference = Zk.Ensemble.tree_of ensemble 0 in
  for i = 1 to 4 do
    check_bool
      (Printf.sprintf "replica %d matches" i)
      true
      (Zk.Ztree.equal_state reference (Zk.Ensemble.tree_of ensemble i))
  done

let test_unique_working_dirs_mode () =
  let engine, _, _, ops_for_proc = dufs_stack () in
  let cfg =
    Workload.config ~procs:4 ~dirs_per_proc:8 ~files_per_proc:8
      ~unique_working_dirs:true ()
  in
  let results = Runner.run engine cfg ~ops_for_proc in
  check_int "clean run in -u mode" 0 results.Runner.errors

let test_latency_percentiles_sane () =
  let engine, _, _, ops_for_proc = dufs_stack () in
  let cfg = Workload.config ~procs:8 ~dirs_per_proc:25 ~files_per_proc:25 () in
  let results = Runner.run engine cfg ~ops_for_proc in
  check_int "six latency rows" 6 (List.length results.Runner.latencies);
  let latency phase =
    match Runner.latency_of results phase with
    | Some l -> l
    | None -> Alcotest.fail (Runner.phase_to_string phase ^ ": no latency row")
  in
  List.iter
    (fun phase ->
      let l = latency phase in
      let name = Runner.phase_to_string phase in
      check_bool (name ^ " samples positive") true (l.Runner.samples > 0);
      check_bool (name ^ " mean positive") true (l.Runner.mean > 0.);
      check_bool (name ^ " p50 <= p95 <= p99") true
        (l.Runner.p50 <= l.Runner.p95 +. 1e-12
        && l.Runner.p95 <= l.Runner.p99 +. 1e-12);
      check_bool (name ^ " p99 <= max (bucket slack)") true
        (l.Runner.p99 <= l.Runner.max *. 1.5 +. 1e-6);
      check_bool (name ^ " latencies are sub-second at this scale") true
        (l.Runner.max < 1.))
    Runner.all_phases;
  (* rough consistency: throughput ~ procs / mean latency *)
  let rate = Runner.rate results Runner.Dir_create in
  let l = latency Runner.Dir_create in
  let expected = 8. /. l.Runner.mean in
  check_bool
    (Printf.sprintf "rate %.0f within 2x of procs/mean %.0f" rate expected)
    true
    (rate > expected /. 2. && rate < expected *. 2.)

let test_workload_paths_deterministic () =
  let cfg = Workload.config ~procs:4 ~dirs_per_proc:5 ~files_per_proc:5 () in
  check_bool "same path for same coordinates" true
    (Workload.dir_path cfg ~proc:2 ~item:3 = Workload.dir_path cfg ~proc:2 ~item:3);
  let all =
    List.concat_map
      (fun proc ->
        List.init cfg.Workload.dirs_per_proc (fun item ->
            Workload.dir_path cfg ~proc ~item))
      [ 0; 1; 2; 3 ]
  in
  check_int "no collisions across procs" (List.length all)
    (List.length (List.sort_uniq compare all));
  check_int "totals" 20 (Workload.total_dirs cfg)

let test_skeleton_shape () =
  let cfg = Workload.config ~procs:2 () in
  let skeleton = Workload.skeleton cfg in
  (* fan-out 10, depth 2: 10 + 100 directories *)
  check_int "skeleton size" 110 (List.length skeleton);
  let leaves = Workload.leaves_for cfg ~proc:0 in
  check_int "100 leaves" 100 (List.length leaves)

(* {2 Evaluation shapes at reduced scale} *)

(* One point's run; every phase a test reads comes from it. *)
let mdtest_run system ~procs =
  let results =
    Systems.mdtest ~dirs_per_proc:25 ~files_per_proc:25 system ~procs ()
  in
  check_int
    (Systems.system_label system ^ " run is clean")
    0 results.Runner.errors;
  results

let mdtest_rate system ~procs phase = Runner.rate (mdtest_run system ~procs) phase

let test_dufs_beats_lustre_at_scale () =
  let dufs = Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Lustre } in
  let dufs_rate = mdtest_rate dufs ~procs:128 Runner.Dir_create in
  let lustre_rate = mdtest_rate Systems.Basic_lustre ~procs:128 Runner.Dir_create in
  check_bool
    (Printf.sprintf "DUFS dir-create (%.0f/s) > Lustre (%.0f/s) at 128 procs" dufs_rate
       lustre_rate)
    true (dufs_rate > lustre_rate)

let test_lustre_beats_dufs_at_small_scale () =
  let dufs = Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Lustre } in
  let dufs_rate = mdtest_rate dufs ~procs:8 Runner.File_create in
  let lustre_rate = mdtest_rate Systems.Basic_lustre ~procs:8 Runner.File_create in
  check_bool
    (Printf.sprintf "Lustre file-create (%.0f/s) > DUFS (%.0f/s) at 8 procs" lustre_rate
       dufs_rate)
    true (lustre_rate > dufs_rate)

let test_dufs_dwarfs_pvfs () =
  let dufs = Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Pvfs } in
  let dufs_rate = mdtest_rate dufs ~procs:64 Runner.Dir_create in
  let pvfs_rate = mdtest_rate Systems.Basic_pvfs ~procs:64 Runner.Dir_create in
  check_bool
    (Printf.sprintf "DUFS (%.0f/s) >= 5x PVFS (%.0f/s)" dufs_rate pvfs_rate)
    true
    (dufs_rate > 5. *. pvfs_rate)

let test_more_zk_servers_help_stats_hurt_creates () =
  let dufs n = Systems.Dufs { zk_servers = n; backends = 2; backend_kind = Systems.Lustre } in
  let zk1 = mdtest_run (dufs 1) ~procs:64 and zk8 = mdtest_run (dufs 8) ~procs:64 in
  let stat1 = Runner.rate zk1 Runner.Dir_stat in
  let stat8 = Runner.rate zk8 Runner.Dir_stat in
  let create1 = Runner.rate zk1 Runner.Dir_create in
  let create8 = Runner.rate zk8 Runner.Dir_create in
  check_bool
    (Printf.sprintf "dir-stat scales with servers (%.0f -> %.0f)" stat1 stat8)
    true (stat8 > 1.5 *. stat1);
  check_bool
    (Printf.sprintf "dir-create pays for replication (%.0f -> %.0f)" create1 create8)
    true (create8 < create1)

let test_more_backends_help_file_stat () =
  let dufs n = Systems.Dufs { zk_servers = 8; backends = n; backend_kind = Systems.Lustre } in
  let stat2 = mdtest_rate (dufs 2) ~procs:128 Runner.File_stat in
  let stat4 = mdtest_rate (dufs 4) ~procs:128 Runner.File_stat in
  check_bool
    (Printf.sprintf "file-stat improves with backends (%.0f -> %.0f)" stat2 stat4)
    true
    (stat4 > 1.3 *. stat2)

(* {2 The two DUFS runners agree}

   [Systems.mdtest (Dufs spec)] and the instrumented one-shard
   [Systems.dufs_mdtest] build the same stack, so with every option of
   the latter off their results are equal to the bit. *)

let test_dufs_runners_agree () =
  List.iter
    (fun (spec, procs, items) ->
      let plain =
        Systems.mdtest ~dirs_per_proc:items ~files_per_proc:items (Systems.Dufs spec)
          ~procs ()
      in
      let run =
        Systems.dufs_mdtest ~dirs_per_proc:items ~files_per_proc:items ~spec ~shards:1
          ~procs ()
      in
      let what = Systems.system_label (Systems.Dufs spec) in
      check_bool (what ^ ": rates equal") true
        (plain.Runner.rates = run.results.Runner.rates);
      check_bool (what ^ ": latencies equal") true
        (plain.Runner.latencies = run.results.Runner.latencies);
      check_int (what ^ ": errors equal") plain.Runner.errors run.results.Runner.errors;
      check_bool (what ^ ": wall equal") true (plain.Runner.wall = run.results.Runner.wall))
    [ ({ Systems.zk_servers = 3; backends = 2; backend_kind = Systems.Lustre }, 16, 10);
      ({ Systems.zk_servers = 5; backends = 2; backend_kind = Systems.Pvfs }, 8, 12) ]

(* {2 Shared state}

   [Obs.Trace.null] and [Obs.Trace.no_wspan] are the only values every
   run shares. Untraced runs must leave both untouched, so independent
   runs could share a process. *)

let test_null_trace_untouched () =
  ignore
    (Systems.dufs_mdtest ~dirs_per_proc:8 ~files_per_proc:8
       ~spec:{ Systems.zk_servers = 3; backends = 2; backend_kind = Systems.Lustre }
       ~shards:2 ~procs:8 ());
  ignore
    (Systems.mdtest ~dirs_per_proc:8 ~files_per_proc:8
       (Systems.Dufs_cached
          { Systems.zk_servers = 3; backends = 2; backend_kind = Systems.Lustre })
       ~procs:8 ());
  Alcotest.(check (list string))
    "null trace registry empty" []
    (Obs.Metrics.names (Obs.Trace.metrics Obs.Trace.null));
  check_bool "null trace off" false (Obs.Trace.enabled Obs.Trace.null);
  let w = Obs.Trace.no_wspan in
  check_bool "no_wspan unstamped" true
    (List.for_all
       (fun t -> t = Float.neg_infinity)
       [ w.Obs.Trace.w_sent; w.w_resent; w.w_batch; w.w_proposed; w.w_quorum ]
     && w.w_persist = 0.)

(* {2 Fig. 11 data shape} *)

let test_fig11_memory_shapes () =
  let points, failures = Scenarios.Figures.fig11 ~millions:[ 0.05; 0.1 ] () in
  Alcotest.(check (list string)) "a figure checks nothing" [] failures;
  let mib p = List.map (Mdtest.Report.phase p) [ "zookeeper_mib"; "dufs_mib"; "fuse_mib" ] in
  match List.map mib points with
  | [ [ zk1; dufs1; fuse1 ]; [ zk2; dufs2; fuse2 ] ] ->
    check_bool "zookeeper memory grows linearly" true (zk2 > zk1 +. 10.);
    check_bool "dufs client flat" true (abs_float (dufs2 -. dufs1) < 0.01);
    check_bool "dummy fuse flat" true (abs_float (fuse2 -. fuse1) < 0.01);
    (* slope near the paper's 417 MB per million znodes *)
    let slope_per_million = (zk2 -. zk1) /. 0.05 in
    check_bool
      (Printf.sprintf "slope %.0f MiB/M in [330, 510]" slope_per_million)
      true
      (slope_per_million > 330. && slope_per_million < 510.)
  | _ -> Alcotest.fail "expected two rows"

let () =
  Alcotest.run "integration"
    [ ( "full-stack",
        [ Alcotest.test_case "mdtest run error free" `Quick test_mdtest_run_is_error_free;
          Alcotest.test_case "namespace consistent after run" `Quick
            test_mdtest_namespace_consistent_after_run;
          Alcotest.test_case "replicas agree after mdtest" `Quick
            test_replicas_agree_after_mdtest;
          Alcotest.test_case "unique working dirs mode" `Quick
            test_unique_working_dirs_mode;
          Alcotest.test_case "latency percentiles sane" `Quick
            test_latency_percentiles_sane ] );
      ( "workload",
        [ Alcotest.test_case "paths deterministic" `Quick
            test_workload_paths_deterministic;
          Alcotest.test_case "skeleton shape" `Quick test_skeleton_shape ] );
      ( "evaluation-shapes",
        [ Alcotest.test_case "dufs beats lustre at scale" `Slow
            test_dufs_beats_lustre_at_scale;
          Alcotest.test_case "lustre beats dufs at small scale" `Slow
            test_lustre_beats_dufs_at_small_scale;
          Alcotest.test_case "dufs dwarfs pvfs" `Slow test_dufs_dwarfs_pvfs;
          Alcotest.test_case "zk servers: stats up, creates down" `Slow
            test_more_zk_servers_help_stats_hurt_creates;
          Alcotest.test_case "backends help file stat" `Slow
            test_more_backends_help_file_stat ] );
      ( "dufs-runners",
        [ Alcotest.test_case "mdtest equals dufs_mdtest" `Quick test_dufs_runners_agree ] );
      ( "shared-state",
        [ Alcotest.test_case "null trace untouched by untraced runs" `Quick
            test_null_trace_untouched ] );
      ( "memory",
        [ Alcotest.test_case "fig11 shapes" `Quick test_fig11_memory_shapes ] ) ]
