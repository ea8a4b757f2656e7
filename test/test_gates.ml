(* The experiment gates: each experiment's checks are a pure function
   from its bench points to failure messages, and Report.gate fails the
   run once, naming every failure. Every test feeds synthetic points: a
   passing set (which must yield no failure) and a doctored copy (whose
   failure must be named). *)

module Report = Mdtest.Report
module Runner = Mdtest.Runner
module Figures = Scenarios.Figures
module Experiments = Scenarios.Experiments
module Sessions_bench = Scenarios.Sessions_bench

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
  at 0

let passes label failures =
  Alcotest.(check (list string)) (label ^ ": the passing result passes") []
    failures

let names label ~needle failures =
  if not (List.exists (contains ~needle) failures) then
    Alcotest.failf "%s: no failure names %S in [%s]" label needle
      (String.concat "; " failures)

(* {2 Report.gate} *)

let test_gate_reports_every_failure () =
  Report.gate ~experiment:"clean" [];
  let failures =
    List.concat
      [ Report.expect true "never shown";
        Report.expect false "first check %d" 1;
        Report.expect false "second check %s" "two" ]
  in
  Alcotest.(check (list string)) "expect keeps only the failed checks"
    [ "first check 1"; "second check two" ] failures;
  match Report.gate ~experiment:"demo" failures with
  | () -> Alcotest.fail "gate passed a failing run"
  | exception Failure msg ->
    names "gate message" ~needle:"demo" [ msg ];
    names "gate message" ~needle:"first check 1" [ msg ];
    names "gate message" ~needle:"second check two" [ msg ]

(* {2 Sessions} *)

let case =
  { Sessions_bench.sessions = 1_000;
    observers = 2;
    stat = { Sessions_bench.cold_s = 1.; warm_s = 0.01 };
    readdir = { Sessions_bench.cold_s = 0.5; warm_s = 0.01 };
    stat_reads = 16_000;
    readdir_reads = 1_000;
    hits = 16_000;
    misses = 17_000;
    invalidations = 64;
    watch_table_total = 0;
    lease_entries_total = 1_000;
    leases_granted = 1_000;
    leases_renewed = 0;
    leases_revoked = 0;
    observer_reads = 11_000;
    voter_reads = 6_000;
    znodes = Sessions_bench.expected_znodes;
    history_checked = 9_856;
    violations = 0 }

let test_sessions_lease_mode_holding_watches () =
  let r = case in
  passes "lease mode" (Sessions_bench.check r);
  names "lease mode with watches" ~needle:"lease mode armed 7 watches"
    (Sessions_bench.check { r with watch_table_total = 7 })

let test_sessions_wrong_census () =
  let r = case in
  names "census one short" ~needle:"znodes, expected"
    (Sessions_bench.check { r with znodes = Sessions_bench.expected_znodes - 1 })

let test_sessions_empty_history () =
  let r = case in
  names "no checked ops" ~needle:"empty history"
    (Sessions_bench.check { r with history_checked = 0 })

(* {2 Ablation: client cache} *)

(* The ablation's points: dir-stat and dir-create (uncached, cached)
   ops/s, then the hot loop's (procs, uncached, cached). *)
let cache_points ?(dir_create_cached = 5_473.) ?(hot_256_cached = 4_726_736.) () =
  let point experiment ~procs ~config uncached cached more =
    Report.point ~experiment ~procs ~config ~ops_per_sec:0.
      ~phases:([ ("uncached", uncached); ("cached", cached) ] @ more) ()
  in
  let mdtest config uncached cached =
    point "ablation-cache-mdtest" ~procs:256 ~config uncached cached []
  and hot procs uncached cached =
    point "ablation-cache-hot" ~procs ~config:"hot-stat" uncached cached
      [ ("speedup", cached /. uncached) ]
  in
  [ mdtest "dir-stat" 158_509. 158_509.; mdtest "dir-create" 5_473. dir_create_cached;
    hot 64 187_573. 5_442_177.; hot 256 158_691. hot_256_cached ]

let test_cache_ablation_not_neutral () =
  passes "ablation-cache" (Figures.ablation_cache_check (cache_points ()));
  names "cache 3% slower on dir-create" ~needle:"not within 2% of DUFS"
    (Figures.ablation_cache_check (cache_points ~dir_create_cached:5_300. ()));
  names "cache 3% faster on dir-create" ~needle:"not within 2% of DUFS"
    (Figures.ablation_cache_check (cache_points ~dir_create_cached:5_650. ()))

let test_cache_ablation_small_speedup () =
  passes "ablation-cache" (Figures.ablation_cache_check (cache_points ()));
  names "19x at 256 procs" ~needle:"at 256 procs: 19.0x speedup"
    (Figures.ablation_cache_check (cache_points ~hot_256_cached:3_015_129. ()))

(* {2 Reshard} *)

(* A run's [mdtest-file-create] point, whose p99 is [p99]. *)
let file_create ~config ~p99 =
  Report.point ~experiment:"mdtest-file-create" ~procs:64 ~config ~ops_per_sec:20_000.
    ~latency:
      { Report.samples = 3_840; mean_s = p99 /. 4.; p50_s = p99 /. 4.;
        p95_s = p99 /. 2.; p99_s = p99; max_s = p99 }
    ()

(* A clean reshard run's points: error-free, exact census, clean
   history; a [finished] controller migrated [migrated] of 3 952 keys. *)
let reshard_run ?(finished = true) ?(migrated = 0) ~p99 ~window () =
  let config = "reshard" in
  [ file_create ~config ~p99;
    Report.point ~experiment:"reshard-accounting" ~procs:64 ~config ~ops_per_sec:0.
      ~phases:
        [ ("expected_logical", 3_951.); ("logical", 3_951.); ("live_stubs", 63.);
          ("keys_total", if finished then 3_952. else 0.);
          ("keys_migrated", float_of_int migrated); ("violations", 0.);
          ("history_checked", 4_548.); ("history_recorded", 4_548.);
          ("window_s", window); ("controller_errors", 0.); ("client_errors", 0.);
          ("controller_finished", if finished then 1. else 0.) ]
      () ]

(* The no-split baseline and a live 2->4 split at the same scale. *)
let reshard_pair ?(split_p99 = 0.030) ?(window = 5.87) ?finished () =
  [ ((2, 2, 64), reshard_run ~finished:false ~p99:0.005 ~window:0. ());
    ((2, 4, 64), reshard_run ?finished ~migrated:2_727 ~p99:split_p99 ~window ()) ]

let test_reshard_p99_above_baseline () =
  passes "split p99 6x baseline" (Figures.reshard_check (reshard_pair ()));
  names "split p99 13x baseline" ~needle:"file-create p99"
    (Figures.reshard_check (reshard_pair ~split_p99:0.065 ()))

let test_reshard_empty_window () =
  names "zero-length migration" ~needle:"empty migration window"
    (Figures.reshard_check (reshard_pair ~window:0. ()))

let test_reshard_controller_unfinished () =
  names "split without a finished controller"
    ~needle:"reshard 2->4 shards @64 procs: controller never finished"
    (Figures.reshard_check (reshard_pair ~finished:false ()))

(* {2 Profile: quorum phases must tile each traced write} *)

(* A run's [zk-create-breakdown] point: mean latency [total] and the
   five quorum-phase means [phases] (in {!Obs.Trace.phases} order). *)
let create_breakdown ?(total = 0.010) phases =
  [ Report.point ~experiment:"zk-create-breakdown" ~procs:64 ~config:"profile"
      ~ops_per_sec:100.
      ~latency:
        { Report.samples = 1; mean_s = total; p50_s = total; p95_s = total;
          p99_s = total; max_s = total }
      ~phases:(List.combine Obs.Trace.phases phases) () ]

(* queue-wait, propose, persist, ack, commit: sums to 10 ms *)
let tiling = [ 0.004; 0.0001; 0.00002; 0.0045; 0.00138 ]
let not_tiling = [ 0.008; 0.0001; 0.00002; 0.0045; 0.00138 ]

let test_profile_phases_not_tiling () =
  passes "profile" (Figures.profile_check [ (64, create_breakdown tiling) ]);
  names "phases 40% over the total" ~needle:"128 procs, zk.create: phase sum 0.014"
    (Figures.profile_check
       [ (64, create_breakdown tiling); (128, create_breakdown not_tiling) ])

(* {2 Sharding} *)

(* A 2x4-shard run whose shards committed [writes] writes each. *)
let sharding_row ?(census = 3_951) writes =
  ( (2, 4, 16, 64),
    [ Report.point ~experiment:"sharding-znode-accounting" ~procs:64 ~config:"sharding"
        ~ops_per_sec:0.
        ~phases:[ ("logical", float_of_int census); ("expected_logical", 3_951.) ]
        ~shards:
          (List.mapi
             (fun shard writes_committed ->
               { Report.shard; znodes = 2_000; writes_committed; dedup_hits = 0;
                 queue_wait_mean_s = None })
             writes)
        () ] )

let test_sharding_census_mismatch () =
  passes "sharding" (Figures.sharding_check [ sharding_row [ 1; 1 ] ]);
  names "census one short" ~needle:"procs=64: logical znodes 3950, expected 3951"
    (Figures.sharding_check [ sharding_row ~census:3_950 [ 1; 1 ] ])

let test_sharding_idle_shard () =
  names "shard 1 idle" ~needle:"a shard committed no writes (1 0)"
    (Figures.sharding_check [ sharding_row [ 1; 0 ] ])

(* {2 Faults} *)

(* A run's [faults-accounting] point under a plan of [events] events. *)
let faults_run ?(census = 3_951) ?(fired = 0) ?(dedup_hits = 0) ~events label =
  ( label,
    [ Report.point ~experiment:"faults-accounting" ~procs:64 ~config:label
        ~ops_per_sec:0.
        ~phases:
          [ ("client_errors", 0.); ("dedup_hits", float_of_int dedup_hits);
            ("faults_fired", float_of_int fired); ("plan_events", float_of_int events);
            ("logical", float_of_int census); ("expected_logical", 3_951.) ]
        () ] )

(* The fault-free baseline and the quorum-loss schedule, whose four
   events all fired and whose retries hit the dedup table. *)
let faults_runs ?census ?(fired = 4) () =
  let text = List.assoc "leader-quorum-loss" Figures.fault_plans in
  let events =
    match Faults.Faultplan.parse text with
    | Ok plan -> List.length plan
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  [ faults_run ~events:0 "fault-free";
    faults_run ?census ~fired ~dedup_hits:64 ~events "leader-quorum-loss" ]

let test_faults_passing () = passes "faults" (Figures.faults_check (faults_runs ()))

let test_faults_wrong_census () =
  names "census one short" ~needle:"census 3950 <> expected 3951"
    (Figures.faults_check (faults_runs ~census:3_950 ()))

let test_faults_unfired_event () =
  names "restart never fired" ~needle:"3 of 4 fault events fired"
    (Figures.faults_check (faults_runs ~fired:3 ()))

(* {2 Chaos} *)

(* One clean single-shard chaos point, [((shards, seed), point)], as
   {!Figures.chaos_reduce} builds it; [recovery_s = -1.] marks a run
   that never recovered. *)
let chaos_row ?(seed = 11L) ?(checked = 1_945) ?(recovery_s = 0.6)
    ?(durability_violations = 0) () =
  ( (1, seed),
    Report.point ~experiment:"chaos" ~procs:8
      ~config:(Printf.sprintf "seed=%Ld|shards=1|zk=3" seed)
      ~ops_per_sec:79.88
      ~phases:
        [ ("violations", 0.);
          ("durability_violations", float_of_int durability_violations);
          ("ops_checked", float_of_int checked);
          ("ops_recorded", 2_000.);
          ("undetermined", 3.);
          ("recovery_s", recovery_s);
          ("sessions_expired", 0.);
          ("dedup_hits", 12.);
          ("dedup_evictions", 0.);
          ("writes_failed_fast", 4.);
          ("stale_reads_served", 9.) ]
      () )

let test_chaos_zero_ops_checked () =
  passes "chaos" (Figures.chaos_check ~deterministic:true [ chaos_row () ]);
  names "nothing checked" ~needle:"empty history"
    (Figures.chaos_check ~deterministic:true [ chaos_row ~checked:0 () ])

let test_chaos_acked_write_lost () =
  names "one acked write lost"
    ~needle:"seed=11: 1 acked writes lost or unacked writes resurrected"
    (Figures.chaos_check ~deterministic:true [ chaos_row ~durability_violations:1 () ])

let all_finite (p : Report.bench_point) =
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then
        Alcotest.failf "%s point: %s = %f is not finite" p.Report.experiment name v)
    p.Report.phases;
  Alcotest.(check bool) "ops/s finite" true (Float.is_finite p.Report.ops_per_sec)

(* No run recovered: the gate names every run, and the summary point
   stays finite (a NaN would make Report.emit_json raise before the gate
   could print). *)
let test_chaos_none_recovered () =
  let runs =
    [ chaos_row ~recovery_s:(-1.) (); chaos_row ~seed:12L ~recovery_s:(-1.) () ]
  in
  let failures = Figures.chaos_check ~deterministic:true runs in
  names "seed 11 unrecovered" ~needle:"seed=11: never recovered after heal" failures;
  names "seed 12 unrecovered" ~needle:"seed=12: never recovered after heal" failures;
  let summary = Figures.chaos_summary ~shape:Figures.chaos_shape ~deterministic:true runs in
  all_finite summary;
  Alcotest.(check (float 0.)) "no percentile: -1" (-1.)
    (Report.phase summary "recovery_p50_s");
  Alcotest.(check (float 0.)) "no run recovered" 0. (Report.phase summary "runs_recovered")

(* Recovered runs mixed with unrecovered ones: the percentiles and
   [runs_recovered] cover the three recovered runs only, and the -1
   markers are neither a recovery time nor a recovered run. *)
let test_chaos_mixed_recoveries () =
  let runs =
    List.mapi
      (fun i recovery_s -> chaos_row ~seed:(Int64.of_int (11 + i)) ~recovery_s ())
      [ 0.6; -1.; 2.0; 1.2; -1. ]
  in
  let summary = Figures.chaos_summary ~shape:Figures.chaos_shape ~deterministic:true runs in
  all_finite summary;
  let phase name expected =
    Alcotest.(check (float 0.)) name expected (Report.phase summary name)
  in
  phase "recovery_p50_s" 1.2;
  phase "recovery_p95_s" 2.0;
  phase "recovery_max_s" 2.0;
  phase "runs_recovered" 3.;
  phase "runs" 5.;
  phase "ops_checked_total" (5. *. 1_945.)

(* {2 Pipeline} *)

(* The two batch16 profiles the improvement gate compares (queue-wait +
   ack 8.5 ms stop-and-wait, 4.25 ms pipelined: 50% better) and one
   clean chaos schedule. *)
let pipeline_runs ?(total = 0.00575) ?(piped = [ 0.002; 0.0001; 0.00002; 0.00225; 0.00138 ])
    () =
  [ (("batch16-w1", 64), create_breakdown tiling);
    (("batch16-w8", 64), create_breakdown ~total piped) ]

let pipeline_check runs =
  Figures.pipeline_check ~min_improvement:30. ~deterministic:true runs [ chaos_row () ]

let test_pipeline_phases_not_tiling () =
  passes "pipeline" (pipeline_check (pipeline_runs ()));
  names "pipelined phases over the total"
    ~needle:"batch16-w8 @64 procs, zk.create: phase sum"
    (pipeline_check
       (pipeline_runs ~piped:[ 0.002; 0.0001; 0.00002; 0.00225; 0.00338 ] ()))

(* Queue-wait + ack 7.65 ms pipelined against 8.5 ms: 10% better. *)
let test_pipeline_small_improvement () =
  names "10% against a 30% floor" ~needle:"queue-wait+ack improved only 10.0% (< 30%)"
    (pipeline_check
       (pipeline_runs ~total:0.00915 ~piped:[ 0.0036; 0.0001; 0.00002; 0.00405; 0.00138 ]
          ()))

let test_pipeline_no_traced_creates () =
  names "a run without a create breakdown" ~needle:"batch1-w1 @64 procs: no traced creates"
    (pipeline_check
       ((("batch1-w1", 64), [ file_create ~config:"pipeline" ~p99:0.01 ])
        :: pipeline_runs ()))

(* {2 Durability} *)

(* One clean schedule's point, [((seed, flavor), point)], as
   {!Figures.durability} reduces a run. *)
let durability_row ?(seed = 2L) ?(flavor = "torn-tail") ?(audited = 8) ?(truncated = 12)
    () =
  ( (seed, flavor),
    Report.point ~experiment:"durability" ~procs:64
      ~config:(Printf.sprintf "seed=%Ld|flavor=%s|zk=5" seed flavor)
      ~ops_per_sec:7_023.6
      ~phases:
        [ ("violations", 0.);
          ("durability_violations", 0.);
          ("ops_recorded", 400.);
          ("registers_audited", float_of_int audited);
          ("undetermined", 0.);
          ("mdtest_errors", 0.);
          ("power_failure_recovered", 1.);
          ("replicas_agree", 1.);
          ("faults_fired", 7.);
          ("wal.replayed", 4_000.);
          ("wal.truncated_records", float_of_int truncated);
          ("transfer.diff_txns", 40.) ]
      () )

let durability_check = Figures.durability_check ~deterministic:true

let test_durability_zero_registers_audited () =
  passes "durability" (durability_check [ durability_row () ]);
  names "nothing audited" ~needle:"audited 0 registers"
    (durability_check [ durability_row ~audited:0 () ])

(* Truncation counts as teeth only under a flavor that tears or rots the
   WAL: records truncated by a plain power failure do not. *)
let test_durability_untorn_truncation () =
  passes "torn-tail truncated"
    (durability_check
       [ durability_row ~seed:1L ~flavor:"power-failure" ~truncated:0 ();
         durability_row ~truncated:12 () ]);
  names "only power-failure truncated" ~needle:"truncated nothing (no teeth)"
    (durability_check
       [ durability_row ~seed:1L ~flavor:"power-failure" ~truncated:12 ();
         durability_row ~truncated:0 () ])

(* {2 The other extension ablations, at the numbers they print} *)

(* The printed rows, MD5 mod N's and the ring's per N, as points;
   [ring_like_mod] makes the ring relocate as many FIDs as MD5 mod N. *)
let mapping_points ?(ring_like_mod = false) () =
  let point config n imbalance relocated_pct =
    Report.point ~experiment:"ablation-mapping" ~procs:8 ~config ~ops_per_sec:0.
      ~phases:
        [ ("n", float_of_int n); ("imbalance", imbalance);
          ("relocated_pct", relocated_pct) ]
      ()
  in
  List.concat_map
    (fun (n, mod_imbalance, mod_moved, ring_imbalance, ring_moved) ->
      [ point "MD5 mod N (paper)" n mod_imbalance mod_moved;
        point "consistent hashing (§VII)" n ring_imbalance
          (if ring_like_mod then mod_moved else ring_moved) ])
    [ (2, 1.005, 66.6, 1.114, 32.8); (4, 1.016, 80.0, 1.209, 17.1);
      (8, 1.031, 88.9, 1.198, 11.4) ]

let test_mapping_ring_moves_like_mod () =
  passes "ablation-mapping" (Figures.ablation_mapping_check (mapping_points ()));
  names "ring relocating like mod-N" ~needle:"N=4: consistent hashing relocated 80.0%"
    (Figures.ablation_mapping_check (mapping_points ~ring_like_mod:true ()))

(* The sweep's [mdtest-<phase>] points for Basic Lustre, CMD 2, CMD 4
   and DUFS at each procs count. *)
let cmd_points ~dir_stat_cmd4 =
  let systems =
    Scenarios.Systems.
      [ Basic_lustre; Lustre_cmd 2; Lustre_cmd 4;
        Dufs { zk_servers = 8; backends = 2; backend_kind = Lustre } ]
  in
  let phase phase rows =
    List.concat_map
      (fun (procs, rates) ->
        List.map2
          (fun system ops_per_sec ->
            Report.point ~experiment:("mdtest-" ^ phase) ~procs
              ~config:(Scenarios.Systems.system_label system) ~ops_per_sec ())
          systems rates)
      rows
  in
  phase "dir-create"
    [ (64, [ 5_042.; 1_718.; 1_137.; 6_474. ]); (128, [ 4_182.; 1_704.; 1_137.; 6_103. ]);
      (256, [ 3_128.; 1_712.; 1_133.; 5_473. ]) ]
  @ phase "dir-stat"
      [ (64, [ 31_687.; 65_244.; 136_762.; 186_562. ]);
        (128, [ 25_060.; 52_722.; 107_912.; 176_442. ]);
        (256, [ 17_671.; 38_190.; dir_stat_cmd4; 158_509. ]) ]

let test_cmd_more_mds_slower_stat () =
  passes "ablation-cmd" (Figures.ablation_cmd_check (cmd_points ~dir_stat_cmd4:86_578.));
  names "CMD 4 dir-stat below CMD 2" ~needle:"dir-stat at 256 procs: CMD 4 30000"
    (Figures.ablation_cmd_check (cmd_points ~dir_stat_cmd4:30_000.))

(* Shared and unique (dir-create, file-create) ops/s per system. *)
let unique_points ~dufs_unique_create =
  let point config unique dir_create file_create =
    Report.point ~experiment:"ablation-unique" ~procs:256 ~config ~ops_per_sec:0.
      ~phases:
        [ ("unique", if unique then 1. else 0.); ("dir-create", dir_create);
          ("file-create", file_create) ]
      ()
  in
  [ point "Basic Lustre" false 3_128. 4_580.; point "Basic Lustre" true 3_637. 5_769.;
    point "DUFS 2xLustre/8zk" false 5_473. 5_471.;
    point "DUFS 2xLustre/8zk" true dufs_unique_create 5_471. ]

let test_unique_dufs_gains () =
  passes "ablation-unique"
    (Figures.ablation_unique_check (unique_points ~dufs_unique_create:5_473.));
  names "DUFS 5% faster with -u" ~needle:"DUFS dir-create: unique/shared 1.050"
    (Figures.ablation_unique_check (unique_points ~dufs_unique_create:5_746.65))

let async_points ~one_client_w16 =
  List.map
    (fun ((clients, window), creates) ->
      Report.point ~experiment:"ablation-async" ~procs:clients
        ~config:(Printf.sprintf "window=%d" window) ~ops_per_sec:0.
        ~phases:[ ("window", float_of_int window); ("creates", creates) ] ())
    [ ((1, 1), 2_563.); ((1, 4), 6_693.); ((1, 16), one_client_w16);
      ((2, 1), 3_530.); ((2, 4), 7_092.); ((2, 16), 7_106.);
      ((8, 1), 7_080.); ((8, 4), 7_080.); ((8, 16), 7_080.) ]

let test_async_window_does_not_help () =
  passes "ablation-async" (Figures.ablation_async_check (async_points ~one_client_w16:7_109.));
  names "window 16 no better than 1" ~needle:"window 16 gives 1.00x"
    (Figures.ablation_async_check (async_points ~one_client_w16:2_563.))

let giga_points ~available =
  List.map
    (fun (config, r64, r256) ->
      Report.point ~experiment:"ablation-giga" ~procs:256 ~config ~ops_per_sec:0.
        ~phases:[ ("64 procs", r64); ("256 procs", r256) ] ())
    [ ("Basic Lustre (DLM lock)", 7_017., 4_573.); ("DUFS 8zk", 6_706., 5_669.);
      ("GIGA+ 4 servers", 232_389., 239_700.); ("GIGA+ 8 servers", 315_738., 455_354.) ]
  @ [ Report.point ~experiment:"ablation-giga-availability" ~procs:1 ~config:"giga"
        ~ops_per_sec:0. ~phases:[ ("available", available) ] () ]

let test_giga_fully_available () =
  passes "ablation-giga" (Figures.ablation_giga_check (giga_points ~available:0.87));
  names "nothing lost with a server" ~needle:"is 100.0%"
    (Figures.ablation_giga_check (giga_points ~available:1.))

(* (creates/s, gets/s) of 3 voters, 7 voters and 3 voters + 4 observers. *)
let observer_points ?(observed_gets = 137_133.) ~observed_creates () =
  List.map
    (fun (config, creates, gets) ->
      Report.point ~experiment:"ablation-observers" ~procs:256 ~config ~ops_per_sec:0.
        ~phases:[ ("creates", creates); ("gets", gets) ] ())
    [ ("3 voters", 8_817., 59_035.); ("7 voters", 6_105., 137_133.);
      ("3 voters + 4 observers", observed_creates, observed_gets) ]

let test_observers_cost_writes () =
  passes "ablation-observers"
    (Figures.ablation_observers_check (observer_points ~observed_creates:8_817. ()));
  names "observers at 7-voter write cost" ~needle:"6105 creates/s, below 95%"
    (Figures.ablation_observers_check (observer_points ~observed_creates:6_105. ()));
  names "observers at 3-voter read capacity" ~needle:"59035 gets/s, below 95% of 7 voters'"
    (Figures.ablation_observers_check
       (observer_points ~observed_gets:59_035. ~observed_creates:8_817. ()))

(* {2 Headline} *)

(* The four §V-D ratios at 256 procs, as printed, with the paper's
   value each is held to; [lustre] and [pvfs] replace the two
   dir-create ratios, [stat_lustre] file stat over Lustre. *)
let headline_ratios ?(lustre = 1.75) ?(pvfs = 25.19) ?(stat_lustre = 1.25) () =
  List.map
    (fun (config, paper, ratio) ->
      Report.point ~experiment:"headline" ~procs:256 ~config ~ops_per_sec:0.
        ~phases:[ ("paper", paper); ("ratio", ratio) ] ())
    [ ("directory create: DUFS(2xLustre) / Basic Lustre  (1.9)", 1.9, lustre);
      ("directory create: DUFS(2xPVFS) / Basic PVFS      (23)", 23., pvfs);
      ("file stat:        DUFS(2xLustre) / Basic Lustre  (1.3)", 1.3, stat_lustre);
      ("file stat:        DUFS(2xPVFS) / Basic PVFS      (3.0)", 3.0, 2.28) ]

(* The drift a prototype of the legacy write path's removal caused:
   dir-create 2.98x over Lustre and 42.9x over PVFS. *)
let test_headline_drifted_ratios () =
  passes "headline" (Figures.headline_check (headline_ratios ()));
  let drifted = Figures.headline_check (headline_ratios ~lustre:2.98 ~pvfs:42.9 ()) in
  Alcotest.(check int) "only the two drifted ratios fail" 2 (List.length drifted);
  names "dir-create vs Lustre 2.98x" ~needle:"directory create: DUFS(2xLustre)" drifted;
  names "dir-create vs PVFS 42.9x" ~needle:"directory create: DUFS(2xPVFS)" drifted;
  (* inside 0.7x of the paper's 1.3x, but DUFS is slower *)
  names "file stat below 1"
    ~needle:"file stat:        DUFS(2xLustre) / Basic Lustre  (1.3): 0.95x"
    (Figures.headline_check (headline_ratios ~stat_lustre:0.95 ()))

(* {2 The experiment table} *)

let test_table_ids () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.ids in
  Alcotest.(check int) "ids are unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (e : Experiments.t) ->
      Alcotest.(check bool)
        (e.id ^ ": a smoke is listed as <id>-smoke, and only then")
        (e.smoke <> None)
        (List.mem (e.id ^ "-smoke") ids))
    Experiments.table;
  Alcotest.(check int) "every id is a row, its smoke, or all"
    (List.length ids)
    (1
    + List.length Experiments.table
    + List.length (List.filter (fun (e : Experiments.t) -> e.smoke <> None)
                     Experiments.table));
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ ": a CI id is an id") true (List.mem id ids))
    Experiments.ci_ids

let test_table_bench_files () =
  let files =
    List.filter_map
      (fun (e : Experiments.t) ->
        Option.map
          (fun full -> (e.id, full, Experiments.bench_file e ~smoke:true))
          (Experiments.bench_file e ~smoke:false))
      Experiments.table
  in
  Alcotest.(check (list (triple string string (option string))))
    "the BENCH files of the rows that write one"
    (List.map
       (fun (id, n) ->
         ( id,
           Printf.sprintf "BENCH_pr%d.json" n,
           Some (Printf.sprintf "BENCH_pr%d_smoke.json" n) ))
       [ ("faults", 2); ("profile", 3); ("sharding", 4); ("chaos", 5);
         ("engine", 6); ("sessions", 7); ("reshard", 8); ("pipeline", 9);
         ("durability", 10) ])
    files

(* [f ()]'s stdout, and its result or exception. *)
let capture_stdout f =
  flush stdout;
  let file = Filename.temp_file "gates" ".out" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result = match f () with x -> Ok x | exception e -> Error e in
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (text, result)

let occurrences ~needle s =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
  in
  go 0 0

let demo_row ?(gated = true) ?bench ?smoke failures =
  { Experiments.id = "demo"; doc = "a demo row"; bench; gated;
    run = (fun () -> ([], failures)); smoke }

let test_runner_gates_by_id () =
  let out, result = capture_stdout (fun () -> Experiments.run (demo_row [ "broken" ])) in
  (match result with
   | Ok () -> Alcotest.fail "the runner passed a failing row"
   | Error (Failure msg) ->
     names "runner" ~needle:"demo" [ msg ];
     names "runner" ~needle:"broken" [ msg ]
   | Error e -> raise e);
  names "runner output" ~needle:"GATE FAIL: broken" [ out ];
  let out, _ = capture_stdout (fun () -> Experiments.run (demo_row [])) in
  Alcotest.(check int) "a passing gated row prints its gate line once" 1
    (occurrences ~needle:"gate: demo" out);
  let out, _ =
    capture_stdout (fun () -> Experiments.run (demo_row ~gated:false [ "ignored" ]))
  in
  Alcotest.(check int) "an ungated row prints no gate line" 0 (occurrences ~needle:"gate" out)

let test_runner_writes_the_smoke_file () =
  let file = "BENCH_gates_demo_smoke.json" in
  let point =
    Report.point ~experiment:"demo" ~procs:1 ~config:"smoke" ~ops_per_sec:1. ()
  in
  let row =
    demo_row ~bench:"BENCH_gates_demo" ~smoke:("demo smoke", fun () -> ([ point ], [])) []
  in
  let out, result = capture_stdout (fun () -> Experiments.run ~smoke:true row) in
  Result.iter_error raise result;
  names "runner output" ~needle:("wrote " ^ file ^ " (1 bench points)") [ out ];
  Alcotest.(check bool) "the smoke wrote <stem>_smoke.json" true (Sys.file_exists file);
  Sys.remove file

let () =
  Alcotest.run "gates"
    [ ( "report",
        [ Alcotest.test_case "gate names every failure" `Quick
            test_gate_reports_every_failure ] );
      ( "sessions",
        [ Alcotest.test_case "lease mode holding watches" `Quick
            test_sessions_lease_mode_holding_watches;
          Alcotest.test_case "wrong znode census" `Quick
            test_sessions_wrong_census;
          Alcotest.test_case "empty history" `Quick
            test_sessions_empty_history ] );
      ( "ablation-cache",
        [ Alcotest.test_case "cache not neutral on mdtest" `Quick
            test_cache_ablation_not_neutral;
          Alcotest.test_case "hot-loop speedup under 20x" `Quick
            test_cache_ablation_small_speedup ] );
      ( "reshard",
        [ Alcotest.test_case "p99 above 12x baseline" `Quick
            test_reshard_p99_above_baseline;
          Alcotest.test_case "empty migration window" `Quick
            test_reshard_empty_window;
          Alcotest.test_case "controller never finished" `Quick
            test_reshard_controller_unfinished ] );
      ( "profile",
        [ Alcotest.test_case "phases not tiling the total" `Quick
            test_profile_phases_not_tiling ] );
      ( "sharding",
        [ Alcotest.test_case "znode census mismatch" `Quick
            test_sharding_census_mismatch;
          Alcotest.test_case "shard with zero writes" `Quick test_sharding_idle_shard ] );
      ( "faults",
        [ Alcotest.test_case "clean schedules pass" `Quick test_faults_passing;
          Alcotest.test_case "wrong znode census" `Quick
            test_faults_wrong_census;
          Alcotest.test_case "unfired fault event" `Quick
            test_faults_unfired_event ] );
      ( "chaos",
        [ Alcotest.test_case "no run recovered" `Quick test_chaos_none_recovered;
          Alcotest.test_case "zero ops checked" `Quick
            test_chaos_zero_ops_checked;
          Alcotest.test_case "acked write lost" `Quick
            test_chaos_acked_write_lost;
          Alcotest.test_case "mixed recoveries" `Quick
            test_chaos_mixed_recoveries ] );
      ( "pipeline",
        [ Alcotest.test_case "phases not tiling the total" `Quick
            test_pipeline_phases_not_tiling;
          Alcotest.test_case "improvement under the floor" `Quick
            test_pipeline_small_improvement;
          Alcotest.test_case "no traced creates" `Quick
            test_pipeline_no_traced_creates ] );
      ( "durability",
        [ Alcotest.test_case "zero registers audited" `Quick
            test_durability_zero_registers_audited;
          Alcotest.test_case "only an untorn flavor truncated" `Quick
            test_durability_untorn_truncation ] );
      ( "mapping",
        [ Alcotest.test_case "ring relocates like mod-N" `Quick
            test_mapping_ring_moves_like_mod ] );
      ( "cmd",
        [ Alcotest.test_case "CMD 4 dir-stat below CMD 2" `Quick
            test_cmd_more_mds_slower_stat ] );
      ( "unique",
        [ Alcotest.test_case "DUFS gains from -u" `Quick test_unique_dufs_gains ] );
      ( "async",
        [ Alcotest.test_case "window 16 no help at 1 client" `Quick
            test_async_window_does_not_help ] );
      ( "giga",
        [ Alcotest.test_case "100% available after a crash" `Quick
            test_giga_fully_available ] );
      ( "observers",
        [ Alcotest.test_case "observers cost write throughput" `Quick
            test_observers_cost_writes ] );
      ( "headline",
        [ Alcotest.test_case "drifted dir-create ratios" `Quick
            test_headline_drifted_ratios ] );
      ( "table",
        [ Alcotest.test_case "ids unique, smokes as <id>-smoke" `Quick test_table_ids;
          Alcotest.test_case "BENCH file names" `Quick test_table_bench_files;
          Alcotest.test_case "runner gates by id" `Quick test_runner_gates_by_id;
          Alcotest.test_case "smoke writes <stem>_smoke.json" `Quick
            test_runner_writes_the_smoke_file ] ) ]
