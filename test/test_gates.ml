(* The experiment gates: each experiment's checks are a pure function
   from its results to failure messages, and Report.gate fails the run once,
   naming every failure. Every test feeds a passing result (which must
   yield no failure) and a doctored copy (whose failure must be named). *)

module Report = Mdtest.Report
module Runner = Mdtest.Runner
module Systems = Scenarios.Systems
module Figures = Scenarios.Figures
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

let cache_ablation =
  { Figures.mdtest_rows =
      [ (Runner.Dir_stat, 158_509., 158_509.);
        (Runner.Dir_create, 5_473., 5_473.) ];
    hot_rows = [ (64, 187_573., 5_442_177.); (256, 158_691., 4_726_736.) ] }

let test_cache_ablation_not_neutral () =
  passes "ablation-cache" (Figures.ablation_cache_check cache_ablation);
  let with_create cached =
    { cache_ablation with
      Figures.mdtest_rows =
        [ (Runner.Dir_stat, 158_509., 158_509.);
          (Runner.Dir_create, 5_473., cached) ] }
  in
  names "cache 3% slower on dir-create" ~needle:"not within 2% of DUFS"
    (Figures.ablation_cache_check (with_create 5_300.));
  names "cache 3% faster on dir-create" ~needle:"not within 2% of DUFS"
    (Figures.ablation_cache_check (with_create 5_650.))

let test_cache_ablation_small_speedup () =
  passes "ablation-cache" (Figures.ablation_cache_check cache_ablation);
  names "19x at 256 procs" ~needle:"at 256 procs: 19.0x speedup"
    (Figures.ablation_cache_check
       { cache_ablation with
         Figures.hot_rows =
           [ (64, 187_573., 5_442_177.); (256, 158_691., 3_015_129.) ] })

(* {2 Reshard} *)

let results ~p99 =
  let l =
    { Runner.samples = 3_840; mean = p99 /. 4.; p50 = p99 /. 4.;
      p95 = p99 /. 2.; p99; max = p99 }
  in
  { Runner.rates = [ (Runner.File_create, 20_000.) ];
    latencies = [ (Runner.File_create, l) ];
    errors = 0;
    wall = 1. }

(* A clean one-run record: error-free, exact census, clean history. *)
let dufs_run ~p99 =
  { Systems.results = results ~p99;
    router = Zk.Shard_router.local ~shards:2 ();
    trace = Obs.Trace.null;
    backend_stations = [||];
    faults_fired = 0;
    dedup_hits = 0;
    per_shard_znodes = [| 2_002; 2_014 |];
    live_stubs_at_stat = 63;
    logical_znodes_at_stat = 3_951;
    expected_logical_znodes = 3_951;
    reshard = None;
    reshard_window = 0.;
    history_recorded = 4_548;
    history_checked = 4_548;
    history_undetermined = 0;
    history_digest = "d";
    violations = [];
    registers = None }

let reshard_run ?stats ~p99 ~window () =
  Figures.reshard_run
    { (dufs_run ~p99) with Systems.reshard = stats; reshard_window = window }

let split_stats () =
  let st = Zk.Reshard.fresh_stats () in
  st.Zk.Reshard.shards_before <- 2;
  st.Zk.Reshard.shards_after <- 4;
  st.Zk.Reshard.keys_total <- 3_952;
  st.Zk.Reshard.keys_migrated <- 2_727;
  st

(* The no-split baseline and a live 2->4 split at the same scale. *)
let reshard_pair ?(split_p99 = 0.030) ?(window = 5.87) () =
  [ ((2, 2, 64), reshard_run ~p99:0.005 ~window:0. ());
    ( (2, 4, 64),
      reshard_run ~stats:(split_stats ()) ~p99:split_p99 ~window () ) ]

let test_reshard_p99_above_baseline () =
  passes "split p99 6x baseline" (Figures.reshard_check (reshard_pair ()));
  names "split p99 13x baseline" ~needle:"file-create p99"
    (Figures.reshard_check (reshard_pair ~split_p99:0.065 ()))

let test_reshard_empty_window () =
  names "zero-length migration" ~needle:"empty migration window"
    (Figures.reshard_check (reshard_pair ~window:0. ()))

(* {2 Profile: quorum phases must tile each traced write} *)

(* A traced run whose create spans record [total] and the five quorum
   phases [phases] (in {!Obs.Trace.phases} order). *)
let traced_run ?(total = 0.010) phases =
  let t = Obs.Trace.create () in
  Obs.Trace.enable t;
  Obs.Trace.record_span t "zk.create.total" total;
  List.iter2
    (fun p d -> Obs.Trace.record_span t ("zk.create." ^ p) d)
    Obs.Trace.phases phases;
  Figures.traced { (dufs_run ~p99:0.01) with Systems.trace = t }

(* queue-wait, propose, persist, ack, commit: sums to 10 ms *)
let tiling = [ 0.004; 0.0001; 0.00002; 0.0045; 0.00138 ]
let not_tiling = [ 0.008; 0.0001; 0.00002; 0.0045; 0.00138 ]

let test_profile_phases_not_tiling () =
  passes "profile" (Figures.profile_check [ (64, traced_run tiling) ]);
  names "phases 40% over the total" ~needle:"128 procs, zk.create: phase sum 0.014"
    (Figures.profile_check [ (64, traced_run tiling); (128, traced_run not_tiling) ])

(* {2 Sharding} *)

(* A 2-shard deployment in which each shard of [written] committed one
   create. *)
let router_with_writes written =
  let engine = Simkit.Engine.create () in
  let router =
    Zk.Shard_router.start engine ~shards:2 (Zk.Ensemble.default_config ~servers:3)
  in
  Simkit.Process.spawn engine (fun () ->
      List.iter
        (fun i ->
          let s = Zk.Shard_router.backend_session router i in
          match s.Zk.Zk_client.create (Printf.sprintf "/w%d" i) ~data:"" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "shard %d: %s" i (Zk.Zerror.to_string e))
        written);
  Simkit.Engine.run engine;
  router

let sharding_row ?(census = 3_951) written =
  ( (2, 4, 16, 64),
    Figures.sharding_run
      { (dufs_run ~p99:0.01) with
        Systems.router = router_with_writes written;
        logical_znodes_at_stat = census } )

let test_sharding_census_mismatch () =
  passes "sharding" (Figures.sharding_check [ sharding_row [ 0; 1 ] ]);
  names "census one short" ~needle:"procs=64: logical znodes 3950, expected 3951"
    (Figures.sharding_check [ sharding_row ~census:3_950 [ 0; 1 ] ])

let test_sharding_idle_shard () =
  names "shard 1 idle" ~needle:"a shard committed no writes (1 0)"
    (Figures.sharding_check [ sharding_row [ 0 ] ])

(* {2 Faults} *)

(* The fault-free baseline and the quorum-loss schedule, whose four
   events all fired and whose retries hit the dedup table. *)
let faults_runs ?(census = 3_951) ?(fired = 4) () =
  let text = List.assoc "leader-quorum-loss" Figures.fault_plans in
  let plan =
    match Faults.Faultplan.parse text with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  let base = dufs_run ~p99:0.01 in
  [ ("fault-free", [], base);
    ( "leader-quorum-loss",
      plan,
      { base with
        Systems.faults_fired = fired;
        dedup_hits = 64;
        logical_znodes_at_stat = census } ) ]

let test_faults_passing () = passes "faults" (Figures.faults_check (faults_runs ()))

let test_faults_wrong_census () =
  names "census one short" ~needle:"census 3950 <> expected 3951"
    (Figures.faults_check (faults_runs ~census:3_950 ()))

let test_faults_unfired_event () =
  names "restart never fired" ~needle:"3 of 4 fault events fired"
    (Figures.faults_check (faults_runs ~fired:3 ()))

(* {2 Chaos} *)

(* One clean single-shard chaos point, [((shards, seed), run)]. *)
let chaos_row ?(seed = 11L) ?(checked = 1_945) ?(recovery_s = 0.6)
    ?(durability_violations = []) () =
  ( (1, seed),
    { (dufs_run ~p99:0.01) with
      Systems.router =
        Zk.Shard_router.start (Simkit.Engine.create ()) ~shards:1
          (Zk.Ensemble.default_config ~servers:3);
      history_recorded = 2_000;
      history_checked = checked;
      history_undetermined = 3;
      faults_fired = 8;
      registers =
        Some
          { Systems.ops_ok = 1_997;
            audited = 6;
            durability_violations;
            recovery_s;
            replicas_agree = true } } )

let test_chaos_zero_ops_checked () =
  passes "chaos" (Figures.chaos_check ~deterministic:true [ chaos_row () ]);
  names "nothing checked" ~needle:"empty history"
    (Figures.chaos_check ~deterministic:true [ chaos_row ~checked:0 () ])

let test_chaos_acked_write_lost () =
  let lost =
    { Zk.History.v_path = "/d3/r";
      v_kind = "durability";
      v_detail = "recovered <absent> but the 1 acked + 0 undetermined writes only allow {3.7}" }
  in
  names "one acked write lost"
    ~needle:"seed=11: 1 acked writes lost or unacked writes resurrected"
    (Figures.chaos_check ~deterministic:true
       [ chaos_row ~durability_violations:[ lost ] () ])

(* No run recovered: the gate names every run, and the bench points
   stay finite (a NaN would make Report.emit_json raise before the gate
   could print). *)
let test_chaos_none_recovered () =
  let runs =
    [ chaos_row ~recovery_s:Float.nan (); chaos_row ~seed:12L ~recovery_s:Float.nan () ]
  in
  let failures = Figures.chaos_check ~deterministic:true runs in
  names "seed 11 unrecovered" ~needle:"seed=11: never recovered after heal" failures;
  names "seed 12 unrecovered" ~needle:"seed=12: never recovered after heal" failures;
  List.iter
    (fun (p : Report.bench_point) ->
      List.iter
        (fun (name, v) ->
          if not (Float.is_finite v) then
            Alcotest.failf "%s point: %s = %f is not finite" p.Report.experiment name v)
        p.Report.phases;
      Alcotest.(check bool) "ops/s finite" true (Float.is_finite p.Report.ops_per_sec))
    (Figures.chaos_points ~shape:Figures.chaos_shape ~deterministic:true runs)

(* {2 Pipeline} *)

(* The two batch16 profiles the improvement gate compares (queue-wait +
   ack 8.5 ms stop-and-wait, 4.25 ms pipelined: 50% better) and one
   clean chaos schedule. *)
let pipeline_runs ?(piped = [ 0.002; 0.0001; 0.00002; 0.00225; 0.00138 ]) () =
  [ (("batch16-w1", 64), traced_run tiling);
    (("batch16-w8", 64), traced_run ~total:0.00575 piped) ]

let pipeline_check runs =
  Figures.pipeline_check ~min_improvement:30. ~deterministic:true runs [ chaos_row () ]

let test_pipeline_phases_not_tiling () =
  passes "pipeline" (pipeline_check (pipeline_runs ()));
  names "pipelined phases over the total"
    ~needle:"batch16-w8 @64 procs, zk.create: phase sum"
    (pipeline_check
       (pipeline_runs ~piped:[ 0.002; 0.0001; 0.00002; 0.00225; 0.00338 ] ()))

(* {2 Durability} *)

let durability_run =
  ( (2L, "torn-tail"),
    { (dufs_run ~p99:0.01) with
      Systems.registers =
        Some
          { Systems.ops_ok = 400;
            audited = 8;
            durability_violations = [];
            recovery_s = 0.05;
            replicas_agree = true } } )

let durability_check =
  Figures.durability_check ~deterministic:true ~torn_truncated:12 ~replayed:4_000
    ~diff_synced:40

let test_durability_zero_registers_audited () =
  passes "durability" (durability_check [ durability_run ]);
  let label, r = durability_run in
  names "nothing audited" ~needle:"audited 0 registers"
    (durability_check
       [ ( label,
           { r with
             Systems.registers =
               Option.map (fun a -> { a with Systems.audited = 0 }) r.Systems.registers
           } ) ])

(* {2 The other extension ablations, at the numbers they print} *)

let mapping_rows =
  [ { Figures.n = 2; mod_imbalance = 1.005; mod_moved = 0.666;
      ring_imbalance = 1.114; ring_moved = 0.328 };
    { Figures.n = 4; mod_imbalance = 1.016; mod_moved = 0.800;
      ring_imbalance = 1.209; ring_moved = 0.171 };
    { Figures.n = 8; mod_imbalance = 1.031; mod_moved = 0.889;
      ring_imbalance = 1.198; ring_moved = 0.114 } ]

let test_mapping_ring_moves_like_mod () =
  passes "ablation-mapping" (Figures.ablation_mapping_check mapping_rows);
  names "ring relocating like mod-N" ~needle:"N=4: consistent hashing relocated 80.0%"
    (Figures.ablation_mapping_check
       (List.map (fun r -> { r with Figures.ring_moved = r.Figures.mod_moved })
          mapping_rows))

let cmd_rows ~dir_stat_cmd4 =
  let row procs lustre cmd2 cmd4 dufs = { Figures.procs; lustre; cmd2; cmd4; dufs } in
  [ ( Runner.Dir_create,
      [ row 64 5_042. 1_718. 1_137. 6_474.; row 128 4_182. 1_704. 1_137. 6_103.;
        row 256 3_128. 1_712. 1_133. 5_473. ] );
    ( Runner.Dir_stat,
      [ row 64 31_687. 65_244. 136_762. 186_562.;
        row 128 25_060. 52_722. 107_912. 176_442.;
        row 256 17_671. 38_190. dir_stat_cmd4 158_509. ] ) ]

let test_cmd_more_mds_slower_stat () =
  passes "ablation-cmd" (Figures.ablation_cmd_check (cmd_rows ~dir_stat_cmd4:86_578.));
  names "CMD 4 dir-stat below CMD 2" ~needle:"dir-stat at 256 procs: CMD 4 30000"
    (Figures.ablation_cmd_check (cmd_rows ~dir_stat_cmd4:30_000.))

let unique_ablation ~dufs_unique_create =
  { Figures.lustre_rows =
      [ (Runner.Dir_create, 3_128., 3_637.); (Runner.File_create, 4_580., 5_769.) ];
    dufs_rows =
      [ (Runner.Dir_create, 5_473., dufs_unique_create);
        (Runner.File_create, 5_471., 5_471.) ] }

let test_unique_dufs_gains () =
  passes "ablation-unique"
    (Figures.ablation_unique_check (unique_ablation ~dufs_unique_create:5_473.));
  names "DUFS 5% faster with -u" ~needle:"DUFS dir-create: unique/shared 1.050"
    (Figures.ablation_unique_check (unique_ablation ~dufs_unique_create:5_746.65))

let async_rows ~one_client_w16 =
  [ ((1, 1), 2_563.); ((1, 4), 6_693.); ((1, 16), one_client_w16);
    ((2, 1), 3_530.); ((2, 4), 7_092.); ((2, 16), 7_106.);
    ((8, 1), 7_080.); ((8, 4), 7_080.); ((8, 16), 7_080.) ]

let test_async_window_does_not_help () =
  passes "ablation-async" (Figures.ablation_async_check (async_rows ~one_client_w16:7_109.));
  names "window 16 no better than 1" ~needle:"window 16 gives 1.00x"
    (Figures.ablation_async_check (async_rows ~one_client_w16:2_563.))

let giga_ablation ~available =
  { Figures.creates =
      [ (`Lustre, [ (64, 7_017.); (256, 4_573.) ]);
        (`Dufs, [ (64, 6_706.); (256, 5_669.) ]);
        (`Giga 4, [ (64, 232_389.); (256, 239_700.) ]);
        (`Giga 8, [ (64, 315_738.); (256, 455_354.) ]) ];
    available }

let test_giga_fully_available () =
  passes "ablation-giga" (Figures.ablation_giga_check (giga_ablation ~available:0.87));
  names "nothing lost with a server" ~needle:"is 100.0%"
    (Figures.ablation_giga_check (giga_ablation ~available:1.))

let observer_rows ~observed_creates =
  [ ((3, 0), (8_817., 59_035.)); ((7, 0), (6_105., 137_133.));
    ((3, 4), (observed_creates, 137_133.)) ]

let test_observers_cost_writes () =
  passes "ablation-observers"
    (Figures.ablation_observers_check (observer_rows ~observed_creates:8_817.));
  names "observers at 7-voter write cost" ~needle:"6105 creates/s, below 95%"
    (Figures.ablation_observers_check (observer_rows ~observed_creates:6_105.))

(* {2 Headline} *)

(* The four §V-D ratios at 256 procs, as printed, with the paper's
   value each is held to; [lustre] and [pvfs] replace the two
   dir-create ratios, [stat_lustre] file stat over Lustre. *)
let headline_ratios ?(lustre = 1.75) ?(pvfs = 25.19) ?(stat_lustre = 1.25) () =
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
            test_reshard_empty_window ] );
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
            test_chaos_acked_write_lost ] );
      ( "pipeline",
        [ Alcotest.test_case "phases not tiling the total" `Quick
            test_pipeline_phases_not_tiling ] );
      ( "durability",
        [ Alcotest.test_case "zero registers audited" `Quick
            test_durability_zero_registers_audited ] );
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
            test_headline_drifted_ratios ] ) ]
