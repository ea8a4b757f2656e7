(* The pipelined ZAB write path ([max_inflight_batches > 1]): windowed
   proposals with in-order commit, commit-frontier piggybacking,
   overlapped leader persist, adaptive (never-sleeping) group commit,
   the generalized all-stalled-entries repropose repair, and the
   chaos/linearizability gates over all of it. The stop-and-wait
   configuration ([max_inflight_batches = 1]) must stay bit-identical
   to the pre-pipeline protocol — its recorded replays are diffed in
   CI — so several tests pin the legacy path's observable behavior
   too. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Ztree = Zk.Ztree
module Zerror = Zk.Zerror
module Zk_client = Zk.Zk_client
module Trace = Obs.Trace
module Systems = Scenarios.Systems
module Faultplan = Faults.Faultplan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Zerror.to_string e)

let make ?(servers = 5) ?trace ?(config_adjust = Fun.id) () =
  let engine = Engine.create () in
  let cfg = config_adjust (Ensemble.default_config ~servers) in
  (engine, Ensemble.start ?trace engine cfg)

let windowed ?(window = 4) ?(max_batch = 8) c =
  { c with Ensemble.max_batch; max_inflight_batches = window }

let all_trees_agree ensemble ~servers =
  let reference = Ensemble.tree_of ensemble 0 in
  let rec go i =
    i >= servers
    || (Ztree.equal_state reference (Ensemble.tree_of ensemble i) && go (i + 1))
  in
  go 1

(* [procs] client processes, [per] creates each, then run to quiescence. *)
let create_storm engine ensemble ~procs ~per =
  for proc = 0 to procs - 1 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for i = 0 to per - 1 do
          ignore
            (ok_or_fail "create"
               (s.Zk_client.create (Printf.sprintf "/p%d_%d" proc i) ~data:"x"))
        done)
  done;
  Engine.run engine

(* {2 Configuration validation} *)

let test_window_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "max_inflight_batches = 0 rejected"
    (Invalid_argument "Ensemble.start: max_inflight_batches < 1") (fun () ->
      ignore
        (Ensemble.start engine
           { (Ensemble.default_config ~servers:3) with
             max_inflight_batches = 0 }))

(* {2 Correctness under an open window} *)

let test_pipelined_replication () =
  let engine, ensemble = make ~servers:5 ~config_adjust:windowed () in
  create_storm engine ensemble ~procs:8 ~per:25;
  check_int "all writes committed" 200 (Ensemble.writes_committed ensemble);
  check_bool "all five replicas converge" true
    (all_trees_agree ensemble ~servers:5);
  check_int "every replica holds all nodes" 201
    (Ztree.node_count (Ensemble.tree_of ensemble 4))

let test_pipelined_reads_own_writes () =
  let engine, ensemble = make ~servers:5 ~config_adjust:windowed () in
  let failures = ref 0 in
  for proc = 0 to 4 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble ~server:proc () in
        for i = 0 to 19 do
          let path = Printf.sprintf "/rw%d_%d" proc i in
          ignore (ok_or_fail "create" (s.Zk_client.create path ~data:"v"));
          match s.Zk_client.get path with
          | Ok _ -> ()
          | Error _ -> incr failures
        done)
  done;
  Engine.run engine;
  check_int "no stale read of own write through the pipeline" 0 !failures

(* {2 The pipeline is actually faster, and for the claimed reason} *)

let traced_run ~window () =
  let trace = Trace.create () in
  Trace.enable trace;
  let engine, ensemble =
    make ~servers:5 ~trace
      ~config_adjust:(fun c -> windowed ~window ~max_batch:16 c)
      ()
  in
  create_storm engine ensemble ~procs:16 ~per:25;
  (Engine.now engine, trace, ensemble)

let qw_ack trace =
  Option.value ~default:0. (Trace.span_mean trace "zk.create.queue-wait")
  +. Option.value ~default:0. (Trace.span_mean trace "zk.create.ack")

let test_pipeline_beats_stop_and_wait () =
  let t1, trace1, _ = traced_run ~window:1 () in
  let t8, trace8, _ = traced_run ~window:8 () in
  check_bool
    (Printf.sprintf "pipelined run finishes sooner (%.6f < %.6f)" t8 t1)
    true (t8 < t1);
  let base = qw_ack trace1 and piped = qw_ack trace8 in
  check_bool
    (Printf.sprintf "create queue-wait+ack shrinks (%.3g < %.3g)" piped base)
    true
    (base > 0. && piped < base);
  (* the untagged queue-wait metric must exist on both paths (the
     satellite fix: it used to be recorded only under a shard tag) *)
  check_bool "untagged zk.queue_wait recorded, stop-and-wait" true
    (Obs.Metrics.summary_opt (Trace.metrics trace1) "zk.queue_wait" <> None);
  check_bool "untagged zk.queue_wait recorded, pipelined" true
    (Obs.Metrics.summary_opt (Trace.metrics trace8) "zk.queue_wait" <> None)

(* The stop-and-wait path pays the leader persist on the critical path
   (the span's persist phase equals the configured cost); the pipelined
   path issues it concurrently with the follower round trip, so the
   persist phase vanishes and its residual cost surfaces inside ack.
   This distinguishes a real overlap from a relabeled sleep. *)
let test_persist_overlap_visible_in_spans () =
  let _, trace1, _ = traced_run ~window:1 () in
  let _, trace8, _ = traced_run ~window:8 () in
  let persist1 =
    Option.value ~default:0. (Trace.span_mean trace1 "zk.create.persist")
  and persist8 =
    Option.value ~default:(-1.) (Trace.span_mean trace8 "zk.create.persist")
  in
  check_bool "stop-and-wait pays persist on the critical path" true
    (persist1 > 0.);
  check_bool "pipelined persist is off the critical path" true
    (persist8 = 0.)

let test_phase_telescoping_pipelined () =
  let _, trace, _ = traced_run ~window:8 () in
  match Trace.span_mean trace "zk.create.total" with
  | None -> Alcotest.fail "no traced creates"
  | Some total ->
    let sum =
      List.fold_left
        (fun acc p ->
          let m =
            Option.value ~default:0.
              (Trace.span_mean trace ("zk.create." ^ p))
          in
          check_bool (Printf.sprintf "phase %s non-negative" p) true (m >= 0.);
          acc +. m)
        0. Trace.phases
    in
    check_bool
      (Printf.sprintf "phases telescope (sum %.6g vs total %.6g)" sum total)
      true
      (Float.abs (sum -. total) <= 0.05 *. total)

(* {2 Commit piggybacking} *)

let test_commit_piggybacking () =
  let engine, ensemble =
    make ~servers:5 ~config_adjust:(windowed ~window:4 ~max_batch:8) ()
  in
  create_storm engine ensemble ~procs:16 ~per:25;
  check_bool "a busy pipeline piggybacks commit frontiers" true
    (Ensemble.piggybacked_commits ensemble > 0);
  check_bool "the quiescent tail still fans out standalone commits" true
    (Ensemble.commit_fanouts ensemble > 0);
  (* tail convergence: the last writes' commits reached every replica
     even though most commit rounds never got their own fan-out *)
  check_int "all writes committed" 400 (Ensemble.writes_committed ensemble);
  check_bool "replicas converge at the tail" true
    (all_trees_agree ensemble ~servers:5)

let test_stop_and_wait_never_piggybacks () =
  let engine, ensemble =
    make ~servers:5
      ~config_adjust:(fun c -> { c with Ensemble.max_batch = 8 })
      ()
  in
  create_storm engine ensemble ~procs:8 ~per:25;
  check_int "window = 1 never suppresses a commit fan-out" 0
    (Ensemble.piggybacked_commits ensemble);
  check_bool "every commit was a standalone fan-out" true
    (Ensemble.commit_fanouts ensemble > 0)

(* {2 Repropose repair: all stalled entries, one round}

   Regression for the head-only repair. 40 single-entry batches are
   proposed with every follower→leader link cut, so every proposal is
   outstanding and unacked; retry backoff is huge, so no client retry
   interferes with [p_proposed_at]. After the heal, one fresh write's
   ack round triggers [repropose_stalled], which must resend *all* 40
   timed-out entries in one batch — the fresh write (zxid 41, committed
   strictly last) then completes within a couple of round trips. The
   head-only repair needs one ack round trip per stalled entry
   (~40 × 120 µs here), which blows the bound. *)

let test_repropose_resends_all_stalled () =
  let k = 40 in
  let heal_at = 1.0 and trigger_at = 1.1 in
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { (windowed ~window:64 ~max_batch:1 c) with
          request_timeout = 0.2;
          retry_backoff = 10_000.;
          retry_backoff_cap = 10_000.;
          session_timeout = 1e9 })
      ()
  in
  let leader =
    match Ensemble.leader_id ensemble with Some l -> l | None -> 0
  in
  Process.spawn engine (fun () ->
      List.iter
        (fun id ->
          if id <> leader then
            Ensemble.partition_oneway ensemble ~from:id ~to_:leader)
        (Ensemble.member_ids ensemble);
      Process.sleep heal_at;
      Ensemble.heal ensemble);
  for i = 0 to k - 1 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble ~server:leader () in
        ignore (s.Zk_client.create (Printf.sprintf "/stall%d" i) ~data:"x"))
  done;
  let trigger_done = ref Float.nan in
  Process.spawn engine (fun () ->
      Process.sleep trigger_at;
      let s = Ensemble.session ensemble ~server:leader () in
      ignore (ok_or_fail "trigger" (s.Zk_client.create "/trigger" ~data:"t"));
      trigger_done := Engine.now engine);
  Engine.run engine;
  check_int "every stalled write and the trigger committed" (k + 1)
    (Ensemble.writes_committed ensemble);
  check_bool "replicas converge after the repair" true
    (all_trees_agree ensemble ~servers:3);
  let repair = !trigger_done -. trigger_at in
  check_bool
    (Printf.sprintf
       "one repropose round repairs the whole window (%.6f s after heal)"
       repair)
    true
    (Float.is_finite repair && repair < 0.0015)

(* {2 Chaos + linearizability with the window open} *)

let pipelined_adjust c =
  { c with Ensemble.max_batch = 8; max_inflight_batches = 4 }

let chaos_small ?(shards = 1) ?plan ~seed () =
  Scenarios.Figures.chaos_point
    ~shape:
      { Scenarios.Figures.chaos_shape with
        servers = 3;
        clients = 4;
        registers = 3;
        heal_at = 6.;
        post_heal = 4.;
        events = 6 }
    ~config_adjust:pipelined_adjust ?plan ~shards ~seed ()

let recovery_s (r : Systems.dufs_run) =
  match r.Systems.registers with
  | Some a -> a.Systems.recovery_s
  | None -> Alcotest.fail "a chaos point without its register overlay"

let no_violations label (r : Systems.dufs_run) =
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "%s VIOLATION [%s] %s: %s\n%!" label v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    r.Systems.violations;
  check_int (label ^ ": zero violations") 0 (List.length r.Systems.violations)

let test_pipelined_chaos_clean () =
  List.iter
    (fun seed ->
      let r = chaos_small ~seed () in
      no_violations (Printf.sprintf "chaos seed %Ld" seed) r;
      check_bool "a real workload ran" true (r.Systems.history_checked > 200);
      check_bool "recovered after heal" true (Float.is_finite (recovery_s r)))
    [ 21L; 22L; 23L ];
  let r = chaos_small ~shards:2 ~seed:24L () in
  no_violations "sharded pipelined chaos" r;
  check_bool "sharded run recovered" true (Float.is_finite (recovery_s r))

let test_pipelined_chaos_deterministic () =
  let a = chaos_small ~seed:25L () in
  let b = chaos_small ~seed:25L () in
  check_string "same seed, bit-identical history under the pipeline"
    a.Systems.history_digest b.Systems.history_digest

(* Leader crash with a full proposal window in flight: in-flight and
   queued batches die with the leader; retried writes must land exactly
   once under the new epoch, and the checker sees the whole history. *)
let test_leader_crash_mid_window () =
  let plan =
    match Faultplan.parse "crash-leader@1;drop=0.2@1.5;heal@4;restart-all@4.5" with
    | Ok p -> p
    | Error msg -> Alcotest.failf "plan parse: %s" msg
  in
  let r = chaos_small ~plan ~seed:31L () in
  no_violations "leader crash mid-window" r;
  check_bool "faults fired" true (r.Systems.faults_fired >= 3);
  check_bool "writes committed across the crash" true
    (Zk.Shard_router.writes_committed r.Systems.router > 0);
  check_bool "recovered" true (Float.is_finite (recovery_s r))

(* {2 Stop-and-wait compatibility}

   [max_inflight_batches = 1] must be the pre-pipeline protocol event
   for event: same commits, same final clock as a config that never
   mentions the field. (CI additionally diffs the recorded
   BENCH_pr5_smoke replay byte-for-byte.) *)

let test_window_one_is_legacy () =
  let run config_adjust =
    let engine, ensemble = make ~servers:5 ~config_adjust () in
    create_storm engine ensemble ~procs:8 ~per:25;
    (Engine.now engine, Ensemble.writes_committed ensemble)
  in
  let t_default, w_default =
    run (fun c -> { c with Ensemble.max_batch = 8 })
  and t_w1, w_w1 =
    run (fun c ->
        { c with Ensemble.max_batch = 8; max_inflight_batches = 1 })
  in
  check_int "same commits" w_default w_w1;
  check_bool
    (Printf.sprintf "identical final clock (%.9f vs %.9f)" t_default t_w1)
    true (t_default = t_w1)

let () =
  Alcotest.run "pipeline"
    [ ( "config",
        [ Alcotest.test_case "window validation" `Quick test_window_validation ]
      );
      ( "correctness",
        [ Alcotest.test_case "replication under an open window" `Quick
            test_pipelined_replication;
          Alcotest.test_case "read-your-own-writes" `Quick
            test_pipelined_reads_own_writes;
          Alcotest.test_case "window = 1 is the legacy path" `Quick
            test_window_one_is_legacy ] );
      ( "performance",
        [ Alcotest.test_case "pipeline beats stop-and-wait" `Quick
            test_pipeline_beats_stop_and_wait;
          Alcotest.test_case "persist overlap visible in spans" `Quick
            test_persist_overlap_visible_in_spans;
          Alcotest.test_case "phase telescoping" `Quick
            test_phase_telescoping_pipelined ] );
      ( "piggybacking",
        [ Alcotest.test_case "busy pipeline piggybacks commits" `Quick
            test_commit_piggybacking;
          Alcotest.test_case "stop-and-wait never piggybacks" `Quick
            test_stop_and_wait_never_piggybacks ] );
      ( "repair",
        [ Alcotest.test_case "repropose resends all stalled entries" `Quick
            test_repropose_resends_all_stalled ] );
      ( "chaos",
        [ Alcotest.test_case "pipelined chaos clean" `Quick
            test_pipelined_chaos_clean;
          Alcotest.test_case "pipelined chaos deterministic" `Quick
            test_pipelined_chaos_deterministic;
          Alcotest.test_case "leader crash mid-window" `Quick
            test_leader_crash_mid_window ] ) ]
