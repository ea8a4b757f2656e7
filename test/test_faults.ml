(* Tests for the declarative fault-schedule harness: the plan grammar,
   arming a plan against a live ensemble, and the headline failure-path
   run — mdtest at 64 processes with the leader (and two followers)
   crashed mid file-create must complete error-free, with every retried
   write answered exactly once and the znode population accounted for. *)

module Engine = Simkit.Engine
module Ensemble = Zk.Ensemble
module Faultplan = Faults.Faultplan
module Systems = Scenarios.Systems

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let plan_of_string text =
  match Faultplan.parse text with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "parse %S: %s" text msg

(* {2 Grammar} *)

let test_parse_roundtrip () =
  let text =
    "crash-leader@file-create+0.05;crash=1@0.25;restart=1@dir-stat+0.2;\
     restart-all@file-create+1.5"
  in
  let plan = plan_of_string text in
  check_int "four events" 4 (List.length plan);
  check_string "to_string inverts parse" text (Faultplan.to_string plan);
  match plan with
  | { Faultplan.action = Faultplan.Crash_leader;
      anchor = Faultplan.After_phase ("file-create", offset) }
    :: { Faultplan.action = Faultplan.Crash 1; anchor = Faultplan.At t } :: _ ->
    check_bool "phase offset parsed" true (offset = 0.05);
    check_bool "absolute time parsed" true (t = 0.25)
  | _ -> Alcotest.fail "events decoded in the wrong shape"

let test_parse_bare_phase_anchor () =
  match plan_of_string "crash=0@file-remove" with
  | [ { Faultplan.action = Faultplan.Crash 0;
        anchor = Faultplan.After_phase ("file-remove", 0.) } ] -> ()
  | _ -> Alcotest.fail "bare phase anchor should mean offset 0"

let test_parse_rejects_malformed () =
  List.iter
    (fun text ->
      match Faultplan.parse text with
      | Ok _ -> Alcotest.failf "parse %S should fail" text
      | Error _ -> ())
    [ "boom@1"; "crash=x@1"; "crash=1"; "crash=1@-2"; "crash=-1@1";
      "crash=1@dir-create+x"; "crash=1@+" ]

(* {2 The sharded grammar extension} *)

let test_parse_shard_roundtrip () =
  let text =
    "crash=2/1@0.25;restart=2/1@dir-stat+0.2;\
     crash-leader@shard=3@file-create+0.05"
  in
  let plan = plan_of_string text in
  check_string "to_string inverts parse" text (Faultplan.to_string plan);
  match plan with
  | { Faultplan.action = Faultplan.Crash_on (2, 1); anchor = Faultplan.At t }
    :: { Faultplan.action = Faultplan.Restart_on (2, 1); _ }
    :: [ { Faultplan.action = Faultplan.Crash_leader_of 3;
           anchor = Faultplan.After_phase ("file-create", offset) } ] ->
    check_bool "absolute time parsed" true (t = 0.25);
    check_bool "last @ splits action from anchor" true (offset = 0.05)
  | _ -> Alcotest.fail "sharded events decoded in the wrong shape"

let test_parse_unqualified_plans_unchanged () =
  (* every pre-sharding plan keeps its meaning: bare ids stay [Crash]/
     [Restart] (shard 0 at arm time), not [Crash_on] *)
  match plan_of_string "crash-leader@file-create+0.05;crash=1@0.25;restart-all@1.5" with
  | [ { Faultplan.action = Faultplan.Crash_leader; _ };
      { Faultplan.action = Faultplan.Crash 1; _ };
      { Faultplan.action = Faultplan.Restart_all_down; _ } ] -> ()
  | _ -> Alcotest.fail "unqualified plan decoded differently"

let test_parse_shard_rejects_malformed () =
  List.iter
    (fun text ->
      match Faultplan.parse text with
      | Ok _ -> Alcotest.failf "parse %S should fail" text
      | Error _ -> ())
    [ "crash=1/@1"; "crash=/2@1"; "crash=1/2/3@1"; "crash=1/-2@1";
      "crash=-1/2@1"; "crash-leader@shard=@1"; "crash-leader@shard=x@dir-create";
      "crash-leader@shard=1/2@1" ]

(* {2 The storage-fault grammar extension} *)

let test_parse_storage_roundtrip () =
  let text =
    "torn-tail=2@file-create+0.6;corrupt-wal=1:0.05@0.8;corrupt-snap=3@1;\
     disk-stall=0:0.2@file-create+1.3;fsync-delay+=4:0.0002@0.05;\
     torn-tail=1/2@2;corrupt-wal=0/1:0.1@2.5;corrupt-snap=2/3@dir-stat+0;\
     disk-stall=2/0:0.25@3;fsync-delay+=3/1:0.001@3.5"
  in
  let plan = plan_of_string text in
  check_int "ten events" 10 (List.length plan);
  check_string "to_string inverts parse" text (Faultplan.to_string plan);
  match plan with
  | { Faultplan.action = Faultplan.Torn_tail (None, 2);
      anchor = Faultplan.After_phase ("file-create", _) }
    :: { Faultplan.action = Faultplan.Corrupt_wal (None, 1, fraction); _ }
    :: { Faultplan.action = Faultplan.Corrupt_snap (None, 3); _ }
    :: { Faultplan.action = Faultplan.Disk_stall (None, 0, stall); _ }
    :: { Faultplan.action = Faultplan.Fsync_delay (None, 4, extra); _ }
    :: { Faultplan.action = Faultplan.Torn_tail (Some 1, 2); _ }
    :: { Faultplan.action = Faultplan.Corrupt_wal (Some 0, 1, _); _ }
    :: { Faultplan.action = Faultplan.Corrupt_snap (Some 2, 3);
         anchor = Faultplan.After_phase ("dir-stat", 0.) }
    :: { Faultplan.action = Faultplan.Disk_stall (Some 2, 0, _); _ }
    :: [ { Faultplan.action = Faultplan.Fsync_delay (Some 3, 1, _); _ } ] ->
    check_bool "bit-rot fraction parsed" true (fraction = 0.05);
    check_bool "stall duration parsed" true (stall = 0.2);
    check_bool "fail-slow surcharge parsed" true (extra = 0.0002)
  | _ -> Alcotest.fail "storage events decoded in the wrong shape"

let test_parse_storage_rejects_malformed () =
  List.iter
    (fun text ->
      match Faultplan.parse text with
      | Ok _ -> Alcotest.failf "parse %S should fail" text
      | Error _ -> ())
    [ "torn-tail=@1"; "torn-tail=x@1"; "torn-tail=-1@1";
      "corrupt-wal=1@1" (* missing :fraction *); "corrupt-wal=1:x@1";
      "corrupt-wal=1:1.5@1" (* fraction > 1 *); "corrupt-wal=:0.5@1";
      "corrupt-snap=1:0.5@1" (* takes no value *); "corrupt-snap=@1";
      "disk-stall=1@1" (* missing :duration *); "disk-stall=1:x@1";
      "disk-stall=1:-0.5@1"; "fsync-delay+=1@1"; "fsync-delay+=1:-0.001@1";
      "torn-tail=1/2/3@1" ]

(* A storage action armed through the plan must reach the named member's
   WAL: tear the follower's log tail, power-cycle it, and the recovery
   truncation counter has to show the lost record (the live leader then
   diff-syncs the gap, so the replica converges anyway). *)
let test_arm_storage_action_reaches_the_wal () =
  let engine = Engine.create () in
  let ensemble = Ensemble.start engine (Ensemble.default_config ~servers:3) in
  let armed =
    Faultplan.arm engine ensemble
      (plan_of_string "torn-tail=2@0.3;crash=2@0.31;restart=2@0.5")
  in
  Simkit.Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      for i = 1 to 8 do
        match s.Zk.Zk_client.create (Printf.sprintf "/t%d" i) ~data:"x" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "create /t%d: %s" i (Zk.Zerror.to_string e)
      done);
  Engine.run engine;
  check_int "all three events fired" 3 (Faultplan.fired armed);
  check_bool "torn record counted by recovery" true
    (Ensemble.wal_truncated ensemble >= 1);
  check_bool "replica converges after truncation" true
    (Zk.Ztree.equal_state (Ensemble.tree_of ensemble 2)
       (Ensemble.tree_of ensemble 0))

(* {2 Property: parse inverts to_string on generated plans}

   Floats are drawn from literal grids (values "%g" prints exactly as
   written), so structural equality of the re-parsed plan is exact —
   the property exercises the whole grammar, including the network
   actions and shard qualifiers, not float printing. *)

let plan_gen =
  let open QCheck2.Gen in
  let shard = oneof [ return None; map Option.some (int_range 0 3) ] in
  let probability = oneofl [ 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1. ] in
  let duration = oneofl [ 0.001; 0.005; 0.05; 0.25; 1.5 ] in
  let groups =
    list_size (int_range 1 3) (list_size (int_range 1 2) (int_range 0 4))
  in
  let action =
    oneof
      [ map (fun id -> Faultplan.Crash id) (int_range 0 4);
        map (fun id -> Faultplan.Restart id) (int_range 0 4);
        return Faultplan.Crash_leader;
        return Faultplan.Restart_all_down;
        map2 (fun s id -> Faultplan.Crash_on (s, id)) (int_range 0 3)
          (int_range 0 4);
        map2 (fun s id -> Faultplan.Restart_on (s, id)) (int_range 0 3)
          (int_range 0 4);
        map (fun s -> Faultplan.Crash_leader_of s) (int_range 0 3);
        map2 (fun sh gs -> Faultplan.Partition (sh, gs)) shard groups;
        map (fun sh -> Faultplan.Heal sh) shard;
        map2 (fun sh p -> Faultplan.Drop (sh, p)) shard probability;
        map2 (fun sh d -> Faultplan.Delay (sh, d)) shard duration;
        map2 (fun sh p -> Faultplan.Duplicate (sh, p)) shard probability;
        map3
          (fun sh p w -> Faultplan.Reorder (sh, p, w))
          shard probability duration;
        map2 (fun sh id -> Faultplan.Torn_tail (sh, id)) shard (int_range 0 4);
        map3
          (fun sh id p -> Faultplan.Corrupt_wal (sh, id, p))
          shard (int_range 0 4) probability;
        map2 (fun sh id -> Faultplan.Corrupt_snap (sh, id)) shard (int_range 0 4);
        map3
          (fun sh id d -> Faultplan.Disk_stall (sh, id, d))
          shard (int_range 0 4) duration;
        map3
          (fun sh id d -> Faultplan.Fsync_delay (sh, id, d))
          shard (int_range 0 4) duration ]
  in
  let anchor =
    oneof
      [ map (fun t -> Faultplan.At t) (oneofl [ 0.; 0.5; 1.; 2.5; 12.25 ]);
        map2
          (fun name off -> Faultplan.After_phase (name, off))
          (oneofl [ "file-create"; "dir-stat"; "tree-walk"; "rm" ])
          (oneofl [ 0.; 0.05; 0.25; 1.5 ]) ]
  in
  let event = map2 (fun action anchor -> { Faultplan.action; anchor }) action anchor in
  list_size (int_range 1 8) event

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse inverts to_string on random plans" ~count:500
    plan_gen (fun plan ->
      let text = Faultplan.to_string plan in
      match Faultplan.parse text with
      | Ok plan' -> plan' = plan
      | Error msg -> QCheck2.Test.fail_reportf "parse %S: %s" text msg)

let prop_chaos_roundtrip =
  QCheck2.Test.make ~name:"chaos plans survive the textual round trip" ~count:100
    QCheck2.Gen.(pair int64 (int_range 1 4))
    (fun (seed, shards) ->
      let plan =
        Faultplan.chaos ~seed ~servers:3 ~shards ~start:1. ~heal_at:6.
          ~events:8 ()
      in
      match Faultplan.parse (Faultplan.to_string plan) with
      | Ok plan' -> Faultplan.to_string plan' = Faultplan.to_string plan
      | Error msg ->
        QCheck2.Test.fail_reportf "parse %S: %s" (Faultplan.to_string plan) msg)

let test_arm_shards_targets_the_right_shard () =
  let engine = Engine.create () in
  let router =
    Zk.Shard_router.start engine ~shards:2 (Ensemble.default_config ~servers:3)
  in
  let ensembles = Zk.Shard_router.ensembles router in
  let armed =
    Faultplan.arm_shards engine ensembles
      (plan_of_string "crash=1/2@0.01;crash=0@0.01;restart-all@boot+0.01")
  in
  Engine.schedule engine ~delay:0.02 (fun () ->
      let alive i = Ensemble.alive_ids ensembles.(i) in
      check_bool "server 2 of shard 1 down" false (List.mem 2 (alive 1));
      check_bool "server 2 of shard 0 untouched" true (List.mem 2 (alive 0));
      check_bool "unqualified crash hit shard 0" false (List.mem 0 (alive 0));
      check_bool "server 0 of shard 1 untouched" true (List.mem 0 (alive 1));
      Faultplan.notify_phase armed "boot");
  Engine.run engine;
  check_int "all three events fired" 3 (Faultplan.fired armed);
  Array.iteri
    (fun i e ->
      check_int (Printf.sprintf "shard %d fully restarted" i) 3
        (List.length (Ensemble.alive_ids e)))
    ensembles

let test_arm_shards_rejects_bad_deployments () =
  let engine = Engine.create () in
  (match Faultplan.arm_shards engine [||] (plan_of_string "crash=0@1") with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty deployment should be rejected");
  (* a shard index beyond the deployment is a plan/deployment mismatch
     and must fail loudly at fire time, not silently no-op *)
  let ensemble = Ensemble.start engine (Ensemble.default_config ~servers:3) in
  ignore (Faultplan.arm engine ensemble (plan_of_string "crash=3/0@0.01"));
  match Engine.run engine with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range shard should raise when it fires"

(* {2 Arming against a live ensemble} *)

let test_arm_executes_timed_and_phase_events () =
  let engine = Engine.create () in
  let ensemble = Ensemble.start engine (Ensemble.default_config ~servers:3) in
  let armed =
    Faultplan.arm engine ensemble (plan_of_string "crash=2@0.01;restart=2@boot+0.05")
  in
  Engine.schedule engine ~delay:0.02 (fun () ->
      check_bool "timed crash fired" true
        (not (List.mem 2 (Ensemble.alive_ids ensemble)));
      check_int "phase-anchored event still held" 1 (Faultplan.fired armed);
      Faultplan.notify_phase armed "boot");
  Engine.run engine;
  check_int "both events fired" 2 (Faultplan.fired armed);
  check_bool "server restarted by the phase event" true
    (List.mem 2 (Ensemble.alive_ids ensemble))

(* {2 The acceptance run: mdtest under leader crash and quorum loss} *)

let test_mdtest_64_procs_survives_leader_crash () =
  (* leader down 20 ms into file-create, then two followers: the
     ensemble sits below quorum for ~1.1 s — longer than the request
     timeout, so clients must retry writes that are still pending, and
     the dedup table has to answer them without a second apply *)
  let plan =
    plan_of_string
      "crash-leader@file-create+0.02;crash=1@file-create+0.05;\
       crash=2@file-create+0.08;restart-all@file-create+1.2"
  in
  let spec =
    { Systems.zk_servers = 5; backends = 2; backend_kind = Systems.Lustre }
  in
  let run =
    Systems.dufs_mdtest ~dirs_per_proc:40 ~files_per_proc:40
      ~config_adjust:(fun c ->
        { c with Ensemble.election_timeout = 0.2; request_timeout = 0.3 })
      ~spec ~shards:1 ~procs:64 ~plan ()
  in
  check_int "mdtest completes error-free" 0
    run.Systems.results.Mdtest.Runner.errors;
  check_int "all four fault events fired" 4 run.Systems.faults_fired;
  check_bool "retried writes answered from the dedup table" true
    (run.Systems.dedup_hits > 0);
  check_int "znode population exact: nothing lost, nothing applied twice"
    run.Systems.expected_logical_znodes run.Systems.logical_znodes_at_stat;
  check_bool "every create committed" true
    (Zk.Shard_router.writes_committed run.Systems.router >= 64 * 40)

let () =
  Alcotest.run "faults"
    [ ( "grammar",
        [ Alcotest.test_case "parse/to_string roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "bare phase anchor" `Quick test_parse_bare_phase_anchor;
          Alcotest.test_case "rejects malformed plans" `Quick
            test_parse_rejects_malformed;
          Alcotest.test_case "sharded roundtrip" `Quick test_parse_shard_roundtrip;
          Alcotest.test_case "unqualified plans unchanged" `Quick
            test_parse_unqualified_plans_unchanged;
          Alcotest.test_case "rejects malformed sharded plans" `Quick
            test_parse_shard_rejects_malformed;
          Alcotest.test_case "storage-fault roundtrip" `Quick
            test_parse_storage_roundtrip;
          Alcotest.test_case "rejects malformed storage plans" `Quick
            test_parse_storage_rejects_malformed;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_chaos_roundtrip ] );
      ( "arming",
        [ Alcotest.test_case "timed and phase-anchored events" `Quick
            test_arm_executes_timed_and_phase_events;
          Alcotest.test_case "shard-qualified events target their shard" `Quick
            test_arm_shards_targets_the_right_shard;
          Alcotest.test_case "rejects bad deployments" `Quick
            test_arm_shards_rejects_bad_deployments;
          Alcotest.test_case "storage action reaches the member's WAL" `Quick
            test_arm_storage_action_reaches_the_wal ] );
      ( "acceptance",
        [ Alcotest.test_case "mdtest 64 procs survives leader crash" `Slow
            test_mdtest_64_procs_survives_leader_crash ] ) ]
