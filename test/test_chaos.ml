(* The chaos harness end to end: seeded random fault schedules over the
   replicated (and sharded) coordination service, with the Wing–Gong
   linearizability checker as the oracle. Covers: determinism (same
   seed ⇒ bit-identical history digest), zero violations on small
   chaos runs, a lossy plan whose retries hit the dedup table (the
   half of the oracle's teeth that stays a test; the other half is a
   mutant, test/mutants/dedup-disabled.mutant), and the sharded-partition
   scenario — one shard's leader partitioned from its quorum stalls
   that shard only, heals, and the znode accounting comes out exact. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Faultplan = Faults.Faultplan
module Systems = Scenarios.Systems
module Figures = Scenarios.Figures

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let no_violations label (r : Systems.dufs_run) =
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "%s VIOLATION [%s] %s: %s\n%!" label v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    r.Systems.violations;
  check_int (label ^ ": zero violations") 0 (List.length r.Systems.violations)

(* A chaos point's register overlay: always present. *)
let audit (r : Systems.dufs_run) =
  match r.Systems.registers with
  | Some a -> a
  | None -> Alcotest.fail "a chaos point without its register overlay"

(* {2 Chaos runs are seed-deterministic and linearizable} *)

let small_shape =
  { Figures.chaos_shape with
    servers = 3;
    clients = 4;
    registers = 3;
    heal_at = 6.;
    post_heal = 4.;
    events = 6 }

let small_run ?(shards = 1) ~seed () =
  Figures.chaos_point ~shape:small_shape ~shards ~seed ()

let test_chaos_deterministic_and_clean () =
  let a = small_run ~seed:5L () in
  let b = small_run ~seed:5L () in
  check_string "same seed, bit-identical history digest" a.Systems.history_digest
    b.Systems.history_digest;
  check_int "same seed, same op count" a.Systems.history_recorded
    b.Systems.history_recorded;
  check_bool "a real workload ran" true (a.Systems.history_checked > 200);
  check_bool "faults actually fired" true (a.Systems.faults_fired >= 6);
  no_violations "chaos" a;
  check_bool "recovered after heal" true (Float.is_finite (audit a).Systems.recovery_s);
  check_bool "the durability oracle audited registers" true
    ((audit a).Systems.audited > 0);
  check_int "no acked write lost" 0
    (List.length (audit a).Systems.durability_violations);
  check_bool "coordination only: no mdtest phase ran" true
    (a.Systems.results.Mdtest.Runner.rates = []);
  let c = small_run ~seed:6L () in
  check_bool "different seed, different history" true
    (a.Systems.history_digest <> c.Systems.history_digest)

let test_chaos_sharded_clean () =
  let r = small_run ~shards:2 ~seed:7L () in
  no_violations "sharded chaos" r;
  check_bool "sharded run recorded ops" true (r.Systems.history_checked > 200);
  check_bool "sharded run recovered" true (Float.is_finite (audit r).Systems.recovery_s)

(* {2 A shard that never recovers: the probe gives up}

   Two of three servers go down at 1 s and stay down long past the
   heal: the probe's bounded retries run out first, so the run ends
   (once the servers return) with no recovery time, which the gate
   reports as "never recovered after heal". *)

let test_probe_gives_up () =
  let plan =
    match Faultplan.parse "crash=1@1;crash=2@1;restart-all@300" with
    | Ok p -> p
    | Error msg -> Alcotest.failf "plan parse: %s" msg
  in
  let shape =
    { small_shape with clients = 2; registers = 2; heal_at = 2.; post_heal = 1. }
  in
  let r = Figures.chaos_point ~shape ~plan ~shards:1 ~seed:3L () in
  check_bool "no recovery time" true (Float.is_nan (audit r).Systems.recovery_s);
  let point = Figures.chaos_reduce ~shape (1, 3L) r in
  check_bool "the point marks it missing" true
    (Mdtest.Report.phase point "recovery_s" = -1.);
  check_bool "the gate names it" true
    (List.mem "shards=1 seed=3: never recovered after heal"
       (Figures.chaos_check ~deterministic:true [ ((1, 3L), point) ]))

(* {2 The lossy plan exercises the dedup table}

   Under a lossy network, client retries are answered by the dedup
   table exactly once, so the same lossy schedule checks out clean while
   its retries hit the table. This is the honest half of the oracle's
   teeth: [test/mutants/dedup-disabled.mutant] skips the filter, and a
   retried create/delete whose first attempt committed is then applied
   again — the client observes ZNODEEXISTS/ZNONODE for an operation no
   other client can explain, and the checker here (and in the 4-shard
   case) must call that out. *)

let lossy_plan = "drop=0.3@1;heal@6"

let lossy_run ~seed =
  let plan =
    match Faultplan.parse lossy_plan with
    | Ok p -> p
    | Error msg -> Alcotest.failf "parse %S: %s" lossy_plan msg
  in
  Figures.chaos_point
    ~shape:{ small_shape with registers = 2; think = 0.03 }
    ~plan ~shards:1 ~seed ()

let test_lossy_plan_dedups () =
  let runs = List.map (fun seed -> lossy_run ~seed) [ 1L; 2L; 3L ] in
  List.iter (no_violations "dedup on") runs;
  check_bool "lossy schedule exercised the dedup table" true
    (List.exists
       (fun (r : Systems.dufs_run) -> Zk.Shard_router.dedup_hits r.Systems.router > 0)
       runs)

(* {2 Sharded partition: one shard stalls, the rest keep committing} *)

let chaos_config ~servers ~seed =
  (* Small enough that the session layer's internal retry budget
     (8 attempts) exhausts inside the 2 s partition window and the
     failure surfaces to the caller. *)
  { (Ensemble.default_config ~servers) with
    Ensemble.seed;
    request_timeout = 0.1;
    retry_backoff = 0.02;
    retry_backoff_cap = 0.05;
    session_timeout = 30.;
    fail_fast_after = 1.0 }

let test_sharded_partition_progress_and_accounting () =
  let engine = Engine.create () in
  let router =
    Zk.Shard_router.start engine ~shards:2 (chaos_config ~servers:3 ~seed:42L)
  in
  (* Two top-level dirs homed on different shards: each dir's children
     live on the shard owning the dir itself. *)
  let setup = Zk.Shard_router.session router () in
  let dirs = [ "/a"; "/b"; "/c"; "/d" ] in
  Process.spawn engine (fun () ->
      List.iter
        (fun d ->
          match setup.Zk.Zk_client.create d ~data:"" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "setup %s: %s" d (Zk.Zerror.to_string e))
        dirs);
  Engine.run engine;
  let shard_of d = Zk.Shard_router.home_shard router (d ^ "/x") in
  let dir_on_0 = List.find (fun d -> shard_of d = 0) dirs in
  let dir_on_1 = List.find (fun d -> shard_of d = 1) dirs in
  let ensembles = Zk.Shard_router.ensembles router in
  let files = 30 in
  let ok = [| 0; 0 |] and timeouts = [| 0; 0 |] in
  let writer shard dir =
    Process.spawn engine (fun () ->
        let s = Zk.Shard_router.session router () in
        for i = 0 to files - 1 do
          let path = Printf.sprintf "%s/f%d" dir i in
          let rec attempt () =
            match s.Zk.Zk_client.create path ~data:"" with
            | Ok _ -> ok.(shard) <- ok.(shard) + 1
            | Error Zk.Zerror.ZNODEEXISTS ->
              (* an earlier timed-out attempt committed *)
              ok.(shard) <- ok.(shard) + 1
            | Error
                (Zk.Zerror.ZOPERATIONTIMEOUT | Zk.Zerror.ZCONNECTIONLOSS) ->
              timeouts.(shard) <- timeouts.(shard) + 1;
              Process.sleep 0.1;
              attempt ()
            | Error e ->
              Alcotest.failf "create %s: %s" path (Zk.Zerror.to_string e)
          in
          attempt ();
          Process.sleep 0.05
        done)
  in
  writer 0 dir_on_0;
  writer 1 dir_on_1;
  (* Partition shard 1's leader away from its followers: the oracle
     election ignores partitions (documented blind spot), so the shard
     is write-dead — safe but not live — until heal. Shard 0 is
     untouched. *)
  let committed_at_partition = [| 0; 0 |] in
  let committed_before_heal = [| 0; 0 |] in
  Engine.schedule engine ~delay:0.4 (fun () ->
      let leader =
        match Ensemble.leader_id ensembles.(1) with
        | Some id -> id
        | None -> Alcotest.fail "shard 1 has no leader"
      in
      Ensemble.partition ensembles.(1) [ [ leader ] ];
      Array.iteri
        (fun i e -> committed_at_partition.(i) <- Ensemble.writes_committed e)
        ensembles);
  Engine.schedule engine ~delay:2.4 (fun () ->
      Array.iteri
        (fun i e -> committed_before_heal.(i) <- Ensemble.writes_committed e)
        ensembles;
      Ensemble.heal ensembles.(1));
  Engine.run engine;
  check_int "shard 0 finished every create" files ok.(0);
  check_int "shard 1 finished every create after heal" files ok.(1);
  check_bool "shard 0 kept committing through the partition" true
    (committed_before_heal.(0) > committed_at_partition.(0));
  check_int "partitioned shard committed nothing"
    committed_at_partition.(1) committed_before_heal.(1);
  check_bool "partitioned shard's clients timed out" true (timeouts.(1) > 0);
  check_int "healthy shard's clients never timed out" 0 timeouts.(0);
  (* Exact accounting: every user znode is a setup dir or a counted
     create — no write lost, none doubled. *)
  check_int "logical znode population exact"
    (List.length dirs + (2 * files))
    (Zk.Shard_router.logical_population router)

let () =
  Alcotest.run "chaos"
    [ ( "chaos",
        [ Alcotest.test_case "seed-deterministic, linearizable, recovers"
            `Quick test_chaos_deterministic_and_clean;
          Alcotest.test_case "4-shard chaos clean" `Quick
            test_chaos_sharded_clean;
          Alcotest.test_case "probe gives up on a shard below quorum" `Quick
            test_probe_gives_up ] );
      ( "oracle",
        [ Alcotest.test_case "lossy plan: dedup hits, no violations" `Quick
            test_lossy_plan_dedups ] );
      ( "sharded-partition",
        [ Alcotest.test_case "one shard stalls, others commit, exact accounting"
            `Quick test_sharded_partition_progress_and_accounting ] ) ]
