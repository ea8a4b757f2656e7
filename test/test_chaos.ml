(* The chaos harness end to end: seeded random fault schedules over the
   replicated (and sharded) coordination service, with the Wing–Gong
   linearizability checker as the oracle. Covers: determinism (same
   seed ⇒ bit-identical history digest), zero violations on small
   chaos runs, the oracle's teeth (disabling exactly-once dedup must
   produce violations the checker catches), and the sharded-partition
   scenario — one shard's leader partitioned from its quorum stalls
   that shard only, heals, and the znode accounting comes out exact. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Faultplan = Faults.Faultplan
module Systems = Scenarios.Systems

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let no_violations label (r : Systems.chaos_run) =
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "%s VIOLATION [%s] %s: %s\n%!" label v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    r.Systems.violations;
  check_int (label ^ ": zero violations") 0 (List.length r.Systems.violations)

(* {2 Chaos runs are seed-deterministic and linearizable} *)

let small_run ?(shards = 1) ~seed () =
  Systems.chaos_run ~servers:3 ~shards ~clients:4 ~registers:3 ~heal_at:6.
    ~post_heal:4. ~events:6 ~seed ()

let test_chaos_deterministic_and_clean () =
  let a = small_run ~seed:5L () in
  let b = small_run ~seed:5L () in
  check_string "same seed, bit-identical history digest" a.Systems.digest
    b.Systems.digest;
  check_int "same seed, same op count" a.Systems.recorded b.Systems.recorded;
  check_bool "a real workload ran" true (a.Systems.checked > 200);
  check_bool "faults actually fired" true (a.Systems.faults_fired >= 6);
  no_violations "chaos" a;
  check_bool "recovered after heal" true (Float.is_finite a.Systems.recovery_s);
  let c = small_run ~seed:6L () in
  check_bool "different seed, different history" true
    (a.Systems.digest <> c.Systems.digest)

let test_chaos_sharded_clean () =
  let r = small_run ~shards:2 ~seed:7L () in
  no_violations "sharded chaos" r;
  check_bool "sharded run recorded ops" true (r.Systems.checked > 200);
  check_bool "sharded run recovered" true (Float.is_finite r.Systems.recovery_s)

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
  let r =
    Systems.chaos_run ~servers:3 ~clients:2 ~registers:2 ~heal_at:2. ~post_heal:1.
      ~plan ~seed:3L ()
  in
  check_bool "no recovery time" true (Float.is_nan r.Systems.recovery_s);
  check_bool "the gate names it" true
    (List.mem "shards=1 seed=3: never recovered after heal"
       (Scenarios.Figures.chaos_check ~deterministic:true [ r ]))

(* {2 The oracle has teeth}

   Under a lossy network, client retries are answered by the dedup
   table exactly once. With the filter disabled ([unsafe_no_dedup]) a
   retried create/delete whose first attempt committed is applied
   again, so the client observes ZNODEEXISTS/ZNONODE for an operation
   no other client can explain — the checker must call that out, on a
   schedule where the honest configuration checks out clean. *)

let teeth_plan = "drop=0.3@1;heal@6"

let teeth_run ~unsafe_no_dedup ~seed =
  let plan =
    match Faultplan.parse teeth_plan with
    | Ok p -> p
    | Error msg -> Alcotest.failf "parse %S: %s" teeth_plan msg
  in
  Systems.chaos_run ~servers:3 ~shards:1 ~clients:4 ~registers:2 ~heal_at:6.
    ~post_heal:4. ~think:0.03
    ~config_adjust:(fun c -> { c with Ensemble.unsafe_no_dedup })
    ~plan ~seed ()

let test_checker_teeth () =
  (* With dedup on, the same seeds and the same lossy schedule are
     clean — so any violation below is the double-apply, not the plan. *)
  let seeds = [ 1L; 2L; 3L ] in
  let honest = List.map (fun seed -> teeth_run ~unsafe_no_dedup:false ~seed) seeds in
  List.iter (no_violations "dedup on") honest;
  check_bool "lossy schedule exercised the dedup table" true
    (List.exists
       (fun (r : Systems.chaos_run) -> Zk.Shard_router.dedup_hits r.Systems.router > 0)
       honest);
  let broken =
    List.map (fun seed -> teeth_run ~unsafe_no_dedup:true ~seed) seeds
  in
  check_bool "disabling dedup produces a linearizability violation" true
    (List.exists
       (fun (r : Systems.chaos_run) -> r.Systems.violations <> [])
       broken)

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
        [ Alcotest.test_case "teeth: no-dedup double-applies are caught"
            `Quick test_checker_teeth ] );
      ( "sharded-partition",
        [ Alcotest.test_case "one shard stalls, others commit, exact accounting"
            `Quick test_sharded_partition_progress_and_accounting ] ) ]
