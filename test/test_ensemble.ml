(* Replication tests for the simulated coordination ensemble: all replicas
   apply the same committed transactions in zxid order, sessions read
   their own writes, and the ensemble survives crashes, elections and
   quorum loss/restore. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Ztree = Zk.Ztree
module Zerror = Zk.Zerror
module Zk_client = Zk.Zk_client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Zerror.to_string e)

let make ?(servers = 3) ?(config_adjust = Fun.id) () =
  let engine = Engine.create () in
  let cfg = config_adjust (Ensemble.default_config ~servers) in
  (engine, Ensemble.start engine cfg)

let all_trees_agree ensemble ~servers =
  let reference = Ensemble.tree_of ensemble 0 in
  let rec go i =
    i >= servers
    || (Ztree.equal_state reference (Ensemble.tree_of ensemble i) && go (i + 1))
  in
  go 1

(* {2 Basic replication} *)

let test_write_replicates_to_all () =
  let engine, ensemble = make ~servers:5 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (ok_or_fail "create" (s.Zk_client.create "/a" ~data:"payload")));
  Engine.run engine;
  for i = 0 to 4 do
    let data, _ =
      ok_or_fail (Printf.sprintf "server %d" i)
        (Ztree.get (Ensemble.tree_of ensemble i) "/a")
    in
    check_string (Printf.sprintf "replica %d has the data" i) "payload" data
  done

let test_replicas_identical_after_many_writes () =
  let engine, ensemble = make ~servers:5 () in
  for proc = 0 to 7 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for i = 0 to 49 do
          ignore (s.Zk_client.create (Printf.sprintf "/n%d_%d" proc i) ~data:"x")
        done)
  done;
  Engine.run engine;
  check_bool "all five replicas converge to the same state" true
    (all_trees_agree ensemble ~servers:5);
  check_int "all writes committed" 400 (Ensemble.writes_committed ensemble);
  check_int "every replica holds all nodes" 401
    (Ztree.node_count (Ensemble.tree_of ensemble 4))

(* Every request arms a [request_timeout] timer; a reply that settles
   first cancels it. So once a fault-free session's writes, reads and
   async write have all been answered, nothing is left pending and the
   clock stops at the last reply instead of idling on to a dead
   timeout. *)
let test_settled_requests_leave_no_timers () =
  let engine, ensemble = make ~servers:3 () in
  let last_reply = ref 0. in
  let replied () = last_reply := Float.max !last_reply (Engine.now engine) in
  let async_ok = ref false in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      s.Zk_client.multi_async [ Zk_client.create_op "/async" ~data:"a" ]
        (fun r ->
          async_ok := Result.is_ok r;
          replied ());
      for i = 0 to 9 do
        let path = Printf.sprintf "/t%d" i in
        ignore (ok_or_fail "create" (s.Zk_client.create path ~data:"x"));
        ignore (ok_or_fail "set" (s.Zk_client.set path ~data:"y"));
        ignore (ok_or_fail "get" (s.Zk_client.get path));
        replied ()
      done);
  Engine.run engine;
  check_bool "async write answered" true !async_ok;
  check_int "no dead timers pending" 0 (Engine.pending_events engine);
  Alcotest.(check (float 0.)) "clock stops at the last reply" !last_reply
    (Engine.now engine)

let test_total_order_observed () =
  (* concurrent conflicting creates: exactly one of the two clients wins,
     on every replica — the Fig. 1 consistency scenario *)
  let engine, ensemble = make ~servers:3 () in
  let outcomes = ref [] in
  for _ = 0 to 1 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        let r = s.Zk_client.create "/contested" ~data:"" in
        outcomes := r :: !outcomes)
  done;
  Engine.run engine;
  let wins =
    List.length (List.filter (function Ok _ -> true | Error _ -> false) !outcomes)
  in
  let losses =
    List.length
      (List.filter (function Error Zerror.ZNODEEXISTS -> true | _ -> false) !outcomes)
  in
  check_int "exactly one winner" 1 wins;
  check_int "the other sees ZNODEEXISTS" 1 losses;
  check_bool "replicas agree" true (all_trees_agree ensemble ~servers:3)

let test_session_reads_own_writes () =
  (* every session, regardless of which follower it is attached to, must
     observe its own completed writes *)
  let engine, ensemble = make ~servers:5 () in
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
  check_int "no stale read of own write" 0 !failures

let test_sequential_across_clients () =
  let engine, ensemble = make ~servers:3 () in
  let paths = ref [] in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (ok_or_fail "parent" (s.Zk_client.create "/q" ~data:"")));
  Engine.run engine;
  for _ = 0 to 3 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for _ = 0 to 4 do
          let p =
            ok_or_fail "seq" (s.Zk_client.create ~sequential:true "/q/n-" ~data:"")
          in
          paths := p :: !paths
        done)
  done;
  Engine.run engine;
  let sorted = List.sort_uniq compare !paths in
  check_int "20 distinct sequential names" 20 (List.length sorted);
  List.iteri
    (fun i p -> check_string "dense numbering" (Printf.sprintf "/q/n-%010d" i) p)
    sorted

let test_multi_atomicity_replicated () =
  let engine, ensemble = make ~servers:3 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore
        (ok_or_fail "ok multi"
           (s.Zk_client.multi
              [ Zk_client.create_op "/m" ~data:""; Zk_client.create_op "/m/c" ~data:"" ]));
      match
        s.Zk_client.multi
          [ Zk_client.create_op "/m2" ~data:""; Zk_client.create_op "/gone/c" ~data:"" ]
      with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error e ->
        Alcotest.check
          (Alcotest.testable Zerror.pp Zerror.equal)
          "atomic abort" Zerror.ZNONODE e);
  Engine.run engine;
  for i = 0 to 2 do
    let tree = Ensemble.tree_of ensemble i in
    check_bool "committed multi present" true (Ztree.exists tree "/m/c" <> None);
    check_bool "aborted multi absent everywhere" true (Ztree.exists tree "/m2" = None)
  done

let test_ephemerals_removed_on_close () =
  let engine, ensemble = make ~servers:3 () in
  Process.spawn engine (fun () ->
      let s1 = Ensemble.session ensemble () in
      let s2 = Ensemble.session ensemble () in
      ignore (ok_or_fail "eph" (s1.Zk_client.create ~ephemeral:true "/tmp" ~data:""));
      ignore (ok_or_fail "keep" (s1.Zk_client.create "/keep" ~data:""));
      s1.Zk_client.close ();
      s2.Zk_client.sync ();
      check_bool "ephemeral gone" true (s2.Zk_client.exists "/tmp" = Ok None);
      check_bool "persistent kept" true (s2.Zk_client.exists "/keep" <> Ok None));
  Engine.run engine

(* {2 Read scaling sanity} *)

let test_reads_distributed_across_servers () =
  let engine, ensemble = make ~servers:4 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (ok_or_fail "seed" (s.Zk_client.create "/r" ~data:"")));
  Engine.run engine;
  for _ = 0 to 7 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for _ = 0 to 24 do
          ignore (s.Zk_client.get "/r")
        done)
  done;
  Engine.run engine;
  for i = 0 to 3 do
    check_bool (Printf.sprintf "server %d served reads" i) true
      (Ensemble.reads_served ensemble i > 0)
  done

(* {2 Failure injection} *)

let fast_faults cfg =
  { cfg with Ensemble.election_timeout = 0.2; request_timeout = 0.3 }

let test_leader_crash_and_election () =
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let results = ref [] in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:3 () in
      ignore (ok_or_fail "before crash" (s.Zk_client.create "/pre" ~data:""));
      Process.sleep 1.0;
      results := s.Zk_client.create "/post" ~data:"" :: !results);
  Engine.schedule engine ~delay:0.5 (fun () -> Ensemble.crash ensemble 0);
  Engine.run engine;
  (match Ensemble.leader_id ensemble with
  | Some id -> check_bool "new leader is not the crashed one" true (id <> 0)
  | None -> Alcotest.fail "no leader elected");
  (match !results with
  | [ Ok _ ] -> ()
  | [ Error e ] -> Alcotest.failf "write after election failed: %s" (Zerror.to_string e)
  | _ -> Alcotest.fail "missing result");
  let alive = Ensemble.alive_ids ensemble in
  check_int "four alive" 4 (List.length alive);
  let tree = Ensemble.tree_of ensemble (List.hd alive) in
  check_bool "post-election write present" true (Ztree.exists tree "/post" <> None)

let test_follower_crash_does_not_block_writes () =
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let done_ok = ref false in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      Process.sleep 0.2;
      ignore (ok_or_fail "write with 2 followers down" (s.Zk_client.create "/w" ~data:""));
      done_ok := true);
  Engine.schedule engine ~delay:0.05 (fun () ->
      Ensemble.crash ensemble 3;
      Ensemble.crash ensemble 4);
  Engine.run engine;
  check_bool "write committed with quorum 3/5" true !done_ok

let test_quorum_loss_blocks_then_recovers () =
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let during = ref None and after = ref None in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      Process.sleep 0.2;
      during := Some (s.Zk_client.create "/blocked" ~data:"");
      Process.sleep 5.0;
      after := Some (s.Zk_client.create "/recovered" ~data:""));
  Engine.schedule engine ~delay:0.05 (fun () ->
      Ensemble.crash ensemble 2;
      Ensemble.crash ensemble 3;
      Ensemble.crash ensemble 4);
  Engine.schedule engine ~delay:3.0 (fun () ->
      Ensemble.restart ensemble 2;
      Ensemble.restart ensemble 3);
  Engine.run engine;
  (match !during with
  | Some (Error Zerror.ZOPERATIONTIMEOUT) -> ()
  | Some (Ok _) -> Alcotest.fail "write should not commit without quorum"
  | Some (Error e) -> Alcotest.failf "unexpected error: %s" (Zerror.to_string e)
  | None -> Alcotest.fail "no result");
  (match !after with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "write after quorum restore should succeed")

let test_restarted_follower_catches_up () =
  let engine, ensemble = make ~servers:3 ~config_adjust:fast_faults () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to 9 do
        ignore (ok_or_fail "pre" (s.Zk_client.create (Printf.sprintf "/a%d" i) ~data:""))
      done;
      Process.sleep 0.1;
      Ensemble.crash ensemble 2;
      for i = 0 to 9 do
        ignore
          (ok_or_fail "during" (s.Zk_client.create (Printf.sprintf "/b%d" i) ~data:""))
      done;
      Process.sleep 0.1;
      Ensemble.restart ensemble 2);
  Engine.run engine;
  let restarted = Ensemble.tree_of ensemble 2 in
  check_bool "caught up with writes made while down" true
    (Ztree.exists restarted "/b9" <> None);
  check_bool "states equal" true (all_trees_agree ensemble ~servers:3)

let test_writes_during_crash_are_not_lost () =
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let acknowledged = ref [] in
  for proc = 0 to 3 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for i = 0 to 24 do
          let path = Printf.sprintf "/c%d_%d" proc i in
          match s.Zk_client.create path ~data:"" with
          | Ok _ -> acknowledged := path :: !acknowledged
          | Error _ -> ()
        done)
  done;
  Engine.schedule engine ~delay:0.002 (fun () -> Ensemble.crash ensemble 0);
  Engine.schedule engine ~delay:1.0 (fun () -> Ensemble.restart ensemble 0);
  Engine.run engine;
  check_bool "replicas agree after crash+restart" true
    (all_trees_agree ensemble ~servers:5);
  let tree = Ensemble.tree_of ensemble 1 in
  List.iter
    (fun path ->
      check_bool (Printf.sprintf "acknowledged %s present" path) true
        (Ztree.exists tree path <> None))
    !acknowledged

let test_snapshot_catch_up_after_long_outage () =
  (* the gap exceeds the snapshot-transfer threshold (512), so the
     returning follower is synchronized by whole-snapshot copy *)
  let engine, ensemble = make ~servers:3 ~config_adjust:fast_faults () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      Ensemble.crash ensemble 2;
      for i = 0 to 699 do
        ignore (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/big%04d" i) ~data:"x"))
      done;
      Ensemble.restart ensemble 2;
      (* and it keeps applying live traffic afterwards *)
      for i = 0 to 9 do
        ignore (ok_or_fail "tail" (s.Zk_client.create (Printf.sprintf "/tail%d" i) ~data:""))
      done);
  Engine.run engine;
  let restarted = Ensemble.tree_of ensemble 2 in
  check_bool "caught up through snapshot" true (Ztree.exists restarted "/big0699" <> None);
  check_bool "applies live traffic after snapshot" true
    (Ztree.exists restarted "/tail9" <> None);
  check_bool "all replicas agree" true (all_trees_agree ensemble ~servers:3)

let test_single_server_ensemble () =
  let engine, ensemble = make ~servers:1 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (ok_or_fail "create" (s.Zk_client.create "/solo" ~data:"x"));
      let data, _ = ok_or_fail "get" (s.Zk_client.get "/solo") in
      check_string "roundtrip" "x" data);
  Engine.run engine;
  check_int "committed" 1 (Ensemble.writes_committed ensemble)

(* {2 Exactly-once writes and watch survival} *)

let test_retried_committed_create_applies_once () =
  (* the origin follower dies after forwarding a create but before the
     commit's reply reaches it: the client times out and retries against
     another server, and the replicated dedup table answers with the
     original result instead of applying the transaction twice *)
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let result = ref (Error Zerror.ZCONNECTIONLOSS) in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:4 () in
      result := s.Zk_client.create "/once" ~data:"payload");
  (* 200 us: after server 4 forwarded the write to the leader, before
     the commit's Deliver_reply makes it back to server 4 *)
  Engine.schedule engine ~delay:0.0002 (fun () -> Ensemble.crash ensemble 4);
  Engine.run engine;
  (match !result with
  | Ok path -> check_string "retry returns the original result" "/once" path
  | Error e -> Alcotest.failf "retried create failed: %s" (Zerror.to_string e));
  check_int "transaction committed exactly once" 1
    (Ensemble.writes_committed ensemble);
  check_int "retry answered from the dedup table" 1 (Ensemble.dedup_hits ensemble);
  check_int "no duplicate znode" 2 (Ztree.node_count (Ensemble.tree_of ensemble 0))

let test_watches_survive_snapshot_transfer () =
  (* a follower that recovers via whole-snapshot copy must not lose its
     armed watches: nodes changed while it was down fire the missed
     event on reconnect, untouched ones are transplanted into the new
     tree and stay armed for later changes *)
  let engine, ensemble = make ~servers:3 ~config_adjust:fast_faults () in
  let hot_events = ref [] and cold_events = ref [] in
  Process.spawn engine (fun () ->
      let writer = Ensemble.session ensemble ~server:0 () in
      ignore (ok_or_fail "hot" (writer.Zk_client.create "/hot" ~data:"old"));
      ignore (ok_or_fail "cold" (writer.Zk_client.create "/cold" ~data:"keep"));
      let watcher = Ensemble.session ensemble ~server:2 () in
      ignore
        (ok_or_fail "arm hot"
           (watcher.Zk_client.get_watch "/hot" (fun e ->
                hot_events := e :: !hot_events)));
      ignore
        (ok_or_fail "arm cold"
           (watcher.Zk_client.get_watch "/cold" (fun e ->
                cold_events := e :: !cold_events)));
      Ensemble.crash ensemble 2;
      (* enough traffic while it is down to force SNAP (not DIFF) sync *)
      for i = 0 to 599 do
        ignore
          (ok_or_fail "bulk"
             (writer.Zk_client.create (Printf.sprintf "/bulk%03d" i) ~data:""))
      done;
      ignore (ok_or_fail "set hot" (writer.Zk_client.set "/hot" ~data:"new"));
      Ensemble.restart ensemble 2;
      Process.sleep 0.1;
      check_int "missed data change fires on reconnect" 1 (List.length !hot_events);
      (match !hot_events with
      | [ e ] ->
        check_bool "fires as a data-changed event" true
          (e.Ztree.kind = Ztree.Node_data_changed)
      | _ -> ());
      check_int "untouched watch does not fire spuriously" 0
        (List.length !cold_events);
      (* the transplanted watch is still armed in the new tree *)
      ignore (ok_or_fail "set cold" (writer.Zk_client.set "/cold" ~data:"now"));
      Process.sleep 0.1;
      check_int "transplanted watch fires on a later change" 1
        (List.length !cold_events));
  Engine.run engine;
  check_bool "replicas converge" true (all_trees_agree ensemble ~servers:3)

(* {2 Observers} *)

let make_with_observers ~servers ~observers () =
  let engine = Engine.create () in
  let cfg = { (Ensemble.default_config ~servers) with Ensemble.observers } in
  (engine, Ensemble.start engine cfg)

let test_observers_replicate_state () =
  let engine, ensemble = make_with_observers ~servers:3 ~observers:2 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to 19 do
        ignore (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/o%d" i) ~data:"x"))
      done);
  Engine.run engine;
  (* members 3 and 4 are observers; they hold the full state *)
  for id = 3 to 4 do
    check_bool
      (Printf.sprintf "observer %d applied all writes" id)
      true
      (Ztree.exists (Ensemble.tree_of ensemble id) "/o19" <> None);
    check_bool "observer state equals leader state" true
      (Ztree.equal_state (Ensemble.tree_of ensemble 0) (Ensemble.tree_of ensemble id))
  done

let test_observers_serve_reads () =
  let engine, ensemble = make_with_observers ~servers:3 ~observers:2 () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (ok_or_fail "seed" (s.Zk_client.create "/r" ~data:"")));
  Engine.run engine;
  (* ten sessions round-robin over 5 members: observers get their share *)
  for _ = 0 to 9 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for _ = 0 to 9 do
          ignore (s.Zk_client.get "/r")
        done)
  done;
  Engine.run engine;
  check_bool "observer 3 served reads" true (Ensemble.reads_served ensemble 3 > 0);
  check_bool "observer 4 served reads" true (Ensemble.reads_served ensemble 4 > 0)

let test_observer_session_reads_own_writes () =
  let engine, ensemble = make_with_observers ~servers:3 ~observers:1 () in
  let failures = ref 0 in
  Process.spawn engine (fun () ->
      (* member 3 is the observer *)
      let s = Ensemble.session ensemble ~server:3 () in
      for i = 0 to 19 do
        let path = Printf.sprintf "/ow%d" i in
        ignore (ok_or_fail "create" (s.Zk_client.create path ~data:""));
        if Result.is_error (s.Zk_client.get path) then incr failures
      done);
  Engine.run engine;
  check_int "own writes visible through the observer" 0 !failures

let test_observers_cheaper_than_voters_for_writes () =
  let write_rate ~servers ~observers =
    let engine, ensemble = make_with_observers ~servers ~observers () in
    let barrier = Simkit.Gate.Barrier.create ~parties:8 () in
    let t0 = ref 0. and t1 = ref 0. in
    for proc = 0 to 7 do
      Process.spawn engine (fun () ->
          let s = Ensemble.session ensemble ~server:0 () in
          Simkit.Gate.Barrier.await barrier;
          if proc = 0 then t0 := Engine.now engine;
          for i = 0 to 99 do
            ignore (s.Zk_client.create (Printf.sprintf "/w%d_%d" proc i) ~data:"")
          done;
          Simkit.Gate.Barrier.await barrier;
          if proc = 0 then t1 := Engine.now engine)
    done;
    Engine.run engine;
    800. /. (!t1 -. !t0)
  in
  let with_observers = write_rate ~servers:3 ~observers:4 in
  let with_voters = write_rate ~servers:7 ~observers:0 in
  check_bool
    (Printf.sprintf "3 voters + 4 observers writes (%.0f/s) > 7 voters (%.0f/s)"
       with_observers with_voters)
    true
    (with_observers > with_voters)

let test_observer_crash_harmless () =
  let engine, ensemble = make_with_observers ~servers:3 ~observers:1 () in
  let ok_write = ref false in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      Ensemble.crash ensemble 3;
      ignore (ok_or_fail "write with observer down" (s.Zk_client.create "/w" ~data:""));
      ok_write := true;
      Process.sleep 0.1;
      Ensemble.restart ensemble 3;
      ignore (ok_or_fail "write after restart" (s.Zk_client.create "/w2" ~data:"")));
  Engine.run engine;
  check_bool "writes unaffected by observer crash" true !ok_write;
  (match Ensemble.leader_id ensemble with
  | Some 0 -> ()
  | _ -> Alcotest.fail "observer crash must not trigger an election");
  (* the restarted observer caught up *)
  check_bool "observer caught up" true
    (Ztree.exists (Ensemble.tree_of ensemble 3) "/w2" <> None)

(* {2 Async API} *)

let test_async_completes_with_callback () =
  let engine, ensemble = make ~servers:3 () in
  let results = ref [] in
  let session = Ensemble.session ensemble () in
  session.Zk_client.multi_async
    [ Zk_client.create_op "/async1" ~data:"x" ]
    (fun r -> results := ("first", r) :: !results);
  session.Zk_client.multi_async
    [ Zk_client.create_op "/async1" ~data:"y" ]
    (fun r -> results := ("dup", r) :: !results);
  Engine.run engine;
  (match List.assoc_opt "first" !results with
  | Some (Ok [ Zk.Txn.Created "/async1" ]) -> ()
  | _ -> Alcotest.fail "first async create should succeed");
  (match List.assoc_opt "dup" !results with
  | Some (Error Zerror.ZNODEEXISTS) -> ()
  | _ -> Alcotest.fail "duplicate async create should fail with ZNODEEXISTS");
  check_bool "write visible" true
    (Ztree.exists (Ensemble.tree_of ensemble 0) "/async1" <> None)

let test_async_pipelining_beats_sync () =
  let run_creates ~async =
    let engine, ensemble = make ~servers:3 () in
    let per_client = 100 in
    let finish = ref 0. in
    if async then begin
      let session = Ensemble.session ensemble () in
      let submitted = ref 0 and completed = ref 0 in
      let rec refill () =
        if !submitted < per_client then begin
          let i = !submitted in
          incr submitted;
          session.Zk_client.multi_async
            [ Zk_client.create_op (Printf.sprintf "/n%d" i) ~data:"" ]
            (fun _ ->
              incr completed;
              if !completed = per_client then finish := Engine.now engine
              else refill ())
        end
      in
      for _ = 1 to 8 do refill () done
    end
    else
      Process.spawn engine (fun () ->
          let session = Ensemble.session ensemble () in
          for i = 0 to per_client - 1 do
            ignore (ok_or_fail "create" (session.Zk_client.create (Printf.sprintf "/n%d" i) ~data:""))
          done;
          finish := Engine.now engine);
    Engine.run engine;
    float_of_int 100 /. !finish
  in
  let sync_rate = run_creates ~async:false in
  let async_rate = run_creates ~async:true in
  check_bool
    (Printf.sprintf "async (%.0f/s) > 2x sync (%.0f/s) for one client" async_rate
       sync_rate)
    true
    (async_rate > 2. *. sync_rate)

let test_async_times_out_without_quorum () =
  let engine, ensemble = make ~servers:3 ~config_adjust:fast_faults () in
  Ensemble.crash ensemble 1;
  Ensemble.crash ensemble 2;
  let result = ref None in
  let session = Ensemble.session ensemble ~server:0 () in
  session.Zk_client.multi_async
    [ Zk_client.create_op "/never" ~data:"" ]
    (fun r -> result := Some r);
  Engine.run engine;
  (match !result with
  | Some (Error Zerror.ZOPERATIONTIMEOUT) -> ()
  | Some (Ok _) -> Alcotest.fail "committed without quorum"
  | Some (Error e) -> Alcotest.failf "unexpected %s" (Zerror.to_string e)
  | None -> Alcotest.fail "callback never fired")

(* {2 Group commit} *)

let with_batch max_batch cfg = { cfg with Ensemble.max_batch }

let test_batch_order_and_error_isolation () =
  (* ten pipelined writes from one session land in the leader's queue
     together, so max_batch = 8 groups them; per-txn replies must still
     arrive in submission order, and the two duplicate creates must fail
     alone without corrupting their batch neighbours *)
  let engine, ensemble =
    make ~servers:5 ~config_adjust:(with_batch 8) ()
  in
  let order = ref [] in
  let session = Ensemble.session ensemble () in
  let results = Array.make 10 None in
  List.iteri
    (fun i path ->
      session.Zk_client.multi_async
        [ Zk_client.create_op path ~data:"" ]
        (fun r ->
          order := i :: !order;
          results.(i) <- Some r))
    [ "/b0"; "/b1"; "/b2"; "/b0"; "/b3"; "/b4"; "/b5"; "/b1"; "/b6"; "/b7" ];
  Engine.run engine;
  check_bool "replies arrive in submission order" true
    (List.rev !order = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  Array.iteri
    (fun i r ->
      match (i, r) with
      | (3 | 7), Some (Error Zerror.ZNODEEXISTS) -> ()
      | (3 | 7), _ -> Alcotest.failf "txn %d: expected ZNODEEXISTS" i
      | _, Some (Ok _) -> ()
      | _, _ -> Alcotest.failf "txn %d: expected success" i)
    results;
  check_bool "replicas agree after mixed batch" true
    (all_trees_agree ensemble ~servers:5);
  let tree = Ensemble.tree_of ensemble 0 in
  List.iter
    (fun p -> check_bool (p ^ " present") true (Ztree.exists tree p <> None))
    [ "/b0"; "/b1"; "/b2"; "/b3"; "/b4"; "/b5"; "/b6"; "/b7" ]

let run_many_writes ~max_batch =
  let engine, ensemble =
    make ~servers:5 ~config_adjust:(with_batch max_batch) ()
  in
  let acked = ref 0 in
  for proc = 0 to 7 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for i = 0 to 49 do
          match s.Zk_client.create (Printf.sprintf "/n%d_%d" proc i) ~data:"x" with
          | Ok _ -> incr acked
          | Error e -> Alcotest.failf "create: %s" (Zerror.to_string e)
        done)
  done;
  Engine.run engine;
  (ensemble, !acked, Engine.now engine)

let test_max_batch_one_reproduces_commit_counts () =
  (* the knob at 1 must be today's pipeline: same acks, same commits *)
  let ensemble, acked, _ = run_many_writes ~max_batch:1 in
  check_int "all 400 writes acked" 400 acked;
  check_int "exactly 400 commits at max_batch=1" 400
    (Ensemble.writes_committed ensemble);
  check_bool "replicas converge" true (all_trees_agree ensemble ~servers:5)

let test_batched_commits_same_writes_faster () =
  let e1, acked1, t1 = run_many_writes ~max_batch:1 in
  let e16, acked16, t16 = run_many_writes ~max_batch:16 in
  check_int "unbatched acks" 400 acked1;
  check_int "batched acks" 400 acked16;
  check_int "batching changes no commit count" (Ensemble.writes_committed e1)
    (Ensemble.writes_committed e16);
  check_bool "batched replicas converge" true (all_trees_agree e16 ~servers:5);
  check_bool "batched and unbatched end states equal" true
    (Ztree.equal_state (Ensemble.tree_of e1 0) (Ensemble.tree_of e16 0));
  check_bool
    (Printf.sprintf "group commit is faster (%.4fs vs %.4fs virtual)" t16 t1)
    true (t16 < t1)

let test_leader_crash_mid_batch_loses_no_committed_write () =
  (* like the unbatched no-loss test, but with batches in flight when the
     leader dies: every acknowledged write must survive the election *)
  let engine, ensemble =
    make ~servers:5
      ~config_adjust:(fun cfg -> fast_faults (with_batch 8 cfg))
      ()
  in
  let acknowledged = ref [] in
  for proc = 0 to 3 do
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble () in
        for i = 0 to 24 do
          let path = Printf.sprintf "/c%d_%d" proc i in
          match s.Zk_client.create path ~data:"" with
          | Ok _ -> acknowledged := path :: !acknowledged
          | Error _ -> ()
        done)
  done;
  Engine.schedule engine ~delay:0.002 (fun () -> Ensemble.crash ensemble 0);
  Engine.schedule engine ~delay:1.0 (fun () -> Ensemble.restart ensemble 0);
  Engine.run engine;
  check_bool "some writes were acknowledged" true (!acknowledged <> []);
  check_bool "replicas agree after crash mid-batch" true
    (all_trees_agree ensemble ~servers:5);
  let tree = Ensemble.tree_of ensemble 1 in
  List.iter
    (fun path ->
      check_bool (Printf.sprintf "acknowledged %s survives" path) true
        (Ztree.exists tree path <> None))
    !acknowledged

(* {2 Crash hygiene: dedup eviction and inbox flush} *)

let test_close_session_evicts_dedup_entries () =
  (* The exactly-once dedup table is keyed by (session, cxid); entries
     for a closed session can never be hit again, so the applied
     Close_session must reap them on every replica. It reaps exactly
     that session's writes, keeps the close's own entry (a retried close
     still answers from the table), and leaves other sessions alone: a
     later retry of theirs is still a dedup hit. *)
  let engine, ensemble = make ~servers:5 ~config_adjust:fast_faults () in
  let a_id = ref 0L and b_id = ref 0L in
  let b_retried = ref (Error Zerror.ZCONNECTIONLOSS) in
  Process.spawn engine (fun () ->
      let a = Ensemble.session ensemble ~server:1 () in
      let b = Ensemble.session ensemble ~server:4 () in
      a_id := a.Zk_client.session_id;
      b_id := b.Zk_client.session_id;
      for i = 0 to 1 do
        ignore
          (ok_or_fail "create" (b.Zk_client.create (Printf.sprintf "/b%d" i) ~data:""))
      done;
      for i = 0 to 4 do
        ignore
          (ok_or_fail "create"
             (a.Zk_client.create (Printf.sprintf "/ev%d" i) ~data:""))
      done;
      check_int "no evictions while the session lives" 0
        (Ensemble.dedup_evictions ensemble);
      a.Zk_client.close ();
      (* B's origin dies after forwarding its next create and before the
         reply returns (the timing of the retried-create test): the
         retry goes elsewhere and must be answered from B's row *)
      Engine.schedule engine ~delay:0.0002 (fun () -> Ensemble.crash ensemble 4);
      b_retried := b.Zk_client.create "/b-retry" ~data:"");
  Engine.run engine;
  check_int "closing A evicted exactly its five writes" 5
    (Ensemble.dedup_evictions ensemble);
  let cxids = Alcotest.(list int64) in
  List.iter
    (fun id ->
      Alcotest.check cxids
        (Printf.sprintf "server %d keeps only A's close" id)
        [ 5L ]
        (Ensemble.dedup_cxids ensemble id ~session:!a_id);
      Alcotest.check cxids
        (Printf.sprintf "server %d keeps all of B's writes" id)
        [ 0L; 1L; 2L ]
        (Ensemble.dedup_cxids ensemble id ~session:!b_id))
    [ 0; 1; 2; 3 ];
  (match !b_retried with
   | Ok path -> check_string "B's retry returns the original result" "/b-retry" path
   | Error e -> Alcotest.failf "B's retried create failed: %s" (Zerror.to_string e));
  check_int "B's retry answered from the dedup table" 1
    (Ensemble.dedup_hits ensemble);
  check_bool "replicas agree after close" true
    (all_trees_agree ensemble ~servers:4)

let test_crash_flushes_queued_inbox () =
  (* A crash loses RAM, including requests sitting unprocessed in the
     server's inbox. Regression for the inbox flush: without it, the
     restarted server would drain its stale pre-crash queue and writes
     every client had long given up on would materialise in the tree. *)
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun cfg ->
        { (fast_faults cfg) with Ensemble.persist = 0.05 })
      ()
  in
  let writes = 20 in
  let acked = ref 0 and errs = ref 0 in
  let post_restart = ref None in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to writes - 1 do
        s.Zk_client.multi_async
          [ Zk_client.create_op (Printf.sprintf "/q%d" i) ~data:"" ]
          (function Ok _ -> incr acked | Error _ -> incr errs)
      done);
  (* 50 ms persist: at 10 ms the leader is mid-persist on the head
     write and the rest of the burst is still queued in its inbox *)
  Engine.schedule engine ~delay:0.01 (fun () -> Ensemble.crash ensemble 0);
  Engine.schedule engine ~delay:0.5 (fun () -> Ensemble.restart ensemble 0);
  Process.spawn engine (fun () ->
      Process.sleep 1.0;
      let s = Ensemble.session ensemble ~server:0 () in
      post_restart := Some (s.Zk_client.create "/fresh" ~data:""));
  Engine.run engine;
  check_int "every async callback fired" writes (!acked + !errs);
  check_bool "the crash failed the queued writes" true (!errs >= writes - 1);
  (match !post_restart with
  | Some (Ok _) -> ()
  | Some (Error e) ->
    Alcotest.failf "post-restart write failed: %s" (Zerror.to_string e)
  | None -> Alcotest.fail "post-restart write never ran");
  check_bool "replicas agree after restart" true
    (all_trees_agree ensemble ~servers:3);
  (* Exactly-once across the flush: a queued write either reached the
     replicated log before the crash (and was acknowledged) or it
     vanished with the inbox — never a third, resurrected, outcome. *)
  let tree = Ensemble.tree_of ensemble 1 in
  let present = ref 0 in
  for i = 0 to writes - 1 do
    if Ztree.exists tree (Printf.sprintf "/q%d" i) <> None then incr present
  done;
  check_int "tree holds exactly the acknowledged writes" !acked !present

(* {2 Performance-model sanity (the shapes behind Fig. 7)} *)

let measure_rate ~servers ~write =
  let engine, ensemble = make ~servers () in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      ignore (s.Zk_client.create "/bench" ~data:""));
  Engine.run engine;
  let sessions = Array.init 8 (fun _ -> Ensemble.session ensemble ()) in
  let t0 = ref 0. and t1 = ref 0. in
  let barrier = Simkit.Gate.Barrier.create ~parties:8 () in
  for proc = 0 to 7 do
    Process.spawn engine (fun () ->
        Simkit.Gate.Barrier.await barrier;
        if proc = 0 then t0 := Engine.now engine;
        let s = sessions.(proc) in
        for i = 0 to 99 do
          if write then
            ignore (s.Zk_client.create (Printf.sprintf "/bench/w%d_%d" proc i) ~data:"")
          else ignore (s.Zk_client.get "/bench")
        done;
        Simkit.Gate.Barrier.await barrier;
        if proc = 0 then t1 := Engine.now engine)
  done;
  Engine.run engine;
  800. /. (!t1 -. !t0)

let test_write_throughput_decreases_with_servers () =
  let r1 = measure_rate ~servers:1 ~write:true in
  let r8 = measure_rate ~servers:8 ~write:true in
  check_bool
    (Printf.sprintf "1-server writes (%.0f/s) faster than 8-server (%.0f/s)" r1 r8)
    true (r1 > r8)

let test_read_throughput_increases_with_servers () =
  let r1 = measure_rate ~servers:1 ~write:false in
  let r8 = measure_rate ~servers:8 ~write:false in
  check_bool
    (Printf.sprintf "8-server reads (%.0f/s) faster than 1-server (%.0f/s)" r8 r1)
    true (r8 > 2. *. r1)

(* {2 Memory} *)

(* What a committed write costs each replica in host memory, marginal
   over a run: its WAL window slot and fsync row, its dedup row and its
   [log] slot. The entry itself is one value per ensemble, built by the
   leader and pointed at by every member, so a member's share stays
   near its own table slots. Both ends of the window lie below
   [snapshot_every], so no snapshot prunes the log in between, and one
   session's writes commit one per fsync.

   The bound is the 18.7 words measured plus 1.3, under what a shallow
   per-follower copy of the entry costs (23.5). Earlier designs cost
   24.9 words with a WAL record per txn, 29.7 with that and a follower
   copy, 34.5 with a follower copy that also boxes its own zxid and
   rid, and 44.7 with the per-member tuples and records that the entry
   replaced. *)
let committed_words_per_member ~servers ~from ~upto =
  let engine, ensemble = make ~servers () in
  let session = Ensemble.session ensemble () in
  let sets n =
    Process.spawn engine (fun () ->
        for _ = 1 to n do
          ignore (ok_or_fail "set" (session.Zk_client.set "/k" ~data:"v"))
        done);
    Engine.run engine
  in
  let words () =
    Gc.full_major ();
    Obj.reachable_words (Obj.repr ensemble)
  in
  Process.spawn engine (fun () ->
      ignore (ok_or_fail "create" (session.Zk_client.create "/k" ~data:"v")));
  Engine.run engine;
  sets (from - 1);
  let before = words () in
  sets (upto - from);
  let after = words () in
  float_of_int (after - before) /. float_of_int ((upto - from) * servers)

let test_committed_write_unit_cost () =
  let per = committed_words_per_member ~servers:5 ~from:200 ~upto:2_200 in
  check_bool
    (Printf.sprintf "%.1f words per member per committed write, at most 20" per)
    true (per <= 20.)

(* {2 Session close} *)

(* The close txn deletes the session's ephemerals deepest first and,
   at equal depth, in path order — whatever order they were created
   in. The watches on the serving replica fire in op order. *)
let test_close_deletes_ephemerals_in_path_order () =
  let engine, ensemble = make ~servers:3 () in
  let fired = ref [] in
  let paths = [ "/e/c"; "/e/a"; "/z"; "/e/b"; "/y" ] in
  Process.spawn engine (fun () ->
      let owner = Ensemble.session ensemble ~server:0 () in
      let watcher = Ensemble.session ensemble ~server:0 () in
      ignore (ok_or_fail "dir" (owner.Zk_client.create "/e" ~data:""));
      List.iter
        (fun path ->
          ignore (ok_or_fail path (owner.Zk_client.create ~ephemeral:true path ~data:"")))
        paths;
      List.iter
        (fun path ->
          watcher.Zk_client.watch_data path (fun ev -> fired := ev.Ztree.path :: !fired))
        paths;
      owner.Zk_client.close ();
      watcher.Zk_client.sync ());
  Engine.run engine;
  Alcotest.(check (list string))
    "deepest first, then by path" [ "/e/a"; "/e/b"; "/e/c"; "/y"; "/z" ] (List.rev !fired)

let () =
  Alcotest.run "ensemble"
    [ ( "replication",
        [ Alcotest.test_case "write replicates to all" `Quick
            test_write_replicates_to_all;
          Alcotest.test_case "replicas identical after many writes" `Quick
            test_replicas_identical_after_many_writes;
          Alcotest.test_case "total order (Fig. 1 scenario)" `Quick
            test_total_order_observed;
          Alcotest.test_case "session reads own writes" `Quick
            test_session_reads_own_writes;
          Alcotest.test_case "sequential across clients" `Quick
            test_sequential_across_clients;
          Alcotest.test_case "multi atomicity replicated" `Quick
            test_multi_atomicity_replicated;
          Alcotest.test_case "ephemerals removed on close" `Quick
            test_ephemerals_removed_on_close;
          Alcotest.test_case "reads distributed" `Quick
            test_reads_distributed_across_servers;
          Alcotest.test_case "single-server ensemble" `Quick test_single_server_ensemble;
          Alcotest.test_case "settled requests leave no timers" `Quick
            test_settled_requests_leave_no_timers ] );
      ( "faults",
        [ Alcotest.test_case "leader crash and election" `Quick
            test_leader_crash_and_election;
          Alcotest.test_case "follower crash tolerated" `Quick
            test_follower_crash_does_not_block_writes;
          Alcotest.test_case "quorum loss blocks then recovers" `Quick
            test_quorum_loss_blocks_then_recovers;
          Alcotest.test_case "restarted follower catches up" `Quick
            test_restarted_follower_catches_up;
          Alcotest.test_case "no loss across crash+restart" `Quick
            test_writes_during_crash_are_not_lost;
          Alcotest.test_case "retried committed create applies once" `Quick
            test_retried_committed_create_applies_once;
          Alcotest.test_case "watches survive snapshot transfer" `Quick
            test_watches_survive_snapshot_transfer;
          Alcotest.test_case "snapshot catch-up after long outage" `Quick
            test_snapshot_catch_up_after_long_outage;
          Alcotest.test_case "close evicts dedup entries" `Quick
            test_close_session_evicts_dedup_entries;
          Alcotest.test_case "crash flushes queued inbox" `Quick
            test_crash_flushes_queued_inbox ] );
      ( "observers",
        [ Alcotest.test_case "replicate state" `Quick test_observers_replicate_state;
          Alcotest.test_case "serve reads" `Quick test_observers_serve_reads;
          Alcotest.test_case "session reads own writes" `Quick
            test_observer_session_reads_own_writes;
          Alcotest.test_case "cheaper than voters for writes" `Quick
            test_observers_cheaper_than_voters_for_writes;
          Alcotest.test_case "crash harmless" `Quick test_observer_crash_harmless ] );
      ( "group-commit",
        [ Alcotest.test_case "per-txn order and error isolation" `Quick
            test_batch_order_and_error_isolation;
          Alcotest.test_case "max_batch=1 reproduces commit counts" `Quick
            test_max_batch_one_reproduces_commit_counts;
          Alcotest.test_case "batched commits same writes faster" `Quick
            test_batched_commits_same_writes_faster;
          Alcotest.test_case "leader crash mid-batch loses nothing" `Quick
            test_leader_crash_mid_batch_loses_no_committed_write ] );
      ( "async",
        [ Alcotest.test_case "completes with callback" `Quick
            test_async_completes_with_callback;
          Alcotest.test_case "pipelining beats sync" `Quick
            test_async_pipelining_beats_sync;
          Alcotest.test_case "times out without quorum" `Quick
            test_async_times_out_without_quorum ] );
      ( "performance-model",
        [ Alcotest.test_case "writes slow down with ensemble size" `Quick
            test_write_throughput_decreases_with_servers;
          Alcotest.test_case "reads speed up with ensemble size" `Quick
            test_read_throughput_increases_with_servers;
          Alcotest.test_case "committed write costs <= 20 words/member" `Quick
            test_committed_write_unit_cost ] );
      ( "sessions",
        [ Alcotest.test_case "close deletes ephemerals in path order" `Quick
            test_close_deletes_ephemerals_in_path_order ] ) ]
