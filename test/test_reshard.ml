(* Online resharding: the live split/merge state machine. Immediate-mode
   tests pin the migration mechanics (remainder-only moves, exact znode
   census through split and merge, stub promotion/demotion, ephemeral
   flattening); simulation tests pin what clients are allowed to observe
   — a session holding a warm lease cache over a directory that migrates
   mid-lease must not serve stale local reads after the flip, raw
   server-side watches armed on the old owner fire at the flip, and
   traffic flowing through the migration window stays linearizable
   under the history checker. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Router = Zk.Shard_router
module Reshard = Zk.Reshard
module Ensemble = Zk.Ensemble
module Zk_client = Zk.Zk_client
module Zerror = Zk.Zerror
module Cache = Dufs.Cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Zerror.to_string e)

let get_data label h path = fst (ok label (h.Zk_client.get path))

(* {2 Immediate-mode mechanics} *)

let dirs = 24
let files = 4

let build_namespace h =
  for d = 0 to dirs - 1 do
    let dir = Printf.sprintf "/d%02d" d in
    ignore (ok "mkdir" (h.Zk_client.create dir ~data:("meta-" ^ dir)));
    for f = 0 to files - 1 do
      let p = Printf.sprintf "%s/f%d" dir f in
      ignore (ok "create" (h.Zk_client.create p ~data:(p ^ "-v0")))
    done
  done

(* Every datum and every listing, via the routed session — the
   client-visible contents, wherever the shards put them. *)
let snapshot h =
  List.concat_map
    (fun d ->
      let dir = Printf.sprintf "/d%02d" d in
      let listing = String.concat "," (ok "children" (h.Zk_client.children dir)) in
      (dir ^ " -> " ^ listing)
      :: (dir ^ " = " ^ get_data "dir data" h dir)
      :: List.init files (fun f ->
             let p = Printf.sprintf "%s/f%d" dir f in
             p ^ " = " ^ get_data "file data" h p))
    (List.init dirs Fun.id)

let test_local_split_and_merge_roundtrip () =
  let t = Router.local ~shards:2 () in
  let h = Router.session t () in
  build_namespace h;
  let population = Router.logical_population t in
  let before = snapshot h in
  let rs = Reshard.split ~drain:0. t ~to_shards:4 () in
  check_int "no per-node errors" 0 rs.Reshard.errors;
  check_bool
    (Printf.sprintf "remainder only: %d of %d keys moved" rs.Reshard.keys_migrated
       rs.Reshard.keys_total)
    true
    (rs.Reshard.keys_migrated > 0 && rs.Reshard.keys_migrated < rs.Reshard.keys_total);
  check_int "placement widened" 4 (Router.placement_shards (Router.placement t));
  check_int "census exact after split" population (Router.logical_population t);
  let loads = Router.placement_loads (Router.placement t) in
  let mx = Array.fold_left max 0 loads and mn = Array.fold_left min max_int loads in
  check_bool "loads rebalanced within one" true (mx - mn <= 1);
  Alcotest.(check (list string)) "split is invisible to readers" before (snapshot h);
  (* new work lands under the new regime and reads back *)
  ignore (ok "post-split mkdir" (h.Zk_client.create "/after" ~data:"a"));
  ignore (ok "post-split create" (h.Zk_client.create "/after/x" ~data:"ax"));
  check_string "post-split read" "ax" (get_data "post" h "/after/x");
  let population4 = Router.logical_population t in
  (* and the whole thing contracts again: backends 2 and 3 drain *)
  let rs2 = Reshard.merge ~drain:0. t ~to_shards:2 () in
  check_int "merge: no per-node errors" 0 rs2.Reshard.errors;
  check_bool "merge moves a remainder" true (rs2.Reshard.keys_migrated > 0);
  check_int "census exact after merge" population4 (Router.logical_population t);
  Alcotest.(check (list string)) "merge is invisible to readers" before (snapshot h);
  check_string "post-split file survives the merge" "ax"
    (get_data "post merge" h "/after/x");
  Array.iteri
    (fun i n ->
      if i >= 2 then
        check_int (Printf.sprintf "drained shard %d holds only its root" i) 1 n)
    (Router.node_counts t)

let test_local_split_flattens_ephemerals () =
  let t = Router.local ~shards:2 () in
  let h = Router.session t () in
  for d = 0 to 15 do
    let dir = Printf.sprintf "/e%02d" d in
    ignore (ok "mkdir" (h.Zk_client.create dir ~data:""));
    ignore (ok "eph" (h.Zk_client.create ~ephemeral:true (dir ^ "/tmp") ~data:"t"))
  done;
  let pl = Router.placement t in
  let root_before = Router.assigned_shard pl "/" in
  let rs = Reshard.split ~drain:0. t ~to_shards:3 () in
  let root_moved = Router.assigned_shard pl "/" <> root_before in
  (* every migrated directory key carried exactly one ephemeral child;
     the root key's children (the directories) are persistent *)
  check_int "each migrated dir flattened its ephemeral"
    (rs.Reshard.keys_migrated - (if root_moved then 1 else 0))
    rs.Reshard.ephemerals_flattened;
  check_bool "flattening is logged, not counted as failure" true
    ((Router.stats t).Router.rollback_failures = 0);
  if rs.Reshard.ephemerals_flattened > 0 then
    check_bool "note taken" true
      ((Router.stats t).Router.orphan_notes_total > 0)

let test_split_rejects_non_growth () =
  let t = Router.local ~shards:2 () in
  (match Reshard.split ~drain:0. t ~to_shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "split to the same count must be rejected");
  match Reshard.merge ~drain:0. t ~to_shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merge to the same count must be rejected"

(* {2 Mid-lease migration must not leave stale caches}

   The regression: a client warms its cache over a directory, the
   directory migrates to another shard, a writer updates it through the
   new owner — and nothing ever invalidates the old entries, because
   the lease state guarding them is parked on the old shard, where the
   write will never arrive. The flip must revoke that state. Every
   client-visible read is recorded in the linearizability history. *)

let cfg ~seed =
  { (Ensemble.default_config ~servers:3) with Ensemble.seed; lease_ttl = 30.0 }

let test_mid_lease_migration_leases () =
  let engine = Engine.create () in
  let t = Router.start engine ~shards:2 (cfg ~seed:41L) in
  let hist = Zk.History.create engine in
  let done_ = ref false in
  Process.spawn engine (fun () ->
      let writer = Zk.History.wrap hist ~client:0 (Router.session t ()) in
      for d = 0 to 11 do
        let dir = Printf.sprintf "/d%02d" d in
        ignore (ok "mkdir" (writer.Zk_client.create dir ~data:""));
        ignore (ok "seed" (writer.Zk_client.create (dir ^ "/f") ~data:"v0"))
      done;
      ignore (ok "empty dir" (writer.Zk_client.create "/empty" ~data:""));
      let cache =
        Cache.wrap ~now:(fun () -> Engine.now engine) (Router.session t ())
      in
      (* the history sits above the cache, so local serves are checked *)
      let reader = Zk.History.wrap hist ~client:1 (Cache.handle cache) in
      for d = 0 to 11 do
        let dir = Printf.sprintf "/d%02d" d in
        check_string "warm" "v0" (get_data "warm" reader (dir ^ "/f"));
        ignore (ok "warm listing" (reader.Zk_client.children dir))
      done;
      (* a cached empty listing and a cached negative entry *)
      Alcotest.(check (list string)) "empty dir cached" []
        (ok "empty" (reader.Zk_client.children "/empty"));
      (match reader.Zk_client.get "/empty/missing" with
      | Error Zerror.ZNONODE -> ()
      | _ -> Alcotest.fail "expected ZNONODE");
      (* split while every lease above is live *)
      let rs = Reshard.split t ~to_shards:4 () in
      check_int "split: no per-node errors" 0 rs.Reshard.errors;
      check_bool "split moved keys mid-lease" true (rs.Reshard.keys_migrated > 0);
      (* writes land through the new owners *)
      for d = 0 to 11 do
        ok "update" (writer.Zk_client.set (Printf.sprintf "/d%02d/f" d) ~data:"v1")
      done;
      ignore (ok "fill" (writer.Zk_client.create "/empty/missing" ~data:"now"));
      (* no stale local serves: every cached entry must re-fetch *)
      for d = 0 to 11 do
        let dir = Printf.sprintf "/d%02d" d in
        check_string (dir ^ " is fresh after the flip") "v1"
          (get_data "fresh" reader (dir ^ "/f"));
        Alcotest.(check (list string)) (dir ^ " listing fresh") [ "f" ]
          (ok "listing" (reader.Zk_client.children dir))
      done;
      Alcotest.(check (list string)) "cached empty listing refreshed" [ "missing" ]
        (ok "empty after" (reader.Zk_client.children "/empty"));
      (* absent children cannot be enumerated at the flip: leased
         negative entries stay TTL-bounded (DESIGN.md §10) *)
      done_ := true);
  Engine.run engine;
  check_bool "scenario ran to completion" true !done_;
  let violations = Zk.History.check hist in
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "RESHARD VIOLATION [%s] %s: %s\n%!" v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    violations;
  check_int "history clean" 0 (List.length violations);
  check_bool "history non-trivial" true (Zk.History.recorded hist > 50)

(* {2 The flip fires server-side watches}

   Watches stay a server feature ({!Zk.Zk_client.handle} exposes
   them), so the flip must fire the ones parked on the old owner: a
   data watch on a child, a child watch on the directory, and an
   exists-watch on an absent child. Each is armed raw, through a
   routed session, and each must have fired by the time the split
   returns — before any write lands through the new owner. Directories
   the split leaves in place keep their watches armed. *)

let test_split_fires_server_watches () =
  let engine = Engine.create () in
  let t = Router.start engine ~shards:2 (cfg ~seed:41L) in
  let done_ = ref false in
  Process.spawn engine (fun () ->
      let writer = Router.session t () in
      let dirs = List.init 12 (fun d -> Printf.sprintf "/d%02d" d) in
      List.iter
        (fun dir ->
          ignore (ok "mkdir" (writer.Zk_client.create dir ~data:""));
          ignore (ok "seed" (writer.Zk_client.create (dir ^ "/f") ~data:"v0")))
        dirs;
      let h = Router.session t () in
      let fired = Hashtbl.create 64 in
      let note kind dir (_ : Zk.Ztree.watch_event) =
        Hashtbl.replace fired (kind ^ " " ^ dir) ()
      in
      List.iter
        (fun dir ->
          ignore (ok "get_watch" (h.Zk_client.get_watch (dir ^ "/f") (note "data" dir)));
          ignore (ok "children_watch" (h.Zk_client.children_watch dir (note "kids" dir)));
          match h.Zk_client.get_watch (dir ^ "/missing") (note "exists" dir) with
          | Error Zerror.ZNONODE -> ()
          | _ -> Alcotest.fail "expected ZNONODE")
        dirs;
      let home dir = Router.home_shard t (dir ^ "/f") in
      let home_before = List.map home dirs in
      let rs = Reshard.split t ~to_shards:4 () in
      check_int "split: no per-node errors" 0 rs.Reshard.errors;
      let moved =
        List.filteri (fun i dir -> home dir <> List.nth home_before i) dirs
      in
      check_bool "split moved some watched directories" true (moved <> []);
      List.iter
        (fun dir ->
          List.iter
            (fun kind ->
              let label = kind ^ " " ^ dir in
              check_bool (label ^ " watch fired at the split")
                (List.mem dir moved) (Hashtbl.mem fired label))
            [ "data"; "kids"; "exists" ])
        dirs;
      done_ := true);
  Engine.run engine;
  check_bool "scenario ran to completion" true !done_

(* {2 Traffic through the migration window}

   Writers and readers keep hammering a directory while its key is
   split away. Ops issued pre-flip route to the old owner, ops issued
   mid-migration park and resume against the new owner; the recorded
   history must stay linearizable and no update may be lost. *)

let test_split_under_live_traffic_history_checked () =
  let engine = Engine.create () in
  let t = Router.start engine ~shards:2 (cfg ~seed:97L) in
  let hist = Zk.History.create engine in
  let writes = 40 and reads = 60 in
  let completed = ref 0 in
  Process.spawn engine (fun () ->
      let h = Zk.History.wrap hist ~client:0 (Router.session t ()) in
      ignore (ok "mk hot" (h.Zk_client.create "/hot" ~data:""));
      ignore (ok "mk f" (h.Zk_client.create "/hot/f" ~data:"w0"));
      (* a few cold dirs so the plan has a real remainder *)
      for d = 0 to 19 do
        ignore (ok "cold" (h.Zk_client.create (Printf.sprintf "/c%02d" d) ~data:""))
      done;
      for i = 1 to writes do
        ok "write" (h.Zk_client.set "/hot/f" ~data:(Printf.sprintf "w%d" i));
        incr completed;
        Process.sleep 0.02
      done);
  Process.spawn engine (fun () ->
      let h = Zk.History.wrap hist ~client:1 (Router.session t ()) in
      Process.sleep 0.05;
      for _ = 1 to reads do
        (match h.Zk_client.get "/hot/f" with
        | Ok _ | Error Zerror.ZNONODE -> ()
        | Error e -> Alcotest.failf "read: %s" (Zerror.to_string e));
        incr completed;
        Process.sleep 0.015
      done);
  let migrated = ref (-1) in
  Process.spawn engine (fun () ->
      Process.sleep 0.2;
      let rs = Reshard.split t ~to_shards:4 () in
      check_int "live split: no per-node errors" 0 rs.Reshard.errors;
      migrated := rs.Reshard.keys_migrated);
  Engine.run engine;
  check_int "all client ops completed" (writes + reads) !completed;
  check_bool "the split migrated keys under load" true (!migrated > 0);
  (* the last write is the value on whatever shard now owns /hot *)
  let final = ref "" in
  Process.spawn engine (fun () ->
      let h = Router.session t () in
      final := get_data "final" h "/hot/f");
  Engine.run engine;
  check_string "no lost update" (Printf.sprintf "w%d" writes) !final;
  let violations = Zk.History.check hist in
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "LIVE-SPLIT VIOLATION [%s] %s: %s\n%!" v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    violations;
  check_int "history linearizable through the split" 0 (List.length violations);
  check_bool "history non-trivial" true
    (Zk.History.recorded hist >= writes + reads)

let () =
  Alcotest.run "reshard"
    [ ( "mechanics",
        [ Alcotest.test_case "split and merge roundtrip" `Quick
            test_local_split_and_merge_roundtrip;
          Alcotest.test_case "ephemerals flatten with a note" `Quick
            test_local_split_flattens_ephemerals;
          Alcotest.test_case "direction validated" `Quick test_split_rejects_non_growth ] );
      ( "mid-lease",
        [ Alcotest.test_case "leases mode: no stale serves after flip" `Quick
            test_mid_lease_migration_leases;
          Alcotest.test_case "split fires the old owner's watches" `Quick
            test_split_fires_server_watches ] );
      ( "live-traffic",
        [ Alcotest.test_case "linearizable through a live split" `Slow
            test_split_under_live_traffic_history_checked ] ) ]
