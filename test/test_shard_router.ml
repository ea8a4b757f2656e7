(* Tests for the shard router: bounded-load placement, the routing
   invariant (parent-directory co-location), full client-surface parity
   against the single-tree service, lazy stub semantics, the
   cross-shard atomicity boundary (two-phase deletes, multi rollback,
   orphan notes + Fsck repair), and the sharded failure path. *)

module Router = Zk.Shard_router
module Zk_local = Zk.Zk_local
module Zk_client = Zk.Zk_client
module Zerror = Zk.Zerror
module Ztree = Zk.Ztree
module Errno = Fuselike.Errno
module Memfs = Fuselike.Memfs
module Systems = Scenarios.Systems

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Zerror.to_string e)

let ok_fs label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Errno.to_string e)

let err = Zerror.to_string

(* {2 Placement} *)

let test_placement_balance_and_stability () =
  let p = Router.make_placement ~shards:4 () in
  let keys = List.init 100 (Printf.sprintf "/dir%02d") in
  let first = List.map (fun k -> (k, Router.place p k)) keys in
  let loads = Array.make 4 0 in
  List.iter (fun (_, s) -> loads.(s) <- loads.(s) + 1) first;
  let mx = Array.fold_left max 0 loads
  and mn = Array.fold_left min max_int loads in
  check_bool "per-shard key counts within one" true (mx - mn <= 1);
  (* memoized: a key's shard never moves *)
  List.iter (fun (k, s) -> check_int ("stable " ^ k) s (Router.place p k)) first

let test_placement_loose_eps_follows_the_ring () =
  let p = Router.make_placement ~eps:1000. ~shards:2 () in
  let ring = Router.placement_ring p in
  List.iter
    (fun k ->
      check_int ("ring choice " ^ k) (Zk.Consistent_hash.lookup ring k)
        (Router.place p k))
    (List.init 50 (Printf.sprintf "/k%d"))

(* The cap is the ceil formula alone, checked after every placement —
   including placements replayed over a widened ring by a reshard and
   fresh keys placed after the flip. *)
let prop_bounded_load =
  let gen =
    QCheck2.Gen.(
      triple (int_range 1 8) (float_range 0. 2.)
        (list_size (int_range 1 150) (int_range 0 999)))
  in
  QCheck2.Test.make
    ~name:"per-shard load never exceeds ceil((1+eps)*total/shards)" ~count:200
    gen (fun (shards, eps, keys) ->
      let p = Router.make_placement ~eps ~shards () in
      let ok = ref true in
      let check_cap () =
        let total = Router.keys_assigned p in
        let n = Router.placement_shards p in
        let cap =
          int_of_float (ceil ((1. +. eps) *. float_of_int total /. float_of_int n))
        in
        Array.iter (fun l -> if l > cap then ok := false) (Router.placement_loads p)
      in
      List.iter
        (fun k ->
          ignore (Router.place p (Printf.sprintf "/d%03d" k));
          check_cap ())
        keys;
      (* widen the ring: the migration plan commits new loads that must
         respect the new cap, before and after the per-key flips *)
      let moves = Router.prepare_reshard p ~shards:(shards + 2) in
      check_cap ();
      List.iter (fun (key, _src, dst) -> Router.finish_migration p key ~dst) moves;
      List.iter
        (fun k ->
          ignore (Router.place p (Printf.sprintf "/e%03d" k));
          check_cap ())
        keys;
      !ok)

let test_note_log_capped_and_counters_split () =
  let s = Router.fresh_stats () in
  Router.note s "first";
  check_int "informational note is not a failure" 0 s.Router.rollback_failures;
  check_int "total counts it" 1 s.Router.orphan_notes_total;
  for i = 2 to 250 do
    Router.note s (Printf.sprintf "n%d" i)
  done;
  check_int "log capped at 200" 200 (List.length s.Router.orphan_notes);
  check_int "overflow counted" 50 s.Router.orphan_notes_dropped;
  check_int "total keeps counting" 250 s.Router.orphan_notes_total;
  (match s.Router.orphan_notes with
  | newest :: _ -> Alcotest.(check string) "newest kept" "n250" newest
  | [] -> Alcotest.fail "note log empty");
  check_bool "oldest rotated out" true
    (not (List.mem "first" s.Router.orphan_notes));
  Router.note_failure s "partial commit";
  check_int "failure note bumps the counter" 1 s.Router.rollback_failures;
  check_int "and lands in the log too" 251 s.Router.orphan_notes_total

let test_placement_rejects_bad_args () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Router.make_placement ~shards:0 ());
  raises (fun () -> Router.make_placement ~eps:(-0.1) ~shards:2 ());
  raises (fun () -> Router.make_ring ~shards:0)

(* {2 Routing invariant} *)

let test_sibling_colocation () =
  let t = Router.local ~shards:4 () in
  let h = Router.session t () in
  ignore (ok "mkdir" (h.Zk_client.create "/app" ~data:""));
  let child i = Printf.sprintf "/app/n%02d" i in
  for i = 0 to 19 do
    ignore (ok "create" (h.Zk_client.create (child i) ~data:"x"))
  done;
  let s0 = Router.home_shard t (child 0) in
  for i = 1 to 19 do
    check_int "siblings co-locate" s0 (Router.home_shard t (child i))
  done;
  check_int "every child in one listing" 20
    (List.length (ok "children" (h.Zk_client.children "/app")))

(* {2 Parity: Zk_local vs 1-shard vs 4-shard router}

   The same operation script runs against the plain single-tree service
   and routed deployments of 1 and 4 shards; the normalized transcripts
   must match byte for byte. Normalization keeps data, versions,
   ephemeralness, listings, returned paths and error codes; it excludes
   zxids, timestamps, session ids, and num_children/cversion of parent
   directories (documented stub drift). *)

type impl = {
  handle : Zk_client.handle;
  reopen : unit -> Zk_client.handle;
}

let mk_local () =
  let svc = Zk_local.create () in
  { handle = Zk_local.session svc; reopen = (fun () -> Zk_local.session svc) }

let mk_router shards =
  let t = Router.local ~shards () in
  { handle = Router.session t (); reopen = (fun () -> Router.session t ()) }

let stat_sig (st : Ztree.stat) =
  Printf.sprintf "v%d eph%b len%d" st.Ztree.version
    (st.Ztree.ephemeral_owner <> 0L)
    st.Ztree.data_length

let transcript (i : impl) =
  let h = i.handle in
  let out = ref [] in
  let p fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let path label = function
    | Ok pa -> p "%s=ok:%s" label pa
    | Error e -> p "%s=err:%s" label (err e)
  in
  let unit label = function
    | Ok () -> p "%s=ok" label
    | Error e -> p "%s=err:%s" label (err e)
  in
  let get label = function
    | Ok (data, st) -> p "%s=ok:%s|%s" label data (stat_sig st)
    | Error e -> p "%s=err:%s" label (err e)
  in
  let exists label = function
    | Ok (Some st) -> p "%s=some:%s" label (stat_sig st)
    | Ok None -> p "%s=none" label
    | Error e -> p "%s=err:%s" label (err e)
  in
  let names label = function
    | Ok l -> p "%s=ok:%s" label (String.concat "," (List.sort compare l))
    | Error e -> p "%s=err:%s" label (err e)
  in
  let listing label = function
    | Ok l ->
      p "%s=ok:%s" label
        (String.concat ","
           (List.map (fun (n, d, st) -> n ^ ":" ^ d ^ ":" ^ stat_sig st) l))
    | Error e -> p "%s=err:%s" label (err e)
  in
  let multi label = function
    | Ok items ->
      p "%s=ok:%s" label
        (String.concat ","
           (List.map
              (function
                | Zk.Txn.Created pa -> "created:" ^ pa
                | Zk.Txn.Deleted -> "deleted"
                | Zk.Txn.Data_set -> "set"
                | Zk.Txn.Checked -> "checked")
              items))
    | Error e -> p "%s=err:%s" label (err e)
  in
  (* -- hierarchy and basic ops -- *)
  path "mk proj" (h.Zk_client.create "/proj" ~data:"");
  path "mk a" (h.Zk_client.create "/proj/a" ~data:"");
  path "mk b" (h.Zk_client.create "/proj/b" ~data:"");
  path "mk f0" (h.Zk_client.create "/proj/a/f0" ~data:"alpha");
  path "mk f1" (h.Zk_client.create "/proj/b/f1" ~data:"beta");
  path "dup" (h.Zk_client.create "/proj/a/f0" ~data:"again");
  path "orphan parent" (h.Zk_client.create "/nope/x" ~data:"");
  get "get f0" (h.Zk_client.get "/proj/a/f0");
  unit "set f0" (h.Zk_client.set "/proj/a/f0" ~data:"alpha2");
  get "get f0 v1" (h.Zk_client.get "/proj/a/f0");
  unit "set badv" (h.Zk_client.set ~version:9 "/proj/a/f0" ~data:"no");
  unit "set goodv" (h.Zk_client.set ~version:1 "/proj/a/f0" ~data:"alpha3");
  exists "exists f0" (h.Zk_client.exists "/proj/a/f0");
  exists "exists gone" (h.Zk_client.exists "/proj/a/nothing");
  (* -- sequential allocation stays per-directory -- *)
  path "seq0" (h.Zk_client.create ~sequential:true "/proj/a/s-" ~data:"");
  path "seq1" (h.Zk_client.create ~sequential:true "/proj/a/s-" ~data:"");
  path "seq2" (h.Zk_client.create ~sequential:true "/proj/b/s-" ~data:"");
  (* -- ephemerals -- *)
  path "mk eph" (h.Zk_client.create ~ephemeral:true "/proj/a/eph" ~data:"e");
  exists "exists eph" (h.Zk_client.exists "/proj/a/eph");
  path "child of eph" (h.Zk_client.create "/proj/a/eph/x" ~data:"");
  (* -- listings -- *)
  names "ls proj" (h.Zk_client.children "/proj");
  listing "lsd a" (h.Zk_client.children_with_data "/proj/a");
  names "ls missing" (h.Zk_client.children "/proj/nothing");
  (* -- deletes -- *)
  unit "rm nonempty" (h.Zk_client.delete "/proj/a");
  unit "rm badv" (h.Zk_client.delete ~version:9 "/proj/b/f1");
  unit "rm f1" (h.Zk_client.delete ~version:0 "/proj/b/f1");
  unit "rm gone" (h.Zk_client.delete "/proj/b/f1");
  (* -- multi: atomic within a directory, rejected whole on error -- *)
  multi "multi fail"
    (h.Zk_client.multi
       [ Zk_client.create_op "/proj/b/m0" ~data:"m";
         Zk_client.check_op ~version:9 "/proj/b" ]);
  exists "m0 rolled back" (h.Zk_client.exists "/proj/b/m0");
  multi "multi ok"
    (h.Zk_client.multi
       [ Zk_client.create_op "/proj/b/m0" ~data:"m";
         Zk_client.set_op "/proj/b/m0" ~data:"m2" ]);
  (* -- cross-parent multi (single-shard on Zk_local, grouped on the
        router); identical results on success -- *)
  multi "multi cross"
    (h.Zk_client.multi
       [ Zk_client.create_op "/proj/a/x0" ~data:"x";
         Zk_client.create_op "/proj/b/x1" ~data:"x";
         Zk_client.delete_op "/proj/b/m0" ]);
  (* -- multi_async: callback-delivered, same results -- *)
  let got = ref None in
  h.Zk_client.multi_async
    [ Zk_client.create_op "/proj/a/y0" ~data:"y";
      Zk_client.create_op "/proj/b/y1" ~data:"y" ]
    (fun r -> got := Some r);
  (match !got with
   | Some r -> multi "amulti" r
   | None -> p "amulti=pending");
  (* -- watches: delivery point and event identity -- *)
  let events = ref [] in
  let record (ev : Ztree.watch_event) =
    let kind =
      match ev.Ztree.kind with
      | Ztree.Node_created -> "created"
      | Ztree.Node_deleted -> "deleted"
      | Ztree.Node_data_changed -> "data"
      | Ztree.Node_children_changed -> "children"
    in
    events := (kind ^ ":" ^ ev.Ztree.path) :: !events
  in
  names "ls+watch b" (h.Zk_client.children_watch "/proj/b" record);
  get "get+watch f0" (h.Zk_client.get_watch "/proj/a/f0" record);
  listing "lsd+watch a" (h.Zk_client.children_with_data_watch "/proj/a" record);
  path "trip child watch" (h.Zk_client.create "/proj/b/w0" ~data:"");
  unit "trip data watch" (h.Zk_client.set "/proj/a/f0" ~data:"alpha4");
  p "events=%s" (String.concat "," (List.sort compare !events));
  (* -- session close reclaims ephemerals, persists the rest -- *)
  h.Zk_client.close ();
  let h2 = i.reopen () in
  exists "eph gone" (h2.Zk_client.exists "/proj/a/eph");
  exists "f0 kept" (h2.Zk_client.exists "/proj/a/f0");
  names "final ls a" (h2.Zk_client.children "/proj/a");
  names "final ls b" (h2.Zk_client.children "/proj/b");
  List.rev !out

let test_parity () =
  let reference = transcript (mk_local ()) in
  Alcotest.(check (list string))
    "1-shard router matches Zk_local" reference
    (transcript (mk_router 1));
  Alcotest.(check (list string))
    "4-shard router matches Zk_local" reference
    (transcript (mk_router 4))

(* {2 Lazy stubs and the cross-shard delete} *)

(* A directory whose children live on a different shard than its own
   primary — guaranteed to exist among a handful of names under "/"
   because bounded placement spreads fresh keys across shards. *)
let find_cross_dir t h =
  let rec go i =
    if i > 50 then Alcotest.fail "no cross-homed dir in 50 tries"
    else begin
      let d = Printf.sprintf "/x%02d" i in
      ignore (ok "mkdir" (h.Zk_client.create d ~data:""));
      if Router.home_shard t d <> Router.home_shard t (d ^ "/probe") then d
      else go (i + 1)
    end
  in
  go 0

let test_lazy_stub_lifecycle () =
  let t = Router.local ~shards:4 () in
  let h = Router.session t () in
  let d = find_cross_dir t h in
  let stats = Router.stats t in
  (* an existing-but-elsewhere-homed empty dir lists as empty, not as
     missing *)
  check_int "empty cross-homed listing" 0
    (List.length (ok "ls empty" (h.Zk_client.children d)));
  check_int "no stub for an empty dir" 0 (Router.live_stubs stats);
  let population = Router.logical_population t in
  ignore (ok "child" (h.Zk_client.create (d ^ "/c0") ~data:"x"));
  check_int "stub materialized on first child" 1 (Router.live_stubs stats);
  check_int "logical population counts the child, not the stub"
    (population + 1) (Router.logical_population t);
  Alcotest.(check (list string))
    "child visible" [ "c0" ]
    (ok "ls" (h.Zk_client.children d));
  (* the stub is invisible: the parent listing shows the dir once *)
  let name = String.sub d 1 (String.length d - 1) in
  check_int "dir listed exactly once" 1
    (List.length
       (List.filter (( = ) name) (ok "ls /" (h.Zk_client.children "/"))));
  (* ZNOTEMPTY comes from the stub side, where the children are *)
  (match h.Zk_client.delete d with
   | Error Zerror.ZNOTEMPTY -> ()
   | Ok () -> Alcotest.fail "delete of a non-empty dir succeeded"
   | Error e -> Alcotest.failf "expected ZNOTEMPTY, got %s" (err e));
  ignore (ok "rm child" (h.Zk_client.delete (d ^ "/c0")));
  let before = stats.Router.cross_shard_deletes in
  ok "rmdir" (h.Zk_client.delete d);
  check_int "two-phase delete counted" (before + 1)
    stats.Router.cross_shard_deletes;
  check_int "stub reclaimed" 0 (Router.live_stubs stats);
  check_bool "dir gone" true (ok "exists" (h.Zk_client.exists d) = None)

let test_cross_shard_delete_rollback_restores_the_stub () =
  let t = Router.local ~shards:4 () in
  let h = Router.session t () in
  let d = find_cross_dir t h in
  let stats = Router.stats t in
  ignore (ok "child" (h.Zk_client.create (d ^ "/c0") ~data:"x"));
  ignore (ok "rm child" (h.Zk_client.delete (d ^ "/c0")));
  check_int "stub standing" 1 (Router.live_stubs stats);
  (* primary refuses the versioned delete after the stub already went
     down: the router must put the stub back *)
  (match h.Zk_client.delete ~version:9 d with
   | Error Zerror.ZBADVERSION -> ()
   | Ok () -> Alcotest.fail "bad-version delete succeeded"
   | Error e -> Alcotest.failf "expected ZBADVERSION, got %s" (err e));
  check_int "rollback recorded" 1 stats.Router.rollbacks;
  check_int "no orphan note" 0 stats.Router.rollback_failures;
  check_int "stub restored" 1 (Router.live_stubs stats);
  (* the pair stayed consistent: the dir still takes children *)
  ignore (ok "child again" (h.Zk_client.create (d ^ "/c1") ~data:"x"));
  Alcotest.(check (list string))
    "listing intact" [ "c1" ]
    (ok "ls" (h.Zk_client.children d))

(* {2 Cross-shard multi: rollback leaves no trace, partial commits
   leave an orphan note} *)

(* Two dirs whose children live on shards lo < hi, so a multi grouped
   [lo; hi] commits lo's sub-transaction before hi's fails. *)
let find_ordered_pair t h =
  let dirs = List.init 8 (fun i -> Printf.sprintf "/p%d" i) in
  List.iter (fun d -> ignore (ok "mkdir" (h.Zk_client.create d ~data:""))) dirs;
  let shard_of d = Router.home_shard t (d ^ "/probe") in
  let sorted =
    List.sort (fun a b -> compare (shard_of a) (shard_of b)) dirs
  in
  let lo = List.hd sorted and hi = List.hd (List.rev sorted) in
  if shard_of lo = shard_of hi then Alcotest.fail "no shard spread over 8 dirs";
  (lo, hi)

let test_cross_shard_multi_rollback_no_orphans () =
  let t = Router.local ~shards:4 () in
  let h = Router.session t () in
  let lo, hi = find_ordered_pair t h in
  let stats = Router.stats t in
  let population = Router.logical_population t in
  let counts = Router.node_counts t in
  (match
     h.Zk_client.multi
       [ Zk_client.create_op (lo ^ "/m0") ~data:"m";
         Zk_client.create_op (hi ^ "/m1") ~data:"m";
         Zk_client.check_op ~version:9 (hi ^ "/m1") ]
   with
   | Ok _ -> Alcotest.fail "doomed multi succeeded"
   | Error Zerror.ZBADVERSION -> ()
   | Error e -> Alcotest.failf "expected ZBADVERSION, got %s" (err e));
  check_int "cross-shard multi counted" 1 stats.Router.cross_shard_multis;
  check_int "rollback ran" 1 stats.Router.rollbacks;
  check_int "no partial commit" 0 stats.Router.rollback_failures;
  check_bool "created node removed" true
    (ok "exists" (h.Zk_client.exists (lo ^ "/m0")) = None);
  check_int "logical population unchanged" population
    (Router.logical_population t);
  (* raw counts may grow only by surviving stubs (lazily planted for
     the multi's cross-homed parents, kept by design) *)
  let grown =
    Array.fold_left ( + ) 0 (Router.node_counts t)
    - Array.fold_left ( + ) 0 counts
  in
  check_int "every surviving extra node is a live stub"
    (Router.live_stubs stats) grown

let test_cross_shard_multi_partial_commit_notes_orphan () =
  let t = Router.local ~shards:4 () in
  let h = Router.session t () in
  let lo, hi = find_ordered_pair t h in
  let stats = Router.stats t in
  ignore (ok "victim" (h.Zk_client.create (lo ^ "/keep") ~data:"k"));
  let population = Router.logical_population t in
  (* the delete commits on the low shard; the high shard's group then
     fails; a committed delete cannot be rolled back *)
  (match
     h.Zk_client.multi
       [ Zk_client.delete_op (lo ^ "/keep");
         Zk_client.check_op ~version:9 hi ]
   with
   | Ok _ -> Alcotest.fail "doomed multi succeeded"
   | Error _ -> ());
  check_int "partial commit recorded" 1 stats.Router.rollback_failures;
  check_bool "orphan note names the work item" true
    (stats.Router.orphan_notes <> []);
  check_int "the committed delete shows in the accounting"
    (population - 1) (Router.logical_population t);
  (* repair per the note: reinstate the deleted node *)
  ignore (ok "repair" (h.Zk_client.create (lo ^ "/keep") ~data:"k"));
  check_int "accounting balances after repair" population
    (Router.logical_population t)

(* The same partial-commit failure seen from DUFS: the znode deleted by
   the committed low-shard group leaves its physical file orphaned —
   exactly what Fsck reports and repairs. *)
let test_fsck_repairs_after_partial_multi () =
  let t = Router.local ~shards:4 () in
  let coord = Router.session t () in
  let mounts =
    Array.init 2 (fun _ -> Memfs.create ~clock:(fun () -> 0.) ())
  in
  let mount_ops = Array.map Memfs.ops mounts in
  Array.iter
    (fun ops ->
      ok_fs "format" (Dufs.Physical.format Dufs.Physical.default_layout ops))
    mount_ops;
  let client = Dufs.Client.mount ~coord ~backends:mount_ops () in
  let fs = Dufs.Client.ops client in
  ok_fs "mkdir" (fs.Fuselike.Vfs.mkdir "/proj" ~mode:0o755);
  for i = 0 to 7 do
    let dir = Printf.sprintf "/d%d" i in
    ok_fs "mkdir" (fs.Fuselike.Vfs.mkdir dir ~mode:0o755);
    ok_fs "create" (fs.Fuselike.Vfs.create (dir ^ "/f") ~mode:0o644)
  done;
  let scan () =
    ok "fsck scan" (Dufs.Fsck.scan ~coord ~backends:mount_ops ())
  in
  check_bool "sharded namespace starts clean" true (Dufs.Fsck.is_clean (scan ()));
  (* order a victim file and a failing check across two shards *)
  let zdir i = Printf.sprintf "/dufs/d%d" i in
  let shard_of i = Router.home_shard t (zdir i ^ "/probe") in
  let vi, ci =
    let idx = List.init 8 Fun.id in
    let lo = List.fold_left (fun a b -> if shard_of b < shard_of a then b else a) 0 idx in
    let hi = List.fold_left (fun a b -> if shard_of b > shard_of a then b else a) 0 idx in
    (lo, hi)
  in
  check_bool "two shards involved" true (shard_of vi < shard_of ci);
  (match
     coord.Zk_client.multi
       [ Zk_client.delete_op (zdir vi ^ "/f");
         Zk_client.check_op ~version:9 (zdir ci ^ "/f") ]
   with
   | Ok _ -> Alcotest.fail "doomed multi succeeded"
   | Error _ -> ());
  check_bool "router noted the partial commit" true
    ((Router.stats t).Router.rollback_failures > 0);
  let report = scan () in
  check_bool "fsck sees the orphaned physical" true
    (List.exists
       (function Dufs.Fsck.Orphan_physical _ -> true | _ -> false)
       report.Dufs.Fsck.issues);
  let repair = Dufs.Fsck.repair ~backends:mount_ops report in
  check_int "orphan deleted" 1 repair.Dufs.Fsck.deleted;
  check_bool "clean after repair" true (Dufs.Fsck.is_clean (scan ()))

(* {2 The sharded failure path: exactly-once under shard-leader crash} *)

let test_sharded_mdtest_survives_shard_leader_crash () =
  (* shard 1 loses its leader plus two followers mid file-create and
     sits below quorum past the request timeout; shard 0 never falters.
     The run must stay error-free, answer every retried write from the
     dedup table, and account for each znode on its shard. *)
  let plan =
    match
      Faults.Faultplan.parse
        "crash-leader@shard=1@file-create+0.02;crash=1/1@file-create+0.05;\
         crash=1/2@file-create+0.08;restart-all@file-create+1.2"
    with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  let spec =
    { Systems.zk_servers = 5; backends = 2; backend_kind = Systems.Lustre }
  in
  let run =
    Systems.dufs_mdtest ~dirs_per_proc:40 ~files_per_proc:40
      ~config_adjust:(fun c ->
        { c with Zk.Ensemble.election_timeout = 0.2; request_timeout = 0.3 })
      ~spec ~shards:2 ~procs:64 ~plan ()
  in
  let router = run.Systems.router in
  let dedup_hits_by_shard = Zk.Shard_router.dedup_hits_by_shard router
  and writes_committed_by_shard =
    Zk.Shard_router.writes_committed_by_shard router
  in
  check_int "mdtest completes error-free" 0
    run.Systems.results.Mdtest.Runner.errors;
  check_int "all four fault events fired" 4 run.Systems.faults_fired;
  check_bool "retried writes answered from the dedup table" true
    (run.Systems.dedup_hits > 0);
  check_bool "the crashed shard produced the dedup hits" true
    (dedup_hits_by_shard.(1) > 0);
  check_int "per-shard dedup sums to the total" run.Systems.dedup_hits
    (Array.fold_left ( + ) 0 dedup_hits_by_shard);
  check_int "logical znode population exact"
    run.Systems.expected_logical_znodes run.Systems.logical_znodes_at_stat;
  check_int "per-shard counts compose the logical population"
    run.Systems.logical_znodes_at_stat
    (Array.fold_left (fun a n -> a + (n - 1)) 0 run.Systems.per_shard_znodes
    - run.Systems.live_stubs_at_stat);
  check_bool "both shards committed writes" true
    (Array.for_all (fun w -> w > 0) writes_committed_by_shard);
  check_int "per-shard writes sum to the total"
    (Zk.Shard_router.writes_committed router)
    (Array.fold_left ( + ) 0 writes_committed_by_shard)

let () =
  Alcotest.run "shard_router"
    [ ( "placement",
        [ Alcotest.test_case "bounded load: balance and stability" `Quick
            test_placement_balance_and_stability;
          Alcotest.test_case "loose eps follows the ring" `Quick
            test_placement_loose_eps_follows_the_ring;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_placement_rejects_bad_args;
          QCheck_alcotest.to_alcotest prop_bounded_load ] );
      ( "notes",
        [ Alcotest.test_case "log capped, counters split" `Quick
            test_note_log_capped_and_counters_split ] );
      ( "routing",
        [ Alcotest.test_case "siblings co-locate" `Quick test_sibling_colocation ] );
      ( "parity",
        [ Alcotest.test_case "Zk_local vs 1-shard vs 4-shard" `Quick test_parity ] );
      ( "stubs",
        [ Alcotest.test_case "lazy stub lifecycle" `Quick test_lazy_stub_lifecycle;
          Alcotest.test_case "delete rollback restores the stub" `Quick
            test_cross_shard_delete_rollback_restores_the_stub ] );
      ( "multi",
        [ Alcotest.test_case "rollback leaves no orphans" `Quick
            test_cross_shard_multi_rollback_no_orphans;
          Alcotest.test_case "partial commit notes an orphan" `Quick
            test_cross_shard_multi_partial_commit_notes_orphan;
          Alcotest.test_case "fsck repairs after a partial multi" `Quick
            test_fsck_repairs_after_partial_multi ] );
      ( "faults",
        [ Alcotest.test_case "mdtest survives a shard-leader crash" `Slow
            test_sharded_mdtest_survives_shard_leader_crash ] ) ]
