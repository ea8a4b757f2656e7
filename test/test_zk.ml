(* Tests for the coordination-service substrate: paths, the znode tree's
   ZooKeeper semantics, transactions, watches, and the local service. *)

module Zerror = Zk.Zerror
module Zpath = Zk.Zpath
module Ztree = Zk.Ztree
module Txn = Zk.Txn
module Zk_local = Zk.Zk_local
module Zk_client = Zk.Zk_client

let zerror = Alcotest.testable Zerror.pp Zerror.equal
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Zerror.to_string e)

let expect_err label expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" label (Zerror.to_string expected)
  | Error e -> Alcotest.check zerror label expected e

(* {2 Zpath} *)

let test_zpath_validate () =
  check_bool "valid" true (Result.is_ok (Zpath.validate "/a/b"));
  check_bool "root" true (Result.is_ok (Zpath.validate "/"));
  expect_err "trailing slash" Zerror.ZBADARGUMENTS (Zpath.validate "/a/");
  expect_err "relative" Zerror.ZBADARGUMENTS (Zpath.validate "a");
  expect_err "empty component" Zerror.ZBADARGUMENTS (Zpath.validate "/a//b");
  expect_err "dot" Zerror.ZBADARGUMENTS (Zpath.validate "/a/./b");
  expect_err "empty" Zerror.ZBADARGUMENTS (Zpath.validate "")

let test_zpath_parts () =
  check_string "parent" "/a" (Zpath.parent "/a/b");
  check_string "parent top" "/" (Zpath.parent "/a");
  check_string "basename" "b" (Zpath.basename "/a/b");
  check_string "concat" "/a/b" (Zpath.concat "/a" "b");
  check_string "concat root" "/a" (Zpath.concat "/" "a");
  check_int "depth" 3 (Zpath.depth "/a/b/c")

let test_sequential_name () =
  check_string "padded" "lock-0000000007" (Zpath.sequential_name "lock-" 7);
  check_string "large" "n0123456789" (Zpath.sequential_name "n" 123456789)

(* {2 Ztree: creates} *)

let apply_one tree ~zxid op = Ztree.apply tree ~zxid ~time:1. [ op ]

let create_op ?(data = "") ?(ephemeral = 0L) ?(sequential = false) path =
  Txn.Create { path; data; ephemeral_owner = ephemeral; sequential }

let test_create_and_get () =
  let tree = Ztree.create () in
  (match ok_or_fail "create" (apply_one tree ~zxid:1L (create_op ~data:"hello" "/a")) with
  | [ Txn.Created "/a" ] -> ()
  | _ -> Alcotest.fail "unexpected result shape");
  let data, stat = ok_or_fail "get" (Ztree.get tree "/a") in
  check_string "data" "hello" data;
  check_int "version 0" 0 stat.Ztree.version;
  check_bool "czxid" true (stat.Ztree.czxid = 1L)

let test_create_errors () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "create" (apply_one tree ~zxid:1L (create_op "/a")));
  expect_err "duplicate" Zerror.ZNODEEXISTS (apply_one tree ~zxid:2L (create_op "/a"));
  expect_err "missing parent" Zerror.ZNONODE
    (apply_one tree ~zxid:3L (create_op "/x/y"));
  expect_err "recreate root" Zerror.ZNODEEXISTS (apply_one tree ~zxid:4L (create_op "/"));
  expect_err "bad path" Zerror.ZBADARGUMENTS
    (apply_one tree ~zxid:5L (create_op "relative"))

let test_parent_bookkeeping () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk a" (apply_one tree ~zxid:1L (create_op "/a")));
  ignore (ok_or_fail "mk a/b" (apply_one tree ~zxid:2L (create_op "/a/b")));
  ignore (ok_or_fail "mk a/c" (apply_one tree ~zxid:3L (create_op "/a/c")));
  let _, stat = ok_or_fail "get a" (Ztree.get tree "/a") in
  check_int "num_children" 2 stat.Ztree.num_children;
  check_int "cversion" 2 stat.Ztree.cversion;
  check_bool "pzxid updated" true (stat.Ztree.pzxid = 3L);
  Alcotest.(check (list string)) "children sorted" [ "b"; "c" ]
    (ok_or_fail "children" (Ztree.children tree "/a"))

let test_sequential_create () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "parent" (apply_one tree ~zxid:1L (create_op "/q")));
  let created n zxid =
    match ok_or_fail "seq" (apply_one tree ~zxid (create_op ~sequential:true "/q/n-")) with
    | [ Txn.Created path ] ->
      check_string "sequential suffix" (Printf.sprintf "/q/n-%010d" n) path
    | _ -> Alcotest.fail "shape"
  in
  created 0 2L;
  created 1 3L;
  created 2 4L

let test_sequential_counter_not_reused_after_delete () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "parent" (apply_one tree ~zxid:1L (create_op "/q")));
  ignore (ok_or_fail "s0" (apply_one tree ~zxid:2L (create_op ~sequential:true "/q/n-")));
  ignore
    (ok_or_fail "del"
       (apply_one tree ~zxid:3L (Txn.Delete { path = "/q/n-0000000000"; expected_version = -1 })));
  (match ok_or_fail "s1" (apply_one tree ~zxid:4L (create_op ~sequential:true "/q/n-")) with
  | [ Txn.Created path ] -> check_string "counter advances" "/q/n-0000000001" path
  | _ -> Alcotest.fail "shape")

(* {2 Ztree: delete / set / check} *)

let test_delete () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/a")));
  ignore (ok_or_fail "mk child" (apply_one tree ~zxid:2L (create_op "/a/b")));
  expect_err "not empty" Zerror.ZNOTEMPTY
    (apply_one tree ~zxid:3L (Txn.Delete { path = "/a"; expected_version = -1 }));
  ignore
    (ok_or_fail "del child"
       (apply_one tree ~zxid:4L (Txn.Delete { path = "/a/b"; expected_version = -1 })));
  ignore
    (ok_or_fail "del"
       (apply_one tree ~zxid:5L (Txn.Delete { path = "/a"; expected_version = -1 })));
  expect_err "gone" Zerror.ZNONODE (Ztree.get tree "/a");
  expect_err "delete root" Zerror.ZBADARGUMENTS
    (apply_one tree ~zxid:6L (Txn.Delete { path = "/"; expected_version = -1 }));
  expect_err "delete missing" Zerror.ZNONODE
    (apply_one tree ~zxid:7L (Txn.Delete { path = "/zz"; expected_version = -1 }))

let test_version_checks () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op ~data:"v0" "/a")));
  ignore
    (ok_or_fail "set ok"
       (apply_one tree ~zxid:2L
          (Txn.Set_data { path = "/a"; data = "v1"; expected_version = 0 })));
  let data, stat = ok_or_fail "get" (Ztree.get tree "/a") in
  check_string "updated" "v1" data;
  check_int "version bumped" 1 stat.Ztree.version;
  expect_err "stale set" Zerror.ZBADVERSION
    (apply_one tree ~zxid:3L
       (Txn.Set_data { path = "/a"; data = "v2"; expected_version = 0 }));
  expect_err "stale delete" Zerror.ZBADVERSION
    (apply_one tree ~zxid:4L (Txn.Delete { path = "/a"; expected_version = 0 }));
  ignore
    (ok_or_fail "any-version set"
       (apply_one tree ~zxid:5L
          (Txn.Set_data { path = "/a"; data = "v2"; expected_version = -1 })));
  ignore
    (ok_or_fail "check ok"
       (apply_one tree ~zxid:6L (Txn.Check { path = "/a"; expected_version = 2 })));
  expect_err "check stale" Zerror.ZBADVERSION
    (apply_one tree ~zxid:7L (Txn.Check { path = "/a"; expected_version = 0 }))

let test_mzxid_tracks_set () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:5L (create_op "/a")));
  ignore
    (ok_or_fail "set"
       (apply_one tree ~zxid:9L (Txn.Set_data { path = "/a"; data = "x"; expected_version = -1 })));
  let _, stat = ok_or_fail "get" (Ztree.get tree "/a") in
  check_bool "czxid stays" true (stat.Ztree.czxid = 5L);
  check_bool "mzxid moves" true (stat.Ztree.mzxid = 9L)

(* {2 Ztree: ephemerals} *)

let test_ephemeral_no_children () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk eph" (apply_one tree ~zxid:1L (create_op ~ephemeral:7L "/e")));
  expect_err "child of ephemeral" Zerror.ZNOCHILDRENFOREPHEMERALS
    (apply_one tree ~zxid:2L (create_op "/e/c"));
  let _, stat = ok_or_fail "get" (Ztree.get tree "/e") in
  check_bool "owner recorded" true (stat.Ztree.ephemeral_owner = 7L)

let test_ephemerals_of_owner () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk dir" (apply_one tree ~zxid:1L (create_op "/d")));
  ignore (ok_or_fail "e1" (apply_one tree ~zxid:2L (create_op ~ephemeral:7L "/d/e1")));
  ignore (ok_or_fail "e2" (apply_one tree ~zxid:3L (create_op ~ephemeral:7L "/e2")));
  ignore (ok_or_fail "other" (apply_one tree ~zxid:4L (create_op ~ephemeral:9L "/x")));
  let mine = Ztree.ephemerals_of tree ~owner:7L in
  check_int "two ephemerals" 2 (List.length mine);
  check_bool "deepest first" true (List.hd mine = "/d/e1");
  ignore
    (ok_or_fail "delete one"
       (apply_one tree ~zxid:5L (Txn.Delete { path = "/e2"; expected_version = -1 })));
  check_int "tracking updated" 1 (List.length (Ztree.ephemerals_of tree ~owner:7L))

(* {2 Ztree: multi transactions} *)

let test_multi_atomic_success () =
  let tree = Ztree.create () in
  let txn = [ create_op "/a"; create_op "/a/b"; create_op ~data:"x" "/a/b/c" ] in
  let results = ok_or_fail "multi" (Ztree.apply tree ~zxid:1L ~time:0. txn) in
  check_int "three results" 3 (List.length results);
  check_bool "all created" true (Result.is_ok (Ztree.get tree "/a/b/c"))

let test_multi_rollback_on_failure () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "pre" (apply_one tree ~zxid:1L (create_op ~data:"keep" "/pre")));
  let before_bytes = Ztree.resident_bytes tree in
  let txn =
    [ create_op "/a";
      Txn.Set_data { path = "/pre"; data = "clobbered"; expected_version = -1 };
      create_op "/missing-parent/child" (* fails *) ]
  in
  expect_err "multi fails" Zerror.ZNONODE (Ztree.apply tree ~zxid:2L ~time:0. txn);
  expect_err "first create rolled back" Zerror.ZNONODE (Ztree.get tree "/a");
  let data, stat = ok_or_fail "pre intact" (Ztree.get tree "/pre") in
  check_string "set rolled back" "keep" data;
  check_int "version restored" 0 stat.Ztree.version;
  check_int "byte accounting restored" before_bytes (Ztree.resident_bytes tree);
  check_bool "zxid not consumed by failed txn" true (Ztree.last_zxid tree = 1L)

let test_multi_rename_pattern () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op ~data:"fid123" "/old")));
  let txn =
    [ Txn.Check { path = "/old"; expected_version = 0 };
      create_op ~data:"fid123" "/new";
      Txn.Delete { path = "/old"; expected_version = -1 } ]
  in
  ignore (ok_or_fail "rename txn" (Ztree.apply tree ~zxid:2L ~time:0. txn));
  expect_err "old gone" Zerror.ZNONODE (Ztree.get tree "/old");
  let data, _ = ok_or_fail "new exists" (Ztree.get tree "/new") in
  check_string "payload moved" "fid123" data

let test_zxid_monotonicity_enforced () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:5L (create_op "/a")));
  Alcotest.check_raises "reused zxid"
    (Invalid_argument "Ztree.apply: zxid 5 not beyond 5") (fun () ->
      ignore (apply_one tree ~zxid:5L (create_op "/b")))

(* {2 Ztree: watches} *)

let test_data_watch_fires_once () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/a")));
  let fired = ref [] in
  Ztree.watch_data tree "/a" (fun ev -> fired := ev :: !fired);
  ignore
    (ok_or_fail "set1"
       (apply_one tree ~zxid:2L (Txn.Set_data { path = "/a"; data = "x"; expected_version = -1 })));
  ignore
    (ok_or_fail "set2"
       (apply_one tree ~zxid:3L (Txn.Set_data { path = "/a"; data = "y"; expected_version = -1 })));
  check_int "fired exactly once" 1 (List.length !fired);
  (match !fired with
  | [ { Ztree.kind = Ztree.Node_data_changed; path = "/a" } ] -> ()
  | _ -> Alcotest.fail "wrong event")

let test_exists_watch_fires_on_create () =
  let tree = Ztree.create () in
  let fired = ref [] in
  Ztree.watch_data tree "/future" (fun ev -> fired := ev :: !fired);
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/future")));
  (match !fired with
  | [ { Ztree.kind = Ztree.Node_created; path = "/future" } ] -> ()
  | _ -> Alcotest.fail "expected creation event")

let test_child_watch () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/d")));
  let fired = ref [] in
  Ztree.watch_children tree "/d" (fun ev -> fired := ev :: !fired);
  ignore (ok_or_fail "mk child" (apply_one tree ~zxid:2L (create_op "/d/c")));
  (match !fired with
  | [ { Ztree.kind = Ztree.Node_children_changed; path = "/d" } ] -> ()
  | _ -> Alcotest.fail "expected children-changed");
  (* re-arm and check delete fires too *)
  Ztree.watch_children tree "/d" (fun ev -> fired := ev :: !fired);
  ignore
    (ok_or_fail "del child"
       (apply_one tree ~zxid:3L (Txn.Delete { path = "/d/c"; expected_version = -1 })));
  check_int "two events total" 2 (List.length !fired)

let test_delete_fires_data_watch () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/a")));
  let fired = ref [] in
  Ztree.watch_data tree "/a" (fun ev -> fired := ev :: !fired);
  ignore
    (ok_or_fail "del"
       (apply_one tree ~zxid:2L (Txn.Delete { path = "/a"; expected_version = -1 })));
  (match !fired with
  | [ { Ztree.kind = Ztree.Node_deleted; path = "/a" } ] -> ()
  | _ -> Alcotest.fail "expected deletion event")

let test_no_watch_on_failed_txn () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "mk" (apply_one tree ~zxid:1L (create_op "/a")));
  let fired = ref 0 in
  Ztree.watch_data tree "/a" (fun _ -> incr fired);
  expect_err "failing multi" Zerror.ZNONODE
    (Ztree.apply tree ~zxid:2L ~time:0.
       [ Txn.Set_data { path = "/a"; data = "x"; expected_version = -1 };
         create_op "/nope/child" ]);
  check_int "watch survived the aborted txn" 0 !fired;
  (* the watch is still armed and fires on the next real change *)
  ignore
    (ok_or_fail "set"
       (apply_one tree ~zxid:3L (Txn.Set_data { path = "/a"; data = "y"; expected_version = -1 })));
  check_int "fires later" 1 !fired

(* {2 Ztree: memory accounting and fingerprints} *)

let test_bytes_scale_with_nodes () =
  let tree = Ztree.create () in
  let base = Ztree.resident_bytes tree in
  for i = 0 to 99 do
    ignore
      (ok_or_fail "mk"
         (apply_one tree
            ~zxid:(Int64.of_int (i + 1))
            (create_op ~data:"0123456789" (Printf.sprintf "/n%03d" i))))
  done;
  let per_node = (Ztree.resident_bytes tree - base) / 100 in
  check_bool "per-node cost in a plausible band" true (per_node > 150 && per_node < 400);
  check_int "node count" 101 (Ztree.node_count tree)

let test_equal_state_and_fingerprint () =
  let build () =
    let tree = Ztree.create () in
    ignore (ok_or_fail "a" (apply_one tree ~zxid:1L (create_op ~data:"1" "/a")));
    ignore (ok_or_fail "b" (apply_one tree ~zxid:2L (create_op ~data:"2" "/a/b")));
    tree
  in
  let t1 = build () and t2 = build () in
  check_bool "equal states" true (Ztree.equal_state t1 t2);
  check_int "same fingerprint" (Ztree.fingerprint t1) (Ztree.fingerprint t2);
  ignore
    (ok_or_fail "diverge"
       (apply_one t2 ~zxid:3L (Txn.Set_data { path = "/a"; data = "9"; expected_version = -1 })));
  check_bool "detects divergence" false (Ztree.equal_state t1 t2)

(* {2 Property: random valid op sequences keep children/index consistent} *)

let prop_tree_children_index_agree =
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (oneof
           [ map (fun (a, b) -> `Create ("/" ^ a ^ (if b then "/x" else "")))
               (pair (oneofl [ "p"; "q"; "r" ]) bool);
             map (fun a -> `Delete ("/" ^ a)) (oneofl [ "p"; "q"; "r"; "p/x"; "q/x" ]) ]))
  in
  QCheck2.Test.make ~name:"every child entry points at a live node (and back)"
    ~count:300 gen_ops (fun ops ->
      let tree = Ztree.create () in
      let zxid = ref 0L in
      List.iter
        (fun op ->
          zxid := Int64.add !zxid 1L;
          ignore
            (match op with
            | `Create path -> Ztree.apply tree ~zxid:!zxid ~time:0. [ create_op path ]
            | `Delete path ->
              Ztree.apply tree ~zxid:!zxid ~time:0.
                [ Txn.Delete { path; expected_version = -1 } ]))
        ops;
      (* every node reachable from the root exists in the index, and
         every child's parent linkage is consistent *)
      let rec walk path acc =
        match Ztree.children tree path with
        | Error _ -> acc
        | Ok names ->
          List.fold_left
            (fun acc name ->
              let child = Zpath.concat path name in
              if Ztree.exists tree child = None then false
              else walk child acc)
            acc names
      in
      walk "/" true)

(* {2 Zk_local} *)

let test_local_session_api () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  check_string "create returns path" "/a" (ok_or_fail "create" (s.Zk_client.create "/a" ~data:"d"));
  let data, _ = ok_or_fail "get" (s.Zk_client.get "/a") in
  check_string "data" "d" data;
  ok_or_fail "set" (s.Zk_client.set "/a" ~data:"d2");
  check_bool "exists" true (s.Zk_client.exists "/a" <> Ok None);
  Alcotest.(check (list string)) "children" []
    (ok_or_fail "children" (s.Zk_client.children "/a"));
  ok_or_fail "delete" (s.Zk_client.delete "/a");
  check_bool "gone" true (s.Zk_client.exists "/a" = Ok None)

let test_local_sessions_share_namespace () =
  let svc = Zk_local.create () in
  let s1 = Zk_local.session svc and s2 = Zk_local.session svc in
  ignore (ok_or_fail "s1 create" (s1.Zk_client.create "/shared" ~data:"x"));
  let data, _ = ok_or_fail "s2 sees it" (s2.Zk_client.get "/shared") in
  check_string "shared data" "x" data;
  check_bool "distinct session ids" true
    (s1.Zk_client.session_id <> s2.Zk_client.session_id)

let test_local_ephemeral_cleanup_on_close () =
  let svc = Zk_local.create () in
  let s1 = Zk_local.session svc and s2 = Zk_local.session svc in
  ignore (ok_or_fail "eph" (s1.Zk_client.create ~ephemeral:true "/tmp" ~data:""));
  ignore (ok_or_fail "persistent" (s1.Zk_client.create "/keep" ~data:""));
  s1.Zk_client.close ();
  check_bool "ephemeral removed" true (s2.Zk_client.exists "/tmp" = Ok None);
  check_bool "persistent kept" true (s2.Zk_client.exists "/keep" <> Ok None)

let test_local_sequential () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  ignore (ok_or_fail "parent" (s.Zk_client.create "/q" ~data:""));
  let p0 = ok_or_fail "s0" (s.Zk_client.create ~sequential:true "/q/n-" ~data:"") in
  let p1 = ok_or_fail "s1" (s.Zk_client.create ~sequential:true "/q/n-" ~data:"") in
  check_bool "ordered names" true (p0 < p1)

let test_local_multi () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  let txn = [ Zk_client.create_op "/m" ~data:""; Zk_client.create_op "/m/c" ~data:"" ] in
  ignore (ok_or_fail "multi" (s.Zk_client.multi txn));
  expect_err "atomic failure"
    Zerror.ZNONODE
    (s.Zk_client.multi
       [ Zk_client.create_op "/m2" ~data:""; Zk_client.create_op "/zz/c" ~data:"" ]);
  check_bool "rolled back" true (s.Zk_client.exists "/m2" = Ok None)

(* {2 Bulk readdir (children_with_data)} *)

(* the pre-bulk client behaviour: list names, then one get per child *)
let per_child_get_loop (s : Zk_client.handle) path =
  List.map
    (fun name ->
      let data, stat = ok_or_fail ("get " ^ name) (s.Zk_client.get (Zpath.concat path name)) in
      (name, data, stat))
    (ok_or_fail "children" (s.Zk_client.children path))

let populate (s : Zk_client.handle) =
  ignore (ok_or_fail "dir" (s.Zk_client.create "/dir" ~data:"root"));
  List.iter
    (fun (name, data) ->
      ignore (ok_or_fail name (s.Zk_client.create ("/dir/" ^ name) ~data)))
    [ ("zz", "last"); ("aa", "first"); ("mid", ""); ("sub", "dir") ];
  ignore (ok_or_fail "grandchild" (s.Zk_client.create "/dir/sub/inner" ~data:"x"));
  ignore (ok_or_fail "bump version" (s.Zk_client.set "/dir/mid" ~data:"v1"))

let test_bulk_readdir_agrees_with_get_loop_local () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  populate s;
  let bulk = ok_or_fail "bulk" (s.Zk_client.children_with_data "/dir") in
  check_bool "entry-for-entry agreement with the per-child get loop" true
    (bulk = per_child_get_loop s "/dir");
  check_int "all four children listed" 4 (List.length bulk);
  check_bool "sorted by name" true
    (List.map (fun (n, _, _) -> n) bulk = [ "aa"; "mid"; "sub"; "zz" ]);
  expect_err "missing parent" Zerror.ZNONODE
    (s.Zk_client.children_with_data "/nope");
  Alcotest.(check (list string)) "leaf node lists empty" []
    (List.map (fun (n, _, _) -> n)
       (ok_or_fail "leaf" (s.Zk_client.children_with_data "/dir/aa")))

let test_bulk_readdir_agrees_with_get_loop_ensemble () =
  let engine = Simkit.Engine.create () in
  let ensemble = Zk.Ensemble.start engine (Zk.Ensemble.default_config ~servers:3) in
  Simkit.Process.spawn engine (fun () ->
      let s = Zk.Ensemble.session ensemble () in
      populate s;
      let reads_before =
        List.fold_left (fun acc id -> acc + Zk.Ensemble.reads_served ensemble id) 0
          [ 0; 1; 2 ]
      in
      let bulk = ok_or_fail "bulk" (s.Zk_client.children_with_data "/dir") in
      let reads_after =
        List.fold_left (fun acc id -> acc + Zk.Ensemble.reads_served ensemble id) 0
          [ 0; 1; 2 ]
      in
      check_int "whole listing costs one coordination read" 1
        (reads_after - reads_before);
      check_bool "entry-for-entry agreement through the ensemble" true
        (bulk = per_child_get_loop s "/dir"));
  Simkit.Engine.run engine

let test_bulk_readdir_watch_variant () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  populate s;
  let events = ref [] in
  let bulk =
    ok_or_fail "bulk+watch"
      (s.Zk_client.children_with_data_watch "/dir" (fun ev ->
           events := (ev.Ztree.kind, ev.Ztree.path) :: !events))
  in
  check_int "same entries as the plain bulk read" 4 (List.length bulk);
  (* data watch on each listed child: set fires with the child's path *)
  ignore (ok_or_fail "set child" (s.Zk_client.set "/dir/aa" ~data:"new"));
  check_bool "child data watch fired" true
    (List.mem (Ztree.Node_data_changed, "/dir/aa") !events);
  (* child watch on the parent: create fires children-changed *)
  ignore (ok_or_fail "new child" (s.Zk_client.create "/dir/extra" ~data:""));
  check_bool "parent child watch fired" true
    (List.mem (Ztree.Node_children_changed, "/dir") !events)

(* {2 Snapshots} *)

let build_rich_tree () =
  let tree = Ztree.create () in
  let zxid = ref 0L in
  let next () = zxid := Int64.add !zxid 1L; !zxid in
  ignore (ok_or_fail "a" (Ztree.apply tree ~zxid:(next ()) ~time:1.5 [ create_op ~data:"alpha" "/a" ]));
  ignore (ok_or_fail "a/b" (Ztree.apply tree ~zxid:(next ()) ~time:2.5 [ create_op ~data:"beta\nwith|newline: stuff" "/a/b" ]));
  ignore (ok_or_fail "eph" (Ztree.apply tree ~zxid:(next ()) ~time:3. [ create_op ~ephemeral:42L "/e" ]));
  ignore (ok_or_fail "seq" (Ztree.apply tree ~zxid:(next ()) ~time:4. [ create_op ~sequential:true "/a/s-" ]));
  ignore
    (ok_or_fail "set"
       (Ztree.apply tree ~zxid:(next ()) ~time:5.
          [ Txn.Set_data { path = "/a"; data = "alpha2"; expected_version = 0 } ]));
  (tree, next)

let test_snapshot_roundtrip () =
  let tree, _ = build_rich_tree () in
  match Ztree.deserialize (Ztree.serialize tree) with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
    check_bool "equal state" true (Ztree.equal_state tree restored);
    check_int "same fingerprint" (Ztree.fingerprint tree) (Ztree.fingerprint restored);
    check_int "same node count" (Ztree.node_count tree) (Ztree.node_count restored);
    check_bool "same last zxid" true (Ztree.last_zxid tree = Ztree.last_zxid restored);
    check_int "same byte accounting" (Ztree.resident_bytes tree)
      (Ztree.resident_bytes restored);
    (* stats survive *)
    let _, stat = ok_or_fail "get" (Ztree.get restored "/a") in
    check_int "version" 1 stat.Ztree.version;
    check_int "cversion" 2 stat.Ztree.cversion;
    (* ephemerals tracking survives *)
    check_int "ephemerals rebuilt" 1 (List.length (Ztree.ephemerals_of restored ~owner:42L))

let test_snapshot_restored_tree_keeps_working () =
  let tree, _ = build_rich_tree () in
  let restored = Result.get_ok (Ztree.deserialize (Ztree.serialize tree)) in
  let zxid = Int64.add (Ztree.last_zxid restored) 1L in
  (* sequential counter continues where it left off *)
  (* /a's child-sequence counter was 2 (children b and s-0000000001) *)
  (match ok_or_fail "seq" (apply_one restored ~zxid (create_op ~sequential:true "/a/s-")) with
  | [ Txn.Created path ] -> check_string "counter continued" "/a/s-0000000002" path
  | _ -> Alcotest.fail "shape");
  (* mutation on the restored tree does not affect the original *)
  check_bool "original untouched" false (Ztree.equal_state tree restored)

let test_snapshot_rejects_garbage () =
  List.iter
    (fun s ->
      match Ztree.deserialize s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "nonsense"; "ZTREEv1 abc\n1\n"; "ZTREEv1 5\n"; "ZTREEv1 5\n2\n1:/0: 0 0 0 1 1 1 0 0 0\n" ]

(* The snapshot payload is what the WAL checksums and what a restarted
   server reads back, so its bytes are a stored format: pinned here for a
   tree with a sequential child, an ephemeral, a rewritten node and
   non-integral timestamps. *)
let test_snapshot_golden_bytes () =
  let tree = Ztree.create () in
  let apply zxid time op = ignore (ok_or_fail "apply" (Ztree.apply tree ~zxid ~time [ op ])) in
  apply 1L 0.5 (Txn.Create { path = "/a"; data = "root-a"; ephemeral_owner = 0L; sequential = false });
  apply 2L 1.25 (Txn.Create { path = "/a/s-"; data = ""; ephemeral_owner = 0L; sequential = true });
  apply 3L 2.0 (Txn.Create { path = "/a/e"; data = "eph"; ephemeral_owner = 99L; sequential = false });
  apply 4L 3.75 (Txn.Set_data { path = "/a"; data = "new\ndata"; expected_version = 0 });
  check_string "serialized bytes"
    "ZTREEv1 4\n4\n1:/0: 0 1 1 0 0 1 0 0 0\n\
     2:/a8:new\ndata 1 2 2 1 4 3 3fe0000000000000 400e000000000000 0\n\
     4:/a/e3:eph 0 0 0 3 3 3 4000000000000000 4000000000000000 99\n\
     15:/a/s-00000000000: 0 0 0 2 2 2 3ff4000000000000 3ff4000000000000 0\n"
    (Ztree.serialize tree)

let prop_float_bits_match_printf =
  QCheck2.Test.make ~name:"add_float_bits is Printf %Lx of the bits" ~count:1000
    QCheck2.Gen.(oneof [ float; map Int64.float_of_bits int64 ])
    (fun f ->
      let b = Buffer.create 16 in
      Ztree.add_float_bits b f;
      Buffer.contents b = Printf.sprintf "%Lx" (Int64.bits_of_float f))

let prop_snapshot_roundtrip =
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 1 50)
        (oneof
           [ map (fun (a, sub) -> `Create ("/" ^ a ^ (if sub then "/x" else "")))
               (pair (oneofl [ "p"; "q"; "r" ]) bool);
             map (fun a -> `Delete ("/" ^ a)) (oneofl [ "p"; "q"; "p/x" ]);
             map (fun (a, d) -> `Set ("/" ^ a, d))
               (pair (oneofl [ "p"; "q"; "r" ]) (string_size (int_range 0 12))) ]))
  in
  QCheck2.Test.make ~name:"snapshot roundtrip preserves state for random trees"
    ~count:200 gen_ops (fun ops ->
      let tree = Ztree.create () in
      let zxid = ref 0L in
      List.iter
        (fun op ->
          zxid := Int64.add !zxid 1L;
          ignore
            (match op with
            | `Create path -> Ztree.apply tree ~zxid:!zxid ~time:0. [ create_op path ]
            | `Delete path ->
              Ztree.apply tree ~zxid:!zxid ~time:0.
                [ Txn.Delete { path; expected_version = -1 } ]
            | `Set (path, data) ->
              Ztree.apply tree ~zxid:!zxid ~time:0.
                [ Txn.Set_data { path; data; expected_version = -1 } ]))
        ops;
      match Ztree.deserialize (Ztree.serialize tree) with
      | Ok restored ->
        Ztree.equal_state tree restored
        && Ztree.fingerprint tree = Ztree.fingerprint restored
        && Ztree.resident_bytes tree = Ztree.resident_bytes restored
      | Error _ -> false)

(* A snapshot freezes the tree when taken and is encoded later, after
   the live tree has moved on. [freeze] takes a snapshot and returns its
   deferred bytes; whatever ops run before they are read, the bytes must
   be those [serialize] gave at the moment of freezing. *)
let prop_frozen_snapshot ~name ~count freeze =
  let gen_path =
    QCheck2.Gen.(
      map (fun parts -> "/" ^ String.concat "/" parts)
        (list_size (int_range 1 2) (oneofl [ "a"; "b"; "c" ])))
  in
  let gen_op =
    QCheck2.Gen.(
      oneof
        [ map (fun (path, data) -> create_op ~data path) (pair gen_path (string_size (int_range 0 6)));
          map (fun path -> create_op ~sequential:true (path ^ "-")) gen_path;
          map (fun path -> create_op ~ephemeral:7L path) gen_path;
          map (fun path -> Txn.Delete { path; expected_version = -1 }) gen_path;
          map (fun (path, data) -> Txn.Set_data { path; data; expected_version = -1 })
            (pair gen_path (string_size (int_range 0 6))) ])
  in
  let gen_txn =
    QCheck2.Gen.(
      oneof
        [ map (fun op -> [ op ]) gen_op;
          (* a multi whose last op always fails: the ops before it apply
             and are discarded *)
          map (fun ops -> ops @ [ Txn.Check { path = "/missing"; expected_version = 0 } ])
            (list_size (int_range 1 3) gen_op) ])
  in
  QCheck2.Test.make ~name ~count
    QCheck2.Gen.(pair (list_size (int_range 1 40) gen_txn) (int_bound 40))
    (fun (txns, k) ->
      let tree = Ztree.create () in
      (* apply the txns at indices where [pick i] holds, in order *)
      let apply_where pick =
        List.iteri
          (fun i txn ->
            if pick i then
              ignore
                (Ztree.apply tree ~zxid:(Int64.of_int (i + 1))
                   ~time:(0.5 *. float_of_int i) txn))
          txns
      in
      apply_where (fun i -> i < k);
      let deferred = freeze tree in
      let bytes_k = Ztree.serialize tree and fingerprint_k = Ztree.fingerprint tree in
      apply_where (fun i -> i >= k);
      let bytes = deferred () in
      bytes = bytes_k
      &&
      match Ztree.deserialize bytes with
      | Ok restored -> Ztree.fingerprint restored = fingerprint_k
      | Error _ -> false)

let prop_capture_stays_frozen =
  prop_frozen_snapshot ~name:"encode of a capture is serialize at capture time" ~count:300
    (fun tree ->
      let img = Ztree.capture tree in
      fun () -> Ztree.encode img)

(* Suspending [serialize] of the live tree, instead of encoding a
   capture, encodes whatever tree exists when the bytes are first read:
   the property above must catch it. *)
let test_lazy_serialize_is_not_frozen () =
  let lazy_serialize =
    prop_frozen_snapshot ~name:"suspended serialize" ~count:300 (fun tree ->
        let bytes = lazy (Ztree.serialize tree) in
        fun () -> Lazy.force bytes)
  in
  match QCheck2.Test.check_exn ~rand:(Random.State.make [| 19 |]) lazy_serialize with
  | () -> Alcotest.fail "a suspended serialize passed as a frozen snapshot"
  | exception QCheck2.Test.Test_fail _ -> ()

(* {2 Child sets}

   A node's children are the range of paths under it in the tree's path
   map: listings must see exactly the children, of leaves and parents
   alike, after creates, deletes and failed multis. *)

let children_of tree path = ok_or_fail ("children " ^ path) (Ztree.children tree path)

let num_children tree path =
  (snd (ok_or_fail ("get " ^ path) (Ztree.get tree path))).Ztree.num_children

let test_leaves_share_no_written_child_set () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "a" (apply_one tree ~zxid:1L (create_op "/a")));
  ignore (ok_or_fail "b" (apply_one tree ~zxid:2L (create_op "/b")));
  ignore (ok_or_fail "a/x" (apply_one tree ~zxid:3L (create_op ~data:"x" "/a/x")));
  Alcotest.(check (list string)) "/a has its child" [ "x" ] (children_of tree "/a");
  Alcotest.(check (list string)) "the other leaf still lists nothing" []
    (children_of tree "/b");
  check_int "and counts nothing" 0 (num_children tree "/b");
  check_int "bulk listing of the leaf is empty" 0
    (List.length (ok_or_fail "bulk /b" (Ztree.children_with_data tree "/b")));
  ignore (ok_or_fail "c" (apply_one tree ~zxid:4L (create_op "/c")));
  Alcotest.(check (list string)) "a later leaf lists nothing" [] (children_of tree "/c");
  check_int "the new child is a leaf too" 0 (num_children tree "/a/x")

let test_failed_multi_restores_child_sets () =
  let tree = Ztree.create () in
  ignore (ok_or_fail "a" (apply_one tree ~zxid:1L (create_op "/a")));
  ignore (ok_or_fail "b" (apply_one tree ~zxid:2L (create_op "/b")));
  ignore (ok_or_fail "a/x" (apply_one tree ~zxid:3L (create_op "/a/x")));
  let fingerprint = Ztree.fingerprint tree in
  let listing () =
    List.map (fun path -> (path, children_of tree path, num_children tree path))
      [ "/"; "/a"; "/b"; "/a/x" ]
  in
  let before = listing () in
  (* creates under a leaf and under a parent, then a failing op *)
  expect_err "failed creates" Zerror.ZNONODE
    (Ztree.apply tree ~zxid:4L ~time:1.
       [ create_op "/b/y"; create_op "/a/z"; create_op "/missing/q" ]);
  check_bool "creates undone" true (listing () = before);
  (* a delete of the only child, a create under the leaf, then a failing guard *)
  expect_err "failed delete" Zerror.ZBADVERSION
    (Ztree.apply tree ~zxid:5L ~time:1.
       [ Txn.Delete { path = "/a/x"; expected_version = -1 };
         create_op "/b/y";
         Txn.Check { path = "/a"; expected_version = 99 } ]);
  check_bool "delete and create undone" true (listing () = before);
  check_int "fingerprint unchanged" fingerprint (Ztree.fingerprint tree);
  (* the restored sets keep working *)
  ignore (ok_or_fail "b/w" (apply_one tree ~zxid:6L (create_op "/b/w")));
  Alcotest.(check (list string)) "/b gains its child" [ "w" ] (children_of tree "/b");
  Alcotest.(check (list string)) "/a unchanged" [ "x" ] (children_of tree "/a");
  Alcotest.(check (list string)) "/a/x still a leaf" [] (children_of tree "/a/x")

(* [children_with_data] by definition: each child's full path rebuilt
   and looked up on its own. *)
let children_with_data_by_lookup tree path =
  Result.map
    (List.filter_map (fun name ->
         match Ztree.get tree (Zpath.concat path name) with
         | Ok (data, stat) -> Some (name, data, stat)
         | Error _ -> None))
    (Ztree.children tree path)

let rec all_paths tree path =
  path
  :: List.concat_map
       (fun name -> all_paths tree (Zpath.concat path name))
       (children_of tree path)

let prop_children_with_data_reads_child_nodes =
  let gen_path = QCheck2.Gen.(map (fun parts -> "/" ^ String.concat "/" parts)
                                (list_size (int_range 1 3) (oneofl [ "p"; "q"; "r" ]))) in
  let gen_op =
    QCheck2.Gen.(
      oneof
        [ map (fun path -> [ create_op ~data:path path ]) gen_path;
          map (fun path -> [ create_op ~sequential:true (path ^ "-") ]) gen_path;
          map (fun path -> [ Txn.Delete { path; expected_version = -1 } ]) gen_path;
          map (fun (path, data) -> [ Txn.Set_data { path; data; expected_version = -1 } ])
            (pair gen_path (string_size (int_range 0 8)));
          (* multis that often fail half-way *)
          map (fun (a, b) -> [ create_op a; Txn.Delete { path = b; expected_version = -1 } ])
            (pair gen_path gen_path) ])
  in
  QCheck2.Test.make
    ~name:"children_with_data = children + per-path lookup, before and after a snapshot"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) gen_op)
    (fun txns ->
      let tree = Ztree.create () in
      List.iteri
        (fun i txn ->
          ignore (Ztree.apply tree ~zxid:(Int64.of_int (i + 1)) ~time:(float_of_int i) txn))
        txns;
      let agree tree =
        List.for_all
          (fun path ->
            Ztree.children_with_data tree path = children_with_data_by_lookup tree path)
          (all_paths tree "/")
      in
      match Ztree.deserialize (Ztree.serialize tree) with
      | Error _ -> false
      | Ok restored ->
        agree tree && agree restored
        && Ztree.fingerprint tree = Ztree.fingerprint restored
        && List.for_all
             (fun path ->
               Ztree.children_with_data tree path
               = Ztree.children_with_data restored path)
             (all_paths tree "/"))

(* {2 Memory model} *)

let test_memory_model_slope () =
  let svc = Zk_local.create () in
  let s = Zk_local.session svc in
  ignore (ok_or_fail "root" (s.Zk_client.create "/m" ~data:""));
  let base = Zk_local.server_resident_bytes svc in
  check_bool "baseline includes JVM" true (base >= Zk.Memory_model.jvm_baseline_bytes);
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore
      (ok_or_fail "mk"
         (s.Zk_client.create (Printf.sprintf "/m/d%08d" i) ~data:(String.make 35 'm')))
  done;
  let per_node =
    float_of_int (Zk_local.server_resident_bytes svc - base) /. float_of_int n
  in
  (* the paper's figure: ~417 MB per million znodes (§V-E) *)
  check_bool
    (Printf.sprintf "per-znode cost near 417 B (got %.0f)" per_node)
    true
    (per_node > 330. && per_node < 510.)

(* {2 Zxid tables} *)

module Zxid_tbl = Zk.Zxid_tbl
module I64_map = Map.Make (Int64)

type tbl_op =
  | Replace of int * int
  | Remove of int
  | Find of int
  | Push of int * int  (* bind the key [gap] past the front, which moves there *)
  | Pop  (* remove the lowest key *)
  | Under of int * int  (* bind the key [d] below the lowest *)
  | Reset
  | Walk

let show_tbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Push (gap, v) -> Printf.sprintf "push +%d %d" gap v
  | Pop -> "pop"
  | Under (d, v) -> Printf.sprintf "under -%d %d" d v
  | Reset -> "reset"
  | Walk -> "walk"

(* Two kinds of run. Sliding runs follow a moving front, as the dense
   counters the table is built for do: keys bound at the front and
   removed from the back, so the window compacts in place, with now and
   then a key just under the lowest one. Scattered runs also land keys
   below the base, across gaps and thousands apart, which forces growth
   and re-basing. *)
let gen_tbl_ops =
  QCheck2.Gen.(
    let key =
      oneof [ int_range 0 64; int_range (-300) 300; int_range 0 6000; int_range 900 1100 ]
    and push = map2 (fun gap v -> Push (gap, v)) (int_range 1 3) small_nat
    and under = map2 (fun d v -> Under (d, v)) (int_range 1 4) small_nat in
    let sliding =
      frequency
        [ (10, push); (8, return Pop); (1, under);
          (2, map (fun k -> Find k) (int_range 0 900)); (1, return Walk) ]
    and scattered =
      frequency
        [ (8, map2 (fun k v -> Replace (k, v)) key small_nat);
          (5, map (fun k -> Remove k) key);
          (4, push); (3, return Pop); (1, under);
          (3, map (fun k -> Find k) key);
          (1, return Reset);
          (2, return Walk) ]
    in
    oneof
      [ list_size (int_range 1 400) sliding; list_size (int_range 1 400) scattered ])

(* Run [ops] against a [Map] model, with every key shifted by [offset]
   (the table must not care where the keys start). After each step the
   table must agree with the model on length, lookups, both ends and
   ascending iteration, and its capacity must stay within
   [max initial (2 * span)] for the widest live span since the last
   reset. *)
let zxid_tbl_agrees_with_model (offset, ops) =
  let initial = 16 in
  let t = Zxid_tbl.create initial in
  let model = ref I64_map.empty and peak_span = ref 0 and front = ref 0 in
  let key k = Int64.add offset (Int64.of_int k) in
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_report m) fmt in
  List.iteri
    (fun step op ->
      (match op with
       | Replace (k, v) ->
         Zxid_tbl.replace t (key k) v;
         model := I64_map.add (key k) v !model
       | Remove k ->
         Zxid_tbl.remove t (key k);
         model := I64_map.remove (key k) !model
       | Push (gap, v) ->
         front := !front + gap;
         Zxid_tbl.replace t (key !front) v;
         model := I64_map.add (key !front) v !model
       | Pop -> (
         match I64_map.min_binding_opt !model with
         | Some (k, _) ->
           Zxid_tbl.remove t k;
           model := I64_map.remove k !model
         | None -> ())
       | Under (d, v) ->
         let lowest =
           match I64_map.min_binding_opt !model with
           | Some (k, _) -> k
           | None -> key !front
         in
         let k = Int64.sub lowest (Int64.of_int d) in
         Zxid_tbl.replace t k v;
         model := I64_map.add k v !model
       | Find k ->
         if Zxid_tbl.find_opt t (key k) <> I64_map.find_opt (key k) !model then
           fail "step %d: find %d disagrees" step k;
         if Zxid_tbl.mem t (key k) <> I64_map.mem (key k) !model then
           fail "step %d: mem %d disagrees" step k
       | Reset ->
         Zxid_tbl.reset t;
         model := I64_map.empty;
         peak_span := 0
       | Walk ->
         let walked = ref [] in
         Zxid_tbl.iter (fun k v -> walked := (k, v) :: !walked) t;
         if List.rev !walked <> I64_map.bindings !model then
           fail "step %d: iter is not the ascending bindings" step;
         let folded = Zxid_tbl.fold (fun k v acc -> (k, v) :: acc) t [] in
         if folded <> !walked then fail "step %d: fold disagrees with iter" step);
      let lo = Option.map fst (I64_map.min_binding_opt !model)
      and hi = Option.map fst (I64_map.max_binding_opt !model) in
      (match lo, hi with
       | Some lo, Some hi ->
         peak_span := max !peak_span (Int64.to_int (Int64.sub hi lo) + 1)
       | _ -> ());
      if Zxid_tbl.length t <> I64_map.cardinal !model then
        fail "step %d (%s): length %d, model %d" step (show_tbl_op op)
          (Zxid_tbl.length t) (I64_map.cardinal !model);
      if Zxid_tbl.min_key t <> lo || Zxid_tbl.max_key t <> hi then
        fail "step %d (%s): ends disagree" step (show_tbl_op op);
      I64_map.iter
        (fun k v ->
          if Zxid_tbl.find_opt t k <> Some v then
            fail "step %d (%s): lost key %Ld" step (show_tbl_op op) k)
        !model;
      if Zxid_tbl.capacity t > max initial (2 * !peak_span) then
        fail "step %d (%s): capacity %d for a peak span of %d" step (show_tbl_op op)
          (Zxid_tbl.capacity t) !peak_span)
    ops;
  true

let prop_zxid_tbl_model =
  QCheck2.Test.make ~name:"Zxid_tbl agrees with a Map model" ~count:500
    ~print:(fun (offset, ops) ->
      Printf.sprintf "offset %Ld: %s" offset
        (String.concat "; " (List.map show_tbl_op ops)))
    QCheck2.Gen.(pair (oneofl [ 0L; 1L; -5_000L; 1_000_000_007L ]) gen_tbl_ops)
    zxid_tbl_agrees_with_model

let test_zxid_tbl_copy_is_independent () =
  let t = Zxid_tbl.create 4 in
  List.iter (fun k -> Zxid_tbl.replace t k (Int64.to_int k)) [ 5L; 6L; 9L ];
  let c = Zxid_tbl.copy t in
  Zxid_tbl.remove t 6L;
  Zxid_tbl.replace c 20L 20;
  check_bool "copy keeps a key removed from the original" true (Zxid_tbl.mem c 6L);
  check_bool "original misses a key added to the copy" false (Zxid_tbl.mem t 20L);
  check_int "original length" 2 (Zxid_tbl.length t);
  check_int "copy length" 4 (Zxid_tbl.length c)

(* {2 Shared apply}

   Members of one share that hold the same image adopt each other's
   applies; a member that lags, diverges or is restored from bytes
   computes its own. Either way every member must end exactly where a
   private tree applying the same stream ends. *)

(* The fired watch log of a tree whose data and child watches on every
   path of [paths] re-arm as they fire. [tree] follows restores. *)
let watch_everything tree paths =
  let log = ref [] in
  let rec arm_data path =
    Ztree.watch_data !tree path (fun ev ->
        log := ("data", ev.Ztree.kind, ev.Ztree.path) :: !log;
        arm_data path)
  and arm_child path =
    Ztree.watch_children !tree path (fun ev ->
        log := ("child", ev.Ztree.kind, ev.Ztree.path) :: !log;
        arm_child path)
  in
  List.iter (fun path -> arm_data path; arm_child path) paths;
  log

let shared_paths = [ "/a"; "/b"; "/a/x"; "/a/y"; "/b/x"; "/a/x/z" ]

let gen_shared_txn =
  let open QCheck2.Gen in
  let path = oneofl shared_paths in
  let version = oneofl [ -1; 0; 1 ] in
  let op =
    frequency
      [ (4, map (fun p -> create_op ~data:p p) path);
        (1, map (fun p -> create_op ~sequential:true (p ^ "-s")) path);
        (2, map2 (fun p o -> create_op ~ephemeral:o p) path (oneofl [ 7L; 9L ]));
        (3, map2 (fun p v -> Txn.Delete { path = p; expected_version = v }) path version);
        ( 3,
          map3
            (fun p d v -> Txn.Set_data { path = p; data = d; expected_version = v })
            path (string_size ~gen:(char_range 'a' 'c') (int_range 0 3)) version );
        (1, map2 (fun p v -> Txn.Check { path = p; expected_version = v }) path version) ]
  in
  frequency
    [ (5, map (fun o -> [ o ]) op);
      (2, list_size (int_range 2 3) op);
      (* a multi whose last op always fails *)
      (1, map (fun ops -> ops @ [ Txn.Check { path = "/none"; expected_version = -1 } ])
           (list_size (int_range 1 2) op)) ]

(* One step: a txn, then each member's move: 0-4 stay behind, 5-7 catch
   up, 8 catch up through decoded (equal, not identical) txns, 9 catch
   up, then restore from its own bytes. *)
let gen_shared_stream =
  QCheck2.Gen.(
    pair (int_range 2 4)
      (list_size (int_range 1 320) (pair gen_shared_txn (list_repeat 4 (int_bound 9)))))

let decoded_copy (txn : Txn.t) : Txn.t = Marshal.from_string (Marshal.to_string txn []) 0

let prop_shared_apply_matches_private =
  QCheck2.Test.make ~name:"shared apply = private apply, members lagging and restored"
    ~count:200 gen_shared_stream (fun (k, steps) ->
      let steps = Array.of_list steps in
      let n = Array.length steps in
      let time i = 0.25 *. float_of_int i in
      let private_tree = ref (Ztree.create ()) in
      let private_log = watch_everything private_tree shared_paths in
      let results = Array.make n (Ok []) in
      let share = Ztree.share () in
      let members = Array.init k (fun _ -> ref (Ztree.create ~share ())) in
      let logs = Array.map (fun m -> watch_everything m shared_paths) members in
      let next = Array.make k 0 in
      let ok = ref true in
      let catch_up j ~upto ~decoded =
        let m = members.(j) in
        while next.(j) < upto do
          let i = next.(j) in
          let txn = fst steps.(i) in
          let txn = if decoded then decoded_copy txn else txn in
          let before = Ztree.capture !m in
          let r = Ztree.apply !m ~zxid:(Int64.of_int (i + 1)) ~time:(time i) txn in
          if r <> results.(i) then ok := false;
          (* a failed multi keeps the very image it started from *)
          if Result.is_error r && Ztree.capture !m != before then ok := false;
          next.(j) <- i + 1
        done
      in
      Array.iteri
        (fun i (txn, moves) ->
          results.(i) <- Ztree.apply !private_tree ~zxid:(Int64.of_int (i + 1)) ~time:(time i) txn;
          List.iteri
            (fun j move ->
              (* the last member never moves before the end: it lags the
                 whole stream, past the share's memory when the stream is
                 long *)
              if j < k - 1 && move >= 5 then begin
                catch_up j ~upto:(i + 1) ~decoded:(move = 8);
                if move = 9 then begin
                  let m = members.(j) in
                  let old = !m in
                  let restored = Result.get_ok (Ztree.deserialize (Ztree.serialize old)) in
                  m := Ztree.restore ~share (Ztree.capture restored);
                  Ztree.migrate_watches ~from:old ~into:!m
                end
              end)
            moves)
        steps;
      Array.iteri (fun j _ -> catch_up j ~upto:n ~decoded:false) members;
      let bytes = Ztree.serialize !private_tree in
      !ok
      && Array.for_all
           (fun m ->
             Ztree.serialize !m = bytes
             && Ztree.fingerprint !m = Ztree.fingerprint !private_tree
             && Ztree.resident_bytes !m = Ztree.resident_bytes !private_tree
             && Ztree.node_count !m = Ztree.node_count !private_tree)
           members
      && Array.for_all (fun log -> !log = !private_log) logs)

let test_members_in_step_share_one_image () =
  let share = Ztree.share () in
  let a = Ztree.create ~share () and b = Ztree.create ~share () in
  let txns =
    [ [ create_op "/d" ]; [ create_op ~ephemeral:3L "/d/e" ];
      [ Txn.Set_data { path = "/d"; data = "x"; expected_version = 0 } ] ]
  in
  List.iteri
    (fun i txn ->
      let zxid = Int64.of_int (i + 1) in
      ignore (ok_or_fail "a" (Ztree.apply a ~zxid ~time:1. txn));
      ignore (ok_or_fail "b" (Ztree.apply b ~zxid ~time:1. txn));
      check_bool "b adopts a's image" true (Ztree.capture a == Ztree.capture b))
    txns;
  check_int "b adopted every apply" 3 (Ztree.adopted share);
  check_int "a computed every apply" 3 (Ztree.computed share);
  (* the same zxid and pre-state with another txn, or at another time,
     is another apply *)
  let img = Ztree.capture a in
  let apply_at time txn =
    let t = Ztree.restore ~share img in
    ignore (ok_or_fail "apply" (Ztree.apply t ~zxid:4L ~time txn));
    t
  in
  let f = [ create_op "/f" ] in
  ignore (apply_at 1. f);
  check_bool "another txn: its own outcome" true
    (Ztree.exists (apply_at 1. [ create_op "/h" ]) "/f" = None);
  ignore (apply_at 1. f);
  check_bool "another time: its own outcome" true
    (Option.map (fun st -> st.Ztree.ctime) (Ztree.exists (apply_at 2. f) "/f") = Some 2.);
  (* members restoring one snapshot image replay from that very image,
     and decoded txns adopt *)
  let snap = Ztree.capture a in
  let c = Ztree.restore ~share snap and d = Ztree.restore ~share snap in
  let txn = [ create_op "/g" ] in
  ignore (ok_or_fail "c" (Ztree.apply c ~zxid:5L ~time:3. txn));
  ignore (ok_or_fail "d" (Ztree.apply d ~zxid:5L ~time:3. (decoded_copy txn)));
  check_bool "a decoded txn adopts" true (Ztree.capture c == Ztree.capture d)

let test_shares_never_cross () =
  let base = Ztree.create () in
  ignore (ok_or_fail "base" (Ztree.apply base ~zxid:1L ~time:1. [ create_op "/d" ]));
  let img = Ztree.capture base in
  let s1 = Ztree.share () and s2 = Ztree.share () in
  let a = Ztree.restore ~share:s1 img
  and a' = Ztree.restore ~share:s1 img
  and b = Ztree.restore ~share:s2 img in
  let txn = [ create_op "/d/x" ] in
  List.iter (fun t -> ignore (ok_or_fail "apply" (Ztree.apply t ~zxid:2L ~time:2. txn))) [ a; a'; b ];
  check_bool "same share: adopted" true (Ztree.capture a == Ztree.capture a');
  check_bool "other share: its own apply" true (Ztree.capture a != Ztree.capture b);
  check_int "nothing adopted across shares" 0 (Ztree.adopted s2);
  check_bool "same content" true (Ztree.serialize a = Ztree.serialize b)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "zk"
    [ ( "zpath",
        [ Alcotest.test_case "validate" `Quick test_zpath_validate;
          Alcotest.test_case "parts" `Quick test_zpath_parts;
          Alcotest.test_case "sequential name" `Quick test_sequential_name ] );
      ( "ztree-create",
        [ Alcotest.test_case "create and get" `Quick test_create_and_get;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "parent bookkeeping" `Quick test_parent_bookkeeping;
          Alcotest.test_case "sequential create" `Quick test_sequential_create;
          Alcotest.test_case "sequential counter persists" `Quick
            test_sequential_counter_not_reused_after_delete ] );
      ( "ztree-mutate",
        [ Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "version checks" `Quick test_version_checks;
          Alcotest.test_case "mzxid tracking" `Quick test_mzxid_tracks_set ] );
      ( "ztree-ephemeral",
        [ Alcotest.test_case "no children" `Quick test_ephemeral_no_children;
          Alcotest.test_case "per-owner tracking" `Quick test_ephemerals_of_owner ] );
      ( "ztree-multi",
        [ Alcotest.test_case "atomic success" `Quick test_multi_atomic_success;
          Alcotest.test_case "rollback on failure" `Quick test_multi_rollback_on_failure;
          Alcotest.test_case "rename pattern" `Quick test_multi_rename_pattern;
          Alcotest.test_case "zxid monotonicity" `Quick test_zxid_monotonicity_enforced ] );
      ( "ztree-watches",
        [ Alcotest.test_case "data watch fires once" `Quick test_data_watch_fires_once;
          Alcotest.test_case "exists watch on create" `Quick
            test_exists_watch_fires_on_create;
          Alcotest.test_case "child watch" `Quick test_child_watch;
          Alcotest.test_case "delete fires data watch" `Quick
            test_delete_fires_data_watch;
          Alcotest.test_case "no watch on failed txn" `Quick test_no_watch_on_failed_txn ] );
      ( "ztree-invariants",
        [ Alcotest.test_case "bytes scale with nodes" `Quick test_bytes_scale_with_nodes;
          Alcotest.test_case "equal_state/fingerprint" `Quick
            test_equal_state_and_fingerprint;
          qc prop_tree_children_index_agree ] );
      ( "zk-local",
        [ Alcotest.test_case "session api" `Quick test_local_session_api;
          Alcotest.test_case "shared namespace" `Quick test_local_sessions_share_namespace;
          Alcotest.test_case "ephemeral cleanup" `Quick
            test_local_ephemeral_cleanup_on_close;
          Alcotest.test_case "sequential" `Quick test_local_sequential;
          Alcotest.test_case "multi" `Quick test_local_multi ] );
      ( "bulk-readdir",
        [ Alcotest.test_case "agrees with get loop (local)" `Quick
            test_bulk_readdir_agrees_with_get_loop_local;
          Alcotest.test_case "agrees with get loop (ensemble), 1 read" `Quick
            test_bulk_readdir_agrees_with_get_loop_ensemble;
          Alcotest.test_case "watch variant arms child + parent watches" `Quick
            test_bulk_readdir_watch_variant ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "restored tree keeps working" `Quick
            test_snapshot_restored_tree_keeps_working;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_rejects_garbage;
          Alcotest.test_case "golden bytes" `Quick test_snapshot_golden_bytes;
          qc prop_float_bits_match_printf;
          qc prop_snapshot_roundtrip;
          qc prop_capture_stays_frozen;
          Alcotest.test_case "suspended serialize is not frozen" `Quick
            test_lazy_serialize_is_not_frozen ] );
      ( "child-sets",
        [ Alcotest.test_case "leaves share an unwritten empty set" `Quick
            test_leaves_share_no_written_child_set;
          Alcotest.test_case "failed multi restores child sets" `Quick
            test_failed_multi_restores_child_sets;
          qc prop_children_with_data_reads_child_nodes ] );
      ( "memory-model",
        [ Alcotest.test_case "per-znode slope" `Quick test_memory_model_slope ] );
      ( "zxid-tbl",
        [ qc prop_zxid_tbl_model;
          Alcotest.test_case "copy is independent" `Quick
            test_zxid_tbl_copy_is_independent ] );
      ( "shared-apply",
        [ Alcotest.test_case "members in step share one image" `Quick
            test_members_in_step_share_one_image;
          Alcotest.test_case "shares never cross" `Quick test_shares_never_cross;
          qc prop_shared_apply_matches_private ] ) ]
