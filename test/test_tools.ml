(* Tests for the operational tooling: namespace scanning and the fsck
   consistency checker with injected corruption. *)

module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Memfs = Fuselike.Memfs
module Client = Dufs.Client
module Physical = Dufs.Physical
module Fsck = Dufs.Fsck
module Namespace = Dufs.Namespace
module Fid = Dufs.Fid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_fs label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Errno.to_string e)

let ok_zk label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Zk.Zerror.to_string e)

let make ?(backends = 2) () =
  let service = Zk.Zk_local.create () in
  let mounts = Array.init backends (fun _ -> Memfs.create ~clock:(fun () -> 0.) ()) in
  let mount_ops = Array.map Memfs.ops mounts in
  Array.iter
    (fun ops -> ok_fs "format" (Physical.format Physical.default_layout ops))
    mount_ops;
  let coord = Zk.Zk_local.session service in
  let client = Client.mount ~coord ~backends:mount_ops () in
  (service, coord, client, Client.ops client, mount_ops)

let populate fs =
  ok_fs "mkdir" (fs.Vfs.mkdir "/proj" ~mode:0o755);
  for i = 0 to 19 do
    let path = Printf.sprintf "/proj/f%02d" i in
    ok_fs "create" (fs.Vfs.create path ~mode:0o644);
    ignore (ok_fs "write" (fs.Vfs.write path ~off:0 (Printf.sprintf "data-%02d" i)))
  done

(* {2 Namespace} *)

let test_namespace_scan () =
  let _, coord, _, fs, _ = make () in
  populate fs;
  ok_fs "symlink" (fs.Vfs.symlink ~target:"/proj" "/link");
  let entries = ok_zk "scan" (Namespace.scan coord ~zroot:"/dufs") in
  let lefts = List.filter_map (function Either.Left e -> Some e | _ -> None) entries in
  check_int "1 dir + 20 files + 1 symlink" 22 (List.length lefts);
  (* parents precede children *)
  let index vpath =
    let rec find i = function
      | [] -> -1
      | { Namespace.vpath = v; _ } :: _ when v = vpath -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 lefts
  in
  check_bool "parent before child" true (index "/proj" < index "/proj/f00")

let test_namespace_files () =
  let _, coord, client, fs, _ = make () in
  populate fs;
  let files = ok_zk "files" (Namespace.files coord ~zroot:"/dufs") in
  check_int "20 files" 20 (List.length files);
  List.iter
    (fun (_vpath, fid) ->
      let backend = Client.locate client fid in
      check_bool "fid maps into range" true (backend >= 0 && backend < 2))
    files

(* {2 Fsck} *)

let scan_report coord mount_ops =
  ok_zk "fsck scan" (Fsck.scan ~coord ~backends:mount_ops ())

let test_fsck_clean_system () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  let report = scan_report coord mount_ops in
  check_bool "clean" true (Fsck.is_clean report);
  check_int "files checked" 20 report.Fsck.files_checked;
  check_int "dirs checked" 1 report.Fsck.dirs_checked;
  check_int "physicals checked" 20 report.Fsck.physicals_checked

let find_physical mount_ops fid =
  let path = Physical.path Physical.default_layout fid in
  let rec find i =
    if i >= Array.length mount_ops then None
    else if Vfs.exists mount_ops.(i) path then Some (i, path)
    else find (i + 1)
  in
  find 0

let test_fsck_detects_missing_physical () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  (* corrupt: delete one physical file behind DUFS's back *)
  let files = ok_zk "files" (Namespace.files coord ~zroot:"/dufs") in
  let _, fid = List.hd files in
  (match find_physical mount_ops fid with
  | Some (i, path) -> ok_fs "corrupt" (mount_ops.(i).Vfs.unlink path)
  | None -> Alcotest.fail "physical not found");
  let report = scan_report coord mount_ops in
  (match report.Fsck.issues with
  | [ Fsck.Missing_physical { fid = f; _ } ] ->
    check_bool "right fid" true (Fid.equal f fid)
  | issues -> Alcotest.failf "expected 1 missing, got %d issues" (List.length issues));
  (* repair recreates it (empty) *)
  let stats = Fsck.repair ~backends:mount_ops report in
  check_int "recreated" 1 stats.Fsck.recreated;
  check_bool "clean after repair" true (Fsck.is_clean (scan_report coord mount_ops))

let test_fsck_detects_orphan () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  (* drop an unreferenced fid-named file onto a backend *)
  let stray = Fid.make ~client_id:0xdeadL ~counter:0xbeefL in
  let path = Physical.path Physical.default_layout stray in
  ok_fs "plant orphan" (mount_ops.(0).Vfs.create path ~mode:0o644);
  let report = scan_report coord mount_ops in
  (match report.Fsck.issues with
  | [ Fsck.Orphan_physical { backend = 0; path = p } ] ->
    check_bool "path matches" true (p = path)
  | issues -> Alcotest.failf "expected 1 orphan, got %d issues" (List.length issues));
  let stats = Fsck.repair ~backends:mount_ops report in
  check_int "deleted" 1 stats.Fsck.deleted;
  check_bool "orphan gone" false (Vfs.exists mount_ops.(0) path);
  check_bool "clean after repair" true (Fsck.is_clean (scan_report coord mount_ops))

let test_fsck_detects_misplaced () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  (* move one physical file to the wrong backend *)
  let files = ok_zk "files" (Namespace.files coord ~zroot:"/dufs") in
  let _, fid = List.hd files in
  let path = Physical.path Physical.default_layout fid in
  let home, _ = Option.get (find_physical mount_ops fid) in
  let wrong = (home + 1) mod 2 in
  let contents = ok_fs "read" (mount_ops.(home).Vfs.read path ~off:0 ~len:1024) in
  ok_fs "create wrong" (mount_ops.(wrong).Vfs.create path ~mode:0o644);
  ignore (ok_fs "write wrong" (mount_ops.(wrong).Vfs.write path ~off:0 contents));
  ok_fs "remove right" (mount_ops.(home).Vfs.unlink path);
  let report = scan_report coord mount_ops in
  (match report.Fsck.issues with
  | [ Fsck.Misplaced_physical { expected; actual; _ } ] ->
    check_int "expected home" home expected;
    check_int "actual wrong" wrong actual
  | issues -> Alcotest.failf "expected 1 misplaced, got %d issues" (List.length issues));
  let stats = Fsck.repair ~backends:mount_ops report in
  check_int "moved" 1 stats.Fsck.moved;
  check_bool "back home with contents" true
    (ok_fs "read back" (mount_ops.(home).Vfs.read path ~off:0 ~len:1024) = contents);
  check_bool "clean after repair" true (Fsck.is_clean (scan_report coord mount_ops))

let test_fsck_detects_double_presence () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  (* copy one physical file to the other back-end and keep the home
     copy: a migration that died between its copy and its unlink *)
  let files = ok_zk "files" (Namespace.files coord ~zroot:"/dufs") in
  let vpath, fid = List.hd files in
  let path = Physical.path Physical.default_layout fid in
  let home, _ = Option.get (find_physical mount_ops fid) in
  let extra = (home + 1) mod 2 in
  let contents = ok_fs "read" (mount_ops.(home).Vfs.read path ~off:0 ~len:1024) in
  ok_fs "create copy" (mount_ops.(extra).Vfs.create path ~mode:0o644);
  ignore (ok_fs "write copy" (mount_ops.(extra).Vfs.write path ~off:0 contents));
  let report = scan_report coord mount_ops in
  (match report.Fsck.issues with
  | [ Fsck.Double_presence { vpath = v; fid = f; expected; extra = x } ] ->
    check_bool "right file" true (v = vpath && Fid.equal f fid);
    check_int "home" home expected;
    check_int "extra" extra x
  | issues ->
    Alcotest.failf "expected 1 double presence, got %d issues" (List.length issues));
  let stats = Fsck.repair ~backends:mount_ops report in
  check_int "deduplicated" 1 stats.Fsck.deduplicated;
  check_bool "stale copy gone" false (Vfs.exists mount_ops.(extra) path);
  check_bool "home copy kept" true
    (ok_fs "read back" (mount_ops.(home).Vfs.read path ~off:0 ~len:1024) = contents);
  check_bool "clean after repair" true (Fsck.is_clean (scan_report coord mount_ops))

let test_fsck_detects_undecodable_meta () =
  let _, coord, _, fs, mount_ops = make () in
  populate fs;
  ok_zk "corrupt meta" (coord.Zk.Zk_client.set "/dufs/proj/f00" ~data:"garbage!");
  let report = scan_report coord mount_ops in
  let has_undecodable =
    List.exists
      (function Fsck.Undecodable_meta { vpath; _ } -> vpath = "/proj/f00" | _ -> false)
      report.Fsck.issues
  in
  check_bool "found corrupt metadata" true has_undecodable;
  let stats = Fsck.repair ~backends:mount_ops report in
  check_bool "reported unrepairable" true (stats.Fsck.unrepairable >= 1)

let test_create_rollback_failure_flags_orphan () =
  (* the worst-case create: the back-end rejects the physical file AND
     the compensating znode delete times out. The client must surface
     EIO, record the stuck rollback, and fsck must find and clear the
     orphaned znode *)
  let service = Zk.Zk_local.create () in
  let real = Zk.Zk_local.session service in
  let fail_backend = ref false and fail_rollback = ref false in
  let coord =
    { real with
      Zk.Zk_client.delete =
        (fun ?version path ->
          if !fail_rollback && Filename.basename path = "f" then
            Error Zk.Zerror.ZOPERATIONTIMEOUT
          else real.Zk.Zk_client.delete ?version path) }
  in
  let mounts = Array.init 2 (fun _ -> Memfs.ops (Memfs.create ~clock:(fun () -> 0.) ())) in
  Array.iter
    (fun ops -> ok_fs "format" (Physical.format Physical.default_layout ops))
    mounts;
  let flaky =
    Array.map
      (fun ops ->
        { ops with
          Vfs.create =
            (fun path ~mode ->
              if !fail_backend then Error Errno.EIO else ops.Vfs.create path ~mode) })
      mounts
  in
  let client = Client.mount ~coord ~backends:flaky () in
  let fs = Client.ops client in
  fail_backend := true;
  fail_rollback := true;
  (match fs.Vfs.create "/f" ~mode:0o644 with
  | Error Errno.EIO -> ()
  | Ok () -> Alcotest.fail "create must fail when the back-end does"
  | Error e -> Alcotest.failf "expected EIO, got %s" (Errno.to_string e));
  (match Client.orphan_notes client with
  | [ note ] ->
    check_bool "the note names the orphaned znode" true
      (String.length note > 0
      && String.sub note 0 (String.length "/dufs/f") = "/dufs/f")
  | notes -> Alcotest.failf "expected 1 orphan note, got %d" (List.length notes));
  fail_backend := false;
  fail_rollback := false;
  let report = ok_zk "fsck scan" (Fsck.scan ~coord:real ~backends:mounts ()) in
  (match report.Fsck.issues with
  | [ Fsck.Missing_physical _ ] -> ()
  | issues ->
    Alcotest.failf "expected the orphaned znode flagged, got %d issues"
      (List.length issues));
  let stats = Fsck.repair ~backends:mounts report in
  check_int "repair recreates the physical" 1 stats.Fsck.recreated;
  check_bool "clean after repair" true
    (Fsck.is_clean (ok_zk "rescan" (Fsck.scan ~coord:real ~backends:mounts ())))

(* {2 Client-side cache} *)

module Cache = Dufs.Cache

(* A cache over a fresh session of [service]. Zk_local's default clock
   is constant 0, so the cache compares lease deadlines against the same
   clock and no lease expires during a test. *)
let cache_of ?capacity service =
  Cache.wrap ?capacity ~now:(fun () -> 0.) (Zk.Zk_local.session service)

let cache_pair () =
  let service = Zk.Zk_local.create () in
  let writer = Zk.Zk_local.session service in
  let cache = cache_of service in
  (writer, cache, Cache.handle cache)

let test_cache_hits_and_misses () =
  let writer, cache, cached = cache_pair () in
  ignore (ok_zk "seed" (writer.Zk.Zk_client.create "/n" ~data:"v1"));
  (match cached.Zk.Zk_client.get "/n" with
  | Ok ("v1", _) -> ()
  | _ -> Alcotest.fail "first read");
  check_int "first read misses" 1 (Cache.misses cache);
  for _ = 1 to 5 do
    ignore (cached.Zk.Zk_client.get "/n")
  done;
  check_int "re-reads hit" 5 (Cache.hits cache);
  check_int "still one miss" 1 (Cache.misses cache)

let test_cache_remote_invalidation () =
  let writer, cache, cached = cache_pair () in
  ignore (ok_zk "seed" (writer.Zk.Zk_client.create "/n" ~data:"v1"));
  ignore (cached.Zk.Zk_client.get "/n");
  (* another session updates; the lease revocation evicts our entry *)
  ok_zk "remote set" (writer.Zk.Zk_client.set "/n" ~data:"v2");
  check_bool "invalidated" true (Cache.invalidations cache >= 1);
  (match cached.Zk.Zk_client.get "/n" with
  | Ok ("v2", _) -> ()
  | Ok (d, _) -> Alcotest.failf "stale read %S" d
  | Error e -> Alcotest.failf "read failed: %s" (Zk.Zerror.to_string e))

let test_cache_negative_entries () =
  let writer, cache, cached = cache_pair () in
  (match cached.Zk.Zk_client.get "/future" with
  | Error Zk.Zerror.ZNONODE -> ()
  | _ -> Alcotest.fail "expected ZNONODE");
  ignore (cached.Zk.Zk_client.exists "/future");
  check_int "negative entry cached" 1 (Cache.misses cache);
  check_int "negative re-read hits" 1 (Cache.hits cache);
  (* creation by another session revokes the leased negative entry *)
  ignore (ok_zk "create" (writer.Zk.Zk_client.create "/future" ~data:"now"));
  (match cached.Zk.Zk_client.get "/future" with
  | Ok ("now", _) -> ()
  | _ -> Alcotest.fail "negative entry not invalidated on creation")

let test_cache_own_writes_visible () =
  let _, _, cached = cache_pair () in
  (match cached.Zk.Zk_client.get "/mine" with
  | Error Zk.Zerror.ZNONODE -> ()
  | _ -> Alcotest.fail "expected ZNONODE");
  ignore (ok_zk "create through cache" (cached.Zk.Zk_client.create "/mine" ~data:"a"));
  (match cached.Zk.Zk_client.get "/mine" with
  | Ok ("a", _) -> ()
  | _ -> Alcotest.fail "own create invisible (stale negative entry)");
  ok_zk "set through cache" (cached.Zk.Zk_client.set "/mine" ~data:"b");
  (match cached.Zk.Zk_client.get "/mine" with
  | Ok ("b", _) -> ()
  | _ -> Alcotest.fail "own set invisible");
  ok_zk "delete through cache" (cached.Zk.Zk_client.delete "/mine");
  (match cached.Zk.Zk_client.get "/mine" with
  | Error Zk.Zerror.ZNONODE -> ()
  | _ -> Alcotest.fail "own delete invisible")

let test_cache_children_invalidation () =
  let writer, _, cached = cache_pair () in
  ignore (ok_zk "mk" (writer.Zk.Zk_client.create "/d" ~data:""));
  Alcotest.(check (list string)) "initially empty" []
    (ok_zk "children" (cached.Zk.Zk_client.children "/d"));
  ignore (ok_zk "remote child" (writer.Zk.Zk_client.create "/d/c" ~data:""));
  Alcotest.(check (list string)) "sees the new child" [ "c" ]
    (ok_zk "children again" (cached.Zk.Zk_client.children "/d"))

let test_cache_lru_bound () =
  let service = Zk.Zk_local.create () in
  let writer = Zk.Zk_local.session service in
  for i = 0 to 9 do
    ignore (ok_zk "mk" (writer.Zk.Zk_client.create (Printf.sprintf "/n%d" i) ~data:""))
  done;
  let cache = cache_of ~capacity:4 service in
  let h = Cache.handle cache in
  for i = 0 to 9 do
    ignore (h.Zk.Zk_client.get (Printf.sprintf "/n%d" i))
  done;
  check_bool
    (Printf.sprintf "size %d bounded by capacity" (Cache.size cache))
    true
    (Cache.size cache <= 4);
  (* evicted entries simply miss again *)
  ignore (h.Zk.Zk_client.get "/n0");
  check_int "eviction causes a re-miss" 11 (Cache.misses cache)

let test_cache_queue_stays_bounded () =
  (* regression: repeated hits used to append one stale queue entry each,
     growing the recency queue without bound on hit-heavy workloads *)
  let service = Zk.Zk_local.create () in
  let writer = Zk.Zk_local.session service in
  ignore (ok_zk "seed" (writer.Zk.Zk_client.create "/hot" ~data:"v"));
  let cache = cache_of ~capacity:8 service in
  let h = Cache.handle cache in
  for _ = 1 to 1000 do
    match h.Zk.Zk_client.get "/hot" with
    | Ok ("v", _) -> ()
    | _ -> Alcotest.fail "hot entry misread"
  done;
  (* each of the two stores holds at most its capacity *)
  check_bool
    (Printf.sprintf "queue length %d bounded" (Cache.queue_length cache))
    true
    (Cache.queue_length cache <= 2 * 8 * 2);
  check_int "queue length = size" (Cache.size cache) (Cache.queue_length cache);
  check_int "still a single miss" 1 (Cache.misses cache);
  check_bool "hits recorded" true (Cache.hits cache >= 999)

let test_cache_dufs_end_to_end () =
  (* DUFS mounted over a cached handle behaves identically on a mixed
     op sequence, including cross-client visibility *)
  let service = Zk.Zk_local.create () in
  let mounts = Array.init 2 (fun _ -> Memfs.create ~clock:(fun () -> 0.) ()) in
  let mount_ops = Array.map Memfs.ops mounts in
  Array.iter
    (fun ops -> ok_fs "format" (Physical.format Physical.default_layout ops))
    mount_ops;
  let cache = cache_of service in
  let c1 =
    Client.mount ~coord:(Cache.handle cache) ~backends:mount_ops ~client_id:1L ()
  in
  let c2 =
    Client.mount ~coord:(Zk.Zk_local.session service) ~backends:mount_ops
      ~client_id:2L ()
  in
  let fs1 = Client.ops c1 and fs2 = Client.ops c2 in
  ok_fs "c1 mkdir" (fs1.Vfs.mkdir "/d" ~mode:0o755);
  ignore (ok_fs "c1 stat" (fs1.Vfs.getattr "/d"));
  ignore (ok_fs "c1 stat again (cached)" (fs1.Vfs.getattr "/d"));
  check_bool "cache produced hits" true (Cache.hits cache > 0);
  (* the uncached client renames; the cached client must observe it *)
  ok_fs "c2 rename" (fs2.Vfs.rename "/d" "/e");
  (match fs1.Vfs.getattr "/d" with
  | Error Errno.ENOENT -> ()
  | Ok _ -> Alcotest.fail "cached client saw a stale directory"
  | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  ignore (ok_fs "c1 sees /e" (fs1.Vfs.getattr "/e"))

(* {2 Cache against an exact-LRU model}

   The cache wraps a local session whose revocation channel the test
   holds, so revocations arrive only when a step sends one. The model
   keeps each store as an association list, oldest first, with the value
   its fill read from the server, and predicts every hit, miss,
   invalidation and eviction. The clock stands still, so no lease
   expires. *)

module Lru = struct
  type 'a t = { capacity : int; mutable order : (string * 'a) list }

  let create capacity = { capacity; order = [] }
  let find m p = List.assoc_opt p m.order
  let keys m = List.map fst m.order

  let remove m p =
    let present = List.mem_assoc p m.order in
    m.order <- List.remove_assoc p m.order;
    present

  let put m p v =
    ignore (remove m p);
    m.order <- m.order @ [ (p, v) ];
    if List.length m.order > m.capacity then m.order <- List.tl m.order

  let touch m p = Option.iter (put m p) (find m p)
end

type cache_step =
  | Get of string
  | Children of string
  | Bulk of string
  | Own_create of string
  | Own_set of string
  | Own_delete of string
  | Remote_create of string
  | Remote_delete of string
  | Revoke of Zk.Ztree.event_kind * string

let lru_paths = [ "/t"; "/t/a"; "/t/b"; "/t/a/x"; "/t/a/y"; "/t/b/x"; "/t/c" ]

let show_cache_step = function
  | Get p -> "get " ^ p
  | Children p -> "children " ^ p
  | Bulk p -> "bulk " ^ p
  | Own_create p -> "own-create " ^ p
  | Own_set p -> "own-set " ^ p
  | Own_delete p -> "own-delete " ^ p
  | Remote_create p -> "remote-create " ^ p
  | Remote_delete p -> "remote-delete " ^ p
  | Revoke (kind, p) ->
    (match kind with
     | Zk.Ztree.Node_created -> "revoke-created "
     | Zk.Ztree.Node_deleted -> "revoke-deleted "
     | Zk.Ztree.Node_data_changed -> "revoke-data "
     | Zk.Ztree.Node_children_changed -> "revoke-children ")
    ^ p

let gen_cache_step =
  QCheck2.Gen.(
    let path = oneofl ("/" :: lru_paths) in
    let kind =
      oneofl
        [ Zk.Ztree.Node_created; Zk.Ztree.Node_deleted; Zk.Ztree.Node_data_changed;
          Zk.Ztree.Node_children_changed ]
    in
    frequency
      [ (6, map (fun p -> Get p) path);
        (3, map (fun p -> Children p) path);
        (3, map (fun p -> Bulk p) path);
        (1, map (fun p -> Own_create p) path);
        (1, map (fun p -> Own_set p) path);
        (1, map (fun p -> Own_delete p) path);
        (1, map (fun p -> Remote_create p) path);
        (1, map (fun p -> Remote_delete p) path);
        (2, map2 (fun k p -> Revoke (k, p)) kind path) ])

(* Runs [steps] against a cache of [capacity] over a local service whose
   tree holds [tree] (parents first), and against the model; [true] iff
   they agree after every step. *)
let cache_agrees_with_model ~capacity ~tree steps =
  let service = Zk.Zk_local.create () in
  let server = Zk.Zk_local.session service in
  List.iter (fun p -> ignore (server.Zk.Zk_client.create p ~data:"")) tree;
  let revoke = ref (fun (_ : Zk.Lease.revocation) -> ()) in
  let session = Zk.Zk_local.session service in
  let cache =
    Cache.wrap ~capacity ~now:(fun () -> 0.)
      { session with Zk.Zk_client.set_invalidation = (fun cb -> revoke := cb) }
  in
  let h = Cache.handle cache in
  let data = Lru.create capacity and kids = Lru.create capacity in
  let hits = ref 0 and misses = ref 0 and invalidations = ref 0 in
  let drop store p = if Lru.remove store p then incr invalidations in
  let mutation p =
    drop data p;
    drop kids p;
    drop kids (Zk.Zpath.parent p)
  in
  let step = function
    | Get p ->
      (match Lru.find data p with
       | Some _ -> incr hits; Lru.touch data p
       | None ->
         incr misses;
         Lru.put data p (Result.is_ok (server.Zk.Zk_client.get p)));
      ignore (h.Zk.Zk_client.get p)
    | Children p ->
      (match Lru.find kids p with
       | Some _ -> incr hits; Lru.touch kids p
       | None ->
         incr misses;
         Result.iter (Lru.put kids p) (server.Zk.Zk_client.children p));
      ignore (h.Zk.Zk_client.children p)
    | Bulk p ->
      let live names =
        List.for_all
          (fun name -> Lru.find data (Zk.Zpath.concat p name) = Some true)
          names
      in
      (match Lru.find kids p with
       | Some names when live names ->
         incr hits;
         Lru.touch kids p;
         List.iter (fun name -> Lru.touch data (Zk.Zpath.concat p name)) names
       | Some _ | None ->
         incr misses;
         Result.iter
           (fun entries ->
             Lru.put kids p (List.map (fun (name, _, _) -> name) entries);
             List.iter
               (fun (name, _, _) -> Lru.put data (Zk.Zpath.concat p name) true)
               entries)
           (server.Zk.Zk_client.children_with_data p));
      ignore (h.Zk.Zk_client.children_with_data p)
    | Own_create p ->
      if Result.is_ok (h.Zk.Zk_client.create p ~data:"") then mutation p
    | Own_set p ->
      drop data p;
      ignore (h.Zk.Zk_client.set p ~data:"v")
    | Own_delete p ->
      mutation p;
      ignore (h.Zk.Zk_client.delete p)
    | Remote_create p -> ignore (server.Zk.Zk_client.create p ~data:"")
    | Remote_delete p -> ignore (server.Zk.Zk_client.delete p)
    | Revoke (kind, p) ->
      (match kind with
       | Zk.Ztree.Node_data_changed -> drop data p
       | Zk.Ztree.Node_created | Zk.Ztree.Node_deleted -> mutation p
       | Zk.Ztree.Node_children_changed -> drop kids p);
      let parent = Zk.Zpath.parent p in
      !revoke
        { Zk.Lease.kind; path = p; path_hash = Zk.Zpath.hash p; parent;
          parent_hash = Zk.Zpath.hash parent }
  in
  List.for_all
    (fun s ->
      step s;
      let got_data, got_kids = Cache.lru_order cache in
      let agree =
        Cache.hits cache = !hits
        && Cache.misses cache = !misses
        && Cache.invalidations cache = !invalidations
        && Cache.size cache = List.length data.order + List.length kids.order
        && Cache.queue_length cache = Cache.size cache
        && got_data = Lru.keys data && got_kids = Lru.keys kids
      in
      if not agree then
        QCheck2.Test.fail_reportf
          "after %s: hits %d/%d misses %d/%d invalidations %d/%d data [%s]/[%s] \
           listings [%s]/[%s]"
          (show_cache_step s) (Cache.hits cache) !hits (Cache.misses cache) !misses
          (Cache.invalidations cache) !invalidations
          (String.concat " " got_data) (String.concat " " (Lru.keys data))
          (String.concat " " got_kids) (String.concat " " (Lru.keys kids));
      agree)
    steps

let prop_cache_matches_lru_model =
  QCheck2.Test.make ~name:"cache = exact-LRU model, step by step" ~count:300
    ~print:(fun (capacity, steps) ->
      Printf.sprintf "capacity %d: %s" capacity
        (String.concat "; " (List.map show_cache_step steps)))
    QCheck2.Gen.(pair (int_range 3 8) (list_size (int_range 1 60) gen_cache_step))
    (fun (capacity, steps) ->
      cache_agrees_with_model ~capacity ~tree:[ "/t"; "/t/a"; "/t/b"; "/t/a/x" ]
        steps)

(* A namespace of 41 znodes, parents first: [/t], four directories and
   nine files in each. *)
let store_paths =
  let dirs = List.init 4 (Printf.sprintf "/t/d%d") in
  ("/t" :: dirs)
  @ List.concat_map (fun d -> List.init 9 (Printf.sprintf "%s/f%d" d)) dirs

(* The stores' bucket arrays start at one bucket and double as they
   fill, so capacities 1-8 exercise every re-bucketing up to 8 buckets
   while gets, listings and revocations add, evict and unlink nodes
   across 1-40 paths. *)
let prop_store_matches_lru_model =
  QCheck2.Test.make ~name:"cache stores = list-LRU model over 1-40 paths"
    ~count:300
    ~print:(fun (capacity, n, steps) ->
      Printf.sprintf "capacity %d, %d paths: %s" capacity n
        (String.concat "; " (List.map show_cache_step steps)))
    QCheck2.Gen.(
      let* capacity = int_range 1 8 in
      let* n = int_range 1 40 in
      let path = oneofl (List.filteri (fun i _ -> i < n) store_paths) in
      let kind =
        oneofl
          [ Zk.Ztree.Node_created; Zk.Ztree.Node_deleted;
            Zk.Ztree.Node_data_changed; Zk.Ztree.Node_children_changed ]
      in
      let step =
        frequency
          [ (6, map (fun p -> Get p) path);
            (2, map (fun p -> Children p) path);
            (2, map (fun p -> Bulk p) path);
            (3, map2 (fun k p -> Revoke (k, p)) kind path) ]
      in
      let+ steps = list_size (int_range 1 120) step in
      (capacity, n, steps))
    (fun (capacity, _, steps) ->
      cache_agrees_with_model ~capacity ~tree:store_paths steps)

(* 100 paths grow a store's bucket array from 1 to 128 buckets, seven
   doublings; every key must still be found, as a hit, in LRU order. *)
let test_store_grows () =
  let service = Zk.Zk_local.create () in
  let server = Zk.Zk_local.session service in
  let paths = List.init 100 (Printf.sprintf "/g%03d") in
  List.iter (fun p -> ignore (server.Zk.Zk_client.create p ~data:"")) paths;
  let cache = Cache.wrap ~capacity:128 ~now:(fun () -> 0.) server in
  let h = Cache.handle cache in
  List.iter (fun p -> ignore (h.Zk.Zk_client.get p)) paths;
  Alcotest.(check int) "100 misses fill the store" 100 (Cache.misses cache);
  Alcotest.(check int) "size" 100 (Cache.size cache);
  List.iter
    (fun p ->
      match h.Zk.Zk_client.get p with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "get %s: %s" p (Zk.Zerror.to_string e))
    paths;
  Alcotest.(check int) "every key found again" 100 (Cache.hits cache);
  Alcotest.(check (list string)) "LRU order" paths (fst (Cache.lru_order cache))

let () =
  Alcotest.run "dufs-tools"
    [ ( "namespace",
        [ Alcotest.test_case "scan" `Quick test_namespace_scan;
          Alcotest.test_case "files" `Quick test_namespace_files ] );
      ( "fsck",
        [ Alcotest.test_case "clean system" `Quick test_fsck_clean_system;
          Alcotest.test_case "missing physical" `Quick test_fsck_detects_missing_physical;
          Alcotest.test_case "orphan physical" `Quick test_fsck_detects_orphan;
          Alcotest.test_case "misplaced physical" `Quick test_fsck_detects_misplaced;
          Alcotest.test_case "undecodable metadata" `Quick
            test_fsck_detects_undecodable_meta;
          Alcotest.test_case "create rollback failure flags orphan" `Quick
            test_create_rollback_failure_flags_orphan ] );
      ( "fsck-dedup",
        [ Alcotest.test_case "double presence" `Quick test_fsck_detects_double_presence ] );
      ( "cache",
        [ Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "remote invalidation" `Quick test_cache_remote_invalidation;
          Alcotest.test_case "negative entries" `Quick test_cache_negative_entries;
          Alcotest.test_case "own writes visible" `Quick test_cache_own_writes_visible;
          Alcotest.test_case "children invalidation" `Quick
            test_cache_children_invalidation;
          Alcotest.test_case "lru bound" `Quick test_cache_lru_bound;
          Alcotest.test_case "queue stays bounded" `Quick
            test_cache_queue_stays_bounded;
          Alcotest.test_case "dufs end-to-end" `Quick test_cache_dufs_end_to_end ] );
      ( "cache-lru",
        [ QCheck_alcotest.to_alcotest prop_cache_matches_lru_model;
          QCheck_alcotest.to_alcotest prop_store_matches_lru_model;
          Alcotest.test_case "store grows through doublings" `Quick test_store_grows ] ) ]
