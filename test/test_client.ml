(* Tests for the DUFS client: the paper's algorithms (Figs. 5 and 6),
   POSIX semantics over the coordination service + back-end mounts, the
   FID indirection invariants, and equivalence against a plain in-memory
   filesystem oracle. *)

module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Inode = Fuselike.Inode
module Memfs = Fuselike.Memfs
module Client = Dufs.Client
module Physical = Dufs.Physical
module Fid = Dufs.Fid

let errno = Alcotest.testable Errno.pp Errno.equal
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Errno.to_string e)

let expect_err label expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" label (Errno.to_string expected)
  | Error e -> Alcotest.check errno label expected e

(* A DUFS instance in immediate mode: local coordination service and
   [n] in-memory back-ends. *)
let make ?(backends = 2) ?service () =
  let service = match service with Some s -> s | None -> Zk.Zk_local.create () in
  let mounts = Array.init backends (fun _ -> Memfs.create ~clock:(fun () -> 0.) ()) in
  let mount_ops = Array.map Memfs.ops mounts in
  Array.iter
    (fun ops -> ok_or_fail "format" (Physical.format Physical.default_layout ops))
    mount_ops;
  let client =
    Client.mount ~coord:(Zk.Zk_local.session service) ~backends:mount_ops ()
  in
  (client, Client.ops client, service, mount_ops)

(* {2 Directory operations (metadata only, Fig. 5)} *)

let test_mkdir_stat () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o750);
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/d") in
  check_bool "directory" true (Inode.equal_kind attr.Inode.kind Inode.Directory);
  check_int "mode preserved" 0o750 attr.Inode.mode;
  check_int "empty dir size" 0 (Int64.to_int attr.Inode.size)

let test_root_stat () =
  let _, fs, _, _ = make () in
  let attr = ok_or_fail "getattr /" (fs.Vfs.getattr "/") in
  check_bool "root is a dir" true (Inode.equal_kind attr.Inode.kind Inode.Directory)

let test_mkdir_errors () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "exists" Errno.EEXIST (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "no parent" Errno.ENOENT (fs.Vfs.mkdir "/x/y" ~mode:0o755)

let test_dirs_not_on_backends () =
  (* §IV-A: directories are metadata only — never created on back-ends *)
  let _, fs, _, mounts = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/onlymeta" ~mode:0o755);
  Array.iter
    (fun mount -> check_bool "backend untouched" false (Vfs.exists mount "/onlymeta"))
    mounts

let test_rmdir () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "mkdir sub" (fs.Vfs.mkdir "/d/e" ~mode:0o755);
  expect_err "not empty" Errno.ENOTEMPTY (fs.Vfs.rmdir "/d");
  ok_or_fail "rmdir sub" (fs.Vfs.rmdir "/d/e");
  ok_or_fail "rmdir" (fs.Vfs.rmdir "/d");
  expect_err "gone" Errno.ENOENT (fs.Vfs.getattr "/d");
  expect_err "missing" Errno.ENOENT (fs.Vfs.rmdir "/zz");
  expect_err "root" Errno.EINVAL (fs.Vfs.rmdir "/")

let test_rmdir_on_file () =
  let _, fs, _, _ = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "rmdir file" Errno.ENOTDIR (fs.Vfs.rmdir "/f")

let test_dir_stat_size_counts_children () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "c1" (fs.Vfs.mkdir "/d/a" ~mode:0o755);
  ok_or_fail "c2" (fs.Vfs.create "/d/b" ~mode:0o644);
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/d") in
  check_int "two children" 2 (Int64.to_int attr.Inode.size)

(* {2 File operations (FID indirection)} *)

let physical_files mounts =
  Array.fold_left (fun acc m -> acc + (m.Vfs.statfs ()).Vfs.files) 0 mounts

let test_create_places_physical_file () =
  let client, fs, _, mounts = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  check_int "one physical file" 1 (physical_files mounts);
  check_bool "client counted a fid" true (Client.files_created client = 1L)

let test_create_errors () =
  let _, fs, _, _ = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "exists" Errno.EEXIST (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "no parent" Errno.ENOENT (fs.Vfs.create "/no/f" ~mode:0o644)

let test_file_stat_comes_from_backend () =
  let _, fs, _, _ = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o600);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "12345"));
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/f") in
  check_bool "regular" true (Inode.equal_kind attr.Inode.kind Inode.Regular);
  check_int "size from physical file" 5 (Int64.to_int attr.Inode.size);
  check_int "mode from physical file" 0o600 attr.Inode.mode

let test_unlink_removes_physical () =
  let _, fs, _, mounts = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ok_or_fail "unlink" (fs.Vfs.unlink "/f");
  expect_err "gone" Errno.ENOENT (fs.Vfs.getattr "/f");
  check_int "physical file removed" 0 (physical_files mounts)

let test_unlink_errors () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "unlink dir" Errno.EISDIR (fs.Vfs.unlink "/d");
  expect_err "unlink missing" Errno.ENOENT (fs.Vfs.unlink "/zz")

let test_read_write_roundtrip () =
  let _, fs, _, _ = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  check_int "write" 11 (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "hello world"));
  check_string "read" "hello world" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:64));
  check_string "offset read" "world" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:6 ~len:5));
  expect_err "read dir" Errno.EISDIR (fs.Vfs.read "/" ~off:0 ~len:1)

let test_truncate_and_chmod_file () =
  let _, fs, _, _ = make () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "123456"));
  ok_or_fail "truncate" (fs.Vfs.truncate "/f" ~size:3L);
  check_int "shrunk" 3
    (Int64.to_int (ok_or_fail "getattr" (fs.Vfs.getattr "/f")).Inode.size);
  ok_or_fail "chmod" (fs.Vfs.chmod "/f" ~mode:0o400);
  check_int "mode" 0o400 (ok_or_fail "getattr" (fs.Vfs.getattr "/f")).Inode.mode

let test_chmod_dir_via_metadata () =
  let _, fs, _, mounts = make () in
  (* the name must not collide with the hash-layout directories ("/0".."/f")
     that formatting pre-creates on the back-ends *)
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/mydir" ~mode:0o755);
  ok_or_fail "chmod" (fs.Vfs.chmod "/mydir" ~mode:0o511);
  check_int "dir mode updated in metadata" 0o511
    (ok_or_fail "getattr" (fs.Vfs.getattr "/mydir")).Inode.mode;
  Array.iter
    (fun m -> check_bool "still not on backend" false (Vfs.exists m "/mydir"))
    mounts

let test_readdir_mixed () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "subdir" (fs.Vfs.mkdir "/d/sub" ~mode:0o755);
  ok_or_fail "file" (fs.Vfs.create "/d/file" ~mode:0o644);
  ok_or_fail "link" (fs.Vfs.symlink ~target:"/d/file" "/d/link");
  let entries = ok_or_fail "readdir" (fs.Vfs.readdir "/d") in
  Alcotest.(check (list (pair string string)))
    "entries sorted with kinds"
    [ ("file", "file"); ("link", "symlink"); ("sub", "dir") ]
    (List.map (fun e -> (e.Vfs.name, Inode.kind_to_string e.Vfs.kind)) entries)

let test_readdir_single_round_trip () =
  (* the acceptance bar for bulk readdir: listing an N-entry directory
     costs exactly one coordination-service round trip, down from N+1 *)
  let engine = Simkit.Engine.create () in
  let ensemble =
    Zk.Ensemble.start engine (Zk.Ensemble.default_config ~servers:3)
  in
  let total_reads () =
    List.fold_left (fun acc id -> acc + Zk.Ensemble.reads_served ensemble id) 0
      [ 0; 1; 2 ]
  in
  Simkit.Process.spawn engine (fun () ->
      let coord = Zk.Ensemble.session ensemble () in
      let mounts =
        Array.init 2 (fun _ -> Memfs.ops (Memfs.create ~clock:(fun () -> 0.) ()))
      in
      Array.iter
        (fun ops -> ok_or_fail "format" (Physical.format Physical.default_layout ops))
        mounts;
      let fs = Client.ops (Client.mount ~coord ~backends:mounts ()) in
      ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
      for i = 0 to 9 do
        ok_or_fail "create" (fs.Vfs.create (Printf.sprintf "/d/f%d" i) ~mode:0o644)
      done;
      ok_or_fail "sub" (fs.Vfs.mkdir "/d/sub" ~mode:0o755);
      let before = total_reads () in
      let entries = ok_or_fail "readdir" (fs.Vfs.readdir "/d") in
      check_int "all 11 entries listed" 11 (List.length entries);
      check_int "readdir cost exactly 1 coordination read" 1
        (total_reads () - before));
  Simkit.Engine.run engine

let test_readdir_through_cache_warms_and_invalidates () =
  let service = Zk.Zk_local.create () in
  let cache =
    Dufs.Cache.wrap ~now:(fun () -> 0.) (Zk.Zk_local.session service)
  in
  let mounts =
    Array.init 2 (fun _ -> Memfs.ops (Memfs.create ~clock:(fun () -> 0.) ()))
  in
  Array.iter
    (fun ops -> ok_or_fail "format" (Physical.format Physical.default_layout ops))
    mounts;
  let fs =
    Client.ops (Client.mount ~coord:(Dufs.Cache.handle cache) ~backends:mounts ())
  in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "file" (fs.Vfs.create "/d/a" ~mode:0o644);
  ok_or_fail "subdir" (fs.Vfs.mkdir "/d/sub" ~mode:0o755);
  let names entries = List.map (fun e -> e.Vfs.name) entries in
  Alcotest.(check (list string))
    "first listing" [ "a"; "sub" ]
    (names (ok_or_fail "readdir 1" (fs.Vfs.readdir "/d")));
  let misses_after_fill = Dufs.Cache.misses cache in
  Alcotest.(check (list string))
    "repeat listing" [ "a"; "sub" ]
    (names (ok_or_fail "readdir 2" (fs.Vfs.readdir "/d")));
  check_int "repeat listing is a pure cache hit" misses_after_fill
    (Dufs.Cache.misses cache);
  (* the bulk fill warmed each child's data entry: a stat of the listed
     subdirectory is served without another miss *)
  let hits_before = Dufs.Cache.hits cache in
  ignore (ok_or_fail "getattr warmed child" (fs.Vfs.getattr "/d/sub"));
  check_int "warmed stat adds no miss" misses_after_fill (Dufs.Cache.misses cache);
  check_bool "warmed stat is a hit" true (Dufs.Cache.hits cache > hits_before);
  (* own create invalidates the listing *)
  ok_or_fail "new file" (fs.Vfs.create "/d/b" ~mode:0o644);
  Alcotest.(check (list string))
    "listing reflects create" [ "a"; "b"; "sub" ]
    (names (ok_or_fail "readdir 3" (fs.Vfs.readdir "/d")));
  (* own delete invalidates it again *)
  ok_or_fail "unlink" (fs.Vfs.unlink "/d/a");
  Alcotest.(check (list string))
    "listing reflects delete" [ "b"; "sub" ]
    (names (ok_or_fail "readdir 4" (fs.Vfs.readdir "/d")))

let test_rmdir_version_guard_retries () =
  (* a concurrent metadata update lands between rmdir's emptiness check
     and its delete: the version guard turns it into ZBADVERSION and the
     client re-reads and retries instead of deleting stale state *)
  let service = Zk.Zk_local.create () in
  let real = Zk.Zk_local.session service in
  let observed = ref [] in
  let raced = ref false in
  let coord =
    { real with
      Zk.Zk_client.delete =
        (fun ?version path ->
          if Filename.basename path = "d" then begin
            observed := version :: !observed;
            if not !raced then begin
              raced := true;
              (* the interleaved chmod bumps the znode's version *)
              match real.Zk.Zk_client.get path with
              | Ok (data, _) -> ignore (real.Zk.Zk_client.set path ~data)
              | Error e -> Alcotest.failf "race setup: %s" (Zk.Zerror.to_string e)
            end
          end;
          real.Zk.Zk_client.delete ?version path) }
  in
  let mounts =
    Array.init 2 (fun _ -> Memfs.ops (Memfs.create ~clock:(fun () -> 0.) ()))
  in
  Array.iter
    (fun ops -> ok_or_fail "format" (Physical.format Physical.default_layout ops))
    mounts;
  let fs = Client.ops (Client.mount ~coord ~backends:mounts ()) in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "rmdir survives the race" (fs.Vfs.rmdir "/d");
  (match List.rev !observed with
  | [ Some v1; Some v2 ] ->
    check_bool "retry re-reads the bumped version" true (v2 = v1 + 1)
  | attempts ->
    Alcotest.failf "expected 2 version-guarded deletes, saw %d with guards [%s]"
      (List.length attempts)
      (String.concat ";"
         (List.map
            (function Some v -> string_of_int v | None -> "unguarded")
            attempts)));
  expect_err "directory is gone" Errno.ENOENT (fs.Vfs.getattr "/d")

let test_symlink () =
  let _, fs, _, _ = make () in
  ok_or_fail "symlink" (fs.Vfs.symlink ~target:"/target/path" "/l");
  check_string "readlink" "/target/path" (ok_or_fail "readlink" (fs.Vfs.readlink "/l"));
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/l") in
  check_bool "symlink kind" true (Inode.equal_kind attr.Inode.kind Inode.Symlink);
  ok_or_fail "unlink" (fs.Vfs.unlink "/l");
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "readlink on file" Errno.EINVAL (fs.Vfs.readlink "/f")

let test_access () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "access dir" (fs.Vfs.access "/d");
  expect_err "access missing" Errno.ENOENT (fs.Vfs.access "/zz")

(* {2 Rename: the flagship metadata-only operation} *)

let test_rename_file_keeps_fid_and_data () =
  let _, fs, _, mounts = make () in
  ok_or_fail "create" (fs.Vfs.create "/a" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/a" ~off:0 "payload"));
  let before = physical_files mounts in
  ok_or_fail "rename" (fs.Vfs.rename "/a" "/b");
  expect_err "old gone" Errno.ENOENT (fs.Vfs.getattr "/a");
  check_string "content follows the FID" "payload"
    (ok_or_fail "read" (fs.Vfs.read "/b" ~off:0 ~len:7));
  check_int "no physical file was created or moved" before (physical_files mounts)

let test_rename_replaces_file () =
  let _, fs, _, _ = make () in
  ok_or_fail "src" (fs.Vfs.create "/src" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/src" ~off:0 "new"));
  ok_or_fail "dst" (fs.Vfs.create "/dst" ~mode:0o644);
  ok_or_fail "rename over" (fs.Vfs.rename "/src" "/dst");
  check_string "replaced" "new" (ok_or_fail "read" (fs.Vfs.read "/dst" ~off:0 ~len:3))

let test_rename_directory_subtree () =
  let _, fs, _, _ = make () in
  ok_or_fail "mk" (fs.Vfs.mkdir "/top" ~mode:0o755);
  ok_or_fail "mk2" (fs.Vfs.mkdir "/top/mid" ~mode:0o755);
  ok_or_fail "deep file" (fs.Vfs.create "/top/mid/leaf" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/top/mid/leaf" ~off:0 "deep"));
  ok_or_fail "rename subtree" (fs.Vfs.rename "/top" "/moved");
  expect_err "old root gone" Errno.ENOENT (fs.Vfs.getattr "/top");
  check_string "deep content survives" "deep"
    (ok_or_fail "read" (fs.Vfs.read "/moved/mid/leaf" ~off:0 ~len:4));
  let entries = ok_or_fail "readdir" (fs.Vfs.readdir "/moved") in
  check_int "children intact" 1 (List.length entries)

let test_rename_rules () =
  let _, fs, _, _ = make () in
  ok_or_fail "mkdir a" (fs.Vfs.mkdir "/a" ~mode:0o755);
  ok_or_fail "mkdir a/b" (fs.Vfs.mkdir "/a/b" ~mode:0o755);
  ok_or_fail "mkdir empty" (fs.Vfs.mkdir "/empty" ~mode:0o755);
  ok_or_fail "mkdir full" (fs.Vfs.mkdir "/full" ~mode:0o755);
  ok_or_fail "inner" (fs.Vfs.create "/full/x" ~mode:0o644);
  ok_or_fail "file" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "into own subtree" Errno.EINVAL (fs.Vfs.rename "/a" "/a/b/c");
  expect_err "dir over nonempty" Errno.ENOTEMPTY (fs.Vfs.rename "/a" "/full");
  expect_err "dir over file" Errno.ENOTDIR (fs.Vfs.rename "/a" "/f");
  expect_err "file over dir" Errno.EISDIR (fs.Vfs.rename "/f" "/empty");
  expect_err "missing src" Errno.ENOENT (fs.Vfs.rename "/nope" "/x");
  expect_err "rename root" Errno.EINVAL (fs.Vfs.rename "/" "/anything");
  ok_or_fail "dir over empty dir" (fs.Vfs.rename "/a" "/empty");
  check_bool "children moved" true (Result.is_ok (fs.Vfs.getattr "/empty/b"));
  ok_or_fail "self rename" (fs.Vfs.rename "/empty" "/empty")

(* {2 Placement invariants} *)

let test_locate_matches_mapping () =
  let client, fs, _, _ = make ~backends:4 () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  let gen = Fid.Gen.create ~client_id:999L in
  let fid = Fid.Gen.next gen in
  check_int "locate = md5 mod n"
    (Dufs.Mapping.md5_mod ~backends:4 fid)
    (Client.locate client fid);
  check_int "backend count" 4 (Client.backend_count client)

let test_files_spread_across_backends () =
  let _, fs, _, mounts = make ~backends:2 () in
  for i = 0 to 199 do
    ok_or_fail "create" (fs.Vfs.create (Printf.sprintf "/f%d" i) ~mode:0o644)
  done;
  let counts = Array.map (fun m -> (m.Vfs.statfs ()).Vfs.files) mounts in
  check_int "all files placed" 200 (counts.(0) + counts.(1));
  check_bool
    (Printf.sprintf "both backends used (%d/%d)" counts.(0) counts.(1))
    true
    (counts.(0) > 50 && counts.(1) > 50)

let test_two_clients_share_namespace () =
  let service = Zk.Zk_local.create () in
  let mounts = Array.init 2 (fun _ -> Memfs.create ~clock:(fun () -> 0.) ()) in
  let mount_ops = Array.map Memfs.ops mounts in
  Array.iter
    (fun ops -> ok_or_fail "format" (Physical.format Physical.default_layout ops))
    mount_ops;
  let c1 =
    Client.mount ~coord:(Zk.Zk_local.session service) ~backends:mount_ops
      ~client_id:1L ()
  in
  let c2 =
    Client.mount ~coord:(Zk.Zk_local.session service) ~backends:mount_ops
      ~client_id:2L ()
  in
  let fs1 = Client.ops c1 and fs2 = Client.ops c2 in
  ok_or_fail "c1 creates" (fs1.Vfs.create "/shared" ~mode:0o644);
  ignore (ok_or_fail "c1 writes" (fs1.Vfs.write "/shared" ~off:0 "from-c1"));
  check_string "c2 reads c1's file" "from-c1"
    (ok_or_fail "c2 read" (fs2.Vfs.read "/shared" ~off:0 ~len:7));
  expect_err "c2 sees the name as taken" Errno.EEXIST
    (fs2.Vfs.create "/shared" ~mode:0o644);
  (* Fig. 1 scenario, serialized through the coordination service:
     c1 mkdir d1, c2 renames d1 -> d2; both clients then agree. *)
  ok_or_fail "c1 mkdir d1" (fs1.Vfs.mkdir "/d1" ~mode:0o755);
  ok_or_fail "c2 renames" (fs2.Vfs.rename "/d1" "/d2");
  expect_err "c1 sees d1 gone" Errno.ENOENT (fs1.Vfs.getattr "/d1");
  check_bool "c1 sees d2" true (Result.is_ok (fs1.Vfs.getattr "/d2"));
  expect_err "second rename fails on both" Errno.ENOENT (fs1.Vfs.rename "/d1" "/d2")

let test_statfs_aggregates_backends () =
  let _, fs, _, _ = make ~backends:3 () in
  for i = 0 to 8 do
    ok_or_fail "create" (fs.Vfs.create (Printf.sprintf "/f%d" i) ~mode:0o644)
  done;
  check_int "files aggregated over 3 backends" 9 (fs.Vfs.statfs ()).Vfs.files

let test_resident_bytes_bounded () =
  let client, fs, _, _ = make () in
  let before = Client.resident_bytes client in
  for i = 0 to 499 do
    ok_or_fail "mkdir" (fs.Vfs.mkdir (Printf.sprintf "/d%d" i) ~mode:0o755)
  done;
  check_int "client memory does not grow with the namespace" before
    (Client.resident_bytes client)

let test_mount_validation () =
  Alcotest.check_raises "no backends" (Invalid_argument "Client.mount: no backends")
    (fun () ->
      ignore
        (Client.mount
           ~coord:(Zk.Zk_local.session (Zk.Zk_local.create ()))
           ~backends:[||] ()))

(* {2 Oracle equivalence: DUFS behaves like a plain POSIX filesystem} *)

type op =
  | Op_mkdir of string
  | Op_create of string
  | Op_unlink of string
  | Op_rmdir of string
  | Op_rename of string * string
  | Op_write of string * string
  | Op_getattr of string
  | Op_readdir of string

let gen_path =
  QCheck2.Gen.(
    map
      (fun comps -> "/" ^ String.concat "/" comps)
      (list_size (int_range 1 3) (oneofl [ "a"; "b"; "c" ])))

let gen_op =
  QCheck2.Gen.(
    oneof
      [ map (fun p -> Op_mkdir p) gen_path;
        map (fun p -> Op_create p) gen_path;
        map (fun p -> Op_unlink p) gen_path;
        map (fun p -> Op_rmdir p) gen_path;
        map (fun (a, b) -> Op_rename (a, b)) (pair gen_path gen_path);
        map (fun (p, s) -> Op_write (p, s)) (pair gen_path (string_size (int_range 0 8)));
        map (fun p -> Op_getattr p) gen_path;
        map (fun p -> Op_readdir p) gen_path ])

let show_op = function
  | Op_mkdir p -> "mkdir " ^ p
  | Op_create p -> "create " ^ p
  | Op_unlink p -> "unlink " ^ p
  | Op_rmdir p -> "rmdir " ^ p
  | Op_rename (x, y) -> "rename " ^ x ^ " " ^ y
  | Op_write (p, _) -> "write " ^ p
  | Op_getattr p -> "getattr " ^ p
  | Op_readdir p -> "readdir " ^ p

let run_op (fs : Vfs.ops) op : string =
  let show_err e = Errno.to_string e in
  match op with
  | Op_mkdir p -> (
    match fs.Vfs.mkdir p ~mode:0o755 with Ok () -> "ok" | Error e -> show_err e)
  | Op_create p -> (
    match fs.Vfs.create p ~mode:0o644 with Ok () -> "ok" | Error e -> show_err e)
  | Op_unlink p -> ( match fs.Vfs.unlink p with Ok () -> "ok" | Error e -> show_err e)
  | Op_rmdir p -> ( match fs.Vfs.rmdir p with Ok () -> "ok" | Error e -> show_err e)
  | Op_rename (a, b) -> (
    match fs.Vfs.rename a b with Ok () -> "ok" | Error e -> show_err e)
  | Op_write (p, s) -> (
    match fs.Vfs.write p ~off:0 s with Ok n -> string_of_int n | Error e -> show_err e)
  | Op_getattr p -> (
    match fs.Vfs.getattr p with
    | Ok attr ->
      Printf.sprintf "%s:%Ld" (Inode.kind_to_string attr.Inode.kind) attr.Inode.size
    | Error e -> show_err e)
  | Op_readdir p -> (
    match fs.Vfs.readdir p with
    | Ok entries ->
      String.concat ","
        (List.map (fun e -> e.Vfs.name ^ "/" ^ Inode.kind_to_string e.Vfs.kind) entries)
    | Error e -> show_err e)

let prop_oracle_equivalence =
  QCheck2.Test.make
    ~name:"DUFS over zk+2 backends behaves like one plain POSIX filesystem" ~count:250
    QCheck2.Gen.(list_size (int_range 1 50) gen_op)
    (fun ops_list ->
      let _, dufs, _, _ = make () in
      let oracle = Memfs.ops (Memfs.create ~clock:(fun () -> 0.) ()) in
      List.for_all
        (fun op ->
          let a = run_op dufs op and b = run_op oracle op in
          if a <> b then
            QCheck2.Test.fail_reportf "divergence on %s: dufs=%s oracle=%s" (show_op op)
              a b
          else true)
        ops_list)

(* {2 Paths that are not absolute}

   A relative or empty path is EINVAL on every op, as on every other
   VFS, and never names a znode: the znode of ["x"] used to be the
   namespace root's sibling ["/dufsx"], and [""] raised. *)

let test_relative_paths_einval () =
  let _, fs, service, _ = make () in
  let session = Zk.Zk_local.session service in
  let top () = Result.get_ok (session.Zk.Zk_client.children "/") in
  let before = top () in
  List.iter
    (fun p ->
      let label op = Printf.sprintf "%s %S" op p in
      expect_err (label "mkdir") Errno.EINVAL (fs.Vfs.mkdir p ~mode:0o755);
      expect_err (label "create") Errno.EINVAL (fs.Vfs.create p ~mode:0o644);
      expect_err (label "unlink") Errno.EINVAL (fs.Vfs.unlink p);
      expect_err (label "rmdir") Errno.EINVAL (fs.Vfs.rmdir p);
      expect_err (label "getattr") Errno.EINVAL (fs.Vfs.getattr p);
      expect_err (label "readdir") Errno.EINVAL (fs.Vfs.readdir p);
      expect_err (label "symlink") Errno.EINVAL (fs.Vfs.symlink ~target:"/t" p);
      expect_err (label "rename from") Errno.EINVAL (fs.Vfs.rename p "/y");
      expect_err (label "rename to") Errno.EINVAL (fs.Vfs.rename "/" p))
    [ ""; "x"; "x/y" ];
  Alcotest.(check (list string)) "no znode beside the namespace root" before (top ());
  Alcotest.(check (list string)) "namespace root still empty" []
    (Result.get_ok (session.Zk.Zk_client.children "/dufs"))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dufs-client"
    [ ( "directories",
        [ Alcotest.test_case "mkdir + stat" `Quick test_mkdir_stat;
          Alcotest.test_case "root stat" `Quick test_root_stat;
          Alcotest.test_case "mkdir errors" `Quick test_mkdir_errors;
          Alcotest.test_case "dirs never touch backends" `Quick
            test_dirs_not_on_backends;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "rmdir on file" `Quick test_rmdir_on_file;
          Alcotest.test_case "rmdir version guard retries" `Quick
            test_rmdir_version_guard_retries;
          Alcotest.test_case "dir size counts children" `Quick
            test_dir_stat_size_counts_children ] );
      ( "files",
        [ Alcotest.test_case "create places physical file" `Quick
            test_create_places_physical_file;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "file stat from backend" `Quick
            test_file_stat_comes_from_backend;
          Alcotest.test_case "unlink removes physical" `Quick
            test_unlink_removes_physical;
          Alcotest.test_case "unlink errors" `Quick test_unlink_errors;
          Alcotest.test_case "read/write" `Quick test_read_write_roundtrip;
          Alcotest.test_case "truncate + chmod file" `Quick test_truncate_and_chmod_file;
          Alcotest.test_case "chmod dir in metadata" `Quick test_chmod_dir_via_metadata;
          Alcotest.test_case "readdir mixed kinds" `Quick test_readdir_mixed;
          Alcotest.test_case "readdir: 1 round trip" `Quick
            test_readdir_single_round_trip;
          Alcotest.test_case "readdir through cache" `Quick
            test_readdir_through_cache_warms_and_invalidates;
          Alcotest.test_case "symlink" `Quick test_symlink;
          Alcotest.test_case "access" `Quick test_access ] );
      ( "rename",
        [ Alcotest.test_case "file keeps fid and data" `Quick
            test_rename_file_keeps_fid_and_data;
          Alcotest.test_case "replaces file" `Quick test_rename_replaces_file;
          Alcotest.test_case "directory subtree" `Quick test_rename_directory_subtree;
          Alcotest.test_case "POSIX rules" `Quick test_rename_rules ] );
      ( "placement",
        [ Alcotest.test_case "locate matches mapping" `Quick test_locate_matches_mapping;
          Alcotest.test_case "files spread across backends" `Quick
            test_files_spread_across_backends;
          Alcotest.test_case "two clients share namespace (Fig. 1)" `Quick
            test_two_clients_share_namespace;
          Alcotest.test_case "statfs aggregates" `Quick test_statfs_aggregates_backends;
          Alcotest.test_case "client memory bounded" `Quick test_resident_bytes_bounded;
          Alcotest.test_case "mount validation" `Quick test_mount_validation ] );
      ("oracle", [ qc prop_oracle_equivalence ]);
      ("invalid", [ Alcotest.test_case "relative paths" `Quick test_relative_paths_einval ]) ]
