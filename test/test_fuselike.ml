(* Tests for the FUSE-equivalent VFS layer: errno, path algebra, the
   in-memory reference filesystem and the passthrough layer. *)

module Errno = Fuselike.Errno
module Fspath = Fuselike.Fspath
module Inode = Fuselike.Inode
module Vfs = Fuselike.Vfs
module Memfs = Fuselike.Memfs
module Passthrough = Fuselike.Passthrough

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

(* {2 Errno} *)

let test_errno_codes () =
  check_int "ENOENT" (-2) (Errno.to_code Errno.ENOENT);
  check_int "EEXIST" (-17) (Errno.to_code Errno.EEXIST);
  check_int "ENOTEMPTY" (-39) (Errno.to_code Errno.ENOTEMPTY);
  check_string "string form" "EISDIR" (Errno.to_string Errno.EISDIR)

(* {2 Fspath} *)

let test_normalize () =
  check_string "collapses slashes" "/a/b" (Fspath.normalize "//a///b");
  check_string "strips trailing" "/a" (Fspath.normalize "/a/");
  check_string "root unchanged" "/" (Fspath.normalize "/");
  check_string "root from slashes" "/" (Fspath.normalize "///")

let test_split_join () =
  Alcotest.(check (list string)) "split" [ "a"; "b"; "c" ] (Fspath.split "/a/b/c");
  Alcotest.(check (list string)) "split root" [] (Fspath.split "/");
  check_string "join" "/a/b" (Fspath.join [ "a"; "b" ]);
  check_string "join empty" "/" (Fspath.join [])

let test_parent_basename () =
  check_string "parent" "/a/b" (Fspath.parent "/a/b/c");
  check_string "parent of top" "/" (Fspath.parent "/a");
  check_string "parent of root" "/" (Fspath.parent "/");
  check_string "basename" "c" (Fspath.basename "/a/b/c");
  check_string "basename of root" "" (Fspath.basename "/")

let test_concat () =
  check_string "concat" "/a/b" (Fspath.concat "/a" "b");
  check_string "concat at root" "/b" (Fspath.concat "/" "b")

let test_is_prefix () =
  check_bool "proper prefix" true (Fspath.is_prefix ~prefix:"/a" "/a/b");
  check_bool "equal" true (Fspath.is_prefix ~prefix:"/a" "/a");
  check_bool "sibling" false (Fspath.is_prefix ~prefix:"/a" "/ab");
  check_bool "root prefixes all" true (Fspath.is_prefix ~prefix:"/" "/x")

let test_validate () =
  check_bool "valid" true (Result.is_ok (Fspath.validate "/a/b"));
  check_bool "root valid" true (Result.is_ok (Fspath.validate "/"));
  expect_err "relative" Errno.EINVAL (Fspath.validate "a/b");
  expect_err "empty" Errno.EINVAL (Fspath.validate "");
  expect_err "dotdot" Errno.EINVAL (Fspath.validate "/a/../b");
  expect_err "dot" Errno.EINVAL (Fspath.validate "/a/./b");
  expect_err "too long" Errno.ENAMETOOLONG
    (Fspath.validate ("/" ^ String.make 300 'x'))

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"normalize is idempotent" ~count:300
    QCheck2.Gen.(string_size ~gen:(oneofl [ '/'; 'a'; 'b' ]) (int_range 1 20))
    (fun s ->
      let n = Fspath.normalize s in
      Fspath.normalize n = n)

let prop_split_join_roundtrip =
  QCheck2.Test.make ~name:"join (split p) = normalize p for absolute paths" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 6) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
    (fun comps ->
      let p = Fspath.join comps in
      Fspath.split p = comps && Fspath.join (Fspath.split p) = p)

(* {2 Memfs basics} *)

let make_fs () = Memfs.ops (Memfs.create ~clock:(fun () -> 1000.) ())

let test_root_exists () =
  let fs = make_fs () in
  let attr = ok_or_fail "getattr /" (fs.Vfs.getattr "/") in
  check_bool "is dir" true (Inode.equal_kind attr.Inode.kind Inode.Directory)

let test_mkdir_and_stat () =
  let fs = make_fs () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o700);
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/d") in
  check_bool "dir kind" true (Inode.equal_kind attr.Inode.kind Inode.Directory);
  check_int "mode" 0o700 attr.Inode.mode

let test_mkdir_errors () =
  let fs = make_fs () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "duplicate" Errno.EEXIST (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "missing parent" Errno.ENOENT (fs.Vfs.mkdir "/x/y" ~mode:0o755);
  ok_or_fail "create file" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "file as parent" Errno.ENOTDIR (fs.Vfs.mkdir "/f/sub" ~mode:0o755)

let test_create_errors () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "duplicate file" Errno.EEXIST (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "missing parent" Errno.ENOENT (fs.Vfs.create "/nope/f" ~mode:0o644)

let test_unlink () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ok_or_fail "unlink" (fs.Vfs.unlink "/f");
  expect_err "gone" Errno.ENOENT (fs.Vfs.getattr "/f");
  expect_err "unlink again" Errno.ENOENT (fs.Vfs.unlink "/f");
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "unlink dir" Errno.EISDIR (fs.Vfs.unlink "/d")

let test_rmdir () =
  let fs = make_fs () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "mkdir nested" (fs.Vfs.mkdir "/d/e" ~mode:0o755);
  expect_err "not empty" Errno.ENOTEMPTY (fs.Vfs.rmdir "/d");
  ok_or_fail "rmdir child" (fs.Vfs.rmdir "/d/e");
  ok_or_fail "rmdir now empty" (fs.Vfs.rmdir "/d");
  ok_or_fail "create file" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "rmdir on file" Errno.ENOTDIR (fs.Vfs.rmdir "/f")

let test_readdir_sorted () =
  let fs = make_fs () in
  List.iter
    (fun name -> ok_or_fail name (fs.Vfs.create ("/" ^ name) ~mode:0o644))
    [ "zeta"; "alpha"; "mid" ];
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/beta" ~mode:0o755);
  let entries = ok_or_fail "readdir" (fs.Vfs.readdir "/") in
  Alcotest.(check (list string)) "sorted names" [ "alpha"; "beta"; "mid"; "zeta" ]
    (List.map (fun e -> e.Vfs.name) entries);
  let kinds = List.map (fun e -> Inode.kind_to_string e.Vfs.kind) entries in
  Alcotest.(check (list string)) "kinds" [ "file"; "dir"; "file"; "file" ] kinds

let test_readdir_errors () =
  let fs = make_fs () in
  expect_err "missing" Errno.ENOENT (fs.Vfs.readdir "/nope");
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "file" Errno.ENOTDIR (fs.Vfs.readdir "/f")

let test_symlink_readlink () =
  let fs = make_fs () in
  ok_or_fail "symlink" (fs.Vfs.symlink ~target:"/somewhere" "/l");
  check_string "target" "/somewhere" (ok_or_fail "readlink" (fs.Vfs.readlink "/l"));
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/l") in
  check_bool "symlink kind" true (Inode.equal_kind attr.Inode.kind Inode.Symlink);
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "readlink on dir" Errno.EINVAL (fs.Vfs.readlink "/d")

let test_chmod () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ok_or_fail "chmod" (fs.Vfs.chmod "/f" ~mode:0o400);
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/f") in
  check_int "new mode" 0o400 attr.Inode.mode

(* {2 Memfs data path} *)

let test_write_read () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  check_int "written" 5 (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "hello"));
  check_string "read" "hello" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:5));
  check_string "partial" "ell" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:1 ~len:3));
  check_string "past eof" "" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:10 ~len:5));
  check_string "clamped" "lo" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:3 ~len:100))

let test_sparse_write () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write at offset" (fs.Vfs.write "/f" ~off:3 "xy"));
  check_string "zero filled" "\000\000\000xy"
    (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:5));
  let attr = ok_or_fail "getattr" (fs.Vfs.getattr "/f") in
  check_int "size" 5 (Int64.to_int attr.Inode.size)

let test_truncate () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "hello world"));
  ok_or_fail "shrink" (fs.Vfs.truncate "/f" ~size:5L);
  check_string "shrunk" "hello" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:100));
  ok_or_fail "grow" (fs.Vfs.truncate "/f" ~size:8L);
  check_string "zero padded" "hello\000\000\000"
    (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:100));
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  expect_err "truncate dir" Errno.EISDIR (fs.Vfs.truncate "/d" ~size:0L)

let test_overwrite () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "aaaa"));
  ignore (ok_or_fail "overwrite" (fs.Vfs.write "/f" ~off:1 "bb"));
  check_string "merged" "abba" (ok_or_fail "read" (fs.Vfs.read "/f" ~off:0 ~len:4))

(* {2 Memfs rename} *)

let test_rename_file () =
  let fs = make_fs () in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 "data"));
  ok_or_fail "rename" (fs.Vfs.rename "/f" "/g");
  expect_err "source gone" Errno.ENOENT (fs.Vfs.getattr "/f");
  check_string "content moved" "data" (ok_or_fail "read" (fs.Vfs.read "/g" ~off:0 ~len:4))

let test_rename_replaces_file () =
  let fs = make_fs () in
  ok_or_fail "create src" (fs.Vfs.create "/src" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/src" ~off:0 "new"));
  ok_or_fail "create dst" (fs.Vfs.create "/dst" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/dst" ~off:0 "old"));
  ok_or_fail "rename over" (fs.Vfs.rename "/src" "/dst");
  check_string "replaced" "new" (ok_or_fail "read" (fs.Vfs.read "/dst" ~off:0 ~len:3))

let test_rename_dir_rules () =
  let fs = make_fs () in
  ok_or_fail "mkdir a" (fs.Vfs.mkdir "/a" ~mode:0o755);
  ok_or_fail "mkdir a/inner" (fs.Vfs.mkdir "/a/inner" ~mode:0o755);
  ok_or_fail "mkdir empty" (fs.Vfs.mkdir "/empty" ~mode:0o755);
  ok_or_fail "mkdir full" (fs.Vfs.mkdir "/full" ~mode:0o755);
  ok_or_fail "file inside" (fs.Vfs.create "/full/x" ~mode:0o644);
  ok_or_fail "create f" (fs.Vfs.create "/f" ~mode:0o644);
  ok_or_fail "dir over empty dir" (fs.Vfs.rename "/a" "/empty");
  check_bool "moved with children" true (Result.is_ok (fs.Vfs.getattr "/empty/inner"));
  expect_err "dir over full dir" Errno.ENOTEMPTY (fs.Vfs.rename "/empty" "/full");
  expect_err "dir over file" Errno.ENOTDIR (fs.Vfs.rename "/empty" "/f");
  expect_err "file over dir" Errno.EISDIR (fs.Vfs.rename "/f" "/full")

let test_rename_into_own_subtree () =
  let fs = make_fs () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/a" ~mode:0o755);
  ok_or_fail "mkdir nested" (fs.Vfs.mkdir "/a/b" ~mode:0o755);
  expect_err "into own subtree" Errno.EINVAL (fs.Vfs.rename "/a" "/a/b/c");
  ok_or_fail "self rename is noop" (fs.Vfs.rename "/a" "/a")

let test_rename_missing () =
  let fs = make_fs () in
  expect_err "missing source" Errno.ENOENT (fs.Vfs.rename "/nope" "/x");
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  expect_err "missing dest parent" Errno.ENOENT (fs.Vfs.rename "/f" "/no/dir/f")

(* {2 Memfs accounting} *)

let test_statfs_counts () =
  let fs = make_fs () in
  ok_or_fail "mkdir" (fs.Vfs.mkdir "/d" ~mode:0o755);
  ok_or_fail "create 1" (fs.Vfs.create "/d/f1" ~mode:0o644);
  ok_or_fail "create 2" (fs.Vfs.create "/d/f2" ~mode:0o644);
  ok_or_fail "symlink" (fs.Vfs.symlink ~target:"t" "/l");
  let stats = fs.Vfs.statfs () in
  check_int "files" 2 stats.Vfs.files;
  check_int "dirs (incl root)" 2 stats.Vfs.directories;
  check_int "symlinks" 1 stats.Vfs.symlinks;
  ok_or_fail "unlink" (fs.Vfs.unlink "/d/f1");
  check_int "file count drops" 1 (fs.Vfs.statfs ()).Vfs.files

let test_resident_bytes_grow_and_shrink () =
  let memfs = Memfs.create ~clock:(fun () -> 0.) () in
  let fs = Memfs.ops memfs in
  let before = Memfs.resident_bytes memfs in
  ok_or_fail "create" (fs.Vfs.create "/f" ~mode:0o644);
  ignore (ok_or_fail "write" (fs.Vfs.write "/f" ~off:0 (String.make 1000 'x')));
  let during = Memfs.resident_bytes memfs in
  check_bool "grew by at least payload" true (during >= before + 1000);
  ok_or_fail "unlink" (fs.Vfs.unlink "/f");
  check_int "back to baseline" before (Memfs.resident_bytes memfs)

(* {2 Vfs helpers} *)

let test_mkdir_p () =
  let fs = make_fs () in
  ok_or_fail "mkdir_p deep" (Vfs.mkdir_p fs "/a/b/c" ~mode:0o755);
  check_bool "leaf exists" true (Vfs.exists fs "/a/b/c");
  ok_or_fail "idempotent" (Vfs.mkdir_p fs "/a/b/c" ~mode:0o755);
  ok_or_fail "create" (fs.Vfs.create "/a/file" ~mode:0o644);
  expect_err "through a file" Errno.ENOTDIR (Vfs.mkdir_p fs "/a/file/x" ~mode:0o755)

let test_not_supported () =
  let fs = Vfs.not_supported in
  expect_err "getattr" Errno.EPERM (fs.Vfs.getattr "/");
  expect_err "mkdir" Errno.EPERM (fs.Vfs.mkdir "/d" ~mode:0o755);
  check_int "statfs zero" 0 (fs.Vfs.statfs ()).Vfs.files

(* {2 Passthrough} *)

let test_passthrough_forwards () =
  let inner = make_fs () in
  let pt = Passthrough.create inner in
  let fs = Passthrough.ops pt in
  ok_or_fail "mkdir through" (fs.Vfs.mkdir "/d" ~mode:0o755);
  check_bool "visible underneath" true (Vfs.exists inner "/d");
  ok_or_fail "create through" (fs.Vfs.create "/d/f" ~mode:0o644);
  ignore (ok_or_fail "stat through" (fs.Vfs.getattr "/d/f"));
  check_int "ops counted" 3 (Passthrough.forwarded pt)

let test_passthrough_memory_flat () =
  let inner = make_fs () in
  let pt = Passthrough.create inner in
  let fs = Passthrough.ops pt in
  let before = Passthrough.resident_bytes pt in
  for i = 0 to 999 do
    ok_or_fail "mkdir" (fs.Vfs.mkdir (Printf.sprintf "/d%d" i) ~mode:0o755)
  done;
  check_int "resident size unchanged by namespace growth" before
    (Passthrough.resident_bytes pt)

(* {2 Property: random op sequences never corrupt invariants} *)

type op =
  | Op_mkdir of string
  | Op_create of string
  | Op_unlink of string
  | Op_rmdir of string
  | Op_rename of string * string

let gen_path =
  QCheck2.Gen.(
    let comp = oneofl [ "a"; "b"; "c" ] in
    map (fun comps -> "/" ^ String.concat "/" comps) (list_size (int_range 1 3) comp))

let gen_op =
  QCheck2.Gen.(
    oneof
      [ map (fun p -> Op_mkdir p) gen_path;
        map (fun p -> Op_create p) gen_path;
        map (fun p -> Op_unlink p) gen_path;
        map (fun p -> Op_rmdir p) gen_path;
        map (fun (a, b) -> Op_rename (a, b)) (pair gen_path gen_path) ])

(* After any op sequence: statfs counters equal a recursive walk's counts. *)
let prop_memfs_counters_consistent =
  QCheck2.Test.make ~name:"statfs counters match a recursive walk" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) gen_op)
    (fun ops_list ->
      let fs = make_fs () in
      List.iter
        (fun op ->
          ignore
            (match op with
            | Op_mkdir p -> Result.map ignore (fs.Vfs.mkdir p ~mode:0o755)
            | Op_create p -> Result.map ignore (fs.Vfs.create p ~mode:0o644)
            | Op_unlink p -> Result.map ignore (fs.Vfs.unlink p)
            | Op_rmdir p -> Result.map ignore (fs.Vfs.rmdir p)
            | Op_rename (a, b) -> Result.map ignore (fs.Vfs.rename a b)))
        ops_list;
      let rec walk path (files, dirs) =
        match fs.Vfs.readdir path with
        | Error _ -> (files, dirs)
        | Ok entries ->
          List.fold_left
            (fun acc e ->
              let child = Fspath.concat path e.Vfs.name in
              match e.Vfs.kind with
              | Inode.Directory -> walk child (fst acc, snd acc + 1)
              | Inode.Regular | Inode.Symlink -> (fst acc + 1, snd acc))
            (files, dirs) entries
      in
      let files, dirs = walk "/" (0, 1) in
      let stats = fs.Vfs.statfs () in
      stats.Vfs.files = files && stats.Vfs.directories = dirs)

(* {2 Fspath against the list-based reference}

   [Ref] is the path algebra as first written: every function normalizes
   through a buffer and splits into a component list. The single-pass
   functions must answer exactly as it does, exceptions included, on
   every input but [""], where the reference raised and the new
   functions are total. *)

module Ref = struct
  let normalize p =
    if p = "" then ""
    else begin
      let buf = Buffer.create (String.length p) in
      let last_slash = ref false in
      String.iter
        (fun c ->
          if c = '/' then begin
            if not !last_slash then Buffer.add_char buf c;
            last_slash := true
          end else begin
            Buffer.add_char buf c;
            last_slash := false
          end)
        p;
      let s = Buffer.contents buf in
      if String.length s > 1 && s.[String.length s - 1] = '/' then
        String.sub s 0 (String.length s - 1)
      else s
    end

  let split p =
    match normalize p with
    | "/" -> []
    | p -> String.split_on_char '/' (String.sub p 1 (String.length p - 1))

  let validate p =
    if p = "" || p.[0] <> '/' then Error Errno.EINVAL
    else
      let ok_component c =
        c <> "" && c <> "." && c <> ".." && String.length c <= Fspath.max_component
      in
      if p = "/" then Ok ()
      else if List.for_all ok_component (split p) then Ok ()
      else if List.exists (fun c -> String.length c > Fspath.max_component) (split p)
      then Error Errno.ENAMETOOLONG
      else Error Errno.EINVAL

  let parent p =
    match split p with
    | [] -> "/"
    | comps ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | c :: rest -> c :: drop_last rest
      in
      Fspath.join (drop_last comps)

  let basename p =
    match List.rev (split p) with
    | [] -> ""
    | last :: _ -> last
end

(* strings over '/', 'a', '.' and 'x', with now and then a run of 254 to
   257 bytes, so components straddle [max_component] *)
let gen_messy_path =
  QCheck2.Gen.(
    let short = string_size ~gen:(oneofl [ '/'; 'a'; '.'; 'x' ]) (int_range 0 10) in
    let long =
      map2 (fun c n -> String.make n c) (oneofl [ 'a'; 'x'; '.' ]) (int_range 254 257)
    in
    map (String.concat "")
      (list_size (int_range 0 5) (frequency [ (8, short); (1, long) ])))

let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let test_fspath_empty_is_total () =
  check_string "normalize" "" (Fspath.normalize "");
  Alcotest.(check (list string)) "split" [] (Fspath.split "");
  check_string "parent" "/" (Fspath.parent "");
  check_string "basename" "" (Fspath.basename "");
  check_int "depth" 0 (Fspath.depth "");
  expect_err "validate" Errno.EINVAL (Fspath.validate "");
  check_bool "the reference raised" true (Result.is_error (outcome Ref.split ""))

let prop_fspath_matches_reference =
  QCheck2.Test.make ~name:"Fspath = list-based reference" ~count:3000
    ~print:(Printf.sprintf "%S") gen_messy_path (fun p ->
      p = ""
      || (let same f g = outcome f p = outcome g p in
          same Fspath.normalize Ref.normalize
          && same Fspath.split Ref.split
          && same Fspath.parent Ref.parent
          && same Fspath.basename Ref.basename
          && same Fspath.validate Ref.validate
          (* a normal path comes back itself *)
          && (Ref.normalize p <> p || Fspath.normalize p == p)))

(* {2 Memfs walks against a reference walk}

   A random tree is built from random mkdirs and creates, with the
   reference deciding which succeed. Random paths, messy ones included,
   are then resolved by [getattr] (the node) and [lookup_parent] (the
   parent and the final component) and compared with a walk of the
   reference's component lists. *)

type tree_op = Mk_dir of string list | Mk_file of string list

let gen_tree =
  QCheck2.Gen.(
    let comps = list_size (int_range 1 3) (oneofl [ "a"; "b"; "ab" ]) in
    list_size (int_range 0 20)
      (oneof [ map (fun c -> Mk_dir c) comps; map (fun c -> Mk_file c) comps ]))

let gen_walked_path =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:(oneofl [ '/'; 'a'; 'b'; '.' ]) (int_range 0 9);
        map (fun p -> p ^ "/") (string_size ~gen:(oneofl [ '/'; 'a'; 'b' ]) (int_range 1 8));
        map (fun n -> "/a/" ^ String.make n 'b') (int_range 254 257) ])

let prop_memfs_walks_match_reference =
  QCheck2.Test.make ~name:"walks = reference walk" ~count:300
    ~print:(fun (tree, paths) ->
      Printf.sprintf "tree [%s] paths [%s]"
        (String.concat "; "
           (List.map
              (function
                | Mk_dir c -> "dir /" ^ String.concat "/" c
                | Mk_file c -> "file /" ^ String.concat "/" c)
              tree))
        (String.concat "; " (List.map (Printf.sprintf "%S") paths)))
    QCheck2.Gen.(pair gen_tree (list_size (int_range 1 20) gen_walked_path))
    (fun (tree, paths) ->
      let memfs = Memfs.create ~clock:(fun () -> 0.) () in
      let fs = Memfs.ops memfs in
      (* component list -> (is a directory, inode number) *)
      let nodes = Hashtbl.create 16 in
      Hashtbl.replace nodes [] (true, 1L);
      let rec parent_of = function
        | [] | [ _ ] -> []
        | c :: rest -> c :: parent_of rest
      in
      let built =
        List.for_all
          (fun op ->
            let comps, is_dir =
              match op with Mk_dir c -> (c, true) | Mk_file c -> (c, false)
            in
            let path = Fspath.join comps in
            let fresh =
              (match Hashtbl.find_opt nodes (parent_of comps) with
               | Some (true, _) -> true
               | Some (false, _) | None -> false)
              && not (Hashtbl.mem nodes comps)
            in
            let result =
              if is_dir then fs.Vfs.mkdir path ~mode:0o755
              else fs.Vfs.create path ~mode:0o644
            in
            if fresh then
              Hashtbl.replace nodes comps
                (is_dir, (Result.get_ok (fs.Vfs.getattr path)).Inode.ino);
            Result.is_ok result = fresh)
          tree
      in
      (* walk [comps] from the root: every component but the last must be
         a directory *)
      let walk comps =
        let rec go prefix = function
          | [] -> Ok (Hashtbl.find nodes (List.rev prefix))
          | c :: rest ->
            (match Hashtbl.find nodes (List.rev prefix) with
             | false, _ -> Error Errno.ENOTDIR
             | true, _ ->
               if Hashtbl.mem nodes (List.rev (c :: prefix)) then go (c :: prefix) rest
               else Error Errno.ENOENT)
        in
        go [] comps
      in
      let expect_node p =
        match Ref.validate p with
        | Error e -> Error e
        | Ok () -> Result.map snd (walk (Ref.split p))
      in
      let expect_parent p =
        match Ref.validate p with
        | Error e -> Error e
        | Ok () ->
          (match List.rev (Ref.split p) with
           | [] -> Error Errno.EINVAL
           | name :: rev_parent ->
             (match walk (List.rev rev_parent) with
              | Ok (true, ino) -> Ok (ino, name)
              | Ok (false, _) -> Error Errno.ENOTDIR
              | Error e -> Error e))
      in
      built
      && List.for_all
           (fun p ->
             Result.map (fun a -> a.Inode.ino) (fs.Vfs.getattr p) = expect_node p
             && Memfs.lookup_parent memfs p = expect_parent p)
           paths)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuselike"
    [ ("errno", [ Alcotest.test_case "codes" `Quick test_errno_codes ]);
      ( "fspath",
        [ Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "split/join" `Quick test_split_join;
          Alcotest.test_case "parent/basename" `Quick test_parent_basename;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "is_prefix" `Quick test_is_prefix;
          Alcotest.test_case "validate" `Quick test_validate;
          qc prop_normalize_idempotent;
          qc prop_split_join_roundtrip ] );
      ( "memfs-namespace",
        [ Alcotest.test_case "root exists" `Quick test_root_exists;
          Alcotest.test_case "mkdir and stat" `Quick test_mkdir_and_stat;
          Alcotest.test_case "mkdir errors" `Quick test_mkdir_errors;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "readdir sorted" `Quick test_readdir_sorted;
          Alcotest.test_case "readdir errors" `Quick test_readdir_errors;
          Alcotest.test_case "symlink/readlink" `Quick test_symlink_readlink;
          Alcotest.test_case "chmod" `Quick test_chmod ] );
      ( "memfs-data",
        [ Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "sparse write" `Quick test_sparse_write;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "overwrite" `Quick test_overwrite ] );
      ( "memfs-rename",
        [ Alcotest.test_case "rename file" `Quick test_rename_file;
          Alcotest.test_case "rename replaces file" `Quick test_rename_replaces_file;
          Alcotest.test_case "dir rename rules" `Quick test_rename_dir_rules;
          Alcotest.test_case "into own subtree" `Quick test_rename_into_own_subtree;
          Alcotest.test_case "missing endpoints" `Quick test_rename_missing ] );
      ( "memfs-accounting",
        [ Alcotest.test_case "statfs counts" `Quick test_statfs_counts;
          Alcotest.test_case "resident bytes" `Quick
            test_resident_bytes_grow_and_shrink;
          qc prop_memfs_counters_consistent ] );
      ( "vfs-helpers",
        [ Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          Alcotest.test_case "not_supported" `Quick test_not_supported ] );
      ( "passthrough",
        [ Alcotest.test_case "forwards" `Quick test_passthrough_forwards;
          Alcotest.test_case "memory flat" `Quick test_passthrough_memory_flat ] );
      ( "fspath-oracle",
        [ Alcotest.test_case "empty path is total" `Quick test_fspath_empty_is_total;
          qc prop_fspath_matches_reference ] );
      ("memfs-walk", [ qc prop_memfs_walks_match_reference ]) ]
