type file = { mutable content : Bytes.t; mutable size : int }

type payload =
  | Dir of (string, node) Hashtbl.t
  | File of file
  | Link of string

and node = {
  ino : int64;
  mutable payload : payload;
  mutable mode : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
}

type t = {
  root : node;
  clock : unit -> float;
  mutable next_ino : int64;
  mutable n_files : int;
  mutable n_dirs : int;
  mutable n_symlinks : int;
  mutable bytes : int64;
}

(* Rough per-node bookkeeping overhead, for the Fig. 11 memory model:
   a node record, a hash-table slot in the parent, and the name string. *)
let node_overhead_bytes = 168

let create ~clock () =
  let root =
    { ino = 1L;
      payload = Dir (Hashtbl.create 8);
      mode = 0o755;
      atime = clock ();
      mtime = clock ();
      ctime = clock () }
  in
  { root; clock; next_ino = 2L;
    n_files = 0; n_dirs = 1; n_symlinks = 0; bytes = 0L }

let fresh_ino t =
  let ino = t.next_ino in
  t.next_ino <- Int64.add ino 1L;
  ino

let ( let* ) = Result.bind

(* Walk the components of [path] in [i, stop) from [node], by index:
   doubled and trailing separators are skipped and nothing is split or
   copied but each component's name for its lookup. Intermediate
   components must be directories; symlinks are not followed (DUFS
   resolves them itself, as the paper's prototype does through FUSE). *)
let rec comp_end path j stop =
  if j = stop || String.unsafe_get path j = '/' then j else comp_end path (j + 1) stop

let rec walk node path i stop =
  if i >= stop then Ok node
  else if String.unsafe_get path i = '/' then walk node path (i + 1) stop
  else
    match node.payload with
    | File _ | Link _ -> Error Errno.ENOTDIR
    | Dir children ->
      let j = comp_end path i stop in
      (match Hashtbl.find_opt children (String.sub path i (j - i)) with
       | Some child -> walk child path j stop
       | None -> Error Errno.ENOENT)

(* Resolve a valid path to its node. *)
let resolve t path =
  match Fspath.validate path with
  | Ok () -> walk t.root path 0 (String.length path)
  | Error err -> Error err

(* [e] less [path]'s trailing separators *)
let rec trim_end path e = if e > 0 && path.[e - 1] = '/' then trim_end path (e - 1) else e

(* Resolve the parent directory of [path] and return its children table
   together with the final component; a path with no final component
   (["/"], ["//"]) is EINVAL. *)
let resolve_parent t path =
  let e = trim_end path (String.length path) in
  match Fspath.validate path with
  | Error err -> Error err
  | Ok () when e = 0 -> Error Errno.EINVAL
  | Ok () ->
    let s = String.rindex_from path (e - 1) '/' + 1 in
    (match walk t.root path 0 s with
     | Ok ({ payload = Dir children; _ } as parent) ->
       Ok (parent, children, String.sub path s (e - s))
     | Ok _ -> Error Errno.ENOTDIR
     | Error err -> Error err)

let kind_of_node node =
  match node.payload with
  | Dir _ -> Inode.Directory
  | File _ -> Inode.Regular
  | Link _ -> Inode.Symlink

let attr_of_node node =
  let size, nlink =
    match node.payload with
    | Dir children -> (Int64.of_int (Hashtbl.length children), 2)
    | File f -> (Int64.of_int f.size, 1)
    | Link target -> (Int64.of_int (String.length target), 1)
  in
  { Inode.kind = kind_of_node node;
    ino = node.ino;
    mode = node.mode;
    uid = 0;
    gid = 0;
    size;
    nlink;
    atime = node.atime;
    mtime = node.mtime;
    ctime = node.ctime }

let getattr t path =
  let* node = resolve t path in
  Ok (attr_of_node node)

let lookup_parent t path =
  let* parent, _children, name = resolve_parent t path in
  Ok (parent.ino, name)

let access t path =
  let* _node = resolve t path in
  Ok ()

let insert_new t path make_payload =
  let* parent, children, name = resolve_parent t path in
  if Hashtbl.mem children name then Error Errno.EEXIST
  else begin
    let now = t.clock () in
    let node =
      { ino = fresh_ino t; payload = make_payload (); mode = 0o644;
        atime = now; mtime = now; ctime = now }
    in
    Hashtbl.replace children name node;
    parent.mtime <- now;
    t.bytes <- Int64.add t.bytes (Int64.of_int (node_overhead_bytes + String.length name));
    Ok node
  end

let mkdir t path ~mode =
  let* node = insert_new t path (fun () -> Dir (Hashtbl.create 4)) in
  node.mode <- mode;
  t.n_dirs <- t.n_dirs + 1;
  Ok ()

let create_file t path ~mode =
  let* node = insert_new t path (fun () -> File { content = Bytes.empty; size = 0 }) in
  node.mode <- mode;
  t.n_files <- t.n_files + 1;
  Ok ()

let symlink t ~target path =
  let* _node = insert_new t path (fun () -> Link target) in
  t.n_symlinks <- t.n_symlinks + 1;
  Ok ()

let readlink t path =
  let* node = resolve t path in
  match node.payload with
  | Link target -> Ok target
  | Dir _ | File _ -> Error Errno.EINVAL

let release_accounting t node name =
  t.bytes <- Int64.sub t.bytes (Int64.of_int (node_overhead_bytes + String.length name));
  match node.payload with
  | Dir _ -> t.n_dirs <- t.n_dirs - 1
  | File f ->
    t.n_files <- t.n_files - 1;
    t.bytes <- Int64.sub t.bytes (Int64.of_int f.size)
  | Link _ -> t.n_symlinks <- t.n_symlinks - 1

let rmdir t path =
  let* parent, children, name = resolve_parent t path in
  match Hashtbl.find_opt children name with
  | None -> Error Errno.ENOENT
  | Some node ->
    (match node.payload with
     | File _ | Link _ -> Error Errno.ENOTDIR
     | Dir grandchildren ->
       if Hashtbl.length grandchildren > 0 then Error Errno.ENOTEMPTY
       else begin
         Hashtbl.remove children name;
         parent.mtime <- t.clock ();
         release_accounting t node name;
         Ok ()
       end)

let unlink t path =
  let* parent, children, name = resolve_parent t path in
  match Hashtbl.find_opt children name with
  | None -> Error Errno.ENOENT
  | Some node ->
    (match node.payload with
     | Dir _ -> Error Errno.EISDIR
     | File _ | Link _ ->
       Hashtbl.remove children name;
       parent.mtime <- t.clock ();
       release_accounting t node name;
       Ok ())

let is_dir node = match node.payload with Dir _ -> true | File _ | Link _ -> false

let rename t src dst =
  let src = Fspath.normalize src and dst = Fspath.normalize dst in
  let* src_parent, src_children, src_name = resolve_parent t src in
  let* dst_parent, dst_children, dst_name = resolve_parent t dst in
  match Hashtbl.find_opt src_children src_name with
  | None -> Error Errno.ENOENT
  | Some src_node ->
    if src = dst then Ok ()
    else if is_dir src_node && Fspath.is_prefix ~prefix:src dst then
      (* cannot move a directory into its own subtree *)
      Error Errno.EINVAL
    else begin
      let replace_ok =
        match Hashtbl.find_opt dst_children dst_name with
        | None -> Ok None
        | Some dst_node ->
          (match src_node.payload, dst_node.payload with
           | Dir _, Dir existing ->
             if Hashtbl.length existing > 0 then Error Errno.ENOTEMPTY
             else Ok (Some dst_node)
           | Dir _, (File _ | Link _) -> Error Errno.ENOTDIR
           | (File _ | Link _), Dir _ -> Error Errno.EISDIR
           | (File _ | Link _), (File _ | Link _) -> Ok (Some dst_node))
      in
      let* replaced = replace_ok in
      (match replaced with
       | Some old -> release_accounting t old dst_name
       | None ->
         (* net effect of the move on name accounting *)
         t.bytes <-
           Int64.add t.bytes
             (Int64.of_int (String.length dst_name - String.length src_name)));
      Hashtbl.remove src_children src_name;
      Hashtbl.replace dst_children dst_name src_node;
      let now = t.clock () in
      src_parent.mtime <- now;
      dst_parent.mtime <- now;
      src_node.ctime <- now;
      Ok ()
    end

let readdir t path =
  let* node = resolve t path in
  match node.payload with
  | File _ | Link _ -> Error Errno.ENOTDIR
  | Dir children ->
    let entries =
      Hashtbl.fold
        (fun name child acc -> { Vfs.name; kind = kind_of_node child } :: acc)
        children []
    in
    Ok (List.sort Vfs.compare_dirent entries)

let chmod t path ~mode =
  let* node = resolve t path in
  node.mode <- mode;
  node.ctime <- t.clock ();
  Ok ()

let with_file t path f =
  let* node = resolve t path in
  match node.payload with
  | Dir _ -> Error Errno.EISDIR
  | Link _ -> Error Errno.EINVAL
  | File file -> f node file

let ensure_capacity file n =
  if Bytes.length file.content < n then begin
    let capacity = max n (max 64 (2 * Bytes.length file.content)) in
    let content = Bytes.make capacity '\000' in
    Bytes.blit file.content 0 content 0 file.size;
    file.content <- content
  end

let truncate t path ~size =
  let size = Int64.to_int size in
  if size < 0 then Error Errno.EINVAL
  else
    with_file t path (fun node file ->
        let old = file.size in
        if size > old then begin
          ensure_capacity file size;
          Bytes.fill file.content old (size - old) '\000'
        end;
        file.size <- size;
        t.bytes <- Int64.add t.bytes (Int64.of_int (size - old));
        node.mtime <- t.clock ();
        Ok ())

let read t path ~off ~len =
  if off < 0 || len < 0 then Error Errno.EINVAL
  else
    with_file t path (fun node file ->
        node.atime <- t.clock ();
        if off >= file.size then Ok ""
        else begin
          let len = min len (file.size - off) in
          Ok (Bytes.sub_string file.content off len)
        end)

let write t path ~off data =
  if off < 0 then Error Errno.EINVAL
  else
    with_file t path (fun node file ->
        let len = String.length data in
        let new_size = max file.size (off + len) in
        ensure_capacity file new_size;
        if off > file.size then Bytes.fill file.content file.size (off - file.size) '\000';
        Bytes.blit_string data 0 file.content off len;
        t.bytes <- Int64.add t.bytes (Int64.of_int (new_size - file.size));
        file.size <- new_size;
        node.mtime <- t.clock ();
        Ok len)

let statfs t () =
  { Vfs.files = t.n_files;
    directories = t.n_dirs;
    symlinks = t.n_symlinks;
    bytes_used = t.bytes }

let resident_bytes t = Int64.to_int t.bytes + node_overhead_bytes

let ops t =
  { Vfs.getattr = getattr t;
    access = access t;
    mkdir = mkdir t;
    rmdir = rmdir t;
    create = create_file t;
    unlink = unlink t;
    rename = rename t;
    readdir = readdir t;
    symlink = symlink t;
    readlink = readlink t;
    chmod = chmod t;
    truncate = truncate t;
    read = read t;
    write = write t;
    statfs = statfs t }
