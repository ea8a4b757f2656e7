module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Fspath = Fuselike.Fspath
module Inode = Fuselike.Inode
module Zk_client = Zk.Zk_client
module Zerror = Zk.Zerror
module Txn = Zk.Txn
module Zpath = Zk.Zpath

type t = {
  coord : Zk_client.handle;
  backends : Vfs.ops array;
  layout : Physical.layout;
  zroot : string;
  clock : unit -> float;
  delay : float -> unit;
  overhead : float;
  trace : Obs.Trace.t;
  fid_gen : Fid.Gen.t;
  (* znodes whose create rolled back but whose rollback delete also
     failed: each is a Missing_physical orphan until fsck repairs it *)
  mutable orphan_notes : string list;
}

let default_overhead = 15e-6

let errno_of_zerror = function
  | Zerror.ZNONODE -> Errno.ENOENT
  | Zerror.ZNODEEXISTS -> Errno.EEXIST
  | Zerror.ZNOTEMPTY -> Errno.ENOTEMPTY
  | Zerror.ZBADARGUMENTS -> Errno.EINVAL
  | Zerror.ZBADVERSION
  | Zerror.ZNOCHILDRENFOREPHEMERALS
  | Zerror.ZCONNECTIONLOSS
  | Zerror.ZSESSIONEXPIRED
  | Zerror.ZOPERATIONTIMEOUT -> Errno.EIO

let mount ~coord ~backends ?client_id ?(layout = Physical.default_layout)
    ?(zroot = "/dufs") ?(clock = fun () -> 0.)
    ?(delay = fun _ -> ()) ?(overhead = default_overhead)
    ?(trace = Obs.Trace.null) () =
  if Array.length backends = 0 then invalid_arg "Client.mount: no backends";
  let client_id =
    match client_id with Some id -> id | None -> coord.Zk_client.session_id
  in
  let t =
    { coord;
      backends;
      layout;
      zroot;
      clock;
      delay;
      overhead;
      trace;
      fid_gen = Fid.Gen.create ~client_id;
      orphan_notes = [] }
  in
  (* the namespace root is a plain directory znode *)
  (match
     coord.Zk_client.create zroot
       ~data:(Meta.encode (Meta.dir ~mode:0o755 ~ctime:(clock ())))
   with
  | Ok _ | Error Zerror.ZNODEEXISTS -> ()
  | Error e ->
    invalid_arg ("Client.mount: cannot create namespace root: " ^ Zerror.to_string e));
  t

let backend_count t = Array.length t.backends
let orphan_notes t = List.rev t.orphan_notes
let files_created t = Fid.Gen.generated t.fid_gen
let locate t fid = Mapping.md5_mod ~backends:(Array.length t.backends) fid

(* FUSE channel buffers + ZooKeeper client library + mapping tables; none
   of it grows with the namespace (the client is stateless, §IV-I). *)
let resident_bytes _t = (10 * 132 * 1024) + (8 * 1024 * 1024)

(* Every op validates its virtual path once, at entry, and passes the
   normalized path inward: the helpers below take only normalized
   paths. A relative path is EINVAL, as on every other VFS, so it never
   reaches [zpath] to name a znode outside the namespace root. *)
let checked vpath =
  match Fspath.validate vpath with
  | Ok () -> Ok (Fspath.normalize vpath)
  | Error e -> Error e

(* virtual path -> znode path *)
let zpath t vpath = if vpath = "/" then t.zroot else t.zroot ^ vpath

let backend_for t fid = t.backends.(locate t fid)
let physical t fid = Physical.path t.layout fid

let ( let* ) = Result.bind

(* Classify a missing path the way the kernel's walk does: ENOTDIR if the
   nearest existing ancestor is not a directory, ENOENT otherwise. *)
let rec classify_missing t vpath =
  let parent = Fspath.parent vpath in
  if parent = vpath then Errno.ENOENT
  else
    match t.coord.Zk_client.get (zpath t parent) with
    | Ok (data, _) ->
      (match Meta.kind_tag data with
       | Some Meta.Dir_tag -> Errno.ENOENT
       | Some (Meta.File_tag | Meta.Symlink_tag) -> Errno.ENOTDIR
       | None -> Errno.EIO)
    | Error Zerror.ZNONODE -> classify_missing t parent
    | Error e -> errno_of_zerror e

(* Look up a virtual path's metadata: znode data + stat, decoded. *)
let lookup t vpath =
  match t.coord.Zk_client.get (zpath t vpath) with
  | Error Zerror.ZNONODE -> Error (classify_missing t vpath)
  | Error e -> Error (errno_of_zerror e)
  | Ok (data, stat) ->
    (match Meta.decode data with
     | Ok meta -> Ok (meta, stat)
     | Error _ -> Error Errno.EIO)

let charge t = t.delay t.overhead

(* [parent_dir_of t vpath] — the parent must exist and be a directory,
   mirroring the kernel's path-resolution order. *)
let parent_dir_of t vpath =
  let* meta, _stat = lookup t (Fspath.parent vpath) in
  match meta.Meta.kind with
  | Meta.Dir -> Ok ()
  | Meta.File _ | Meta.Symlink _ -> Error Errno.ENOTDIR

let dir_attr (meta : Meta.t) (stat : Zk.Ztree.stat) =
  { Inode.kind = Inode.Directory;
    ino = stat.Zk.Ztree.czxid;
    mode = meta.Meta.mode;
    uid = 0;
    gid = 0;
    size = Int64.of_int stat.Zk.Ztree.num_children;
    nlink = 2;
    atime = stat.Zk.Ztree.mtime;
    mtime = stat.Zk.Ztree.mtime;
    ctime = meta.Meta.ctime }

let symlink_attr (target : string) (meta : Meta.t) (stat : Zk.Ztree.stat) =
  { Inode.kind = Inode.Symlink;
    ino = stat.Zk.Ztree.czxid;
    mode = 0o777;
    uid = 0;
    gid = 0;
    size = Int64.of_int (String.length target);
    nlink = 1;
    atime = stat.Zk.Ztree.mtime;
    mtime = stat.Zk.Ztree.mtime;
    ctime = meta.Meta.ctime }

(* Algorithm of Fig. 6: directories are answered from the coordination
   service alone; files redirect to a physical stat on the back-end. *)
let getattr t vpath =
  charge t;
  let* vpath = checked vpath in
  let* meta, stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.Dir -> Ok (dir_attr meta stat)
  | Meta.Symlink target -> Ok (symlink_attr target meta stat)
  | Meta.File fid -> (backend_for t fid).Vfs.getattr (physical t fid)

let access t vpath = Result.map (fun (_ : Inode.attr) -> ()) (getattr t vpath)

(* Algorithm of Fig. 5. *)
let mkdir t vpath ~mode =
  charge t;
  let* vpath = checked vpath in
  let* () = parent_dir_of t vpath in
  let data = Meta.encode (Meta.dir ~mode ~ctime:(t.clock ())) in
  match t.coord.Zk_client.create (zpath t vpath) ~data with
  | Ok _ -> Ok ()
  | Error e -> Error (errno_of_zerror e)

let rec rmdir_with_retries t ~attempts vpath =
  let* meta, stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.File _ | Meta.Symlink _ -> Error Errno.ENOTDIR
  | Meta.Dir ->
    if vpath = "/" then Error Errno.EINVAL
    else begin
      (* the version guard makes the emptiness check race-free: the
         delete only succeeds against the exact state the lookup judged,
         and a concurrent metadata update turns into a clean re-read *)
      match
        t.coord.Zk_client.delete ~version:stat.Zk.Ztree.version (zpath t vpath)
      with
      | Ok () -> Ok ()
      | Error Zerror.ZBADVERSION when attempts > 1 ->
        rmdir_with_retries t ~attempts:(attempts - 1) vpath
      | Error e -> Error (errno_of_zerror e)
    end

let rmdir t vpath =
  charge t;
  let* vpath = checked vpath in
  rmdir_with_retries t ~attempts:8 vpath

(* Create the znode first (atomically claiming the name), then the
   physical file; roll the znode back if the back-end fails. *)
let create_file t vpath ~mode =
  charge t;
  let* vpath = checked vpath in
  let* () = parent_dir_of t vpath in
  let fid = Fid.Gen.next t.fid_gen in
  let data = Meta.encode (Meta.file fid ~mode ~ctime:(t.clock ())) in
  match t.coord.Zk_client.create (zpath t vpath) ~data with
  | Error e -> Error (errno_of_zerror e)
  | Ok _ ->
    let backend = backend_for t fid in
    let ppath = physical t fid in
    let created =
      match backend.Vfs.create ppath ~mode with
      | Ok () -> Ok ()
      | Error Errno.ENOENT ->
        (* hierarchy not formatted: create it on demand, then retry *)
        let* () = Vfs.mkdir_p backend (Fspath.parent ppath) ~mode:0o755 in
        backend.Vfs.create ppath ~mode
      | Error _ as e -> e
    in
    (match created with
     | Ok () -> Ok ()
     | Error _ ->
       (match t.coord.Zk_client.delete (zpath t vpath) with
        | Ok () | Error Zerror.ZNONODE -> ()
        | Error e ->
          (* rollback failed too: the znode survives with no physical
             file behind it — exactly the Missing_physical orphan
             Fsck.scan reports. Leave a breadcrumb for the operator. *)
          t.orphan_notes <-
            Printf.sprintf "%s: create rolled back but znode delete failed (%s)"
              (zpath t vpath) (Zerror.to_string e)
            :: t.orphan_notes);
       Error Errno.EIO)

let unlink t vpath =
  charge t;
  let* vpath = checked vpath in
  let* meta, _stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.Dir -> Error Errno.EISDIR
  | Meta.Symlink _ ->
    (match t.coord.Zk_client.delete (zpath t vpath) with
     | Ok () -> Ok ()
     | Error e -> Error (errno_of_zerror e))
  | Meta.File fid ->
    (match t.coord.Zk_client.delete (zpath t vpath) with
     | Error e -> Error (errno_of_zerror e)
     | Ok () ->
       (* the name is gone; physical cleanup failures only leak space *)
       (match (backend_for t fid).Vfs.unlink (physical t fid) with
        | Ok () | Error _ -> Ok ()))

let readdir t vpath =
  charge t;
  let* vpath = checked vpath in
  (* bulk fetch first: names and payloads arrive in one coordination
     round trip, so listing an N-entry directory costs 1 visit, not N+1 *)
  match t.coord.Zk_client.children_with_data (zpath t vpath) with
  | Error Zerror.ZNONODE -> Error (classify_missing t vpath)
  | Error e -> Error (errno_of_zerror e)
  | Ok [] ->
    (* an empty listing is ambiguous: files and symlinks are leaf znodes
       too, so only now read the node itself to tell them apart *)
    let* meta, _stat = lookup t vpath in
    (match meta.Meta.kind with
     | Meta.Dir -> Ok []
     | Meta.File _ | Meta.Symlink _ -> Error Errno.ENOTDIR)
  | Ok entries ->
    (* children exist, so the znode is a DUFS directory: files and
       symlinks never have children *)
    let kind_of data =
      match Meta.kind_tag data with
      | Some Meta.Dir_tag -> Inode.Directory
      | Some Meta.File_tag | None -> Inode.Regular
      | Some Meta.Symlink_tag -> Inode.Symlink
    in
    Ok (List.map (fun (name, data, _) -> { Vfs.name; kind = kind_of data }) entries)

let symlink t ~target vpath =
  charge t;
  let* vpath = checked vpath in
  let* () = parent_dir_of t vpath in
  let data = Meta.encode (Meta.symlink ~target ~ctime:(t.clock ())) in
  match t.coord.Zk_client.create (zpath t vpath) ~data with
  | Ok _ -> Ok ()
  | Error e -> Error (errno_of_zerror e)

let readlink t vpath =
  charge t;
  let* vpath = checked vpath in
  let* meta, _stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.Symlink target -> Ok target
  | Meta.Dir | Meta.File _ -> Error Errno.EINVAL

(* {2 Rename}

   Rename is a pure metadata operation: the FID (and hence the physical
   file) never moves. The whole update — including moving a directory
   subtree's znodes — is submitted as one atomic multi-transaction,
   guarded by a version check on the source so a concurrent modification
   retries rather than corrupting the namespace. *)

let collect_subtree t zsrc =
  (* breadth-first: parents precede children. The frontier is a Queue so
     enqueueing a level is O(children), not the O(n²) of [rest @ children];
     each visited node's bulk listing yields its children's payloads too,
     halving the round trips of a get + children walk. *)
  match t.coord.Zk_client.get zsrc with
  | Error e -> Error (errno_of_zerror e)
  | Ok (root_data, _) ->
    let frontier = Queue.create () in
    Queue.push zsrc frontier;
    let rec walk acc =
      match Queue.take_opt frontier with
      | None -> Ok (List.rev acc)
      | Some path ->
        (match t.coord.Zk_client.children_with_data path with
         | Error e -> Error (errno_of_zerror e)
         | Ok entries ->
           let acc =
             List.fold_left
               (fun acc (name, data, _) ->
                 Queue.push (Zpath.concat path name) frontier;
                 (Zpath.concat path name, data) :: acc)
               acc entries
           in
           walk acc)
    in
    walk [ (zsrc, root_data) ]

let rebase ~from ~onto path =
  if path = from then onto
  else onto ^ String.sub path (String.length from) (String.length path - String.length from)

let rename_txn t ~zsrc ~zdst ~src_version ~dst_existing =
  let* nodes = collect_subtree t zsrc in
  let deletes_of_dst =
    match dst_existing with
    | None -> []
    | Some () -> [ Zk_client.delete_op zdst ]
  in
  let creates =
    List.map
      (fun (path, data) -> Zk_client.create_op (rebase ~from:zsrc ~onto:zdst path) ~data)
      nodes
  in
  let deletes =
    (* deepest first, so children disappear before their parents *)
    List.map (fun (path, _) -> Zk_client.delete_op path) (List.rev nodes)
  in
  Ok ([ Zk_client.check_op ~version:src_version zsrc ] @ deletes_of_dst @ creates @ deletes)

let rec rename_with_retries t ~attempts vsrc vdst =
  let zsrc = zpath t vsrc and zdst = zpath t vdst in
  let* () = parent_dir_of t vsrc in
  let* () = parent_dir_of t vdst in
  let* src_meta, src_stat = lookup t vsrc in
  let src_is_dir = match src_meta.Meta.kind with Meta.Dir -> true | _ -> false in
  if vsrc = vdst then Ok ()
  else if src_is_dir && Fspath.is_prefix ~prefix:vsrc vdst then Error Errno.EINVAL
  else begin
    let dst_state =
      match lookup t vdst with
      | Ok (dst_meta, dst_stat) -> `Exists (dst_meta, dst_stat)
      | Error Errno.ENOENT -> `Absent
      | Error e -> `Err e
    in
    let* dst_existing =
      match dst_state with
      | `Err e -> Error e
      | `Absent -> Ok None
      | `Exists (dst_meta, _) ->
        (match src_meta.Meta.kind, dst_meta.Meta.kind with
         | Meta.Dir, Meta.Dir ->
           (* a children query, not the stat's [num_children]: under a
              sharded coordination service the primary of a directory
              homed apart from its children always reports 0 there *)
           (match t.coord.Zk_client.children zdst with
            | Ok (_ :: _) -> Error Errno.ENOTEMPTY
            | Ok [] -> Ok (Some ())
            | Error e -> Error (errno_of_zerror e))
         | Meta.Dir, (Meta.File _ | Meta.Symlink _) -> Error Errno.ENOTDIR
         | (Meta.File _ | Meta.Symlink _), Meta.Dir -> Error Errno.EISDIR
         | (Meta.File _ | Meta.Symlink _), (Meta.File _ | Meta.Symlink _) ->
           Ok (Some ()))
    in
    let* txn =
      rename_txn t ~zsrc ~zdst ~src_version:src_stat.Zk.Ztree.version ~dst_existing
    in
    match t.coord.Zk_client.multi txn with
    | Ok _ -> Ok ()
    | Error (Zerror.ZBADVERSION | Zerror.ZNODEEXISTS | Zerror.ZNONODE | Zerror.ZNOTEMPTY)
      when attempts > 1 ->
      (* lost a race with a concurrent namespace update: re-read and retry *)
      rename_with_retries t ~attempts:(attempts - 1) vsrc vdst
    | Error e -> Error (errno_of_zerror e)
  end

let rename t vsrc vdst =
  charge t;
  let* vsrc = checked vsrc in
  let* vdst = checked vdst in
  if vsrc = "/" then Error Errno.EINVAL
  else rename_with_retries t ~attempts:8 vsrc vdst

(* {2 Attribute updates} *)

let rec set_meta_with_retries t ~attempts vpath update =
  let* meta, stat = lookup t vpath in
  let* meta' = update meta in
  match
    t.coord.Zk_client.set ~version:stat.Zk.Ztree.version (zpath t vpath)
      ~data:(Meta.encode meta')
  with
  | Ok () -> Ok ()
  | Error Zerror.ZBADVERSION when attempts > 1 ->
    set_meta_with_retries t ~attempts:(attempts - 1) vpath update
  | Error e -> Error (errno_of_zerror e)

let chmod t vpath ~mode =
  charge t;
  let* vpath = checked vpath in
  let* meta, _stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.File fid -> (backend_for t fid).Vfs.chmod (physical t fid) ~mode
  | Meta.Symlink _ -> Ok ()
  | Meta.Dir ->
    set_meta_with_retries t ~attempts:8 vpath (fun meta ->
        Ok { meta with Meta.mode })

let truncate t vpath ~size =
  charge t;
  let* vpath = checked vpath in
  let* meta, _stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.Dir -> Error Errno.EISDIR
  | Meta.Symlink _ -> Error Errno.EINVAL
  | Meta.File fid -> (backend_for t fid).Vfs.truncate (physical t fid) ~size

(* {2 Data path} *)

let with_file t vpath f =
  let* vpath = checked vpath in
  let* meta, _stat = lookup t vpath in
  match meta.Meta.kind with
  | Meta.Dir -> Error Errno.EISDIR
  | Meta.Symlink _ -> Error Errno.EINVAL
  | Meta.File fid -> f (backend_for t fid) (physical t fid)

let read t vpath ~off ~len =
  charge t;
  with_file t vpath (fun backend ppath -> backend.Vfs.read ppath ~off ~len)

let write t vpath ~off data =
  charge t;
  with_file t vpath (fun backend ppath -> backend.Vfs.write ppath ~off data)

let statfs t () =
  Array.fold_left
    (fun acc backend ->
      let s = backend.Vfs.statfs () in
      { Vfs.files = acc.Vfs.files + s.Vfs.files;
        directories = acc.Vfs.directories + s.Vfs.directories;
        symlinks = acc.Vfs.symlinks + s.Vfs.symlinks;
        bytes_used = Int64.add acc.Vfs.bytes_used s.Vfs.bytes_used })
    { Vfs.files = 0; directories = 0; symlinks = 0; bytes_used = 0L }
    t.backends

(* Root span around one POSIX op against the simulated clock. Recording
   is accumulator-only, so traced and untraced runs tick identically. *)
let traced t name f =
  if Obs.Trace.enabled t.trace then begin
    let t0 = t.clock () in
    let r = f () in
    Obs.Trace.record_span t.trace name (t.clock () -. t0);
    r
  end
  else f ()

let ops t =
  { Vfs.getattr = (fun p -> traced t "dufs.getattr" (fun () -> getattr t p));
    access = (fun p -> traced t "dufs.access" (fun () -> access t p));
    mkdir = (fun p ~mode -> traced t "dufs.mkdir" (fun () -> mkdir t p ~mode));
    rmdir = (fun p -> traced t "dufs.rmdir" (fun () -> rmdir t p));
    create =
      (fun p ~mode -> traced t "dufs.create" (fun () -> create_file t p ~mode));
    unlink = (fun p -> traced t "dufs.unlink" (fun () -> unlink t p));
    rename = (fun a b -> traced t "dufs.rename" (fun () -> rename t a b));
    readdir = (fun p -> traced t "dufs.readdir" (fun () -> readdir t p));
    symlink =
      (fun ~target p -> traced t "dufs.symlink" (fun () -> symlink t ~target p));
    readlink = (fun p -> traced t "dufs.readlink" (fun () -> readlink t p));
    chmod = (fun p ~mode -> traced t "dufs.chmod" (fun () -> chmod t p ~mode));
    truncate =
      (fun p ~size -> traced t "dufs.truncate" (fun () -> truncate t p ~size));
    read =
      (fun p ~off ~len -> traced t "dufs.read" (fun () -> read t p ~off ~len));
    write =
      (fun p ~off data -> traced t "dufs.write" (fun () -> write t p ~off data));
    statfs = (fun () -> traced t "dufs.statfs" (fun () -> statfs t ())) }
