module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Inode = Fuselike.Inode

type move = {
  vpath : string;
  fid : Fid.t;
  src : int;
  dst : int;
}

type stats = {
  examined : int;
  moved : int;
  bytes_moved : int64;
}

let plan ~coord ~old_locate ~new_locate ?(zroot = "/dufs") () =
  Result.map
    (fun files ->
      List.filter_map
        (fun (vpath, fid) ->
          let src = old_locate fid and dst = new_locate fid in
          if src = dst then None else Some { vpath; fid; src; dst })
        files)
    (Namespace.files coord ~zroot)

let execute ~backends ?(layout = Physical.default_layout) ?(note = fun _ -> ())
    moves =
  let ( let* ) = Result.bind in
  let examined = List.length moves in
  let rec go moved bytes_moved = function
    | [] -> Ok { examined; moved; bytes_moved }
    | { vpath; fid; src; dst } :: rest ->
      let path = Physical.path layout fid in
      let src_ops = backends.(src) and dst_ops = backends.(dst) in
      let* attr = src_ops.Vfs.getattr path in
      let size = Int64.to_int attr.Inode.size in
      let* contents = src_ops.Vfs.read path ~off:0 ~len:size in
      (* Write-ahead intent: from the first dst mutation until the src
         unlink commits, the file exists on both back-ends. A crash (or
         error exit) inside that window would otherwise leave the double
         presence with no record anywhere — this note is what points
         Fsck at it. *)
      note
        (Printf.sprintf "move in flight: %s (fid %s) backend %d -> %d" vpath
           (Fid.to_hex fid) src dst);
      let* () =
        match dst_ops.Vfs.create path ~mode:attr.Inode.mode with
        | Ok () | Error Errno.EEXIST -> Ok ()
        | Error Errno.ENOENT ->
          (* destination mount not formatted with this layout *)
          let* () = Vfs.mkdir_p dst_ops (Fuselike.Fspath.parent path) ~mode:0o755 in
          dst_ops.Vfs.create path ~mode:attr.Inode.mode
        | Error _ as e -> e
      in
      let* _n = dst_ops.Vfs.write path ~off:0 contents in
      let* () = dst_ops.Vfs.chmod path ~mode:attr.Inode.mode in
      (match src_ops.Vfs.unlink path with
       | Ok () -> go (moved + 1) (Int64.add bytes_moved attr.Inode.size) rest
       | Error e ->
         note
           (Printf.sprintf
              "double presence: %s (fid %s) committed to backend %d but unlink \
               on %d failed (%s)"
              vpath (Fid.to_hex fid) dst src (Errno.to_string e));
         Error e)
  in
  go 0 0L moves

let plan_add_backend ~coord ~strategy ~backends_before ?(zroot = "/dufs") () =
  let n = backends_before in
  let old_locate fid = Mapping.locate strategy ~backends:n fid in
  let new_strategy =
    match strategy with
    | Mapping.Md5_mod -> Mapping.Md5_mod
    | Mapping.Consistent ring -> Mapping.Consistent (Zk.Consistent_hash.add_node ring n)
  in
  let new_locate fid = Mapping.locate new_strategy ~backends:(n + 1) fid in
  Result.map
    (fun moves -> (moves, new_strategy))
    (plan ~coord ~old_locate ~new_locate ~zroot ())
