type dirent = { name : string; kind : Inode.kind }

type fsstats = {
  files : int;
  directories : int;
  symlinks : int;
  bytes_used : int64;
}

type ops = {
  getattr : string -> (Inode.attr, Errno.t) result;
  access : string -> (unit, Errno.t) result;
  mkdir : string -> mode:int -> (unit, Errno.t) result;
  rmdir : string -> (unit, Errno.t) result;
  create : string -> mode:int -> (unit, Errno.t) result;
  unlink : string -> (unit, Errno.t) result;
  rename : string -> string -> (unit, Errno.t) result;
  readdir : string -> (dirent list, Errno.t) result;
  symlink : target:string -> string -> (unit, Errno.t) result;
  readlink : string -> (string, Errno.t) result;
  chmod : string -> mode:int -> (unit, Errno.t) result;
  truncate : string -> size:int64 -> (unit, Errno.t) result;
  read : string -> off:int -> len:int -> (string, Errno.t) result;
  write : string -> off:int -> string -> (int, Errno.t) result;
  statfs : unit -> fsstats;
}

let not_supported =
  let eperm _ = Error Errno.EPERM in
  { getattr = eperm;
    access = eperm;
    mkdir = (fun _ ~mode:_ -> Error Errno.EPERM);
    rmdir = eperm;
    create = (fun _ ~mode:_ -> Error Errno.EPERM);
    unlink = eperm;
    rename = (fun _ _ -> Error Errno.EPERM);
    readdir = eperm;
    symlink = (fun ~target:_ _ -> Error Errno.EPERM);
    readlink = eperm;
    chmod = (fun _ ~mode:_ -> Error Errno.EPERM);
    truncate = (fun _ ~size:_ -> Error Errno.EPERM);
    read = (fun _ ~off:_ ~len:_ -> Error Errno.EPERM);
    write = (fun _ ~off:_ _ -> Error Errno.EPERM);
    statfs =
      (fun () -> { files = 0; directories = 0; symlinks = 0; bytes_used = 0L }) }

let absolute_only ops =
  let ok p = p <> "" && p.[0] = '/' in
  let einval = Error Errno.EINVAL in
  { getattr = (fun p -> if ok p then ops.getattr p else einval);
    access = (fun p -> if ok p then ops.access p else einval);
    mkdir = (fun p ~mode -> if ok p then ops.mkdir p ~mode else einval);
    rmdir = (fun p -> if ok p then ops.rmdir p else einval);
    create = (fun p ~mode -> if ok p then ops.create p ~mode else einval);
    unlink = (fun p -> if ok p then ops.unlink p else einval);
    rename = (fun src dst -> if ok src && ok dst then ops.rename src dst else einval);
    readdir = (fun p -> if ok p then ops.readdir p else einval);
    symlink = (fun ~target p -> if ok p then ops.symlink ~target p else einval);
    readlink = (fun p -> if ok p then ops.readlink p else einval);
    chmod = (fun p ~mode -> if ok p then ops.chmod p ~mode else einval);
    truncate = (fun p ~size -> if ok p then ops.truncate p ~size else einval);
    read = (fun p ~off ~len -> if ok p then ops.read p ~off ~len else einval);
    write = (fun p ~off data -> if ok p then ops.write p ~off data else einval);
    statfs = ops.statfs }

let compare_dirent a b = String.compare a.name b.name

let exists ops p = Result.is_ok (ops.getattr p)

let mkdir_p ops p ~mode =
  let rec ensure path =
    match ops.getattr path with
    | Ok attr ->
      if Inode.equal_kind attr.Inode.kind Inode.Directory then Ok ()
      else Error Errno.ENOTDIR
    | Error Errno.ENOENT ->
      (match ensure (Fspath.parent path) with
       | Error _ as e -> e
       | Ok () ->
         (match ops.mkdir path ~mode with
          | Ok () | Error Errno.EEXIST -> Ok ()
          | Error _ as e -> e))
    | Error _ as e -> e
  in
  if p = "/" then Ok () else ensure (Fspath.normalize p)
