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

(* Each op matches on the validation itself, not through a helper that
   takes the op as a closure, so a valid path costs one scan and
   allocates nothing. *)
let absolute_only ops =
  let valid = Fspath.validate in
  { getattr =
      (fun p -> match valid p with Ok () -> ops.getattr p | Error e -> Error e);
    access =
      (fun p -> match valid p with Ok () -> ops.access p | Error e -> Error e);
    mkdir =
      (fun p ~mode ->
        match valid p with Ok () -> ops.mkdir p ~mode | Error e -> Error e);
    rmdir =
      (fun p -> match valid p with Ok () -> ops.rmdir p | Error e -> Error e);
    create =
      (fun p ~mode ->
        match valid p with Ok () -> ops.create p ~mode | Error e -> Error e);
    unlink =
      (fun p -> match valid p with Ok () -> ops.unlink p | Error e -> Error e);
    rename =
      (fun src dst ->
        match valid src, valid dst with
        | Ok (), Ok () -> ops.rename src dst
        | Error e, _ | _, Error e -> Error e);
    readdir =
      (fun p -> match valid p with Ok () -> ops.readdir p | Error e -> Error e);
    symlink =
      (fun ~target p ->
        match valid p with Ok () -> ops.symlink ~target p | Error e -> Error e);
    readlink =
      (fun p -> match valid p with Ok () -> ops.readlink p | Error e -> Error e);
    chmod =
      (fun p ~mode ->
        match valid p with Ok () -> ops.chmod p ~mode | Error e -> Error e);
    truncate =
      (fun p ~size ->
        match valid p with Ok () -> ops.truncate p ~size | Error e -> Error e);
    read =
      (fun p ~off ~len ->
        match valid p with Ok () -> ops.read p ~off ~len | Error e -> Error e);
    write =
      (fun p ~off data ->
        match valid p with Ok () -> ops.write p ~off data | Error e -> Error e);
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
