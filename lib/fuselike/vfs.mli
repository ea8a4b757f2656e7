(** The FUSE-equivalent virtual-filesystem operation table.

    Every filesystem in this repository — the in-memory reference
    filesystem, the Lustre and PVFS2 simulators, and DUFS itself — exposes
    this same path-based interface, mirroring the high-level FUSE API the
    paper's prototype implements (§IV-C). Implementations backed by the
    simulator block the calling simulation process; pure implementations
    return immediately. *)

type dirent = { name : string; kind : Inode.kind }

(** Aggregate filesystem counters, for sanity checks and reporting. *)
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

(** [not_supported] returns [Error EPERM] (or empty stats) everywhere;
    useful as a base record for partial implementations. *)
val not_supported : ops

(** [absolute_only ops] refuses every path {!Fspath.validate} refuses
    (not a symlink target), with that function's errno, before calling
    [ops]: a relative or empty path or a ["."]/[".."] component is
    [EINVAL], an over-long component [ENAMETOOLONG]. The simulators'
    clients use it so such a path costs no server work. *)
val absolute_only : ops -> ops

val compare_dirent : dirent -> dirent -> int

(** [exists ops p] — does [getattr] succeed? *)
val exists : ops -> string -> bool

(** [mkdir_p ops p ~mode] creates all missing ancestors of [p] then [p];
    succeeds if [p] already is a directory. *)
val mkdir_p : ops -> string -> mode:int -> (unit, Errno.t) result
