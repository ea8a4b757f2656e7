(** File attributes — the [struct stat] equivalent returned by [getattr]. *)

type kind = Regular | Directory | Symlink

type attr = {
  kind : kind;
  ino : int64;
  mode : int;    (** permission bits, e.g. 0o755 *)
  uid : int;
  gid : int;
  size : int64;  (** bytes for regular files; entry count for directories *)
  nlink : int;
  atime : float;
  mtime : float;
  ctime : float;
}

val kind_to_string : kind -> string
val equal_kind : kind -> kind -> bool
