type kind = Regular | Directory | Symlink

type attr = {
  kind : kind;
  ino : int64;
  mode : int;
  uid : int;
  gid : int;
  size : int64;
  nlink : int;
  atime : float;
  mtime : float;
  ctime : float;
}

let kind_to_string = function
  | Regular -> "file"
  | Directory -> "dir"
  | Symlink -> "symlink"

let equal_kind (a : kind) (b : kind) = a = b

