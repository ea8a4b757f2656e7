(** In-memory POSIX filesystem implementing {!Vfs.ops}.

    This is the reference VFS used directly as a back-end in local mode, as
    the namespace store inside the Lustre/PVFS2 server simulators, and as
    the oracle in model-equivalence tests. Semantics follow POSIX for the
    metadata operations the paper exercises: ENOENT/EEXIST/ENOTDIR/EISDIR/
    ENOTEMPTY errors, rename replacement rules, and no-rename-into-own-
    subtree. *)

type t

(** [create ~clock ()] — [clock] supplies the timestamps recorded in
    attributes (virtual time in simulations, a constant in pure tests). *)
val create : clock:(unit -> float) -> unit -> t

val ops : t -> Vfs.ops

(** [lookup_parent t p] is the inode number of [p]'s parent directory and
    [p]'s final component, resolved as every creating or removing op
    resolves them: [EINVAL] for an invalid path or one with no final
    component, [ENOENT] or [ENOTDIR] from the walk. *)
val lookup_parent : t -> string -> (int64 * string, Errno.t) result

(** Approximate resident bytes: per-node overhead plus file contents.
    Used by the Fig. 11 memory experiment. *)
val resident_bytes : t -> int
