(** Znode path algebra.

    Znode paths are absolute, '/'-separated, with no trailing slash, no
    empty components and no ["."] / [".."] components — the rules the
    ZooKeeper server enforces. *)

(** [validate p] is [Ok ()] iff [p] is a legal znode path. ["/"] is legal
    (the root). *)
val validate : string -> (unit, Zerror.t) result

val parent : string -> string
val basename : string -> string
val concat : string -> string -> string
val depth : string -> int

(** [hash p] is [Hashtbl.hash p]: the hash of a path that lease
    revocations carry ({!Lease.revocation}) and the client cache's
    stores key on, so whoever derives a path hashes it once and each
    store probe reuses that hash. *)
val hash : string -> int

(** [sequential_name base counter] appends the 10-digit zero-padded
    counter ZooKeeper uses for sequential znodes, e.g.
    [sequential_name "lock-" 7 = "lock-0000000007"]. *)
val sequential_name : string -> int -> string
