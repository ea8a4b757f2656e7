(** The znode data tree — the state machine each replica applies.

    Mutations enter only through {!apply}, which executes one {!Txn.t}
    atomically (all-or-nothing) at a given zxid, exactly as a ZooKeeper
    replica applies committed proposals. Reads ({!get}, {!exists},
    {!children}) are local and never modify the tree.

    Semantics follow ZooKeeper: per-node data version / child version /
    czxid / mzxid / pzxid bookkeeping, 10-digit sequential-node suffixes
    derived from the parent's child-sequence counter, ephemeral nodes that
    cannot have children, and fire-once data / child watches. *)

type t

type stat = {
  czxid : int64;
  mzxid : int64;
  pzxid : int64;
  ctime : float;
  mtime : float;
  version : int;           (** data version *)
  cversion : int;          (** child-list version *)
  ephemeral_owner : int64; (** 0 for persistent nodes *)
  data_length : int;
  num_children : int;
}

type event_kind =
  | Node_created
  | Node_deleted
  | Node_data_changed
  | Node_children_changed

type watch_event = { kind : event_kind; path : string }

val create : unit -> t

(** {2 Replicated mutation} *)

(** [apply t ~zxid ~time txn] applies [txn] atomically. On error the tree
    is unchanged and no watch fires. [zxid] must be strictly increasing
    across calls. *)
val apply :
  t -> zxid:int64 -> time:float -> Txn.t ->
  (Txn.result_item list, Zerror.t) result

(** {2 Local reads} *)

val get : t -> string -> (string * stat, Zerror.t) result
val exists : t -> string -> stat option
val children : t -> string -> (string list, Zerror.t) result

(** [children_with_data t path] lists [path]'s children as
    [(name, data, stat)] triples sorted by name — the server-side
    aggregation behind a one-round-trip readdir. *)
val children_with_data :
  t -> string -> ((string * string * stat) list, Zerror.t) result

(** {2 Watches} *)

(** Register a fire-once data watch on [path] (legal even if the node does
    not exist yet — it then fires on creation, like an exists-watch). *)
val watch_data : t -> string -> (watch_event -> unit) -> unit

(** Register a fire-once child watch on an existing node. *)
val watch_children : t -> string -> (watch_event -> unit) -> unit

(** Total armed watch registrations (data + child) — the server-side
    per-znode state a lease-coherent client cache never creates. *)
val watch_count : t -> int

(** [migrate_watches ~from ~into] carries [from]'s armed watch registries
    over to [into] — the setWatches-on-reconnect step of a snapshot-based
    resync, where the receiving replica swaps in a deserialized tree that
    has no watches. A watch whose node is unchanged between the two
    states (same mzxid/version for data watches, same pzxid/cversion for
    child watches) re-arms on [into]; a watch whose node was created,
    deleted, or modified in the gap fires immediately with the missed
    event. [from]'s registries are emptied. *)
val migrate_watches : from:t -> into:t -> unit

(** [fire_child_watches t dir] consumes and fires (as
    [Node_children_changed]) every armed child watch on [dir]. Used on
    an ownership flip: listings of a migrated directory will never
    again change on this tree, so watches waiting here are stale.
    Returns the number of callbacks fired. *)
val fire_child_watches : t -> string -> int

(** [fire_data_watches_under t ~dir] consumes and fires (as
    [Node_data_changed]) every armed data watch on an immediate child
    path of [dir] — including watches on {e absent} children, which
    back cached negative entries. Deterministic (paths are visited in
    sorted order). Returns the number of callbacks fired. *)
val fire_data_watches_under : t -> dir:string -> int

(** {2 Sessions} *)

(** All paths currently owned by [owner], deepest first (safe to delete in
    order). *)
val ephemerals_of : t -> owner:int64 -> string list

(** {2 Introspection} *)

val node_count : t -> int
val last_zxid : t -> int64

(** Modelled heap bytes consumed by the tree (structures + names + data).
    The server-process figure for Fig. 11 multiplies this by the JVM
    factor in {!Memory_model}. *)
val resident_bytes : t -> int

(** Deep structural equality of two trees (paths, data, versions) — used
    by replica-agreement tests. Watches are ignored. *)
val equal_state : t -> t -> bool

(** [fingerprint t] — order-independent digest of (path, data, version)
    triples, for cheap agreement checks. *)
val fingerprint : t -> int

(** {2 Snapshots}

    ZooKeeper servers periodically checkpoint the in-memory database to
    disk and fuzzy-restore from snapshot + log replay (§IV-I: "it can
    tolerate the failure of all servers by restarting them later"). *)

(** A frozen image of a tree: its last zxid and every node's path, data
    and stats as they were when captured. *)
type image

(** [capture t] freezes [t]'s current state in O(nodes) without sorting
    or formatting. Paths and data are shared with [t] (they are
    immutable strings); stats are copied, so later mutations of [t]
    never show through the image. *)
val capture : t -> image

(** The bytes {!serialize} would have returned at the moment the image
    was captured: encoding is deferred work, not a different format. *)
val encode : image -> string

(** Serialize the whole tree (nodes, data, stats, sequence counters) to a
    self-contained byte string. Watches are not captured.
    [serialize t = encode (capture t)]. *)
val serialize : t -> string

(** Rebuild a tree from [serialize] output. *)
val deserialize : string -> (t, string) result

(** {2 Field encoders}

    Shared with the WAL record format, which is ZTREE-style. *)

(** ["<len>:<s>"]: a length-prefixed string, so no escaping is needed. *)
val add_len_str : Buffer.t -> string -> unit

(** The float's IEEE-754 bits in lowercase hex without leading zeros
    (the text [Printf "%Lx"] gives). *)
val add_float_bits : Buffer.t -> float -> unit
