(** The znode data tree — the state machine each replica applies.

    A tree is a mutable holder of an immutable {!image}: nodes keyed by
    path, each with its child count (a node's children are the range of
    paths under it). Mutations enter only through
    {!apply}, which maps the current image to the next one for one
    {!Txn.t} atomically (all-or-nothing) at a given zxid, exactly as a
    ZooKeeper replica applies committed proposals. Reads ({!get},
    {!exists}, {!children}) are local and never modify the tree. Watch
    registries stay per tree, outside the image.

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

(** The state a tree holds at one instant: a value, never mutated. *)
type image

(** The apply-sharing context of one ensemble. Members in lock-step hold
    the same image, so each committed txn needs computing once: the first
    member to apply it remembers the outcome, and a member that applies
    the same txn at the same zxid and time to that very image adopts it.
    The context keeps the last apply per zxid modulo 256; a member that
    diverged holds a different image and simply computes its own.
    Contexts never share state with each other. *)
type share

val share : unit -> share

(** Applies a share's members adopted, and applies they computed. *)
val adopted : share -> int
val computed : share -> int

(** A tree holding the share's initial image (the root alone), or a
    fresh one without a share. *)
val create : ?share:share -> unit -> t

(** A tree, with no watches, holding [image]. *)
val restore : ?share:share -> image -> t

(** {2 Replicated mutation} *)

(** [apply t ~zxid ~time txn] applies [txn] atomically. On error the tree
    keeps its image (physically) and no watch fires; on success its
    watches on the touched paths are all taken, then fired in order.
    [zxid] must be strictly increasing across calls. *)
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
    resync, where the receiving replica swaps in a restored tree that
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
    order), paths of equal depth in path order. *)
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

(** [capture t] is [t]'s image, in O(1): later applies to [t] build new
    images and never change this one. *)
val capture : t -> image

(** The bytes {!serialize} returns for a tree holding the image. *)
val encode : image -> string

(** [String.length (encode img)], counted without building the bytes. *)
val encoded_length : image -> int

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
