(** Sharded coordination: the znode namespace partitioned across
    independent ZAB ensembles, behind the unchanged {!Zk_client.handle}
    surface.

    {2 Routing invariant — parent-directory co-location}

    A znode [p]'s primary copy lives on the shard owning [parent p]
    under the {!placement} ([home p]); consequently {e all children of
    a directory live on one shard} ([kids d], the shard owning [d]
    itself). Sibling creates, sequential-suffix allocation,
    [children]/[children_with_data[_watch]] and child watches are
    therefore always single-shard operations, and each shard keeps its
    own sessions, watches, request-id dedup table and exactly-once retry
    semantics untouched.

    When [home d <> kids d] (the directory hashes apart from its own
    children), the children's shard holds a lazily materialized {e stub}
    of [d]: an empty placeholder created on first cross-shard child
    create, invisible to every read (listings of [d] route to [kids d],
    where the stub is the parent; listings of [parent d] route to
    [home d], where the primary is the child). Stat reads of such a
    directory come from the primary, whose [num_children] stays 0 — the
    child count lives on the stub. This drift, and every other
    cross-shard caveat, is documented in DESIGN.md §sharding.

    {2 Atomicity boundary}

    Single-shard {!Txn.t} multis (all op paths homed on one shard) route
    through unchanged and stay atomic. A cross-shard multi is executed
    as ordered per-shard sub-transactions (ascending shard id); each
    sub-transaction is atomic, the whole is not. On a failing
    sub-transaction the router rolls back the already-committed shards'
    creates (deletes of the created paths); committed deletes and
    data writes cannot be restored — those leave an orphan note for
    {!Fsck}-style repair and bump [rollback_failures]. Cross-shard
    deletes of a stubbed directory are an ordered two-phase write
    (stub first — it holds the children, so ZNOTEMPTY semantics are
    preserved — then primary, recreating the stub if the primary
    delete refuses). All occurrences are counted in {!stats}.

    {2 Online resharding}

    The shard count is dynamic: {!Reshard} migrates directory keys one
    at a time through a prepare/copy/flip/retire state machine built on
    {!prepare_reshard}, {!begin_migration}, {!freeze_migration} and
    {!finish_migration}. While a key migrates, the router parks writes
    to it (and, once frozen, reads too) in a poll loop that sleeps
    between polls on a {!start}ed deployment, so in-flight client ops
    are routed to the old owner pre-flip and to the new one post-flip.
    DESIGN.md §10 documents the protocol and its flip-ordering
    guarantees. *)

type stats = {
  mutable cross_shard_multis : int;
  mutable cross_shard_deletes : int;  (** two-phase stub+primary deletes *)
  mutable stub_creates : int;
  mutable stub_deletes : int;
  mutable rollbacks : int;            (** undo transactions that succeeded *)
  mutable rollback_failures : int;    (** partial commits left in place *)
  mutable orphan_notes : string list;
      (** newest first; repair work items {e and} informational
          bookkeeping (migration stub promotions, flattened
          ephemerals). Capped at 200 entries — the overflow count is
          [orphan_notes_dropped]; only [rollback_failures] (not the
          log length) counts unrecoverable partial commits. *)
  mutable orphan_notes_total : int;   (** every note ever taken *)
  mutable orphan_notes_dropped : int; (** rotated out of the capped log *)
}

val fresh_stats : unit -> stats

(** Live stubs currently standing in for cross-shard directories
    ([stub_creates - stub_deletes]). *)
val live_stubs : stats -> int

(** Append an informational note (capped/rotated; never touches
    [rollback_failures]). *)
val note : stats -> string -> unit

(** Append a note that records an unrecoverable partial commit; bumps
    [rollback_failures] as well. *)
val note_failure : stats -> string -> unit

(** {2 Placement — consistent hashing with bounded loads}

    The ring alone cannot balance a small key population (a namespace
    with ~100 populated directories hashed onto 4 shards leaves the
    hottest shard near 28% of the keys, and read throughput tracks the
    hottest shard), so a directory key's shard is the ring's choice
    {e unless} that shard already holds [ceil ((1+eps) * keys/shards)]
    keys — then the next shard id (wrapping) under the cap takes it.
    With [eps = 0] (the default) per-shard key counts never differ by
    more than one. Assignments are memoized and therefore stable for
    the placement's lifetime unless a reshard migrates them; the table
    models the durable directory-placement map a real deployment would
    keep in a small, cacheable coordination namespace (IndexFS-style). *)

type placement

(** @raise Invalid_argument if [shards < 1] or [eps < 0]. *)
val make_placement : ?eps:float -> shards:int -> unit -> placement

(** The shard owning [key] (a directory path), assigning it if new. *)
val place : placement -> string -> int

val placement_ring : placement -> Consistent_hash.t

(** Current shard count of the placement (grows/shrinks on reshard). *)
val placement_shards : placement -> int

(** Copy of the per-shard key loads. *)
val placement_loads : placement -> int array

(** Keys ever assigned (stable across resharding — keys move, they are
    never forgotten). *)
val keys_assigned : placement -> int

(** The key's current shard without assigning it — [None] if the key
    was never placed. *)
val assigned_shard : placement -> string -> int option

(** {2 Online resharding primitives — used by {!Reshard}} *)

(** [prepare_reshard p ~shards] replays every assigned key (sorted, so
    the plan is deterministic) through the bounded-load algorithm over
    a fresh [shards]-point ring and returns the migration remainder as
    [(key, src, dst)] moves. The new ring, shard count and (planned)
    loads are committed immediately — new keys place under the new
    regime — while each existing key keeps its old assignment (and its
    old routing) until {!finish_migration} flips it.
    @raise Invalid_argument if [shards < 1] or a migration is open. *)
val prepare_reshard : placement -> shards:int -> (string * int * int) list

(** Open a migration for [key]: routed writes to paths keyed by it park
    at the router until the flip. *)
val begin_migration : placement -> string -> unit

(** Freeze [key]: reads park too (the copy is being verified/retired —
    neither owner can safely serve them).
    @raise Invalid_argument if [key] is not migrating. *)
val freeze_migration : placement -> string -> unit

(** Flip [key] to [dst] and release every parked op. *)
val finish_migration : placement -> string -> dst:int -> unit

(** {2 Deployments} *)

type t

(** [start ?trace engine ~shards cfg] boots [shards] independent
    ensembles, each from [cfg] (so [shards * cfg.servers] servers in
    total), tagged [shard0..shardN-1] for per-shard trace instruments.
    @raise Invalid_argument if [shards < 1]. *)
val start : ?trace:Obs.Trace.t -> Simkit.Engine.t -> shards:int -> Ensemble.config -> t

(** Immediate-mode deployment over [shards] {!Zk_local} trees (same
    router logic, no simulation required). *)
val local : ?clock:(unit -> float) -> shards:int -> unit -> t

(** Boot [count] additional shards (same config, seeds continuing the
    [cfg.seed + i] sequence, tags [shardN..]). Existing sessions reach
    the new shards lazily; the placement does not use them until a
    {!prepare_reshard} widens the ring.
    @raise Invalid_argument if [count < 1]. *)
val add_shards : t -> int -> unit

(** A raw (un-routed) session on shard [i] — the reshard controller's
    direct line to one shard. *)
val backend_session : t -> int -> Zk_client.handle

(** [revoke_dir t ~shard dir] discards every piece of coherence state
    shard [shard] still holds for directory [dir]: armed child watches
    on [dir], armed data watches on [dir]'s immediate children
    (existing or absent), and lease interests in [dir] — each fired
    with the corresponding invalidation event. Called on the old owner
    right before an ownership flip, so clients cannot keep serving
    local reads the old shard will never again invalidate. *)
val revoke_dir : t -> shard:int -> string -> unit

(** [session t ()] opens one sub-session per current shard and returns
    the routed handle; shards added by a later reshard are opened
    lazily on first routed op. [close] closes every opened sub-session
    (per-shard ephemeral cleanup); [sync] syncs them; [session_id] is
    shard 0's. *)
val session : t -> unit -> Zk_client.handle

(** Route an explicit handle array (shard [i] = [handles.(i)]) — the
    seam fault-injection tests use to wrap individual shards. [stats]
    defaults to a fresh record. Sessions of one deployment must share
    one [placement] (and its memoized assignments). *)
val wrap :
  ?stats:stats -> placement:placement -> Zk_client.handle array ->
  Zk_client.handle

(** The raw ring a placement prefers: one point set per shard id.
    @raise Invalid_argument if [shards < 1]. *)
val make_ring : shards:int -> Consistent_hash.t

(** {2 Introspection} *)

val shard_count : t -> int
val stats : t -> stats
val placement : t -> placement

(** The shard holding [path]'s primary copy. *)
val home_shard : t -> string -> int

(** The underlying ensembles.
    @raise Invalid_argument on a {!local} deployment. *)
val ensembles : t -> Ensemble.t array

(** Per-shard znode counts (each includes that shard's own root ["/"]
    and any stubs it hosts). *)
val node_counts : t -> int array

(** Logical znode population: total nodes minus the per-shard roots and
    minus live stubs — the number a single-ensemble deployment would
    report minus its root. Exact iff no write was lost or doubled
    (including across a reshard: migration copies, retires and stub
    promotions/demotions all balance). *)
val logical_population : t -> int

val writes_committed : t -> int
val writes_committed_by_shard : t -> int array
val dedup_hits : t -> int
val dedup_hits_by_shard : t -> int array
