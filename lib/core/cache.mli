(** Client-side metadata cache — an extension exploring the trade-off the
    paper's related work discusses (§VI: client caching is usually
    disabled under concurrent update workloads because of consistency
    overhead; a coordination service makes invalidation cheap).

    [wrap] decorates a coordination handle with lease coherence. Each
    fill is stamped by the server with a lease deadline on the sim clock
    and registers one {e session-level} interest per directory, so the
    server holds no per-znode state for the cache. Within the lease an
    entry is served locally. Committed changes revoke it early through
    the session's single aggregated invalidation channel. At the
    deadline the entry silently expires.

    The deadline is also the crash contract: a replica that dies takes
    its lease table with it, so revocations for its sessions stop, and a
    cached entry may then be stale for at most the lease TTL (DESIGN.md
    §9).

    The session's own mutations evict affected paths immediately
    (read-your-own-writes), entries are bounded by an LRU of [capacity],
    and each fill is fenced by a counter that lives only while a fill of
    its path is in flight, so an invalidation that lands while a read
    reply is in flight can never be buried by the stale fill. *)

type t

(** The coherence protocol guarding cached entries. Leases are the only
    one; the type and {!wrap}'s [?coherence] argument remain so existing
    callers keep compiling, and nothing branches on the value. *)
type coherence = Leases

(** [wrap ?capacity ?coherence ~now ?metrics handle] — a caching view
    over [handle]; the returned handle shares the session with the
    original, and installs the cache's revocation callback through the
    session's [set_invalidation]. [now] is the clock lease deadlines are
    compared against: the sim clock, or whatever clock the service
    stamps deadlines with. [metrics] mirrors the expiry counter as
    [cache.lease.expired_hit]. *)
val wrap :
  ?capacity:int -> ?coherence:coherence -> now:(unit -> float) ->
  ?metrics:Obs.Metrics.t -> Zk.Zk_client.handle -> t

val handle : t -> Zk.Zk_client.handle

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val invalidations : t -> int

(** Cached entries found past their lease deadline (served as misses and
    re-leased in the refill round trip). *)
val lease_expired_hits : t -> int

(** Entries currently cached. *)
val size : t -> int

(** Entries on the LRU lists, counted by walking them: equal to {!size}
    whenever the lists and the tables agree, so at most [capacity] per
    store. Exposed so tests can assert that hit-heavy workloads do not
    grow the eviction order without bound. *)
val queue_length : t -> int

(** [lru_order t] is the cached paths of the data store and of the
    listing store, each oldest first: the next eviction is the head. *)
val lru_order : t -> string list * string list

(** Per-path fill fences currently held: one per path with a fill in
    flight, so zero between fills however many paths were invalidated. *)
val open_fences : t -> int
