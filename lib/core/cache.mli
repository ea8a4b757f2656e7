(** Client-side metadata cache — an extension exploring the trade-off the
    paper's related work discusses (§VI: client caching is usually
    disabled under concurrent update workloads because of consistency
    overhead; a coordination service makes invalidation cheap).

    [wrap] decorates a coordination handle with one of two coherence
    protocols:

    {ul
    {- [Watches] (default): each fill registers a fire-once watch on the
       session's server and the event evicts the entry. Precise, but the
       server carries one registration per cached entry — O(cached
       znodes) server state.}
    {- [Leases]: each fill is stamped by the server with a lease deadline
       on the sim clock and registers one {e session-level} interest per
       directory; within the lease the entry is served locally with zero
       per-znode server state, committed changes revoke early through
       the session's single aggregated invalidation channel, and at the
       deadline the entry silently expires (the staleness bound when a
       server dies with its lease table — DESIGN.md §9).}}

    In both modes the session's own mutations evict affected paths
    immediately (read-your-own-writes), entries are bounded by an LRU of
    [capacity], and each fill is fenced by a counter that lives only
    while a fill of its path is in flight, so an invalidation that lands
    while a read reply is in flight can never be buried by the stale
    fill. Evicted or overwritten entries release
    their server-side watch, keeping the server's watch tables bounded
    by live cache contents rather than by everything ever cached. *)

type t

(** Which coherence protocol guards cached entries. *)
type coherence = Watches | Leases

(** [wrap ?capacity ?coherence ?now ?metrics handle] — a caching view
    over [handle]; the returned handle shares the session with the
    original. [now] must be the sim clock when [coherence = Leases]
    (lease deadlines are compared against it; the default constant [0.]
    never expires anything). [metrics] mirrors the release/expiry
    counters as [cache.watch.released] / [cache.lease.expired_hit]. *)
val wrap :
  ?capacity:int -> ?coherence:coherence -> ?now:(unit -> float) ->
  ?metrics:Obs.Metrics.t -> Zk.Zk_client.handle -> t

val handle : t -> Zk.Zk_client.handle

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val invalidations : t -> int

(** Server-side watch registrations this cache explicitly cancelled
    (failed fills, LRU evictions, overwrites) — the lifecycle half that
    keeps {!Zk.Ztree.watch_count} bounded. *)
val watch_releases : t -> int

(** Cached entries found past their lease deadline (served as misses and
    re-leased in the refill round trip). *)
val lease_expired_hits : t -> int

(** Entries currently cached. *)
val size : t -> int

(** Total length of the lazy-LRU eviction queues, stale pairs included.
    Bounded at ~2× capacity per store by compaction; exposed so tests can
    assert hit-heavy workloads do not grow it without bound. *)
val queue_length : t -> int

(** Per-path fill fences currently held: one per path with a fill in
    flight, so zero between fills however many paths were invalidated. *)
val open_fences : t -> int
