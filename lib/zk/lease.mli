(** Server-side lease tables for time-bounded client cache coherence.

    The per-znode watch protocol costs one server-side registration per
    cached entry — O(cached znodes) server state, fatal at 10k+ sessions.
    A lease instead registers one *session-level interest per directory*
    a session is actively reading under: the table is
    O(sessions x working directories), and every lease read implicitly
    refreshes the interest, so there is no separate subscribe/renew
    traffic and the table self-cleans as deadlines pass (lazy purge — no
    sweeper process, no timer events).

    Coherence contract: while an interest is live, any committed change
    to a path in that directory is pushed synchronously through the
    session's notify callback (zero-latency, same channel semantics as
    watches — sequentially consistent fault-free). If the serving replica
    crashes, its lease table is lost with its RAM and clients can serve
    stale reads for at most the lease TTL; that TTL is the protocol's
    staleness bound (DESIGN.md §9). *)

type t

(** One early revocation pushed to a session: [kind] of change at [path],
    [path]'s parent directory, and each path's {!Zpath.hash}. The server
    derives these once per event, so none of the sessions it revokes
    derives them again. *)
type revocation = {
  kind : Ztree.event_kind;
  path : string;
  path_hash : int;
  parent : string;
  parent_hash : int;
}

(** [create ~now ~ttl] — [now] is the sim clock; [ttl] the lease duration
    in virtual seconds. *)
val create : now:(unit -> float) -> ttl:float -> t

(** [grant t ~session ~dir ~notify] records (or refreshes) [session]'s
    interest in directory [dir] and returns the new deadline
    [now () +. ttl]. Counted as a renewal when a live interest existed,
    as a grant otherwise. [notify] must be stable per session — the
    latest registration wins only for brand-new interests; renewals keep
    the existing callback. *)
val grant :
  t -> session:int64 -> dir:string -> notify:(revocation -> unit) ->
  float

(** [revoke_txn t txn results] pushes revocations for one successfully
    applied transaction: each mutation notifies live interests in the
    touched path's parent directory (entry fills) and in the path itself
    (listing fills). Call with the op list and the matching
    {!Txn.result_item} list from {!Ztree.apply}. *)
val revoke_txn : t -> Txn.t -> Txn.result_item list -> unit

(** [revoke_dir t ~children dir] notifies and drops every live interest
    in [dir] — the ownership-flip revocation: after a reshard moves
    [dir] to another shard, nothing on this server will ever again
    invalidate entries cached under it, so the interests must not
    outlive the flip. Each live interest receives one
    [Node_data_changed] per path in [children] (the caller enumerates
    [dir]'s children from its tree; the table only knows directories)
    so per-entry caches drop child data too, then [Node_children_changed]
    on [dir] for the listing. Negative entries for absent children
    cannot be enumerated and stay TTL-bounded. Expired interests are
    purged silently. Returns the number of interests notified. *)
val revoke_dir : t -> ?children:string list -> string -> int

(** Remove every interest held by [session] (session close/expiry). *)
val drop_session : t -> int64 -> unit

(** Drop the whole table — a server crash loses its RAM. *)
val clear : t -> unit

(** Live + not-yet-purged interest entries — the server-state figure the
    sessions bench tracks against {!Ztree.watch_count}. *)
val entries : t -> int

(** {2 Counters} *)

val granted : t -> int
val renewed : t -> int
val revoked : t -> int

(** Interests observed past their deadline (purged lazily or re-granted). *)
val expired : t -> int
