(** A replicated coordination-service ensemble running on the simulator.

    [start] spawns one server process per replica. Writes follow the ZAB
    discipline: the session's server forwards to the leader, the leader
    assigns a zxid, persists, and broadcasts a proposal; followers persist
    and ack; the leader commits once a majority (of the configured
    ensemble) has acked, applies in zxid order, and routes the reply back
    through the session's server *after that server has applied the
    commit* — which yields ZooKeeper's read-your-own-writes session
    guarantee. Reads are served locally by the session's server.

    With [max_batch > 1] the leader group-commits: consecutive queued
    writes share one persist and one proposal/ack/commit round, while
    per-txn results still reach each caller in submission order.

    All traffic — server↔server and client↔server — crosses a
    {!Simkit.Net} instance owned by the ensemble, so partitions, loss,
    extra delay and duplication can be injected underneath the protocol
    (see the fault-state controls below). The protocol repairs loss:
    followers detect commit/proposal gaps and fetch the missing entries
    from the leader, a retried write re-proposes its stalled zxid, acks
    are deduplicated per server, and a reply that overtook its commit on
    a lossy link is held at the origin server until the apply catches up
    — preserving read-your-own-writes under message loss.

    All {!Zk_client.handle} calls must run inside a simulation process. *)

type config = {
  servers : int;            (** voting ensemble size *)
  observers : int;
      (** non-voting replicas (ZooKeeper observers): they receive and
          apply every commit and serve reads, but never ack proposals —
          so they add read capacity without raising the write cost *)
  net_latency : float;      (** one-way message latency, seconds *)
  rpc_cpu : float;          (** server CPU per message sent/forwarded *)
  read_service : float;     (** server CPU per read *)
  write_service : float;    (** leader CPU per create request *)
  delete_service : float;   (** leader CPU per delete (locate + unlink + watch sweep) *)
  set_service : float;      (** leader CPU per setData *)
  persist : float;          (** txn-log append (leader and followers) *)
  follower_apply : float;   (** follower CPU to apply a commit *)
  election_timeout : float; (** failure detection + election duration *)
  request_timeout : float;  (** client-side retry deadline *)
  load_factor : float;
      (** service-time inflation from co-located client processes
          (1.0 = dedicated servers); see {!Pfs.Costs} notes. *)
  max_batch : int;
      (** group commit: when the leader dequeues a write it drains up to
          [max_batch - 1] further queued writes and pays [persist] plus
          the follower fan-out once for the whole batch, while every txn
          keeps its own zxid, result and reply. [1] (the default) is the
          classic one-txn-per-round ZAB pipeline. *)
  seed : int64;
      (** seeds the ensemble's network and the per-session retry-jitter
          streams; identical seeds reproduce identical schedules *)
  retry_backoff : float;
      (** base for capped exponential backoff (with full jitter) between
          client retry attempts; [0.] (the default) retries immediately *)
  retry_backoff_cap : float;  (** upper bound on one backoff sleep, seconds *)
  session_timeout : float;
      (** a session whose requests have all failed for this long is
          declared expired: its ops return ZSESSIONEXPIRED and a
          best-effort close reaps its ephemerals *)
  stale_read_after : float;
      (** a follower that has not heard from its leader for this long
          considers its reads stale; [infinity] (the default) disables
          the check *)
  serve_stale_reads : bool;
      (** what a stale follower does with a read: [true] serves it and
          counts it ({!stale_reads_served}); [false] refuses it with
          ZCONNECTIONLOSS *)
  fail_fast_after : float;
      (** leader-side graceful degradation under quorum loss: with
          pending writes and no commit for this long, new writes are
          refused immediately with ZCONNECTIONLOSS instead of queueing;
          [infinity] (the default) queues forever *)
  unsafe_no_dedup : bool;
      (** disables the exactly-once dedup filter. Exists only so tests
          can prove the linearizability checker catches the resulting
          double-applies; never enable it otherwise. *)
  lease_ttl : float;
      (** duration (virtual seconds) of the leases granted by the
          handle's [lease_*] reads: within it a client may serve the
          read locally; committed changes revoke early through the
          session's invalidation channel, and the TTL bounds staleness
          when the serving replica (and its lease table) is lost *)
  max_inflight_batches : int;
      (** proposal pipelining: with [n > 1] the leader runs a dedicated
          proposer process that keeps up to [n] Propose rounds
          outstanding, overlaps its own txn-log append with the
          follower fan-out (its vote counts only once the append
          lands), piggybacks the commit frontier on later proposals and
          replies instead of separate Commit rounds while the pipeline
          is busy, and coalesces queued writes into open batches (up to
          [max_batch]) for exactly as long as the window is full.
          Commits still apply strictly in
          zxid order. [1] (the default) is the classic stop-and-wait
          leader, bit-for-bit: no proposer process is spawned and every
          event fires exactly as without the pipeline. *)
  snapshot_every : int;
      (** snapshot cadence of the stable-storage model: each replica
          serializes its tree into {!Zk.Wal} storage every
          [snapshot_every] applied transactions (keeping the newest two
          snapshots and pruning the log below the older one), bounding
          both WAL replay length and log growth on recovery. [<= 0]
          disables snapshots: recovery replays the whole log. *)
}

val default_config : servers:int -> config

type t

(** [start ?trace engine cfg] boots the ensemble. When [trace] is enabled
    the write path stamps each request's {!Obs.Trace.wspan} as it crosses
    the quorum phases (queue-wait, propose, persist, ack, commit) and the
    leader observes queue depth and batch size per group commit; spans
    land under [zk.<op>.<phase>] in the trace's metrics registry. Tracing
    is pure accumulator bookkeeping — it never sleeps or schedules, so a
    traced run's simulated clock is identical to an untraced run's.
    A [tag] (e.g. ["shard2"]) makes the ensemble additionally record its
    leader gauges and per-write queue wait under [zk.<tag>.*], so a
    sharded deployment's per-shard balance shows up in the same trace. *)
val start : ?trace:Obs.Trace.t -> ?tag:string -> Simkit.Engine.t -> config -> t

val config : t -> config
val trace : t -> Obs.Trace.t

(** The ensemble's fault-injectable network (for counters and tests;
    prefer the wrappers below for fault control). *)
val net : t -> Simkit.Net.t

(** [session t ()] opens a session, assigned round-robin (or to [server]).
    Handle calls must be made from inside a simulation process. *)
val session : t -> ?server:int -> unit -> Zk_client.handle

(** {2 Failure injection} *)

(** [crash t id] stops server [id] immediately: its in-flight work,
    un-replied requests and queued inbox messages are lost (the mailbox
    is flushed — the network does not buffer across a reboot), and its
    disk keeps only what the WAL device finished — appends whose fsync
    had not completed are gone and the in-flight record is torn
    ({!Wal.power_off}). If [id] was the leader, an election is arranged
    after [election_timeout]. *)
val crash : t -> int -> unit

(** [restart t id] brings a crashed server back as a follower. It first
    recovers locally from stable storage — newest valid snapshot, WAL
    suffix replay, truncating at the first bad checksum — then
    diff-syncs only the genuinely missing remainder from a live leader.
    With no live leader, the riser parks until a quorum of voters is
    back, at which point a ZAB-style recovery election over durable
    (epoch, zxid) log ends crowns a leader and commits its readable
    uncommitted tail — making a whole-cluster power failure
    survivable. *)
val restart : t -> int -> unit

(** {2 Storage fault state}

    Per-member WAL-device faults; all are exactly inert until armed, so
    fault-free schedules replay bit-identically. *)

(** Tear server [id]'s newest WAL record: its checksum can never verify
    again, so recovery truncates there. *)
val tear_wal_tail : t -> int -> unit

(** Deterministic bit-rot over server [id]'s WAL: flips a byte in
    roughly [fraction] of the records (hash-selected — no RNG draw). *)
val corrupt_wal : t -> int -> fraction:float -> unit

(** Corrupt server [id]'s newest snapshot; recovery falls back to the
    previous snapshot, then to a cold start plus leader transfer. *)
val corrupt_snapshot : t -> int -> unit

(** Fail-stop pause of server [id]'s WAL device: fsyncs issued during
    the stall wait for its end (extends any ongoing stall). *)
val disk_stall : t -> int -> duration:float -> unit

(** Fail-slow disk on server [id]: permanently adds [d] seconds to
    every fsync. *)
val add_fsync_delay : t -> int -> float -> unit

(** {2 Network fault state}

    These manipulate the ensemble's {!Simkit.Net} in terms of member
    ids; client sessions ride on their home server's partition side. *)

(** [partition t groups] installs a symmetric partition between the
    listed groups of member ids; members not named form one implicit
    extra group (so [partition t [[0; 1]]] cuts servers 0–1 and their
    clients off from the rest). Replaces any previous partition. *)
val partition : t -> int list list -> unit

(** Block messages from [from]'s side to [to_]'s side only. *)
val partition_oneway : t -> from:int -> to_:int -> unit

(** Remove the partition and all one-way blocks (probabilistic faults
    are separate knobs). *)
val heal : t -> unit

val set_drop : t -> float -> unit
val set_extra_delay : t -> float -> unit
val set_duplicate : t -> float -> unit
val set_reorder : t -> p:float -> window:float -> unit

val leader_id : t -> int option

val alive_ids : t -> int list

(** Every member id, voters then observers, alive or not. *)
val member_ids : t -> int list

(** {2 Introspection (tests, benches)} *)

val tree_of : t -> int -> Ztree.t
val server_resident_bytes : t -> int -> int

(** Committed-write and read counters per server, for load checks. *)
val reads_served : t -> int -> int

val writes_committed : t -> int

(** Standalone Commit_batch rounds the leader fanned out, and commit
    rounds whose fan-out was suppressed because the frontier rode out
    piggybacked on a queued proposal instead ([max_inflight_batches >
    1] only — the stop-and-wait path always fans out). *)
val commit_fanouts : t -> int

val piggybacked_commits : t -> int

(** Retried writes answered from the dedup table instead of re-applied.
    Every session stamps each write with a session-scoped request id
    (ZooKeeper's session + cxid) and reuses it across timeout retries;
    the leader remembers the result of every applied transaction, so a
    retry of a write that actually committed — the classic
    timeout-during-failover window — returns the original result
    exactly once instead of failing with ZNODEEXISTS/ZNONODE or, worse,
    applying twice. *)
val dedup_hits : t -> int

(** Dedup-table entries evicted because their session closed or expired
    (counted on the leader): the bound that keeps long chaos runs from
    growing leader state without limit. *)
val dedup_evictions : t -> int

(** [dedup_cxids t id ~session] — the cxids of [session]'s writes that
    member [id]'s dedup table still answers for, ascending. A closed
    session keeps only its close's cxid. *)
val dedup_cxids : t -> int -> session:int64 -> int64 list

(** Reads served by a follower that had not heard from its leader for
    [stale_read_after] (with [serve_stale_reads = true]). *)
val stale_reads_served : t -> int

(** Writes refused immediately by a stalled leader ([fail_fast_after]). *)
val writes_failed_fast : t -> int

(** Sessions declared expired after [session_timeout] of solid failure. *)
val sessions_expired : t -> int

(** {2 Lease / watch-table introspection}

    The sessions bench's server-state argument: with watch coherence the
    per-server watch table grows O(cached znodes); with lease coherence
    the lease table stays O(sessions × working directories). *)

(** Live + not-yet-purged lease interests on server [id]. *)
val lease_entries : t -> int -> int

(** Armed fire-once watch registrations on server [id]'s tree. *)
val watch_table_size : t -> int -> int

(** Ensemble-wide lease counters (summed over members). A read that
    refreshes a live interest counts as renewed, not granted; revoked
    counts early invalidations pushed to clients; expired counts
    interests observed past their deadline. *)
val leases_granted : t -> int

val leases_renewed : t -> int
val leases_revoked : t -> int

(** [revoke_dir t dir] fires, on every live member, the coherence state
    still parked on [dir]: armed child watches on [dir], data watches on
    its immediate children (present or absent), and lease interests in
    [dir]. The ownership-flip step of online resharding — after [dir]
    migrates to another shard, no write on this ensemble will ever again
    invalidate entries cached under it. *)
val revoke_dir : t -> string -> unit

(** {2 Stable-storage introspection}

    Ensemble-wide sums over the members' {!Zk.Wal} counters, plus
    recovery accounting, for the durability experiment and tests. *)

val wal_appended : t -> int
val wal_replayed : t -> int

(** Records lost to torn tails or failed checksums across recoveries. *)
val wal_truncated : t -> int

(** Un-fsynced appends dropped outright by power-offs. *)
val wal_tail_dropped : t -> int

val snap_loads : t -> int

(** Recoveries whose newest snapshot failed its checksum and fell back
    to the older one. *)
val snap_fallbacks : t -> int

val wal_snapshots : t -> int -> int

(** Highest zxid on server [id] that would survive a power failure at
    the current instant. *)
val durable_zxid : t -> int -> int64

(** Local recoveries run (one per [restart]). *)
val recoveries : t -> int

(** Modeled recovery time (snapshot load + WAL replay at the configured
    device/apply costs), summed / worst-case per restart. *)
val recovery_time_total : t -> float

val recovery_time_max : t -> float

(** Uncommitted-tail transactions committed by power-failure recovery
    elections (the winner's log becomes history). *)
val wal_tail_commits : t -> int

(** Transactions shipped by leader diff-syncs, and whole-snapshot (SNAP)
    transfers — the gate asserts recovery stays mostly local (diff txns
    shipped < records replayed from local WALs). *)
val transfer_diff_txns : t -> int

val transfer_snaps : t -> int
