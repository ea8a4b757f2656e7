(** Per-server stable storage: a checksummed append-only transaction
    log plus periodic tree snapshots.

    The simulation's persist costs already decide {e when} an append
    reaches the platter (the [persist] sleeps on the stop-and-wait
    paths, the [persist_until] device cursor on the pipelined leader);
    this module tracks {e what} is on the platter at any instant, so
    [Ensemble.crash] can drop the un-fsynced tail and
    [Ensemble.restart] can recover locally — latest valid snapshot,
    WAL-suffix replay, truncate at the first bad checksum — before
    asking the leader for only the genuinely missing remainder.
    DESIGN.md §12 documents the record format and the crash/fsync
    semantics, including the three zero-latency durability points
    (apply marker, epoch stamp, state-transfer installs). *)

type t

(** One logged transaction, exactly the tuple the replication protocol
    carries: enough to rebuild the tree, the committed log and the
    exactly-once dedup table on replay. *)
type entry = {
  e_zxid : int64;
  e_txn : Txn.t;
  e_time : float;
  e_rsession : int64;
  e_rcxid : int64;
  e_close : int64 option;
}

val create : unit -> t

(** {2 Appending} *)

(** The checksummed payload of one record (layout in DESIGN.md §12):
    a ["W1 <epoch> <zxid> <time-bits-hex> <rsession> <rcxid> <close|->
    <n>"] header line, then one line per op. *)
val encode : epoch:int -> entry -> string

(** Append a checksummed record. [start] is when the device write was
    issued, [done_at] when it (and its fsync) completes; a power-off
    before [done_at] loses the record — torn if the write was already
    in flight, dropped entirely otherwise. The record's bytes and
    checksum are computed on first read (recovery, {!durable_zxid},
    {!corrupt}); they are the bytes [encode] gives for the entry. *)
val append : t -> epoch:int -> start:float -> done_at:float -> entry -> unit

(** The durable apply marker: recovery replays records up to it (the
    rest of the log is the uncommitted tail). Modeled as zero-latency
    (piggybacked on the device write stream). *)
val note_commit : t -> int64 -> unit

(** Durable epoch stamp (ZooKeeper's currentEpoch file). *)
val note_epoch : t -> int -> unit

val frontier : t -> int64
val epoch : t -> int

(** Latest record (if any) logged for [zxid] — recovery keeps only the
    newest per zxid (an epoch change overwrites a stale suffix). *)
val entry_at : t -> int64 -> entry option

(** Epoch under which the latest record for [zxid] was logged. *)
val epoch_at : t -> int64 -> int option

(** {2 Snapshots} *)

(** Periodic snapshot of the applied tree at [zxid]. The payload is the
    [Ztree.serialize] bytes of the tree at [zxid], suspended: it is
    forced, and its MD5 taken, only when something first reads the
    snapshot (the {!recover} ladder or {!corrupt_snapshot}); a snapshot
    nobody reads is never encoded. The suspension must not read live
    state — take the tree's image first, as in
    [let img = Ztree.capture tree in lazy (Ztree.encode img)].
    Keeps the newest two (the older is the bit-rot fallback) and prunes
    log records at or below the older one. *)
val snapshot : t -> zxid:int64 -> epoch:int -> string Lazy.t -> unit

(** Leader-installed snapshot (SNAP state transfer): supersedes the
    entire local log, ZooKeeper's TRUNC included. The payload is
    suspended as in {!snapshot}: the transfer hands over the leader's
    image, and its bytes are encoded only if something reads them. *)
val install_snapshot : t -> zxid:int64 -> epoch:int -> string Lazy.t -> unit

val last_snapshot_zxid : t -> int64

(** {2 Storage faults} *)

(** Extra device latency an fsync issued at [now] pays: the remainder
    of any disk stall plus the fail-slow surcharge. Exactly [0.] when
    no storage fault is armed, keeping the default schedule
    bit-identical. *)
val device_delay : t -> now:float -> float

(** Fail-stop pause of the WAL device for [duration] seconds from
    [now] (extends, never shortens, an ongoing stall). *)
val stall : t -> now:float -> duration:float -> unit

val stalled_until : t -> float

(** Fail-slow disk: permanently add [d] seconds to every fsync. *)
val add_fsync_delay : t -> float -> unit

val fsync_extra : t -> float

(** Tear the newest record (its checksum can never verify again).
    False if the log is empty. *)
val tear_tail : t -> bool

(** Deterministic bit-rot: flips a byte in roughly [fraction] of the
    records (selected by a hash of each record's checksum — no RNG
    draw, reproducible across runs). Returns how many records rotted. *)
val corrupt : t -> fraction:float -> int

(** Flip a byte mid-payload of the newest snapshot. False if there is
    no snapshot. *)
val corrupt_snapshot : t -> bool

(** {2 Crash and recovery} *)

(** Power-off at [now]: drop appends whose device write had not
    completed; the single in-flight write survives torn. *)
val power_off : t -> now:float -> unit

type recovered = {
  rc_snapshot : string option;
      (** payload to [Ztree.deserialize]; [None] = cold start *)
  rc_snap_zxid : int64;
  rc_replay : entry list;
      (** committed records in (snapshot, frontier], ascending and
          contiguous — rebuilds tree, log and dedup table *)
  rc_tail : entry list;
      (** readable records beyond the frontier: persisted but not known
          committed. Discarded when a live leader resyncs the server;
          after a whole-cluster power failure the recovery election's
          winner commits its tail (ZAB: the leader's log is history). *)
  rc_log_end : int * int64;
      (** (epoch, zxid) of the last readable record — the recovery
          election compares log ends ZAB-style, epoch first *)
  rc_truncated : int;  (** records lost to torn tails / bad checksums *)
  rc_replayed : int;
  rc_loaded_snapshot : bool;
  rc_snap_fallback : bool;
      (** newest snapshot failed its checksum; an older one was used *)
}

(** Read the disk back: truncate the log at the first unreadable
    record, resolve zxid rewinds (newest record per zxid wins), pick
    the newest checksum-valid snapshot (falling back to the older one,
    then to a cold start) and split the readable log into the committed
    replay prefix and the uncommitted tail. *)
val recover : t -> recovered

(** {2 Introspection} *)

val records : t -> int
val snapshots : t -> int
val appended : t -> int
val replayed : t -> int
val truncated : t -> int
val tail_dropped : t -> int
val snap_loads : t -> int
val snap_fallbacks : t -> int

(** Deferred snapshot payloads ({!snapshot}) materialised so far. A
    fault-free run reads no snapshot, so this stays 0. *)
val snap_encodes : t -> int

(** Highest zxid that would survive a power failure at [now]: its
    record's device write has completed and still verifies. *)
val durable_zxid : t -> now:float -> int64
