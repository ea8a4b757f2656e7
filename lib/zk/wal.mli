(** Per-server stable storage: a checksummed append-only transaction
    log plus periodic tree snapshots, modeled by their fault marks: a
    record or snapshot verifies iff it is neither torn nor rotted, so
    no byte is built to find out.

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
    in flight, dropped entirely otherwise. The record's bytes would be
    [encode] of the entry; the log keeps the entry and its fault marks,
    and builds no bytes. *)
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

(** Periodic snapshot of the applied tree at [zxid]: its image
    ([Ztree.capture], immutable), whose bytes would be
    [Ztree.encode] of it. Keeps the newest two (the older is the
    bit-rot fallback) and prunes log records at or below the older
    one. *)
val snapshot : t -> zxid:int64 -> epoch:int -> Ztree.image -> unit

(** Leader-installed snapshot (SNAP state transfer) of the leader's
    image: supersedes the entire local log, ZooKeeper's TRUNC
    included. *)
val install_snapshot : t -> zxid:int64 -> epoch:int -> Ztree.image -> unit

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

(** Tear the newest record (it can never verify again). False if the
    log is empty. *)
val tear_tail : t -> bool

(** Deterministic bit-rot: flips a byte in roughly [fraction] of the
    records (selected by a hash of the MD5 of each record's [encode] —
    no RNG draw, reproducible across runs). Flipping a rotted record's
    byte again restores it, so a second rot heals the record. Returns
    how many records were flipped. *)
val corrupt : t -> fraction:float -> int

(** Flip a byte mid-payload of the newest snapshot (a second flip
    restores it). False if there is no snapshot. *)
val corrupt_snapshot : t -> bool

(** {2 Crash and recovery} *)

(** Power-off at [now]: drop appends whose device write had not
    completed; the single in-flight write survives torn. *)
val power_off : t -> now:float -> unit

type recovered = {
  rc_snapshot : Ztree.image option;
      (** image to [Ztree.restore]; [None] = cold start *)
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

(** Highest zxid that would survive a power failure at [now]: its
    record's device write has completed and still verifies. *)
val durable_zxid : t -> now:float -> int64
