(** Lustre Clustered Metadata (CMD) simulator — the design the paper
    contrasts DUFS against (§I, §VI).

    CMD shards the namespace over several active metadata servers by
    hashing the parent directory. Reads and single-server updates go to
    one MDS, but an update whose parent directory and new object land on
    *different* servers must update both atomically; per the CMD design
    notes the paper cites, a global lock serializes those cross-server
    updates so a failed server can be rolled back consistently. That lock
    is exactly the bottleneck the paper predicts ("this might hurt the
    throughput of metadata operations") and what this simulator lets the
    `ablation-cmd` experiment measure against DUFS.

    Namespace semantics are full POSIX (shared in-memory tree); the
    sharding and locking only affect timing. *)

type config = {
  net_latency : float;
  mds_count : int;          (** active metadata servers *)
  mds_threads : int;
  local_update_service : float;   (** single-server mutation *)
  remote_update_service : float;  (** extra work on the second server *)
  lookup_service : float;         (** getattr / readdir *)
  global_lock_hold : float;
      (** time the global lock is held per cross-server update
          (lock grant + 2-phase update + release) *)
  cross_ratio : float;
      (** fraction of mutations whose object lands on a different server
          than its parent entry (hash independence makes this
          ≈ (mds_count-1)/mds_count) — computed, not configured, when
          negative *)
  thrash : float;
}

val default_config : mds_count:int -> config

type t

val create : Simkit.Engine.t -> ?config:config -> unit -> t
val client : t -> client_id:int -> Fuselike.Vfs.ops
val local_ops : t -> Fuselike.Vfs.ops

(** Cross-server updates that took the global lock. *)
val global_lock_acquisitions : t -> int
