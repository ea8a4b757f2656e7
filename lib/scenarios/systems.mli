(** System configurations under test, mirroring §V: native Lustre, native
    PVFS2, and DUFS over N back-end mounts of either, with a ZooKeeper
    ensemble co-located with the client nodes. *)

type backend_kind = Lustre | Pvfs

type dufs_spec = {
  zk_servers : int;
  backends : int;
  backend_kind : backend_kind;
}

type system =
  | Basic_lustre
  | Basic_pvfs
  | Lustre_cmd of int
      (** hypothetical Lustre Clustered MDS with n active servers (§VI) *)
  | Dufs of dufs_spec
  | Dufs_cached of dufs_spec
      (** DUFS with the client-side metadata cache ({!Dufs.Cache}) *)

val system_label : system -> string

(** [mdtest system ~procs ()] runs the six-phase mdtest workload on a
    fresh simulation of [system] and returns per-phase throughput.
    Results are memoized on (system, procs, items, unique). *)
val mdtest :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?unique:bool ->
  system ->
  procs:int ->
  unit ->
  Mdtest.Runner.results

(** [build_dufs engine ~spec ~config ~shards ~cached] assembles the DUFS
    stack: [shards] independent ensembles, each built from [config] (so
    [shards * config.servers] coordination servers in total), behind one
    {!Zk.Shard_router} session per client process; an unsharded
    deployment is the one-shard case. Also returns the per-proc client
    factory and each back-end metadata station's (wait, hold) time
    summaries. The router stays visible so fault experiments can crash
    shards and accounting can read per-shard populations. [trace]
    (default off) threads one span trace through every shard's quorum
    phases and every client's root spans. [wrap proc] (default the
    identity) interposes on proc's routed session before its client
    mounts it. *)
val build_dufs :
  ?trace:Obs.Trace.t ->
  ?wrap:(int -> Zk.Zk_client.handle -> Zk.Zk_client.handle) ->
  Simkit.Engine.t ->
  spec:dufs_spec ->
  config:Zk.Ensemble.config ->
  shards:int ->
  cached:bool ->
  Zk.Shard_router.t
  * (int -> Fuselike.Vfs.ops)
  * (Simkit.Stat.Summary.t * Simkit.Stat.Summary.t) array

(** {2 One instrumented mdtest run over the DUFS stack}

    The census is sampled at the file-stat barrier (every file create
    committed, no removal begun): per-shard raw node counts, the
    router's live stub count at that instant, and
    {!Zk.Shard_router.logical_population}, which must equal
    [expected_logical_znodes] (namespace root + skeleton + files)
    exactly — a surplus is a doubled apply or a leaked stub, a deficit
    a lost write. Per-shard dedup hits and committed writes are read
    from [router] ({!Zk.Shard_router.dedup_hits_by_shard} and
    friends). *)

type dufs_run = {
  results : Mdtest.Runner.results;
  router : Zk.Shard_router.t;
  trace : Obs.Trace.t;
      (** spans recorded during the run: [dufs.<op>] client root spans,
          [zk.<op>.<phase>] quorum phases, leader queue/batch gauges and
          the router's [publish]ed per-shard gauges; {!Obs.Trace.null}
          (records nothing) on an untraced run *)
  backend_stations : (Simkit.Stat.Summary.t * Simkit.Stat.Summary.t) array;
      (** per back-end metadata station: (handler-queue wait, in-service
          hold) time summaries *)
  faults_fired : int;        (** fault-plan events that executed *)
  dedup_hits : int;
      (** retried writes answered exactly-once, over all shards *)
  per_shard_znodes : int array;
  live_stubs_at_stat : int;
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  reshard : Zk.Reshard.stats option;
      (** controller counters; [None] when the shard count stays *)
  reshard_window : float;
      (** sim-seconds from controller start to completion *)
  history_recorded : int;
  history_checked : int;
  violations : Zk.History.violation list;
}

(** [dufs_mdtest ~spec ~shards ~procs ()] runs the six-phase mdtest
    over a fresh [shards]-shard DUFS stack ({!build_dufs}). Not
    memoized. Every option defaults off, so the plain call is the
    exactly-comparable baseline of any variant:
    - [trace]: span tracing on end to end. Tracing never sleeps or
      schedules, so throughput equals the untraced run's.
    - [plan]: a {!Faults.Faultplan} crashing and restarting servers
      underneath the workload; it may address shards with the
      [crash=<shard>/<id>] / [crash-leader@shard=<k>] syntax.
    - [to_shards]: a controller spawned at the file-create barrier runs
      {!Zk.Reshard.split} (or [merge], when [to_shards < shards]) while
      every process writes; the census waits for it to finish.
    - [history_clients]: the first that many client sessions record
      through {!Zk.History} (below the DUFS client, so every routed
      coordination op the oracle can check is checked).
    - [config_adjust] tweaks the ensemble configuration (group commit,
      proposal window, shorter timeouts). *)
val dufs_mdtest :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?trace:bool ->
  ?plan:Faults.Faultplan.t ->
  ?history_clients:int ->
  ?to_shards:int ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  spec:dufs_spec ->
  shards:int ->
  procs:int ->
  unit ->
  dufs_run

(** {2 Chaos runs — randomized network faults + linearizability oracle}

    One seeded schedule: [clients] processes hammer [registers]
    register znodes (one per directory, so a sharded deployment spreads
    them) and a sequential-create directory through a {!Zk.History}
    recorder while a {!Faults.Faultplan.chaos} plan (or the explicit
    [?plan]) partitions, drops, delays, duplicates and crashes the
    deployment until [heal_at]; the run continues [post_heal] seconds
    of healthy traffic, a probe measures per-shard write recovery, and
    the checker searches the whole recorded history. Identical
    arguments (seed included) reproduce bit-identical histories —
    compare [digest]s. [unsafe_no_dedup] exists for the checker's
    teeth test only. *)

type chaos_run = {
  seed : int64;
  shards : int;
  recorded : int;
  checked : int;
  undetermined_ops : int;
  violations : Zk.History.violation list;
  digest : string;
  recovery_s : float;  (** heal → every probed shard committed; nan = never *)
  faults_fired : int;
  ops_ok : int;        (** client ops with a determined outcome *)
  ops_err : int;       (** transport-failed client ops (undetermined) *)
  dedup_hits : int;
  dedup_evictions : int;
  sessions_expired : int;
  writes_failed_fast : int;
  stale_reads_served : int;
  writes_committed : int;
}

val chaos_run :
  ?servers:int ->
  ?shards:int ->
  ?clients:int ->
  ?registers:int ->
  ?heal_at:float ->
  ?post_heal:float ->
  ?events:int ->
  ?think:float ->
  ?unsafe_no_dedup:bool ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  ?plan:Faults.Faultplan.t ->
  seed:int64 ->
  unit ->
  chaos_run

(** {2 Durability runs — power failures and storage corruption + oracle}

    One seeded schedule: [procs]-process mdtest runs over the full DUFS
    stack while [plan] power-fails the coordination ensemble (and
    optionally tears / bit-rots / snapshot-corrupts one member's disk
    during the outage — see the {!Faults.Faultplan} storage grammar).
    Alongside, [reg_clients] processes issue unconditioned register
    writes with unique data through a {!Zk.History} recorder; after the
    drained run a probe write proves the service recovered, the
    Wing–Gong checker validates the history, and
    {!Zk.History.durability_audit} compares the leader's recovered tree
    against it. WAL/recovery counters come from the ensemble's
    stable-storage introspection. *)

type durability_run = {
  d_seed : int64;
  d_label : string;              (** schedule flavor, for reports *)
  d_results : Mdtest.Runner.results;
  d_mdtest_errors : int;         (** VFS ops failed during the outage *)
  d_recorded : int;
  d_checked : int;
  d_undetermined : int;
  d_audited : int;               (** registers the oracle could audit *)
  d_violations : Zk.History.violation list;  (** linearizability *)
  d_durability_violations : Zk.History.violation list;
  d_digest : string;
  d_recovered : bool;            (** post-outage probe write committed *)
  d_trees_agree : bool;          (** live replicas fingerprint-equal *)
  d_faults_fired : int;
  d_reg_ok : int;
  d_reg_err : int;
  d_wal_appended : int;
  d_wal_replayed : int;
  d_wal_truncated : int;
  d_wal_tail_dropped : int;
  d_snap_loads : int;
  d_snap_fallbacks : int;
  d_recoveries : int;
  d_recovery_time_total : float;
  d_recovery_time_max : float;
  d_wal_tail_commits : int;
  d_transfer_diff_txns : int;
  d_transfer_snaps : int;
}

val durability_run :
  ?servers:int ->
  ?procs:int ->
  ?reg_clients:int ->
  ?registers:int ->
  ?ops_per_client:int ->
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?think:float ->
  plan:Faults.Faultplan.t ->
  label:string ->
  seed:int64 ->
  unit ->
  durability_run

(** Raw coordination-service throughput (Fig. 7): closed loop of [items]
    ops per client for each of the four basic operations. Returns
    [(op name, ops/sec)] in order create, get, set, delete. *)
val zk_raw : servers:int -> procs:int -> ?items:int -> unit -> (string * float) list

(** Clear the memo table (tests). *)
val reset_cache : unit -> unit

(** The coordination-service configuration used for all experiments:
    cost constants from {!Pfs.Costs.Zookeeper} plus the co-located-load
    inflation for [procs] client processes. [max_batch] (default 1)
    enables ZAB group commit. *)
val zk_config : ?max_batch:int -> servers:int -> procs:int -> unit -> Zk.Ensemble.config
