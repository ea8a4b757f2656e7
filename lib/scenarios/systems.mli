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
    fresh simulation of [system] and returns per-phase throughput. Every
    call runs: an experiment that reads several phases of one point
    reads them from one result. *)
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

(** {2 Register clients}

    The fault oracles' load: [clients] processes issue a weighted mix of
    register ops with unique data values on [registers] register znodes,
    one per directory ([/d<k>/r], so a sharded deployment spreads them),
    through a {!Zk.History} recorder and routed sessions. A transport
    failure backs off; an expired session is reopened. Client [i] draws from its own stream, seeded
    [seed + (i + 1) * stride] from the ensemble seed. *)

type register_op =
  | Create
  | Set
  | Delete
  | Get
  | Exists
  | Seq_create  (** a sequential create under [/dseq] *)

type register_load = {
  clients : int;
  registers : int;
  mix : (int * register_op) list;  (** (weight, op); one draw per op *)
  stop : [ `Deadline of float | `Ops of int ];
      (** stop at a virtual time, or after that many ops per client *)
  stride : int;
  think : float;  (** mean exponential think time between ops *)
}

(** {2 One instrumented run over the DUFS stack}

    The census is sampled at the file-stat barrier (every file create
    committed, no removal begun): per-shard raw node counts, the
    router's live stub count at that instant, and
    {!Zk.Shard_router.logical_population}, which must equal
    [expected_logical_znodes] (namespace root + skeleton + files)
    exactly — a surplus is a doubled apply or a leaked stub, a deficit
    a lost write. Per-shard dedup hits and committed writes are read
    from [router] ({!Zk.Shard_router.dedup_hits_by_shard} and
    friends), and so are WAL, snapshot, recovery and transfer counters
    ({!Zk.Shard_router.ensembles}). *)

(** What a register overlay's clients did and its oracles found. *)
type register_audit = {
  ops_ok : int;  (** client ops with a determined outcome *)
  audited : int;  (** registers the durability oracle could audit *)
  durability_violations : Zk.History.violation list;
      (** acked writes lost, or unacked writes resurrected *)
  recovery_s : float;
      (** probe start → a probe write committed on every register shard;
          nan when the probe gave up after 200 attempts, 0.05 s apart *)
  replicas_agree : bool;
      (** every shard's live replicas fingerprint equal *)
}

type dufs_run = {
  results : Mdtest.Runner.results;
  router : Zk.Shard_router.t;
  trace : Obs.Trace.t;
      (** spans recorded during the run: [dufs.<op>] client root spans,
          [zk.<op>.<phase>] quorum phases, and the leaders' queue-depth,
          batch-size and queue-wait summaries, each shard's also under
          [zk.shard<i>.*]; {!Obs.Trace.null} (records nothing) on an
          untraced run *)
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
  history_undetermined : int;
  history_digest : string;
      (** {!Zk.History.digest}: equal for two runs of the same seed *)
  violations : Zk.History.violation list;  (** linearizability *)
  registers : register_audit option;  (** [None] without an overlay *)
}

(** [dufs_mdtest ~spec ~shards ~procs ()] runs the six-phase mdtest
    over a fresh [shards]-shard DUFS stack ({!build_dufs}). [procs]
    client processes share the client nodes with the ensemble (the
    co-location load factor of {!zk_config}). Every option defaults off,
    so the plain call is the exactly-comparable baseline of any variant;
    with [~shards:1] its [results] equal {!mdtest}'s for [Dufs spec]:
    - [mdtest] (default [true]): [false] runs no mdtest processes and
      builds no back-end mount, so the register overlay is the whole
      load (pass its client count as [procs]); [results] then has no
      phase and [wall] is the drained run's virtual end time, and the
      census fields are 0. A chaos point is such a run.
    - [trace]: span tracing on end to end. Tracing never sleeps or
      schedules, so throughput equals the untraced run's.
    - [plan]: a {!Faults.Faultplan} crashing and restarting servers
      (or damaging their disks) underneath the workload; it may address
      shards with the [crash=<shard>/<id>] / [crash-leader@shard=<k>]
      syntax.
    - [to_shards]: a controller spawned at the file-create barrier runs
      {!Zk.Reshard.split} (or [merge], when [to_shards < shards]) while
      every process writes; the census waits for it to finish.
    - [history_clients]: the first that many client sessions record
      through {!Zk.History} (below the DUFS client, so every routed
      coordination op the oracle can check is checked).
    - [config_adjust] tweaks the ensemble configuration (group commit,
      proposal window, shorter timeouts, seed).
    - [registers]: a register overlay. Its clients are spawned after the
      plan is armed and before mdtest starts, record through the same
      {!Zk.History} as [history_clients] and are seeded from the
      ensemble seed. A bounded probe write must commit on every
      register shard (see [probe_at]); after the run
      {!Zk.History.durability_audit} compares each register's
      home-shard leader tree against the history, and every shard's
      live replicas are compared ([registers] field of the result).
    - [probe_at]: start the overlay's probe at this virtual time (a
      fault plan's closing heal) rather than once the run has drained
      with every restart recovered. *)
val dufs_mdtest :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?mdtest:bool ->
  ?trace:bool ->
  ?plan:Faults.Faultplan.t ->
  ?history_clients:int ->
  ?to_shards:int ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  ?registers:register_load ->
  ?probe_at:float ->
  spec:dufs_spec ->
  shards:int ->
  procs:int ->
  unit ->
  dufs_run

(** Raw coordination-service throughput (Fig. 7): closed loop of [items]
    ops per client for each of the four basic operations. Returns
    [(op name, ops/sec)] in order create, get, set, delete. *)
val zk_raw : servers:int -> procs:int -> ?items:int -> unit -> (string * float) list

(** The coordination-service configuration used for all experiments:
    cost constants from {!Pfs.Costs.Zookeeper} plus the co-located-load
    inflation for [procs] client processes. [max_batch] (default 1)
    enables ZAB group commit. *)
val zk_config : ?max_batch:int -> servers:int -> procs:int -> unit -> Zk.Ensemble.config
