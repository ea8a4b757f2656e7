(** One driver per table/figure of the paper's evaluation (§V), plus the
    extension ablations, each declared once in {!Experiments.table}.
    Every driver reduces each run to {!Mdtest.Report.bench_point}s as it
    finishes, prints its figures or tables from those points and
    returns them with its check failures (empty = pass); only
    {!Experiments.run} writes a BENCH file and gates a run. A figure
    plots one experiment's ops/s by procs, one series per config, as the
    paper does; a table prints one row per point. Each gated
    experiment's [*_check] is a pure function of its points, so tests
    exercise a gate without running the experiment. *)

(** {2 The paper's figures and headline}

    Each runs its (system, procs) points once and keeps one point per
    plotted op or phase: Fig. 7 one [zoo_<op>] point per ensemble size
    (config ["<n> zk server(s)"]), Figs. 8-10 one [mdtest-<phase>]
    point per system (config: its series label). *)

(** Fig. 7 — raw ZooKeeper op throughput vs ensemble size, at
    [procs_list] (default 16/64/128/256). *)
val fig7 :
  ?procs_list:int list -> unit -> Mdtest.Report.bench_point list * string list

(** Fig. 8 — DUFS vs #ZooKeeper servers (2 Lustre back-ends). *)
val fig8 : unit -> Mdtest.Report.bench_point list * string list

(** Fig. 9 — DUFS with 2 vs 4 Lustre back-ends (file ops). *)
val fig9 : unit -> Mdtest.Report.bench_point list * string list

(** Fig. 10 — DUFS vs Basic Lustre and Basic PVFS2, 6 ops. *)
val fig10 : unit -> Mdtest.Report.bench_point list * string list

(** Over [headline] points: every [ratio] phase is > 1 and within
    [[0.7x, 1.3x]] of the point's [paper] phase. *)
val headline_check : Mdtest.Report.bench_point list -> string list

(** §V-D: DUFS over 2 Lustre / 2 PVFS back-ends vs the native file
    system at 256 procs, one [headline] point per dir-create and
    file-stat ratio (paper 1.9, 23, 1.3, 3.0; config: the printed
    label), and the failures of {!headline_check}. *)
val headline : unit -> Mdtest.Report.bench_point list * string list

(** Fig. 11 — memory usage vs created directories: one [fig11] point
    per size in [millions] (default 0.5 to 2.5), its phases [millions],
    [zookeeper_mib], [dufs_mib] and [fuse_mib]. *)
val fig11 :
  ?millions:float list -> unit -> Mdtest.Report.bench_point list * string list

(** {2 Extension ablations}

    Each prints its table from its points, one row per point, and
    returns them with the failures of its pure [*_check] (empty =
    pass), which reads only points. *)

(** Over one [ablation-mapping] point per strategy (config) and [n], with
    phases [n], [imbalance] and [relocated_pct] (growing [n] -> [n + 1]
    back-ends): MD5 mod N relocates >= 95·n/(n+1)%, consistent hashing
    <= 150/(n+1)% and less than MD5 mod N; both imbalances <= 1.3. *)
val ablation_mapping_check : Mdtest.Report.bench_point list -> string list

(** MD5-mod-N vs consistent hashing over 200k FIDs at N = 2, 4, 8. *)
val ablation_mapping : unit -> Mdtest.Report.bench_point list * string list

(** Over the sweep's [mdtest-dir-create] and [mdtest-dir-stat] points
    (configs: the {!Systems.system_label}s of Basic Lustre, CMD 2, CMD 4
    and DUFS 2xLustre/8zk): at every procs count dir-stat ranks CMD 4 >
    CMD 2 > Basic Lustre, dir-create the reverse; DUFS beats both
    CMDs. *)
val ablation_cmd_check : Mdtest.Report.bench_point list -> string list

(** DUFS vs a hypothetical Lustre Clustered MDS (CMD, §VI): the global
    lock serializing cross-server updates vs ZooKeeper's ordered
    broadcast, dir-create and dir-stat at 64–256 procs. *)
val ablation_cmd : unit -> Mdtest.Report.bench_point list * string list

(** Over one [ablation-unique] point per system (config: its label) and
    mode ([unique] 1 under -u), with [dir-create] and [file-create]
    ops/s: Lustre's unique/shared ratio >= 1.10, DUFS's within ±2%. *)
val ablation_unique_check : Mdtest.Report.bench_point list -> string list

(** Shared vs unique working directories (mdtest -u) at 256 procs:
    isolates the DLM lock-contention part of Lustre's decline. *)
val ablation_unique : unit -> Mdtest.Report.bench_point list * string list

(** Over one [ablation-async] point per clients count (procs) and window
    (config [window=<w>]), with [creates]/s: at 1 client window 16 >=
    2.5× window 1 and window 4 >= window 1; at 8 clients windows 1, 4
    and 16 are within 2%. *)
val ablation_async_check : Mdtest.Report.bench_point list -> string list

(** Synchronous vs pipelined (async) coordination API: what the paper's
    prototype left on the table by using the synchronous API. *)
val ablation_async : unit -> Mdtest.Report.bench_point list * string list

(** Over [ablation-cache-mdtest] points (config: the phase) and
    [ablation-cache-hot] points (procs: the hot loop's), each with
    [uncached] and [cached] ops/s: every mdtest point's within ±2% of
    each other (a scan-once workload must gain and lose nothing), every
    hot point's [speedup] at least 20×. *)
val ablation_cache_check : Mdtest.Report.bench_point list -> string list

(** DUFS with vs without the client-side (lease) metadata cache: mdtest
    dir-stat/dir-create at [procs] (default 256) with [items] dirs and
    files per proc (default 60), and the hot-entry stat loop at each of
    [hot_procs] (default [[64; 256]]). *)
val ablation_cache :
  ?procs:int ->
  ?items:int ->
  ?hot_procs:int list ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** Over one [ablation-giga] point per system, with single-directory
    creates/s per ["<procs> procs"] phase, and the
    [ablation-giga-availability] point: at every procs count GIGA+ 8
    servers >= 4 servers >= 10× the better of DUFS and Lustre; 0 <
    [available] < 1. *)
val ablation_giga_check : Mdtest.Report.bench_point list -> string list

(** GIGA+-style directory indexing vs DUFS vs Lustre on one huge
    directory, and the availability cost of unreplicated partitions. *)
val ablation_giga : unit -> Mdtest.Report.bench_point list * string list

(** Over the [ablation-observers] points of 3 voters, 7 voters and 3
    voters + 4 observers (configs), with [creates] and [gets]/s: the
    observers keep >= 0.95× the gets/s of 7 voters and the creates/s of
    3 voters; 7 voters create more slowly than 3. *)
val ablation_observers_check : Mdtest.Report.bench_point list -> string list

(** Non-voting observers: read scaling without write cost. *)
val ablation_observers : unit -> Mdtest.Report.bench_point list * string list

(** {2 The failure path — mdtest under declarative fault schedules} *)

val fault_plans : (string * string) list
(** Named {!Faults.Faultplan} schedules exercised by the benchmark:
    sub-quorum leader loss with delayed recovery, and rolling follower
    crash/restart. Parseable with {!Faults.Faultplan.parse}. *)

(** The faults gate, per [(label, points)] run: its [faults-accounting]
    point has no client errors, an exact logical census, every event of
    its plan fired, and dedup hits if the plan is non-empty. *)
val faults_check : (string * Mdtest.Report.bench_point list) list -> string list

(** Run the fault-free baseline and each of {!fault_plans} at [procs]
    processes (default 64) with [items] dirs and files each (default
    60), and print per-phase rates plus the exactly-once invariants.
    Each run keeps one rate-only [mdtest-<phase>] point per phase and a
    [faults-accounting] point ([client_errors], [dedup_hits],
    [faults_fired], [plan_events], [expected_logical], [logical]);
    returns them (the BENCH_pr2.json artifact) and the failures of
    {!faults_check}. *)
val faults :
  ?procs:int -> ?items:int -> unit -> Mdtest.Report.bench_point list * string list

(** The DUFS stack every profile run traces: 2 Lustre back-ends, 8
    coordination servers. *)
val profile_spec : Systems.dufs_spec

(** [profile ()] runs mdtest with span tracing on at each scale in
    [procs_list] (default 64/128/256) and prints, per scale: client op
    latency percentiles (p50/p95/p99 per op type), the quorum-phase
    critical-path breakdown of each coordination write kind (with its
    coverage against the measured op latency), read latency, leader
    queue/batch distributions, and each back-end MDS station's
    wait-vs-service split. Each run keeps its [mdtest-<phase>] points
    (latency block), [zk-<op>-breakdown] points (quorum-phase means) and
    a [profile-accounting] point ([zk.read.*] and each summary's
    [<name>.count/.mean/.max]). Returns them (the BENCH_pr3.json
    artifact) and the failures of {!profile_check}. *)
val profile :
  ?procs_list:int list -> unit -> Mdtest.Report.bench_point list * string list

(** The profile gate, per [(procs, points)] run: every
    [zk-<op>-breakdown] point's quorum phases finite, non-negative, and
    summing to within 5% of its mean latency. *)
val profile_check : (int * Mdtest.Report.bench_point list) list -> string list

(** {2 Sharded coordination — N independent ZAB leaders}

    mdtest over {!Zk.Shard_router} deployments at a constant total
    server count (8) and constant back-end count (8 Lustre): one
    8-server ensemble vs 2x4 vs 4x2 shards, unbatched and batched.
    Every run is span-traced, so the same run yields throughput, the
    create queue-wait breakdown, per-shard queue-wait/balance, and the
    per-shard znode accounting. Each run keeps its [mdtest-*] points
    with latency blocks, its [zk-create-breakdown] point and a
    [sharding-znode-accounting] point: its [shards] block records the
    per-shard balance, its [logical] and [expected_logical] phases the
    census ([expected_logical] and [live_stubs] also ride in the config
    string). Returns them (the BENCH_pr4.json points) and the failures
    of {!sharding_check}. *)
val sharding :
  ?procs_list:int list ->
  ?topologies:(int * int) list ->
  ?batches:int list ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** The sharding gate, per [((shards, servers, max_batch, procs),
    points)] run: the logical znode census exact, and every shard
    committed writes. *)
val sharding_check :
  ((int * int * int * int) * Mdtest.Report.bench_point list) list -> string list

(** {2 Chaos — randomized network fault schedules + linearizability
    oracle} *)

(** A chaos sweep's shape: [clients] register clients (a mix of
    creates, sets, deletes, reads and sequential creates, [think] mean
    seconds apart) on [registers] registers over [servers]-server
    ensembles; a seeded {!Faults.Faultplan.chaos} plan of [events] fault
    events from 1 s heals at [heal_at], and the clients stop
    [post_heal] seconds later. *)
type chaos_shape = {
  servers : int;
  clients : int;
  registers : int;
  heal_at : float;
  post_heal : float;
  events : int;
  think : float;
}

(** The full sweep's shape: 5 servers, 8 clients, 6 registers, heal at
    15 s, 10 s after it, 12 fault events, 50 ms think time. *)
val chaos_shape : chaos_shape

(** One chaos point: a {!Systems.dufs_mdtest} run with no mdtest whose
    whole load is [shape]'s register overlay, over [shards] shards with
    short timeouts and stale reads served, while [plan] (default: the
    seeded chaos plan of [shape]) runs underneath. The probe starts at
    [heal_at], so the audit's [recovery_s] is heal → every register
    shard committed a write. [config_adjust] applies after the chaos
    settings. Identical arguments reproduce bit-identical histories. *)
val chaos_point :
  ?shape:chaos_shape ->
  ?config_adjust:(Zk.Ensemble.config -> Zk.Ensemble.config) ->
  ?plan:Faults.Faultplan.t ->
  shards:int ->
  seed:int64 ->
  unit ->
  Systems.dufs_run

(** A chaos run, keyed [(shards, seed)], reduced to its [chaos] bench
    point, the one record of the run: oracle violations, ops checked,
    [recovery_s] ([-1] if the run never recovered) and the shards'
    counters; ops/s over [shape]'s [heal_at + post_heal] seconds. *)
val chaos_reduce :
  shape:chaos_shape -> int * int64 -> Systems.dufs_run -> Mdtest.Report.bench_point

(** [chaos ()] runs one {!chaos_point} per [(shards, seed)] entry of
    [runs] (default: 12 single-shard + 8 four-shard schedules) at
    [shape] (default {!chaos_shape}), reduces each run by
    {!chaos_reduce} and prints its row from that point, re-runs the
    first schedule to prove bit-identical history digests, and prints
    the {!chaos_summary} totals. Returns those points (the
    BENCH_pr5.json artifact) and the failures of {!chaos_check}. *)
val chaos :
  ?runs:(int * int64) list ->
  ?shape:chaos_shape ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** The chaos gate over {!chaos_reduce} points: every run has a
    non-empty history, no linearizability or durability-oracle
    violation and a recovery after the closing heal, and the re-run of
    the first schedule was [deterministic]. *)
val chaos_check :
  deterministic:bool -> ((int * int64) * Mdtest.Report.bench_point) list -> string list

(** The [chaos-summary] point over {!chaos_reduce} points: totals, and
    recovery percentiles and [runs_recovered] over the runs that
    recovered ([-1] percentiles when none did). *)
val chaos_summary :
  shape:chaos_shape ->
  deterministic:bool ->
  ((int * int64) * Mdtest.Report.bench_point) list ->
  Mdtest.Report.bench_point

(** {2 Elastic resharding — live shard split/merge under mdtest}

    At each process count: the no-split 2-shard baseline, the live
    2->4 split fired at the file-create barrier, and (at the smallest
    process count) a 4->2 merge — all through
    {!Systems.dufs_mdtest}, with the linearizability oracle on a
    slice of the client sessions. Returns the BENCH_pr8.json points and
    the failures of {!reshard_check}. Each run keeps its [mdtest-*]
    points and a [reshard-accounting] point whose phases carry its
    census, keys, stubs, violations, history counts, window, errors and
    [controller_finished] (1 when the controller ran to completion). *)
val reshard :
  ?procs_list:int list ->
  ?max_batch:int ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** The reshard gate, per [((shards, to_shards, procs), points)] run,
    from its [reshard-accounting] point: no client errors, an exact
    logical census, a non-empty linearizable history; for a split or
    merge, a finished controller without errors, a non-empty migration
    window moving some but at most 90% of the keys, and a file-create
    p99 at most 12x the no-split baseline's at the same [procs]. *)
val reshard_check :
  ((int * int * int) * Mdtest.Report.bench_point list) list -> string list

(** {2 Write pipeline — windowed ZAB proposals vs stop-and-wait}
    The traced mdtest profile of {!profile}, run once per leader
    write-path configuration — classic unbatched stop-and-wait
    ([batch1-w1]), group commit alone ([batch16-w1]), and group commit
    plus a pipelined proposal window ([batch16-w8],
    [max_inflight_batches = 8]) — followed by a chaos sweep (the PR 5
    seeded schedules) with [max_inflight_batches = 4] on every shard.
    Each profile run keeps its [mdtest-*] points with latency blocks
    and its [zk-<op>-breakdown] points with phase durations. Returns
    them, one [pipeline-chaos] point per schedule (its {!chaos_reduce}
    point renamed, [|window=4] appended to its config, five of its
    phases kept) and a [pipeline-summary] point carrying the
    queue-wait + ack improvement of the pipelined configuration over
    the window = 1 baseline at the largest scale (the BENCH_pr9.json
    points), and the failures of {!pipeline_check}. *)
val pipeline :
  ?procs_list:int list ->
  ?chaos_runs:(int * int64) list ->
  ?min_improvement:float ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** The pipeline gate over the [((variant, procs), points)] profiles
    and the chaos sweep: every run's breakdown points pass
    {!profile_check}'s tiling test and it has a [zk-create-breakdown]
    point, the pipelined create queue-wait + ack at the largest scale
    beats the window = 1 baseline by at least [min_improvement] percent
    (default 30), and the sweep's {!chaos_reduce} points pass
    {!chaos_check}. *)
val pipeline_check :
  min_improvement:float ->
  deterministic:bool ->
  ((string * int) * Mdtest.Report.bench_point list) list ->
  ((int * int64) * Mdtest.Report.bench_point) list ->
  string list

(** {2 Durability — power failures and storage corruption over mdtest}

    Seeded schedules that power-fail the whole coordination ensemble in
    the middle of the file-create phase, cycling through storage-damage
    flavors on one member's disk (none, torn tail, WAL bit-rot,
    snapshot corruption, torn+snapshot, fail-slow + post-restart
    stall). Each run is a {!Systems.dufs_mdtest} with a register
    overlay, reduced as it finishes to its [durability] point: oracle
    verdicts and the ensembles' WAL, snapshot, recovery and transfer
    counters in [phases] (dotted [wal.*]/[snap.*]/[recovery.*]/[transfer.*]
    keys); rows, totals and the [durability-summary] point read those
    points, and the first schedule re-runs to prove a bit-identical
    history. Returns the BENCH_pr10.json points and the failures of
    {!durability_check}. *)
val durability :
  ?seeds:int64 list ->
  ?procs:int ->
  ?reg_clients:int ->
  ?ops_per_client:int ->
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  unit ->
  Mdtest.Report.bench_point list * string list

(** The durability gate over [((seed, flavor), point)] schedules: every
    run recovers with agreeing replicas, audits at least one register
    and finds no linearizability or durability-oracle violation; over
    the sweep the flavors that tear or rot the WAL truncated some
    records, leader diff-syncs shipped fewer transactions than local
    WAL replay recovered, and the re-run was [deterministic]. *)
val durability_check :
  deterministic:bool -> ((int64 * string) * Mdtest.Report.bench_point) list -> string list
