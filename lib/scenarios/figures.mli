(** One driver per table/figure of the paper's evaluation (§V), plus the
    extension ablations. Each [figN] function runs each of its
    (system, procs) points once and prints the same rows/series the
    paper plots, every phase read from that one run;
    {!fig11_data} also returns Fig. 11's numbers for tests. Each gated
    experiment's [*_check] is a pure function of its runs, so tests can
    exercise a gate without running the experiment. *)

(** {2 Fig. 7 — raw ZooKeeper op throughput vs ensemble size} *)

val fig7 : ?procs_list:int list -> unit -> unit

(** {2 Fig. 8 — DUFS vs #ZooKeeper servers (2 Lustre back-ends)} *)

val fig8 : unit -> unit

(** {2 Fig. 9 — DUFS with 2 vs 4 Lustre back-ends (file ops)} *)

val fig9 : unit -> unit

(** {2 Fig. 10 — DUFS vs Basic Lustre and Basic PVFS2, 6 ops} *)

val fig10 : unit -> unit

(** {2 §V-D headline ratios at 256 procs} *)

(** Over [(label, paper's value, measured ratio)]: every ratio is > 1
    and within [[0.7x, 1.3x]] of the paper's value. *)
val headline_check : (string * float * float) list -> string list

(** DUFS over 2 Lustre / 2 PVFS back-ends vs the native file system:
    dir-create and file-stat ratios (paper 1.9, 23, 1.3, 3.0).
    @raise Failure (through {!Mdtest.Report.gate}) if {!headline_check}
    reports any failure. *)
val headline : unit -> unit

(** {2 Fig. 11 — memory usage vs created directories} *)

val fig11_data :
  ?millions:float list -> unit -> (float * float * float * float) list
(** [(millions of dirs, zookeeper MB, dufs MB, dummy-fuse MB)] *)

val fig11 : ?millions:float list -> unit -> unit

(** {2 Extension ablations}

    Each prints its table, then raises [Failure] through
    {!Mdtest.Report.gate} if its pure [*_check] returns any failure
    (empty = pass). *)

(** Growing [n] -> [n + 1] back-ends: each strategy's imbalance at [n]
    and fraction of FIDs relocated. *)
type mapping_row =
  { n : int; mod_imbalance : float; mod_moved : float;
    ring_imbalance : float; ring_moved : float }

(** MD5 mod N relocates >= 0.95·n/(n+1), consistent hashing <= 1.5/(n+1)
    and less than MD5 mod N; both imbalances <= 1.3. *)
val ablation_mapping_check : mapping_row list -> string list

(** MD5-mod-N vs consistent hashing over 200k FIDs at N = 2, 4, 8. *)
val ablation_mapping : unit -> unit

(** ops/s at [procs]: Basic Lustre, CMD with 2 and 4 MDSes, DUFS. *)
type cmd_row = { procs : int; lustre : float; cmd2 : float; cmd4 : float; dufs : float }

(** Per [(phase, rows)]: dir-stat ranks CMD 4 > CMD 2 > Basic Lustre,
    any other phase (dir-create) the reverse; DUFS beats both CMDs. *)
val ablation_cmd_check : (Mdtest.Runner.phase * cmd_row list) list -> string list

(** DUFS vs a hypothetical Lustre Clustered MDS (CMD, §VI): the global
    lock serializing cross-server updates vs ZooKeeper's ordered
    broadcast, dir-create and dir-stat at 64–256 procs. *)
val ablation_cmd : unit -> unit

(** [(phase, shared ops/s, unique ops/s)] per system at 256 procs. *)
type unique_ablation = {
  lustre_rows : (Mdtest.Runner.phase * float * float) list;
  dufs_rows : (Mdtest.Runner.phase * float * float) list;
}

(** Lustre's unique/shared ratio >= 1.10, DUFS's within ±2% of 1. *)
val ablation_unique_check : unique_ablation -> string list

(** Shared vs unique working directories (mdtest -u): isolates the DLM
    lock-contention part of Lustre's decline. *)
val ablation_unique : unit -> unit

(** Over [((clients, window), creates/s)]: at 1 client window 16 >= 2.5×
    window 1 and window 4 >= window 1; at 8 clients windows 1, 4 and 16
    are within 2% of each other. *)
val ablation_async_check : ((int * int) * float) list -> string list

(** Synchronous vs pipelined (async) coordination API: what the paper's
    prototype left on the table by using the synchronous API. *)
val ablation_async : unit -> unit

(** One ablation-cache run: [(phase, DUFS ops/s, DUFS+cache ops/s)]
    for mdtest dir-stat and dir-create, and [(procs, uncached ops/s,
    cached ops/s)] for the hot-entry stat loop. *)
type cache_ablation = {
  mdtest_rows : (Mdtest.Runner.phase * float * float) list;
  hot_rows : (int * float * float) list;
}

(** The cache ablation's gate failures (empty = pass): every mdtest row
    has DUFS+cache within ±2% of DUFS (a scan-once workload gains
    nothing and must lose nothing), and every hot-loop row has a cached
    speedup of at least 20×. *)
val ablation_cache_check : cache_ablation -> string list

(** DUFS with vs without the client-side (lease) metadata cache: mdtest
    dir-stat/dir-create at [procs] (default 256) with [items] dirs and
    files per proc (default 60), and the hot-entry stat loop at each of
    [hot_procs] (default [[64; 256]]).
    @raise Failure (through {!Mdtest.Report.gate}) if
    {!ablation_cache_check} reports any failure. *)
val ablation_cache :
  ?procs:int -> ?items:int -> ?hot_procs:int list -> unit -> unit

(** Single-directory creates/s per system and procs count, and the
    reachable fraction of a GIGA+ directory after 1 of its 8 servers
    crashes. *)
type giga_ablation = {
  creates : ([ `Lustre | `Dufs | `Giga of int ] * (int * float) list) list;
  available : float;
}

(** At every procs count: GIGA+ 8 servers >= 4 servers >= 10× the better
    of DUFS and Lustre; 0 < availability < 1. *)
val ablation_giga_check : giga_ablation -> string list

(** GIGA+-style directory indexing vs DUFS vs Lustre on one huge
    directory, and the availability cost of unreplicated partitions. *)
val ablation_giga : unit -> unit

(** Over [((voters, observers), (creates/s, gets/s))] for (3, 0), (7, 0)
    and (3, 4): the observers reach >= 0.95× the gets/s of 7 voters and
    the creates/s of 3 voters; 7 voters create more slowly than 3. *)
val ablation_observers_check : ((int * int) * (float * float)) list -> string list

(** Non-voting observers: read scaling without write cost. *)
val ablation_observers : unit -> unit

(** {2 The failure path — mdtest under declarative fault schedules} *)

val fault_plans : (string * string) list
(** Named {!Faults.Faultplan} schedules exercised by the benchmark:
    sub-quorum leader loss with delayed recovery, and rolling follower
    crash/restart. Parseable with {!Faults.Faultplan.parse}. *)

(** The faults gate, per [(label, plan, run)]: the run is error-free,
    its logical census is exact, every event of its plan fired, and a
    non-empty plan produced dedup hits. *)
val faults_check :
  (string * Faults.Faultplan.t * Systems.dufs_run) list -> string list

(** Print per-phase rates plus the exactly-once invariants (errors,
    dedup hits, znode census) for each schedule; with [json_path],
    also write the points in the {!Mdtest.Report.bench_point} schema
    (the BENCH_pr2.json artifact).
    @raise Failure (through {!Mdtest.Report.gate}) if {!faults_check}
    reports any failure. *)
val faults : ?procs:int -> ?items:int -> ?json_path:string -> unit -> unit

(** The CI variant: 32 processes, 30 dirs and 30 files each — the
    BENCH_pr2_smoke.json artifact. Same failure conditions as
    {!faults}. *)
val faults_smoke : ?json_path:string -> unit -> unit

(** The DUFS stack every profile run traces: 2 Lustre back-ends, 8
    coordination servers. *)
val profile_spec : Systems.dufs_spec

(** [profile ()] runs mdtest with span tracing on at each scale in
    [procs_list] (default 64/128/256) and prints, per scale: client op
    latency percentiles (p50/p95/p99 per op type), the quorum-phase
    critical-path breakdown of each coordination write kind (with its
    coverage against the measured op latency), read latency, leader
    queue/batch distributions, and each back-end MDS station's
    wait-vs-service split. With [json_path], also writes the points (the
    BENCH_pr3.json artifact): mdtest points carry the latency block,
    [zk-<op>-breakdown] points carry the phase durations. Each run is
    reduced to its {!traced} results and trace and its back-end stations
    before the next starts.
    @raise Failure (through {!Mdtest.Report.gate}) if {!profile_check}
    reports any failure. *)
val profile : ?procs_list:int list -> ?json_path:string -> unit -> unit

(** What a sweep of traced runs keeps of each run once the next one
    starts. Dropping the rest drops the run's router, and with it every
    shard's trees, WAL and sessions. *)
type traced = { results : Mdtest.Runner.results; trace : Obs.Trace.t }

val traced : Systems.dufs_run -> traced

(** The profile gate, per [(procs, run)]: every traced write kind's
    quorum phases finite, non-negative, and summing to within 5% of its
    measured mean latency. *)
val profile_check : (int * traced) list -> string list

(** {2 Sharded coordination — N independent ZAB leaders}

    mdtest over {!Zk.Shard_router} deployments at a constant total
    server count (8) and constant back-end count (8 Lustre): one
    8-server ensemble vs 2x4 vs 4x2 shards, unbatched and batched.
    Every run is span-traced, so the same run yields throughput, the
    create queue-wait breakdown, per-shard queue-wait/balance, and the
    per-shard znode accounting ({!sharding_check} fails the run). With [json_path] writes the BENCH_pr4.json
    artifact: [mdtest-*] points with latency blocks,
    [zk-create-breakdown] points with phase durations, and
    [sharding-znode-accounting] points whose [shards] block records the
    per-shard balance ([expected_logical] and [live_stubs] ride in the
    config string for external validation). *)

val sharding :
  ?procs_list:int list ->
  ?topologies:(int * int) list ->
  ?batches:int list ->
  ?json_path:string ->
  unit ->
  unit

(** What {!sharding} keeps of a run: what it prints, emits and gates
    on. *)
type sharding_run = {
  run : traced;
  shards : Mdtest.Report.shard_stat list;
      (** per-shard balance at the file-stat census *)
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  live_stubs_at_stat : int;
}

(** The reduction {!sharding} applies to each run as it finishes. *)
val sharding_run : Systems.dufs_run -> sharding_run

(** The sharding gate over the runs of {!sharding}: the logical znode
    census exact on every run, and every shard committed writes. *)
val sharding_check : ((int * int * int * int) * sharding_run) list -> string list

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

(** [chaos ()] runs one {!chaos_point} per [(shards, seed)] entry of
    [runs] (default: 12 single-shard + 8 four-shard schedules) at
    [shape] (default {!chaos_shape}), prints a per-run table (ops
    recorded/checked, undetermined ops, expired sessions, dedup
    activity, post-heal recovery time, violations), re-runs the first
    schedule to prove bit-identical history digests, and summarizes
    recovery percentiles. With [json_path] writes the BENCH_pr5.json
    artifact: one [chaos] point per run (violations, ops checked,
    recovery and the degradation counters in the [phases] block;
    [recovery_s = -1] means the run never recovered) plus a
    [chaos-summary] point with totals and recovery percentiles.
    @raise Failure (through {!Mdtest.Report.gate}) if {!chaos_check}
    reports any failure. *)
val chaos :
  ?runs:(int * int64) list -> ?shape:chaos_shape -> ?json_path:string -> unit -> unit

(** The chaos gate over [((shards, seed), run)] points: every run has a
    non-empty history, no linearizability or durability-oracle
    violation and a recovery after the closing heal, and the re-run of
    the first schedule was [deterministic].
    @raise Invalid_argument on a run without its register overlay. *)
val chaos_check :
  deterministic:bool -> ((int * int64) * Systems.dufs_run) list -> string list

(** [chaos]'s bench points over [shape]'s [heal_at + post_heal] virtual
    seconds of client load: one [chaos] point per run and the
    [chaos-summary] point. Every number is finite: [-1] marks a missing
    recovery time, per run or as a percentile over a sweep in which no
    run recovered. *)
val chaos_points :
  shape:chaos_shape ->
  deterministic:bool ->
  ((int * int64) * Systems.dufs_run) list ->
  Mdtest.Report.bench_point list

(** The CI variant: 2 fixed schedules (1-shard and 4-shard) at 64
    client processes over a shorter window — the BENCH_pr5_smoke.json
    artifact. Same failure conditions as {!chaos}. *)
val chaos_smoke : ?json_path:string -> unit -> unit

(** {2 Engine throughput — wall-clock events/sec of the simulator core}

    Delegates to {!Engine_bench.run}: three seeded mixes (timer-heavy,
    mailbox-heavy, net-fault-heavy) of ~[events] engine events each,
    timed with bechamel and gated by {!Engine_bench.check}. With [json_path] writes the
    BENCH_pr6.json artifact. *)
val engine :
  ?events:int -> ?quota_s:float -> ?json_path:string -> unit -> unit

(** {2 Sessions — client-cache coherence at 1k-100k sessions}

    Delegates to {!Sessions_bench.run}: lease-coherent caches over
    mdtest-stat and readdir-storm read sweeps with a mid-sweep writer,
    observer read scaling, and the server-state accounting (one lease
    per session, no watches), gated by {!Sessions_bench.check}. With
    [json_path] writes the BENCH_pr7.json artifact. *)
val sessions : ?json_path:string -> unit -> unit

(** The CI variant: 1k sessions, 2 observers — the
    BENCH_pr7_smoke.json artifact. *)
val sessions_smoke : ?json_path:string -> unit -> unit

(** {2 Elastic resharding — live shard split/merge under mdtest}

    At each process count: the no-split 2-shard baseline, the live
    2->4 split fired at the file-create barrier, and (at the smallest
    process count) a 4->2 merge — all through
    {!Systems.dufs_mdtest}, with the linearizability oracle on a
    slice of the client sessions, gated by {!reshard_check}. With
    [json_path] writes the BENCH_pr8.json artifact. *)
val reshard :
  ?procs_list:int list -> ?max_batch:int -> ?json_path:string -> unit -> unit

(** What {!reshard} keeps of a run: what it prints, emits and gates
    on. *)
type reshard_run

(** The reduction {!reshard} applies to each run as it finishes. *)
val reshard_run : Systems.dufs_run -> reshard_run

(** The reshard gate, per [((shards, to_shards, procs), run)]: no client
    or controller errors, an exact logical census, a non-empty
    linearizable history; for a split or merge, a non-empty migration
    window moving some but at most 90% of the keys, and a file-create
    p99 at most 12x the no-split baseline's at the same [procs]. *)
val reshard_check : ((int * int * int) * reshard_run) list -> string list

(** The CI variant: 64 processes only — the BENCH_pr8_smoke.json
    artifact. Same failure conditions as {!reshard}. *)
val reshard_smoke : ?json_path:string -> unit -> unit

(** {2 Write pipeline — windowed ZAB proposals vs stop-and-wait}

    The traced mdtest profile of {!profile}, run once per leader
    write-path configuration — classic unbatched stop-and-wait
    ([batch1-w1]), group commit alone ([batch16-w1]), and group commit
    plus a pipelined proposal window ([batch16-w8],
    [max_inflight_batches = 8]) — followed by a chaos sweep (the PR 5
    seeded schedules) with [max_inflight_batches = 4] on every shard.
    With [json_path] writes the BENCH_pr9.json artifact: [mdtest-*]
    points with latency blocks and [zk-<op>-breakdown] points with
    phase durations per configuration, one [pipeline-chaos] point per
    schedule, and a [pipeline-summary] point carrying the
    queue-wait + ack improvement of the pipelined configuration over
    the window = 1 baseline at the largest scale.
    @raise Failure (through {!Mdtest.Report.gate}) if {!pipeline_check}
    reports any failure. *)
val pipeline :
  ?procs_list:int list ->
  ?chaos_runs:(int * int64) list ->
  ?min_improvement:float ->
  ?json_path:string ->
  unit ->
  unit

(** The pipeline gate over the [((variant, procs), run)] profiles and
    the chaos sweep: every run's breakdown passes {!profile_check}'s
    tiling test and has traced creates, the pipelined create
    queue-wait + ack at the largest scale beats the window = 1 baseline
    by at least [min_improvement] percent (default 30), and the sweep
    passes {!chaos_check}. *)
val pipeline_check :
  min_improvement:float ->
  deterministic:bool ->
  ((string * int) * traced) list ->
  ((int * int64) * Systems.dufs_run) list ->
  string list

(** The CI variant: 64 processes, 2 chaos schedules, 10% improvement
    floor — the BENCH_pr9_smoke.json artifact. *)
val pipeline_smoke : ?json_path:string -> unit -> unit

(** {2 Durability — power failures and storage corruption over mdtest}

    Seeded schedules that power-fail the whole coordination ensemble in
    the middle of the file-create phase, cycling through storage-damage
    flavors on one member's disk (none, torn tail, WAL bit-rot,
    snapshot corruption, torn+snapshot, fail-slow + post-restart
    stall). Each run is a {!Systems.dufs_mdtest} with a register
    overlay; the rows re-run the first schedule to prove a
    bit-identical history, and WAL, snapshot, recovery and transfer
    counters are read from the run's ensembles. With [json_path]
    writes the BENCH_pr10.json artifact: one [durability] point per
    schedule (those counters in [phases], dotted
    [wal.*]/[snap.*]/[recovery.*]/[transfer.*] keys) plus a
    [durability-summary] point.
    @raise Failure (through {!Mdtest.Report.gate}) if
    {!durability_check} reports any failure. *)
val durability :
  ?seeds:int64 list ->
  ?procs:int ->
  ?reg_clients:int ->
  ?ops_per_client:int ->
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?json_path:string ->
  unit ->
  unit

(** The durability gate over [((seed, flavor), run)] schedules: every
    run recovers with agreeing replicas, audits at least one register
    and finds no linearizability or durability-oracle violation; over
    the sweep the torn/bit-rot schedules truncated [torn_truncated > 0]
    WAL records, leader diff-syncs shipped fewer transactions
    ([diff_synced]) than local WAL replay recovered ([replayed]), and
    the re-run was [deterministic].
    @raise Invalid_argument on a run without its register overlay. *)
val durability_check :
  deterministic:bool ->
  torn_truncated:int ->
  replayed:int ->
  diff_synced:int ->
  ((int64 * string) * Systems.dufs_run) list ->
  string list

(** The CI variant: 4 schedules (power-failure, torn-tail, WAL bit-rot,
    snapshot-rot) at 16 processes — the BENCH_pr10_smoke.json artifact.
    Same failure conditions as {!durability}. *)
val durability_smoke : ?json_path:string -> unit -> unit

(** Run everything (the full bench suite). *)
val all : unit -> unit
