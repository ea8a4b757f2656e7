(** Bench points, the one result shape of every experiment driver, and
    their plain-text rendering, JSON files and gates. *)

(** {2 Machine-readable bench points}

    The stable cross-PR schema for benchmark output files
    ([BENCH_*.json]): a flat JSON array of
    [{experiment, procs, config, ops_per_sec}] objects, so successive
    PRs append comparable points. Points may additionally carry a
    latency-percentile block and a per-phase breakdown; points without
    them serialize exactly as before. *)

(** Operation-latency percentiles (virtual seconds), [samples > 0]. *)
type latency_stats = {
  samples : int;
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

(** Per-shard balance of a sharded coordination deployment at the end
    of a run. [znodes] counts everything resident on the shard (its own
    root and any stubs included); [queue_wait_mean_s] is the mean
    client-send-to-leader-batch wait of writes the shard served (absent
    when the run was untraced or the shard saw no writes). *)
type shard_stat = {
  shard : int;
  znodes : int;
  writes_committed : int;
  dedup_hits : int;
  queue_wait_mean_s : float option;
}

type bench_point = {
  experiment : string;  (** e.g. ["mdtest-file-create"] *)
  procs : int;          (** simulated client processes *)
  config : string;      (** system + knob description, e.g. ["max_batch=16"] *)
  ops_per_sec : float;
  latency : latency_stats option;
  phases : (string * float) list;
      (** named critical-path phase durations (seconds), e.g. the quorum
          phases of a coordination write; empty for throughput-only points *)
  shards : shard_stat list;
      (** per-shard balance; empty for unsharded deployments *)
}

val point :
  experiment:string ->
  procs:int ->
  config:string ->
  ops_per_sec:float ->
  ?latency:latency_stats ->
  ?phases:(string * float) list ->
  ?shards:shard_stat list ->
  unit ->
  bench_point

(** [phase p name] is the value of [p]'s phase [name].
    @raise Invalid_argument when [p] has no such phase. *)
val phase : bench_point -> string -> float

val latency_of_runner : Runner.latency -> latency_stats

(** Write [points] to [path] as a JSON array, one object per line, then
    print [wrote <path> (<n> bench points)] on stdout.
    @raise Invalid_argument on NaN/infinite values — a bench file is
    either honest JSON or an error, never silently poisoned. *)
val emit_json : path:string -> bench_point list -> unit

(** {2 Rendering} *)

val print_header : string -> unit

(** [print_figure ~title experiment points] renders [experiment]'s
    points in the shape of the paper's figures: ops/s with one column
    per config, in the order the configs first appear, and one row per
    procs count; [-] where a config has no point. *)
val print_figure : title:string -> string -> bench_point list -> unit

(** One labelled scalar row (for headline ratios). *)
val print_ratio : label:string -> float -> unit

(** A point holds finite numbers only: [or_missing x] is [x], or -1
    when [x] is nan or infinite, the mark of a missing value (a run that
    never recovered). [missing_as_nan] reads the mark back as nan. *)
val or_missing : float -> float

val missing_as_nan : float -> float

(** A table's value column: [(header, phase, format)]. The header is
    right-aligned to the format's width; each cell is the point's phase
    under the format, a missing value printing as nan. *)
type column = string * string * (float -> string, unit, string) format

(** The header cells of a table's columns, each after a space. *)
val column_header : column list -> string

(** One point's cells under the columns, each after a space. *)
val column_cells : column list -> bench_point -> string

(** [print_rows key cols points] prints one row per point: [key p],
    then its cells. *)
val print_rows : (bench_point -> string) -> column list -> bench_point list -> unit

(** [print_table (header, key) cols points] prints the header line,
    [header] then the column headers, and then {!print_rows}. *)
val print_table :
  string * (bench_point -> string) -> column list -> bench_point list -> unit

(** {2 Experiment gates}

    Every experiment states its acceptance checks as a pure
    function from its results to a list of failure messages (empty =
    pass), then hands that list to {!gate} — the one place a run is
    failed, so a failing run names every broken check at once. *)

(** [expect ok fmt ...] is [[]] when [ok], else the one formatted
    failure message. *)
val expect : bool -> ('a, unit, string, string list) format4 -> 'a

(** [gate ~experiment failures] prints every failure and raises
    [Failure] once, naming them all; prints a pass line when the list
    is empty. *)
val gate : experiment:string -> string list -> unit
