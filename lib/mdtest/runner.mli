(** Closed-loop benchmark runner on the simulator.

    Spawns one simulation process per client, separates phases with
    barriers (as mdtest does with MPI_Barrier), and reports each phase's
    aggregate throughput over the virtual clock. *)

type phase =
  | Dir_create
  | Dir_stat
  | Dir_remove
  | File_create
  | File_stat
  | File_remove

val all_phases : phase list
val phase_to_string : phase -> string

(** Per-phase operation-latency distribution (virtual seconds). The
    percentiles are exact nearest-rank ones over the phase's raw samples
    ({!Simkit.Stat.percentile}); [max] is the largest sample. *)
type latency = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type results = {
  rates : (phase * float) list;  (** ops/second per phase *)
  latencies : (phase * latency) list;
      (** only phases that recorded at least one sample *)
  errors : int;                  (** operations that returned an error *)
  wall : float;                  (** virtual seconds for the whole run *)
}

val rate : results -> phase -> float

(** [None] when the phase recorded no samples — an empty distribution has
    no honest statistics to report. *)
val latency_of : results -> phase -> latency option

(** [run engine cfg ~ops_for_proc] executes the six mdtest phases.
    [ops_for_proc p] supplies client [p]'s operation table (its own DUFS
    client instance, or a shared native-filesystem client). Process 0
    creates the skeleton before the first barrier (outside every
    measurement window). The engine is run to completion.

    [on_phase] fires once per phase (from process 0, at the phase's
    start, after the preceding barrier) — the hook a fault schedule uses
    to anchor crash/restart events to workload phases. *)
val run :
  ?on_phase:(phase -> unit) ->
  Simkit.Engine.t ->
  Workload.config ->
  ops_for_proc:(int -> Fuselike.Vfs.ops) ->
  results

(** [closed_loop engine ~procs ~items f] — generic barrier-delimited
    closed loop: [procs] processes each execute [f ~proc ~item] [items]
    times; returns aggregate ops/second. Used for the raw coordination-
    service benchmarks (Fig. 7). *)
val closed_loop :
  Simkit.Engine.t -> procs:int -> items:int -> (proc:int -> item:int -> unit) -> float
