(** Named metric registry: counters, gauges, summaries and latency
    histograms, get-or-created by name, with a single snapshot-to-JSON
    path shared by every reporter.

    All instruments are plain mutable accumulators from {!Simkit.Stat}:
    recording never allocates beyond the instrument itself and never
    touches the simulation engine, so instrumented runs stay
    deterministic. *)

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

type t

val create : unit -> t

(** Get-or-create by name. @raise Invalid_argument if [name] is already
    registered as a different instrument kind. *)
val counter : t -> string -> Simkit.Stat.Counter.t

val gauge : t -> string -> Gauge.t
val summary : t -> string -> Simkit.Stat.Summary.t

(** Log-scale histogram, 100 ns .. 100 s by default. *)
val histogram :
  ?lo:float -> ?hi:float -> ?buckets:int -> t -> string -> Simkit.Stat.Histogram.t

(** Registered names, in registration order. *)
val names : t -> string list

(** Lookup without creating. *)
val counter_opt : t -> string -> Simkit.Stat.Counter.t option
val summary_opt : t -> string -> Simkit.Stat.Summary.t option

val histogram_opt : t -> string -> Simkit.Stat.Histogram.t option

(** Snapshot every instrument as one JSON object keyed by metric name.
    Empty summaries/histograms omit min/max/quantiles (no fake zeros);
    non-finite values raise rather than emitting invalid JSON.
    @raise Invalid_argument on NaN/infinite values. *)
val to_json : t -> string
