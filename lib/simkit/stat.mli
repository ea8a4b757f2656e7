(** Measurement helpers: counters, online summaries, throughput, and
    one latency distribution that keeps every sample, so its
    percentiles are exact. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Online mean / min / max / variance (Welford). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** [None] when no sample has been recorded — an empty summary has no
      minimum, and reporting [0.0] would masquerade as a real sample. *)
  val min : t -> float option

  (** [None] when no sample has been recorded. *)
  val max : t -> float option

  (** Sample standard deviation; [0.] below two samples. Guarded against
      floating-point cancellation driving the variance negative (never
      returns NaN). *)
  val stddev : t -> float
end

(** [percentile samples q] is the exact nearest-rank percentile: the
    smallest sample with at least a fraction [q] of all samples at or
    below it (so [q = 1.] is the maximum). [samples] need not be sorted
    and is left as it is. [nan] when [samples] is empty — there is no
    honest value to report. The one percentile of the simulator's
    reports; [perfbench/stats.ml] keeps its own copy, which raises on an
    empty input, because the benchmark's code stays frozen.
    @raise Invalid_argument unless [0 < q <= 1]. *)
val percentile : float array -> float -> float

(** A latency distribution: every sample, kept in a growable float
    buffer (one unboxed word each), plus their running {!Summary}. The
    one distribution type of the simulator's reports — per-phase mdtest
    latencies and traced spans alike. *)
module Latency : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  (** Count, mean and extrema of every sample added so far. *)
  val summary : t -> Summary.t

  (** [quantile t q] is {!percentile} of the samples: exact, [nan] when
      empty. @raise Invalid_argument unless [0 < q <= 1]. *)
  val quantile : t -> float -> float
end
