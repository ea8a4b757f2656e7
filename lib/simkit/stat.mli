(** Measurement helpers: counters, online summaries and latency histograms. *)

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

(** Fixed-bucket log-scale latency histogram with quantile estimation. *)
module Histogram : sig
  type t

  (** [create ~lo ~hi ~buckets ()] covers [lo, hi] seconds with
      logarithmically spaced buckets. Samples below [lo] clamp into the
      first bucket; samples above [hi] are counted in a separate
      overflow bucket (see {!overflow}) and the exact observed maximum
      is tracked, so tail quantiles never silently report [hi].
      @raise Invalid_argument unless [0 < lo < hi] and [buckets > 0]. *)
  val create : lo:float -> hi:float -> buckets:int -> unit -> t

  val add : t -> float -> unit
  val count : t -> int

  (** Samples recorded above [hi]. *)
  val overflow : t -> int

  (** Exact largest sample recorded; [None] when empty. *)
  val max_seen : t -> float option

  (** [quantile t q] for q in [0,1]; 0. when empty. In-range quantiles
      report the matching bucket's upper bound (capped at the observed
      maximum); a quantile that falls among overflow samples reports the
      exact observed maximum. *)
  val quantile : t -> float -> float
end

(** Throughput over an interval of the virtual clock. *)
module Throughput : sig
  type t

  val start : at:float -> t
  val record : t -> unit
  val record_n : t -> int -> unit
  val ops : t -> int

  (** Completed operations per second between [start] and [now].
      0. if no time has elapsed. *)
  val rate : t -> now:float -> float
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
