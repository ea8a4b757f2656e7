(** Lightweight span tracing over a {!Metrics} registry.

    Default-off and cheap when off: a disabled trace records nothing and
    allocates nothing per event. Recording is pure accumulator
    bookkeeping — it never schedules events or advances the virtual
    clock, so a traced run and an untraced run of the same workload
    produce identical simulated timelines. *)

type t

(** A fresh, disabled trace with its own metrics registry. *)
val create : unit -> t

(** The shared always-off sink, for components built without a trace. *)
val null : t

(** @raise Invalid_argument on {!null}. *)
val enable : t -> unit

val disable : t -> unit
val enabled : t -> bool
val metrics : t -> Metrics.t

(** [record_span t name dur] records one completed span in the
    {!Simkit.Stat.Latency} instrument registered under [name]. *)
val record_span : t -> string -> float -> unit

(** Scalar observation (queue depth, batch size, ...): summary only. *)
val observe : t -> string -> float -> unit

(** {2 Reading spans back}

    All four read the one instrument under the span's name and are
    exact; the options are [None] when the span was never recorded. *)

val span_count : t -> string -> int
val span_mean : t -> string -> float option
val span_max : t -> string -> float option

(** {!Simkit.Stat.percentile} of the recorded durations. *)
val span_quantile : t -> string -> float -> float option

(** {2 Write-path span context}

    One [wspan] travels with a coordination write. The client stamps the
    send time, the leader stamps batch start / persist share / proposal
    fan-out / quorum commit, and the client calls {!finish_write} when
    the reply lands, folding the stamps into the five quorum phases
    (queue-wait, propose, persist, ack, commit) plus the op total. The
    stamps tile the op's timeline, so the phase durations sum to the
    measured op latency by construction. *)

type wspan = {
  mutable w_sent : float;
  mutable w_batch : float;
  mutable w_persist : float;  (** duration, not a stamp *)
  mutable w_proposed : float;
  mutable w_quorum : float;
}

(** The shared dummy carried by untraced writes; stamps on it are never
    read back. *)
val no_wspan : wspan

(** Fresh span stamped with [w_sent = now] when the trace is enabled;
    {!no_wspan} otherwise (no allocation). *)
val wspan : t -> now:float -> wspan

val is_real : wspan -> bool

(** The five quorum phases, in timeline order. *)
val phases : string list

(** [finish_write t ~op w ~now] records [zk.<op>.total] and the five
    [zk.<op>.<phase>] spans. A real span missing stamps or non-monotone
    (for example a write that failed after its retries) records no phases and bumps
    the [zk.<op>.dropped] counter instead. Does nothing when the trace is
    off or [w] is {!no_wspan}. *)
val finish_write : t -> op:string -> wspan -> now:float -> unit

(** Spans of [op] that {!finish_write} dropped as half-stamped. *)
val dropped : t -> op:string -> int
