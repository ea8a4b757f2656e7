(** Named metric registry: counters, summaries and latency
    distributions, get-or-created by name. Reporters read instruments
    back by name ({!counter_opt}, {!summary_opt}, {!latency_opt}) and
    format them themselves.

    All instruments are plain mutable accumulators from {!Simkit.Stat}:
    recording never allocates beyond the instrument itself and never
    touches the simulation engine, so instrumented runs stay
    deterministic. *)

type t

val create : unit -> t

(** Get-or-create by name. @raise Invalid_argument if [name] is already
    registered as a different instrument kind. *)
val counter : t -> string -> Simkit.Stat.Counter.t

val summary : t -> string -> Simkit.Stat.Summary.t

(** Every sample kept: exact mean, max and percentiles. *)
val latency : t -> string -> Simkit.Stat.Latency.t

(** Registered names, in registration order. *)
val names : t -> string list

(** Lookup without creating. *)
val counter_opt : t -> string -> Simkit.Stat.Counter.t option
val summary_opt : t -> string -> Simkit.Stat.Summary.t option
val latency_opt : t -> string -> Simkit.Stat.Latency.t option
