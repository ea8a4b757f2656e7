(** Wall-clock throughput benchmark of the Simkit engine core.

    Unlike every other experiment in this tree, which measures *virtual*
    time, this one measures how fast the simulator itself burns through
    events — the number that decides whether a 10^6-event chaos run is
    routine or a coffee break. Three representative mixes drive the
    engine hot paths:

    - [timer]: thousands of always-armed exponential timers — stresses
      the future-event queue (push/pop at high occupancy).
    - [mailbox]: broadcast/gather rounds over parked process mailboxes —
      every event is a [delay:0.] suspend/resume, the dominant event
      class in the coordination protocol.
    - [net]: seeded fault-active message flows (drop/dup/reorder/
      partition churn) through {!Simkit.Net} — the chaos-run event
      profile.

    Each mix is fully seeded and allocation-profiled: {!run} also
    re-runs every mix once and records whether the replay digest
    (executed events, final virtual clock) agrees — engine speed work is
    gated on determinism. Wall time comes from a [bechamel] monotonic-clock OLS
    fit over whole-mix runs. *)

(** [run ?events ?quota_s ()] runs every mix at [events] target events
    (default 1_000_000) with a [quota_s]-second bechamel quota per mix
    (default 2.0), prints the table and returns its bench points and
    the gate failures over every mix: each mix must replay
    deterministically, execute at least the [events] requested and
    reach at least 250 000 wall-clock events/sec. The points (the
    BENCH_pr6.json artifact) are one [engine-<mix>] point per mix whose
    [ops_per_sec] is wall-clock events/sec and whose [phases] block
    carries [events_executed], [ns_per_event], [virtual_s] and
    [minor_words_per_event]. *)
val run :
  ?events:int -> ?quota_s:float -> unit -> Mdtest.Report.bench_point list * string list
