(** The sessions experiment: 1k–100k client sessions, each with its own
    metadata cache, sweeping a fixed namespace with mdtest-stat and
    readdir-storm read passes — cold (server-bound, observers add
    capacity) then warm (cache-local) — while a writer mutates a slice
    of the namespace between passes and a sample of sessions is recorded
    through the linearizability checker. Pins lease coherence's server
    state: lease tables O(sessions × working dirs), watch tables empty. *)

type phase_times = {
  mutable cold_s : float;
  mutable warm_s : float;
}

type case_result = {
  sessions : int;
  observers : int;
  stat : phase_times;
  readdir : phase_times;
  stat_reads : int;
  readdir_reads : int;
  hits : int;
  misses : int;
  invalidations : int;
  watch_table_total : int;
  lease_entries_total : int;
  leases_granted : int;
  leases_renewed : int;
  leases_revoked : int;
  observer_reads : int;
  voter_reads : int;
  znodes : int;
  history_checked : int;
  violations : int;
}

(** The znodes every case's namespace holds: root, dirs, files. *)
val expected_znodes : int

(** One case's gate failures (empty = pass): exact znode census, zero
    history violations over a non-empty history, one lease per session
    and no watches. *)
val check : case_result -> string list

(** [run ?cases ()] runs each [(sessions, observers)] case (default:
    1k, 10k and 100k sessions with 2 observers, and 10k with 0 and 6)
    and returns two {!Mdtest.Report.bench_point}s (stat, readdir) per
    case and the failures of {!check} over every case. *)
val run :
  ?cases:(int * int) list -> unit -> Mdtest.Report.bench_point list * string list
