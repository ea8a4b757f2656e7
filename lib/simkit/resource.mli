(** FIFO k-server resources (queueing stations) for simulation processes.

    A resource with capacity [k] admits at most [k] concurrent holders;
    further acquirers park in FIFO order. This models service centers such
    as a metadata server's request threads or a per-directory lock. *)

type t

(** [create ~capacity ()] makes a resource with [capacity] servers.
    @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> unit -> t

(** Number of slots currently held. *)
val in_use : t -> int

(** Number of processes parked waiting for a slot. *)
val queue_length : t -> int

(** Release one held slot; wakes the oldest waiter, if any. {!with_slot}
    and {!serve} pair it with their acquire.
    @raise Invalid_argument if the resource is not held. *)
val release : t -> unit

(** [with_slot t f] = acquire; [f ()]; release — exception safe. *)
val with_slot : t -> (unit -> 'a) -> 'a

(** [serve t d] models one service visit: acquire a slot, hold it for [d]
    seconds of virtual time, release. *)
val serve : t -> float -> unit

(** {2 Wait-vs-service decomposition}

    Every acquire records its queueing delay (0. when a slot was free)
    and every [with_slot]/[serve] visit records its holding time, so a
    station can report how much of its latency is contention and how
    much is service. Recording is pure bookkeeping on the virtual clock:
    it never schedules events, so instrumented and uninstrumented runs
    are identical. *)

(** Per-acquire queueing delay, seconds. *)
val wait_summary : t -> Stat.Summary.t

(** Per-visit slot-holding time, seconds. *)
val hold_summary : t -> Stat.Summary.t
