(** Discrete-event simulation engine.

    An engine owns a virtual clock and a pending-event queue. Events are
    executed in nondecreasing timestamp order; events with equal timestamps
    run in scheduling (FIFO) order, which makes every simulation
    deterministic for a fixed seed.

    Internally the queue is a calendar queue for strictly-future events
    plus a dedicated FIFO ring for zero-delay events, and event records
    are recycled through a free list, so the steady-state
    schedule/dispatch path performs no allocation. None of this is
    observable: the dispatch order is exactly the (time, scheduling
    order) total order stated above. *)

type t

val create : unit -> t

(** [now t] is the current virtual time, in seconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at time [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute time [time].
    @raise Invalid_argument if [time] is in the past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule_app t ~delay f x] runs [f x] at time [now t +. delay] —
    same dispatch order as [schedule], without allocating a closure to
    capture [x]. Hot paths that would otherwise build
    [fun () -> f x] per event (process resume, message delivery) use
    this to keep the event path allocation-free.
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule_app : t -> delay:float -> ('a -> unit) -> 'a -> unit

(** A pending event that can be withdrawn before it fires. *)
type timer

(** [schedule_timer t ~delay f] runs [f] at time [now t +. delay], in
    the same (time, scheduling order) position as [schedule], and
    returns a handle that {!cancel} accepts.
    @raise Invalid_argument if [delay] is not positive and finite. *)
val schedule_timer : t -> delay:float -> (unit -> unit) -> timer

(** [cancel t timer] withdraws the timer's event if it is still pending:
    it never runs, and it no longer counts in {!pending_events} or,
    later, in {!executed_events}. Cancelling a timer that already fired
    or was already cancelled does nothing. The dispatch order of every
    other event is unchanged. *)
val cancel : t -> timer -> unit

(** [run t] executes events until the queue is empty or [stop] is called.
    [until] bounds the virtual clock: events scheduled strictly after
    [until] remain pending. When the run drains the queue or reaches the
    horizon, the clock is left at [until]; when it exits via [stop], the
    clock stays at the time of the last executed event. *)
val run : ?until:float -> t -> unit

(** [stop t] makes [run] return after the currently executing event. *)
val stop : t -> unit

(** Number of events executed since [create]; cancelled timers never
    count. *)
val executed_events : t -> int

(** Number of events currently pending. *)
val pending_events : t -> int
