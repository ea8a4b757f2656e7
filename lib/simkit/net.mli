(** A fault-injectable message network.

    [Net] sits between protocol code and {!Engine.schedule}: every
    message names a source and destination {!endpoint}, and delivery is
    subject to the network's current fault state — symmetric partitions,
    one-way blocks, probabilistic drop, added delay, duplication, and
    bounded reorder windows. With every fault knob at rest and a [Fixed]
    latency, [send] degenerates to exactly one [Engine.schedule] call
    and consumes no randomness, so a fault-free run is event-for-event
    identical to scheduling directly.

    Endpoints are cheap integers. A client endpoint may [follow] a
    server endpoint, meaning it sits on the same side of any partition
    as that server (a client co-located with, or connected through, its
    home server's network segment). Partitions and one-way blocks are
    evaluated against the followed endpoint.

    All randomness comes from the seed given to [create]; identical
    seeds and identical call sequences reproduce identical schedules. *)

type t

type endpoint = int

(** One-way link latency model. *)
type latency =
  | Fixed of float                (** constant seconds; draws no randomness *)
  | Uniform_lat of float * float  (** uniform in [lo, hi) seconds *)
  | Exp_lat of float              (** exponential with the given mean *)

val create : ?default_latency:latency -> seed:int64 -> Engine.t -> t

(** [endpoint t] registers a new endpoint. [follow] makes it share the
    partition side of an existing endpoint (re-evaluated at every send,
    so re-partitioning moves followers with their server). *)
val endpoint : ?follow:endpoint -> t -> endpoint

(** [send t ~src ~dst deliver] delivers [deliver] at the destination
    after a latency sampled from the network's model, unless the
    current fault state drops the message. Never raises; dropped
    messages just vanish (counted in {!dropped}). *)
val send : t -> src:endpoint -> dst:endpoint -> (unit -> unit) -> unit

(** {2 Fault state}

    All mutators take effect for messages sent after the call;
    messages already in flight are not recalled. *)

(** [partition t groups] installs a symmetric partition: endpoints in
    different groups cannot exchange messages. Endpoints not named in
    any group can reach (and be reached by) everyone — so a partial
    partition only needs to name the isolated minority. Followers are
    resolved through the endpoint they follow. Replaces any previous
    partition. *)
val partition : t -> endpoint list list -> unit

(** [block_oneway t ~src ~dst] drops messages from [src]'s side to
    [dst]'s side only; the reverse direction still delivers.
    Cumulative with other one-way blocks and with [partition]. *)
val block_oneway : t -> src:endpoint -> dst:endpoint -> unit

(** Remove the partition and all one-way blocks. Probabilistic faults
    (drop/dup/delay/reorder) are separate knobs and survive [heal]. *)
val heal : t -> unit

(** P(message silently lost). *)
val set_drop : t -> float -> unit

(** P(second copy delivered). *)
val set_duplicate : t -> float -> unit

(** Seconds added to every hop. *)
val set_extra_delay : t -> float -> unit

(** [set_reorder t ~p ~window] delays each message, with probability
    [p], by an extra uniform [0, window) seconds — enough to overtake
    later traffic on the same link. NOTE: the coordination protocol
    assumes FIFO links for its read-your-own-writes routing; enabling
    reorder deliberately violates that assumption (see DESIGN.md §7). *)
val set_reorder : t -> p:float -> window:float -> unit

(** {2 Counters} *)

val sent : t -> int

(** Messages scheduled for delivery, duplicates included. *)
val delivered : t -> int

(** Messages lost to a partition, a one-way block, or drop probability. *)
val dropped : t -> int

val duplicated : t -> int
