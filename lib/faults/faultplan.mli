(** Declarative fault schedules for the replicated metadata ensemble.

    A plan is a list of timed crash/restart events. Each event fires at
    an absolute virtual time or at an offset after a named workload
    phase begins (the [?on_phase] hook of {!Mdtest.Runner.run} supplies
    the phase notifications). [arm_shards] turns the plan into engine events,
    so a benchmark runs unchanged while servers fail underneath it.

    Textual grammar ([parse] / [to_string] are inverses on canonical
    forms; [parse] additionally accepts "ms"/"us"/"s" suffixes on
    durations, which [to_string] prints as bare seconds):

    {v
    plan   ::= event (";" event)*
    event  ::= action "@" anchor
    action ::= "crash=" <id> | "restart=" <id>
             | "crash=" <shard> "/" <id> | "restart=" <shard> "/" <id>
             | "crash-leader" | "crash-leader@shard=" <shard>
             | "restart-all"
             | "partition=" [<shard> "/"] <group> ("|" <group>)*
             | "heal" | "heal@shard=" <shard>
             | "drop="  [<shard> "/"] <probability>
             | "delay+=" [<shard> "/"] <duration>
             | "dup="   [<shard> "/"] <probability>
             | "reorder=" [<shard> "/"] <probability> ":" <duration>
             | "torn-tail="    [<shard> "/"] <id>
             | "corrupt-wal="  [<shard> "/"] <id> ":" <probability>
             | "corrupt-snap=" [<shard> "/"] <id>
             | "disk-stall="   [<shard> "/"] <id> ":" <duration>
             | "fsync-delay+=" [<shard> "/"] <id> ":" <duration>
    group  ::= <id> ("," <id>)*
    anchor ::= <seconds> | <phase-name> | <phase-name> "+" <seconds>
    v}

    Network actions drive the target ensemble's {!Simkit.Net} fault
    state: [partition] installs a symmetric split (members not named
    form the implicit other side, and clients ride with their home
    server), [drop]/[dup]/[delay+]/[reorder] set the probabilistic
    knobs, and [heal] restores the network completely — partition gone
    {e and} every probabilistic knob back to zero (["heal"] heals every
    shard; ["heal@shard=k"] just one).

    Storage actions drive one member's {!Zk.Wal} fault state and are
    deliberately per-server (a media fault hits one disk, not the
    ensemble): [torn-tail] tears the newest WAL record, [corrupt-wal]
    bit-rots roughly the given fraction of records (hash-selected, no
    RNG draw), [corrupt-snap] corrupts the newest snapshot,
    [disk-stall] fail-stops the WAL device for the duration, and
    [fsync-delay+] permanently adds fail-slow latency to every fsync.
    None of them is emitted by {!chaos} — storage schedules are built
    explicitly by the durability experiment so the PR 5 chaos replays
    stay byte-identical.

    The anchor follows the {e last} ["@"] of an event, so the sharded
    ["crash-leader@shard=2@file-create+0.05"] parses as expected; plans
    written for single-ensemble deployments parse unchanged (a bare
    server id or ["crash-leader"] addresses shard 0, and
    ["restart-all"] restarts every down server of {e every} shard).

    e.g. ["crash-leader@file-create+0.05;restart-all@file-create+1.5"]
    crashes whoever leads 50 ms into the file-create phase and restarts
    every down server 1.5 s into it. *)

type action =
  | Crash of int        (** crash server [id] (shard 0) *)
  | Restart of int      (** restart server [id] (no-op if alive) *)
  | Crash_leader        (** crash shard 0's leader, resolved at fire time *)
  | Restart_all_down    (** restart every down server on every shard *)
  | Crash_on of int * int    (** crash server [id] of shard [s] *)
  | Restart_on of int * int  (** restart server [id] of shard [s] *)
  | Crash_leader_of of int   (** crash shard [s]'s current leader *)
  | Partition of int option * int list list
      (** symmetric partition of the shard's members ([None] = shard 0) *)
  | Heal of int option  (** restore the network ([None] = every shard) *)
  | Drop of int option * float       (** P(message lost) *)
  | Delay of int option * float      (** seconds added to every hop *)
  | Duplicate of int option * float  (** P(message delivered twice) *)
  | Reorder of int option * float * float
      (** (probability, window): see {!Simkit.Net.set_reorder} — this
          knowingly violates the protocol's FIFO-link assumption *)
  | Torn_tail of int option * int
      (** tear server [id]'s newest WAL record *)
  | Corrupt_wal of int option * int * float
      (** bit-rot [fraction] of server [id]'s WAL records *)
  | Corrupt_snap of int option * int
      (** corrupt server [id]'s newest snapshot *)
  | Disk_stall of int option * int * float
      (** fail-stop server [id]'s WAL device for the duration *)
  | Fsync_delay of int option * int * float
      (** fail-slow: add seconds to every fsync of server [id] *)

type anchor =
  | At of float                   (** absolute virtual time, seconds *)
  | After_phase of string * float (** seconds after the named phase begins *)

type event = {
  anchor : anchor;
  action : action;
}

type t = event list

val parse : string -> (t, string) result
val to_string : t -> string

(** A plan instantiated against one engine + deployment. *)
type armed

(** [arm_shards engine ensembles plan] schedules every [At] event now
    and holds the [After_phase] events until {!notify_phase} names their
    phase. [ensembles.(s)] is shard [s] (e.g.
    {!Zk.Shard_router.ensembles}; an unsharded ensemble [e] is
    [[| e |]]). Unqualified actions address shard 0; an event naming a
    shard the deployment does not have raises [Invalid_argument] at
    fire time. *)
val arm_shards : Simkit.Engine.t -> Zk.Ensemble.t array -> t -> armed

(** [notify_phase armed name] — a workload phase named [name] is
    starting; its pending events are scheduled at their offsets. Wire
    this to {!Mdtest.Runner.run}'s [?on_phase] via
    {!Mdtest.Runner.phase_to_string}. *)
val notify_phase : armed -> string -> unit

(** Events executed so far. *)
val fired : armed -> int

(** [chaos ~seed ~servers ~start ~heal_at ~events ()] emits a
    seed-deterministic random schedule: [events] faults (partitions,
    loss, extra delay, duplication, crashes, mid-run heals and
    restarts) at sorted random times in [[start, heal_at)], closed by a
    full ["heal"] and ["restart-all"] at [heal_at]. With [shards > 1]
    the network and crash faults are shard-qualified at random. Reorder
    is deliberately excluded (FIFO-link assumption; DESIGN.md §7).
    Identical arguments produce identical plans. *)
val chaos :
  seed:int64 ->
  servers:int ->
  ?shards:int ->
  start:float ->
  heal_at:float ->
  events:int ->
  unit ->
  t
