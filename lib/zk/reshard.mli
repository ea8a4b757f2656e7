(** Online resharding: change a {!Shard_router} deployment's shard
    count while client traffic flows.

    Only the bounded-load remainder moves: {!Shard_router.prepare_reshard}
    replays the assigned directory keys over the new ring and the
    controller migrates exactly the keys whose owner changed, each
    through a prepare / copy / flip / retire state machine (DESIGN.md
    §10). While a key migrates, routed writes to it park at the router;
    once the copy freezes, reads park too, the old owner's watch and
    lease state for the directory is revoked, and the placement flips —
    parked ops resume against the new owner. Stub accounting stays
    exact throughout, so {!Shard_router.logical_population} is an
    invariant of the procedure.

    On a simulated deployment ({!Shard_router.start}) the controller
    must run inside a simulation process — its per-shard sessions block
    on RPCs and it sleeps [drain] between the write barrier and the
    copy. On an immediate-mode deployment ({!Shard_router.local}) pass
    [~drain:0.] and it runs synchronously. *)

type stats = {
  mutable keys_total : int;      (** keys assigned when the plan was cut *)
  mutable keys_migrated : int;   (** the bounded-load remainder *)
  mutable ephemerals_flattened : int;
      (** ephemeral children copied as persistent (logged as orphan
          notes for Fsck-style review) *)
  mutable errors : int;          (** unexpected per-node failures (also
                                     noted via [note_failure]) *)
}

(** [split ?drain ?batch t ~to_shards ()] grows the deployment to
    [to_shards] shards, booting the new backends. [drain] (default 0.02
    sim seconds) is slept once per batch after the write barrier so
    writes issued before it commit on the old owner; [batch] (default
    64) bounds how many keys share one drain — keys still migrate one
    at a time.
    @raise Invalid_argument if the count does not grow or a migration
    is open. *)
val split :
  ?drain:float -> ?batch:int -> Shard_router.t -> to_shards:int -> unit ->
  stats

(** {!split}'s procedure for a count that shrinks; the drained
    backends stay in place, empty.
    @raise Invalid_argument if the count does not shrink, [to_shards < 1]
    or a migration is open. *)
val merge :
  ?drain:float -> ?batch:int -> Shard_router.t -> to_shards:int -> unit ->
  stats
