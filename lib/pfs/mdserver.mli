(** A metadata-server queueing station.

    Models one server: a bounded pool of request handlers in front of a
    service queue, with load-dependent service-time inflation ("thrash":
    lock-state growth, handler contention and backing-filesystem seeks as
    the queue deepens). Shared by the Lustre MDS and the PVFS2 metadata
    servers. *)

type t

val create :
  Simkit.Engine.t ->
  threads:int ->
  thrash:float ->
  net_latency:float ->
  unit ->
  t

(** [request t ~service ~extra f] performs one client RPC from the calling
    simulation process: client→server latency, queueing for a handler,
    [extra + service * (1 + thrash * queue-at-arrival)] of service time,
    then [f ()] (the actual state change, instantaneous), then the reply
    latency. Returns [f]'s result. *)
val request : t -> service:float -> ?extra:float -> (unit -> 'a) -> 'a

(** Total requests served. *)
val served : t -> int

(** Handler-queue wait vs in-service (hold) time distributions, from the
    underlying {!Simkit.Resource} — the wait-vs-service split behind
    every latency this station reports. *)
val wait_summary : t -> Simkit.Stat.Summary.t

val hold_summary : t -> Simkit.Stat.Summary.t
