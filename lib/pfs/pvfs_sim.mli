(** PVFS2 filesystem simulator: hash-partitioned userspace metadata
    servers, no client caching, no locks. Creates touch two servers
    (directory entry + datafile handles), and every operation is a full
    round trip to a userspace server with synchronous metadata commits —
    which is what makes PVFS2's absolute metadata rates far lower than
    Lustre's in the paper (factor ≈ 23 on creates at 256 procs). *)

type config = {
  net_latency : float;
  meta_servers : int;       (** servers the handle space is split over *)
  server_threads : int;
  mkdir_service : float;
  rmdir_service : float;
  create_service : float;   (** charged on each of the two create visits *)
  unlink_service : float;
  getattr_service : float;
  readdir_service : float;
  setattr_service : float;
  rename_service : float;
  thrash : float;
  namespace_penalty : float;
  data_bandwidth : float;
}

val default_config : unit -> config
val backend_config : unit -> config

type t

val create : Simkit.Engine.t -> ?config:config -> unit -> t
val client : t -> client_id:int -> Fuselike.Vfs.ops
val local_ops : t -> Fuselike.Vfs.ops

(** Requests served per metadata server. *)
val served_per_server : t -> int array

(** Per-server handler-queue wait vs service (hold) time distributions. *)
val wait_summaries : t -> Simkit.Stat.Summary.t array

val hold_summaries : t -> Simkit.Stat.Summary.t array
