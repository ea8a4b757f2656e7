(** Lustre filesystem simulator: one MDS (with DLM directory locks and
    load-dependent thrashing) plus an OSS pool, over an in-memory
    namespace. The comparison baseline of the paper's evaluation, and the
    back-end storage behind DUFS-over-Lustre. *)

type config = {
  net_latency : float;
  mds_threads : int;
  mkdir_service : float;
  rmdir_service : float;
  create_service : float;
  unlink_service : float;
  getattr_service : float;
  readdir_service : float;
  setattr_service : float;
  rename_service : float;
  oss_create : float;       (** object preallocation charged to create *)
  lock_revoke : float;      (** DLM lock ownership change penalty *)
  thrash : float;
  namespace_penalty : float;
      (** multiplier for DUFS back-end mounts (deep hashed namespace,
          cold dentries); 1.0 for a native mount *)
  oss_bandwidth : float;    (** bytes/second for read/write payloads *)
}

(** Native-mount configuration from {!Costs.Lustre}. *)
val default_config : unit -> config

(** {!default_config} with the hashed-namespace penalty applied — the
    configuration for a mount used as DUFS back-end storage. *)
val backend_config : unit -> config

type t

(** One filesystem instance (its own MDS, OSS and namespace). *)
val create : Simkit.Engine.t -> ?config:config -> unit -> t


(** [client t ~client_id] — simulation-mode ops for one client process;
    every call charges network + MDS/OSS time to the calling process.
    [client_id] identifies the DLM lock owner. *)
val client : t -> client_id:int -> Fuselike.Vfs.ops

(** Zero-cost direct ops (setup/verification outside the simulation). *)
val local_ops : t -> Fuselike.Vfs.ops

(** Observed DLM lock-revoke count (lock ping-pong between clients). *)
val lock_revokes : t -> int

(** Requests served by the MDS. *)
val mds_served : t -> int

(** MDS handler-queue wait vs service (hold) time distributions. *)
val mds_wait_summary : t -> Simkit.Stat.Summary.t

val mds_hold_summary : t -> Simkit.Stat.Summary.t
