(** GIGA+-style distributed directory indexing (Patil et al., PDSW'07) —
    the alternative design the paper's related work weighs against DUFS
    (§VI): a single huge directory is split into partitions by extensible
    hashing, each server manages only its own partitions with *no shared
    state*, and clients are allowed arbitrarily stale partition maps —
    servers simply redirect them and piggyback fresher map bits.

    The trade-off the paper points out: no synchronization bottleneck, so
    inserts into one directory scale with servers; but partition state is
    unreplicated, so "if the server or the partition goes down ... the
    files are not accessible anymore". Both sides are measurable here
    ([create_file] scaling in the `ablation-giga` bench, and
    {!available_fraction} under {!crash_server}). *)

type config = {
  servers : int;
  split_threshold : int;   (** entries per partition before it splits *)
  max_radix : int;         (** bound on splits: at most 2^max_radix partitions *)
  net_latency : float;
  insert_service : float;
  lookup_service : float;
  split_entry_cost : float; (** per entry migrated during a split *)
  server_threads : int;
}

val default_config : servers:int -> config

type t

val create : Simkit.Engine.t -> ?config:config -> unit -> t

(** {2 Clients}

    A client caches the partition bitmap; it may be stale. Operations run
    from a simulation process; addressing mistakes cost an extra hop and
    return fresher map bits (counted in {!redirects}). *)

type client

val client : t -> client

(** [create_file client name] — insert [name] into the (single, huge)
    indexed directory. *)
val create_file : client -> string -> (unit, [ `Exists | `Unavailable ]) result

(** [lookup client name] — is [name] present? [`Unavailable] if the
    owning partition's server is down. *)
val lookup : client -> string -> (bool, [ `Unavailable ]) result

(** Redirections this client suffered from stale map bits. *)
val redirects : client -> int

(** {2 Introspection and fault injection} *)

val partition_count : t -> int
val total_entries : t -> int

(** Entries per partition, for balance checks. *)
val partition_sizes : t -> (int * int) list

val crash_server : t -> int -> unit
val restart_server : t -> int -> unit

(** Fraction of inserted names still reachable (their partition's server
    is alive) — the availability cost of unreplicated partitions. *)
val available_fraction : t -> float
