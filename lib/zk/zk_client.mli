(** The client-side coordination API (ZooKeeper synchronous bindings).

    A {!handle} is a record of closures so that the same caller code (the
    DUFS client, tests, examples) runs unchanged against {!Zk_local}
    (immediate, single process) or {!Ensemble} (replicated servers on the
    simulator, where each call blocks the calling simulation process). *)

type handle = {
  create :
    ?ephemeral:bool -> ?sequential:bool -> string -> data:string ->
    (string, Zerror.t) result;
      (** Returns the actual path created (sequential suffix resolved). *)
  get : string -> (string * Ztree.stat, Zerror.t) result;
  set : ?version:int -> string -> data:string -> (unit, Zerror.t) result;
  delete : ?version:int -> string -> (unit, Zerror.t) result;
  exists : string -> (Ztree.stat option, Zerror.t) result;
      (** [Ok None] means the service answered and the node is absent;
          transport failures (timeout, connection loss) surface as
          [Error] instead of masquerading as "no such node". *)
  children : string -> (string list, Zerror.t) result;
  children_with_data :
    string -> ((string * string * Ztree.stat) list, Zerror.t) result;
      (** Bulk readdir: [(name, data, stat)] for every child, sorted by
          name, in one server visit — N+1 round-trips become 1. *)
  children_with_data_watch :
    string -> (Ztree.watch_event -> unit) ->
    ((string * string * Ztree.stat) list, Zerror.t) result;
      (** [children_with_data] that additionally arms, in the same server
          visit, a child watch on the parent plus a data watch on every
          listed child — so a cache can warm per-child entries from the
          bulk result and still hear about their invalidation. The
          callback dispatches on the event's [path]/[kind]. *)
  multi : Txn.t -> (Txn.result_item list, Zerror.t) result;
      (** Atomic multi-op transaction (all-or-nothing). *)
  multi_async :
    Txn.t -> ((Txn.result_item list, Zerror.t) result -> unit) -> unit;
      (** Asynchronous submission (the zoo_amulti-style API): returns
          immediately; the callback fires on completion. Lets one client
          keep several writes in flight — the pipelining the paper's
          prototype forgoes by using the synchronous API (§IV-D). *)
  watch_data : string -> (Ztree.watch_event -> unit) -> unit;
  watch_children : string -> (Ztree.watch_event -> unit) -> unit;
  get_watch :
    string -> (Ztree.watch_event -> unit) -> (string * Ztree.stat, Zerror.t) result;
      (** Read and arm a data watch in one server visit — ZooKeeper's
          watch piggybacking. The watch is armed whether or not the node
          exists (an exists-watch fires on creation). *)
  children_watch :
    string -> (Ztree.watch_event -> unit) -> (string list, Zerror.t) result;
      (** List children and arm a child watch in one server visit. *)
  lease_get :
    string -> ((string * Ztree.stat) option * float, Zerror.t) result;
      (** Read [path] under lease coherence: the server registers (or
          refreshes) this session's interest in [path]'s parent
          directory and stamps the reply with a lease deadline on the
          sim clock. Until that deadline the client may serve the value
          locally; committed changes to the directory revoke early via
          the {!field-set_invalidation} channel. [Ok (None, d)] is a
          leased negative result (node absent). One session-level
          interest per directory — zero per-znode server state. *)
  lease_children : string -> (string list * float, Zerror.t) result;
      (** Leased listing: interest registered on the directory itself. *)
  lease_children_with_data :
    string -> ((string * string * Ztree.stat) list * float, Zerror.t) result;
      (** Leased bulk readdir: one server visit returns every child's
          [(name, data, stat)] plus one lease deadline covering the
          listing and all per-child entries warmed from it. *)
  set_invalidation : (Lease.revocation -> unit) -> unit;
      (** Install the session's single aggregated invalidation callback:
          every early lease revocation (any committed change under a
          leased directory) is delivered through it, tagged with the
          changed path, its parent directory and the event kind. Client-side only; replaces the
          per-znode watch fan-in. *)
  sync : unit -> unit;
      (** Flush the leader→replica pipeline for this session's server. *)
  close : unit -> unit;
      (** End the session; the service deletes its ephemeral nodes. *)
  session_id : int64;
}

(** [create_op ?ephemeral ?sequential path ~data] builds the {!Txn.op}
    matching [handle.create] — convenience for assembling multis. *)
val create_op : ?ephemeral:int64 -> ?sequential:bool -> string -> data:string -> Txn.op

val delete_op : ?version:int -> string -> Txn.op
val set_op : ?version:int -> string -> data:string -> Txn.op
val check_op : ?version:int -> string -> Txn.op
