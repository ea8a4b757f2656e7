type handle = {
  create :
    ?ephemeral:bool -> ?sequential:bool -> string -> data:string ->
    (string, Zerror.t) result;
  get : string -> (string * Ztree.stat, Zerror.t) result;
  set : ?version:int -> string -> data:string -> (unit, Zerror.t) result;
  delete : ?version:int -> string -> (unit, Zerror.t) result;
  exists : string -> (Ztree.stat option, Zerror.t) result;
  children : string -> (string list, Zerror.t) result;
  children_with_data :
    string -> ((string * string * Ztree.stat) list, Zerror.t) result;
  children_with_data_watch :
    string -> (Ztree.watch_event -> unit) ->
    ((string * string * Ztree.stat) list, Zerror.t) result;
  multi : Txn.t -> (Txn.result_item list, Zerror.t) result;
  multi_async : Txn.t -> ((Txn.result_item list, Zerror.t) result -> unit) -> unit;
  watch_data : string -> (Ztree.watch_event -> unit) -> unit;
  watch_children : string -> (Ztree.watch_event -> unit) -> unit;
  get_watch :
    string -> (Ztree.watch_event -> unit) -> (string * Ztree.stat, Zerror.t) result;
  children_watch :
    string -> (Ztree.watch_event -> unit) -> (string list, Zerror.t) result;
  (* {2 Lease coherence} — reads that grant a time-bounded lease instead
     of arming a per-znode watch. The [float] is the lease deadline on
     the sim clock; [None] from [lease_get] is a leased negative result
     (node absent). Revocations before the deadline arrive through the
     session's single [set_invalidation] callback. *)
  lease_get :
    string -> ((string * Ztree.stat) option * float, Zerror.t) result;
  lease_children : string -> (string list * float, Zerror.t) result;
  lease_children_with_data :
    string -> ((string * string * Ztree.stat) list * float, Zerror.t) result;
  set_invalidation : (Lease.revocation -> unit) -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  session_id : int64;
}

let create_op ?(ephemeral = 0L) ?(sequential = false) path ~data =
  Txn.Create { path; data; ephemeral_owner = ephemeral; sequential }

let delete_op ?(version = -1) path = Txn.Delete { path; expected_version = version }

let set_op ?(version = -1) path ~data =
  Txn.Set_data { path; data; expected_version = version }

let check_op ?(version = -1) path = Txn.Check { path; expected_version = version }
