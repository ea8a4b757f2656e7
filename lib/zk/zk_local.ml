type t = {
  tree : Ztree.t;
  clock : unit -> float;
  leases : Lease.t;
  mutable next_zxid : int64;
  mutable next_session : int64;
}

let create ?(clock = fun () -> 0.) ?(lease_ttl = 5.0) () =
  let tree = Ztree.create () in
  { tree;
    clock;
    leases = Lease.create ~now:clock ~ttl:lease_ttl;
    next_zxid = 1L;
    next_session = 1L }

let tree t = t.tree
let leases t = t.leases
let server_resident_bytes t = Memory_model.server_resident_bytes t.tree

(* Ownership flip (online resharding): [dir]'s contents now live on
   another backend, so coherence state parked here for it is stale. *)
let revoke_dir t dir =
  ignore (Ztree.fire_data_watches_under t.tree ~dir);
  ignore (Ztree.fire_child_watches t.tree dir);
  let children =
    match Ztree.children t.tree dir with
    | Ok names -> List.map (Zpath.concat dir) names
    | Error _ -> []
  in
  ignore (Lease.revoke_dir t.leases ~children dir)

let submit t txn =
  let zxid = t.next_zxid in
  match Ztree.apply t.tree ~zxid ~time:(t.clock ()) txn with
  | Ok results as ok ->
    t.next_zxid <- Int64.add zxid 1L;
    Lease.revoke_txn t.leases txn results;
    ok
  | Error _ as e -> e

let session t =
  let session_id = t.next_session in
  t.next_session <- Int64.add session_id 1L;
  let create ?(ephemeral = false) ?(sequential = false) path ~data =
    let owner = if ephemeral then session_id else 0L in
    match submit t [ Zk_client.create_op ~ephemeral:owner ~sequential path ~data ] with
    | Ok [ Txn.Created actual ] -> Ok actual
    | Ok _ -> Error Zerror.ZBADARGUMENTS
    | Error _ as e -> e
  in
  let set ?(version = -1) path ~data =
    Result.map ignore (submit t [ Zk_client.set_op ~version path ~data ])
  in
  let delete ?(version = -1) path =
    Result.map ignore (submit t [ Zk_client.delete_op ~version path ])
  in
  let close () =
    Lease.drop_session t.leases session_id;
    List.iter
      (fun path -> ignore (submit t [ Zk_client.delete_op path ]))
      (Ztree.ephemerals_of t.tree ~owner:session_id)
  in
  (* One revocation callback per session; lease reads route through it.
     The indirection lets the client install its handler after the
     handle is built. *)
  let invalidation = ref (fun (_ : Lease.revocation) -> ()) in
  let notify event = !invalidation event in
  let lease dir = Lease.grant t.leases ~session:session_id ~dir ~notify in
  { Zk_client.create;
    get = (fun path -> Ztree.get t.tree path);
    set;
    delete;
    exists = (fun path -> Ok (Ztree.exists t.tree path));
    children = (fun path -> Ztree.children t.tree path);
    children_with_data = (fun path -> Ztree.children_with_data t.tree path);
    children_with_data_watch =
      (fun path cb ->
        Ztree.watch_children t.tree path cb;
        match Ztree.children_with_data t.tree path with
        | Ok entries ->
          List.iter
            (fun (name, _, _) ->
              Ztree.watch_data t.tree (Zpath.concat path name) cb)
            entries;
          Ok entries
        | Error _ as e -> e);
    multi = submit t;
    multi_async = (fun txn callback -> callback (submit t txn));
    watch_data = (fun path cb -> Ztree.watch_data t.tree path cb);
    watch_children = (fun path cb -> Ztree.watch_children t.tree path cb);
    get_watch =
      (fun path cb ->
        Ztree.watch_data t.tree path cb;
        Ztree.get t.tree path);
    children_watch =
      (fun path cb ->
        Ztree.watch_children t.tree path cb;
        Ztree.children t.tree path);
    lease_get =
      (fun path ->
        let deadline = lease (Zpath.parent path) in
        match Ztree.get t.tree path with
        | Ok (data, stat) -> Ok (Some (data, stat), deadline)
        | Error Zerror.ZNONODE -> Ok (None, deadline)
        | Error _ as e -> e);
    lease_children =
      (fun path ->
        match Ztree.children t.tree path with
        | Ok names -> Ok (names, lease path)
        | Error _ as e -> e);
    lease_children_with_data =
      (fun path ->
        match Ztree.children_with_data t.tree path with
        | Ok entries -> Ok (entries, lease path)
        | Error _ as e -> e);
    set_invalidation = (fun cb -> invalidation := cb);
    sync = (fun () -> ());
    close;
    session_id }
