(* Online resharding: grow (split) or shrink (merge) a sharded
   deployment's shard count while client traffic flows.

   [prepare_reshard] commits the new ring and returns the bounded-load
   remainder — the directory keys whose owner changes. Each key then
   moves through a four-step state machine, one key at a time:

     prepare  [begin_migration]: routed writes to the key park at the
              router; reads still go to the old owner. A short drain
              lets writes issued before the barrier commit on src.
     copy     the key's children (one directory's contents — the unit
              the parent-co-location invariant keeps on one shard) are
              bulk-read from src and created on dst; a create that hits
              an existing dst node is a stub promotion (set data).
     flip     [freeze_migration]: reads park too; src is synced and the
              listing re-read — any straggler that landed between copy
              and freeze is reconciled onto dst. Then the old owner's
              coherence state for the directory (armed watches, lease
              interests) is revoked — it would otherwise never fire
              again — and [finish_migration] flips the placement,
              releasing every parked op against the new owner.
     retire   src's copies are removed: a child with children still on
              src (its own kids key did not move) demotes to a stub;
              a childless one is deleted; src's key node itself is
              deleted once it is a childless stub.

   Stub accounting stays exact through every step (creates on dst count
   stub_creates for ensure-chain nodes, promotions count stub_deletes,
   demotions count stub_creates), so {!Shard_router.logical_population}
   is an invariant of the whole procedure — the census check the
   reshard experiment gates on.

   Keys are processed in batches only to amortize the drain sleep; the
   copy/flip/retire of each key completes before the next key starts,
   so at any instant at most one directory is in the ambiguous window,
   and [Shard_router.home_shard] (consulted to distinguish primaries
   from stubs on src) reflects physical reality. *)

type stats = {
  mutable keys_total : int;      (* keys assigned when the plan was cut *)
  mutable keys_migrated : int;   (* the bounded-load remainder *)
  mutable ephemerals_flattened : int;
  mutable errors : int;          (* unexpected per-node failures *)
}

(* split a list into chunks of [n] (last may be short) *)
let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let run ?(drain = 0.02) ?(batch = 64) t ~to_shards () =
  let rs = { keys_total = 0; keys_migrated = 0; ephemerals_flattened = 0; errors = 0 } in
  let router_stats = Shard_router.stats t in
  let pl = Shard_router.placement t in
  if to_shards > Shard_router.shard_count t then
    Shard_router.add_shards t (to_shards - Shard_router.shard_count t);
  let moves = Shard_router.prepare_reshard pl ~shards:to_shards in
  rs.keys_total <- Shard_router.keys_assigned pl;
  rs.keys_migrated <- List.length moves;
  (* The controller's own per-shard sessions, opened on demand. *)
  let sessions = Hashtbl.create 8 in
  let session i =
    match Hashtbl.find_opt sessions i with
    | Some h -> h
    | None ->
      let h = Shard_router.backend_session t i in
      Hashtbl.replace sessions i h;
      h
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        rs.errors <- rs.errors + 1;
        Shard_router.note_failure router_stats ("reshard: " ^ msg))
      fmt
  in
  (* Make [path] exist on [dst]'s tree; every node this creates is a
     stub (a primary already present would have made [exists] succeed). *)
  let rec ensure dst path =
    if path <> "/" then begin
      let h = session dst in
      match h.Zk_client.exists path with
      | Ok (Some _) -> ()
      | Ok None ->
        ensure dst (Zpath.parent path);
        (match h.Zk_client.create path ~data:"" with
         | Ok _ ->
           router_stats.Shard_router.stub_creates <-
             router_stats.Shard_router.stub_creates + 1
         | Error Zerror.ZNODEEXISTS -> ()
         | Error e ->
           fail "ensure %s on shard %d: %s" path dst (Zerror.to_string e))
      | Error e ->
        fail "ensure (exists) %s on shard %d: %s" path dst (Zerror.to_string e)
    end
  in
  let listing_of h key =
    match h.Zk_client.children_with_data key with
    | Ok l -> l
    | Error Zerror.ZNONODE -> []
    | Error e ->
      fail "list %s: %s" key (Zerror.to_string e);
      []
  in
  (* Copy one child onto dst; an existing node there is the child's
     stub (its own kids live on dst) being promoted to primary. *)
  let copy_child dst key (name, data, (st : Ztree.stat)) =
    let path = Zpath.concat key name in
    if st.Ztree.ephemeral_owner <> 0L then begin
      (* The owner session's ephemeral bookkeeping cannot follow the
         node across backends; it survives as a persistent node and is
         logged for Fsck-style review (DESIGN.md §10). *)
      rs.ephemerals_flattened <- rs.ephemerals_flattened + 1;
      Shard_router.note router_stats
        (Printf.sprintf "reshard: ephemeral %s flattened to persistent" path)
    end;
    match (session dst).Zk_client.create path ~data with
    | Ok _ -> ()
    | Error Zerror.ZNODEEXISTS ->
      (match (session dst).Zk_client.set path ~data with
       | Ok () ->
         router_stats.Shard_router.stub_deletes <-
           router_stats.Shard_router.stub_deletes + 1
       | Error e -> fail "promote %s: %s" path (Zerror.to_string e))
    | Error e -> fail "copy %s: %s" path (Zerror.to_string e)
  in
  (* After freeze: patch any straggler that committed between the copy
     pass and the freeze onto dst ([current] is the post-freeze src
     listing, [copied] the pre-freeze snapshot already on dst). *)
    let reconcile dst key ~copied ~current =
    let find name l =
      List.find_opt (fun (n, _, _) -> n = name) l
    in
    List.iter
      (fun ((name, data, _) as child) ->
        match find name copied with
        | None -> copy_child dst key child
        | Some (_, data0, _) when data0 <> data -> (
          match (session dst).Zk_client.set (Zpath.concat key name) ~data with
          | Ok () -> ()
          | Error e ->
            fail "reconcile set %s/%s: %s" key name (Zerror.to_string e))
        | Some _ -> ())
      current;
    List.iter
      (fun (name, _, _) ->
        if find name current = None then
          match (session dst).Zk_client.delete (Zpath.concat key name) with
          | Ok () | Error Zerror.ZNONODE -> ()
          | Error e ->
            fail "reconcile delete %s/%s: %s" key name (Zerror.to_string e))
      copied
  in
  (* Remove src's copies: a child whose own children still live on src
     demotes to a stub; a childless one is deleted outright. *)
  let retire src key current =
    let h = session src in
    List.iter
      (fun (name, _, _) ->
        let path = Zpath.concat key name in
        let has_children =
          match h.Zk_client.children path with
          | Ok (_ :: _) -> true
          | Ok [] | Error Zerror.ZNONODE -> false
          | Error e ->
            fail "retire (children) %s: %s" path (Zerror.to_string e);
            true (* when in doubt, keep the node *)
        in
        if has_children then begin
          match h.Zk_client.set path ~data:"" with
          | Ok () ->
            router_stats.Shard_router.stub_creates <-
              router_stats.Shard_router.stub_creates + 1
          | Error e -> fail "demote %s: %s" path (Zerror.to_string e)
        end
        else
          match h.Zk_client.delete path with
          | Ok () | Error Zerror.ZNONODE -> ()
          | Error e -> fail "retire %s: %s" path (Zerror.to_string e))
      current;
    (* src's key node: once childless it is a pure stub (the primary
       lives on [home_shard], which after this key's children left can
       only coincide with src if the primary genuinely lives there). *)
    if key <> "/" && Shard_router.home_shard t key <> src then begin
      match h.Zk_client.children key with
      | Ok [] ->
        (match h.Zk_client.delete key with
         | Ok () ->
           router_stats.Shard_router.stub_deletes <-
             router_stats.Shard_router.stub_deletes + 1
         | Error (Zerror.ZNONODE | Zerror.ZNOTEMPTY) -> ()
         | Error e -> fail "retire stub %s: %s" key (Zerror.to_string e))
      | Ok (_ :: _) | Error Zerror.ZNONODE -> ()
      | Error e -> fail "retire stub (children) %s: %s" key (Zerror.to_string e)
    end
  in
  let migrate_key (key, src, dst) =
    (* copy *)
    let h_src = session src in
    let copied = listing_of h_src key in
    if copied <> [] then begin
      ensure dst key;
      List.iter (copy_child dst key) copied
    end;
    (* flip *)
    Shard_router.freeze_migration pl key;
    h_src.Zk_client.sync ();
    let current = listing_of h_src key in
    if current <> [] then ensure dst key;
    reconcile dst key ~copied ~current;
    Shard_router.revoke_dir t ~shard:src key;
    Shard_router.finish_migration pl key ~dst;
    (* retire — after the flip so parked ops resume the moment the new
       owner is authoritative; src's leftovers are invisible to routing *)
    retire src key current
  in
  List.iter
    (fun group ->
      List.iter (fun (key, _, _) -> Shard_router.begin_migration pl key) group;
      if drain > 0. then Simkit.Process.sleep drain;
      (* one drain covers the whole batch; keys then move one at a time *)
      List.iter migrate_key group)
    (chunks batch moves);
  Hashtbl.iter (fun _ (h : Zk_client.handle) -> h.Zk_client.close ()) sessions;
  rs

let split ?drain ?batch t ~to_shards () =
  if to_shards <= Shard_router.placement_shards (Shard_router.placement t) then
    invalid_arg "Reshard.split: to_shards must exceed the current count";
  run ?drain ?batch t ~to_shards ()

let merge ?drain ?batch t ~to_shards () =
  if to_shards >= Shard_router.placement_shards (Shard_router.placement t) then
    invalid_arg "Reshard.merge: to_shards must be below the current count";
  if to_shards < 1 then invalid_arg "Reshard.merge: to_shards < 1";
  run ?drain ?batch t ~to_shards ()
