module Zk_client = Zk.Zk_client
module Zerror = Zk.Zerror
module Zpath = Zk.Zpath

type coherence = Leases

(* Every cached value carries the lease deadline before which it may be
   served locally. *)
type 'a entry = {
  value : 'a;
  lease_until : float;
}

(* Exact LRU over an intrusive hash table. Each node is at once a link
   of a circular doubly-linked list through a sentinel, oldest first
   ([sentinel.next]) to newest ([sentinel.prev]), and a link of its
   bucket's chain, and it keeps its key's {!Zpath.hash}. A cache op
   hashes its path once and passes the hash down; a revocation arrives
   with its paths' hashes. A probe compares the stored hash before the
   key, so a miss (most revocation probes miss) rarely reads a string;
   a removal or an eviction finds the node's chain through the stored
   hash, never re-hashing. Chains end at the sentinel, built from a
   dummy value, so no node ever holds an option and a miss answers the
   sentinel itself. The bucket array is a power of two that starts at
   one bucket and doubles when the store holds as many nodes as
   buckets, re-bucketing from the stored hashes: a 100k-session sweep
   builds two stores per session, so pre-sizing for the capacity would
   be ~100x waste. *)
type 'a node = {
  key : string;
  hash : int;
  mutable entry : 'a entry;
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable chain : 'a node;
}

type 'a store = {
  capacity : int;
  mutable buckets : 'a node array;
  mutable size : int;
  sentinel : 'a node;
}

let store_create capacity dummy =
  let rec sentinel =
    { key = ""; hash = -1;
      entry = { value = dummy; lease_until = neg_infinity };
      prev = sentinel; next = sentinel; chain = sentinel }
  in
  { capacity; buckets = Array.make 1 sentinel; size = 0; sentinel }

let bucket store hash = hash land (Array.length store.buckets - 1)

let rec chain_find sentinel key hash node =
  if node == sentinel || (node.hash = hash && String.equal node.key key) then
    node
  else chain_find sentinel key hash node.chain

(* the node cached under [key], or the sentinel *)
let store_find store key hash =
  chain_find store.sentinel key hash store.buckets.(bucket store hash)

(* [node] is on the chain after [pred]; reaching the chain's end would
   mean the table lost it, so fail there rather than loop on the
   sentinel *)
let rec chain_unlink_after sentinel pred node =
  if pred.chain == node then pred.chain <- node.chain
  else if pred.chain == sentinel then assert false
  else chain_unlink_after sentinel pred.chain node

let chain_unlink store node =
  let i = bucket store node.hash in
  let first = store.buckets.(i) in
  if first == node then store.buckets.(i) <- node.chain
  else chain_unlink_after store.sentinel first node

(* walks the LRU list from [node] to the sentinel *)
let rec rebucket buckets mask sentinel node =
  if node != sentinel then begin
    let i = node.hash land mask in
    node.chain <- buckets.(i);
    buckets.(i) <- node;
    rebucket buckets mask sentinel node.next
  end

let grow store =
  let n = 2 * Array.length store.buckets in
  let buckets = Array.make n store.sentinel in
  rebucket buckets (n - 1) store.sentinel store.sentinel.next;
  store.buckets <- buckets

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let link_newest store node =
  let s = store.sentinel in
  node.prev <- s.prev;
  node.next <- s;
  s.prev.next <- node;
  s.prev <- node

(* a hit: [node] becomes the newest *)
let store_touch store node =
  if store.sentinel.prev != node then begin
    unlink node;
    link_newest store node
  end

let store_drop store node =
  unlink node;
  chain_unlink store node;
  store.size <- store.size - 1

(* A full store evicts its oldest before adding, so it never holds more
   than [capacity] nodes. *)
let store_put store path hash entry =
  let node = store_find store path hash in
  if node != store.sentinel then begin
    node.entry <- entry;
    store_touch store node
  end
  else begin
    if store.size = store.capacity then store_drop store store.sentinel.next;
    if store.size = Array.length store.buckets then grow store;
    let i = bucket store hash in
    let rec node =
      { key = path; hash; entry; prev = node; next = node;
        chain = store.buckets.(i) }
    in
    store.buckets.(i) <- node;
    store.size <- store.size + 1;
    link_newest store node
  end

(* whether [path] was cached *)
let store_remove store path hash =
  let node = store_find store path hash in
  if node == store.sentinel then false
  else begin
    store_drop store node;
    true
  end

(* the keys on the list, oldest first, walked from the sentinel *)
let store_keys store =
  let rec walk node acc =
    if node == store.sentinel then acc else walk node.prev (node.key :: acc)
  in
  walk store.sentinel.prev []

type data_entry =
  | Present of string * Zk.Ztree.stat
  | Absent

(* [fills] reference-counts the fills of the path in flight, so
   concurrent fills share one counter and each sees every invalidation
   that lands before it returns. *)
type fence = {
  mutable fills : int;
  mutable gen : int;
}

type t = {
  inner : Zk_client.handle;
  now : unit -> float;
  data : data_entry store;
  kids : string list store;
  (* Fill fences (the stale re-fill fix): the race window is "entry's
     invalidation consumed while a fill's reply is still in flight", when
     the store has nothing under the path — so a fence exists exactly
     while a fill of its path is in flight, and every invalidation of
     the path bumps it. A fill snapshots the fence's counter before going
     to the server and stores only if it is unchanged on return.
     [epoch] counts every invalidation, fencing bulk fills whose child
     set is unknown before the reply. *)
  data_fences : (string, fence) Hashtbl.t;
  kids_fences : (string, fence) Hashtbl.t;
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable lease_expired_hits : int;
  expired_counter : Simkit.Stat.Counter.t option;
  mutable wrapped : Zk_client.handle option;
}

let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let lease_expired_hits t = t.lease_expired_hits
let size t = t.data.size + t.kids.size
let lru_order t = (store_keys t.data, store_keys t.kids)

let queue_length t =
  let data, kids = lru_order t in
  List.length data + List.length kids

let open_fences t = Hashtbl.length t.data_fences + Hashtbl.length t.kids_fences

(* With no fill in flight — the common case — an invalidation costs a
   length check. The fence tables hash the path themselves: probing them
   by the cache op's hash, as the stores do, measured no faster. *)
let bump t fences path =
  if Hashtbl.length fences > 0 then
    (match Hashtbl.find_opt fences path with
     | Some fence -> fence.gen <- fence.gen + 1
     | None -> ());
  t.epoch <- t.epoch + 1

let open_fence fences path =
  match Hashtbl.find_opt fences path with
  | Some fence ->
    fence.fills <- fence.fills + 1;
    fence
  | None ->
    let fence = { fills = 1; gen = 0 } in
    Hashtbl.replace fences path fence;
    fence

(* [true] iff no invalidation of [path] landed since [gen] was read. A
   fill whose process is abandoned mid-visit never closes its fence; the
   fence then stays open, which costs one small record and never lets a
   later fill store anything a closed fence would have refused. *)
let close_fence fences path fence gen =
  fence.fills <- fence.fills - 1;
  if fence.fills = 0 then Hashtbl.remove fences path;
  fence.gen = gen

let invalidate_data t path hash =
  bump t t.data_fences path;
  if store_remove t.data path hash then t.invalidations <- t.invalidations + 1

let invalidate_children t path hash =
  bump t t.kids_fences path;
  if store_remove t.kids path hash then t.invalidations <- t.invalidations + 1

(* A change to [path] changes its own entry and its parent's child list;
   for deletes, also any cached children list of the node itself. *)
let invalidate_node t path hash parent parent_hash =
  invalidate_data t path hash;
  invalidate_children t path hash;
  invalidate_children t parent parent_hash

let invalidate_mutation t path =
  let parent = Zpath.parent path in
  invalidate_node t path (Zpath.hash path) parent (Zpath.hash parent)

(* A multi touches every op's requested path; a sequential create
   materializes under a different name, which is invalidated too. *)
let invalidate_txn t txn result =
  List.iter (fun op -> invalidate_mutation t (Zk.Txn.op_path op)) txn;
  match result with
  | Ok items ->
    List.iter
      (function
        | Zk.Txn.Created actual -> invalidate_mutation t actual
        | Zk.Txn.Deleted | Zk.Txn.Data_set | Zk.Txn.Checked -> ())
      items
  | Error _ -> ()

(* The lease revocation channel: one aggregated callback per session,
   dispatching on the changed path, where a per-znode protocol would arm
   one watch per cached entry. The server derived the path's parent and
   both hashes. *)
let on_revocation t (ev : Zk.Lease.revocation) =
  match ev.kind with
  | Zk.Ztree.Node_data_changed -> invalidate_data t ev.path ev.path_hash
  | Zk.Ztree.Node_created | Zk.Ztree.Node_deleted ->
    (* creation also kills leased negative entries; deletion also kills
       any cached listing of the node itself *)
    invalidate_node t ev.path ev.path_hash ev.parent ev.parent_hash
  | Zk.Ztree.Node_children_changed ->
    invalidate_children t ev.path ev.path_hash

(* A leased entry is served locally only before its deadline; at or past
   it the entry no longer carries any coherence guarantee (the serving
   replica may have died with the lease table) and must be re-fetched —
   which re-grants the lease in the same round trip. *)
let entry_live t entry = t.now () < entry.lease_until

let note_expired t =
  t.lease_expired_hits <- t.lease_expired_hits + 1;
  Option.iter Simkit.Stat.Counter.incr t.expired_counter

(* {2 Fills}

   Each fill opens the path's fence before the server visit and stores
   only if no invalidation arrived while the reply was in flight. The
   reply's lease deadline becomes the entry's. A lookup hashes its path
   once, and the store reuses that hash. *)

let fill_get t path hash =
  let fence = open_fence t.data_fences path in
  let gen = fence.gen in
  let result = t.inner.Zk_client.lease_get path in
  let fresh = close_fence t.data_fences path fence gen in
  match result with
  | Ok (value, deadline) ->
    let value = match value with
      | Some (data, stat) -> Present (data, stat)
      | None -> Absent
    in
    if fresh then store_put t.data path hash { value; lease_until = deadline };
    (match value with
     | Present (data, stat) -> Ok (data, stat)
     | Absent -> Error Zerror.ZNONODE)
  | Error e -> Error e

let cached_get t path =
  let hash = Zpath.hash path in
  let node = store_find t.data path hash in
  if node != t.data.sentinel && entry_live t node.entry then begin
    t.hits <- t.hits + 1;
    store_touch t.data node;
    match node.entry.value with
    | Present (data, stat) -> Ok (data, stat)
    | Absent -> Error Zerror.ZNONODE
  end
  else begin
    if node != t.data.sentinel then note_expired t;
    t.misses <- t.misses + 1;
    fill_get t path hash
  end

let fill_children t path hash =
  let fence = open_fence t.kids_fences path in
  let gen = fence.gen in
  let result = t.inner.Zk_client.lease_children path in
  let fresh = close_fence t.kids_fences path fence gen in
  match result with
  | Ok (names, deadline) ->
    if fresh then
      store_put t.kids path hash { value = names; lease_until = deadline };
    Ok names
  | Error e -> Error e

let cached_children t path =
  let hash = Zpath.hash path in
  let node = store_find t.kids path hash in
  if node != t.kids.sentinel && entry_live t node.entry then begin
    t.hits <- t.hits + 1;
    store_touch t.kids node;
    Ok node.entry.value
  end
  else begin
    if node != t.kids.sentinel then note_expired t;
    t.misses <- t.misses + 1;
    fill_children t path hash
  end

(* Bulk readdir. A hit assembles the listing from the cached child-name
   list plus per-child data entries; a miss fetches everything in one
   server visit and warms those same entries, so a later [get] of any
   child is already cached. One lease deadline covers the listing and
   every warmed child. *)
let fill_bulk t path hash =
  let fence = t.epoch in
  match t.inner.Zk_client.lease_children_with_data path with
  | Ok (entries, deadline) ->
    if t.epoch = fence then begin
      store_put t.kids path hash
        { value = List.map (fun (name, _, _) -> name) entries;
          lease_until = deadline };
      List.iter
        (fun (name, data, stat) ->
          let child = Zpath.concat path name in
          store_put t.data child (Zpath.hash child)
            { value = Present (data, stat); lease_until = deadline })
        entries
    end;
    Ok entries
  | Error e -> Error e

(* The listing of [path] from the cached child data, or [None] when a
   child's entry was evicted or expired. Each child's node is found
   once; on success each becomes the newest, in listing order. *)
let rec assemble t path entries nodes = function
  | [] ->
    List.iter (store_touch t.data) (List.rev nodes);
    Some (List.rev entries)
  | name :: rest ->
    let child = Zpath.concat path name in
    (match store_find t.data child (Zpath.hash child) with
     | { entry = { value = Present (data, stat); _ } as e; _ } as node
       when node != t.data.sentinel && entry_live t e ->
       assemble t path ((name, data, stat) :: entries) (node :: nodes) rest
     | _ -> None)

let cached_children_with_data t path =
  let hash = Zpath.hash path in
  let node = store_find t.kids path hash in
  if node != t.kids.sentinel && entry_live t node.entry then
    match assemble t path [] [] node.entry.value with
    | Some entries ->
      t.hits <- t.hits + 1;
      store_touch t.kids node;
      Ok entries
    | None ->
      t.misses <- t.misses + 1;
      fill_bulk t path hash
  else begin
    if node != t.kids.sentinel then note_expired t;
    t.misses <- t.misses + 1;
    fill_bulk t path hash
  end

let wrap ?(capacity = 4096) ?coherence:(_ : coherence option) ~now ?metrics
    inner =
  if capacity < 1 then invalid_arg "Cache.wrap: capacity < 1";
  let t =
    { inner;
      now;
      data = store_create capacity Absent;
      kids = store_create capacity [];
      data_fences = Hashtbl.create 8;
      kids_fences = Hashtbl.create 8;
      epoch = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      lease_expired_hits = 0;
      expired_counter =
        Option.map (fun m -> Obs.Metrics.counter m "cache.lease.expired_hit")
          metrics;
      wrapped = None }
  in
  (* one aggregated revocation channel per session *)
  inner.Zk_client.set_invalidation (fun ev -> on_revocation t ev);
  let create ?ephemeral ?sequential path ~data =
    let result = inner.Zk_client.create ?ephemeral ?sequential path ~data in
    (match result with
     | Ok actual ->
       invalidate_mutation t actual;
       if actual <> path then invalidate_mutation t path
     | Error _ -> ());
    result
  in
  let set ?version path ~data =
    let result = inner.Zk_client.set ?version path ~data in
    invalidate_data t path (Zpath.hash path);
    result
  in
  let delete ?version path =
    let result = inner.Zk_client.delete ?version path in
    invalidate_mutation t path;
    result
  in
  let multi txn =
    let result = inner.Zk_client.multi txn in
    invalidate_txn t txn result;
    result
  in
  let multi_async txn callback =
    inner.Zk_client.multi_async txn (fun result ->
        invalidate_txn t txn result;
        callback result)
  in
  let handle =
    { Zk_client.create;
      get = cached_get t;
      set;
      delete;
      exists =
        (fun path ->
          (* only a definitive "no such node" answer maps to None; a
             transient read failure (timeout, connection loss) must not
             make an existing file look deleted *)
          match cached_get t path with
          | Ok (_, stat) -> Ok (Some stat)
          | Error Zerror.ZNONODE -> Ok None
          | Error e -> Error e);
      children = cached_children t;
      children_with_data = cached_children_with_data t;
      children_with_data_watch = inner.Zk_client.children_with_data_watch;
      multi;
      multi_async;
      watch_data = inner.Zk_client.watch_data;
      watch_children = inner.Zk_client.watch_children;
      get_watch = inner.Zk_client.get_watch;
      children_watch = inner.Zk_client.children_watch;
      lease_get = inner.Zk_client.lease_get;
      lease_children = inner.Zk_client.lease_children;
      lease_children_with_data = inner.Zk_client.lease_children_with_data;
      set_invalidation = inner.Zk_client.set_invalidation;
      sync = inner.Zk_client.sync;
      close = inner.Zk_client.close;
      session_id = inner.Zk_client.session_id }
  in
  t.wrapped <- Some handle;
  t

let handle t =
  match t.wrapped with
  | Some h -> h
  | None -> assert false (* set by [wrap] before returning *)
