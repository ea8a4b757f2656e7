(* Shard router: the full client surface over N independent ensembles.
   See the .mli for the routing invariant (parent-directory co-location)
   and the cross-shard atomicity boundary; DESIGN.md §sharding for the
   honest list of caveats, §10 for the online-resharding protocol. *)

type stats = {
  mutable cross_shard_multis : int;
  mutable cross_shard_deletes : int;
  mutable stub_creates : int;
  mutable stub_deletes : int;
  mutable rollbacks : int;
  mutable rollback_failures : int;
  mutable orphan_notes : string list;
  mutable orphan_notes_total : int;
  mutable orphan_notes_dropped : int;
}

let fresh_stats () =
  { cross_shard_multis = 0;
    cross_shard_deletes = 0;
    stub_creates = 0;
    stub_deletes = 0;
    rollbacks = 0;
    rollback_failures = 0;
    orphan_notes = [];
    orphan_notes_total = 0;
    orphan_notes_dropped = 0 }

let live_stubs s = s.stub_creates - s.stub_deletes

(* The note log is a diagnosis aid, not an unbounded ledger: long chaos
   runs emit thousands of informational notes, so the log keeps only the
   newest [note_log_cap] and counts the rest as dropped. *)
let note_log_cap = 200

let note stats msg =
  stats.orphan_notes_total <- stats.orphan_notes_total + 1;
  if stats.orphan_notes_total <= note_log_cap then
    stats.orphan_notes <- msg :: stats.orphan_notes
  else begin
    (* rotate: drop the oldest entry to make room for the newest *)
    stats.orphan_notes_dropped <- stats.orphan_notes_dropped + 1;
    let kept =
      match List.rev stats.orphan_notes with
      | [] -> []
      | _oldest :: rest -> List.rev rest
    in
    stats.orphan_notes <- msg :: kept
  end

(* A note that records an unrecoverable partial commit — the only kind
   that counts against [rollback_failures]. Informational notes (stub
   cleanup, migration bookkeeping) go through [note] alone. *)
let note_failure stats msg =
  stats.rollback_failures <- stats.rollback_failures + 1;
  note stats msg

(* {2 Placement — consistent hashing with bounded loads}

   The ring alone cannot balance a small key population: a namespace
   with ~100 populated directories hashed onto 4 shards leaves the hot
   shard with ~28% of the keys (binomial spread), and read throughput
   tracks the hottest shard. So each key's shard is the ring's choice
   {e unless} that shard already holds [ceil ((1+eps) * keys / shards)]
   keys, in which case the next shard (ascending id, wrapping) under
   the cap takes it. With [eps = 0] (the default) per-shard key counts
   never differ by more than one. Assignments are memoized, so a key's
   shard is stable for the lifetime of the placement {e unless} an
   explicit reshard migrates it — the table models the durable
   directory-placement map a real deployment would keep in a (small,
   cacheable) coordination namespace, IndexFS-style. *)

(* One in-flight directory migration. While present in
   [placement.migrations] the key's writes park at the router; once
   [frozen] reads park too (the copy is being verified and retired and
   neither owner can safely serve them). *)
type migration = { mutable frozen : bool }

type placement = {
  mutable p_ring : Consistent_hash.t;
  mutable p_shards : int;
  eps : float;
  assigned : (string, int) Hashtbl.t; (* directory key -> shard *)
  mutable loads : int array;          (* keys per shard *)
  mutable total : int;
  migrations : (string, migration) Hashtbl.t;
  (* called in a loop while an op is parked on a migrating key; a
     simulation deployment installs a short [Process.sleep] here. The
     default raises: an immediate-mode deployment must never leave a
     migration open across a client call. *)
  mutable block_hook : string -> unit;
}

let make_ring ~shards =
  if shards < 1 then invalid_arg "Shard_router: shards < 1";
  Consistent_hash.create (List.init shards Fun.id)

let make_placement ?(eps = 0.) ~shards () =
  if eps < 0. then invalid_arg "Shard_router.make_placement: eps < 0";
  { p_ring = make_ring ~shards;
    p_shards = shards;
    eps;
    assigned = Hashtbl.create 256;
    loads = Array.make shards 0;
    total = 0;
    migrations = Hashtbl.create 8;
    block_hook =
      (fun key ->
        failwith
          (Printf.sprintf
             "Shard_router: op on migrating key %s outside a simulated \
              deployment (only start lets parked ops wait)" key)) }

let placement_ring p = p.p_ring
let placement_shards p = p.p_shards
let placement_loads p = Array.copy p.loads
let keys_assigned p = p.total
let assigned_shard p key = Hashtbl.find_opt p.assigned key

(* The bounded-load assignment, shared by first-touch placement and the
   reshard replay. The cap is the ceil formula alone: for any [total]
   and [shards] at least one shard sits strictly under it
   (min load <= floor (total/shards) < ceil ((total+1)/shards) <= cap),
   so [pick] always terminates on an under-cap shard. *)
let place_raw ~eps ~shards ~ring ~loads ~total key =
  let cap =
    int_of_float
      (ceil ((1. +. eps) *. float_of_int (total + 1) /. float_of_int shards))
  in
  let pref = Consistent_hash.lookup ring key in
  let rec pick j =
    if j >= shards then pref
    else
      let s = (pref + j) mod shards in
      if loads.(s) < cap then s else pick (j + 1)
  in
  pick 0

let place p key =
  match Hashtbl.find_opt p.assigned key with
  | Some s -> s
  | None ->
    let s =
      place_raw ~eps:p.eps ~shards:p.p_shards ~ring:p.p_ring ~loads:p.loads
        ~total:p.total key
    in
    Hashtbl.replace p.assigned key s;
    p.loads.(s) <- p.loads.(s) + 1;
    p.total <- p.total + 1;
    s

(* {2 Online resharding support}

   [prepare_reshard] replays every assigned key (in sorted order, so the
   plan is deterministic) through the bounded-load algorithm over the
   {e new} ring and returns the remainder — the keys whose assignment
   changes. It commits the new ring/shard-count/loads immediately, so
   keys placed during the migration window land under the new regime,
   while each existing key keeps its old assignment (and its old
   routing) until {!finish_migration} flips it. *)

let prepare_reshard p ~shards =
  if shards < 1 then invalid_arg "Shard_router.prepare_reshard: shards < 1";
  if Hashtbl.length p.migrations > 0 then
    invalid_arg "Shard_router.prepare_reshard: a migration is already running";
  let ring = make_ring ~shards in
  let loads = Array.make shards 0 in
  let total = ref 0 in
  let keys =
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) p.assigned [])
  in
  let moves = ref [] in
  List.iter
    (fun key ->
      let s = place_raw ~eps:p.eps ~shards ~ring ~loads ~total:!total key in
      loads.(s) <- loads.(s) + 1;
      incr total;
      let cur = Hashtbl.find p.assigned key in
      if cur <> s then moves := (key, cur, s) :: !moves)
    keys;
  p.p_ring <- ring;
  p.p_shards <- shards;
  p.loads <- loads;
  List.rev !moves

let begin_migration p key =
  Hashtbl.replace p.migrations key { frozen = false }

let freeze_migration p key =
  match Hashtbl.find_opt p.migrations key with
  | Some m -> m.frozen <- true
  | None -> invalid_arg "Shard_router.freeze_migration: key not migrating"

let finish_migration p key ~dst =
  Hashtbl.replace p.assigned key dst;
  Hashtbl.remove p.migrations key

(* Park until the key's migration (if any) completes. Writes park for
   the whole migration; reads only once the copy is frozen — before
   that the old owner still serves them correctly. With no migration
   open (every op outside a reshard) nothing can block, so the fast
   path skips the lookup. *)
let await p ~write key =
  if Hashtbl.length p.migrations > 0 then begin
    let blocked () =
      match Hashtbl.find_opt p.migrations key with
      | None -> false
      | Some m -> write || m.frozen
    in
    while blocked () do
      p.block_hook key
    done
  end

(* {2 The routed handle} *)

(* [home p]: the shard holding p's primary (placed by the parent, so
   siblings co-locate). [kids p]: the shard holding p's children
   (placed by p itself). For "/" both reduce to [place pl "/"]. *)
let key_of path = if path = "/" then "/" else Zpath.parent path
let home_of pl path = place pl (key_of path)
let kids_of pl path = place pl path

(* The router over an arbitrary shard-handle source: [get i] yields the
   sub-session for shard [i] (possibly opening it lazily — a reshard can
   add shards after a session was opened) and [iter_opened f] visits the
   sub-sessions opened so far. [set_inval] must both remember the
   callback for future opens and install it on the already-open ones. *)
let wrap_pool ~stats ~placement ~get ~iter_opened ~set_inval () =
  let pl = placement in
  let home p =
    let key = key_of p in
    await pl ~write:false key;
    place pl key
  and kids p =
    await pl ~write:false p;
    kids_of pl p
  in
  let home_w p =
    let key = key_of p in
    await pl ~write:true key;
    place pl key
  in
  let h i = (get i : Zk_client.handle) in
  let ( let* ) = Result.bind in
  (* Make [path] exist on shard [s], mirroring primaries into empty
     stubs top-down. Refuses to materialize anything the primary shard
     does not have, so a genuine ZNONODE stays ZNONODE. *)
  let rec ensure_on s path =
    if path = "/" then Ok ()
    else
      match (h s).Zk_client.exists path with
      | Error _ as e -> e |> Result.map ignore
      | Ok (Some _) -> Ok ()
      | Ok None -> (
        match (h (home path)).Zk_client.exists path with
        | Error _ as e -> e |> Result.map ignore
        | Ok None -> Error Zerror.ZNONODE
        | Ok (Some st) ->
          if st.Ztree.ephemeral_owner <> 0L then
            (* ephemerals cannot have children; never stub one *)
            Error Zerror.ZNOCHILDRENFOREPHEMERALS
          else
            let* () = ensure_on s (Zpath.parent path) in
            (match (h s).Zk_client.create path ~data:"" with
             | Ok _ ->
               stats.stub_creates <- stats.stub_creates + 1;
               Ok ()
             | Error Zerror.ZNODEEXISTS -> Ok ()
             | Error _ as e -> e |> Result.map ignore))
  in
  let create ?ephemeral ?sequential path ~data =
    let s = home_w path in
    match (h s).Zk_client.create ?ephemeral ?sequential path ~data with
    | Error Zerror.ZNONODE when path <> "/" && Zpath.parent path <> "/" -> (
      (* the parent may be a primary elsewhere with no stub here yet *)
      match ensure_on s (Zpath.parent path) with
      | Ok () -> (h s).Zk_client.create ?ephemeral ?sequential path ~data
      | Error e -> Error e)
    | r -> r
  in
  let delete ?version path =
    (* a delete touches both the primary and (possibly) the stub, so it
       must wait out migrations of either key *)
    await pl ~write:true path;
    let s = home_w path and k = kids_of pl path in
    if s = k then (h s).Zk_client.delete ?version path
    else
      (* cheap read probe: most nodes (all files) never grow a stub *)
      match (h k).Zk_client.exists path with
      | Error e -> Error e
      | Ok None -> (h s).Zk_client.delete ?version path
      | Ok (Some _) -> (
        stats.cross_shard_deletes <- stats.cross_shard_deletes + 1;
        (* ordered two-phase: the stub holds the children, so deleting
           it first preserves ZNOTEMPTY semantics exactly *)
        match (h k).Zk_client.delete path with
        | Error Zerror.ZNONODE -> (h s).Zk_client.delete ?version path
        | Error e -> Error e
        | Ok () -> (
          stats.stub_deletes <- stats.stub_deletes + 1;
          match (h s).Zk_client.delete ?version path with
          | Ok () -> Ok ()
          | Error e ->
            (* primary refused (version conflict, concurrent delete):
               restore the stub so the pair stays consistent *)
            (match (h k).Zk_client.create path ~data:"" with
             | Ok _ ->
               stats.stub_creates <- stats.stub_creates + 1;
               stats.rollbacks <- stats.rollbacks + 1
             | Error Zerror.ZNODEEXISTS -> stats.rollbacks <- stats.rollbacks + 1
             | Error e2 ->
               note_failure stats
                 (Printf.sprintf
                    "delete %s: stub lost on shard %d after primary refused (%s; %s)"
                    path k (Zerror.to_string e) (Zerror.to_string e2)));
            Error e))
  in
  (* children-family fallback: an existing directory whose children
     shard never saw a stub is an {e empty} directory, not a missing
     one. The underlying call has already armed any requested child
     watch on [kids path] (watch registries accept absent paths). *)
  let absent_fallback : 'a. string -> empty:'a -> ('a, Zerror.t) result =
    fun path ~empty ->
     if home_of pl path = kids_of pl path then Error Zerror.ZNONODE
     else
       match (h (home path)).Zk_client.exists path with
       | Ok (Some _) -> Ok empty
       | Ok None -> Error Zerror.ZNONODE
       | Error e -> Error e
  in
  let children path =
    match (h (kids path)).Zk_client.children path with
    | Error Zerror.ZNONODE -> absent_fallback path ~empty:[]
    | r -> r
  in
  let children_with_data path =
    match (h (kids path)).Zk_client.children_with_data path with
    | Error Zerror.ZNONODE -> absent_fallback path ~empty:[]
    | r -> r
  in
  let children_with_data_watch path cb =
    match (h (kids path)).Zk_client.children_with_data_watch path cb with
    | Error Zerror.ZNONODE -> absent_fallback path ~empty:[]
    | r -> r
  in
  let children_watch path cb =
    match (h (kids path)).Zk_client.children_watch path cb with
    | Error Zerror.ZNONODE -> absent_fallback path ~empty:[]
    | r -> r
  in
  (* The lease flavour of the fallback must also grant the directory
     interest on the children's shard — that is where future child
     events will fire — which a failed lease listing did not do. A
     lease read of an (absent) probe child grants exactly that interest
     and returns the deadline the listing would have carried. *)
  let lease_absent_fallback : 'a. string -> empty:'a -> ('a * float, Zerror.t) result =
    fun path ~empty ->
     if home_of pl path = kids_of pl path then Error Zerror.ZNONODE
     else
       match (h (home path)).Zk_client.exists path with
       | Ok (Some _) -> (
         match
           (h (kids path)).Zk_client.lease_get (Zpath.concat path "lease-probe")
         with
         | Ok (_, deadline) -> Ok (empty, deadline)
         | Error e -> Error e)
       | Ok None -> Error Zerror.ZNONODE
       | Error e -> Error e
  in
  let lease_children path =
    match (h (kids path)).Zk_client.lease_children path with
    | Error Zerror.ZNONODE -> lease_absent_fallback path ~empty:[]
    | r -> r
  in
  let lease_children_with_data path =
    match (h (kids path)).Zk_client.lease_children_with_data path with
    | Error Zerror.ZNONODE -> lease_absent_fallback path ~empty:[]
    | r -> r
  in
  (* {2 Multi} *)
  let shard_of_op op = home_w (Txn.op_path op) in
  (* Retry a single-shard multi once after materializing stubs for its
     create parents — same lazy-stub rule as the create path. *)
  let multi_on s txn =
    match (h s).Zk_client.multi txn with
    | Error Zerror.ZNONODE as err ->
      let planted =
        List.fold_left
          (fun planted op ->
            match op with
            | Txn.Create { path; _ } when Zpath.parent path <> "/" ->
              let before = stats.stub_creates in
              (match ensure_on s (Zpath.parent path) with
               | Ok () -> planted || stats.stub_creates > before
               | Error _ -> planted)
            | _ -> planted)
          false txn
      in
      if planted then (h s).Zk_client.multi txn else err
    | r -> r
  in
  (* Ops grouped by shard in ascending shard order; each op keeps its
     original index so results re-assemble in request order. *)
  let group_by_shard txn =
    let tbl = Hashtbl.create 4 in
    List.iteri
      (fun i op ->
        let s = shard_of_op op in
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl s) in
        Hashtbl.replace tbl s ((i, op) :: prev))
      txn;
    Hashtbl.fold (fun s ops acc -> (s, List.rev ops) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Undo one committed group: created nodes are deleted (deepest-first);
     committed deletes and data writes are unrecoverable — note them. *)
  let rollback_group (s, iops, items) =
    let undo =
      List.rev
        (List.filter_map
           (fun ((_, op), item) ->
             match (op, item) with
             | Txn.Create _, Txn.Created actual ->
               Some (Zk_client.delete_op actual)
             | _ -> None)
           (List.combine iops items))
    in
    let lost =
      List.exists
        (fun (_, op) ->
          match op with Txn.Delete _ | Txn.Set_data _ -> true | _ -> false)
        iops
    in
    (if undo <> [] then
       match (h s).Zk_client.multi undo with
       | Ok _ -> stats.rollbacks <- stats.rollbacks + 1
       | Error e ->
         note_failure stats
           (Printf.sprintf
              "multi rollback failed on shard %d: %d created node(s) left (%s)"
              s (List.length undo) (Zerror.to_string e)));
    if lost then
      note_failure stats
        (Printf.sprintf
           "multi partially committed on shard %d: delete/set ops cannot be rolled back"
           s)
  in
  let stitch txn groups_done =
    let results = Hashtbl.create 16 in
    List.iter
      (fun (_, iops, items) ->
        List.iter2 (fun (i, _) item -> Hashtbl.replace results i item) iops items)
      groups_done;
    List.mapi (fun i _ -> Hashtbl.find results i) txn
  in
  let multi txn =
    match group_by_shard txn with
    | [] -> (h 0).Zk_client.multi txn (* empty txn: a sync, any shard *)
    | [ (s, _) ] -> multi_on s txn
    | groups ->
      stats.cross_shard_multis <- stats.cross_shard_multis + 1;
      let rec run done_groups = function
        | [] -> Ok (stitch txn (List.rev done_groups))
        | (s, iops) :: rest -> (
          match multi_on s (List.map snd iops) with
          | Ok items -> run ((s, iops, items) :: done_groups) rest
          | Error e ->
            List.iter rollback_group done_groups;
            Error e)
      in
      run [] groups
  in
  let multi_async txn callback =
    match group_by_shard txn with
    | [] -> (h 0).Zk_client.multi_async txn callback
    | [ (s, _) ] ->
      (* pass-through; no lazy stubbing on the async path (DESIGN.md) *)
      (h s).Zk_client.multi_async txn callback
    | groups ->
      stats.cross_shard_multis <- stats.cross_shard_multis + 1;
      let rec step done_groups = function
        | [] -> callback (Ok (stitch txn (List.rev done_groups)))
        | (s, iops) :: rest ->
          (h s).Zk_client.multi_async (List.map snd iops) (function
            | Ok items -> step ((s, iops, items) :: done_groups) rest
            | Error e ->
              List.iter rollback_group done_groups;
              callback (Error e))
      in
      step [] groups
  in
  { Zk_client.create;
    get = (fun path -> (h (home path)).Zk_client.get path);
    set =
      (fun ?version path ~data ->
        (h (home_w path)).Zk_client.set ?version path ~data);
    delete;
    exists = (fun path -> (h (home path)).Zk_client.exists path);
    children;
    children_with_data;
    children_with_data_watch;
    multi;
    multi_async;
    watch_data = (fun path cb -> (h (home path)).Zk_client.watch_data path cb);
    watch_children =
      (fun path cb -> (h (kids path)).Zk_client.watch_children path cb);
    get_watch = (fun path cb -> (h (home path)).Zk_client.get_watch path cb);
    children_watch;
    lease_get = (fun path -> (h (home path)).Zk_client.lease_get path);
    lease_children;
    lease_children_with_data;
    set_invalidation =
      (* one channel per shard session; the client's callback hears
         revocations from every shard its working set spans (including
         shards added by a later reshard) *)
      set_inval;
    sync = (fun () -> iter_opened (fun s -> s.Zk_client.sync ()));
    close = (fun () -> iter_opened (fun s -> s.Zk_client.close ()));
    session_id = (h 0).Zk_client.session_id }

let wrap ?(stats = fresh_stats ()) ~placement (h : Zk_client.handle array) =
  wrap_pool ~stats ~placement
    ~get:(fun i -> h.(i))
    ~iter_opened:(fun f -> Array.iter f h)
    ~set_inval:(fun cb -> Array.iter (fun s -> s.Zk_client.set_invalidation cb) h)
    ()

(* {2 Deployments} *)

type backend =
  | Ens of Ensemble.t
  | Local of Zk_local.t

type t = {
  placement : placement;
  mutable backends : backend array;
  boot : int -> backend; (* boots shard [i]; used by [add_shards] *)
  stats : stats;
}

let start ?trace engine ~shards cfg =
  let placement = make_placement ~shards () in
  (* parked router ops poll at sub-RPC granularity, so the migration
     window, not the poll, dominates their added latency *)
  placement.block_hook <- (fun _key -> Simkit.Process.sleep 0.0005);
  let boot i =
    (* each shard owns its own network and jitter streams; distinct
       seeds keep their randomness independent while the whole
       deployment stays a pure function of cfg.seed *)
    let cfg = { cfg with Ensemble.seed = Int64.add cfg.Ensemble.seed (Int64.of_int i) } in
    Ens (Ensemble.start ?trace ~tag:(Printf.sprintf "shard%d" i) engine cfg)
  in
  { placement; backends = Array.init shards boot; boot; stats = fresh_stats () }

let local ?clock ~shards () =
  let placement = make_placement ~shards () in
  let boot _ = Local (Zk_local.create ?clock ()) in
  { placement; backends = Array.init shards boot; boot; stats = fresh_stats () }

let add_shards t count =
  if count < 1 then invalid_arg "Shard_router.add_shards: count < 1";
  let n = Array.length t.backends in
  t.backends <-
    Array.append t.backends (Array.init count (fun j -> t.boot (n + j)))

let backend_session t i =
  match t.backends.(i) with
  | Ens e -> Ensemble.session e ()
  | Local l -> Zk_local.session l

let revoke_dir t ~shard dir =
  match t.backends.(shard) with
  | Ens e -> Ensemble.revoke_dir e dir
  | Local l -> Zk_local.revoke_dir l dir

let session t () =
  (* Sub-sessions for the shards present at open time are eager (their
     open order is part of the deterministic replay schedule); shards a
     later reshard adds are opened lazily on first routed op. *)
  let opened = Hashtbl.create 8 in
  let order = ref [] in
  let inval = ref None in
  let get i =
    match Hashtbl.find_opt opened i with
    | Some h -> h
    | None ->
      let h = backend_session t i in
      (match !inval with Some cb -> h.Zk_client.set_invalidation cb | None -> ());
      Hashtbl.replace opened i h;
      order := i :: !order;
      h
  in
  let iter_opened f =
    (* open order, oldest first: deterministic and close-safe *)
    List.iter (fun i -> f (Hashtbl.find opened i)) (List.rev !order)
  in
  let set_inval cb =
    inval := Some cb;
    iter_opened (fun h -> h.Zk_client.set_invalidation cb)
  in
  for i = 0 to Array.length t.backends - 1 do
    ignore (get i)
  done;
  wrap_pool ~stats:t.stats ~placement:t.placement ~get ~iter_opened ~set_inval ()

let shard_count t = Array.length t.backends
let stats t = t.stats
let placement t = t.placement
let home_shard t path = home_of t.placement path

let ensembles t =
  Array.map
    (function
      | Ens e -> e
      | Local _ -> invalid_arg "Shard_router.ensembles: local deployment")
    t.backends

(* the data tree of shard [i]: its leader's, or the first live
   replica's while it has no leader *)
let tree_of_shard t i =
  match t.backends.(i) with
  | Local l -> Zk_local.tree l
  | Ens e ->
    let id =
      match Ensemble.leader_id e with
      | Some id -> id
      | None -> ( match Ensemble.alive_ids e with id :: _ -> id | [] -> 0)
    in
    Ensemble.tree_of e id

let node_counts t =
  Array.init (shard_count t) (fun i -> Ztree.node_count (tree_of_shard t i))

let logical_population t =
  Array.fold_left (fun acc n -> acc + (n - 1)) 0 (node_counts t)
  - live_stubs t.stats

let writes_committed_by_shard t =
  Array.map
    (function Ens e -> Ensemble.writes_committed e | Local _ -> 0)
    t.backends

let writes_committed t = Array.fold_left ( + ) 0 (writes_committed_by_shard t)

let dedup_hits_by_shard t =
  Array.map (function Ens e -> Ensemble.dedup_hits e | Local _ -> 0) t.backends

let dedup_hits t = Array.fold_left ( + ) 0 (dedup_hits_by_shard t)

