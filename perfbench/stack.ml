(* The DUFS stack under test, built from the public constructors the way
   Scenarios.Systems.dufs_ops_for_proc builds it — mirrored here so each
   layer boundary can take a Probe wrapper when the run is traced. An
   untraced stack has no wrapper at all. *)

module Engine = Simkit.Engine
module Process = Simkit.Process

type spec = {
  shards : int;  (* 1: one ensemble, no router; n > 1: Zk.Shard_router *)
  config : Zk.Ensemble.config;
  backends : int;  (* Lustre mounts behind DUFS *)
  cache_capacity : int option;  (* lease-mode Dufs.Cache per client *)
}

type deployment = Single of Zk.Ensemble.t | Sharded of Zk.Shard_router.t

type t = {
  spec : spec;
  engine : Engine.t;
  deployment : deployment;
  lustre : Pfs.Lustre_sim.t array;
  trace : Obs.Trace.t;  (* the program's own Obs spans; on while traced *)
  probe : Probe.t option;
  mutable caches : Dufs.Cache.t list;
}

let create ~traced spec =
  let engine = Engine.create () in
  let trace = if traced then Obs.Trace.create () else Obs.Trace.null in
  let deployment =
    if spec.shards = 1 then Single (Zk.Ensemble.start ~trace engine spec.config)
    else Sharded (Zk.Shard_router.start ~trace engine ~shards:spec.shards spec.config)
  in
  let lustre =
    Array.init spec.backends (fun _ ->
        Pfs.Lustre_sim.create engine ~config:(Pfs.Lustre_sim.backend_config ()) ())
  in
  Array.iter
    (fun m ->
      match Dufs.Physical.format Dufs.Physical.default_layout (Pfs.Lustre_sim.local_ops m) with
      | Ok () -> ()
      | Error e -> failwith ("format: " ^ Fuselike.Errno.to_string e))
    lustre;
  let probe =
    if traced then Some (Probe.create ~clock:(fun () -> Engine.now engine)) else None
  in
  { spec; engine; deployment; lustre; trace; probe; caches = [] }

let now t = Engine.now t.engine

let ensembles t =
  match t.deployment with
  | Single e -> [| e |]
  | Sharded r -> Zk.Shard_router.ensembles r

let probed t f h = match t.probe with Some p -> f p h | None -> h

(* A raw session below cache and client: zk-wrapped per shard, and
   routed when sharded. *)
let session t =
  let zk = probed t Probe.wrap_zk in
  match t.deployment with
  | Single e -> zk (Zk.Ensemble.session e ())
  | Sharded r ->
    let shards =
      Array.init (Zk.Shard_router.shard_count r) (fun i ->
          zk (Zk.Shard_router.backend_session r i))
    in
    Zk.Shard_router.wrap ~stats:(Zk.Shard_router.stats r)
      ~placement:(Zk.Shard_router.placement r) shards

(* [mount t ~proc] — one simulated client process's DUFS mount. Must run
   inside a simulation process (mounting creates the namespace root).
   [record] slips a Zk.History recorder between the cache and the
   client, so the checker sees what the client was served. *)
let mount ?record t ~proc =
  let ctx = Probe.ctx () in
  let raw = session t in
  let coord =
    match t.spec.cache_capacity with
    | None -> raw
    | Some capacity ->
      let cache =
        Dufs.Cache.wrap ~capacity ~coherence:Dufs.Cache.Leases
          ~now:(fun () -> now t) raw
      in
      t.caches <- cache :: t.caches;
      Dufs.Cache.handle cache
  in
  let coord =
    match record with
    | Some (hist, client) -> Zk.History.wrap hist ~client coord
    | None -> coord
  in
  let coord = probed t (fun p -> Probe.wrap_coord p ctx) coord in
  let backends =
    Array.mapi
      (fun i m ->
        probed t
          (fun p -> Probe.wrap_backend p ctx)
          (Pfs.Lustre_sim.client m ~client_id:((proc * t.spec.backends) + i)))
      t.lustre
  in
  let client =
    Dufs.Client.mount ~coord ~backends
      ~client_id:(Int64.of_int (proc + 1))
      ~layout:Dufs.Physical.default_layout
      ~clock:(fun () -> now t)
      ~delay:Process.sleep
      ~overhead:(Pfs.Costs.fuse_crossing +. Pfs.Costs.dufs_overhead)
      ~trace:t.trace ()
  in
  (Dufs.Client.ops client, ctx)

(* Tracing covers the measured window only. *)
let set_recording t on =
  (match t.probe with Some p -> p.Probe.on <- on | None -> ());
  if t.trace != Obs.Trace.null then
    if on then Obs.Trace.enable t.trace else Obs.Trace.disable t.trace

(* The leader's tree (or a live replica's while leaderless). *)
let leader_tree e =
  match Zk.Ensemble.leader_id e with
  | Some id -> Zk.Ensemble.tree_of e id
  | None -> Zk.Ensemble.tree_of e (List.hd (Zk.Ensemble.alive_ids e))

(* Logical znode population, excluding each ensemble's root "/". *)
let population t =
  match t.deployment with
  | Single e -> Zk.Ztree.node_count (leader_tree e) - 1
  | Sharded r -> Zk.Shard_router.logical_population r

(* Every live replica of every ensemble holds the same tree. *)
let replicas_agree t =
  Array.for_all
    (fun e ->
      match Zk.Ensemble.alive_ids e with
      | [] -> false
      | id0 :: rest ->
        let f0 = Zk.Ztree.fingerprint (Zk.Ensemble.tree_of e id0) in
        List.for_all (fun id -> Zk.Ztree.fingerprint (Zk.Ensemble.tree_of e id) = f0) rest)
    (ensembles t)
