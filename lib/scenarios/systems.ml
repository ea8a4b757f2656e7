module Engine = Simkit.Engine
module Process = Simkit.Process
module Vfs = Fuselike.Vfs

type backend_kind = Lustre | Pvfs

type dufs_spec = {
  zk_servers : int;
  backends : int;
  backend_kind : backend_kind;
}

type system =
  | Basic_lustre
  | Basic_pvfs
  | Lustre_cmd of int
  | Dufs of dufs_spec
  | Dufs_cached of dufs_spec

let system_label = function
  | Basic_lustre -> "Basic Lustre"
  | Basic_pvfs -> "Basic PVFS"
  | Lustre_cmd mds -> Printf.sprintf "Lustre CMD %d MDS" mds
  | (Dufs { zk_servers; backends; backend_kind }
    | Dufs_cached { zk_servers; backends; backend_kind }) as sys ->
    Printf.sprintf "DUFS%s %dx%s/%dzk"
      (match sys with Dufs_cached _ -> "+cache" | _ -> "")
      backends
      (match backend_kind with Lustre -> "Lustre" | Pvfs -> "PVFS")
      zk_servers

let zk_config ?(max_batch = 1) ~servers ~procs () =
  { (Zk.Ensemble.default_config ~servers) with
    Zk.Ensemble.max_batch;
    read_service = Pfs.Costs.Zookeeper.read_service;
    write_service = Pfs.Costs.Zookeeper.write_service;
    delete_service = Pfs.Costs.Zookeeper.delete_service;
    set_service = Pfs.Costs.Zookeeper.set_service;
    persist = Pfs.Costs.Zookeeper.persist;
    rpc_cpu = Pfs.Costs.Zookeeper.rpc_cpu;
    follower_apply = Pfs.Costs.Zookeeper.follower_apply;
    net_latency = Pfs.Costs.gige_latency;
    load_factor =
      Pfs.Costs.colocated_load_factor ~procs ~nodes:Pfs.Costs.client_nodes
        ~cores:Pfs.Costs.cores_per_node }

(* The formatted back-end mounts: a per-proc client factory, and each
   back-end metadata station's (wait, hold) time summaries. *)
let build_backends engine ~spec =
  let { backends; backend_kind; zk_servers = _ } = spec in
  (* one mount: its local ops, its client factory and its stations *)
  let mount _ =
    match backend_kind with
    | Lustre ->
      let m = Pfs.Lustre_sim.create engine ~config:(Pfs.Lustre_sim.backend_config ()) () in
      ( Pfs.Lustre_sim.local_ops m,
        (fun client_id -> Pfs.Lustre_sim.client m ~client_id),
        [| (Pfs.Lustre_sim.mds_wait_summary m, Pfs.Lustre_sim.mds_hold_summary m) |] )
    | Pvfs ->
      let m = Pfs.Pvfs_sim.create engine ~config:(Pfs.Pvfs_sim.backend_config ()) () in
      ( Pfs.Pvfs_sim.local_ops m,
        (fun client_id -> Pfs.Pvfs_sim.client m ~client_id),
        Array.map2
          (fun w h -> (w, h))
          (Pfs.Pvfs_sim.wait_summaries m) (Pfs.Pvfs_sim.hold_summaries m) )
  in
  let mounts = Array.init backends mount in
  Array.iter
    (fun (ops, _, _) ->
      match Dufs.Physical.format Dufs.Physical.default_layout ops with
      | Ok () -> ()
      | Error e -> failwith (Fuselike.Errno.to_string e))
    mounts;
  ( (fun proc -> Array.mapi (fun i (_, client, _) -> client ((proc * backends) + i)) mounts),
    Array.concat (Array.to_list (Array.map (fun (_, _, stations) -> stations) mounts)) )

(* Per-proc VFS ops over one (routed) coordination session. *)
let dufs_ops_for_proc ~trace engine ~session ~backend_clients ~cached proc =
  let coord =
    if cached then
      Dufs.Cache.handle
        (Dufs.Cache.wrap ~now:(fun () -> Engine.now engine) session)
    else session
  in
  let client =
    Dufs.Client.mount ~coord ~backends:(backend_clients proc)
      ~client_id:(Int64.of_int (proc + 1))
      ~layout:Dufs.Physical.default_layout
      ~clock:(fun () -> Engine.now engine)
      ~delay:Process.sleep
      ~overhead:(Pfs.Costs.fuse_crossing +. Pfs.Costs.dufs_overhead)
      ~trace
      ()
  in
  Dufs.Client.ops client

(* The DUFS stack: [shards] independent ensembles, each built from
   [config] (so [shards * config.servers] coordination servers in
   total), behind one {!Zk.Shard_router} session per client process. An
   unsharded deployment is the one-shard case. [wrap proc] interposes on
   proc's routed session before the client mounts it. *)
let build_dufs ?(trace = Obs.Trace.null) ?(wrap = fun _proc s -> s) engine
    ~spec ~config ~shards ~cached =
  let router = Zk.Shard_router.start ~trace engine ~shards config in
  let backend_clients, backend_stations = build_backends engine ~spec in
  let ops_for_proc proc =
    dufs_ops_for_proc ~trace engine
      ~session:(wrap proc (Zk.Shard_router.session router ()))
      ~backend_clients ~cached proc
  in
  (router, ops_for_proc, backend_stations)

(* Build per-process operation tables for one system on [engine]. The
   returned closure must be invoked from inside the process's own
   simulation context (Runner.run does). *)
let build_system engine system ~procs =
  match system with
  | Basic_lustre ->
    let fs = Pfs.Lustre_sim.create engine () in
    fun proc -> Pfs.Lustre_sim.client fs ~client_id:proc
  | Basic_pvfs ->
    let fs = Pfs.Pvfs_sim.create engine () in
    fun proc -> Pfs.Pvfs_sim.client fs ~client_id:proc
  | Lustre_cmd mds ->
    let fs =
      Pfs.Cmd_sim.create engine ~config:(Pfs.Cmd_sim.default_config ~mds_count:mds) ()
    in
    fun proc -> Pfs.Cmd_sim.client fs ~client_id:proc
  | (Dufs spec | Dufs_cached spec) as sys ->
    let cached = match sys with Dufs_cached _ -> true | _ -> false in
    let config = zk_config ~servers:spec.zk_servers ~procs () in
    let _, ops_for_proc, _ = build_dufs engine ~spec ~config ~shards:1 ~cached in
    ops_for_proc

let mdtest ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(unique = false) system ~procs
    () =
  let engine = Engine.create () in
  let ops_for_proc = build_system engine system ~procs in
  let cfg =
    Mdtest.Workload.config ~dirs_per_proc ~files_per_proc ~unique_working_dirs:unique
      ~procs ()
  in
  Mdtest.Runner.run engine cfg ~ops_for_proc

(* {2 Register clients and the write probe}

   The fault oracles reason about a few register znodes, one per
   directory ([/d<k>/r]), so a sharded deployment spreads them across
   shards (children co-locate with their parent). [clients] processes
   hammer them through a {!Zk.History} recorder with a weighted op mix
   and unique data values; a transport failure is undetermined (the
   client backs off), an expired session is reopened and re-wrapped. *)

type register_op = Create | Set | Delete | Get | Exists | Seq_create

type register_load = {
  clients : int;
  registers : int;
  mix : (int * register_op) list;
  stop : [ `Deadline of float | `Ops of int ];
  stride : int;
  think : float;
}

let reg_dir k = Printf.sprintf "/d%d" k
let seq_dir = "/dseq"

let rec pick x = function
  | [] -> invalid_arg "Systems: empty register mix"
  | [ (_, op) ] -> op
  | (w, op) :: rest -> if x < w then op else pick (x - w) rest

(* Spawns the setup (the register directories, committed before any
   client op) and the clients; client [c] draws from its own stream,
   seeded [seed + (c + 1) * stride]. The count of ops with a determined
   outcome fills in as the run goes. *)
let spawn_registers engine router hist load ~seed =
  let ok = ref 0 in
  let session () = Zk.Shard_router.session router () in
  Process.spawn engine (fun () ->
      let s = session () in
      let mk p =
        match s.Zk.Zk_client.create p ~data:"" with
        | Ok _ -> ()
        | Error e -> failwith ("register setup " ^ p ^ ": " ^ Zk.Zerror.to_string e)
      in
      for k = 0 to load.registers - 1 do
        mk (reg_dir k)
      done;
      if List.exists (fun (_, op) -> op = Seq_create) load.mix then mk seq_dir);
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 load.mix in
  for client = 0 to load.clients - 1 do
    let rng =
      Simkit.Rng.create ~seed:(Int64.add seed (Int64.of_int ((client + 1) * load.stride)))
    in
    Process.spawn engine (fun () ->
        let h = ref (Zk.History.wrap hist ~client (session ())) in
        let n = ref 0 and ops = ref 0 in
        let fresh_data () =
          incr n;
          Printf.sprintf "%d.%d" client !n
        in
        let going () =
          match load.stop with
          | `Deadline t -> Engine.now engine < t
          | `Ops k -> !ops < k
        in
        (* let the setup commits land before the first register op *)
        Process.sleep (0.2 +. Simkit.Rng.exponential rng ~mean:load.think);
        while going () do
          incr ops;
          let reg = reg_dir (Simkit.Rng.int rng load.registers) ^ "/r" in
          let outcome =
            match pick (Simkit.Rng.int rng total) load.mix with
            | Create ->
              Result.map ignore ((!h).Zk.Zk_client.create reg ~data:(fresh_data ()))
            | Set -> (!h).Zk.Zk_client.set reg ~data:(fresh_data ())
            | Delete -> (!h).Zk.Zk_client.delete reg
            | Get -> Result.map ignore ((!h).Zk.Zk_client.get reg)
            | Exists -> Result.map ignore ((!h).Zk.Zk_client.exists reg)
            | Seq_create ->
              Result.map ignore
                ((!h).Zk.Zk_client.create ~sequential:true (seq_dir ^ "/s-")
                   ~data:(fresh_data ()))
          in
          (match outcome with
           | Ok ()
           | Error
               (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS | Zk.Zerror.ZNOTEMPTY
               | Zk.Zerror.ZBADVERSION) ->
             (* semantic outcome of racing clients: the service answered *)
             incr ok
           | Error Zk.Zerror.ZSESSIONEXPIRED ->
             h := Zk.History.wrap hist ~client (session ());
             Process.sleep (Simkit.Rng.exponential rng ~mean:0.2)
           | Error _ -> Process.sleep (Simkit.Rng.exponential rng ~mean:0.3));
          Process.sleep (Simkit.Rng.exponential rng ~mean:load.think)
        done;
        (!h).Zk.Zk_client.close ())
  done;
  ok

let probe_attempts = 200

(* From inside a process: commit one fresh write under one register
   directory per shard the registers live on (the lowest index wins, in
   path order), retrying every 0.05 s (reopening an expired session),
   and give up after [probe_attempts] attempts in all. [true] iff every
   write committed. *)
let probe router load =
  let by_shard = Hashtbl.create 8 in
  for k = load.registers - 1 downto 0 do
    let dir = reg_dir k in
    Hashtbl.replace by_shard (Zk.Shard_router.home_shard router (dir ^ "/r")) dir
  done;
  let s = ref (Zk.Shard_router.session router ()) in
  let rec go n = function
    | [] -> true
    | _ when n >= probe_attempts -> false
    | dir :: rest as dirs -> (
      let n = n + 1 in
      match (!s).Zk.Zk_client.create (Printf.sprintf "%s/probe%d" dir n) ~data:"" with
      | Ok _ -> go n rest
      | Error e ->
        if e = Zk.Zerror.ZSESSIONEXPIRED then s := Zk.Shard_router.session router ();
        Process.sleep 0.05;
        go n dirs)
  in
  go 0 (List.sort compare (Hashtbl.fold (fun _ dir acc -> dir :: acc) by_shard []))

let check_budget = 2_000_000

(* {2 One instrumented run over the DUFS stack}

   Every option is off by default, so the plain call is the
   exactly-comparable baseline. The census is sampled at the file-stat
   barrier: every file create has committed and no removal has begun, so
   the logical znode population must equal zroot + skeleton + files
   exactly — a surplus is a doubled apply or a leaked stub, a deficit a
   lost write. A reshard controller (when [to_shards <> shards]) fires
   at the file-create barrier, so the split runs while every process is
   writing; proc 0 waits at the file-stat barrier for it to finish, so
   the census sees the post-split tree. The first [history_clients]
   sessions record through {!Zk.History}, so a flip is subject to the
   linearizability oracle. A register overlay runs its clients
   alongside the mdtest load — or, without mdtest, is the whole load;
   a bounded probe write (from [probe_at], else once the run has
   drained) shows the service is live, the durability oracle compares
   each register's home-shard leader tree against the history, and
   every shard's live replicas must fingerprint equal. *)

type register_audit = {
  ops_ok : int;
  audited : int;
  durability_violations : Zk.History.violation list;
  recovery_s : float;
  replicas_agree : bool;
}

type dufs_run = {
  results : Mdtest.Runner.results;
  router : Zk.Shard_router.t;
  trace : Obs.Trace.t;
  backend_stations : (Simkit.Stat.Summary.t * Simkit.Stat.Summary.t) array;
  faults_fired : int;
  dedup_hits : int;
  per_shard_znodes : int array;
  live_stubs_at_stat : int;
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  reshard : Zk.Reshard.stats option;
  reshard_window : float;
  history_recorded : int;
  history_checked : int;
  history_undetermined : int;
  history_digest : string;
  violations : Zk.History.violation list;
  registers : register_audit option;
}

(* Every shard has a live replica and its live replicas agree. *)
let replicas_agree router =
  Array.for_all
    (fun e ->
      match Zk.Ensemble.alive_ids e with
      | [] -> false
      | id0 :: rest ->
        let f0 = Zk.Ztree.fingerprint (Zk.Ensemble.tree_of e id0) in
        List.for_all (fun id -> Zk.Ztree.fingerprint (Zk.Ensemble.tree_of e id) = f0) rest)
    (Zk.Shard_router.ensembles router)

(* [path]'s data in its home shard's leader tree; [None] when absent or
   leaderless. *)
let recovered_data router path =
  let e = (Zk.Shard_router.ensembles router).(Zk.Shard_router.home_shard router path) in
  match Zk.Ensemble.leader_id e with
  | None -> None
  | Some id -> (
    match Zk.Ztree.get (Zk.Ensemble.tree_of e id) path with
    | Ok (data, _) -> Some data
    | Error _ -> None)

let dufs_mdtest ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(mdtest = true)
    ?(trace = false) ?(plan = []) ?(history_clients = 0) ?to_shards
    ?(config_adjust = Fun.id) ?registers ?probe_at ~spec ~shards ~procs () =
  let engine = Engine.create () in
  let tr = if trace then Obs.Trace.create () else Obs.Trace.null in
  if trace then Obs.Trace.enable tr;
  let config = config_adjust (zk_config ~servers:spec.zk_servers ~procs ()) in
  let hist = Zk.History.create engine in
  let wrap proc s =
    if proc < history_clients then Zk.History.wrap hist ~client:proc s else s
  in
  let spec = if mdtest then spec else { spec with backends = 0 } in
  let router, ops_for_proc, backend_stations =
    build_dufs ~trace:tr ~wrap engine ~spec ~config ~shards ~cached:false
  in
  let armed =
    Faults.Faultplan.arm_shards engine (Zk.Shard_router.ensembles router) plan
  in
  let recovery = ref Float.nan in
  let probe_from t0 load () =
    if probe router load then recovery := Engine.now engine -. t0
  in
  let ops_ok =
    match registers with
    | None -> ref 0
    | Some load ->
      let ok = spawn_registers engine router hist load ~seed:config.Zk.Ensemble.seed in
      Option.iter
        (fun t ->
          Engine.schedule engine ~delay:t (fun () ->
              Process.spawn engine (probe_from t load)))
        probe_at;
      ok
  in
  let cfg = Mdtest.Workload.config ~dirs_per_proc ~files_per_proc ~procs () in
  let to_shards = Option.value to_shards ~default:shards in
  let reshard = ref None and t0 = ref 0. and t1 = ref 0. in
  let per_shard_znodes = ref [||] and live_stubs = ref 0 and logical = ref 0 in
  let on_phase phase =
    (match phase with
     | Mdtest.Runner.File_create when to_shards <> shards ->
       Process.spawn engine (fun () ->
           t0 := Engine.now engine;
           let st =
             if to_shards > shards then Zk.Reshard.split router ~to_shards ()
             else Zk.Reshard.merge router ~to_shards ()
           in
           t1 := Engine.now engine;
           reshard := Some st)
     | Mdtest.Runner.File_stat ->
       while to_shards <> shards && Option.is_none !reshard do
         Process.sleep 0.005
       done;
       per_shard_znodes := Zk.Shard_router.node_counts router;
       live_stubs := Zk.Shard_router.live_stubs (Zk.Shard_router.stats router);
       logical := Zk.Shard_router.logical_population router
     | _ -> ());
    Faults.Faultplan.notify_phase armed (Mdtest.Runner.phase_to_string phase)
  in
  let results =
    if mdtest then Mdtest.Runner.run ~on_phase engine cfg ~ops_for_proc
    else (
      Engine.run engine;
      { Mdtest.Runner.rates = []; latencies = []; errors = 0; wall = Engine.now engine })
  in
  (* without a probe time, the probe starts once the run has drained
     with every restart recovered *)
  (match (registers, probe_at) with
   | Some load, None ->
     Process.spawn engine (probe_from (Engine.now engine) load);
     Engine.run engine
   | _ -> ());
  let violations = Zk.History.check ~max_states:check_budget hist in
  let registers =
    Option.map
      (fun _ ->
        let durability_violations =
          Zk.History.durability_audit hist ~lookup:(recovered_data router)
        in
        { ops_ok = !ops_ok;
          audited = Zk.History.audited_paths hist;
          durability_violations;
          recovery_s = !recovery;
          replicas_agree = replicas_agree router })
      registers
  in
  { results;
    router;
    trace = tr;
    backend_stations;
    faults_fired = Faults.Faultplan.fired armed;
    dedup_hits = Zk.Shard_router.dedup_hits router;
    per_shard_znodes = !per_shard_znodes;
    live_stubs_at_stat = !live_stubs;
    logical_znodes_at_stat = !logical;
    expected_logical_znodes =
      (if mdtest then
         1 + List.length (Mdtest.Workload.skeleton cfg) + (procs * files_per_proc)
       else 0);
    reshard = !reshard;
    reshard_window = !t1 -. !t0;
    history_recorded = Zk.History.recorded hist;
    history_checked = Zk.History.checked_ops hist;
    history_undetermined = Zk.History.undetermined hist;
    history_digest = Zk.History.digest hist;
    violations;
    registers }

let zk_raw ~servers ~procs ?(items = 80) () =
  let engine = Engine.create () in
  let ensemble = Zk.Ensemble.start engine (zk_config ~servers ~procs ()) in
  let sessions = Array.init procs (fun _ -> Zk.Ensemble.session ensemble ()) in
  (* setup: a parent node for all items *)
  Process.spawn engine (fun () ->
      match sessions.(0).Zk.Zk_client.create "/f7" ~data:"" with
      | Ok _ -> ()
      | Error e -> failwith (Zk.Zerror.to_string e));
  Engine.run engine;
  let path ~proc ~item = Printf.sprintf "/f7/n%d_%d" proc item in
  let must label = function
    | Ok _ -> ()
    | Error e -> failwith (label ^ ": " ^ Zk.Zerror.to_string e)
  in
  let create_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "create" (sessions.(proc).Zk.Zk_client.create (path ~proc ~item) ~data:"x"))
  in
  let get_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "get" (sessions.(proc).Zk.Zk_client.get (path ~proc ~item)))
  in
  let set_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "set" (sessions.(proc).Zk.Zk_client.set (path ~proc ~item) ~data:"y"))
  in
  let delete_rate =
    Mdtest.Runner.closed_loop engine ~procs ~items (fun ~proc ~item ->
        must "delete" (sessions.(proc).Zk.Zk_client.delete (path ~proc ~item)))
  in
  [ ("zoo_create", create_rate);
    ("zoo_get", get_rate);
    ("zoo_set", set_rate);
    ("zoo_delete", delete_rate) ]
