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

let cache : (string, Mdtest.Runner.results) Hashtbl.t = Hashtbl.create 64
let reset_cache () = Hashtbl.reset cache

let mdtest ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(unique = false) system ~procs
    () =
  let key =
    Printf.sprintf "%s|%d|%d|%d|%b" (system_label system) procs dirs_per_proc
      files_per_proc unique
  in
  match Hashtbl.find_opt cache key with
  | Some results -> results
  | None ->
    let engine = Engine.create () in
    let ops_for_proc = build_system engine system ~procs in
    let cfg =
      Mdtest.Workload.config ~dirs_per_proc ~files_per_proc
        ~unique_working_dirs:unique ~procs ()
    in
    let results = Mdtest.Runner.run engine cfg ~ops_for_proc in
    Hashtbl.replace cache key results;
    results

(* {2 One instrumented mdtest run over the DUFS stack}

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
   linearizability oracle. *)

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
  violations : Zk.History.violation list;
}

let dufs_mdtest ?(dirs_per_proc = 60) ?(files_per_proc = 60) ?(trace = false)
    ?(plan = []) ?(history_clients = 0) ?to_shards ?(config_adjust = Fun.id)
    ~spec ~shards ~procs () =
  let engine = Engine.create () in
  let tr = if trace then Obs.Trace.create () else Obs.Trace.null in
  if trace then Obs.Trace.enable tr;
  let config = config_adjust (zk_config ~servers:spec.zk_servers ~procs ()) in
  let hist = Zk.History.create engine in
  let wrap proc s =
    if proc < history_clients then Zk.History.wrap hist ~client:proc s else s
  in
  let router, ops_for_proc, backend_stations =
    build_dufs ~trace:tr ~wrap engine ~spec ~config ~shards ~cached:false
  in
  let armed =
    Faults.Faultplan.arm_shards engine (Zk.Shard_router.ensembles router) plan
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
  let results = Mdtest.Runner.run ~on_phase engine cfg ~ops_for_proc in
  if trace then Zk.Shard_router.publish router (Obs.Trace.metrics tr);
  let violations = Zk.History.check hist in
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
      1 + List.length (Mdtest.Workload.skeleton cfg) + (procs * files_per_proc);
    reshard = !reshard;
    reshard_window = !t1 -. !t0;
    history_recorded = Zk.History.recorded hist;
    history_checked = Zk.History.checked_ops hist;
    violations }

(* {2 Chaos: randomized network-fault schedules with a linearizability
      oracle}

   Clients speak to the coordination layer directly (no PFS back-ends —
   the oracle checks the quorum, not the data path) through a
   {!Zk.History} recorder, while a seeded {!Faults.Faultplan.chaos}
   schedule partitions, drops, delays, duplicates and crashes
   underneath them. Register paths are one-per-directory so a sharded
   deployment spreads them across shards (children co-locate with
   their parent). After the closing heal a probe measures how long
   each shard takes to commit a write again; after the run the
   Wing–Gong checker searches the recorded history. *)

type chaos_run = {
  seed : int64;
  shards : int;
  recorded : int;
  checked : int;
  undetermined_ops : int;
  violations : Zk.History.violation list;
  digest : string;
  recovery_s : float;  (** heal → every probed shard committed; nan = never *)
  faults_fired : int;
  ops_ok : int;        (** client ops with a determined outcome *)
  ops_err : int;       (** transport-failed client ops (undetermined) *)
  dedup_hits : int;
  dedup_evictions : int;
  sessions_expired : int;
  writes_failed_fast : int;
  stale_reads_served : int;
  writes_committed : int;
}

let chaos_reg_dir k = Printf.sprintf "/d%d" k
let chaos_seq_dir = "/dseq"

let chaos_run ?(servers = 5) ?(shards = 1) ?(clients = 8) ?(registers = 6)
    ?(heal_at = 15.) ?(post_heal = 10.) ?(events = 12) ?(think = 0.05)
    ?(unsafe_no_dedup = false) ?(config_adjust = fun c -> c) ?plan ~seed () =
  let engine = Engine.create () in
  let config =
    config_adjust
      { (zk_config ~servers ~procs:clients ()) with
        Zk.Ensemble.seed;
        request_timeout = 0.5;
        retry_backoff = 0.05;
        retry_backoff_cap = 1.0;
        session_timeout = 6.0;
        stale_read_after = 1.0;
        serve_stale_reads = true;
        fail_fast_after = 2.0;
        unsafe_no_dedup }
  in
  let router = Zk.Shard_router.start engine ~shards config in
  let hist = Zk.History.create engine in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Faults.Faultplan.chaos ~seed:(Int64.add seed 101L) ~servers ~shards
        ~start:1.0 ~heal_at ~events ()
  in
  let armed =
    Faults.Faultplan.arm_shards engine (Zk.Shard_router.ensembles router) plan
  in
  let stop = heal_at +. post_heal in
  let ops_ok = ref 0 and ops_err = ref 0 in
  (* Setup: the register directories, so each register's children land
     on that directory's shard. Runs before the chaos window opens. *)
  Process.spawn engine (fun () ->
      let s = Zk.Shard_router.session router () in
      let mk p =
        match s.Zk.Zk_client.create p ~data:"" with
        | Ok _ -> ()
        | Error e -> failwith ("chaos setup " ^ p ^ ": " ^ Zk.Zerror.to_string e)
      in
      for k = 0 to registers - 1 do
        mk (chaos_reg_dir k)
      done;
      mk chaos_seq_dir);
  for i = 0 to clients - 1 do
    let rng =
      Simkit.Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 7919)))
    in
    Process.spawn engine (fun () ->
        let h =
          ref (Zk.History.wrap hist ~client:i (Zk.Shard_router.session router ()))
        in
        let n = ref 0 in
        let fresh_data () =
          incr n;
          Printf.sprintf "%d.%d" i !n
        in
        (* let the setup commits land before the first register op *)
        Process.sleep (0.2 +. Simkit.Rng.exponential rng ~mean:think);
        while Engine.now engine < stop do
          let reg =
            chaos_reg_dir (Simkit.Rng.int rng registers) ^ "/r"
          in
          let outcome =
            match Simkit.Rng.int rng 100 with
            | x when x < 25 ->
              Result.map ignore ((!h).Zk.Zk_client.create reg ~data:(fresh_data ()))
            | x when x < 45 -> (!h).Zk.Zk_client.set reg ~data:(fresh_data ())
            | x when x < 60 -> (!h).Zk.Zk_client.delete reg
            | x when x < 80 -> Result.map ignore ((!h).Zk.Zk_client.get reg)
            | x when x < 90 -> Result.map ignore ((!h).Zk.Zk_client.exists reg)
            | _ ->
              Result.map ignore
                ((!h).Zk.Zk_client.create ~sequential:true
                   (chaos_seq_dir ^ "/s-") ~data:(fresh_data ()))
          in
          (match outcome with
           | Ok () -> incr ops_ok
           | Error
               (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS | Zk.Zerror.ZNOTEMPTY
               | Zk.Zerror.ZBADVERSION) ->
             (* semantic outcome of racing clients: the service answered *)
             incr ops_ok
           | Error Zk.Zerror.ZSESSIONEXPIRED ->
             incr ops_err;
             h :=
               Zk.History.wrap hist ~client:i (Zk.Shard_router.session router ());
             Process.sleep (Simkit.Rng.exponential rng ~mean:0.2)
           | Error _ ->
             incr ops_err;
             Process.sleep (Simkit.Rng.exponential rng ~mean:0.3));
          Process.sleep (Simkit.Rng.exponential rng ~mean:think)
        done;
        (!h).Zk.Zk_client.close ())
  done;
  (* Recovery probe: one representative register directory per shard;
     recovery is the time from heal until every one of them has
     committed a fresh write. *)
  let recovery = ref Float.nan in
  Engine.schedule engine ~delay:heal_at (fun () ->
      Process.spawn engine (fun () ->
          let by_shard = Hashtbl.create 8 in
          for k = registers - 1 downto 0 do
            let dir = chaos_reg_dir k in
            Hashtbl.replace by_shard
              (Zk.Shard_router.home_shard router (dir ^ "/r"))
              dir
          done;
          let dirs =
            List.sort compare
              (Hashtbl.fold (fun _ dir acc -> dir :: acc) by_shard [])
          in
          let s = ref (Zk.Shard_router.session router ()) in
          let n = ref 0 in
          List.iter
            (fun dir ->
              let rec attempt () =
                incr n;
                let path = Printf.sprintf "%s/probe%d" dir !n in
                match (!s).Zk.Zk_client.create path ~data:"" with
                | Ok _ -> ()
                | Error Zk.Zerror.ZSESSIONEXPIRED ->
                  s := Zk.Shard_router.session router ();
                  Process.sleep 0.05;
                  attempt ()
                | Error _ ->
                  Process.sleep 0.05;
                  attempt ()
              in
              attempt ())
            dirs;
          recovery := Engine.now engine -. heal_at));
  Engine.run engine;
  let violations = Zk.History.check ~max_states:2_000_000 hist in
  let sum f =
    Array.fold_left
      (fun acc e -> acc + f e)
      0
      (Zk.Shard_router.ensembles router)
  in
  { seed;
    shards;
    recorded = Zk.History.recorded hist;
    checked = Zk.History.checked_ops hist;
    undetermined_ops = Zk.History.undetermined hist;
    violations;
    digest = Zk.History.digest hist;
    recovery_s = !recovery;
    faults_fired = Faults.Faultplan.fired armed;
    ops_ok = !ops_ok;
    ops_err = !ops_err;
    dedup_hits = sum Zk.Ensemble.dedup_hits;
    dedup_evictions = sum Zk.Ensemble.dedup_evictions;
    sessions_expired = sum Zk.Ensemble.sessions_expired;
    writes_failed_fast = sum Zk.Ensemble.writes_failed_fast;
    stale_reads_served = sum Zk.Ensemble.stale_reads_served;
    writes_committed = sum Zk.Ensemble.writes_committed }

(* {2 Durability: power-failure and storage-corruption schedules with a
      durability oracle}

   A 64-proc mdtest runs over the full DUFS stack while the fault plan
   power-fails the whole coordination ensemble (optionally tearing,
   bit-rotting or snapshot-corrupting one member's disk during the
   outage). Alongside the mdtest load, a few register clients issue
   {e unconditioned} writes with unique data values through a
   {!Zk.History} recorder — mdtest's own rmdir is version-conditioned
   and therefore outside the recorded-register model, so the audit runs
   over the overlay registers the oracle can actually reason about.
   After the run (engine fully drained: every restart has recovered and
   re-elected), a probe write confirms the service is live again, the
   Wing–Gong checker validates the recorded history, and the durability
   oracle compares the leader's recovered tree against it: acked writes
   must have survived the power failure, unacked ones may be lost but
   must not resurrect inconsistently. *)

type durability_run = {
  d_seed : int64;
  d_label : string;
  d_results : Mdtest.Runner.results;
  d_mdtest_errors : int;
  d_recorded : int;
  d_checked : int;
  d_undetermined : int;
  d_audited : int;
  d_violations : Zk.History.violation list;   (* linearizability *)
  d_durability_violations : Zk.History.violation list;
  d_digest : string;
  d_recovered : bool;      (* post-outage probe write committed *)
  d_trees_agree : bool;    (* all live replicas fingerprint-equal *)
  d_faults_fired : int;
  d_reg_ok : int;
  d_reg_err : int;
  d_wal_appended : int;
  d_wal_replayed : int;
  d_wal_truncated : int;
  d_wal_tail_dropped : int;
  d_snap_loads : int;
  d_snap_fallbacks : int;
  d_recoveries : int;
  d_recovery_time_total : float;
  d_recovery_time_max : float;
  d_wal_tail_commits : int;
  d_transfer_diff_txns : int;
  d_transfer_snaps : int;
}

let dur_reg_dir k = Printf.sprintf "/dur%d" k

let durability_run ?(servers = 5) ?(procs = 64) ?(reg_clients = 8)
    ?(registers = 8) ?(ops_per_client = 50) ?(dirs_per_proc = 12)
    ?(files_per_proc = 12) ?(think = 0.02) ~plan ~label ~seed () =
  let engine = Engine.create () in
  let spec = { zk_servers = servers; backends = 4; backend_kind = Lustre } in
  let config =
    { (zk_config ~servers ~procs ()) with
      Zk.Ensemble.seed;
      request_timeout = 0.5;
      retry_backoff = 0.05;
      retry_backoff_cap = 1.0;
      session_timeout = 8.0;
      fail_fast_after = 2.0;
      (* low cadence so schedules cross several snapshots: corrupt-snap
         has something to corrupt and log pruning actually happens *)
      snapshot_every = 384 }
  in
  let router, ops_for_proc, _stations =
    build_dufs engine ~spec ~config ~shards:1 ~cached:false
  in
  let ensemble = (Zk.Shard_router.ensembles router).(0) in
  let hist = Zk.History.create engine in
  let armed = Faults.Faultplan.arm engine ensemble plan in
  let reg_ok = ref 0 and reg_err = ref 0 in
  (* Register directories, committed before any client op or fault. *)
  Process.spawn engine (fun () ->
      let s = Zk.Ensemble.session ensemble () in
      for k = 0 to registers - 1 do
        match s.Zk.Zk_client.create (dur_reg_dir k) ~data:"" with
        | Ok _ -> ()
        | Error e ->
          failwith ("durability setup " ^ dur_reg_dir k ^ ": "
                    ^ Zk.Zerror.to_string e)
      done);
  for i = 0 to reg_clients - 1 do
    let rng =
      Simkit.Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 6007)))
    in
    Process.spawn engine (fun () ->
        let h =
          ref (Zk.History.wrap hist ~client:i (Zk.Ensemble.session ensemble ()))
        in
        let n = ref 0 in
        let fresh_data () =
          incr n;
          Printf.sprintf "%d.%d" i !n
        in
        Process.sleep (0.2 +. Simkit.Rng.exponential rng ~mean:think);
        for _op = 1 to ops_per_client do
          let reg = dur_reg_dir (Simkit.Rng.int rng registers) ^ "/r" in
          let outcome =
            match Simkit.Rng.int rng 100 with
            | x when x < 40 ->
              Result.map ignore
                ((!h).Zk.Zk_client.create reg ~data:(fresh_data ()))
            | x when x < 70 -> (!h).Zk.Zk_client.set reg ~data:(fresh_data ())
            | x when x < 85 -> (!h).Zk.Zk_client.delete reg
            | _ -> Result.map ignore ((!h).Zk.Zk_client.get reg)
          in
          (match outcome with
           | Ok () -> incr reg_ok
           | Error (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS) -> incr reg_ok
           | Error Zk.Zerror.ZSESSIONEXPIRED ->
             incr reg_err;
             h :=
               Zk.History.wrap hist ~client:i (Zk.Ensemble.session ensemble ());
             Process.sleep (Simkit.Rng.exponential rng ~mean:0.2)
           | Error _ ->
             incr reg_err;
             Process.sleep (Simkit.Rng.exponential rng ~mean:0.3));
          Process.sleep (Simkit.Rng.exponential rng ~mean:think)
        done;
        (!h).Zk.Zk_client.close ())
  done;
  let cfg = Mdtest.Workload.config ~dirs_per_proc ~files_per_proc ~procs () in
  let results =
    Mdtest.Runner.run
      ~on_phase:(fun p ->
        Faults.Faultplan.notify_phase armed (Mdtest.Runner.phase_to_string p))
      engine cfg ~ops_for_proc
  in
  (* The run drained with every restart recovered; prove the service is
     actually live again by committing one more write. *)
  let recovered = ref false in
  Process.spawn engine (fun () ->
      let s = ref (Zk.Ensemble.session ensemble ()) in
      let attempts = ref 0 in
      let rec go () =
        incr attempts;
        if !attempts <= 200 then
          match
            (!s).Zk.Zk_client.create
              (Printf.sprintf "/dur-probe%d" !attempts) ~data:""
          with
          | Ok _ -> recovered := true
          | Error Zk.Zerror.ZSESSIONEXPIRED ->
            s := Zk.Ensemble.session ensemble ();
            Process.sleep 0.05;
            go ()
          | Error _ ->
            Process.sleep 0.05;
            go ()
      in
      go ());
  Engine.run engine;
  let violations = Zk.History.check ~max_states:2_000_000 hist in
  let lookup path =
    match Zk.Ensemble.leader_id ensemble with
    | None -> None
    | Some id -> (
      match Zk.Ztree.get (Zk.Ensemble.tree_of ensemble id) path with
      | Ok (data, _) -> Some data
      | Error _ -> None)
  in
  let durability_violations = Zk.History.durability_audit hist ~lookup in
  let trees_agree =
    match Zk.Ensemble.alive_ids ensemble with
    | [] -> false
    | id0 :: rest ->
      let f0 = Zk.Ztree.fingerprint (Zk.Ensemble.tree_of ensemble id0) in
      List.for_all
        (fun id -> Zk.Ztree.fingerprint (Zk.Ensemble.tree_of ensemble id) = f0)
        rest
  in
  { d_seed = seed;
    d_label = label;
    d_results = results;
    d_mdtest_errors = results.Mdtest.Runner.errors;
    d_recorded = Zk.History.recorded hist;
    d_checked = Zk.History.checked_ops hist;
    d_undetermined = Zk.History.undetermined hist;
    d_audited = Zk.History.audited_paths hist;
    d_violations = violations;
    d_durability_violations = durability_violations;
    d_digest = Zk.History.digest hist;
    d_recovered = !recovered;
    d_trees_agree = trees_agree;
    d_faults_fired = Faults.Faultplan.fired armed;
    d_reg_ok = !reg_ok;
    d_reg_err = !reg_err;
    d_wal_appended = Zk.Ensemble.wal_appended ensemble;
    d_wal_replayed = Zk.Ensemble.wal_replayed ensemble;
    d_wal_truncated = Zk.Ensemble.wal_truncated ensemble;
    d_wal_tail_dropped = Zk.Ensemble.wal_tail_dropped ensemble;
    d_snap_loads = Zk.Ensemble.snap_loads ensemble;
    d_snap_fallbacks = Zk.Ensemble.snap_fallbacks ensemble;
    d_recoveries = Zk.Ensemble.recoveries ensemble;
    d_recovery_time_total = Zk.Ensemble.recovery_time_total ensemble;
    d_recovery_time_max = Zk.Ensemble.recovery_time_max ensemble;
    d_wal_tail_commits = Zk.Ensemble.wal_tail_commits ensemble;
    d_transfer_diff_txns = Zk.Ensemble.transfer_diff_txns ensemble;
    d_transfer_snaps = Zk.Ensemble.transfer_snaps ensemble }

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
