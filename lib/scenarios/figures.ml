module Report = Mdtest.Report
module Runner = Mdtest.Runner
module Engine = Simkit.Engine
module Process = Simkit.Process

let default_procs = [ 16; 64; 128; 256 ]
let bar_procs = [ 64; 128; 256 ]
let zk_ok = function Ok _ -> () | Error e -> failwith (Zk.Zerror.to_string e)
let errno_ok = function Ok () -> () | Error e -> failwith (Fuselike.Errno.to_string e)

(* {2 Fig. 7} *)

let fig7_servers = [ 1; 4; 8 ]

(* [(op, [(servers, [(procs, rate)])])] *)
let fig7_data ?(procs_list = default_procs) () =
  let runs =
    List.map
      (fun servers ->
        ( servers,
          List.map (fun procs -> (procs, Systems.zk_raw ~servers ~procs ())) procs_list ))
      fig7_servers
  in
  List.map
    (fun op ->
      ( op,
        List.map
          (fun (servers, by_procs) ->
            ( servers,
              List.map (fun (procs, rates) -> (procs, List.assoc op rates)) by_procs ))
          runs ))
    [ "zoo_create"; "zoo_delete"; "zoo_set"; "zoo_get" ]

let fig7 ?procs_list () =
  let data = fig7_data ?procs_list () in
  List.iter
    (fun (op, by_servers) ->
      let series =
        List.map
          (fun (servers, points) ->
            { Report.label = Printf.sprintf "%d zk server%s" servers
                  (if servers > 1 then "s" else "");
              points })
          by_servers
      in
      Report.print_figure
        ~title:(Printf.sprintf "Fig. 7 — ZooKeeper %s() throughput" op)
        ~x_label:"procs" series)
    data

(* {2 The paper sweep}

   Figs. 8-10 and ablation-cmd read several mdtest phases of the same
   (system, procs) points. [sweep] runs each [(label, system)]
   series once at every procs count, prints one figure per phase (titled
   [title] of the phase's name) from those runs, and returns them as
   [(label, [(procs, results)])]. *)

let sweep ~title ~procs_list ~phases series =
  let runs =
    List.map
      (fun (label, system) ->
        ( label,
          List.map (fun procs -> (procs, Systems.mdtest system ~procs ())) procs_list ))
      series
  in
  List.iter
    (fun phase ->
      Report.print_figure
        ~title:(title (Runner.phase_to_string phase))
        ~x_label:"procs"
        (List.map
           (fun (label, points) ->
             { Report.label;
               points = List.map (fun (procs, r) -> (procs, Runner.rate r phase)) points
             })
           runs))
    phases;
  runs

let labelled systems =
  List.map (fun system -> (Systems.system_label system, system)) systems

let dufs_8zk = Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Lustre }

let dufs_8zk_pvfs =
  Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Pvfs }

(* {2 Fig. 8} *)

let fig8 () =
  ignore
    (sweep
       ~title:
         (Printf.sprintf "Fig. 8 — %s vs number of ZooKeeper servers (2 Lustre backends)")
       ~procs_list:bar_procs ~phases:Runner.all_phases
       (("Basic Lustre", Systems.Basic_lustre)
        :: List.map
             (fun zk_servers ->
               ( Printf.sprintf "%d Zookeeper" zk_servers,
                 Systems.Dufs
                   { zk_servers; backends = 2; backend_kind = Systems.Lustre } ))
             [ 1; 4; 8 ]))

(* {2 Fig. 9} *)

let fig9 () =
  ignore
    (sweep
       ~title:(Printf.sprintf "Fig. 9 — %s vs number of backend storages")
       ~procs_list:bar_procs
       ~phases:[ Runner.File_create; Runner.File_remove; Runner.File_stat ]
       (("Basic Lustre", Systems.Basic_lustre)
        :: List.map
             (fun backends ->
               ( Printf.sprintf "DUFS %d Lustre backends" backends,
                 Systems.Dufs
                   { zk_servers = 8; backends; backend_kind = Systems.Lustre } ))
             [ 2; 4 ]))

(* {2 Fig. 10} *)

let fig10 () =
  ignore
    (sweep
       ~title:(Printf.sprintf "Fig. 10 — %s: DUFS vs Lustre and PVFS2")
       ~procs_list:default_procs ~phases:Runner.all_phases
       (labelled [ Systems.Basic_lustre; dufs_8zk; Systems.Basic_pvfs; dufs_8zk_pvfs ]))

(* {2 Headline ratios (§V-D)} *)

(* Each of the four ratios, [(label, paper's value, measured)], beats 1
   and lies within 0.7-1.3x of the paper's value. *)
let headline_check ratios =
  List.concat_map
    (fun (label, paper, x) ->
      Report.expect
        (x > 1. && x >= 0.7 *. paper && x <= 1.3 *. paper)
        "%s: %.2fx, expected > 1 and within [%.2fx, %.2fx]" label x (0.7 *. paper)
        (1.3 *. paper))
    ratios

let headline () =
  let run system = Systems.mdtest system ~procs:256 () in
  let lustre = run Systems.Basic_lustre and pvfs = run Systems.Basic_pvfs in
  let dufs_lustre = run dufs_8zk and dufs_pvfs = run dufs_8zk_pvfs in
  let ratio phase dufs base = Runner.rate dufs phase /. Runner.rate base phase in
  let ratios =
    [ ( "directory create: DUFS(2xLustre) / Basic Lustre  (1.9)", 1.9,
        ratio Runner.Dir_create dufs_lustre lustre );
      ( "directory create: DUFS(2xPVFS) / Basic PVFS      (23)", 23.,
        ratio Runner.Dir_create dufs_pvfs pvfs );
      ( "file stat:        DUFS(2xLustre) / Basic Lustre  (1.3)", 1.3,
        ratio Runner.File_stat dufs_lustre lustre );
      ( "file stat:        DUFS(2xPVFS) / Basic PVFS      (3.0)", 3.0,
        ratio Runner.File_stat dufs_pvfs pvfs ) ]
  in
  Report.print_header "§V-D headline ratios at 256 client processes (paper in parens)";
  List.iter (fun (label, _, x) -> Report.print_ratio ~label x) ratios;
  Report.gate ~experiment:"headline" (headline_check ratios)

(* {2 Fig. 11 — memory usage} *)

let fig11_data ?(millions = [ 0.5; 1.0; 1.5; 2.0; 2.5 ]) () =
  let zk = Zk.Zk_local.create () in
  let session = Zk.Zk_local.session zk in
  zk_ok (session.Zk.Zk_client.create "/m" ~data:"");
  let backend = Fuselike.Memfs.create ~clock:(fun () -> 0.) () in
  let backend_ops = Fuselike.Memfs.ops backend in
  errno_ok (Dufs.Physical.format Dufs.Physical.default_layout backend_ops);
  let dufs =
    Dufs.Client.mount ~coord:(Zk.Zk_local.session zk) ~backends:[| backend_ops |] ()
  in
  let passthrough = Fuselike.Passthrough.create backend_ops in
  let dir_meta = Dufs.Meta.encode (Dufs.Meta.dir ~mode:0o755 ~ctime:0.) in
  let created = ref 0 in
  let mib = Zk.Memory_model.to_mib in
  List.map
    (fun m ->
      let target = int_of_float (m *. 1e6) in
      while !created < target do
        zk_ok
          (session.Zk.Zk_client.create (Printf.sprintf "/m/d%08d" !created) ~data:dir_meta);
        incr created
      done;
      ( m,
        mib (Zk.Zk_local.server_resident_bytes zk),
        mib (Dufs.Client.resident_bytes dufs),
        mib (Fuselike.Passthrough.resident_bytes passthrough) ))
    (List.sort compare millions)

let fig11 ?millions () =
  let rows = fig11_data ?millions () in
  Report.print_header "Fig. 11 — resident memory vs millions of directories created";
  Printf.printf "%-12s %14s %14s %14s   [MiB]\n" "dirs (M)" "Zookeeper" "DUFS"
    "Dummy FUSE";
  List.iter
    (fun (m, zk_mb, dufs_mb, fuse_mb) ->
      Printf.printf "%-12.1f %14.0f %14.1f %14.1f\n" m zk_mb dufs_mb fuse_mb)
    rows;
  flush stdout

(* {2 Extension ablations}: each runs, prints, then gates on a pure
   [*_check] of the claim its printed footnote makes. *)

(* An ensemble with one session per process and the znode [root]. *)
let sessions_with_root engine config ~procs root =
  let ensemble = Zk.Ensemble.start engine config in
  let sessions = Array.init procs (fun _ -> Zk.Ensemble.session ensemble ()) in
  Process.spawn engine (fun () -> zk_ok (sessions.(0).Zk.Zk_client.create root ~data:""));
  Engine.run engine;
  sessions

(* {2 Ablation: mapping strategies} *)

type mapping_row =
  { n : int; mod_imbalance : float; mod_moved : float;
    ring_imbalance : float; ring_moved : float }

(* Growing N -> N+1 back-ends, MD5 mod N moves nearly the N/(N+1) of
   FIDs a fresh hash would, the ring about the 1/(N+1) share the new
   node takes; both keep the load even. *)
let ablation_mapping_check rows =
  List.concat_map
    (fun r ->
      let n = float_of_int r.n in
      List.concat
        [ Report.expect (r.mod_moved >= 0.95 *. n /. (n +. 1.))
            "N=%d: MD5 mod N relocated %.1f%% of FIDs, expected >= %.1f%%" r.n
            (100. *. r.mod_moved) (95. *. n /. (n +. 1.));
          Report.expect (r.ring_moved <= 1.5 /. (n +. 1.) && r.ring_moved < r.mod_moved)
            "N=%d: consistent hashing relocated %.1f%% of FIDs, expected <= %.1f%% \
             and less than MD5 mod N" r.n (100. *. r.ring_moved) (150. /. (n +. 1.));
          Report.expect (r.mod_imbalance <= 1.3 && r.ring_imbalance <= 1.3)
            "N=%d: imbalance %.3f (MD5 mod N) / %.3f (consistent hashing), \
             expected <= 1.3" r.n r.mod_imbalance r.ring_imbalance ])
    rows

let ablation_mapping () =
  Report.print_header
    "Ablation — MD5-mod-N vs consistent hashing (200k FIDs from 8 clients)";
  let fids =
    List.concat_map
      (fun client ->
        let gen = Dufs.Fid.Gen.create ~client_id:(Int64.of_int (client + 1)) in
        List.init 25_000 (fun _ -> Dufs.Fid.Gen.next gen))
      (List.init 8 Fun.id)
  in
  let keys = List.map Dufs.Fid.to_bytes fids in
  let rows =
    List.map
      (fun n ->
        let before = Dufs.Mapping.md5_mod ~backends:n in
        let after = Dufs.Mapping.md5_mod ~backends:(n + 1) in
        let moved = List.filter (fun fid -> before fid <> after fid) fids in
        let ring = Zk.Consistent_hash.create (List.init n Fun.id) in
        { n;
          mod_imbalance = Dufs.Mapping.imbalance before ~backends:n fids;
          mod_moved = float_of_int (List.length moved) /. float_of_int (List.length fids);
          ring_imbalance =
            Dufs.Mapping.imbalance
              (fun fid -> Zk.Consistent_hash.lookup ring (Dufs.Fid.to_bytes fid))
              ~backends:n fids;
          ring_moved =
            Zk.Consistent_hash.relocated ~before:ring
              ~after:(Zk.Consistent_hash.add_node ring n) keys })
      [ 2; 4; 8 ]
  in
  Printf.printf "%-28s %12s %12s %18s\n" "strategy" "N" "imbalance"
    "relocated N->N+1";
  List.iter
    (fun r ->
      Printf.printf "%-28s %12d %12.3f %17.1f%%\n" "MD5 mod N (paper)" r.n
        r.mod_imbalance (100. *. r.mod_moved);
      Printf.printf "%-28s %12d %12.3f %17.1f%%\n" "consistent hashing (§VII)" r.n
        r.ring_imbalance (100. *. r.ring_moved))
    rows;
  flush stdout;
  Report.gate ~experiment:"ablation-mapping" (ablation_mapping_check rows)

(* {2 Ablation: DUFS vs hypothetical Lustre Clustered MDS (§VI)} *)

type cmd_row = { procs : int; lustre : float; cmd2 : float; cmd4 : float; dufs : float }

(* More metadata servers shard lookups, so dir-stat rises with the MDS
   count; more mutations cross servers onto the global lock, so
   dir-create falls with it. DUFS beats both CMD variants on both. *)
let ablation_cmd_check data =
  List.concat_map
    (fun (phase, rows) ->
      List.concat_map
        (fun r ->
          let at =
            Printf.sprintf "%s at %d procs" (Runner.phase_to_string phase) r.procs
          in
          let ordered rel sign =
            Report.expect (rel r.cmd4 r.cmd2 && rel r.cmd2 r.lustre)
              "%s: CMD 4 %.0f, CMD 2 %.0f, Basic Lustre %.0f ops/s, expected CMD 4 \
               %s CMD 2 %s Basic Lustre" at r.cmd4 r.cmd2 r.lustre sign sign
          in
          (match phase with
           | Runner.Dir_stat -> ordered ( > ) ">"
           | _ -> ordered ( < ) "<")
          @ Report.expect (r.dufs > Float.max r.cmd2 r.cmd4)
              "%s: DUFS %.0f ops/s does not beat CMD 2 (%.0f) and CMD 4 (%.0f)" at
              r.dufs r.cmd2 r.cmd4)
        rows)
    data

let ablation_cmd () =
  Report.print_header
    "Ablation — DUFS vs Lustre Clustered MDS (CMD): global-lock cost of \
     cross-server updates";
  let phases = [ Runner.Dir_create; Runner.Dir_stat ] in
  let runs =
    sweep ~title:(Printf.sprintf "ablation-cmd — %s") ~procs_list:bar_procs ~phases
      (labelled
         [ Systems.Basic_lustre; Systems.Lustre_cmd 2; Systems.Lustre_cmd 4; dufs_8zk ])
  in
  let row phase procs =
    let rate system =
      Runner.rate (List.assoc procs (List.assoc (Systems.system_label system) runs)) phase
    in
    { procs; lustre = rate Systems.Basic_lustre; cmd2 = rate (Systems.Lustre_cmd 2);
      cmd4 = rate (Systems.Lustre_cmd 4); dufs = rate dufs_8zk }
  in
  print_endline
    "  (CMD shards lookups nicely, but ~1/2 of 2-MDS mutations and ~3/4 of\n\
    \   4-MDS mutations cross servers and serialize on the global lock —\n\
    \   the consistency cost §VI predicts; DUFS replaces that lock with\n\
    \   ZooKeeper's totally-ordered broadcast)";
  flush stdout;
  Report.gate ~experiment:"ablation-cmd"
    (ablation_cmd_check
       (List.map (fun phase -> (phase, List.map (row phase) bar_procs)) phases))

(* {2 Ablation: shared vs unique working directories (mdtest -u)} *)

type unique_ablation = {
  lustre_rows : (Runner.phase * float * float) list;
  dufs_rows : (Runner.phase * float * float) list;
}

(* Private directories end Lustre's DLM lock ping-pong, so -u gains it
   at least 10%; znode creates take no directory lock, so DUFS moves by
   at most 2%. *)
let ablation_unique_check r =
  let ratios system ok claim =
    List.concat_map (fun (phase, shared, unique) ->
        Report.expect (ok (unique /. shared)) "%s %s: unique/shared %.3f, expected %s"
          system (Runner.phase_to_string phase) (unique /. shared) claim)
  in
  ratios "Basic Lustre" (fun x -> x >= 1.10) ">= 1.10" r.lustre_rows
  @ ratios "DUFS" (fun x -> Float.abs (x -. 1.) <= 0.02) "within 2% of 1" r.dufs_rows

let ablation_unique () =
  Report.print_header
    "Ablation — shared leaf dirs vs unique per-process dirs (mdtest -u), 256 procs";
  Printf.printf "%-22s %-10s %14s %14s\n" "system" "mode" "dir-create/s" "file-create/s";
  let rows system label =
    let shared = Systems.mdtest system ~procs:256 () in
    let unique = Systems.mdtest ~unique:true system ~procs:256 () in
    List.iter
      (fun (mode, r) ->
        Printf.printf "%-22s %-10s %14.0f %14.0f\n" label mode
          (Runner.rate r Runner.Dir_create) (Runner.rate r Runner.File_create))
      [ ("shared", shared); ("unique", unique) ];
    List.map
      (fun phase -> (phase, Runner.rate shared phase, Runner.rate unique phase))
      [ Runner.Dir_create; Runner.File_create ]
  in
  let lustre_rows = rows Systems.Basic_lustre "Basic Lustre" in
  let dufs_rows = rows dufs_8zk "DUFS 2xLustre/8zk" in
  print_endline
    "  (Lustre gains from -u because private directories end the DLM lock\n\
    \   ping-pong; DUFS is indifferent — znode creates take no directory lock)";
  flush stdout;
  Report.gate ~experiment:"ablation-unique"
    (ablation_unique_check { lustre_rows; dufs_rows })

(* {2 Ablation: observers — read capacity without quorum cost} *)

let observer_rates ~servers ~observers ~procs =
  let engine = Engine.create () in
  let sessions =
    sessions_with_root engine
      { (Systems.zk_config ~servers ~procs ()) with Zk.Ensemble.observers }
      ~procs "/obs"
  in
  let writes =
    Mdtest.Runner.closed_loop engine ~procs ~items:60 (fun ~proc ~item ->
        ignore
          (sessions.(proc).Zk.Zk_client.create
             (Printf.sprintf "/obs/w%d_%d" proc item)
             ~data:""))
  in
  let reads =
    Mdtest.Runner.closed_loop engine ~procs ~items:60 (fun ~proc ~item:_ ->
        ignore (sessions.(proc).Zk.Zk_client.get "/obs"))
  in
  (writes, reads)

(* Observers serve reads but never vote: 3 voters + 4 observers keep 95%
   of 7 voters' gets/s and of 3 voters' creates/s, while 7 voters pay a
   larger quorum on every create. *)
let ablation_observers_check rows =
  let creates_3, _ = List.assoc (3, 0) rows in
  let creates_7, gets_7 = List.assoc (7, 0) rows in
  let creates_obs, gets_obs = List.assoc (3, 4) rows in
  List.concat
    [ Report.expect (gets_obs >= 0.95 *. gets_7)
        "3 voters + 4 observers: %.0f gets/s, below 95%% of 7 voters' %.0f"
        gets_obs gets_7;
      Report.expect (creates_obs >= 0.95 *. creates_3)
        "3 voters + 4 observers: %.0f creates/s, below 95%% of 3 voters' %.0f"
        creates_obs creates_3;
      Report.expect (creates_7 < creates_3)
        "7 voters: %.0f creates/s, not below 3 voters' %.0f" creates_7 creates_3 ]

let ablation_observers () =
  Report.print_header
    "Ablation — non-voting observers: read capacity without quorum cost (256 procs)";
  let rows =
    List.map
      (fun (servers, observers) ->
        ((servers, observers), observer_rates ~servers ~observers ~procs:256))
      [ (3, 0); (7, 0); (3, 4) ]
  in
  Printf.printf "%-28s %14s %14s\n" "ensemble" "creates/s" "gets/s";
  List.iter
    (fun ((voters, observers), (writes, reads)) ->
      Printf.printf "%-28s %14.0f %14.0f\n"
        (if observers = 0 then Printf.sprintf "%d voters" voters
         else Printf.sprintf "%d voters + %d observers" voters observers)
        writes reads)
    rows;
  print_endline
    "  (observers apply commits and serve reads but never vote: they buy\n\
    \   close to 7-server read capacity at close to 3-server write cost)";
  flush stdout;
  Report.gate ~experiment:"ablation-observers" (ablation_observers_check rows)

(* {2 Ablation: GIGA+-style directory indexing (§VI)} *)

(* A GIGA+ directory over [servers] holding [files] entries, filled
   untimed by one client. *)
let giga_filled engine ~servers ~split_threshold ~files prefix =
  let t =
    Gigaplus.Giga.create engine
      ~config:{ (Gigaplus.Giga.default_config ~servers) with split_threshold } ()
  in
  Process.spawn engine (fun () ->
      let c = Gigaplus.Giga.client t in
      for i = 0 to files - 1 do
        ignore (Gigaplus.Giga.create_file c (Printf.sprintf "%s%05d" prefix i))
      done);
  Engine.run engine;
  t

(* All clients hammer ONE directory. Lustre serializes on its MDS + the
   directory's DLM lock; DUFS on the coordination service's write path;
   GIGA+ splits the directory over servers with no shared state. *)
let giga_single_dir_rate ~procs variant =
  let engine = Engine.create () in
  let create =
    match variant with
    | `Lustre ->
      let fs = Pfs.Lustre_sim.create engine () in
      let clients = Array.init procs (fun id -> Pfs.Lustre_sim.client fs ~client_id:id) in
      Process.spawn engine (fun () ->
          errno_ok (clients.(0).Fuselike.Vfs.mkdir "/huge" ~mode:0o755));
      Engine.run engine;
      fun proc name ->
        ignore (clients.(proc).Fuselike.Vfs.create ("/huge/" ^ name) ~mode:0o644)
    | `Dufs ->
      let config = Systems.zk_config ~servers:8 ~procs () in
      let sessions = sessions_with_root engine config ~procs "/huge" in
      fun proc name ->
        ignore (sessions.(proc).Zk.Zk_client.create ("/huge/" ^ name) ~data:"")
    | `Giga servers ->
      (* warm past the early single-partition phase, untimed *)
      let t = giga_filled engine ~servers ~split_threshold:400 ~files:8000 "warm" in
      let clients = Array.init procs (fun _ -> Gigaplus.Giga.client t) in
      fun proc name -> ignore (Gigaplus.Giga.create_file clients.(proc) name)
  in
  Mdtest.Runner.closed_loop engine ~procs ~items:100 (fun ~proc ~item ->
      create proc (Printf.sprintf "f%d_%d" proc item))

type giga_ablation = {
  creates : ([ `Lustre | `Dufs | `Giga of int ] * (int * float) list) list;
  available : float;
}

(* GIGA+ has no shared state, so 8 servers insert at least as fast as 4,
   and 4 at least 10x faster than DUFS or Lustre; but its partitions are
   unreplicated, so one crash leaves part, not all or none, of the
   directory reachable. *)
let ablation_giga_check r =
  let rate variant procs = List.assoc procs (List.assoc variant r.creates) in
  List.concat_map
    (fun (procs, _) ->
      let giga4 = rate (`Giga 4) procs and giga8 = rate (`Giga 8) procs in
      let best = Float.max (rate `Lustre procs) (rate `Dufs procs) in
      Report.expect (giga8 >= giga4 && giga4 >= 10. *. best)
        "%d procs: GIGA+ 8 servers %.0f, 4 servers %.0f creates/s, expected 8 >= 4 \
         >= 10x the better of DUFS and Lustre (%.0f)" procs giga8 giga4 best)
    (List.assoc `Lustre r.creates)
  @ Report.expect (r.available > 0. && r.available < 1.)
      "availability after losing 1 of 8 GIGA+ servers is %.1f%%, expected \
       strictly between 0 and 100%%" (100. *. r.available)

let ablation_giga () =
  Report.print_header
    "Ablation — creates in ONE huge directory: GIGA+ indexing vs DUFS vs Lustre";
  let creates =
    List.map
      (fun v -> (v, List.map (fun p -> (p, giga_single_dir_rate ~procs:p v)) [ 64; 256 ]))
      [ `Lustre; `Dufs; `Giga 4; `Giga 8 ]
  in
  (* the price §VI points out: unreplicated partitions *)
  let t =
    giga_filled (Engine.create ()) ~servers:8 ~split_threshold:200 ~files:10_000 "e"
  in
  Gigaplus.Giga.crash_server t 0;
  let available = Gigaplus.Giga.available_fraction t in
  Printf.printf "%-26s %14s %14s   [creates/s]\n" "system" "64 procs" "256 procs";
  List.iter
    (fun (variant, points) ->
      Printf.printf "%-26s"
        (match variant with
         | `Lustre -> "Basic Lustre (DLM lock)"
         | `Dufs -> "DUFS 8zk"
         | `Giga servers -> Printf.sprintf "GIGA+ %d servers" servers);
      List.iter (fun (_, rate) -> Printf.printf " %14.0f" rate) points;
      print_newline ())
    creates;
  Printf.printf
    "availability after losing 1 of 8 GIGA+ servers: %.1f%% of the directory\n"
    (100. *. available);
  print_endline
    "  (GIGA+ out-scales both on pure insert rate — no shared state — but a\n\
    \   single server loss makes part of the namespace unreachable; DUFS keeps\n\
    \   100% availability while a quorum of coordination servers survives)";
  flush stdout;
  Report.gate ~experiment:"ablation-giga" (ablation_giga_check { creates; available })

(* {2 Ablation: client-side metadata cache} *)

(* Hot-entry stat loop: every client re-stats the same few directories
   (polling / ls -l behaviour), first uncached then cached. *)
let cache_stat_rate ~procs ~cached =
  let engine = Engine.create () in
  let ensemble = Zk.Ensemble.start engine (Systems.zk_config ~servers:8 ~procs ()) in
  Process.spawn engine (fun () ->
      let s = Zk.Ensemble.session ensemble () in
      for i = 0 to 9 do
        zk_ok (s.Zk.Zk_client.create (Printf.sprintf "/hot%d" i) ~data:"")
      done);
  Engine.run engine;
  let sessions =
    Array.init procs (fun _ ->
        let s = Zk.Ensemble.session ensemble () in
        if cached then
          Dufs.Cache.handle (Dufs.Cache.wrap ~now:(fun () -> Engine.now engine) s)
        else s)
  in
  Mdtest.Runner.closed_loop engine ~procs ~items:300 (fun ~proc ~item ->
      ignore (sessions.(proc).Zk.Zk_client.get (Printf.sprintf "/hot%d" ((proc + item) mod 10))))

type cache_ablation = {
  mdtest_rows : (Runner.phase * float * float) list;
  hot_rows : (int * float * float) list;
}

(* mdtest is scan-once, so the cache must be neutral there: within 2%
   of uncached DUFS. The hot loop re-references, so the cache must pay
   off by at least 20x at every scale. *)
let ablation_cache_check r =
  List.concat_map
    (fun (phase, plain, cached) ->
      Report.expect
        (Float.abs ((cached /. plain) -. 1.) <= 0.02)
        "mdtest %s: DUFS+cache %.0f ops/s is not within 2%% of DUFS %.0f ops/s"
        (Runner.phase_to_string phase) cached plain)
    r.mdtest_rows
  @ List.concat_map
      (fun (procs, plain, cached) ->
        Report.expect
          (cached /. plain >= 20.)
          "hot-entry stat loop at %d procs: %.1fx speedup, expected >= 20x"
          procs (cached /. plain))
      r.hot_rows

let ablation_cache ?(procs = 256) ?(items = 60) ?(hot_procs = [ 64; 256 ]) () =
  Report.print_header
    "Ablation — client-side metadata cache with lease invalidation";
  (* part 1: mdtest is scan-once, so the cache must be neutral there *)
  let spec = { Systems.zk_servers = 8; backends = 2; backend_kind = Systems.Lustre } in
  let run system =
    Systems.mdtest ~dirs_per_proc:items ~files_per_proc:items system ~procs ()
  in
  let plain = run (Systems.Dufs spec) and cached = run (Systems.Dufs_cached spec) in
  Printf.printf "mdtest (each entry touched once per phase, %d procs):\n" procs;
  Printf.printf "  %-14s %14s %14s\n" "phase" "DUFS" "DUFS+cache";
  let mdtest_rows =
    List.map
      (fun phase ->
        let plain = Runner.rate plain phase and cached = Runner.rate cached phase in
        Printf.printf "  %-14s %14.0f %14.0f\n" (Runner.phase_to_string phase) plain
          cached;
        (phase, plain, cached))
      [ Runner.Dir_stat; Runner.Dir_create ]
  in
  print_endline
    "  (neutral, as expected: a scan-once workload has no re-references,\n\
    \   and a leased read costs exactly one visit, like an uncached one)";
  (* part 2: re-reference workload — where client caching pays off *)
  Printf.printf "\nhot-entry stat loop (10 shared dirs re-stat'd 300x per client):\n";
  Printf.printf "  %-8s %16s %16s %10s\n" "procs" "uncached (op/s)" "cached (op/s)"
    "speedup";
  let hot_rows =
    List.map
      (fun procs ->
        let plain = cache_stat_rate ~procs ~cached:false in
        let cached = cache_stat_rate ~procs ~cached:true in
        Printf.printf "  %-8d %16.0f %16.0f %9.1fx\n" procs plain cached
          (cached /. plain);
        (procs, plain, cached))
      hot_procs
  in
  print_endline
    "  (hits are served locally; lease revocations keep remote updates\n\
    \   visible — the consistency overhead §VI says usually forces client\n\
    \   caching off is carried by the coordination service instead)";
  flush stdout;
  Report.gate ~experiment:"ablation-cache"
    (ablation_cache_check { mdtest_rows; hot_rows })

(* {2 Ablation: synchronous vs pipelined (async) coordination API} *)

(* Closed loop where each client keeps [window] writes in flight using
   the zoo_amulti-style API; window = 1 is the paper's synchronous API. *)
let pipelined_create_rate ~servers ~clients ~per_client ~window =
  let engine = Engine.create () in
  let ensemble = Zk.Ensemble.start engine (Systems.zk_config ~servers ~procs:clients ()) in
  let finish_time = ref 0. in
  let remaining_clients = ref clients in
  for client = 0 to clients - 1 do
    let session = Zk.Ensemble.session ensemble () in
    let submitted = ref 0 and completed = ref 0 in
    let rec refill () =
      if !submitted < per_client then begin
        let i = !submitted in
        incr submitted;
        session.Zk.Zk_client.multi_async
          [ Zk.Zk_client.create_op (Printf.sprintf "/a%d_%d" client i) ~data:"" ]
          (fun _result ->
            incr completed;
            if !completed = per_client then begin
              decr remaining_clients;
              if !remaining_clients = 0 then finish_time := Engine.now engine
            end
            else refill ())
      end
    in
    for _ = 1 to window do
      refill ()
    done
  done;
  Engine.run engine;
  float_of_int (clients * per_client) /. !finish_time

(* One synchronous client leaves the write pipeline idle: a window of 16
   recovers at least 2.5x of it, and a window of 4 loses nothing. Eight
   clients saturate the pipeline, so the window moves nothing (2%). *)
let ablation_async_check rows =
  let rate clients window = List.assoc (clients, window) rows in
  let saturated = List.map (rate 8) [ 1; 4; 16 ] in
  let lo = List.fold_left Float.min infinity saturated in
  let hi = List.fold_left Float.max 0. saturated in
  List.concat
    [ Report.expect (rate 1 16 >= 2.5 *. rate 1 1)
        "1 client: window 16 gives %.2fx window 1's creates/s, expected >= 2.5x"
        (rate 1 16 /. rate 1 1);
      Report.expect (rate 1 4 >= rate 1 1)
        "1 client: window 4 gives %.0f creates/s, below window 1's %.0f" (rate 1 4) (rate 1 1);
      Report.expect (hi <= 1.02 *. lo)
        "8 clients: windows 1/4/16 give %.0f to %.0f creates/s, expected within 2%%"
        lo hi ]

let ablation_async () =
  Report.print_header
    "Ablation — synchronous API (paper §IV-D) vs pipelined async API, creates";
  let rows =
    List.concat_map
      (fun clients ->
        List.map
          (fun window ->
            ( (clients, window),
              pipelined_create_rate ~servers:8 ~clients ~per_client:200 ~window ))
          [ 1; 4; 16 ])
      [ 1; 2; 8 ]
  in
  Printf.printf "%-34s %10s %14s\n" "configuration" "window" "creates/s";
  List.iter
    (fun ((clients, window), rate) ->
      Printf.printf "%2d clients / 8 zk servers %10d %14.0f\n" clients window rate)
    rows;
  print_endline
    "  (few synchronous clients cannot saturate the write pipeline —\n\
    \   async windows recover the throughput that §V needed 64+ processes\n\
    \   to reach)";
  flush stdout;
  Report.gate ~experiment:"ablation-async" (ablation_async_check rows)

(* {2 mdtest under declarative fault schedules (failure-path benchmark)} *)

let faults_spec = { Systems.zk_servers = 5; backends = 2; backend_kind = Systems.Lustre }
let faults_procs = 64

(* Two complementary failure shapes. The quorum-loss schedule holds the
   ensemble below quorum for longer than the client request timeout, so
   retries of still-pending writes must be answered by re-pointing the
   in-flight proposal (not by a second apply). The rolling schedule
   kills follower homes of committed writes, so retries are answered
   from the replicated dedup table. Offsets are virtual seconds after
   the named mdtest phase begins. *)
let fault_plans =
  [ ("leader-quorum-loss",
     "crash-leader@file-create+0.05;crash=1@file-create+0.1;\
      crash=2@file-create+0.15;restart-all@file-create+4.5");
    ("rolling-followers",
     "crash=1@dir-create+0.05;restart=1@dir-create+1.5;\
      crash=2@file-create+0.05;restart=2@file-create+1.5") ]

(* [(label, plan, run)]: one [Systems.dufs_mdtest] run per schedule at
   [procs] processes with [items] dirs and files each, headed by the
   exactly-comparable fault-free baseline (empty plan). *)
let faults_data ?(procs = faults_procs) ?(items = 60) () =
  let parse label text =
    match Faults.Faultplan.parse text with
    | Ok plan -> plan
    | Error msg -> failwith (Printf.sprintf "fault plan %s: %s" label msg)
  in
  let run label plan =
    ( label,
      plan,
      Systems.dufs_mdtest ~dirs_per_proc:items ~files_per_proc:items ~plan
        ~spec:faults_spec ~shards:1 ~procs () )
  in
  run "fault-free" []
  :: List.map (fun (label, text) -> run label (parse label text)) fault_plans

(* Every run is error-free with an exact census, every event of its plan
   fired, and a faulted plan's retried writes were answered from the
   dedup table (exactly-once, not a second apply). *)
let faults_check runs =
  List.concat_map
    (fun (label, plan, (r : Systems.dufs_run)) ->
      let events = List.length plan in
      List.concat
        [ Report.expect (r.Systems.results.Runner.errors = 0)
            "%s: %d client op errors" label r.Systems.results.Runner.errors;
          Report.expect
            (r.Systems.logical_znodes_at_stat = r.Systems.expected_logical_znodes)
            "%s: census %d <> expected %d" label r.Systems.logical_znodes_at_stat
            r.Systems.expected_logical_znodes;
          Report.expect (r.Systems.faults_fired = events)
            "%s: %d of %d fault events fired" label r.Systems.faults_fired events;
          Report.expect (events = 0 || r.Systems.dedup_hits > 0)
            "%s: no dedup hits under faults" label ])
    runs

let faults ?(procs = faults_procs) ?items ?json_path () =
  Report.print_header
    (Printf.sprintf
       "Faults — mdtest %d procs over DUFS 2xLustre/5zk while the ensemble \
        crashes and recovers"
       procs);
  List.iter
    (fun (label, text) -> Printf.printf "  %-20s %s\n" label text)
    fault_plans;
  print_newline ();
  let data = faults_data ~procs ?items () in
  Printf.printf "%-14s" "ops/sec";
  List.iter (fun (label, _, _) -> Printf.printf " %20s" label) data;
  print_newline ();
  List.iter
    (fun phase ->
      Printf.printf "%-14s" (Runner.phase_to_string phase);
      List.iter
        (fun (_, _, (r : Systems.dufs_run)) ->
          Printf.printf " %20.0f" (Runner.rate r.Systems.results phase))
        data;
      print_newline ())
    Runner.all_phases;
  print_newline ();
  List.iter
    (fun (label, _, (r : Systems.dufs_run)) ->
      Printf.printf
        "%-20s errors=%d  dedup_hits=%d  faults_fired=%d  znodes@file-stat=%d \
         (expected %d%s)\n"
        label r.Systems.results.Runner.errors r.Systems.dedup_hits
        r.Systems.faults_fired r.Systems.logical_znodes_at_stat
        r.Systems.expected_logical_znodes
        (if r.Systems.logical_znodes_at_stat = r.Systems.expected_logical_znodes
         then ", exact"
         else ", MISMATCH"))
    data;
  flush stdout;
  Option.iter
    (fun path ->
      Report.emit_json ~path
        (List.concat_map
           (fun (label, _, (r : Systems.dufs_run)) ->
             List.map
               (fun phase ->
                 Report.point
                   ~experiment:("mdtest-" ^ Runner.phase_to_string phase)
                   ~procs
                   ~config:(label ^ "|zk=5|backends=2xLustre")
                   ~ops_per_sec:(Runner.rate r.Systems.results phase) ())
               Runner.all_phases)
           data))
    json_path;
  Report.gate ~experiment:"faults" (faults_check data)

(* The CI variant. At 32 procs and 30 items the file-create phase still
   outlasts every plan's crash offsets, so each fault lands in the phase
   its plan names, as in the full run. *)
let faults_smoke ?json_path () = faults ~procs:32 ~items:30 ?json_path ()

(* {2 Span-trace profile: where inside the stack does an op's time go?}

   One mdtest run per scale with the trace enabled end to end. The
   quorum phase durations are stamped on each write's wspan, so per op
   they sum to the measured op latency exactly — the coverage column is
   the honesty check, not a modelling assumption. *)

let profile_spec =
  { Systems.zk_servers = 8; backends = 2; backend_kind = Systems.Lustre }

let profile_config = "profile|zk=8|backends=2xLustre"
let zk_write_ops = [ "create"; "delete"; "set"; "multi" ]

(* Mean duration of each quorum phase of [op], with the op count and the
   exact total mean; [None] if no such op was traced. *)
let quorum_breakdown trace op =
  let base = "zk." ^ op in
  match Obs.Trace.span_mean trace (base ^ ".total") with
  | None -> None
  | Some total ->
    let phases =
      List.map
        (fun p ->
          ( p,
            Option.value ~default:0.
              (Obs.Trace.span_mean trace (base ^ "." ^ p)) ))
        Obs.Trace.phases
    in
    Some (Obs.Trace.span_count trace (base ^ ".total"), total, phases)

(* Quorum phases must tile each traced write: per op, every phase mean
   finite and non-negative, and their sum within 5% of the measured
   mean latency. *)
let breakdown_failures ~ctx trace =
  List.concat_map
    (fun op ->
      match quorum_breakdown trace op with
      | None -> []
      | Some (_count, total, phases) ->
        let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0. phases in
        Report.expect
          (Float.abs (sum -. total) <= 0.05 *. total)
          "%s, zk.%s: phase sum %.6g vs total %.6g" ctx op sum total
        @ List.concat_map
            (fun (p, m) ->
              Report.expect
                (Float.is_finite m && m >= 0.)
                "%s, zk.%s: phase %s = %g" ctx op p m)
            phases)
    zk_write_ops

(* One [mdtest-<phase>] point per phase that recorded latency samples. *)
let mdtest_points ~procs ~config results =
  List.filter_map
    (fun phase ->
      Option.map
        (fun l ->
          Report.point
            ~experiment:("mdtest-" ^ Runner.phase_to_string phase)
            ~procs ~config
            ~ops_per_sec:(Runner.rate results phase)
            ~latency:(Report.latency_of_runner l) ())
        (Runner.latency_of results phase))
    Runner.all_phases

(* What a sweep of traced runs keeps of each run once the next one
   starts: its results and its trace. The run's router, and through it
   every shard's trees, WAL and sessions, is garbage from then on. *)
type traced = { results : Runner.results; trace : Obs.Trace.t }

let traced (r : Systems.dufs_run) = { results = r.Systems.results; trace = r.Systems.trace }

let profile_check runs =
  List.concat_map
    (fun (procs, r) ->
      breakdown_failures ~ctx:(Printf.sprintf "%d procs" procs) r.trace)
    runs

(* One [zk-<op>-breakdown] point per traced write kind in [ops]: the
   op's latency block and its quorum-phase means. *)
let breakdown_points ~ops ~procs ~config { results; trace } =
  let wall = results.Runner.wall in
  List.filter_map
    (fun op ->
      Option.map
        (fun (count, total, phases) ->
          let name = "zk." ^ op ^ ".total" in
          let q p =
            Option.value ~default:total (Obs.Trace.span_quantile trace name p)
          in
          Report.point
            ~experiment:("zk-" ^ op ^ "-breakdown")
            ~procs ~config
            ~ops_per_sec:(if wall > 0. then float_of_int count /. wall else 0.)
            ~latency:
              { Report.samples = count;
                mean_s = total;
                p50_s = q 0.5;
                p95_s = q 0.95;
                p99_s = q 0.99;
                max_s =
                  Option.value ~default:total (Obs.Trace.span_max trace name) }
            ~phases ())
        (quorum_breakdown trace op))
    ops

let summary_line label (s : Simkit.Stat.Summary.t) =
  match Simkit.Stat.Summary.max s with
  | None -> Printf.printf "  %-28s (no samples)\n" label
  | Some max ->
    Printf.printf "  %-28s count=%-7d mean=%.3g  max=%.3g\n" label
      (Simkit.Stat.Summary.count s)
      (Simkit.Stat.Summary.mean s)
      max

let profile ?(procs_list = [ 64; 128; 256 ]) ?json_path () =
  (* each run is reduced to what is printed, emitted and gated on
     before the next starts *)
  let runs =
    List.map
      (fun procs ->
        let r =
          Systems.dufs_mdtest ~trace:true ~spec:profile_spec ~shards:1 ~procs ()
        in
        (procs, traced r, r.Systems.backend_stations))
      procs_list
  in
  List.iter
    (fun (procs, { results; trace }, backend_stations) ->
      Report.print_header
        (Printf.sprintf
           "Profile — mdtest over DUFS 2xLustre/8zk, %d procs (span tracing on)"
           procs);
      Printf.printf "  %-12s %10s %8s %10s %10s %10s %10s %10s\n" "phase"
        "ops/sec" "samples" "mean_s" "p50_s" "p95_s" "p99_s" "max_s";
      List.iter
        (fun phase ->
          match Runner.latency_of results phase with
          | None -> ()
          | Some l ->
            Printf.printf
              "  %-12s %10.0f %8d %10.3g %10.3g %10.3g %10.3g %10.3g\n"
              (Runner.phase_to_string phase)
              (Runner.rate results phase)
              l.Runner.samples l.Runner.mean l.Runner.p50 l.Runner.p95
              l.Runner.p99 l.Runner.max)
        Runner.all_phases;
      Printf.printf "\n  quorum write phases (mean seconds per op):\n";
      Printf.printf "  %-8s %8s %10s" "op" "count" "total_s";
      List.iter (fun p -> Printf.printf " %10s" p) Obs.Trace.phases;
      Printf.printf " %10s %9s\n" "phase_sum" "coverage";
      List.iter
        (fun op ->
          match quorum_breakdown trace op with
          | None -> ()
          | Some (count, total, phases) ->
            let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0. phases in
            let coverage = 100. *. sum /. total in
            Printf.printf "  %-8s %8d %10.3g" op count total;
            List.iter (fun (_, m) -> Printf.printf " %10.3g" m) phases;
            Printf.printf " %10.3g %8.2f%%\n" sum coverage)
        zk_write_ops;
      print_newline ();
      (match Obs.Trace.span_mean trace "zk.read.total" with
       | None -> ()
       | Some mean ->
         Printf.printf
           "  zk reads: count=%d  mean=%.3g  p99=%.3g\n"
           (Obs.Trace.span_count trace "zk.read.total")
           mean
           (Option.value ~default:0.
              (Obs.Trace.span_quantile trace "zk.read.total" 0.99)));
      let metrics = Obs.Trace.metrics trace in
      List.iter
        (fun name ->
          match Obs.Metrics.summary_opt metrics name with
          | Some s -> summary_line name s
          | None -> ())
        ([ "zk.leader.queue_depth"; "zk.leader.batch_size" ]
         (* every shard tags its instruments zk.shard<i>.*; list them too
            so the per-shard queue wait is visible in the same
            breakdown *)
         @ List.filter
             (fun n -> String.length n > 8 && String.sub n 0 8 = "zk.shard")
             (Obs.Metrics.names metrics));
      Array.iteri
        (fun i (wait, hold) ->
          summary_line (Printf.sprintf "backend[%d] MDS wait_s" i) wait;
          summary_line (Printf.sprintf "backend[%d] MDS hold_s" i) hold)
        backend_stations)
    runs;
  Option.iter
    (fun path ->
      Report.emit_json ~path
        (List.concat_map
           (fun (procs, run, _) ->
             mdtest_points ~procs ~config:profile_config run.results
             @ breakdown_points ~ops:zk_write_ops ~procs ~config:profile_config run)
           runs))
    json_path;
  Report.gate ~experiment:"profile"
    (profile_check (List.map (fun (procs, run, _) -> (procs, run)) runs))

(* {2 Sharded coordination: N independent ZAB leaders}

   PR 3 measured that a coordination write spends ~96% of its latency in
   leader queue-wait + ack: one ZAB leader serializes every mutation.
   This experiment partitions the znode namespace across independent
   ensembles (Zk.Shard_router) at a constant total server count and
   constant back-end count, so the only variable is how many leaders
   share the write load. Every run is span-traced; the per-shard
   queue-wait summaries make the backlog collapse directly visible. *)

(* 8 Lustre back-ends keep the physical layer off the critical path at
   256 procs — the experiment isolates the coordination bottleneck. (At
   4 back-ends the file-create phase saturates the back-end MDSes near
   20k ops/s and every sharded configuration flatlines there.) *)
let sharding_spec ~servers =
  { Systems.zk_servers = servers; backends = 8; backend_kind = Systems.Lustre }

(* shards x servers-per-shard, all 8 servers in total *)
let sharding_topologies = [ (1, 8); (2, 4); (4, 2) ]
let sharding_batches = [ 1; 16 ]

let sharding_config_label ~shards ~servers ~max_batch =
  Printf.sprintf "shards=%dx%d|max_batch=%d|backends=8xLustre" shards servers
    max_batch

let shard_queue_wait_mean trace i =
  match
    Obs.Metrics.summary_opt (Obs.Trace.metrics trace)
      (Printf.sprintf "zk.shard%d.queue_wait" i)
  with
  | Some s when Simkit.Stat.Summary.count s > 0 ->
    Some (Simkit.Stat.Summary.mean s)
  | Some _ | None -> None

(* Per-shard balance at the file-stat census; queue waits are [None]
   on an untraced run. *)
let shard_stats (r : Systems.dufs_run) =
  let writes = Zk.Shard_router.writes_committed_by_shard r.Systems.router
  and hits = Zk.Shard_router.dedup_hits_by_shard r.Systems.router in
  Array.to_list
    (Array.mapi
       (fun i znodes ->
         { Report.shard = i;
           znodes;
           writes_committed = writes.(i);
           dedup_hits = hits.(i);
           queue_wait_mean_s = shard_queue_wait_mean r.Systems.trace i })
       r.Systems.per_shard_znodes)

(* What [sharding] keeps of a run: its results and trace, the per-shard
   balance and the census. *)
type sharding_run = {
  run : traced;
  shards : Report.shard_stat list;
  logical_znodes_at_stat : int;
  expected_logical_znodes : int;
  live_stubs_at_stat : int;
}

let sharding_run (r : Systems.dufs_run) =
  { run = traced r;
    shards = shard_stats r;
    logical_znodes_at_stat = r.Systems.logical_znodes_at_stat;
    expected_logical_znodes = r.Systems.expected_logical_znodes;
    live_stubs_at_stat = r.Systems.live_stubs_at_stat }

(* [((shards, servers_per_shard, max_batch, procs), run)] for each
   combination, defaults 1x8/2x4/4x2 x batch 1/16 x 64/128/256. *)
let sharding_data ?(procs_list = bar_procs) ?(topologies = sharding_topologies)
    ?(batches = sharding_batches) () =
  List.concat_map
    (fun (shards, servers) ->
      List.concat_map
        (fun max_batch ->
          List.map
            (fun procs ->
              ( (shards, servers, max_batch, procs),
                sharding_run
                  (Systems.dufs_mdtest ~trace:true
                     ~config_adjust:(fun c -> { c with Zk.Ensemble.max_batch })
                     ~spec:(sharding_spec ~servers) ~shards ~procs ()) ))
            procs_list)
        batches)
    topologies

let sharding_phases =
  [ Runner.Dir_create; Runner.File_create; Runner.Dir_stat; Runner.File_stat ]

(* Per-shard accounting must balance exactly on every run (a surplus is
   a doubled apply or leaked stub, a deficit a lost write), and every
   shard must actually have served writes. *)
let sharding_check data =
  List.concat_map
    (fun ((shards, servers, max_batch, procs), r) ->
      let ctx =
        Printf.sprintf "%s procs=%d"
          (sharding_config_label ~shards ~servers ~max_batch)
          procs
      in
      let writes = List.map (fun s -> s.Report.writes_committed) r.shards in
      Report.expect
        (r.logical_znodes_at_stat = r.expected_logical_znodes)
        "%s: logical znodes %d, expected %d" ctx r.logical_znodes_at_stat
        r.expected_logical_znodes
      @ Report.expect
          (List.for_all (fun w -> w > 0) writes)
          "%s: a shard committed no writes (%s)" ctx
          (String.concat " " (List.map string_of_int writes)))
    data

let sharding ?procs_list ?topologies ?batches ?json_path () =
  let data = sharding_data ?procs_list ?topologies ?batches () in
  let label_of (shards, servers, max_batch, _) =
    sharding_config_label ~shards ~servers ~max_batch
  in
  (* throughput, one figure per op of interest *)
  List.iter
    (fun phase ->
      let by_config =
        List.sort_uniq compare
          (List.map (fun ((s, v, b, _), _) -> (s, v, b)) data)
      in
      Report.print_figure
        ~title:
          (Printf.sprintf "Sharding — mdtest %s, %d coordination servers total"
             (Runner.phase_to_string phase)
             (match by_config with (s, v, _) :: _ -> s * v | [] -> 0))
        ~x_label:"procs"
        (List.map
           (fun (s, v, b) ->
             { Report.label = sharding_config_label ~shards:s ~servers:v ~max_batch:b;
               points =
                 List.filter_map
                   (fun ((s', v', b', procs), r) ->
                     if (s', v', b') = (s, v, b) then
                       Some (procs, Runner.rate r.run.results phase)
                     else None)
                   data })
           by_config))
    sharding_phases;
  (* the backlog itself: mean queue-wait per coordination write, overall
     and per shard, plus the znode balance and accounting *)
  Report.print_header
    "Sharding — leader queue-wait per create (mean seconds) and per-shard balance";
  Printf.printf "  %-44s %6s %12s %14s  %s\n" "config" "procs" "create_qw_s"
    "znodes@stat" "per-shard [znodes qw_s]";
  List.iter
    (fun (key, r) ->
      let _, _, _, procs = key in
      let qw =
        Option.value ~default:Float.nan
          (Obs.Trace.span_mean r.run.trace "zk.create.queue-wait")
      in
      Printf.printf "  %-44s %6d %12.3g %7d/%-6d " (label_of key) procs qw
        r.logical_znodes_at_stat r.expected_logical_znodes;
      List.iter
        (fun s ->
          Printf.printf " [%d: %d %.3g]" s.Report.shard s.Report.znodes
            (Option.value ~default:Float.nan s.Report.queue_wait_mean_s))
        r.shards;
      print_newline ())
    data;
  (* headline ratios at the largest scale: most shards vs single
     ensemble, both batched (the strongest baseline) *)
  let max_procs = List.fold_left (fun a ((_, _, _, p), _) -> max a p) 0 data in
  let max_shards = List.fold_left (fun a ((s, _, _, _), _) -> max a s) 0 data in
  let max_batch = List.fold_left (fun a ((_, _, b, _), _) -> max a b) 0 data in
  let find shards =
    List.find_opt
      (fun ((s, _, b, p), _) -> s = shards && b = max_batch && p = max_procs)
      data
  in
  (match (find 1, find max_shards) with
   | Some (_, base), Some (_, best) when max_shards > 1 ->
     Report.print_header
       (Printf.sprintf
          "Sharding — %d shards vs one ensemble (both max_batch=%d, %d procs)"
          max_shards max_batch max_procs);
     List.iter
       (fun phase ->
         let b = Runner.rate base.run.results phase
         and s = Runner.rate best.run.results phase in
         Report.print_ratio
           ~label:(Printf.sprintf "%s: %d shards / 1 ensemble"
                     (Runner.phase_to_string phase) max_shards)
           (if b > 0. then s /. b else 0.))
       sharding_phases
   | _ -> ());
  flush stdout;
  Option.iter
    (fun path ->
      Report.emit_json ~path
        (List.concat_map
           (fun ((shards, servers, max_batch, procs), r) ->
             let config = sharding_config_label ~shards ~servers ~max_batch in
             mdtest_points ~procs ~config r.run.results
             @ breakdown_points ~ops:[ "create" ] ~procs ~config r.run
             @ [ Report.point ~experiment:"sharding-znode-accounting" ~procs
                   ~config:
                     (Printf.sprintf "%s|expected_logical=%d|live_stubs=%d"
                        config r.expected_logical_znodes r.live_stubs_at_stat)
                   ~ops_per_sec:0.0 ~shards:r.shards () ])
           data))
    json_path;
  Report.gate ~experiment:"sharding" (sharding_check data)

(* {2 Seed sweeps}

   The fault experiments share one loop and one run record: each seeded
   point is a {!Systems.dufs_mdtest} run with a register overlay. The
   loop runs each point, prints its row and then its linearizability
   and durability violations, and runs the first point again — the
   same seed must reproduce a bit-identical history. *)

let register_audit (r : Systems.dufs_run) =
  match r.Systems.registers with
  | Some a -> a
  | None -> invalid_arg "a fault-sweep run without its register overlay"

let seed_sweep ~run ~print points =
  let results =
    List.map
      (fun p ->
        let r = run p in
        print p r;
        List.iter
          (fun (v : Zk.History.violation) ->
            Printf.printf "    VIOLATION [%s] %s: %s\n" v.Zk.History.v_kind
              v.Zk.History.v_path v.Zk.History.v_detail)
          (r.Systems.violations @ (register_audit r).Systems.durability_violations);
        (p, r))
      points
  in
  let again = run (List.hd points) in
  (results, again.Systems.history_digest = (snd (List.hd results)).Systems.history_digest)

let digest_verdict deterministic =
  if deterministic then "identical" else "DIFFERS (nondeterminism!)"

(* A counter of every shard of [router], folded with [op]. *)
let over_shards router f op init =
  Array.fold_left (fun acc e -> op acc (f e)) init (Zk.Shard_router.ensembles router)

let shard_sum router f = over_shards router f ( + ) 0

(* A bench point holds finite numbers only; -1 marks one that is
   missing (a run that never recovered, a sweep with no recovery). *)
let or_missing x = if Float.is_finite x then x else -1.

(* {2 Chaos — randomized network fault schedules + linearizability oracle}

   A chaos point is a coordination-only run: the register overlay is
   the whole load (the oracle checks the quorum, not the data path)
   while a seeded {!Faults.Faultplan.chaos} schedule partitions, drops,
   delays, duplicates and crashes underneath it. The probe starts at
   the closing heal, so it measures how long every shard takes to
   commit a write again. *)

type chaos_shape = {
  servers : int;
  clients : int;
  registers : int;
  heal_at : float;
  post_heal : float;
  events : int;
  think : float;
}

let chaos_shape =
  { servers = 5; clients = 8; registers = 6; heal_at = 15.; post_heal = 10.;
    events = 12; think = 0.05 }

let chaos_mix =
  Systems.[ (25, Create); (20, Set); (15, Delete); (20, Get); (10, Exists); (10, Seq_create) ]

(* Short timeouts and stale reads served, so clients ride out a
   partition instead of blocking on it. *)
let chaos_config ~seed c =
  { c with
    Zk.Ensemble.seed;
    request_timeout = 0.5;
    retry_backoff = 0.05;
    retry_backoff_cap = 1.0;
    session_timeout = 6.0;
    stale_read_after = 1.0;
    serve_stale_reads = true;
    fail_fast_after = 2.0 }

let chaos_point ?(shape = chaos_shape) ?(config_adjust = Fun.id) ?plan ~shards ~seed
    () =
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Faults.Faultplan.chaos ~seed:(Int64.add seed 101L) ~servers:shape.servers ~shards
        ~start:1.0 ~heal_at:shape.heal_at ~events:shape.events ()
  in
  Systems.dufs_mdtest ~mdtest:false ~probe_at:shape.heal_at ~plan
    ~config_adjust:(fun c -> config_adjust (chaos_config ~seed c))
    ~registers:
      { Systems.clients = shape.clients;
        registers = shape.registers;
        mix = chaos_mix;
        stop = `Deadline (shape.heal_at +. shape.post_heal);
        stride = 7919;
        think = shape.think }
    ~spec:{ Systems.zk_servers = shape.servers; backends = 0; backend_kind = Systems.Lustre }
    ~shards ~procs:shape.clients ()

let chaos_runs_default =
  List.map (fun s -> (1, Int64.of_int s)) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
  @ List.map (fun s -> (4, Int64.of_int s)) [ 101; 102; 103; 104; 105; 106; 107; 108 ]

(* One chaos schedule's verdict: a clean, non-empty history, no acked
   write lost and a recovery after heal. Shared by [chaos] and
   [pipeline]'s sweep. *)
let chaos_run_check ((shards, seed), (r : Systems.dufs_run)) =
  let ctx = Printf.sprintf "shards=%d seed=%Ld" shards seed in
  let a = register_audit r in
  List.concat
    [ Report.expect (r.Systems.violations = [])
        "%s: %d linearizability violations" ctx
        (List.length r.Systems.violations);
      Report.expect (a.Systems.durability_violations = [])
        "%s: %d acked writes lost or unacked writes resurrected" ctx
        (List.length a.Systems.durability_violations);
      Report.expect (r.Systems.history_checked > 0)
        "%s: empty history, the checker saw nothing" ctx;
      Report.expect
        (Float.is_finite a.Systems.recovery_s)
        "%s: never recovered after heal" ctx ]

let chaos_check ~deterministic results =
  List.concat_map chaos_run_check results
  @ Report.expect deterministic
      "identical seed produced a different history"

let recovery_s r = (register_audit r).Systems.recovery_s

(* The finished recoveries of a sweep. *)
let chaos_recoveries results =
  Array.of_list (List.filter Float.is_finite (List.map (fun (_, r) -> recovery_s r) results))

let chaos_points ~shape ~deterministic results =
  let duration = shape.heal_at +. shape.post_heal in
  let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  let total_checked = total (fun (r : Systems.dufs_run) -> r.Systems.history_checked) in
  let recoveries = chaos_recoveries results in
  List.map
    (fun ((shards, seed), (r : Systems.dufs_run)) ->
      let sum = shard_sum r.Systems.router in
      Report.point ~experiment:"chaos" ~procs:shape.clients
        ~config:(Printf.sprintf "seed=%Ld|shards=%d|zk=%d" seed shards shape.servers)
        ~ops_per_sec:(float_of_int (register_audit r).Systems.ops_ok /. duration)
        ~phases:
          [ ("violations", float_of_int (List.length r.Systems.violations));
            ("ops_checked", float_of_int r.Systems.history_checked);
            ("ops_recorded", float_of_int r.Systems.history_recorded);
            ("undetermined", float_of_int r.Systems.history_undetermined);
            ("recovery_s", or_missing (recovery_s r));
            ("sessions_expired", float_of_int (sum Zk.Ensemble.sessions_expired));
            ("dedup_hits", float_of_int (sum Zk.Ensemble.dedup_hits));
            ("dedup_evictions", float_of_int (sum Zk.Ensemble.dedup_evictions));
            ("writes_failed_fast", float_of_int (sum Zk.Ensemble.writes_failed_fast));
            ("stale_reads_served", float_of_int (sum Zk.Ensemble.stale_reads_served)) ]
        ())
    results
  @ [ Report.point ~experiment:"chaos-summary" ~procs:shape.clients
        ~config:(Printf.sprintf "runs=%d|zk=%d" (List.length results) shape.servers)
        ~ops_per_sec:(float_of_int total_checked /. duration)
        ~phases:
          [ ( "violations_total",
              float_of_int
                (total (fun (r : Systems.dufs_run) -> List.length r.Systems.violations))
            );
            ("ops_checked_total", float_of_int total_checked);
            ("recovery_p50_s", or_missing (Simkit.Stat.percentile recoveries 0.50));
            ("recovery_p95_s", or_missing (Simkit.Stat.percentile recoveries 0.95));
            ("recovery_max_s", or_missing (Simkit.Stat.percentile recoveries 1.0));
            ("runs_recovered", float_of_int (Array.length recoveries));
            ("runs", float_of_int (List.length results));
            ("deterministic", if deterministic then 1. else 0.) ]
        () ]

let chaos ?(runs = chaos_runs_default) ?(shape = chaos_shape) ?json_path () =
  Report.print_header
    (Printf.sprintf
       "Chaos — %d seeded random fault schedules (partitions, loss, delay, \
        duplication, crashes) over %d-server-per-shard ensembles, %d clients; \
        Wing-Gong linearizability check over every recorded history"
       (List.length runs) shape.servers shape.clients);
  Printf.printf "%6s %7s %9s %8s %7s %7s %11s %11s %9s %8s\n" "shards" "seed"
    "recorded" "checked" "undet" "expired" "dedup_hits" "evictions" "recovery"
    "violations";
  let results, deterministic =
    seed_sweep
      ~run:(fun (shards, seed) -> chaos_point ~shape ~shards ~seed ())
      ~print:(fun (shards, seed) (r : Systems.dufs_run) ->
        let sum = shard_sum r.Systems.router in
        Printf.printf "%6d %7Ld %9d %8d %7d %7d %11d %11d %8.2fs %10d\n%!" shards seed
          r.Systems.history_recorded r.Systems.history_checked
          r.Systems.history_undetermined (sum Zk.Ensemble.sessions_expired)
          (sum Zk.Ensemble.dedup_hits) (sum Zk.Ensemble.dedup_evictions)
          (recovery_s r)
          (List.length r.Systems.violations))
      runs
  in
  let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  let recoveries = chaos_recoveries results in
  Printf.printf
    "\ntotal: %d ops checked, %d violations; recovery p50=%.2fs p95=%.2fs \
     max=%.2fs (%d/%d runs recovered); seed %Ld re-run digest %s\n%!"
    (total (fun (r : Systems.dufs_run) -> r.Systems.history_checked))
    (total (fun (r : Systems.dufs_run) -> List.length r.Systems.violations))
    (Simkit.Stat.percentile recoveries 0.50) (Simkit.Stat.percentile recoveries 0.95)
    (Simkit.Stat.percentile recoveries 1.0) (Array.length recoveries) (List.length results)
    (snd (List.hd runs)) (digest_verdict deterministic);
  Option.iter
    (fun path -> Report.emit_json ~path (chaos_points ~shape ~deterministic results))
    json_path;
  Report.gate ~experiment:"chaos" (chaos_check ~deterministic results)

let chaos_smoke ?json_path () =
  chaos
    ~runs:[ (1, 11L); (4, 12L) ]
    ~shape:
      { chaos_shape with clients = 64; registers = 16; heal_at = 8.; post_heal = 6.; events = 8 }
    ?json_path ()

let engine ?events ?quota_s ?json_path () =
  Engine_bench.run ?events ?quota_s ?json_path ()

let sessions ?json_path () = ignore (Sessions_bench.run ?json_path ())
let sessions_smoke ?json_path () = Sessions_bench.smoke ?json_path ()

(* {2 Elastic resharding — live shard split / merge under mdtest}

   One controller changes the shard count while the file-create phase
   runs (Systems.dufs_mdtest ~to_shards). Three configurations per process
   count: the no-split baseline (to_shards = shards, exactly
   comparable), the live 2->4 split, and — at the smallest process
   count — a 4->2 merge. The experiment's gate ([reshard_check])
   enforces the run's own invariants, so a regression fails the bench run
   itself. *)

let reshard_servers = 4 (* per shard; the 2-shard baseline matches the
                           (2, 4) sharding topology above *)

let reshard_config_label ~shards ~to_shards ~max_batch =
  Printf.sprintf "reshard=%d->%d|servers=%d|max_batch=%d|backends=8xLustre"
    shards to_shards reshard_servers max_batch

(* What [reshard] keeps of a run once the next one starts: what its
   table, JSON and gate read. The router, and through it every shard's
   trees, WAL and history, is garbage from then on. *)
type reshard_run = {
  sharded : sharding_run;
  stats : Zk.Reshard.stats option;
  window : float;
  violations : int;
  history_checked : int;
  history_recorded : int;
}

let reshard_run (r : Systems.dufs_run) =
  { sharded = sharding_run r;
    stats = r.Systems.reshard;
    window = r.Systems.reshard_window;
    violations = List.length r.Systems.violations;
    history_checked = r.Systems.history_checked;
    history_recorded = r.Systems.history_recorded }

let reshard_p99 (r : reshard_run) =
  Option.map
    (fun l -> l.Runner.p99)
    (Runner.latency_of r.sharded.run.results Runner.File_create)

(* Migration pressure may raise a split's file-create p99, but by no
   more than this factor over the no-split baseline at the same scale. *)
let reshard_max_p99_ratio = 12.

(* A split or merge must finish without controller errors inside a
   non-empty migration window, move a bounded-load remainder (some keys,
   never a near-full rehash), and keep file-create p99 within
   [reshard_max_p99_ratio] of the no-split [base]line at the same scale. *)
let reshard_move_check ~ctx ~base (r : reshard_run) =
  match r.stats with
  | None -> [ ctx ^ ": controller never finished" ]
  | Some st ->
    let total = st.Zk.Reshard.keys_total
    and migrated = st.Zk.Reshard.keys_migrated in
    List.concat
      [ Report.expect (st.Zk.Reshard.errors = 0) "%s: %d controller errors" ctx
          st.Zk.Reshard.errors;
        Report.expect
          (migrated > 0 && migrated < total)
          "%s: migrated %d of %d keys, not a bounded-load remainder" ctx
          migrated total;
        Report.expect
          (float_of_int migrated <= 0.9 *. float_of_int total)
          "%s: migrated %d of %d keys, a near-full rehash" ctx migrated total;
        Report.expect (r.window > 0.)
          "%s: empty migration window" ctx;
        (match (base, reshard_p99 r) with
         | Some b, Some p when b > 0. ->
           Report.expect
             (p <= reshard_max_p99_ratio *. b)
             "%s: file-create p99 %.2fms > %.0fx baseline %.2fms" ctx
             (p *. 1e3) reshard_max_p99_ratio (b *. 1e3)
         | _ -> [ ctx ^ ": no file-create p99 pair against the baseline" ]) ]

(* Every run: zero client errors, an exact logical census, and a
   non-empty linearizable history; splits and merges also pass
   [reshard_move_check]. *)
let reshard_check runs =
  List.concat_map
    (fun ((shards, to_shards, procs), (r : reshard_run)) ->
      let ctx =
        Printf.sprintf "reshard %d->%d shards @%d procs" shards to_shards procs
      in
      let base =
        List.find_map
          (fun ((s, t, p), b) ->
            if s = t && p = procs then reshard_p99 b else None)
          runs
      in
      List.concat
        [ Report.expect (r.sharded.run.results.Runner.errors = 0)
            "%s: %d client op errors" ctx r.sharded.run.results.Runner.errors;
          Report.expect
            (r.sharded.logical_znodes_at_stat = r.sharded.expected_logical_znodes)
            "%s: census %d <> expected %d" ctx r.sharded.logical_znodes_at_stat
            r.sharded.expected_logical_znodes;
          Report.expect (r.violations = 0)
            "%s: %d linearizability violations" ctx r.violations;
          Report.expect (r.history_checked > 0)
            "%s: oracle checked 0 ops" ctx;
          (if to_shards = shards then [] else reshard_move_check ~ctx ~base r) ])
    runs

let reshard ?(procs_list = [ 64; 256 ]) ?(max_batch = 16) ?json_path () =
  Report.print_header
    "Elastic resharding: live shard split/merge during mdtest file creates";
  let spec = sharding_spec ~servers:reshard_servers in
  let runs =
    List.concat_map
      (fun procs ->
        let go ~shards ~to_shards =
          ( (shards, to_shards, procs),
            reshard_run
              (Systems.dufs_mdtest ~history_clients:8 ~to_shards
                 ~config_adjust:(fun c -> { c with Zk.Ensemble.max_batch })
                 ~spec ~shards ~procs ()) )
        in
        [ go ~shards:2 ~to_shards:2 (* no-split baseline *);
          go ~shards:2 ~to_shards:4 (* the live split *) ]
        @
        if procs = List.hd procs_list then [ go ~shards:4 ~to_shards:2 ]
        else [])
      procs_list
  in
  Printf.printf "%-14s %5s %12s %12s %9s %13s %7s %5s\n" "config" "procs"
    "create/s" "p99 (ms)" "window" "migrated" "stubs" "viol";
  List.iter
    (fun ((shards, to_shards, procs), r) ->
      let label = Printf.sprintf "%d->%d shards" shards to_shards in
      let p99_ms = Option.fold ~none:0. ~some:(fun p -> p *. 1e3) (reshard_p99 r) in
      let migrated =
        match r.stats with
        | Some st ->
          Printf.sprintf "%d/%d" st.Zk.Reshard.keys_migrated
            st.Zk.Reshard.keys_total
        | None -> "-"
      in
      Printf.printf "%-14s %5d %12.0f %12.2f %8.2fs %13s %7d %5d\n" label procs
        (Runner.rate r.sharded.run.results Runner.File_create)
        p99_ms r.window migrated r.sharded.live_stubs_at_stat r.violations)
    runs;
  flush stdout;
  Option.iter
    (fun path ->
      Report.emit_json ~path
        (List.concat_map
           (fun ((shards, to_shards, procs), r) ->
             let config = reshard_config_label ~shards ~to_shards ~max_batch in
             let keys_total, keys_migrated, controller_errors =
               match r.stats with
               | Some st ->
                 (st.Zk.Reshard.keys_total, st.keys_migrated, st.Zk.Reshard.errors)
               | None -> (0, 0, 0)
             in
             mdtest_points ~procs ~config r.sharded.run.results
             @ [ Report.point ~experiment:"reshard-accounting" ~procs
                   ~config:
                     (Printf.sprintf
                        "%s|expected_logical=%d|logical=%d|live_stubs=%d|keys_total=%d|keys_migrated=%d|violations=%d|history_checked=%d|history_recorded=%d|window_s=%.4f|controller_errors=%d|client_errors=%d"
                        config r.sharded.expected_logical_znodes
                        r.sharded.logical_znodes_at_stat r.sharded.live_stubs_at_stat
                        keys_total keys_migrated r.violations r.history_checked
                        r.history_recorded r.window controller_errors
                        r.sharded.run.results.Runner.errors)
                   ~ops_per_sec:0.0 ~shards:r.sharded.shards () ])
           runs))
    json_path;
  Report.gate ~experiment:"reshard" (reshard_check runs)

let reshard_smoke ?json_path () = reshard ~procs_list:[ 64 ] ?json_path ()

(* {2 Write pipeline — windowed ZAB proposals vs stop-and-wait}

   The PR 9 bench: the same traced mdtest profile as [profile], once per
   leader write-path configuration — classic unbatched stop-and-wait,
   group commit alone, and group commit plus a pipelined proposal
   window — and then a chaos sweep with the window open, because a
   faster write path that loses linearizability under faults is
   worthless. The driver enforces the PR's acceptance bar itself: every
   phase finite and non-negative, phase sums telescoping within 5%, the
   queue-wait + ack share of a create at the largest scale improving at
   least [min_improvement] percent over the window = 1 group-commit
   baseline in the very same run, zero history violations across the
   chaos schedules, every schedule recovering, and the first schedule
   bit-identical on re-run. *)

let pipeline_batch = 16
let pipeline_window = 8
let pipeline_chaos_window = 4

let pipeline_variants =
  [ ("batch1-w1", 1, 1) (* classic one-txn-per-round ZAB *);
    ("batch16-w1", pipeline_batch, 1) (* group commit, stop-and-wait *);
    ("batch16-w8", pipeline_batch, pipeline_window) (* + proposal window *) ]

let pipeline_config_label name =
  Printf.sprintf "pipeline=%s|zk=8|backends=2xLustre" name

let qw_ack phases =
  List.fold_left
    (fun acc (p, m) -> if p = "queue-wait" || p = "ack" then acc +. m else acc)
    0. phases

(* (stop-and-wait, pipelined, % better) create queue-wait + ack of the
   two batch16 variants at [procs]; [None] if either is missing. *)
let pipeline_improvement runs ~procs =
  let qa name =
    Option.bind (List.assoc_opt (name, procs) runs) (fun r ->
        Option.map
          (fun (_, _, phases) -> qw_ack phases)
          (quorum_breakdown r.trace "create"))
  in
  match (qa "batch16-w1", qa "batch16-w8") with
  | Some base, Some piped when base > 0. ->
    Some (base, piped, 100. *. (base -. piped) /. base)
  | _ -> None

let pipeline_check ~min_improvement ~deterministic runs chaos_results =
  let max_procs = List.fold_left (fun acc ((_, p), _) -> max acc p) 0 runs in
  List.concat_map
    (fun ((name, procs), r) ->
      let ctx = Printf.sprintf "%s @%d procs" name procs in
      breakdown_failures ~ctx r.trace
      @ Report.expect
          (quorum_breakdown r.trace "create" <> None)
          "%s: no traced creates" ctx)
    runs
  @ (match pipeline_improvement runs ~procs:max_procs with
     | Some (_, _, impr) ->
       Report.expect (impr >= min_improvement)
         "queue-wait+ack improved only %.1f%% (< %.0f%%)" impr min_improvement
     | None ->
       [ Printf.sprintf "missing the %d-proc batch16 runs for the improvement gate"
           max_procs ])
  @ chaos_check ~deterministic chaos_results

let pipeline ?(procs_list = [ 64; 128; 256 ])
    ?(chaos_runs = chaos_runs_default) ?(min_improvement = 30.) ?json_path ()
    =
  Report.print_header
    (Printf.sprintf
       "Write pipeline — windowed ZAB proposals (window=%d) vs stop-and-wait, \
        traced mdtest over DUFS 2xLustre/8zk"
       pipeline_window);
  let runs =
    List.concat_map
      (fun procs ->
        List.map
          (fun (name, max_batch, window) ->
            let config_adjust c =
              { c with
                Zk.Ensemble.max_batch;
                max_inflight_batches = window }
            in
            ( (name, procs),
              traced
                (Systems.dufs_mdtest ~trace:true ~config_adjust ~spec:profile_spec
                   ~shards:1 ~procs ()) ))
          pipeline_variants)
      procs_list
  in
  Printf.printf "%-12s %5s %10s %9s" "config" "procs" "create/s" "total_s";
  List.iter (fun p -> Printf.printf " %9s" p) Obs.Trace.phases;
  Printf.printf " %9s %9s\n" "qw+ack" "coverage";
  List.iter
    (fun ((name, procs), r) ->
      match quorum_breakdown r.trace "create" with
      | None -> ()
      | Some (_count, total, phases) ->
        let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0. phases in
        Printf.printf "%-12s %5d %10.0f %9.3g" name procs
          (Runner.rate r.results Runner.File_create)
          total;
        List.iter (fun (_, m) -> Printf.printf " %9.3g" m) phases;
        Printf.printf " %9.3g %8.2f%%\n%!" (qw_ack phases) (100. *. sum /. total))
    runs;
  let max_procs = List.fold_left max 0 procs_list in
  let improvement = pipeline_improvement runs ~procs:max_procs in
  Option.iter
    (fun (base, piped, impr) ->
      Printf.printf
        "\n  create queue-wait+ack @%d procs: stop-and-wait %.3g s -> \
         pipelined %.3g s (%.1f%% better; gate: >= %.0f%%)\n"
        max_procs base piped impr min_improvement)
    improvement;
  (* The chaos sweep: the same seeded schedules as the PR 5 oracle, but
     with the proposal window open on every shard's ensemble. *)
  Printf.printf
    "\n  chaos sweep, max_inflight_batches = %d, max_batch = 8 (%d \
     schedules):\n"
    pipeline_chaos_window (List.length chaos_runs);
  let chaos_adjust c =
    { c with
      Zk.Ensemble.max_batch = 8;
      max_inflight_batches = pipeline_chaos_window }
  in
  let chaos_results, deterministic =
    seed_sweep
      ~run:(fun (shards, seed) ->
        chaos_point ~config_adjust:chaos_adjust ~shards ~seed ())
      ~print:(fun (shards, seed) (r : Systems.dufs_run) ->
        Printf.printf
          "    shards=%d seed=%-4Ld checked=%-6d violations=%d \
           recovery=%.2fs\n%!"
          shards seed r.Systems.history_checked
          (List.length r.Systems.violations)
          (recovery_s r))
      chaos_runs
  in
  let total_violations =
    List.fold_left
      (fun acc (_, (r : Systems.dufs_run)) -> acc + List.length r.Systems.violations)
      0 chaos_results
  in
  Printf.printf
    "  chaos total: %d schedules, %d violations; seed %Ld re-run digest %s\n%!"
    (List.length chaos_results)
    total_violations
    (snd (List.hd chaos_runs))
    (digest_verdict deterministic);
  (match json_path with
   | None -> ()
   | Some path ->
     let run_points =
       List.concat_map
         (fun ((name, procs), r) ->
           let config = pipeline_config_label name in
           mdtest_points ~procs ~config r.results
           @ breakdown_points ~ops:zk_write_ops ~procs ~config r)
         runs
     in
     let chaos_points =
       List.map
         (fun ((shards, seed), (r : Systems.dufs_run)) ->
           Report.point ~experiment:"pipeline-chaos" ~procs:chaos_shape.clients
             ~config:
               (Printf.sprintf "seed=%Ld|shards=%d|zk=%d|window=%d" seed shards
                  chaos_shape.servers pipeline_chaos_window)
             ~ops_per_sec:
               (float_of_int (register_audit r).Systems.ops_ok
                /. (chaos_shape.heal_at +. chaos_shape.post_heal))
             ~phases:
               [ ( "violations",
                   float_of_int (List.length r.Systems.violations) );
                 ("ops_checked", float_of_int r.Systems.history_checked);
                 ("undetermined", float_of_int r.Systems.history_undetermined);
                 ("recovery_s", or_missing (recovery_s r));
                 ( "dedup_hits",
                   float_of_int (shard_sum r.Systems.router Zk.Ensemble.dedup_hits) ) ]
             ())
         chaos_results
     in
     let qa_base, qa_piped, impr =
       Option.value ~default:(-1., -1., -1.) improvement
     in
     let summary =
       Report.point ~experiment:"pipeline-summary" ~procs:max_procs
         ~config:
           (Printf.sprintf
              "baseline=batch16-w1|pipelined=batch16-w%d|chaos_window=%d|zk=8"
              pipeline_window pipeline_chaos_window)
         ~ops_per_sec:0.
         ~phases:
           [ ("qw_ack_baseline_s", qa_base);
             ("qw_ack_pipelined_s", qa_piped);
             ("improvement_pct", impr);
             ("min_improvement_pct", min_improvement);
             ("chaos_runs", float_of_int (List.length chaos_results));
             ("violations_total", float_of_int total_violations);
             ("deterministic", if deterministic then 1. else 0.) ]
         ()
     in
     Report.emit_json ~path (run_points @ chaos_points @ [ summary ]));
  Report.gate ~experiment:"pipeline"
    (pipeline_check ~min_improvement ~deterministic runs chaos_results)

(* The CI variant: one scale, two chaos schedules. The 30% acceptance
   bar is measured on the full run's 256-proc point; the smoke run keeps
   a softer 10% floor so a genuinely broken pipeline still fails fast
   without making CI sensitive to the smaller scale's exact split. *)
let pipeline_smoke ?json_path () =
  pipeline ~procs_list:[ 64 ]
    ~chaos_runs:[ (1, 11L); (4, 12L) ]
    ~min_improvement:10. ?json_path ()

(* {2 Durability — whole-cluster power failures and storage corruption
      over mdtest}

   Every schedule power-fails the entire coordination ensemble in the
   middle of the file-create phase; the flavors additionally damage one
   member's disk (torn tail, WAL bit-rot, snapshot corruption,
   fail-slow fsyncs plus a post-restart stall). The driver enforces the
   run's own invariants: the service must recover (a probe write
   commits), the recovered replicas must agree byte-for-byte, the
   recorded register history must check linearizable, the durability
   oracle must find every acknowledged write in the recovered tree, the
   torn/bit-rot schedules must actually truncate records (teeth), and
   recovery must be mostly local — WAL-replayed transactions strictly
   dominate leader diff-syncs. *)

let durability_servers = 5

let durability_flavors =
  [| "power-failure"; "torn-tail"; "wal-bit-rot"; "snap-rot";
     "torn+snap-rot"; "fail-slow" |]

let durability_plan ~servers ~seed ~flavor =
  let open Faults.Faultplan in
  (* seed-deterministic crash point / outage length / disk victim *)
  let rng = Simkit.Rng.create ~seed:(Int64.add seed 977L) in
  let t_crash = 0.3 +. (Simkit.Rng.float rng *. 0.4) in
  let outage = 0.6 +. (Simkit.Rng.float rng *. 0.6) in
  let victim = Simkit.Rng.int rng servers in
  let ev off action = { anchor = After_phase ("file-create", off); action } in
  let mid = t_crash +. (outage /. 2.) in
  let storage =
    (* at most one member's disk is damaged, so quorum copies survive
       and every acknowledged write must still be recoverable *)
    match flavor with
    | "power-failure" -> []
    | "torn-tail" -> [ ev mid (Torn_tail (None, victim)) ]
    | "wal-bit-rot" -> [ ev mid (Corrupt_wal (None, victim, 0.08)) ]
    | "snap-rot" -> [ ev mid (Corrupt_snap (None, victim)) ]
    | "torn+snap-rot" ->
      [ ev mid (Torn_tail (None, victim));
        ev mid (Corrupt_snap (None, victim)) ]
    | "fail-slow" ->
      [ ev 0.05 (Fsync_delay (None, victim, 2e-4));
        ev (t_crash +. outage +. 0.1) (Disk_stall (None, victim, 0.15)) ]
    | f -> invalid_arg ("durability_plan: unknown flavor " ^ f)
  in
  List.init servers (fun id -> ev t_crash (Crash id))
  @ storage
  @ [ ev (t_crash +. outage) Restart_all_down ]

let durability_spec =
  { Systems.zk_servers = durability_servers; backends = 4; backend_kind = Systems.Lustre }

let durability_config ~seed c =
  { c with
    Zk.Ensemble.seed;
    request_timeout = 0.5;
    retry_backoff = 0.05;
    retry_backoff_cap = 1.0;
    session_timeout = 8.0;
    fail_fast_after = 2.0;
    (* low cadence so schedules cross several snapshots: corrupt-snap
       has something to corrupt and log pruning actually happens *)
    snapshot_every = 384 }

(* The register overlay: unconditioned writes with unique values, which
   the durability oracle can audit (mdtest's own rmdir is
   version-conditioned, outside the recorded-register model). *)
let durability_registers ~clients ~ops_per_client =
  { Systems.clients;
    registers = 8;
    mix = Systems.[ (40, Create); (30, Set); (15, Delete); (15, Get) ];
    stop = `Ops ops_per_client;
    stride = 6007;
    think = 0.02 }

let is_torn = function "torn-tail" | "wal-bit-rot" | "torn+snap-rot" -> true | _ -> false

(* Every schedule recovers with agreeing replicas, a non-empty audit and
   zero oracle violations; across the sweep the torn/bit-rot schedules
   truncate something ([torn_truncated] WAL records: the storage faults
   have teeth), recovery is mostly local (WAL-replayed transactions
   outnumber leader diff-syncs), and the first schedule replays
   bit-identically. *)
let durability_check ~deterministic ~torn_truncated ~replayed ~diff_synced runs =
  List.concat_map
    (fun ((seed, flavor), (r : Systems.dufs_run)) ->
      let ctx = Printf.sprintf "seed=%Ld %s" seed flavor in
      let a = register_audit r in
      List.concat
        [ Report.expect
            (Float.is_finite a.Systems.recovery_s)
            "%s: whole-cluster power failure never recovered" ctx;
          Report.expect a.Systems.replicas_agree "%s: recovered replicas disagree" ctx;
          Report.expect (r.Systems.violations = [])
            "%s: %d linearizability violations" ctx
            (List.length r.Systems.violations);
          Report.expect (a.Systems.durability_violations = [])
            "%s: %d acked writes lost or unacked writes resurrected" ctx
            (List.length a.Systems.durability_violations);
          Report.expect (a.Systems.audited > 0)
            "%s: the durability oracle audited 0 registers" ctx ])
    runs
  @ Report.expect (torn_truncated > 0)
      "torn/bit-rot schedules truncated nothing (no teeth)"
  @ Report.expect (diff_synced < replayed)
      "recovery not mostly local (diff-sync %d >= WAL replay %d)" diff_synced replayed
  @ Report.expect deterministic "identical seed produced a different history"

let durability ?(seeds = List.map Int64.of_int [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    ?(procs = 64) ?(reg_clients = 8) ?(ops_per_client = 50)
    ?(dirs_per_proc = 12) ?(files_per_proc = 12) ?json_path () =
  Report.print_header
    (Printf.sprintf
       "Durability — %d whole-cluster power-failure schedules (plus torn \
        tails, WAL bit-rot, snapshot corruption, fail-slow disks) under \
        %d-proc mdtest over %d-server ensembles; checksummed-WAL recovery \
        + durability oracle"
       (List.length seeds) procs durability_servers);
  Printf.printf "%5s %14s %9s %7s %6s %7s %8s %9s %6s %6s %6s %7s %5s %5s\n"
    "seed" "flavor" "recorded" "audited" "undet" "mderr" "replayed" "truncated"
    "snaps" "falls" "diff" "rectime" "lin" "dur";
  let registers = durability_registers ~clients:reg_clients ~ops_per_client in
  let run (seed, flavor) =
    let plan = durability_plan ~servers:durability_servers ~seed ~flavor in
    Systems.dufs_mdtest ~dirs_per_proc ~files_per_proc ~plan
      ~config_adjust:(durability_config ~seed) ~registers ~spec:durability_spec
      ~shards:1 ~procs ()
  in
  let restart_max (r : Systems.dufs_run) =
    over_shards r.Systems.router Zk.Ensemble.recovery_time_max Float.max 0.
  in
  let print (seed, flavor) (r : Systems.dufs_run) =
    let a = register_audit r and sum = shard_sum r.Systems.router in
    Printf.printf
      "%5Ld %14s %9d %7d %6d %7d %8d %9d %6d %6d %6d %6.3fs %5d %5d%s\n%!"
      seed flavor r.Systems.history_recorded a.Systems.audited
      r.Systems.history_undetermined r.Systems.results.Runner.errors
      (sum Zk.Ensemble.wal_replayed) (sum Zk.Ensemble.wal_truncated)
      (sum Zk.Ensemble.snap_loads) (sum Zk.Ensemble.snap_fallbacks)
      (sum Zk.Ensemble.transfer_diff_txns) (restart_max r)
      (List.length r.Systems.violations)
      (List.length a.Systems.durability_violations)
      ((if Float.is_finite a.Systems.recovery_s then "" else "  NOT-RECOVERED")
       ^ if a.Systems.replicas_agree then "" else "  REPLICAS-DISAGREE")
  in
  let results, deterministic =
    seed_sweep ~run ~print
      (List.mapi
         (fun i seed -> (seed, durability_flavors.(i mod Array.length durability_flavors)))
         seeds)
  in
  let count f = List.length (List.filter f results) in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  (* the sweep's counters, over every run's shards *)
  let ensembles =
    List.concat_map
      (fun (_, (r : Systems.dufs_run)) ->
        Array.to_list (Zk.Shard_router.ensembles r.Systems.router))
      results
  in
  let over f op init = List.fold_left (fun acc e -> op acc (f e)) init ensembles in
  let total_of f = over f ( + ) 0 in
  let lin_violations =
    total (fun (_, (r : Systems.dufs_run)) -> List.length r.Systems.violations)
  and dur_violations =
    total (fun (_, r) -> List.length (register_audit r).Systems.durability_violations)
  and recovered_runs = count (fun (_, r) -> Float.is_finite (recovery_s r))
  and agree_runs = count (fun (_, r) -> (register_audit r).Systems.replicas_agree)
  and torn_truncated =
    total (fun ((_, flavor), (r : Systems.dufs_run)) ->
        if is_torn flavor then shard_sum r.Systems.router Zk.Ensemble.wal_truncated else 0)
  and replayed = total_of Zk.Ensemble.wal_replayed
  and diff_synced = total_of Zk.Ensemble.transfer_diff_txns
  and recoveries = total_of Zk.Ensemble.recoveries
  and rec_time_max = over Zk.Ensemble.recovery_time_max Float.max 0. in
  let per_restart_mean =
    if recoveries = 0 then 0.
    else over Zk.Ensemble.recovery_time_total ( +. ) 0. /. float_of_int recoveries
  in
  Printf.printf
    "\ntotal: %d runs (%d recovered, %d replicas-agree), %d lin + %d \
     durability violations; %d recoveries, per-restart recovery mean=%.3fs \
     max=%.3fs; wal replayed %d vs leader diff-sync %d txns (+%d SNAP); \
     truncated %d under torn/bit-rot; seed %Ld re-run digest %s\n%!"
    (List.length results) recovered_runs agree_runs lin_violations
    dur_violations recoveries per_restart_mean rec_time_max replayed diff_synced
    (total_of Zk.Ensemble.transfer_snaps)
    torn_truncated (List.hd seeds) (digest_verdict deterministic);
  (match json_path with
   | None -> ()
   | Some path ->
     let flag b = if b then 1. else 0. in
     let points =
       List.map
         (fun ((seed, flavor), (r : Systems.dufs_run)) ->
           let a = register_audit r in
           let sum f = float_of_int (shard_sum r.Systems.router f) in
           Report.point ~experiment:"durability" ~procs
             ~config:
               (Printf.sprintf "seed=%Ld|flavor=%s|zk=%d" seed flavor durability_servers)
             ~ops_per_sec:(Runner.rate r.Systems.results Runner.File_create)
             ~phases:
               [ ("violations", float_of_int (List.length r.Systems.violations));
                 ( "durability_violations",
                   float_of_int (List.length a.Systems.durability_violations) );
                 ("ops_recorded", float_of_int r.Systems.history_recorded);
                 ("registers_audited", float_of_int a.Systems.audited);
                 ("undetermined", float_of_int r.Systems.history_undetermined);
                 ("mdtest_errors", float_of_int r.Systems.results.Runner.errors);
                 ("power_failure_recovered", flag (Float.is_finite a.Systems.recovery_s));
                 ("replicas_agree", flag a.Systems.replicas_agree);
                 ("faults_fired", float_of_int r.Systems.faults_fired);
                 ("wal.appended", sum Zk.Ensemble.wal_appended);
                 ("wal.replayed", sum Zk.Ensemble.wal_replayed);
                 ("wal.truncated_records", sum Zk.Ensemble.wal_truncated);
                 ("wal.tail_dropped", sum Zk.Ensemble.wal_tail_dropped);
                 ("wal.tail_commits", sum Zk.Ensemble.wal_tail_commits);
                 ("snap.loads", sum Zk.Ensemble.snap_loads);
                 ("snap.corrupt_fallbacks", sum Zk.Ensemble.snap_fallbacks);
                 ("recovery.count", sum Zk.Ensemble.recoveries);
                 ( "recovery.time_total_s",
                   over_shards r.Systems.router Zk.Ensemble.recovery_time_total
                     ( +. ) 0. );
                 ("recovery.time_max_s", restart_max r);
                 ("transfer.diff_txns", sum Zk.Ensemble.transfer_diff_txns);
                 ("transfer.snaps", sum Zk.Ensemble.transfer_snaps) ]
             ())
         results
       @ [ Report.point ~experiment:"durability-summary" ~procs
             ~config:
               (Printf.sprintf "runs=%d|zk=%d|reg_clients=%d"
                  (List.length results) durability_servers reg_clients)
             ~ops_per_sec:0.
             ~phases:
               [ ("runs", float_of_int (List.length results));
                 ("violations_total", float_of_int lin_violations);
                 ("durability_violations_total", float_of_int dur_violations);
                 ("power_failures_recovered", float_of_int recovered_runs);
                 ("replicas_agree_runs", float_of_int agree_runs);
                 ("wal.replayed_total", float_of_int replayed);
                 ("wal.truncated_torn_total", float_of_int torn_truncated);
                 ("transfer.diff_txns_total", float_of_int diff_synced);
                 ("recovery.count_total", float_of_int recoveries);
                 ("recovery.per_restart_mean_s", per_restart_mean);
                 ("recovery.max_s", rec_time_max);
                 ("deterministic", flag deterministic) ]
             () ]
     in
     Report.emit_json ~path points);
  Report.gate ~experiment:"durability"
    (durability_check ~deterministic ~torn_truncated ~replayed ~diff_synced results)

let durability_smoke ?json_path () =
  durability
    ~seeds:(List.map Int64.of_int [ 1; 2; 3; 4 ])
    ~procs:16 ~ops_per_client:30 ~dirs_per_proc:6 ~files_per_proc:6 ?json_path ()

let all () =
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  headline ();
  fig11 ();
  ablation_mapping ();
  ablation_cmd ();
  ablation_unique ();
  ablation_async ();
  ablation_cache ();
  ablation_giga ();
  ablation_observers ();
  faults ();
  profile ();
  sharding ();
  chaos ();
  engine ();
  sessions ();
  reshard ();
  pipeline ();
  durability ()
