module Report = Mdtest.Report
module Runner = Mdtest.Runner
module Engine = Simkit.Engine
module Process = Simkit.Process

let default_procs = [ 16; 64; 128; 256 ]
let bar_procs = [ 64; 128; 256 ]
let zk_ok = function Ok _ -> () | Error e -> failwith (Zk.Zerror.to_string e)
let errno_ok = function Ok () -> () | Error e -> failwith (Fuselike.Errno.to_string e)

(* {2 Every experiment is its bench points}

   Each driver reduces every run to bench points as it finishes, then
   prints, checks and returns those points only. A figure
   ({!Report.print_figure}) plots one experiment's ops/s by procs, one
   series per config; a table ({!Report.print_table}) one row per
   point, a key column and then its phases. *)

(* The one point of [points] that [keep] picks. *)
let pick what keep points =
  match List.find_opt keep points with
  | Some p -> p
  | None -> invalid_arg (what ^ ": no such point")

let find_point experiment points =
  List.find_opt (fun (p : Report.bench_point) -> p.experiment = experiment) points

(* The accounting point every run of a driver makes. *)
let the_point experiment =
  pick experiment (fun (p : Report.bench_point) -> p.experiment = experiment)

let at_config config = pick config (fun (p : Report.bench_point) -> p.config = config)
let flag b = if b then 1. else 0.

(* A table row's point: its numbers are its phases. *)
let row_point experiment ~procs config phases =
  Report.point ~experiment ~procs ~config ~ops_per_sec:0. ~phases ()

(* One rate-only [mdtest-<phase>] point per phase of [phases]. *)
let rate_points ~procs ~config phases results =
  List.map
    (fun phase ->
      Report.point
        ~experiment:("mdtest-" ^ Runner.phase_to_string phase)
        ~procs ~config ~ops_per_sec:(Runner.rate results phase) ())
    phases

(* The key column of a table keyed by each point's config. *)
let config_key header width =
  (Printf.sprintf "%-*s" width header, fun (p : Report.bench_point) ->
    Printf.sprintf "%-*s" width p.config)

(* {2 Fig. 7} *)

let fig7_servers = [ 1; 4; 8 ]
let fig7_ops = [ "zoo_create"; "zoo_delete"; "zoo_set"; "zoo_get" ]

(* One point per (op, servers, procs), its config the series label. *)
let fig7 ?(procs_list = default_procs) () =
  let points =
    List.concat_map
      (fun servers ->
        let config =
          Printf.sprintf "%d zk server%s" servers (if servers > 1 then "s" else "")
        in
        List.concat_map
          (fun procs ->
            let rates = Systems.zk_raw ~servers ~procs () in
            List.map
              (fun op ->
                Report.point ~experiment:op ~procs ~config
                  ~ops_per_sec:(List.assoc op rates) ())
              fig7_ops)
          procs_list)
      fig7_servers
  in
  List.iter
    (fun op ->
      Report.print_figure
        ~title:(Printf.sprintf "Fig. 7 — ZooKeeper %s() throughput" op)
        op points)
    fig7_ops;
  (points, [])

(* {2 The paper sweep}

   Figs. 8-10 and ablation-cmd read several mdtest phases of the same
   (system, procs) points. [sweep] runs each [(label, system)] series
   once at every procs count, keeps each run as its [mdtest-<phase>]
   points of [phases] (config: the label), prints one figure per phase
   (titled [title] of the phase's name) and returns the points. *)

let sweep ~title ~procs_list ~phases series =
  let points =
    List.concat_map
      (fun (config, system) ->
        List.concat_map
          (fun procs -> rate_points ~procs ~config phases (Systems.mdtest system ~procs ()))
          procs_list)
      series
  in
  List.iter
    (fun phase ->
      let name = Runner.phase_to_string phase in
      Report.print_figure ~title:(title name) ("mdtest-" ^ name) points)
    phases;
  points

let labelled systems =
  List.map (fun system -> (Systems.system_label system, system)) systems

let dufs_8zk = Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Lustre }

let dufs_8zk_pvfs =
  Systems.Dufs { zk_servers = 8; backends = 2; backend_kind = Systems.Pvfs }

(* {2 Fig. 8} *)

let fig8 () =
  ( sweep
      ~title:
        (Printf.sprintf "Fig. 8 — %s vs number of ZooKeeper servers (2 Lustre backends)")
      ~procs_list:bar_procs ~phases:Runner.all_phases
      (("Basic Lustre", Systems.Basic_lustre)
       :: List.map
            (fun zk_servers ->
              ( Printf.sprintf "%d Zookeeper" zk_servers,
                Systems.Dufs { zk_servers; backends = 2; backend_kind = Systems.Lustre } ))
            [ 1; 4; 8 ]),
    [] )

(* {2 Fig. 9} *)

let fig9 () =
  ( sweep
      ~title:(Printf.sprintf "Fig. 9 — %s vs number of backend storages")
      ~procs_list:bar_procs
      ~phases:[ Runner.File_create; Runner.File_remove; Runner.File_stat ]
      (("Basic Lustre", Systems.Basic_lustre)
       :: List.map
            (fun backends ->
              ( Printf.sprintf "DUFS %d Lustre backends" backends,
                Systems.Dufs { zk_servers = 8; backends; backend_kind = Systems.Lustre } ))
            [ 2; 4 ]),
    [] )

(* {2 Fig. 10} *)

let fig10 () =
  ( sweep
      ~title:(Printf.sprintf "Fig. 10 — %s: DUFS vs Lustre and PVFS2")
      ~procs_list:default_procs ~phases:Runner.all_phases
      (labelled [ Systems.Basic_lustre; dufs_8zk; Systems.Basic_pvfs; dufs_8zk_pvfs ]),
    [] )

(* {2 Headline ratios (§V-D)} *)

(* Each point's [ratio] beats 1 and lies within 0.7-1.3x of its
   [paper] value. *)
let headline_check points =
  List.concat_map
    (fun (p : Report.bench_point) ->
      let paper = Report.phase p "paper" and x = Report.phase p "ratio" in
      Report.expect
        (x > 1. && x >= 0.7 *. paper && x <= 1.3 *. paper)
        "%s: %.2fx, expected > 1 and within [%.2fx, %.2fx]" p.config x (0.7 *. paper)
        (1.3 *. paper))
    points

let headline () =
  let run system = Systems.mdtest system ~procs:256 () in
  let lustre = run Systems.Basic_lustre and pvfs = run Systems.Basic_pvfs in
  let dufs_lustre = run dufs_8zk and dufs_pvfs = run dufs_8zk_pvfs in
  let ratio label paper phase dufs base =
    row_point "headline" ~procs:256 label
      [ ("paper", paper); ("ratio", Runner.rate dufs phase /. Runner.rate base phase) ]
  in
  let points =
    [ ratio "directory create: DUFS(2xLustre) / Basic Lustre  (1.9)" 1.9 Runner.Dir_create
        dufs_lustre lustre;
      ratio "directory create: DUFS(2xPVFS) / Basic PVFS      (23)" 23. Runner.Dir_create
        dufs_pvfs pvfs;
      ratio "file stat:        DUFS(2xLustre) / Basic Lustre  (1.3)" 1.3 Runner.File_stat
        dufs_lustre lustre;
      ratio "file stat:        DUFS(2xPVFS) / Basic PVFS      (3.0)" 3.0 Runner.File_stat
        dufs_pvfs pvfs ]
  in
  Report.print_header "§V-D headline ratios at 256 client processes (paper in parens)";
  List.iter
    (fun (p : Report.bench_point) ->
      Report.print_ratio ~label:p.config (Report.phase p "ratio"))
    points;
  (points, headline_check points)

(* {2 Fig. 11 — memory usage} *)

let fig11 ?(millions = [ 0.5; 1.0; 1.5; 2.0; 2.5 ]) () =
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
  let points =
    List.map
      (fun m ->
        let target = int_of_float (m *. 1e6) in
        while !created < target do
          zk_ok
            (session.Zk.Zk_client.create (Printf.sprintf "/m/d%08d" !created) ~data:dir_meta);
          incr created
        done;
        row_point "fig11" ~procs:1 (Printf.sprintf "dirs=%gM" m)
          [ ("millions", m);
            ("zookeeper_mib", mib (Zk.Zk_local.server_resident_bytes zk));
            ("dufs_mib", mib (Dufs.Client.resident_bytes dufs));
            ("fuse_mib", mib (Fuselike.Passthrough.resident_bytes passthrough)) ])
      (List.sort compare millions)
  in
  Report.print_header "Fig. 11 — resident memory vs millions of directories created";
  let cols : Report.column list =
    [ ("Zookeeper", "zookeeper_mib", "%14.0f"); ("DUFS", "dufs_mib", "%14.1f");
      ("Dummy FUSE", "fuse_mib", "%14.1f") ]
  in
  print_endline
    (Printf.sprintf "%-12s" "dirs (M)" ^ Report.column_header cols ^ "   [MiB]");
  Report.print_rows
    (fun p -> Printf.sprintf "%-12.1f" (Report.phase p "millions"))
    cols points;
  (points, [])

(* {2 Extension ablations}: each runs, prints its table from its
   points, then gates on a pure [*_check] of the claim its printed
   footnote makes. *)

(* An ensemble with one session per process and the znode [root]. *)
let sessions_with_root engine config ~procs root =
  let ensemble = Zk.Ensemble.start engine config in
  let sessions = Array.init procs (fun _ -> Zk.Ensemble.session ensemble ()) in
  Process.spawn engine (fun () -> zk_ok (sessions.(0).Zk.Zk_client.create root ~data:""));
  Engine.run engine;
  sessions

(* {2 Ablation: mapping strategies} *)

let mapping_mod = "MD5 mod N (paper)"
let mapping_ring = "consistent hashing (§VII)"

(* Growing N -> N+1 back-ends, MD5 mod N moves nearly the N/(N+1) of
   FIDs a fresh hash would, the ring about the 1/(N+1) share the new
   node takes; both keep the load even. *)
let ablation_mapping_check points =
  List.concat_map
    (fun (p : Report.bench_point) ->
      let n = Report.phase p "n" in
      let at config =
        Report.phase
          (pick config
             (fun (q : Report.bench_point) -> q.config = config && Report.phase q "n" = n)
             points)
      in
      let md = at mapping_mod and ring = at mapping_ring in
      List.concat
        [ Report.expect (md "relocated_pct" >= 95. *. n /. (n +. 1.))
            "N=%.0f: MD5 mod N relocated %.1f%% of FIDs, expected >= %.1f%%" n
            (md "relocated_pct") (95. *. n /. (n +. 1.));
          Report.expect
            (ring "relocated_pct" <= 150. /. (n +. 1.)
             && ring "relocated_pct" < md "relocated_pct")
            "N=%.0f: consistent hashing relocated %.1f%% of FIDs, expected <= %.1f%% \
             and less than MD5 mod N" n (ring "relocated_pct") (150. /. (n +. 1.));
          Report.expect (md "imbalance" <= 1.3 && ring "imbalance" <= 1.3)
            "N=%.0f: imbalance %.3f (MD5 mod N) / %.3f (consistent hashing), \
             expected <= 1.3" n (md "imbalance") (ring "imbalance") ])
    (List.filter (fun (p : Report.bench_point) -> p.config = mapping_mod) points)

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
  let point strategy n imbalance moved =
    row_point "ablation-mapping" ~procs:8 strategy
      [ ("n", float_of_int n); ("imbalance", imbalance); ("relocated_pct", 100. *. moved) ]
  in
  let points =
    List.concat_map
      (fun n ->
        let before = Dufs.Mapping.md5_mod ~backends:n in
        let after = Dufs.Mapping.md5_mod ~backends:(n + 1) in
        let moved = List.filter (fun fid -> before fid <> after fid) fids in
        let ring = Zk.Consistent_hash.create (List.init n Fun.id) in
        [ point mapping_mod n
            (Dufs.Mapping.imbalance before ~backends:n fids)
            (float_of_int (List.length moved) /. float_of_int (List.length fids));
          point mapping_ring n
            (Dufs.Mapping.imbalance
               (fun fid -> Zk.Consistent_hash.lookup ring (Dufs.Fid.to_bytes fid))
               ~backends:n fids)
            (Zk.Consistent_hash.relocated ~before:ring
               ~after:(Zk.Consistent_hash.add_node ring n) keys) ])
      [ 2; 4; 8 ]
  in
  Report.print_table (config_key "strategy" 28)
    [ ("N", "n", "%12.0f"); ("imbalance", "imbalance", "%12.3f");
      ("relocated N->N+1", "relocated_pct", "%17.1f%%") ]
    points;
  (points, ablation_mapping_check points)

(* {2 Ablation: DUFS vs hypothetical Lustre Clustered MDS (§VI)} *)

let cmd_phases = [ Runner.Dir_create; Runner.Dir_stat ]

(* More metadata servers shard lookups, so dir-stat rises with the MDS
   count; more mutations cross servers onto the global lock, so
   dir-create falls with it. DUFS beats both CMD variants on both. *)
let ablation_cmd_check points =
  let rates =
    List.map
      (fun (p : Report.bench_point) -> ((p.experiment, p.procs, p.config), p.ops_per_sec))
      points
  in
  List.concat_map
    (fun phase ->
      let phase_name = Runner.phase_to_string phase in
      List.concat_map
        (fun procs ->
          let rate system =
            List.assoc ("mdtest-" ^ phase_name, procs, Systems.system_label system) rates
          in
          let lustre = rate Systems.Basic_lustre and dufs = rate dufs_8zk in
          let cmd2 = rate (Systems.Lustre_cmd 2) and cmd4 = rate (Systems.Lustre_cmd 4) in
          let at = Printf.sprintf "%s at %d procs" phase_name procs in
          let ordered rel sign =
            Report.expect (rel cmd4 cmd2 && rel cmd2 lustre)
              "%s: CMD 4 %.0f, CMD 2 %.0f, Basic Lustre %.0f ops/s, expected CMD 4 \
               %s CMD 2 %s Basic Lustre" at cmd4 cmd2 lustre sign sign
          in
          (match phase with
           | Runner.Dir_stat -> ordered ( > ) ">"
           | _ -> ordered ( < ) "<")
          @ Report.expect (dufs > Float.max cmd2 cmd4)
              "%s: DUFS %.0f ops/s does not beat CMD 2 (%.0f) and CMD 4 (%.0f)" at dufs cmd2
              cmd4)
        (List.sort_uniq compare (List.map (fun ((_, procs, _), _) -> procs) rates)))
    cmd_phases

let ablation_cmd () =
  Report.print_header
    "Ablation — DUFS vs Lustre Clustered MDS (CMD): global-lock cost of \
     cross-server updates";
  let points =
    sweep ~title:(Printf.sprintf "ablation-cmd — %s") ~procs_list:bar_procs
      ~phases:cmd_phases
      (labelled
         [ Systems.Basic_lustre; Systems.Lustre_cmd 2; Systems.Lustre_cmd 4; dufs_8zk ])
  in
  print_endline
    "  (CMD shards lookups nicely, but ~1/2 of 2-MDS mutations and ~3/4 of\n\
    \   4-MDS mutations cross servers and serialize on the global lock —\n\
    \   the consistency cost §VI predicts; DUFS replaces that lock with\n\
    \   ZooKeeper's totally-ordered broadcast)";
  (points, ablation_cmd_check points)

(* {2 Ablation: shared vs unique working directories (mdtest -u)} *)

let unique_phases = [ Runner.Dir_create; Runner.File_create ]

(* Private directories end Lustre's DLM lock ping-pong, so -u gains it
   at least 10%; znode creates take no directory lock, so DUFS moves by
   at most 2%. *)
let ablation_unique_check points =
  let ratios name system ok claim =
    let config = Systems.system_label system in
    let mode unique =
      Report.phase
        (pick config
           (fun (p : Report.bench_point) ->
             p.config = config && Report.phase p "unique" = flag unique)
           points)
    in
    List.concat_map
      (fun phase ->
        let phase = Runner.phase_to_string phase in
        let x = mode true phase /. mode false phase in
        Report.expect (ok x) "%s %s: unique/shared %.3f, expected %s" name phase x claim)
      unique_phases
  in
  ratios "Basic Lustre" Systems.Basic_lustre (fun x -> x >= 1.10) ">= 1.10"
  @ ratios "DUFS" dufs_8zk (fun x -> Float.abs (x -. 1.) <= 0.02) "within 2% of 1"

let ablation_unique () =
  Report.print_header
    "Ablation — shared leaf dirs vs unique per-process dirs (mdtest -u), 256 procs";
  let points =
    List.concat_map
      (fun system ->
        List.map
          (fun unique ->
            let r = Systems.mdtest ~unique system ~procs:256 () in
            row_point "ablation-unique" ~procs:256 (Systems.system_label system)
              (("unique", flag unique)
               :: List.map
                    (fun ph -> (Runner.phase_to_string ph, Runner.rate r ph))
                    unique_phases))
          [ false; true ])
      [ Systems.Basic_lustre; dufs_8zk ]
  in
  Report.print_table
    ( Printf.sprintf "%-22s %-10s" "system" "mode",
      fun p ->
        Printf.sprintf "%-22s %-10s" p.config
          (if Report.phase p "unique" = 1. then "unique" else "shared") )
    [ ("dir-create/s", "dir-create", "%14.0f"); ("file-create/s", "file-create", "%14.0f") ]
    points;
  print_endline
    "  (Lustre gains from -u because private directories end the DLM lock\n\
    \   ping-pong; DUFS is indifferent — znode creates take no directory lock)";
  (points, ablation_unique_check points)

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

let observer_label (voters, observers) =
  if observers = 0 then Printf.sprintf "%d voters" voters
  else Printf.sprintf "%d voters + %d observers" voters observers

(* Observers serve reads but never vote: 3 voters + 4 observers keep 95%
   of 7 voters' gets/s and of 3 voters' creates/s, while 7 voters pay a
   larger quorum on every create. *)
let ablation_observers_check points =
  let ensemble shape = Report.phase (at_config (observer_label shape) points) in
  let v3 = ensemble (3, 0) and v7 = ensemble (7, 0) and obs = ensemble (3, 4) in
  List.concat
    [ Report.expect (obs "gets" >= 0.95 *. v7 "gets")
        "3 voters + 4 observers: %.0f gets/s, below 95%% of 7 voters' %.0f" (obs "gets")
        (v7 "gets");
      Report.expect (obs "creates" >= 0.95 *. v3 "creates")
        "3 voters + 4 observers: %.0f creates/s, below 95%% of 3 voters' %.0f"
        (obs "creates") (v3 "creates");
      Report.expect (v7 "creates" < v3 "creates")
        "7 voters: %.0f creates/s, not below 3 voters' %.0f" (v7 "creates") (v3 "creates") ]

let ablation_observers () =
  Report.print_header
    "Ablation — non-voting observers: read capacity without quorum cost (256 procs)";
  let points =
    List.map
      (fun (voters, observers) ->
        let creates, gets = observer_rates ~servers:voters ~observers ~procs:256 in
        row_point "ablation-observers" ~procs:256
          (observer_label (voters, observers))
          [ ("creates", creates); ("gets", gets) ])
      [ (3, 0); (7, 0); (3, 4) ]
  in
  Report.print_table (config_key "ensemble" 28)
    [ ("creates/s", "creates", "%14.0f"); ("gets/s", "gets", "%14.0f") ]
    points;
  print_endline
    "  (observers apply commits and serve reads but never vote: they buy\n\
    \   close to 7-server read capacity at close to 3-server write cost)";
  (points, ablation_observers_check points)

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

let giga_label = function
  | `Lustre -> "Basic Lustre (DLM lock)"
  | `Dufs -> "DUFS 8zk"
  | `Giga servers -> Printf.sprintf "GIGA+ %d servers" servers

(* GIGA+ has no shared state, so 8 servers insert at least as fast as 4,
   and 4 at least 10x faster than DUFS or Lustre; but its partitions are
   unreplicated, so one crash leaves part, not all or none, of the
   directory reachable. Each system's point has its creates/s per
   ["<n> procs"] phase. *)
let ablation_giga_check points =
  let rate config column = Report.phase (at_config config points) column in
  List.concat_map
    (fun (procs, _) ->
      let giga4 = rate (giga_label (`Giga 4)) procs
      and giga8 = rate (giga_label (`Giga 8)) procs in
      let best = Float.max (rate (giga_label `Lustre) procs) (rate (giga_label `Dufs) procs) in
      Report.expect (giga8 >= giga4 && giga4 >= 10. *. best)
        "%s: GIGA+ 8 servers %.0f, 4 servers %.0f creates/s, expected 8 >= 4 \
         >= 10x the better of DUFS and Lustre (%.0f)" procs giga8 giga4 best)
    (at_config (giga_label `Lustre) points).phases
  @
  let available =
    Report.phase (the_point "ablation-giga-availability" points) "available"
  in
  Report.expect (available > 0. && available < 1.)
    "availability after losing 1 of 8 GIGA+ servers is %.1f%%, expected \
     strictly between 0 and 100%%" (100. *. available)

let ablation_giga () =
  Report.print_header
    "Ablation — creates in ONE huge directory: GIGA+ indexing vs DUFS vs Lustre";
  let procs_list = [ 64; 256 ] in
  let column procs = Printf.sprintf "%d procs" procs in
  let creates =
    List.map
      (fun variant ->
        row_point "ablation-giga" ~procs:256 (giga_label variant)
          (List.map
             (fun procs -> (column procs, giga_single_dir_rate ~procs variant))
             procs_list))
      [ `Lustre; `Dufs; `Giga 4; `Giga 8 ]
  in
  (* the price §VI points out: unreplicated partitions *)
  let t =
    giga_filled (Engine.create ()) ~servers:8 ~split_threshold:200 ~files:10_000 "e"
  in
  Gigaplus.Giga.crash_server t 0;
  let available = Gigaplus.Giga.available_fraction t in
  let cols : Report.column list =
    List.map (fun procs -> (column procs, column procs, ("%14.0f" : _ format))) procs_list
  and header, key = config_key "system" 26 in
  print_endline (header ^ Report.column_header cols ^ "   [creates/s]");
  Report.print_rows key cols creates;
  Printf.printf
    "availability after losing 1 of 8 GIGA+ servers: %.1f%% of the directory\n"
    (100. *. available);
  print_endline
    "  (GIGA+ out-scales both on pure insert rate — no shared state — but a\n\
    \   single server loss makes part of the namespace unreachable; DUFS keeps\n\
    \   100% availability while a quorum of coordination servers survives)";
  let points =
    creates
    @ [ row_point "ablation-giga-availability" ~procs:1 "servers=8|crashed=1"
          [ ("available", available) ] ]
  in
  (points, ablation_giga_check points)

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

(* mdtest is scan-once, so the cache must be neutral there: within 2%
   of uncached DUFS. The hot loop re-references, so the cache must pay
   off by at least 20x at every scale. *)
let ablation_cache_check points =
  List.concat_map
    (fun (p : Report.bench_point) ->
      let a = Report.phase p in
      if p.experiment = "ablation-cache-mdtest" then
        Report.expect
          (Float.abs ((a "cached" /. a "uncached") -. 1.) <= 0.02)
          "mdtest %s: DUFS+cache %.0f ops/s is not within 2%% of DUFS %.0f ops/s" p.config
          (a "cached") (a "uncached")
      else
        Report.expect (a "speedup" >= 20.)
          "hot-entry stat loop at %d procs: %.1fx speedup, expected >= 20x" p.procs
          (a "speedup"))
    points

let ablation_cache ?(procs = 256) ?(items = 60) ?(hot_procs = [ 64; 256 ]) () =
  Report.print_header
    "Ablation — client-side metadata cache with lease invalidation";
  (* part 1: mdtest is scan-once, so the cache must be neutral there *)
  let spec = { Systems.zk_servers = 8; backends = 2; backend_kind = Systems.Lustre } in
  let run system =
    Systems.mdtest ~dirs_per_proc:items ~files_per_proc:items system ~procs ()
  in
  let plain = run (Systems.Dufs spec) and cached = run (Systems.Dufs_cached spec) in
  let mdtest =
    List.map
      (fun phase ->
        row_point "ablation-cache-mdtest" ~procs (Runner.phase_to_string phase)
          [ ("uncached", Runner.rate plain phase); ("cached", Runner.rate cached phase) ])
      [ Runner.Dir_stat; Runner.Dir_create ]
  in
  (* part 2: re-reference workload — where client caching pays off *)
  let hot =
    List.map
      (fun procs ->
        let plain = cache_stat_rate ~procs ~cached:false in
        let cached = cache_stat_rate ~procs ~cached:true in
        row_point "ablation-cache-hot" ~procs "hot-stat"
          [ ("uncached", plain); ("cached", cached); ("speedup", cached /. plain) ])
      hot_procs
  in
  Printf.printf "mdtest (each entry touched once per phase, %d procs):\n" procs;
  Report.print_table
    (Printf.sprintf "  %-14s" "phase", fun p -> Printf.sprintf "  %-14s" p.config)
    [ ("DUFS", "uncached", "%14.0f"); ("DUFS+cache", "cached", "%14.0f") ]
    mdtest;
  print_endline
    "  (neutral, as expected: a scan-once workload has no re-references,\n\
    \   and a leased read costs exactly one visit, like an uncached one)";
  Printf.printf "\nhot-entry stat loop (10 shared dirs re-stat'd 300x per client):\n";
  Report.print_table
    (Printf.sprintf "  %-8s" "procs", fun p -> Printf.sprintf "  %-8d" p.procs)
    [ ("uncached (op/s)", "uncached", "%16.0f"); ("cached (op/s)", "cached", "%16.0f");
      ("speedup", "speedup", "%9.1fx") ]
    hot;
  print_endline
    "  (hits are served locally; lease revocations keep remote updates\n\
    \   visible — the consistency overhead §VI says usually forces client\n\
    \   caching off is carried by the coordination service instead)";
  (mdtest @ hot, ablation_cache_check (mdtest @ hot))

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
let ablation_async_check points =
  let rate clients window =
    let config = Printf.sprintf "window=%d" window in
    Report.phase
      (pick config
         (fun (p : Report.bench_point) -> p.procs = clients && p.config = config)
         points)
      "creates"
  in
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
  let points =
    List.concat_map
      (fun clients ->
        List.map
          (fun window ->
            row_point "ablation-async" ~procs:clients (Printf.sprintf "window=%d" window)
              [ ("window", float_of_int window);
                ( "creates",
                  pipelined_create_rate ~servers:8 ~clients ~per_client:200 ~window ) ])
          [ 1; 4; 16 ])
      [ 1; 2; 8 ]
  in
  Report.print_table
    ( Printf.sprintf "%-34s" "configuration",
      fun p -> Printf.sprintf "%2d clients / 8 zk servers" p.procs )
    [ ("window", "window", "%10.0f"); ("creates/s", "creates", "%14.0f") ]
    points;
  print_endline
    "  (few synchronous clients cannot saturate the write pipeline —\n\
    \   async windows recover the throughput that §V needed 64+ processes\n\
    \   to reach)";
  (points, ablation_async_check points)

(* {2 A DUFS run is its bench points}

   The drivers from here on keep each {!Systems.dufs_mdtest} run as one
   [mdtest-<phase>] point per phase, one [zk-<op>-breakdown] point per
   traced write kind and, where a driver prints or gates on more, one
   accounting point whose phases carry it, so no run's router or trace
   outlives its reduction. *)

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

let zk_write_ops = [ "create"; "delete"; "set"; "multi" ]

(* One [zk-<op>-breakdown] point per write kind in [ops] that [r]
   traced: the op's latency block and the mean of each quorum phase. *)
let breakdown_points ~ops ~procs ~config (r : Systems.dufs_run) =
  let trace = r.Systems.trace and wall = r.Systems.results.Runner.wall in
  List.filter_map
    (fun op ->
      let name = "zk." ^ op ^ ".total" in
      let mean p = Obs.Trace.span_mean trace ("zk." ^ op ^ "." ^ p) in
      Option.map
        (fun total ->
          let count = Obs.Trace.span_count trace name in
          let q p = Option.value ~default:total (Obs.Trace.span_quantile trace name p) in
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
                max_s = Option.value ~default:total (Obs.Trace.span_max trace name) }
            ~phases:
              (List.map (fun p -> (p, Option.value ~default:0. (mean p))) Obs.Trace.phases)
            ())
        (mean "total"))
    ops

let run_points ~ops ~procs ~config (r : Systems.dufs_run) =
  mdtest_points ~procs ~config r.Systems.results @ breakdown_points ~ops ~procs ~config r

let mdtest_point points phase = find_point ("mdtest-" ^ Runner.phase_to_string phase) points

let mdtest_rate points phase =
  Option.fold ~none:0. ~some:(fun (p : Report.bench_point) -> p.Report.ops_per_sec)
    (mdtest_point points phase)

(* [(count, mean total, quorum-phase means)] of [op]'s breakdown point;
   [None] if the run traced no such op. *)
let breakdown points op =
  Option.bind (find_point ("zk-" ^ op ^ "-breakdown") points) (fun p ->
      Option.map
        (fun (l : Report.latency_stats) -> (l.Report.samples, l.Report.mean_s, p.Report.phases))
        p.Report.latency)

(* The logical census at the file-stat barrier, as accounting phases. *)
let census_phases (r : Systems.dufs_run) =
  [ ("expected_logical", float_of_int r.Systems.expected_logical_znodes);
    ("logical", float_of_int r.Systems.logical_znodes_at_stat) ]

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

(* A faults run's points: one [mdtest-<phase>] rate per phase and its
   [faults-accounting] point. *)
let faults_points ~procs ~label ~plan (r : Systems.dufs_run) =
  let config = label ^ "|zk=5|backends=2xLustre" in
  rate_points ~procs ~config Runner.all_phases r.Systems.results
  @ [ Report.point ~experiment:"faults-accounting" ~procs ~config ~ops_per_sec:0.
        ~phases:
          (List.map
             (fun (k, v) -> (k, float_of_int v))
             [ ("client_errors", r.Systems.results.Runner.errors);
               ("dedup_hits", r.Systems.dedup_hits);
               ("faults_fired", r.Systems.faults_fired);
               ("plan_events", List.length plan) ]
          @ census_phases r)
        () ]

(* Every run is error-free with an exact census, every event of its plan
   fired, and a faulted plan's retried writes were answered from the
   dedup table (exactly-once, not a second apply). *)
let faults_check runs =
  List.concat_map
    (fun (label, points) ->
      let a = Report.phase (the_point "faults-accounting" points) in
      List.concat
        [ Report.expect (a "client_errors" = 0.)
            "%s: %.0f client op errors" label (a "client_errors");
          Report.expect
            (a "logical" = a "expected_logical")
            "%s: census %.0f <> expected %.0f" label (a "logical") (a "expected_logical");
          Report.expect (a "faults_fired" = a "plan_events")
            "%s: %.0f of %.0f fault events fired" label (a "faults_fired")
            (a "plan_events");
          Report.expect (a "plan_events" = 0. || a "dedup_hits" > 0.)
            "%s: no dedup hits under faults" label ])
    runs

let faults ?(procs = faults_procs) ?(items = 60) () =
  Report.print_header
    (Printf.sprintf
       "Faults — mdtest %d procs over DUFS 2xLustre/5zk while the ensemble \
        crashes and recovers"
       procs);
  List.iter
    (fun (label, text) -> Printf.printf "  %-20s %s\n" label text)
    fault_plans;
  print_newline ();
  (* one run per schedule, headed by the exactly-comparable fault-free
     baseline (empty plan) *)
  let run label plan =
    ( label,
      faults_points ~procs ~label ~plan
        (Systems.dufs_mdtest ~dirs_per_proc:items ~files_per_proc:items ~plan
           ~spec:faults_spec ~shards:1 ~procs ()) )
  in
  let data =
    run "fault-free" []
    :: List.map
         (fun (label, text) ->
           match Faults.Faultplan.parse text with
           | Ok plan -> run label plan
           | Error msg -> failwith (Printf.sprintf "fault plan %s: %s" label msg))
         fault_plans
  in
  Printf.printf "%-14s" "ops/sec";
  List.iter (fun (label, _) -> Printf.printf " %20s" label) data;
  print_newline ();
  List.iter
    (fun phase ->
      Printf.printf "%-14s" (Runner.phase_to_string phase);
      List.iter (fun (_, points) -> Printf.printf " %20.0f" (mdtest_rate points phase)) data;
      print_newline ())
    Runner.all_phases;
  print_newline ();
  List.iter
    (fun (label, points) ->
      let a = Report.phase (the_point "faults-accounting" points) in
      Printf.printf
        "%-20s errors=%.0f  dedup_hits=%.0f  faults_fired=%.0f  znodes@file-stat=%.0f \
         (expected %.0f%s)\n"
        label (a "client_errors") (a "dedup_hits") (a "faults_fired") (a "logical")
        (a "expected_logical")
        (if a "logical" = a "expected_logical" then ", exact" else ", MISMATCH"))
    data;
  flush stdout;
  (List.concat_map snd data, faults_check data)

(* {2 Span-trace profile: where inside the stack does an op's time go?}

   One mdtest run per scale with the trace enabled end to end. The
   quorum phase durations are stamped on each write's wspan, so per op
   they sum to the measured op latency exactly — the coverage column is
   the honesty check, not a modelling assumption. *)

let profile_spec =
  { Systems.zk_servers = 8; backends = 2; backend_kind = Systems.Lustre }

let profile_config = "profile|zk=8|backends=2xLustre"

(* Quorum phases must tile each traced write: per op, every phase mean
   finite and non-negative, and their sum within 5% of the measured
   mean latency. *)
let breakdown_failures ~ctx points =
  List.concat_map
    (fun op ->
      match breakdown points op with
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

let profile_check runs =
  List.concat_map
    (fun (procs, points) -> breakdown_failures ~ctx:(Printf.sprintf "%d procs" procs) points)
    runs

(* A summary as the [<label>.count], [.mean] and [.max] phases; an
   empty one reads 0 on all three. *)
let summary_phases label s =
  [ (label ^ ".count", float_of_int (Simkit.Stat.Summary.count s));
    (label ^ ".mean", Simkit.Stat.Summary.mean s);
    (label ^ ".max", Option.value ~default:0. (Simkit.Stat.Summary.max s)) ]

(* What [profile] prints of a run beyond its mdtest and breakdown
   points: zk read latency, the leaders' queue-depth and batch-size
   summaries (every shard's too), and each back-end MDS station's wait
   and hold. *)
let profile_accounting ~procs (r : Systems.dufs_run) =
  let trace = r.Systems.trace in
  let metrics = Obs.Trace.metrics trace and read = "zk.read.total" in
  (* every shard tags its instruments zk.shard<i>.*; list them too so
     the per-shard queue wait is visible in the same breakdown *)
  let summaries =
    [ "zk.leader.queue_depth"; "zk.leader.batch_size" ]
    @ List.filter
        (fun n -> String.length n > 8 && String.sub n 0 8 = "zk.shard")
        (Obs.Metrics.names metrics)
  in
  Report.point ~experiment:"profile-accounting" ~procs ~config:profile_config
    ~ops_per_sec:0.
    ~phases:
      ([ ("zk.read.samples", float_of_int (Obs.Trace.span_count trace read));
         ("zk.read.mean_s", Option.value ~default:0. (Obs.Trace.span_mean trace read));
         ( "zk.read.p99_s",
           Option.value ~default:0. (Obs.Trace.span_quantile trace read 0.99) ) ]
      @ List.concat_map
          (fun name ->
            Option.fold ~none:[] ~some:(summary_phases name)
              (Obs.Metrics.summary_opt metrics name))
          summaries
      @ List.concat
          (List.mapi
             (fun i (wait, hold) ->
               summary_phases (Printf.sprintf "backend[%d] MDS wait_s" i) wait
               @ summary_phases (Printf.sprintf "backend[%d] MDS hold_s" i) hold)
             (Array.to_list r.Systems.backend_stations)))
    ()

let print_profile (procs, points) =
  Report.print_header
    (Printf.sprintf "Profile — mdtest over DUFS 2xLustre/8zk, %d procs (span tracing on)"
       procs);
  Printf.printf "  %-12s %10s %8s %10s %10s %10s %10s %10s\n" "phase" "ops/sec" "samples"
    "mean_s" "p50_s" "p95_s" "p99_s" "max_s";
  List.iter
    (fun phase ->
      match mdtest_point points phase with
      | Some { Report.ops_per_sec; latency = Some l; _ } ->
        Printf.printf "  %-12s %10.0f %8d %10.3g %10.3g %10.3g %10.3g %10.3g\n"
          (Runner.phase_to_string phase) ops_per_sec l.Report.samples l.Report.mean_s
          l.Report.p50_s l.Report.p95_s l.Report.p99_s l.Report.max_s
      | Some _ | None -> ())
    Runner.all_phases;
  Printf.printf "\n  quorum write phases (mean seconds per op):\n";
  Printf.printf "  %-8s %8s %10s" "op" "count" "total_s";
  List.iter (fun p -> Printf.printf " %10s" p) Obs.Trace.phases;
  Printf.printf " %10s %9s\n" "phase_sum" "coverage";
  List.iter
    (fun op ->
      match breakdown points op with
      | None -> ()
      | Some (count, total, phases) ->
        let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0. phases in
        Printf.printf "  %-8s %8d %10.3g" op count total;
        List.iter (fun (_, m) -> Printf.printf " %10.3g" m) phases;
        Printf.printf " %10.3g %8.2f%%\n" sum (100. *. sum /. total))
    zk_write_ops;
  print_newline ();
  let p = the_point "profile-accounting" points in
  let a = Report.phase p in
  if a "zk.read.samples" > 0. then
    Printf.printf "  zk reads: count=%.0f  mean=%.3g  p99=%.3g\n" (a "zk.read.samples")
      (a "zk.read.mean_s") (a "zk.read.p99_s");
  List.iter
    (fun (name, count) ->
      match Filename.chop_suffix_opt ~suffix:".count" name with
      | None -> ()
      | Some label when count = 0. -> Printf.printf "  %-28s (no samples)\n" label
      | Some label ->
        Printf.printf "  %-28s count=%-7.0f mean=%.3g  max=%.3g\n" label count
          (a (label ^ ".mean")) (a (label ^ ".max")))
    p.Report.phases

let profile ?(procs_list = [ 64; 128; 256 ]) () =
  let runs =
    List.map
      (fun procs ->
        let r = Systems.dufs_mdtest ~trace:true ~spec:profile_spec ~shards:1 ~procs () in
        ( procs,
          run_points ~ops:zk_write_ops ~procs ~config:profile_config r
          @ [ profile_accounting ~procs r ] ))
      procs_list
  in
  List.iter print_profile runs;
  (List.concat_map snd runs, profile_check runs)

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

(* Per-shard balance at the file-stat census; queue waits are [None]
   on an untraced run. *)
let shard_stats (r : Systems.dufs_run) =
  let writes = Zk.Shard_router.writes_committed_by_shard r.Systems.router
  and hits = Zk.Shard_router.dedup_hits_by_shard r.Systems.router
  and metrics = Obs.Trace.metrics r.Systems.trace in
  Array.to_list
    (Array.mapi
       (fun i znodes ->
         { Report.shard = i;
           znodes;
           writes_committed = writes.(i);
           dedup_hits = hits.(i);
           queue_wait_mean_s =
             Option.bind
               (Obs.Metrics.summary_opt metrics (Printf.sprintf "zk.shard%d.queue_wait" i))
               (fun s ->
                 if Simkit.Stat.Summary.count s > 0 then Some (Simkit.Stat.Summary.mean s)
                 else None) })
       r.Systems.per_shard_znodes)

let sharding_phases =
  [ Runner.Dir_create; Runner.File_create; Runner.Dir_stat; Runner.File_stat ]

(* Per-shard accounting must balance exactly on every run (a surplus is
   a doubled apply or leaked stub, a deficit a lost write), and every
   shard must actually have served writes. *)
let sharding_check data =
  List.concat_map
    (fun ((shards, servers, max_batch, procs), points) ->
      let ctx =
        Printf.sprintf "%s procs=%d"
          (sharding_config_label ~shards ~servers ~max_batch)
          procs
      in
      let p = the_point "sharding-znode-accounting" points in
      let a = Report.phase p in
      let writes = List.map (fun s -> s.Report.writes_committed) p.Report.shards in
      Report.expect
        (a "logical" = a "expected_logical")
        "%s: logical znodes %.0f, expected %.0f" ctx (a "logical") (a "expected_logical")
      @ Report.expect
          (List.for_all (fun w -> w > 0) writes)
          "%s: a shard committed no writes (%s)" ctx
          (String.concat " " (List.map string_of_int writes)))
    data

(* [procs_list] x [topologies] (shards, servers per shard) x [batches],
   defaults 64/128/256 x 1x8/2x4/4x2 x batch 1/16. *)
let sharding ?(procs_list = bar_procs) ?(topologies = sharding_topologies)
    ?(batches = sharding_batches) () =
  let data =
    List.concat_map
      (fun (shards, servers) ->
        List.concat_map
          (fun max_batch ->
            List.map
              (fun procs ->
                let config = sharding_config_label ~shards ~servers ~max_batch in
                let r =
                  Systems.dufs_mdtest ~trace:true
                    ~config_adjust:(fun c -> { c with Zk.Ensemble.max_batch })
                    ~spec:(sharding_spec ~servers) ~shards ~procs ()
                in
                ( (shards, servers, max_batch, procs),
                  run_points ~ops:[ "create" ] ~procs ~config r
                  @ [ Report.point ~experiment:"sharding-znode-accounting" ~procs
                        ~config:
                          (Printf.sprintf "%s|expected_logical=%d|live_stubs=%d" config
                             r.Systems.expected_logical_znodes r.Systems.live_stubs_at_stat)
                        ~ops_per_sec:0.0
                        ~phases:(census_phases r) ~shards:(shard_stats r) () ] ))
              procs_list)
          batches)
      topologies
  in
  let label_of (shards, servers, max_batch, _) =
    sharding_config_label ~shards ~servers ~max_batch
  in
  (* throughput, one figure per op of interest *)
  List.iter
    (fun phase ->
      let name = Runner.phase_to_string phase in
      Report.print_figure
        ~title:
          (Printf.sprintf "Sharding — mdtest %s, %d coordination servers total" name
             (match topologies with (s, v) :: _ -> s * v | [] -> 0))
        ("mdtest-" ^ name) (List.concat_map snd data))
    sharding_phases;
  (* the backlog itself: mean queue-wait per coordination write, overall
     and per shard, plus the znode balance and accounting *)
  Report.print_header
    "Sharding — leader queue-wait per create (mean seconds) and per-shard balance";
  Printf.printf "  %-44s %6s %12s %14s  %s\n" "config" "procs" "create_qw_s"
    "znodes@stat" "per-shard [znodes qw_s]";
  List.iter
    (fun (key, points) ->
      let _, _, _, procs = key in
      let qw =
        match breakdown points "create" with
        | Some (_, _, phases) -> List.assoc "queue-wait" phases
        | None -> Float.nan
      in
      let p = the_point "sharding-znode-accounting" points in
      Printf.printf "  %-44s %6d %12.3g %7.0f/%-6.0f " (label_of key) procs qw
        (Report.phase p "logical") (Report.phase p "expected_logical");
      List.iter
        (fun s ->
          Printf.printf " [%d: %d %.3g]" s.Report.shard s.Report.znodes
            (Option.value ~default:Float.nan s.Report.queue_wait_mean_s))
        p.Report.shards;
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
         let b = mdtest_rate base phase and s = mdtest_rate best phase in
         Report.print_ratio
           ~label:(Printf.sprintf "%s: %d shards / 1 ensemble"
                     (Runner.phase_to_string phase) max_shards)
           (if b > 0. then s /. b else 0.))
       sharding_phases
   | _ -> ());
  flush stdout;
  (List.concat_map snd data, sharding_check data)

(* {2 Seed sweeps}

   The fault experiments share one loop: each seeded point is a
   {!Systems.dufs_mdtest} run with a register overlay, reduced to its
   bench point as soon as it finishes. The loop prints the run's row
   from that point, then its linearizability and durability violations,
   and runs the first point again — the same seed must reproduce a
   bit-identical history. Rows, totals, summaries and gates read the
   points; no run outlives its reduction. *)

let register_audit (r : Systems.dufs_run) =
  match r.Systems.registers with
  | Some a -> a
  | None -> invalid_arg "a fault-sweep run without its register overlay"

let seed_sweep ~run ~point ~print keys =
  let reduce k =
    let r = run k in
    let p = point k r in
    print k p;
    List.iter
      (fun (v : Zk.History.violation) ->
        Printf.printf "    VIOLATION [%s] %s: %s\n" v.Zk.History.v_kind
          v.Zk.History.v_path v.Zk.History.v_detail)
      (r.Systems.violations @ (register_audit r).Systems.durability_violations);
    (r.Systems.history_digest, (k, p))
  in
  let digest, p = reduce (List.hd keys) in
  let rest = List.map (fun k -> snd (reduce k)) (List.tl keys) in
  (p :: rest, (run (List.hd keys)).Systems.history_digest = digest)

let digest_verdict deterministic =
  if deterministic then "identical" else "DIFFERS (nondeterminism!)"

(* A counter of every shard of [router], folded with [op]. *)
let over_shards router f op init =
  Array.fold_left (fun acc e -> op acc (f e)) init (Zk.Shard_router.ensembles router)

let shard_sum router f = over_shards router f ( + ) 0

(* One phase folded over a sweep's points. *)
let fold_phase op init name points =
  List.fold_left (fun acc (_, p) -> op acc (Report.phase p name)) init points

let phase_total name points = fold_phase ( +. ) 0. name points

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

let chaos_reduce ~shape (shards, seed) (r : Systems.dufs_run) =
  let a = register_audit r in
  let sum f = float_of_int (shard_sum r.Systems.router f) in
  Report.point ~experiment:"chaos" ~procs:shape.clients
    ~config:(Printf.sprintf "seed=%Ld|shards=%d|zk=%d" seed shards shape.servers)
    ~ops_per_sec:(float_of_int a.Systems.ops_ok /. (shape.heal_at +. shape.post_heal))
    ~phases:
      [ ("violations", float_of_int (List.length r.Systems.violations));
        ( "durability_violations",
          float_of_int (List.length a.Systems.durability_violations) );
        ("ops_checked", float_of_int r.Systems.history_checked);
        ("ops_recorded", float_of_int r.Systems.history_recorded);
        ("undetermined", float_of_int r.Systems.history_undetermined);
        ("recovery_s", Report.or_missing a.Systems.recovery_s);
        ("sessions_expired", sum Zk.Ensemble.sessions_expired);
        ("dedup_hits", sum Zk.Ensemble.dedup_hits);
        ("dedup_evictions", sum Zk.Ensemble.dedup_evictions);
        ("writes_failed_fast", sum Zk.Ensemble.writes_failed_fast);
        ("stale_reads_served", sum Zk.Ensemble.stale_reads_served) ]
    ()

let chaos_columns : Report.column list =
  [ ("recorded", "ops_recorded", "%9.0f");
    ("checked", "ops_checked", "%8.0f");
    ("undet", "undetermined", "%7.0f");
    ("expired", "sessions_expired", "%7.0f");
    ("dedup_hits", "dedup_hits", "%11.0f");
    ("evictions", "dedup_evictions", "%11.0f");
    ("recovery", "recovery_s", "%8.2fs");
    ("violations", "violations", "%10.0f") ]

(* One chaos schedule's verdict: a clean, non-empty history, no acked
   write lost and a recovery after heal. Shared by [chaos] and
   [pipeline]'s sweep. *)
let chaos_run_check ((shards, seed), p) =
  let ctx = Printf.sprintf "shards=%d seed=%Ld" shards seed and phase = Report.phase p in
  List.concat
    [ Report.expect (phase "violations" = 0.)
        "%s: %.0f linearizability violations" ctx (phase "violations");
      Report.expect (phase "durability_violations" = 0.)
        "%s: %.0f acked writes lost or unacked writes resurrected" ctx
        (phase "durability_violations");
      Report.expect (phase "ops_checked" > 0.)
        "%s: empty history, the checker saw nothing" ctx;
      Report.expect (phase "recovery_s" <> -1.) "%s: never recovered after heal" ctx ]

let chaos_check ~deterministic points =
  List.concat_map chaos_run_check points
  @ Report.expect deterministic
      "identical seed produced a different history"

let chaos_summary ~shape ~deterministic points =
  let checked = phase_total "ops_checked" points in
  let recoveries =
    List.map (fun (_, p) -> Report.phase p "recovery_s") points
    |> List.filter (( <> ) (-1.)) |> Array.of_list
  in
  let pct q = Report.or_missing (Simkit.Stat.percentile recoveries q) in
  Report.point ~experiment:"chaos-summary" ~procs:shape.clients
    ~config:(Printf.sprintf "runs=%d|zk=%d" (List.length points) shape.servers)
    ~ops_per_sec:(checked /. (shape.heal_at +. shape.post_heal))
    ~phases:
      [ ("violations_total", phase_total "violations" points);
        ("ops_checked_total", checked);
        ("recovery_p50_s", pct 0.50);
        ("recovery_p95_s", pct 0.95);
        ("recovery_max_s", pct 1.0);
        ("runs_recovered", float_of_int (Array.length recoveries));
        ("runs", float_of_int (List.length points));
        ("deterministic", flag deterministic) ]
    ()

let chaos ?(runs = chaos_runs_default) ?(shape = chaos_shape) () =
  Report.print_header
    (Printf.sprintf
       "Chaos — %d seeded random fault schedules (partitions, loss, delay, \
        duplication, crashes) over %d-server-per-shard ensembles, %d clients; \
        Wing-Gong linearizability check over every recorded history"
       (List.length runs) shape.servers shape.clients);
  Printf.printf "%6s %7s%s\n" "shards" "seed" (Report.column_header chaos_columns);
  let points, deterministic =
    seed_sweep
      ~run:(fun (shards, seed) -> chaos_point ~shape ~shards ~seed ())
      ~point:(chaos_reduce ~shape)
      ~print:(fun (shards, seed) p ->
        Printf.printf "%6d %7Ld%s\n%!" shards seed (Report.column_cells chaos_columns p))
      runs
  in
  let summary = chaos_summary ~shape ~deterministic points in
  let s name = Report.missing_as_nan (Report.phase summary name) in
  Printf.printf
    "\ntotal: %.0f ops checked, %.0f violations; recovery p50=%.2fs p95=%.2fs \
     max=%.2fs (%.0f/%.0f runs recovered); seed %Ld re-run digest %s\n%!"
    (s "ops_checked_total") (s "violations_total") (s "recovery_p50_s")
    (s "recovery_p95_s") (s "recovery_max_s") (s "runs_recovered") (s "runs")
    (snd (List.hd runs)) (digest_verdict deterministic);
  (List.map snd points @ [ summary ], chaos_check ~deterministic points)

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

(* A reshard run's points: its [mdtest-*] points and its
   [reshard-accounting] point, whose config string spells out every
   phase but [controller_finished]. *)
let reshard_points ~shards ~to_shards ~max_batch ~procs (r : Systems.dufs_run) =
  let config = reshard_config_label ~shards ~to_shards ~max_batch in
  let stat f = float_of_int (Option.fold ~none:0 ~some:f r.Systems.reshard) in
  let n = float_of_int in
  let phases =
    census_phases r
    @ [ ("live_stubs", n r.Systems.live_stubs_at_stat);
        ("keys_total", stat (fun st -> st.Zk.Reshard.keys_total));
        ("keys_migrated", stat (fun st -> st.Zk.Reshard.keys_migrated));
        ("violations", n (List.length r.Systems.violations));
        ("history_checked", n r.Systems.history_checked);
        ("history_recorded", n r.Systems.history_recorded);
        ("window_s", r.Systems.reshard_window);
        ("controller_errors", stat (fun st -> st.Zk.Reshard.errors));
        ("client_errors", n r.Systems.results.Runner.errors) ]
  in
  mdtest_points ~procs ~config r.Systems.results
  @ [ Report.point ~experiment:"reshard-accounting" ~procs
        ~config:
          (String.concat "|"
             (config
              :: List.map
                   (fun (k, v) ->
                     Printf.sprintf (if k = "window_s" then "%s=%.4f" else "%s=%.0f") k v)
                   phases))
        ~ops_per_sec:0.0
        ~phases:(phases @ [ ("controller_finished", flag (r.Systems.reshard <> None)) ])
        ~shards:(shard_stats r) () ]

let reshard_p99 points =
  Option.bind (mdtest_point points Runner.File_create) (fun p ->
      Option.map (fun l -> l.Report.p99_s) p.Report.latency)

(* Migration pressure may raise a split's file-create p99, but by no
   more than this factor over the no-split baseline at the same scale. *)
let reshard_max_p99_ratio = 12.

(* A split or merge must finish without controller errors inside a
   non-empty migration window, move a bounded-load remainder (some keys,
   never a near-full rehash), and keep file-create p99 within
   [reshard_max_p99_ratio] of the no-split [base]line at the same scale. *)
let reshard_move_check ~ctx ~base points =
  let a = Report.phase (the_point "reshard-accounting" points) in
  if a "controller_finished" = 0. then [ ctx ^ ": controller never finished" ]
  else
    let total = a "keys_total" and migrated = a "keys_migrated" in
    List.concat
      [ Report.expect (a "controller_errors" = 0.) "%s: %.0f controller errors" ctx
          (a "controller_errors");
        Report.expect
          (migrated > 0. && migrated < total)
          "%s: migrated %.0f of %.0f keys, not a bounded-load remainder" ctx
          migrated total;
        Report.expect
          (migrated <= 0.9 *. total)
          "%s: migrated %.0f of %.0f keys, a near-full rehash" ctx migrated total;
        Report.expect (a "window_s" > 0.)
          "%s: empty migration window" ctx;
        (match (base, reshard_p99 points) with
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
    (fun ((shards, to_shards, procs), points) ->
      let ctx =
        Printf.sprintf "reshard %d->%d shards @%d procs" shards to_shards procs
      in
      let base =
        List.find_map
          (fun ((s, t, p), b) ->
            if s = t && p = procs then reshard_p99 b else None)
          runs
      in
      let a = Report.phase (the_point "reshard-accounting" points) in
      List.concat
        [ Report.expect (a "client_errors" = 0.)
            "%s: %.0f client op errors" ctx (a "client_errors");
          Report.expect
            (a "logical" = a "expected_logical")
            "%s: census %.0f <> expected %.0f" ctx (a "logical") (a "expected_logical");
          Report.expect (a "violations" = 0.)
            "%s: %.0f linearizability violations" ctx (a "violations");
          Report.expect (a "history_checked" > 0.)
            "%s: oracle checked 0 ops" ctx;
          (if to_shards = shards then [] else reshard_move_check ~ctx ~base points) ])
    runs

let reshard ?(procs_list = [ 64; 256 ]) ?(max_batch = 16) () =
  Report.print_header
    "Elastic resharding: live shard split/merge during mdtest file creates";
  let spec = sharding_spec ~servers:reshard_servers in
  let runs =
    List.concat_map
      (fun procs ->
        let go ~shards ~to_shards =
          ( (shards, to_shards, procs),
            reshard_points ~shards ~to_shards ~max_batch ~procs
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
    (fun ((shards, to_shards, procs), points) ->
      let a = Report.phase (the_point "reshard-accounting" points) in
      let p99_ms = Option.fold ~none:0. ~some:(fun p -> p *. 1e3) (reshard_p99 points) in
      Printf.printf "%-14s %5d %12.0f %12.2f %8.2fs %13s %7.0f %5.0f\n"
        (Printf.sprintf "%d->%d shards" shards to_shards)
        procs
        (mdtest_rate points Runner.File_create)
        p99_ms (a "window_s")
        (if a "controller_finished" = 1. then
           Printf.sprintf "%.0f/%.0f" (a "keys_migrated") (a "keys_total")
         else "-")
        (a "live_stubs") (a "violations"))
    runs;
  flush stdout;
  (List.concat_map snd runs, reshard_check runs)

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
    Option.bind (List.assoc_opt (name, procs) runs) (fun points ->
        Option.map (fun (_, _, phases) -> qw_ack phases) (breakdown points "create"))
  in
  match (qa "batch16-w1", qa "batch16-w8") with
  | Some base, Some piped when base > 0. ->
    Some (base, piped, 100. *. (base -. piped) /. base)
  | _ -> None

let pipeline_check ~min_improvement ~deterministic runs chaos_points =
  let max_procs = List.fold_left (fun acc ((_, p), _) -> max acc p) 0 runs in
  List.concat_map
    (fun ((name, procs), points) ->
      let ctx = Printf.sprintf "%s @%d procs" name procs in
      breakdown_failures ~ctx points
      @ Report.expect (breakdown points "create" <> None) "%s: no traced creates" ctx)
    runs
  @ (match pipeline_improvement runs ~procs:max_procs with
     | Some (_, _, impr) ->
       Report.expect (impr >= min_improvement)
         "queue-wait+ack improved only %.1f%% (< %.0f%%)" impr min_improvement
     | None ->
       [ Printf.sprintf "missing the %d-proc batch16 runs for the improvement gate"
           max_procs ])
  @ chaos_check ~deterministic chaos_points

let pipeline ?(procs_list = [ 64; 128; 256 ])
    ?(chaos_runs = chaos_runs_default) ?(min_improvement = 30.) () =
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
              run_points ~ops:zk_write_ops ~procs ~config:(pipeline_config_label name)
                (Systems.dufs_mdtest ~trace:true ~config_adjust ~spec:profile_spec
                   ~shards:1 ~procs ()) ))
          pipeline_variants)
      procs_list
  in
  Printf.printf "%-12s %5s %10s %9s" "config" "procs" "create/s" "total_s";
  List.iter (fun p -> Printf.printf " %9s" p) Obs.Trace.phases;
  Printf.printf " %9s %9s\n" "qw+ack" "coverage";
  List.iter
    (fun ((name, procs), points) ->
      match breakdown points "create" with
      | None -> ()
      | Some (_count, total, phases) ->
        let sum = List.fold_left (fun acc (_, m) -> acc +. m) 0. phases in
        Printf.printf "%-12s %5d %10.0f %9.3g" name procs
          (mdtest_rate points Runner.File_create)
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
  let chaos_points, deterministic =
    seed_sweep
      ~run:(fun (shards, seed) ->
        chaos_point ~config_adjust:chaos_adjust ~shards ~seed ())
      ~point:(chaos_reduce ~shape:chaos_shape)
      ~print:(fun (shards, seed) p ->
        let phase = Report.phase p in
        Printf.printf
          "    shards=%d seed=%-4Ld checked=%-6.0f violations=%.0f \
           recovery=%.2fs\n%!"
          shards seed (phase "ops_checked") (phase "violations")
          (Report.missing_as_nan (phase "recovery_s")))
      chaos_runs
  in
  let total_violations = phase_total "violations" chaos_points in
  Printf.printf
    "  chaos total: %d schedules, %.0f violations; seed %Ld re-run digest %s\n%!"
    (List.length chaos_points)
    total_violations
    (snd (List.hd chaos_runs))
    (digest_verdict deterministic);
  (* A [pipeline-chaos] point is the schedule's [chaos] point under
     its own name, with the five phases its BENCH file has always
     carried. *)
  let pipeline_chaos_point (_, (p : Report.bench_point)) =
    let keep = [ "violations"; "ops_checked"; "undetermined"; "recovery_s"; "dedup_hits" ] in
    { p with
      Report.experiment = "pipeline-chaos";
      config = Printf.sprintf "%s|window=%d" p.Report.config pipeline_chaos_window;
      phases = List.filter (fun (name, _) -> List.mem name keep) p.Report.phases }
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
          ("chaos_runs", float_of_int (List.length chaos_points));
          ("violations_total", total_violations);
          ("deterministic", flag deterministic) ]
      ()
  in
  ( List.concat_map snd runs @ List.map pipeline_chaos_point chaos_points @ [ summary ],
    pipeline_check ~min_improvement ~deterministic runs chaos_points )

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

(* WAL records truncated by the torn/bit-rot schedules of a sweep. *)
let torn_truncated points =
  List.fold_left
    (fun acc ((_, flavor), p) ->
      if is_torn flavor then acc +. Report.phase p "wal.truncated_records" else acc)
    0. points

(* Every schedule recovers with agreeing replicas, a non-empty audit and
   zero oracle violations; across the sweep the torn/bit-rot schedules
   truncate something (the storage faults have teeth), recovery is
   mostly local (WAL-replayed transactions outnumber leader
   diff-syncs), and the first schedule replays bit-identically. *)
let durability_check ~deterministic points =
  let replayed = phase_total "wal.replayed" points
  and diff_synced = phase_total "transfer.diff_txns" points in
  List.concat_map
    (fun ((seed, flavor), p) ->
      let ctx = Printf.sprintf "seed=%Ld %s" seed flavor and phase = Report.phase p in
      List.concat
        [ Report.expect
            (phase "power_failure_recovered" = 1.)
            "%s: whole-cluster power failure never recovered" ctx;
          Report.expect (phase "replicas_agree" = 1.) "%s: recovered replicas disagree" ctx;
          Report.expect (phase "violations" = 0.)
            "%s: %.0f linearizability violations" ctx (phase "violations");
          Report.expect (phase "durability_violations" = 0.)
            "%s: %.0f acked writes lost or unacked writes resurrected" ctx
            (phase "durability_violations");
          Report.expect (phase "registers_audited" > 0.)
            "%s: the durability oracle audited 0 registers" ctx ])
    points
  @ Report.expect (torn_truncated points > 0.)
      "torn/bit-rot schedules truncated nothing (no teeth)"
  @ Report.expect (diff_synced < replayed)
      "recovery not mostly local (diff-sync %.0f >= WAL replay %.0f)" diff_synced replayed
  @ Report.expect deterministic "identical seed produced a different history"

let durability_reduce ~procs (seed, flavor) (r : Systems.dufs_run) =
  let a = register_audit r in
  let sum f = float_of_int (shard_sum r.Systems.router f) in
  Report.point ~experiment:"durability" ~procs
    ~config:(Printf.sprintf "seed=%Ld|flavor=%s|zk=%d" seed flavor durability_servers)
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
          over_shards r.Systems.router Zk.Ensemble.recovery_time_total ( +. ) 0. );
        ( "recovery.time_max_s",
          over_shards r.Systems.router Zk.Ensemble.recovery_time_max Float.max 0. );
        ("transfer.diff_txns", sum Zk.Ensemble.transfer_diff_txns);
        ("transfer.snaps", sum Zk.Ensemble.transfer_snaps) ]
    ()

let durability_columns : Report.column list =
  [ ("recorded", "ops_recorded", "%9.0f");
    ("audited", "registers_audited", "%7.0f");
    ("undet", "undetermined", "%6.0f");
    ("mderr", "mdtest_errors", "%7.0f");
    ("replayed", "wal.replayed", "%8.0f");
    ("truncated", "wal.truncated_records", "%9.0f");
    ("snaps", "snap.loads", "%6.0f");
    ("falls", "snap.corrupt_fallbacks", "%6.0f");
    ("diff", "transfer.diff_txns", "%6.0f");
    ("rectime", "recovery.time_max_s", "%6.3fs");
    ("lin", "violations", "%5.0f");
    ("dur", "durability_violations", "%5.0f") ]

let durability_summary ~procs ~reg_clients ~deterministic points =
  let total name = phase_total name points in
  let recoveries = total "recovery.count" in
  Report.point ~experiment:"durability-summary" ~procs
    ~config:(Printf.sprintf "runs=%d|zk=%d|reg_clients=%d" (List.length points)
               durability_servers reg_clients)
    ~ops_per_sec:0.
    ~phases:
      [ ("runs", float_of_int (List.length points));
        ("violations_total", total "violations");
        ("durability_violations_total", total "durability_violations");
        ("power_failures_recovered", total "power_failure_recovered");
        ("replicas_agree_runs", total "replicas_agree");
        ("wal.replayed_total", total "wal.replayed");
        ("wal.truncated_torn_total", torn_truncated points);
        ("transfer.diff_txns_total", total "transfer.diff_txns");
        ("recovery.count_total", recoveries);
        ( "recovery.per_restart_mean_s",
          if recoveries = 0. then 0. else total "recovery.time_total_s" /. recoveries );
        ("recovery.max_s", fold_phase Float.max 0. "recovery.time_max_s" points);
        ("deterministic", flag deterministic) ]
    ()

let durability ?(seeds = List.map Int64.of_int [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
    ?(procs = 64) ?(reg_clients = 8) ?(ops_per_client = 50)
    ?(dirs_per_proc = 12) ?(files_per_proc = 12) () =
  Report.print_header
    (Printf.sprintf
       "Durability — %d whole-cluster power-failure schedules (plus torn \
        tails, WAL bit-rot, snapshot corruption, fail-slow disks) under \
        %d-proc mdtest over %d-server ensembles; checksummed-WAL recovery \
        + durability oracle"
       (List.length seeds) procs durability_servers);
  Printf.printf "%5s %14s%s\n" "seed" "flavor" (Report.column_header durability_columns);
  let registers = durability_registers ~clients:reg_clients ~ops_per_client in
  let run (seed, flavor) =
    let plan = durability_plan ~servers:durability_servers ~seed ~flavor in
    Systems.dufs_mdtest ~dirs_per_proc ~files_per_proc ~plan
      ~config_adjust:(durability_config ~seed) ~registers ~spec:durability_spec
      ~shards:1 ~procs ()
  in
  let print (seed, flavor) p =
    Printf.printf "%5Ld %14s%s%s%s\n%!" seed flavor
      (Report.column_cells durability_columns p)
      (if Report.phase p "power_failure_recovered" = 1. then "" else "  NOT-RECOVERED")
      (if Report.phase p "replicas_agree" = 1. then "" else "  REPLICAS-DISAGREE")
  in
  let points, deterministic =
    seed_sweep ~run ~point:(durability_reduce ~procs) ~print
      (List.mapi
         (fun i seed -> (seed, durability_flavors.(i mod Array.length durability_flavors)))
         seeds)
  in
  let summary = durability_summary ~procs ~reg_clients ~deterministic points in
  let s = Report.phase summary in
  Printf.printf
    "\ntotal: %.0f runs (%.0f recovered, %.0f replicas-agree), %.0f lin + %.0f \
     durability violations; %.0f recoveries, per-restart recovery mean=%.3fs \
     max=%.3fs; wal replayed %.0f vs leader diff-sync %.0f txns (+%.0f SNAP); \
     truncated %.0f under torn/bit-rot; seed %Ld re-run digest %s\n%!"
    (s "runs") (s "power_failures_recovered") (s "replicas_agree_runs")
    (s "violations_total") (s "durability_violations_total") (s "recovery.count_total")
    (s "recovery.per_restart_mean_s") (s "recovery.max_s") (s "wal.replayed_total")
    (s "transfer.diff_txns_total") (phase_total "transfer.snaps" points)
    (s "wal.truncated_torn_total") (List.hd seeds) (digest_verdict deterministic);
  (List.map snd points @ [ summary ], durability_check ~deterministic points)
