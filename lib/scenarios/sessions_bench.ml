(* The sessions experiment: how far client-cache coherence scales.

   N sessions (1k / 10k / 100k simulated client processes, each with its
   own metadata cache) sweep a fixed 512-directory x 16-file namespace
   with the two read-heavy mdtest shapes — per-file stat and readdir
   storm — twice each: a cold pass that fills every cache from the
   ensemble (server-bound; observers add read capacity) and a warm pass
   served from the caches (client-local). A writer mutates a slice of
   the namespace between the passes so the coherence protocol's
   invalidation path runs under load, and the first few sessions are
   recorded through the linearizability checker.

   The server-state argument the sweep exists to make: with lease
   coherence the lease tables stay O(sessions x working directories) —
   here one directory per session — while the watch tables stay empty,
   where per-znode watches would grow O(sessions x cached znodes). *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Mailbox = Simkit.Mailbox
module Ensemble = Zk.Ensemble
module Zk_client = Zk.Zk_client
module Report = Mdtest.Report

(* Fixed namespace: 1 root + dirs + dirs*files znodes, identical across
   every case so the accounting gate can pin the exact count. *)
let n_dirs = 512
let n_files = 16
let expected_znodes = 1 + n_dirs + (n_dirs * n_files)

(* Client-side CPU per cache-served op: without it a warm pass takes
   zero virtual time and "ops/sec" is a division by zero. 1 us is the
   scale of a hash lookup plus a VFS dispatch on the client. *)
let client_op_cost = 1e-6

(* Virtual seconds of lease validity. Long enough that entries filled in
   the cold pass are still leased in the warm pass of the largest sweep
   (whose cold pass costs tens of virtual seconds of server CPU);
   expiry behaviour itself is pinned by unit tests, not the bench. *)
let bench_lease_ttl = 120.

type phase_times = {
  mutable cold_s : float;
  mutable warm_s : float;
}

type case_result = {
  sessions : int;
  observers : int;
  stat : phase_times;
  readdir : phase_times;
  stat_reads : int;        (* server reads a cold stat pass issues *)
  readdir_reads : int;
  hits : int;
  misses : int;
  invalidations : int;
  watch_table_total : int; (* armed watches across all members, post-run *)
  lease_entries_total : int;
  leases_granted : int;
  leases_renewed : int;
  leases_revoked : int;
  observer_reads : int;    (* reads served by non-voting members *)
  voter_reads : int;
  znodes : int;
  history_checked : int;
  violations : int;
}

let dir_path d = Printf.sprintf "/d%03d" d
let file_path d f = Printf.sprintf "/d%03d/f%02d" d f

let zk_ok label = function
  | Ok v -> v
  | Error e ->
    failwith (Printf.sprintf "Sessions_bench %s: %s" label (Zk.Zerror.to_string e))

let run_case ~sessions ~observers ~seed () =
  let engine = Engine.create () in
  let cfg =
    { (Ensemble.default_config ~servers:3) with
      Ensemble.observers;
      seed;
      max_batch = 16;
      lease_ttl = bench_lease_ttl }
  in
  let ensemble = Ensemble.start engine cfg in
  let history = Zk.History.create engine in
  let recorded_sessions = min 32 sessions in
  let caches = Array.make sessions None in
  let gates = Array.init sessions (fun _ -> Mailbox.create ()) in
  let finished = Mailbox.create () in
  let stat = { cold_s = 0.; warm_s = 0. } in
  let readdir = { cold_s = 0.; warm_s = 0. } in
  let observer_reads = ref 0 and voter_reads = ref 0 in
  let znodes = ref 0 in
  (* Each session: wait at the gate, run the released pass over its
     working directory, report back. Pass 0/1 = stat cold/warm, pass
     2/3 = readdir cold/warm. *)
  for i = 0 to sessions - 1 do
    Process.spawn engine (fun () ->
        let raw = Ensemble.session ensemble () in
        let cache =
          Dufs.Cache.wrap ~capacity:64 ~now:(fun () -> Engine.now engine) raw
        in
        caches.(i) <- Some cache;
        let h =
          if i < recorded_sessions then
            Zk.History.wrap history ~client:(i + 1) (Dufs.Cache.handle cache)
          else Dufs.Cache.handle cache
        in
        let d = i mod n_dirs in
        let stat_pass () =
          for f = 0 to n_files - 1 do
            Process.sleep client_op_cost;
            ignore (zk_ok "stat" (h.Zk_client.get (file_path d f)))
          done
        in
        let readdir_pass () =
          Process.sleep client_op_cost;
          let listing = zk_ok "readdir" (h.Zk_client.children_with_data (dir_path d)) in
          if List.length listing <> n_files then
            failwith
              (Printf.sprintf "Sessions_bench: %s listed %d entries, expected %d"
                 (dir_path d) (List.length listing) n_files)
        in
        List.iter
          (fun pass ->
            Mailbox.recv gates.(i);
            pass ();
            Mailbox.send finished ())
          [ stat_pass; stat_pass; readdir_pass; readdir_pass ])
  done;
  (* The coordinator owns setup, the phase barriers, and the mid-sweep
     writer bursts. *)
  Process.spawn engine (fun () ->
      let writer =
        Zk.History.wrap history ~client:0 (Ensemble.session ensemble ~server:0 ())
      in
      (* plain creates, not one multi per dir: the checker models every
         register as initially absent, so creations must be recorded *)
      for d = 0 to n_dirs - 1 do
        ignore (zk_ok "setup" (writer.Zk_client.create (dir_path d) ~data:""));
        for f = 0 to n_files - 1 do
          ignore (zk_ok "setup" (writer.Zk_client.create (file_path d f) ~data:"v0"))
        done
      done;
      let release_and_wait () =
        let t0 = Engine.now engine in
        Array.iter (fun gate -> Mailbox.send gate ()) gates;
        for _ = 1 to sessions do
          ignore (Mailbox.recv finished)
        done;
        Engine.now engine -. t0
      in
      let writer_burst ~file data =
        (* every 8th directory mutated: the coherence protocol must
           push the change into thousands of warm caches *)
        let d = ref 0 in
        while !d < n_dirs do
          ignore (zk_ok "burst" (writer.Zk_client.set (file_path !d file) ~data));
          d := !d + 8
        done
      in
      stat.cold_s <- release_and_wait ();
      writer_burst ~file:1 "v1";
      stat.warm_s <- release_and_wait ();
      readdir.cold_s <- release_and_wait ();
      writer_burst ~file:0 "v2";
      readdir.warm_s <- release_and_wait ();
      List.iter
        (fun id ->
          let served = Ensemble.reads_served ensemble id in
          if id < cfg.Ensemble.servers then voter_reads := !voter_reads + served
          else observer_reads := !observer_reads + served)
        (Ensemble.member_ids ensemble);
      (match Ensemble.leader_id ensemble with
       | Some leader -> znodes := Zk.Ztree.node_count (Ensemble.tree_of ensemble leader)
       | None -> failwith "Sessions_bench: no leader at the end of a fault-free run"));
  Engine.run engine;
  let sum f =
    Array.fold_left
      (fun acc c -> match c with Some c -> acc + f c | None -> acc)
      0 caches
  in
  let violations = Zk.History.check history in
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "  VIOLATION [%s] %s: %s\n%!" v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    violations;
  { sessions;
    observers;
    stat;
    readdir;
    stat_reads = sessions * n_files;
    readdir_reads = sessions;
    hits = sum Dufs.Cache.hits;
    misses = sum Dufs.Cache.misses;
    invalidations = sum Dufs.Cache.invalidations;
    watch_table_total =
      List.fold_left
        (fun acc id -> acc + Ensemble.watch_table_size ensemble id)
        0
        (Ensemble.member_ids ensemble);
    lease_entries_total =
      List.fold_left
        (fun acc id -> acc + Ensemble.lease_entries ensemble id)
        0
        (Ensemble.member_ids ensemble);
    leases_granted = Ensemble.leases_granted ensemble;
    leases_renewed = Ensemble.leases_renewed ensemble;
    leases_revoked = Ensemble.leases_revoked ensemble;
    observer_reads = !observer_reads;
    voter_reads = !voter_reads;
    znodes = !znodes;
    history_checked = Zk.History.checked_ops history;
    violations = List.length violations }

let points_of (r : case_result) =
  let config =
    (* [coherence=leases] keeps the keys comparable with BENCH_pr7.json,
       whose points also hold a per-znode watch baseline *)
    Printf.sprintf "coherence=leases|sessions=%d|servers=3|observers=%d|dirs=%d|files=%d"
      r.sessions r.observers n_dirs n_files
  in
  let shared =
    [ ("hits", float_of_int r.hits);
      ("misses", float_of_int r.misses);
      ("invalidations", float_of_int r.invalidations);
      ("watch_table_total", float_of_int r.watch_table_total);
      ("lease_entries_total", float_of_int r.lease_entries_total);
      ("leases_granted", float_of_int r.leases_granted);
      ("leases_renewed", float_of_int r.leases_renewed);
      ("leases_revoked", float_of_int r.leases_revoked);
      ("observer_reads", float_of_int r.observer_reads);
      ("voter_reads", float_of_int r.voter_reads);
      ("znodes", float_of_int r.znodes);
      ("history_checked", float_of_int r.history_checked);
      ("violations", float_of_int r.violations) ]
  in
  let point ~workload ~reads (p : phase_times) =
    Report.point
      ~experiment:("sessions-" ^ workload)
      ~procs:r.sessions ~config
      ~ops_per_sec:(float_of_int reads /. p.cold_s)
      ~phases:
        ([ ("cold_s", p.cold_s);
           ("warm_s", p.warm_s);
           ("warm_ops_per_sec", float_of_int reads /. p.warm_s) ]
         @ shared)
      ()
  in
  [ point ~workload:"stat" ~reads:r.stat_reads r.stat;
    point ~workload:"readdir" ~reads:r.readdir_reads r.readdir ]

let print_case (r : case_result) =
  Printf.printf
    "  %8d %4d | stat %10.3fs cold %10.6fs warm | readdir %8.3fs cold \
     %8.6fs warm | watches %7d leases %7d | viol %d\n%!"
    r.sessions r.observers r.stat.cold_s r.stat.warm_s
    r.readdir.cold_s r.readdir.warm_s r.watch_table_total r.lease_entries_total
    r.violations

(* The gate: an exact znode census, a non-empty clean history, and the
   server-state claim itself — one lease per session (one working
   directory each) and no watches. *)
let check (r : case_result) =
  let ctx = Printf.sprintf "leases/%d sessions" r.sessions in
  List.concat
    [ Report.expect (r.znodes = expected_znodes) "%s: %d znodes, expected %d"
        ctx r.znodes expected_znodes;
      Report.expect (r.violations = 0) "%s: %d history violations" ctx
        r.violations;
      Report.expect (r.history_checked > 0)
        "%s: empty history, the checker saw nothing" ctx;
      Report.expect (r.watch_table_total = 0)
        "%s: lease mode armed %d watches" ctx r.watch_table_total;
      Report.expect (r.lease_entries_total = r.sessions)
        "%s: %d lease entries, expected one per session (%d)" ctx
        r.lease_entries_total r.sessions ]

let default_cases =
  (* scaling with session count (observers fixed) ... *)
  [ (1_000, 2);
    (10_000, 2);
    (100_000, 2);
    (* ... and read capacity scaling with observer count (sessions fixed) *)
    (10_000, 0);
    (10_000, 6) ]

let run ?(cases = default_cases) () =
  Report.print_header
    "Sessions: client-cache coherence at 1k-100k sessions (stat + readdir)";
  Printf.printf "  %8s %4s\n" "sessions" "obs";
  let results =
    List.map
      (fun (sessions, observers) ->
        let r = run_case ~sessions ~observers ~seed:0x5e55L () in
        print_case r;
        r)
      cases
  in
  (List.concat_map points_of results, List.concat_map check results)
