(* Tests for the parallel-filesystem simulators: correct POSIX results,
   sensible queueing/timing behaviour, DLM lock-revoke accounting, and the
   load-dependent performance shapes the evaluation relies on. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Lustre = Pfs.Lustre_sim
module Pvfs = Pfs.Pvfs_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Errno.to_string e)

let in_sim f =
  let engine = Engine.create () in
  let result = ref None in
  Process.spawn engine (fun () -> result := Some (f engine));
  Engine.run engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation did not finish"

(* {2 Lustre: semantics through the simulator} *)

let test_lustre_posix_results () =
  in_sim (fun engine ->
      let fs = Lustre.create engine () in
      let ops = Lustre.client fs ~client_id:0 in
      ok_or_fail "mkdir" (ops.Vfs.mkdir "/d" ~mode:0o755);
      ok_or_fail "create" (ops.Vfs.create "/d/f" ~mode:0o644);
      ignore (ok_or_fail "write" (ops.Vfs.write "/d/f" ~off:0 "abc"));
      Alcotest.(check string)
        "read through simulator" "abc"
        (ok_or_fail "read" (ops.Vfs.read "/d/f" ~off:0 ~len:3));
      (match ops.Vfs.mkdir "/d" ~mode:0o755 with
      | Error Errno.EEXIST -> ()
      | _ -> Alcotest.fail "expected EEXIST");
      ok_or_fail "rename" (ops.Vfs.rename "/d/f" "/d/g");
      ok_or_fail "unlink" (ops.Vfs.unlink "/d/g");
      ok_or_fail "rmdir" (ops.Vfs.rmdir "/d"))

let test_lustre_ops_cost_time () =
  let elapsed =
    in_sim (fun engine ->
        let fs = Lustre.create engine () in
        let ops = Lustre.client fs ~client_id:0 in
        let t0 = Engine.now engine in
        ok_or_fail "mkdir" (ops.Vfs.mkdir "/d" ~mode:0o755);
        Engine.now engine -. t0)
  in
  (* network round trip + mkdir service, give or take queueing *)
  check_bool (Printf.sprintf "mkdir took %.0f us" (elapsed *. 1e6)) true
    (elapsed > 400e-6 && elapsed < 2e-3)

let test_lustre_local_ops_are_instant () =
  let engine = Engine.create () in
  let fs = Lustre.create engine () in
  let ops = Lustre.local_ops fs in
  ok_or_fail "local mkdir (no process needed)" (ops.Vfs.mkdir "/setup" ~mode:0o755);
  check_int "no events consumed" 0 (Engine.executed_events engine)

let test_lustre_lock_revokes () =
  in_sim (fun engine ->
      let fs = Lustre.create engine () in
      let a = Lustre.client fs ~client_id:1 in
      let b = Lustre.client fs ~client_id:2 in
      ok_or_fail "mk parent" (a.Vfs.mkdir "/shared" ~mode:0o755);
      check_int "no revoke yet" 0 (Lustre.lock_revokes fs);
      (* same client again: still no revoke *)
      ok_or_fail "a again" (a.Vfs.mkdir "/shared/a1" ~mode:0o755);
      check_int "same owner keeps the lock" 0 (Lustre.lock_revokes fs);
      (* other client mutating the same directory: revoke *)
      ok_or_fail "b mutates" (b.Vfs.mkdir "/shared/b1" ~mode:0o755);
      check_int "ownership change revokes" 1 (Lustre.lock_revokes fs);
      ok_or_fail "a back" (a.Vfs.create "/shared/f" ~mode:0o644);
      check_int "ping-pong counts again" 2 (Lustre.lock_revokes fs))

let test_lustre_getattr_takes_no_lock () =
  in_sim (fun engine ->
      let fs = Lustre.create engine () in
      let a = Lustre.client fs ~client_id:1 in
      let b = Lustre.client fs ~client_id:2 in
      ok_or_fail "mk" (a.Vfs.mkdir "/d" ~mode:0o755);
      ignore (ok_or_fail "stat" (b.Vfs.getattr "/d"));
      ignore (ok_or_fail "stat" (a.Vfs.getattr "/d"));
      check_int "stats do not revoke" 0 (Lustre.lock_revokes fs))

let measure_closed_loop ~make_ops ~procs ~items =
  let engine = Engine.create () in
  let ops_of = make_ops engine in
  let barrier = Simkit.Gate.Barrier.create ~parties:procs () in
  let t0 = ref 0. and t1 = ref 0. in
  for proc = 0 to procs - 1 do
    Process.spawn engine (fun () ->
        let ops : Vfs.ops = ops_of proc in
        Simkit.Gate.Barrier.await barrier;
        if proc = 0 then t0 := Engine.now engine;
        for i = 0 to items - 1 do
          ignore (ops.Vfs.mkdir (Printf.sprintf "/p%d_%d" proc i) ~mode:0o755)
        done;
        Simkit.Gate.Barrier.await barrier;
        if proc = 0 then t1 := Engine.now engine)
  done;
  Engine.run engine;
  float_of_int (procs * items) /. (!t1 -. !t0)

let test_lustre_throughput_declines_with_clients () =
  (* the central Lustre observation of Figs. 8 and 10 *)
  let rate procs =
    measure_closed_loop ~procs ~items:50 ~make_ops:(fun engine ->
        let fs = Lustre.create engine () in
        fun proc -> Lustre.client fs ~client_id:proc)
  in
  let r16 = rate 16 and r256 = rate 256 in
  check_bool
    (Printf.sprintf "mkdir rate declines: %.0f/s at 16 procs vs %.0f/s at 256" r16 r256)
    true
    (r256 < r16 *. 0.85)

let test_lustre_namespace_penalty_slows_ops () =
  let rate config =
    measure_closed_loop ~procs:8 ~items:50 ~make_ops:(fun engine ->
        let fs = Lustre.create engine ~config () in
        fun proc -> Lustre.client fs ~client_id:proc)
  in
  let native = rate (Lustre.default_config ()) in
  let backend = rate (Lustre.backend_config ()) in
  check_bool
    (Printf.sprintf "hashed namespace slower: %.0f vs %.0f" backend native)
    true (backend < native)

(* {2 PVFS} *)

let test_pvfs_posix_results () =
  in_sim (fun engine ->
      let fs = Pvfs.create engine () in
      let ops = Pvfs.client fs ~client_id:0 in
      ok_or_fail "mkdir" (ops.Vfs.mkdir "/d" ~mode:0o755);
      ok_or_fail "create" (ops.Vfs.create "/d/f" ~mode:0o644);
      ignore (ok_or_fail "stat" (ops.Vfs.getattr "/d/f"));
      (match ops.Vfs.unlink "/d" with
      | Error Errno.EISDIR -> ()
      | _ -> Alcotest.fail "expected EISDIR");
      ok_or_fail "unlink" (ops.Vfs.unlink "/d/f");
      ok_or_fail "rmdir" (ops.Vfs.rmdir "/d"))

let test_pvfs_slower_than_lustre_for_creates () =
  let lustre_rate =
    measure_closed_loop ~procs:32 ~items:30 ~make_ops:(fun engine ->
        let fs = Lustre.create engine () in
        fun proc -> Lustre.client fs ~client_id:proc)
  in
  let pvfs_rate =
    measure_closed_loop ~procs:32 ~items:30 ~make_ops:(fun engine ->
        let fs = Pvfs.create engine () in
        fun proc -> Pvfs.client fs ~client_id:proc)
  in
  check_bool
    (Printf.sprintf "PVFS mkdir (%.0f/s) far below Lustre (%.0f/s)" pvfs_rate
       lustre_rate)
    true
    (pvfs_rate *. 4. < lustre_rate)

let test_pvfs_spreads_over_meta_servers () =
  in_sim (fun engine ->
      let fs = Pvfs.create engine () in
      let ops = Pvfs.client fs ~client_id:0 in
      for i = 0 to 63 do
        ok_or_fail "mkdir" (ops.Vfs.mkdir (Printf.sprintf "/d%d" i) ~mode:0o755)
      done;
      let served = Pvfs.served_per_server fs in
      Array.iter
        (fun count -> check_bool "every metadata server saw requests" true (count > 0))
        served)

(* {2 Lustre Clustered MDS (CMD)} *)

let test_cmd_posix_results () =
  in_sim (fun engine ->
      let fs = Pfs.Cmd_sim.create engine () in
      let ops = Pfs.Cmd_sim.client fs ~client_id:0 in
      ok_or_fail "mkdir" (ops.Vfs.mkdir "/d" ~mode:0o755);
      ok_or_fail "create" (ops.Vfs.create "/d/f" ~mode:0o644);
      ignore (ok_or_fail "stat" (ops.Vfs.getattr "/d/f"));
      ok_or_fail "rename" (ops.Vfs.rename "/d/f" "/d/g");
      ok_or_fail "unlink" (ops.Vfs.unlink "/d/g");
      ok_or_fail "rmdir" (ops.Vfs.rmdir "/d");
      (match ops.Vfs.rmdir "/d" with
      | Error Errno.ENOENT -> ()
      | _ -> Alcotest.fail "expected ENOENT"))

let test_cmd_global_lock_taken_for_cross_updates () =
  in_sim (fun engine ->
      let fs = Pfs.Cmd_sim.create engine () in
      let ops = Pfs.Cmd_sim.client fs ~client_id:0 in
      for i = 0 to 63 do
        ok_or_fail "mkdir" (ops.Vfs.mkdir (Printf.sprintf "/d%02d" i) ~mode:0o755)
      done;
      let locks = Pfs.Cmd_sim.global_lock_acquisitions fs in
      (* with 2 servers, about half the updates cross *)
      check_bool (Printf.sprintf "cross updates took the lock (%d of 64)" locks) true
        (locks > 10 && locks < 55))

let test_cmd_cross_ratio_zero_never_locks () =
  in_sim (fun engine ->
      let config = { (Pfs.Cmd_sim.default_config ~mds_count:4) with
                     Pfs.Cmd_sim.cross_ratio = 0. } in
      let fs = Pfs.Cmd_sim.create engine ~config () in
      let ops = Pfs.Cmd_sim.client fs ~client_id:0 in
      for i = 0 to 31 do
        ok_or_fail "mkdir" (ops.Vfs.mkdir (Printf.sprintf "/d%02d" i) ~mode:0o755)
      done;
      check_int "no lock acquisitions" 0 (Pfs.Cmd_sim.global_lock_acquisitions fs))

let cmd_rate ~mds_count ~phase_lookup =
  measure_closed_loop ~procs:64 ~items:20 ~make_ops:(fun engine ->
      let fs =
        Pfs.Cmd_sim.create engine ~config:(Pfs.Cmd_sim.default_config ~mds_count) ()
      in
      fun proc ->
        let ops = Pfs.Cmd_sim.client fs ~client_id:proc in
        if phase_lookup then ops else ops)

let test_cmd_mutations_bottlenecked_by_lock () =
  (* more CMD servers means more cross-server updates, so mutation
     throughput falls — §VI's argument *)
  let r2 = cmd_rate ~mds_count:2 ~phase_lookup:false in
  let r4 = cmd_rate ~mds_count:4 ~phase_lookup:false in
  check_bool
    (Printf.sprintf "4-MDS mkdir (%.0f/s) <= 2-MDS (%.0f/s)" r4 r2)
    true (r4 <= r2 *. 1.05)

let test_cmd_lookups_scale_with_servers () =
  let rate mds_count =
    let engine = Engine.create () in
    let fs =
      Pfs.Cmd_sim.create engine ~config:(Pfs.Cmd_sim.default_config ~mds_count) ()
    in
    (* populate without timing *)
    let setup = Pfs.Cmd_sim.local_ops fs in
    for i = 0 to 63 do
      ok_or_fail "setup" (setup.Vfs.mkdir (Printf.sprintf "/d%02d" i) ~mode:0o755)
    done;
    let barrier = Simkit.Gate.Barrier.create ~parties:64 () in
    let t0 = ref 0. and t1 = ref 0. in
    for proc = 0 to 63 do
      Process.spawn engine (fun () ->
          let ops = Pfs.Cmd_sim.client fs ~client_id:proc in
          Simkit.Gate.Barrier.await barrier;
          if proc = 0 then t0 := Engine.now engine;
          for i = 0 to 19 do
            ignore (ops.Vfs.getattr (Printf.sprintf "/d%02d" ((proc + i) mod 64)))
          done;
          Simkit.Gate.Barrier.await barrier;
          if proc = 0 then t1 := Engine.now engine)
    done;
    Engine.run engine;
    (64. *. 20.) /. (!t1 -. !t0)
  in
  let r1 = rate 1 and r4 = rate 4 in
  check_bool
    (Printf.sprintf "4-MDS stats (%.0f/s) > 2x 1-MDS (%.0f/s)" r4 r1)
    true (r4 > 2. *. r1)

(* {2 Mdserver queueing station} *)

let test_mdserver_thrash_inflates_service () =
  (* same op stream, higher thrash -> longer makespan *)
  let makespan thrash =
    let engine = Engine.create () in
    let server =
      Pfs.Mdserver.create engine ~threads:1 ~thrash ~net_latency:10e-6 ()
    in
    for _ = 0 to 19 do
      Process.spawn engine (fun () ->
          Pfs.Mdserver.request server ~service:100e-6 (fun () -> ()))
    done;
    Engine.run engine;
    Engine.now engine
  in
  let flat = makespan 0. in
  let thrashed = makespan 0.05 in
  check_bool
    (Printf.sprintf "thrash lengthens makespan (%.1f us vs %.1f us)" (flat *. 1e6)
       (thrashed *. 1e6))
    true (thrashed > flat *. 1.2);
  check_bool "served counted" true (flat > 0.)

let test_mdserver_threads_add_capacity () =
  let makespan threads =
    let engine = Engine.create () in
    let server =
      Pfs.Mdserver.create engine ~threads ~thrash:0. ~net_latency:10e-6 ()
    in
    for _ = 0 to 15 do
      Process.spawn engine (fun () ->
          Pfs.Mdserver.request server ~service:100e-6 (fun () -> ()))
    done;
    Engine.run engine;
    Engine.now engine
  in
  let one = makespan 1 and four = makespan 4 in
  check_bool
    (Printf.sprintf "4 threads faster (%.1f us) than 1 (%.1f us)" (four *. 1e6)
       (one *. 1e6))
    true
    (four < one /. 2.)

(* {2 Paths that are not absolute}

   The simulators compute a parent lock key before the namespace
   validates the path; an empty path used to raise there. *)

let expect_errno expected label = function
  | Error e when e = expected -> ()
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" label (Errno.to_string expected)
  | Error e ->
    Alcotest.failf "%s: expected %s, got %s" label (Errno.to_string expected)
      (Errno.to_string e)

let expect_einval label r = expect_errno Errno.EINVAL label r

let check_relative_paths ops =
  List.iter
    (fun p ->
      let label op = Printf.sprintf "%s %S" op p in
      expect_einval (label "mkdir") (ops.Vfs.mkdir p ~mode:0o755);
      expect_einval (label "create") (ops.Vfs.create p ~mode:0o644);
      expect_einval (label "unlink") (ops.Vfs.unlink p);
      expect_einval (label "rmdir") (ops.Vfs.rmdir p);
      expect_einval (label "getattr") (ops.Vfs.getattr p))
    [ ""; "x" ]

let test_lustre_relative_paths () =
  in_sim (fun engine ->
      check_relative_paths (Lustre.client (Lustre.create engine ()) ~client_id:0))

let test_pvfs_relative_paths () =
  in_sim (fun engine ->
      check_relative_paths (Pvfs.client (Pvfs.create engine ()) ~client_id:0))

let test_cmd_relative_paths () =
  in_sim (fun engine ->
      check_relative_paths (Pfs.Cmd_sim.client (Pfs.Cmd_sim.create engine ()) ~client_id:0))

(* A path the filesystem refuses costs no server work: no virtual time,
   no MDS request, no DLM revoke and no global lock, even with two
   clients alternating on it (["ab/c"] would otherwise lock ["/b"]).
   That holds for absolute paths with a ["."] or [".."] component too,
   and for a component longer than NAME_MAX, whose ENAMETOOLONG outranks
   the [".."] before it. [setup engine] gives the client factory and the
   counters that must stay 0. *)
let check_refused_for_free setup =
  in_sim (fun engine ->
      let client, counters = setup engine in
      List.iter
        (fun (p, errno) ->
          for round = 0 to 3 do
            let ops = client (round mod 2) in
            let label op = Printf.sprintf "%s %S, client %d" op p (round mod 2) in
            let expect op = expect_errno errno (label op) in
            expect "mkdir" (ops.Vfs.mkdir p ~mode:0o755);
            expect "create" (ops.Vfs.create p ~mode:0o644);
            expect "unlink" (ops.Vfs.unlink p);
            expect "rmdir" (ops.Vfs.rmdir p);
            expect "rename from" (ops.Vfs.rename p "/y");
            expect "rename to" (ops.Vfs.rename "/y" p);
            expect "symlink" (ops.Vfs.symlink ~target:"t" p);
            expect "chmod" (ops.Vfs.chmod p ~mode:0o600);
            expect "getattr" (ops.Vfs.getattr p);
            expect "readdir" (ops.Vfs.readdir p);
            expect "write" (ops.Vfs.write p ~off:0 "x")
          done)
        [ ("", Errno.EINVAL); ("x", Errno.EINVAL); ("ab/c", Errno.EINVAL);
          ("/a/..", Errno.EINVAL); ("/b/./c", Errno.EINVAL);
          ("/../" ^ String.make 300 'n', Errno.ENAMETOOLONG) ];
      List.iter (fun (name, count) -> check_int name 0 (count ())) counters;
      Alcotest.(check (float 0.)) "no virtual time elapsed" 0. (Engine.now engine))

let test_lustre_refused_for_free () =
  check_refused_for_free (fun engine ->
      let fs = Lustre.create engine () in
      ( (fun client_id -> Lustre.client fs ~client_id),
        [ ("lock revokes", fun () -> Lustre.lock_revokes fs);
          ("mds requests", fun () -> Lustre.mds_served fs) ] ))

let test_pvfs_refused_for_free () =
  check_refused_for_free (fun engine ->
      let fs = Pvfs.create engine () in
      ( (fun client_id -> Pvfs.client fs ~client_id),
        [ ("mds requests",
           fun () -> Array.fold_left ( + ) 0 (Pvfs.served_per_server fs)) ] ))

let test_cmd_refused_for_free () =
  check_refused_for_free (fun engine ->
      let config =
        { (Pfs.Cmd_sim.default_config ~mds_count:4) with Pfs.Cmd_sim.cross_ratio = 1. }
      in
      let fs = Pfs.Cmd_sim.create engine ~config () in
      ( (fun client_id -> Pfs.Cmd_sim.client fs ~client_id),
        [ ("global lock acquisitions",
           fun () -> Pfs.Cmd_sim.global_lock_acquisitions fs) ] ))

let () =
  Alcotest.run "pfs"
    [ ( "lustre",
        [ Alcotest.test_case "posix results" `Quick test_lustre_posix_results;
          Alcotest.test_case "ops cost virtual time" `Quick test_lustre_ops_cost_time;
          Alcotest.test_case "local ops instant" `Quick test_lustre_local_ops_are_instant;
          Alcotest.test_case "dlm lock revokes" `Quick test_lustre_lock_revokes;
          Alcotest.test_case "getattr takes no lock" `Quick
            test_lustre_getattr_takes_no_lock;
          Alcotest.test_case "throughput declines with clients" `Quick
            test_lustre_throughput_declines_with_clients;
          Alcotest.test_case "namespace penalty" `Quick
            test_lustre_namespace_penalty_slows_ops ] );
      ( "pvfs",
        [ Alcotest.test_case "posix results" `Quick test_pvfs_posix_results;
          Alcotest.test_case "slower than lustre for creates" `Quick
            test_pvfs_slower_than_lustre_for_creates;
          Alcotest.test_case "spreads over meta servers" `Quick
            test_pvfs_spreads_over_meta_servers ] );
      ( "cmd",
        [ Alcotest.test_case "posix results" `Quick test_cmd_posix_results;
          Alcotest.test_case "global lock on cross updates" `Quick
            test_cmd_global_lock_taken_for_cross_updates;
          Alcotest.test_case "cross_ratio 0 never locks" `Quick
            test_cmd_cross_ratio_zero_never_locks;
          Alcotest.test_case "mutations bottlenecked by lock" `Quick
            test_cmd_mutations_bottlenecked_by_lock;
          Alcotest.test_case "lookups scale with servers" `Quick
            test_cmd_lookups_scale_with_servers ] );
      ( "mdserver",
        [ Alcotest.test_case "thrash inflates service" `Quick
            test_mdserver_thrash_inflates_service;
          Alcotest.test_case "threads add capacity" `Quick
            test_mdserver_threads_add_capacity ] );
      ( "invalid",
        [ Alcotest.test_case "lustre relative paths" `Quick test_lustre_relative_paths;
          Alcotest.test_case "pvfs relative paths" `Quick test_pvfs_relative_paths;
          Alcotest.test_case "cmd relative paths" `Quick test_cmd_relative_paths;
          Alcotest.test_case "lustre refuses for free" `Quick
            test_lustre_refused_for_free;
          Alcotest.test_case "pvfs refuses for free" `Quick test_pvfs_refused_for_free;
          Alcotest.test_case "cmd refuses for free" `Quick test_cmd_refused_for_free ] ) ]
