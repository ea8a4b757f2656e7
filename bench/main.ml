(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§V) on the discrete-event simulator, then runs one
   Bechamel microbenchmark per figure measuring the primitive that
   dominates it.

       dune exec bench/main.exe

   Individual experiments: `dune exec bin/dufs_bench.exe -- <id>`. *)

let hr () = print_endline (String.make 78 '=')

(* {2 Bechamel microbenches — one Test.make per table/figure} *)

let microbench_tests () =
  let open Bechamel in
  (* Fig. 7's primitive: applying a create+delete txn pair to the znode
     state machine (what every replica does per committed write). *)
  let ztree_txn =
    let tree = Zk.Ztree.create () in
    let zxid = ref 0L in
    Test.make ~name:"fig7: ztree create+delete txn"
      (Staged.stage (fun () ->
           zxid := Int64.add !zxid 1L;
           ignore
             (Zk.Ztree.apply tree ~zxid:!zxid ~time:0.
                [ Zk.Txn.Create
                    { path = "/bench"; data = "x"; ephemeral_owner = 0L;
                      sequential = false } ]);
           zxid := Int64.add !zxid 1L;
           ignore
             (Zk.Ztree.apply tree ~zxid:!zxid ~time:0.
                [ Zk.Txn.Delete { path = "/bench"; expected_version = -1 } ])))
  in
  (* Fig. 8's primitive: a full DUFS directory create+remove through the
     metadata path (coordination service, no network). *)
  let dufs_dir_cycle =
    let service = Zk.Zk_local.create () in
    let backend = Fuselike.Memfs.ops (Fuselike.Memfs.create ~clock:(fun () -> 0.) ()) in
    (match Dufs.Physical.format Dufs.Physical.default_layout backend with
    | Ok () -> ()
    | Error e -> failwith (Fuselike.Errno.to_string e));
    let fs =
      Dufs.Client.ops
        (Dufs.Client.mount ~coord:(Zk.Zk_local.session service) ~backends:[| backend |]
           ())
    in
    Test.make ~name:"fig8: dufs mkdir+rmdir (metadata path)"
      (Staged.stage (fun () ->
           ignore (fs.Fuselike.Vfs.mkdir "/bench" ~mode:0o755);
           ignore (fs.Fuselike.Vfs.rmdir "/bench")))
  in
  (* Fig. 9's primitive: the deterministic mapping — MD5 mod N plus
     physical-path derivation for a fresh FID. *)
  let mapping =
    let gen = Dufs.Fid.Gen.create ~client_id:1L in
    Test.make ~name:"fig9: fid -> backend + physical path"
      (Staged.stage (fun () ->
           let fid = Dufs.Fid.Gen.next gen in
           ignore (Dufs.Mapping.md5_mod ~backends:4 fid);
           ignore (Dufs.Physical.path Dufs.Physical.default_layout fid)))
  in
  (* Fig. 10's substrate primitive: a namespace create+unlink on the
     in-memory filesystem behind the Lustre/PVFS2 simulators. *)
  let memfs_cycle =
    let fs = Fuselike.Memfs.ops (Fuselike.Memfs.create ~clock:(fun () -> 0.) ()) in
    Test.make ~name:"fig10: backend namespace create+unlink"
      (Staged.stage (fun () ->
           ignore (fs.Fuselike.Vfs.create "/bench" ~mode:0o644);
           ignore (fs.Fuselike.Vfs.unlink "/bench")))
  in
  (* Fig. 11's primitive: znode creation in an already-large tree (memory
     accounting + hash insert). *)
  let ztree_grow =
    let tree = Zk.Ztree.create () in
    let zxid = ref 0L in
    let bump () =
      zxid := Int64.add !zxid 1L;
      !zxid
    in
    let create path =
      ignore
        (Zk.Ztree.apply tree ~zxid:(bump ()) ~time:0.
           [ Zk.Txn.Create { path; data = ""; ephemeral_owner = 0L; sequential = false } ])
    in
    create "/m";
    for i = 0 to 99_999 do
      create (Printf.sprintf "/m/pre%06d" i)
    done;
    let n = ref 0 in
    Test.make ~name:"fig11: znode create in 100k-node tree"
      (Staged.stage (fun () ->
           incr n;
           create (Printf.sprintf "/m/bench%09d" !n)))
  in
  (* Headline's primitive: MD5 of a FID-sized message. *)
  let md5 =
    let bytes = Dufs.Fid.to_bytes (Dufs.Fid.make ~client_id:7L ~counter:9L) in
    Test.make ~name:"headline: md5 of a 16-byte fid"
      (Staged.stage (fun () -> ignore (Zk.Md5.digest bytes)))
  in
  (* The simulator substrate: schedule+dispatch one event. *)
  let engine_event =
    let engine = Simkit.Engine.create () in
    Test.make ~name:"substrate: engine schedule+dispatch"
      (Staged.stage (fun () ->
           Simkit.Engine.schedule engine ~delay:0. ignore;
           Simkit.Engine.run engine))
  in
  [ ztree_txn; dufs_dir_cycle; mapping; memfs_cycle; ztree_grow; md5; engine_event ]

let run_microbenches () =
  let open Bechamel in
  hr ();
  print_endline "Bechamel microbenchmarks (one per figure: its dominant primitive)";
  hr ();
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  (* measure each test separately so one noisy run cannot skew another *)
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
      let analyzed = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns_per_run ] ->
            Printf.printf "  %-48s %12.1f ns/op %14.0f ops/s\n" name ns_per_run
              (1e9 /. ns_per_run)
          | Some _ | None -> Printf.printf "  %-48s (no estimate)\n" name)
        analyzed)
    (microbench_tests ());
  flush stdout

let () =
  hr ();
  print_endline "DUFS benchmark harness — regenerating every figure of CLUSTER'11 §V";
  print_endline "(shapes and ratios are the reproduction target; see EXPERIMENTS.md)";
  hr ();
  Scenarios.Figures.all ();
  run_microbenches ();
  hr ();
  print_endline "bench complete."
