(* Tests for the mdtest workload harness itself: the generic closed loop,
   runner semantics over a trivial timed filesystem, and the report
   formatting helpers. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Runner = Mdtest.Runner
module Workload = Mdtest.Workload
module Report = Mdtest.Report
module Vfs = Fuselike.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* {2 closed_loop} *)

let test_closed_loop_rate_exact () =
  (* every op sleeps exactly 1ms and ops do not contend: with p procs the
     aggregate rate must be p * 1000 *)
  let engine = Engine.create () in
  let rate =
    Runner.closed_loop engine ~procs:4 ~items:25 (fun ~proc:_ ~item:_ ->
        Process.sleep 1e-3)
  in
  check_float "4 procs x 1k ops/s" 4000. rate

let test_closed_loop_counts_all_items () =
  let engine = Engine.create () in
  let count = ref 0 in
  let seen = Hashtbl.create 64 in
  ignore
    (Runner.closed_loop engine ~procs:3 ~items:7 (fun ~proc ~item ->
         incr count;
         Hashtbl.replace seen (proc, item) ();
         Process.sleep 1e-4));
  check_int "3*7 invocations" 21 !count;
  check_int "all distinct coordinates" 21 (Hashtbl.length seen)

let test_closed_loop_barrier_alignment () =
  (* a slow first proc delays the start for everyone: all ops begin after
     its arrival at the barrier *)
  let engine = Engine.create () in
  let earliest = ref infinity in
  Process.spawn engine (fun () -> Process.sleep 0.5);
  let _rate =
    Runner.closed_loop engine ~procs:2 ~items:3 (fun ~proc:_ ~item:_ ->
        earliest := min !earliest (Engine.now engine);
        Process.sleep 1e-3)
  in
  check_bool "work started at the common barrier" true (!earliest < 0.5)

(* {2 Runner over a unit-cost filesystem} *)

(* A filesystem where every op costs exactly [cost] of virtual time. *)
let unit_cost_fs engine ~cost =
  let inner = Fuselike.Memfs.ops (Fuselike.Memfs.create ~clock:(fun () -> 0.) ()) in
  let timed : 'a. (unit -> 'a) -> 'a =
    fun f ->
     Process.sleep cost;
     ignore (Engine.now engine);
     f ()
  in
  { inner with
    Vfs.mkdir = (fun p ~mode -> timed (fun () -> inner.Vfs.mkdir p ~mode));
    rmdir = (fun p -> timed (fun () -> inner.Vfs.rmdir p));
    create = (fun p ~mode -> timed (fun () -> inner.Vfs.create p ~mode));
    unlink = (fun p -> timed (fun () -> inner.Vfs.unlink p));
    getattr = (fun p -> timed (fun () -> inner.Vfs.getattr p)) }

let test_runner_rates_match_unit_cost () =
  let engine = Engine.create () in
  let cost = 2e-3 in
  let fs = unit_cost_fs engine ~cost in
  let cfg = Workload.config ~procs:4 ~dirs_per_proc:10 ~files_per_proc:10 () in
  let results = Runner.run engine cfg ~ops_for_proc:(fun _ -> fs) in
  check_int "no errors" 0 results.Runner.errors;
  (* ops don't contend: rate = procs / cost for every phase *)
  List.iter
    (fun (phase, rate) ->
      Alcotest.(check (float 1.))
        (Runner.phase_to_string phase ^ " rate")
        (4. /. cost) rate)
    results.Runner.rates;
  (* latency = exactly the unit cost *)
  List.iter
    (fun phase ->
      match Runner.latency_of results phase with
      | None -> Alcotest.fail (Runner.phase_to_string phase ^ ": no latency row")
      | Some l ->
        Alcotest.(check (float 1e-9)) "mean latency = cost" cost l.Runner.mean;
        Alcotest.(check (float 1e-9)) "max latency = cost" cost l.Runner.max)
    Runner.all_phases

let test_runner_counts_errors () =
  let engine = Engine.create () in
  (* a filesystem that fails every mkdir *)
  let fs =
    { (Fuselike.Memfs.ops (Fuselike.Memfs.create ~clock:(fun () -> 0.) ())) with
      Vfs.mkdir = (fun _ ~mode:_ -> Process.sleep 1e-4; Error Fuselike.Errno.EIO) }
  in
  let cfg = Workload.config ~procs:2 ~dirs_per_proc:5 ~files_per_proc:0 () in
  let results = Runner.run engine cfg ~ops_for_proc:(fun _ -> fs) in
  (* skeleton (110 dirs) + dir-create phase (10) + dir-remove phase rmdir
     of never-created dirs also fails via rmdir?  rmdir is untouched and
     returns ENOENT: count: skeleton 110 + create 10 + remove 10 *)
  check_bool
    (Printf.sprintf "errors counted (%d)" results.Runner.errors)
    true
    (results.Runner.errors >= 120)

(* {2 Workload placement} *)

let test_workload_validation () =
  Alcotest.check_raises "procs < 1" (Invalid_argument "Workload.config: procs < 1")
    (fun () -> ignore (Workload.config ~procs:0 ()));
  Alcotest.check_raises "leafless shared tree"
    (Invalid_argument "Workload.config: shared tree needs fan_out >= 1 and depth >= 1")
    (fun () ->
      ignore (Workload.config ~tree:{ Workload.fan_out = 10; depth = 0 } ~procs:1 ()))

(* The list-based placement [Workload.place] used to evaluate on every
   op: build the whole skeleton, keep the paths [depth] slashes deep, and
   take leaf [(proc + item) mod #leaves]. Kept as the reference the
   arithmetic placement must reproduce path for path. *)
let reference_path (cfg : Workload.config) ~proc ~item ~prefix =
  let tree = cfg.Workload.tree in
  let leaves =
    if cfg.Workload.unique_working_dirs then [ "/proc" ^ string_of_int proc ]
    else begin
      let rec level parents depth acc =
        if depth = 0 then List.rev acc
        else begin
          let children =
            List.concat_map
              (fun parent ->
                List.init tree.Workload.fan_out (fun i ->
                    (if parent = "/" then "" else parent) ^ "/t" ^ string_of_int i))
              parents
          in
          level children (depth - 1) (List.rev_append children acc)
        end
      in
      List.filter
        (fun p -> List.length (String.split_on_char '/' p) - 1 = tree.Workload.depth)
        (level [ "/" ] tree.Workload.depth [])
    end
  in
  let leaf = List.nth leaves ((proc + item) mod List.length leaves) in
  Printf.sprintf "%s/%s.%d.%d" leaf prefix proc item

let test_placement_matches_reference () =
  let configs =
    [ ("10x2", Workload.config ~procs:128 ());
      ("3x3", Workload.config ~tree:{ Workload.fan_out = 3; depth = 3 } ~procs:128 ());
      ("1x1", Workload.config ~tree:{ Workload.fan_out = 1; depth = 1 } ~procs:128 ());
      ("unique", Workload.config ~unique_working_dirs:true ~procs:128 ()) ]
  in
  List.iter
    (fun (label, cfg) ->
      for proc = 0 to 127 do
        for item = 0 to 11 do
          let check prefix actual =
            let expected = reference_path cfg ~proc ~item ~prefix in
            if actual <> expected then
              Alcotest.failf "%s proc %d item %d: %s, expected %s" label proc item
                actual expected
          in
          check "dir.mdtest" (Workload.dir_path cfg ~proc ~item);
          check "file.mdtest" (Workload.file_path cfg ~proc ~item)
        done
      done;
      (* and the exported leaf list is the reference's *)
      let parents =
        List.init 12 (fun item ->
            Fuselike.Fspath.parent (reference_path cfg ~proc:0 ~item ~prefix:"x"))
      in
      List.iter
        (fun p ->
          check_bool (label ^ ": " ^ p ^ " is a listed leaf") true
            (List.mem p (Workload.leaves_for cfg ~proc:0)))
        parents)
    configs

let test_workload_spread_over_leaves () =
  let cfg = Workload.config ~procs:3 ~dirs_per_proc:50 ~files_per_proc:0 () in
  let leaves = Workload.leaves_for cfg ~proc:0 in
  let used = Hashtbl.create 64 in
  for proc = 0 to 2 do
    for item = 0 to 49 do
      let parent = Fuselike.Fspath.parent (Workload.dir_path cfg ~proc ~item) in
      Hashtbl.replace used parent ()
    done
  done;
  check_bool
    (Printf.sprintf "items spread over many leaves (%d of %d)" (Hashtbl.length used)
       (List.length leaves))
    true
    (Hashtbl.length used > 40)

let test_unique_mode_isolates_procs () =
  let cfg =
    Workload.config ~procs:4 ~dirs_per_proc:10 ~files_per_proc:0
      ~unique_working_dirs:true ()
  in
  for proc = 0 to 3 do
    for item = 0 to 9 do
      let path = Workload.dir_path cfg ~proc ~item in
      check_bool
        (Printf.sprintf "%s under /proc%d" path proc)
        true
        (Fuselike.Fspath.is_prefix ~prefix:(Printf.sprintf "/proc%d" proc) path)
    done
  done

(* {2 Report figures} *)

let test_report_series_shape () =
  (* print_figure must tolerate missing points; smoke-test via configs
     with uneven procs coverage (output goes to stdout, checked not to
     raise) *)
  Report.print_figure ~title:"test figure" "demo"
    (List.map
       (fun (config, procs, ops_per_sec) ->
         Report.point ~experiment:"demo" ~procs ~config ~ops_per_sec ())
       [ ("full", 1, 10.); ("full", 2, 20.); ("partial", 2, 99.) ]);
  Report.print_ratio ~label:"some ratio" 1.5;
  Report.print_header "done"

let () =
  Alcotest.run "mdtest-harness"
    [ ( "closed-loop",
        [ Alcotest.test_case "exact rate" `Quick test_closed_loop_rate_exact;
          Alcotest.test_case "counts all items" `Quick test_closed_loop_counts_all_items;
          Alcotest.test_case "barrier alignment" `Quick
            test_closed_loop_barrier_alignment ] );
      ( "runner",
        [ Alcotest.test_case "rates match unit cost" `Quick
            test_runner_rates_match_unit_cost;
          Alcotest.test_case "counts errors" `Quick test_runner_counts_errors ] );
      ( "workload",
        [ Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "spread over leaves" `Quick test_workload_spread_over_leaves;
          Alcotest.test_case "placement matches the list-based reference" `Quick
            test_placement_matches_reference;
          Alcotest.test_case "unique mode isolates" `Quick
            test_unique_mode_isolates_procs ] );
      ( "report",
        [ Alcotest.test_case "series shape" `Quick test_report_series_shape ] ) ]
