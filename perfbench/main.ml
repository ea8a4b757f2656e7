(* The DUFS benchmark: command line, windows and report.

     dune exec --root . -- ./perfbench/main.exe \
       --workload <mdtest-shared|cached-mix|power-fail> --seed <n> \
       --seconds <s> --trace <0|1>

   A run measures windows: each window builds a fresh stack, sets it up
   and runs the workload once. Window i runs sub-seed (i mod K) of
   [--seed], K fixed per workload. The modeled-clock metrics pool the
   raw samples of the first K windows, so they are a pure function of
   [--seed]; windows past K repeat earlier sub-seeds and must reproduce
   their modeled timelines exactly. After a first pass of K + 1 windows
   (K is sized so that it fits well inside the benchmark's
   run_seconds), windows repeat while one more still ends within
   [--seconds] of wall time. [setup_s] is the median of every set-up of
   the run and [host_us_per_op] the median of the windows' host µs per
   client op, both scaled to a nominal machine speed (see [calibrate]).

   [--trace 0] prints the end-to-end metrics. [--trace 1] runs every
   window twice, untraced then traced, checks that both give the same
   modeled timeline, and prints the per-layer metrics (means over the
   first K/4 traced windows: a traced window costs two to three
   untraced ones, so the first pass is cut to fit the same wall time).
   The last stdout line is one JSON object; the exit code is non-zero
   only when a check or a metric self-test fails, or the arguments are
   bad. *)

let e2e_units =
  [ ("ops_per_s", "1/s"); ("write_p50_ms", "ms"); ("write_p99_ms", "ms");
    ("read_p50_ms", "ms"); ("read_p99_ms", "ms"); ("unavail_s", "s");
    ("host_us_per_op", "us"); ("host_heap_mb", "MB"); ("setup_s", "s") ]

let min_setups = 15  (* set-up alone is cheap: repeat it for a steady median *)
let wall_cap = 150.  (* past the first pass, start no window after this many seconds *)

(* Host timings are scaled to a nominal machine speed. Other work on a
   shared host slows this process by tens of percent, in spells of
   seconds to minutes; a fixed stdlib-only loop (no code of the program
   under test) slows with it. The loop runs right after every set-up,
   and that set-up and its window are scaled by
   [nominal_calibration /. loop time]: about 1 on an idle host of the
   reference speed. *)
let nominal_calibration = 0.045

let calibrate () =
  Gc.full_major ();
  let t = Sys.time () in
  let h = Hashtbl.create 16 in
  for j = 0 to 49_999 do
    Hashtbl.replace h (j * 7919) (string_of_int j)
  done;
  let a = Array.init 100_000 (fun j -> float_of_int (j * 7919 mod 100_003)) in
  Array.sort Float.compare a;
  let acc = ref 0 in
  for j = 0 to 49_999 do
    match Hashtbl.find_opt h (j * 31) with Some s -> acc := !acc + String.length s | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. t

let sub_seed seed j = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int j)

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* Host cost is per client op: every VFS op, plus power-fail's
   open-loop register writes, whose cost the window also pays. *)
let host_us_per_op (r : Workloads.rep) = 1e6 *. r.measure_host /. float_of_int r.attempted
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Modeled-clock metrics over the pooled samples of the first pass. *)
let modeled (pass : Workloads.rep list) =
  let pool f = Array.concat (List.map f pass) in
  let reads = pool (fun r -> r.Workloads.reads) and writes = pool (fun r -> r.Workloads.writes) in
  let span = List.fold_left (fun acc r -> acc +. r.Workloads.span) 0. pass in
  let ms a q = 1e3 *. Stats.percentile a q in
  let beyond a q = Array.length a - int_of_float (Float.ceil (q *. float_of_int (Array.length a))) in
  ( [ ("ops_per_s", float_of_int (Array.length reads + Array.length writes) /. span);
      ("write_p50_ms", ms writes 0.5); ("write_p99_ms", ms writes 0.99);
      ("read_p50_ms", ms reads 0.5); ("read_p99_ms", ms reads 0.99);
      ("unavail_s", List.fold_left (fun acc r -> acc +. r.Workloads.stall) 0. pass
                    /. float_of_int (List.length pass)) ],
    [ Printf.sprintf "%d windows pooled: %.6f modeled s, %d reads, %d writes" (List.length pass)
        span (Array.length reads) (Array.length writes);
      Printf.sprintf "write p50/p99 from %d samples (%d beyond p99)" (Array.length writes)
        (beyond writes 0.99);
      Printf.sprintf "read p50/p99 from %d samples (%d beyond p99)" (Array.length reads)
        (beyond reads 0.99);
      "unavail_s is the mean of the windows' longest write stalls" ] )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let specs =
    [ ("--workload", Arg.Set_string workload, " mdtest-shared | cached-mix | power-fail");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " wall seconds to keep measuring");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (match Stats.self_test () with
   | [] -> ()
   | failures ->
     List.iter (fun f -> prerr_endline ("metric self-test failed: " ^ f)) failures;
     exit 3);
  let k, run =
    match List.assoc_opt !workload Workloads.all with
    | Some w when (!trace = 0 || !trace = 1) && !seconds >= 1 -> w
    | _ ->
      Arg.usage specs usage;
      exit 2
  in
  let seed = Int64.of_int !seed and traced_run = !trace = 1 in
  let first_pass = if traced_run then max 1 (k / 4) else k in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* windows in run order: (index, untraced, traced option) *)
  let windows = ref [] and setups = ref [] and scales = ref [] in
  (* set-up, calibrate, then (if wanted) the window, both host times at
     the nominal speed *)
  let set_up ~traced i =
    let host, measure = run ~seed:(sub_seed seed (i mod k)) ~traced in
    let scale = nominal_calibration /. calibrate () in
    setups := (scale *. host) :: !setups;
    scales := scale :: !scales;
    fun () ->
      let r = measure () in
      { r with Workloads.measure_host = scale *. r.Workloads.measure_host }
  in
  (* the first pass, then (untraced) at least one repeat; past it, a
     window starts only if one like the last still ends by [--seconds] *)
  let rec loop i last =
    let floor = if traced_run then first_pass else first_pass + 1 in
    let t = elapsed () in
    let stop = i >= floor && (t +. last > float_of_int !seconds || t >= wall_cap) in
    if not stop then begin
      let plain = set_up ~traced:false i () in
      let traced = if traced_run then Some (set_up ~traced:true i ()) else None in
      windows := (i, plain, traced) :: !windows;
      loop (i + 1) (elapsed () -. t)
    end
  in
  loop 0 0.;
  while (not traced_run) && List.length !setups < min_setups && elapsed () < wall_cap do
    ignore (set_up ~traced:false 0 : unit -> Workloads.rep)
  done;
  let windows = List.rev !windows in
  let plain = List.map (fun (_, p, _) -> p) windows in
  let traced = List.filter_map (fun (_, _, t) -> t) windows in
  let pass = List.filteri (fun i _ -> i < first_pass) plain in
  (* every window's timeline: the first untraced window of its sub-seed *)
  let timeline_mismatches =
    let first = Hashtbl.create k in
    List.length
      (List.filter
         (fun (i, (p : Workloads.rep), t) ->
           if not (Hashtbl.mem first (i mod k)) then Hashtbl.add first (i mod k) p.digest;
           let d = Hashtbl.find first (i mod k) in
           p.digest <> d
           || match t with Some (t : Workloads.rep) -> t.digest <> d | None -> false)
         windows)
  in
  let failed_checks =
    List.sort_uniq compare
      (List.concat_map
         (fun (r : Workloads.rep) ->
           List.filter_map (fun (name, ok) -> if ok then None else Some name) r.checks)
         (plain @ traced))
    @
    if timeline_mismatches = 0 then []
    else [ Printf.sprintf "%d windows did not reproduce their sub-seed's modeled timeline"
             timeline_mismatches ]
  in
  let modeled, notes = modeled pass in
  let attempted = sum (fun (r : Workloads.rep) -> r.attempted) pass
  and failed = sum (fun (r : Workloads.rep) -> r.failed) pass in
  let median_cost l = Stats.median (List.map host_us_per_op l) in
  Printf.printf "workload %s, seed %Ld: %d untraced + %d traced windows, %d set-ups, %.1f s\n"
    !workload seed (List.length plain) (List.length traced) (List.length !setups) (elapsed ());
  List.iter (Printf.printf "  %s\n") (notes @ (List.hd pass).notes);
  Printf.printf "  %d client ops attempted, %d failed (fail_frac %g)\n" attempted failed
    (Stats.fail_frac ~attempted ~failed);
  let show fmt l = String.concat " " (List.map (Printf.sprintf fmt) l) in
  Printf.printf "  host time scale per set-up: %s\n" (show "%.3f" (List.rev !scales));
  Printf.printf "  host us/op per window, scaled: %s\n" (show "%.1f" (List.map host_us_per_op plain));
  Printf.printf "  longest write stall per first-pass window, ms: %s\n"
    (show "%.3f" (List.map (fun (r : Workloads.rep) -> 1e3 *. r.stall) pass));
  Printf.printf "  set-up s, scaled: %s\n" (show "%.4f" (List.rev !setups));
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-50s %s\n" name (if ok then "ok" else "FAILED"))
    (List.hd pass).checks;
  let metrics =
    if not traced_run then
      let heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
      in
      let host =
        [ ("host_us_per_op", median_cost plain); ("host_heap_mb", heap_mb);
          ("setup_s", Stats.median !setups) ]
      in
      List.map (fun (name, unit) -> (name, unit, List.assoc name (modeled @ host))) e2e_units
    else
      let first_traced = List.filteri (fun i _ -> i < first_pass) traced in
      let mean name =
        let vs = List.filter_map (fun (r : Workloads.rep) -> List.assoc_opt name r.layers) first_traced in
        match vs with
        | [] -> None
        | _ -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))
      in
      let derived =
        [ ("sim.minor_words_per_op",
           Stats.median
             (List.map (fun (r : Workloads.rep) -> r.minor_words /. float_of_int r.attempted) plain));
          ("trace.overhead_pct", 100. *. ((median_cost traced /. median_cost plain) -. 1.)) ]
      in
      List.map
        (fun (name, unit) ->
          ( name, unit,
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> Option.value (mean name) ~default:0. (* layer not run *) ))
        Layers.metric_units
  in
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %16.6f %s\n" name v unit) metrics;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = failed_checks = [] && finite in
  List.iter (Printf.printf "  FAILED: %s\n") failed_checks;
  if not finite then print_endline "  FAILED: a metric is not a finite number";
  print_endline
    (json_line ~correct ~attempted ~failed (if correct then metrics else []));
  exit (if correct then 0 else 1)
