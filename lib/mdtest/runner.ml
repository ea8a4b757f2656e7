module Engine = Simkit.Engine
module Process = Simkit.Process
module Barrier = Simkit.Gate.Barrier
module Vfs = Fuselike.Vfs

type phase =
  | Dir_create
  | Dir_stat
  | Dir_remove
  | File_create
  | File_stat
  | File_remove

let all_phases = [ Dir_create; Dir_stat; Dir_remove; File_create; File_stat; File_remove ]

let phase_to_string = function
  | Dir_create -> "dir-create"
  | Dir_stat -> "dir-stat"
  | Dir_remove -> "dir-remove"
  | File_create -> "file-create"
  | File_stat -> "file-stat"
  | File_remove -> "file-remove"

type latency = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type results = {
  rates : (phase * float) list;
  latencies : (phase * latency) list;
  errors : int;
  wall : float;
}

let rate results phase = List.assoc phase results.rates

(* [None] for a phase that recorded no samples: an empty distribution has
   no honest mean or quantiles, so it reports nothing instead of zeros. *)
let latency_of results phase = List.assoc_opt phase results.latencies

let count_result errors = function
  | Ok _ -> ()
  | Error _ -> incr errors

let phase_items cfg phase =
  match phase with
  | Dir_create | Dir_stat | Dir_remove -> cfg.Workload.dirs_per_proc
  | File_create | File_stat | File_remove -> cfg.Workload.files_per_proc

let perform cfg (ops : Vfs.ops) errors phase ~proc ~item =
  match phase with
  | Dir_create ->
    count_result errors (ops.Vfs.mkdir (Workload.dir_path cfg ~proc ~item) ~mode:0o755)
  | Dir_stat ->
    count_result errors (ops.Vfs.getattr (Workload.dir_path cfg ~proc ~item))
  | Dir_remove -> count_result errors (ops.Vfs.rmdir (Workload.dir_path cfg ~proc ~item))
  | File_create ->
    count_result errors (ops.Vfs.create (Workload.file_path cfg ~proc ~item) ~mode:0o644)
  | File_stat ->
    count_result errors (ops.Vfs.getattr (Workload.file_path cfg ~proc ~item))
  | File_remove ->
    count_result errors (ops.Vfs.unlink (Workload.file_path cfg ~proc ~item))

let run ?(on_phase = fun (_ : phase) -> ()) engine cfg ~ops_for_proc =
  let procs = cfg.Workload.procs in
  let barrier = Barrier.create ~parties:procs () in
  let errors = ref 0 in
  let rates = ref [] in
  let latencies = ref [] in
  let started = ref 0. in
  let finished = ref 0. in
  (* shared per-phase latency distributions (all processes feed them) *)
  let accumulators =
    List.map (fun phase -> (phase, Simkit.Stat.Latency.create ())) all_phases
  in
  let proc_body proc =
    let ops = ops_for_proc proc in
    if proc = 0 then begin
      List.iter
        (fun dir -> count_result errors (ops.Vfs.mkdir dir ~mode:0o755))
        (Workload.skeleton cfg);
      started := Engine.now engine
    end;
    Barrier.await barrier;
    List.iter
      (fun phase ->
        if proc = 0 then on_phase phase;
        let t0 = Engine.now engine in
        let items = phase_items cfg phase in
        let dist = List.assoc phase accumulators in
        for item = 0 to items - 1 do
          let op_start = Engine.now engine in
          perform cfg ops errors phase ~proc ~item;
          Simkit.Stat.Latency.add dist (Engine.now engine -. op_start)
        done;
        Barrier.await barrier;
        if proc = 0 then begin
          let dt = Engine.now engine -. t0 in
          let total = float_of_int (items * procs) in
          rates := (phase, if dt > 0. then total /. dt else 0.) :: !rates;
          let summary = Simkit.Stat.Latency.summary dist in
          match Simkit.Stat.Summary.max summary with
          | None -> ()  (* no samples: no latency row *)
          | Some max ->
            let pct = Simkit.Stat.Latency.quantile dist in
            latencies :=
              ( phase,
                { samples = Simkit.Stat.Summary.count summary;
                  mean = Simkit.Stat.Summary.mean summary;
                  p50 = pct 0.5;
                  p95 = pct 0.95;
                  p99 = pct 0.99;
                  max } )
              :: !latencies
        end)
      all_phases;
    if proc = 0 then finished := Engine.now engine
  in
  for proc = 0 to procs - 1 do
    Process.spawn engine (fun () -> proc_body proc)
  done;
  Engine.run engine;
  { rates = List.rev !rates;
    latencies = List.rev !latencies;
    errors = !errors;
    wall = !finished -. !started }

let closed_loop engine ~procs ~items f =
  let barrier = Barrier.create ~parties:procs () in
  let t0 = ref 0. and t1 = ref 0. in
  for proc = 0 to procs - 1 do
    Process.spawn engine (fun () ->
        Barrier.await barrier;
        if proc = 0 then t0 := Engine.now engine;
        for item = 0 to items - 1 do
          f ~proc ~item
        done;
        Barrier.await barrier;
        if proc = 0 then t1 := Engine.now engine)
  done;
  Engine.run engine;
  let dt = !t1 -. !t0 in
  if dt > 0. then float_of_int (procs * items) /. dt else 0.
