(* The three workloads. [run ~seed ~traced] builds a fresh stack, sets
   it up and returns the set-up's host time with the measured window:
   a closure that runs the window (timed on both clocks), then checks
   the outputs. All randomness comes from [seed]; the program only ever
   sees the generated ops. Why each workload exists, and which layer it
   loads or bypasses, is in README.md next to this file. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Barrier = Simkit.Gate.Barrier
module Rng = Simkit.Rng
module Vfs = Fuselike.Vfs
module Fvec = Stats.Fvec

type kind = Read | Write

(* Raw client-visible samples of one measured window. *)
type recorder = {
  reads : Fvec.t;  (* latency, s, of every read op *)
  writes : Fvec.t;  (* latency, s, of every write op *)
  mutable intervals : (float * float * bool) list;  (* every client write *)
  mutable ok : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let recorder () =
  { reads = Fvec.create (); writes = Fvec.create (); intervals = []; ok = 0;
    failed = 0; first_failure = None }

let note rc kind ~start ~stop ~error =
  Fvec.push (match kind with Read -> rc.reads | Write -> rc.writes) (stop -. start);
  (match kind with
   | Write -> rc.intervals <- (start, stop, error = None) :: rc.intervals
   | Read -> ());
  match error with
  | None -> rc.ok <- rc.ok + 1
  | Some e ->
    rc.failed <- rc.failed + 1;
    if rc.first_failure = None then rc.first_failure <- Some e

(* One client VFS op, timed at the VFS boundary. *)
let call st rc ctx kind label f =
  Probe.begin_op ctx;
  let t0 = Stack.now st in
  let res = f () in
  let t1 = Stack.now st in
  (match st.Stack.probe with Some p -> Probe.end_op p ctx (t1 -. t0) | None -> ());
  note rc kind ~start:t0 ~stop:t1
    ~error:
      (match res with
       | Ok _ -> None
       | Error e -> Some (label ^ ": " ^ Fuselike.Errno.to_string e));
  res

(* What one measured window hands back to main.ml. *)
type rep = {
  measure_host : float;  (* host CPU s of the measured window *)
  reads : float array;  (* latency, s, of every read VFS op *)
  writes : float array;  (* latency, s, of every write VFS op *)
  span : float;  (* modeled s from the window's start to its last op *)
  stall : float;  (* longest write stall, modeled s (Stats.longest_stall) *)
  attempted : int;  (* client ops in the window, open-loop writes included *)
  failed : int;
  digest : string;  (* over every raw sample: the modeled timeline's identity *)
  checks : (string * bool) list;
  layers : (string * float) list;  (* traced windows only *)
  notes : string list;  (* diagnostics for the report *)
  minor_words : float;  (* allocated during the measured window *)
}

let host_clock = Sys.time

(* Set-up and the measured window are separate steps, so main.ml can
   repeat set-up alone: [set_up] drains [setup] through the engine and
   returns its host time; [window] then runs [body] with recording on,
   timing it on the host clock and differencing the layer counters.
   Each starts from a collected heap, so neither pays for the garbage
   of whatever ran before it. *)
let set_up st setup =
  Gc.full_major ();
  let h0 = host_clock () in
  setup ();
  Engine.run st.Stack.engine;
  host_clock () -. h0

let window st body =
  Gc.full_major ();
  let before = Layers.snapshot st in
  Stack.set_recording st true;
  let w0 = Gc.minor_words () in
  let h0 = host_clock () in
  body ();
  Engine.run st.Stack.engine;
  let host = host_clock () -. h0 in
  let minor_words = Gc.minor_words () -. w0 in
  Stack.set_recording st false;
  (host, minor_words, Layers.delta ~before ~after:(Layers.snapshot st))

let finish st (rc : recorder) ~measure_host ~minor_words ~d ~window ~attempted ~failed
    ~stall_intervals ~checks ~notes =
  let stall = Stats.longest_stall stall_intervals in
  let reads = Fvec.to_array rc.reads and writes = Fvec.to_array rc.writes in
  let layers =
    match st.Stack.probe with
    | Some _ ->
      Layers.metrics st ~d ~ops:(Array.length reads + Array.length writes) ~client_ops:attempted
    | None -> []
  in
  let checks =
    checks
    @ [ ("no client op failed", failed = 0);
        ("child spans tile every VFS span",
         match st.Stack.probe with Some p -> p.Probe.tiling_violations = 0 | None -> true) ]
  in
  let digest =
    let b = Buffer.create 65536 in
    let add v = Buffer.add_string b (Printf.sprintf "%h;" v) in
    Array.iter add reads;
    Buffer.add_char b '|';
    Array.iter add writes;
    List.iter add [ window; stall ];
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  { measure_host; reads; writes; span = window; stall; attempted; failed; digest; checks;
    layers; minor_words;
    notes = notes @ (match rc.first_failure with Some f -> [ "first failure: " ^ f ] | None -> []) }

(* Every client computes for an exponential think time (this mean)
   before each measured op. Without it, identical service times lock a
   closed loop into a periodic convoy in which thousands of ops take
   bit-identical latencies whatever the seed. *)
let mdtest_think = 50e-6

(* {2 mdtest (mdtest-shared, power-fail)}

   The paper's six barrier-separated phases over the shared fan-out-10
   skeleton (Mdtest.Workload), each process visiting its items in a
   seeded order per phase. *)

let phase_op (ops : Vfs.ops) cfg phase ~proc ~item =
  let module W = Mdtest.Workload in
  let module R = Mdtest.Runner in
  let dir = W.dir_path cfg ~proc ~item and file = W.file_path cfg ~proc ~item in
  let unit r = Result.map ignore r in
  match phase with
  | R.Dir_create -> (Write, "mkdir", fun () -> ops.Vfs.mkdir dir ~mode:0o755)
  | R.Dir_stat -> (Read, "getattr", fun () -> unit (ops.Vfs.getattr dir))
  | R.Dir_remove -> (Write, "rmdir", fun () -> ops.Vfs.rmdir dir)
  | R.File_create -> (Write, "create", fun () -> ops.Vfs.create file ~mode:0o644)
  | R.File_stat -> (Read, "getattr", fun () -> unit (ops.Vfs.getattr file))
  | R.File_remove -> (Write, "unlink", fun () -> ops.Vfs.unlink file)

(* Mounts [procs] clients and builds the skeleton during set-up; returns
   the measured body. [on_phase] runs in process 0 right after each
   phase's barrier; [after_op] after every op of a process. *)
let mdtest st rc ~seed ~procs ~items ~on_phase ~after_op ~finished =
  let cfg = Mdtest.Workload.config ~dirs_per_proc:items ~files_per_proc:items ~procs () in
  let mounts = Array.make procs None in
  let t_start = ref 0. and t_end = ref 0. in
  let setup () =
    Process.spawn st.Stack.engine (fun () ->
        for proc = 0 to procs - 1 do
          mounts.(proc) <- Some (Stack.mount st ~proc)
        done;
        let ops, _ = Option.get mounts.(0) in
        List.iter
          (fun dir ->
            match ops.Vfs.mkdir dir ~mode:0o755 with
            | Ok () -> ()
            | Error e -> failwith ("skeleton " ^ dir ^ ": " ^ Fuselike.Errno.to_string e))
          (Mdtest.Workload.skeleton cfg))
  in
  let body () =
    let barrier = Barrier.create ~parties:procs () in
    for proc = 0 to procs - 1 do
      let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int ((proc + 1) * 7919))) in
      Process.spawn st.Stack.engine (fun () ->
          let ops, ctx = Option.get mounts.(proc) in
          Barrier.await barrier;
          if proc = 0 then t_start := Stack.now st;
          List.iter
            (fun phase ->
              if proc = 0 then on_phase phase;
              let order = Array.init items Fun.id in
              Rng.shuffle rng order;
              Array.iter
                (fun item ->
                  Process.sleep (Rng.exponential rng ~mean:mdtest_think);
                  let kind, label, f = phase_op ops cfg phase ~proc ~item in
                  ignore (call st rc ctx kind label f);
                  after_op phase)
                order;
              Barrier.await barrier)
            Mdtest.Runner.all_phases;
          if proc = 0 then begin
            t_end := Stack.now st;
            finished ()
          end)
    done
  in
  (cfg, setup, body, fun () -> !t_end -. !t_start)

let mdtest_census_expected cfg =
  (* the DUFS namespace root + skeleton + every file created *)
  1 + List.length (Mdtest.Workload.skeleton cfg) + Mdtest.Workload.total_files cfg

(* {3 mdtest-shared} *)

let mdtest_shared_procs = 128
let mdtest_shared_items = 10

let mdtest_shared ~seed ~traced =
  let procs = mdtest_shared_procs in
  let config =
    { (Scenarios.Systems.zk_config ~max_batch:16 ~servers:8 ~procs ()) with
      Zk.Ensemble.seed;
      max_inflight_batches = 8 }
  in
  let st = Stack.create ~traced { Stack.shards = 1; config; backends = 2; cache_capacity = None } in
  let rc = recorder () in
  let census = ref (-1) in
  let cfg, setup, body, span =
    mdtest st rc ~seed ~procs ~items:mdtest_shared_items
      ~on_phase:(fun phase ->
        if phase = Mdtest.Runner.File_stat then census := Stack.population st)
      ~after_op:(fun _ -> ())
      ~finished:ignore
  in
  let setup_host = set_up st setup in
  setup_host, fun () ->
  let measure_host, minor_words, d = window st body in
  let expected = mdtest_census_expected cfg in
  finish st rc ~measure_host ~minor_words ~d ~window:(span ())
    ~attempted:(rc.ok + rc.failed) ~failed:rc.failed ~stall_intervals:rc.intervals
    ~checks:
      [ ("znode census exact at the file-stat barrier", !census = expected);
        ("replica trees agree", Stack.replicas_agree st) ]
    ~notes:[ Printf.sprintf "census %d (expected %d)" !census expected ]

(* {3 cached-mix} *)

let mix_procs = 64
let mix_ops = 240
let mix_warmup = 40
let mix_dirs = 32
let mix_files = 32
let mix_capacity = 192
let mix_recorded = 8  (* client sessions checked by Zk.History *)
let mix_think = 1e-3
let mix_preloaders = 16

let mix_dir d = Printf.sprintf "/m/d%02d" d
let mix_file d f = Printf.sprintf "/m/d%02d/f%02d" d f

(* Zipf(1) over [n] items, ranks mapped through a seeded permutation so
   the hot set moves with the seed. *)
let skewed rng ~n =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  fun r ->
    let u = Rng.float r *. !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let cached_mix ~seed ~traced =
  let procs = mix_procs in
  let config =
    { (Scenarios.Systems.zk_config ~max_batch:16 ~servers:3 ~procs ()) with
      Zk.Ensemble.seed }
  in
  let st =
    Stack.create ~traced
      { Stack.shards = 2; config; backends = 1; cache_capacity = Some mix_capacity }
  in
  let rc = recorder () in
  let hist = Zk.History.create st.Stack.engine in
  let layout_rng = Rng.create ~seed:(Int64.add seed 31L) in
  let pick_file = skewed layout_rng ~n:(mix_dirs * mix_files) in
  let pick_dir = skewed layout_rng ~n:mix_dirs in
  let mounts = Array.make procs None in
  let own = Array.init procs (fun _ -> Queue.create ()) in
  let bad_listings = ref 0 in
  let t_start = ref 0. and t_end = ref 0. in
  let must what = function
    | Ok _ -> ()
    | Error e -> failwith (what ^ ": " ^ Fuselike.Errno.to_string e)
  in
  (* One op of the mix; warm-up ops (reads only) are not recorded. *)
  let mix_op ~proc rng ops ctx ~warm n =
    let r = Rng.int rng 100 in
    let run kind label f =
      if warm then ignore (f ()) else ignore (call st rc ctx kind label f)
    in
    if r < 60 then begin
      let i = pick_file rng in
      run Read "getattr" (fun () ->
          Result.map ignore (ops.Vfs.getattr (mix_file (i / mix_files) (i mod mix_files))))
    end
    else if r < 80 then
      run Read "getattr" (fun () -> Result.map ignore (ops.Vfs.getattr (mix_dir (pick_dir rng))))
    else if r < 90 || warm then
      run Read "readdir" (fun () ->
          let res = ops.Vfs.readdir (mix_dir (pick_dir rng)) in
          (match res with
           | Ok l when List.length l < mix_files -> incr bad_listings
           | _ -> ());
          Result.map ignore res)
    else if Rng.int rng 3 > 0 || Queue.is_empty own.(proc) then begin
      (* two creates per unlink: the write p50 then sits inside the
         create distribution, not in the gap between create and unlink *)
      let path = Printf.sprintf "%s/o%d.%d" (mix_dir (pick_dir rng)) proc n in
      Queue.push path own.(proc);
      run Write "create" (fun () -> ops.Vfs.create path ~mode:0o644)
    end
    else
      let path = Queue.pop own.(proc) in
      run Write "unlink" (fun () -> ops.Vfs.unlink path)
  in
  let rngs =
    Array.init procs (fun proc -> Rng.create ~seed:(Int64.add seed (Int64.of_int ((proc + 1) * 6007))))
  in
  let setup () =
    (* Preload through recorded sessions, so the checker sees the whole
       life of every register the sampled clients read. *)
    let dirs_done = Barrier.create ~parties:mix_preloaders () in
    let loaded = Barrier.create ~parties:(mix_preloaders + procs) () in
    for i = 0 to mix_preloaders - 1 do
      Process.spawn st.Stack.engine (fun () ->
          let ops, _ = Stack.mount st ~record:(hist, 1000 + i) ~proc:(procs + i) in
          if i = 0 then begin
            must "mkdir /m" (ops.Vfs.mkdir "/m" ~mode:0o755);
            for d = 0 to mix_dirs - 1 do
              must "mkdir" (ops.Vfs.mkdir (mix_dir d) ~mode:0o755)
            done
          end;
          Barrier.await dirs_done;
          for k = 0 to (mix_dirs * mix_files) - 1 do
            if k mod mix_preloaders = i then
              must "preload" (ops.Vfs.create (mix_file (k / mix_files) (k mod mix_files)) ~mode:0o644)
          done;
          Barrier.await loaded)
    done;
    for proc = 0 to procs - 1 do
      Process.spawn st.Stack.engine (fun () ->
          Barrier.await loaded;
          let record = if proc < mix_recorded then Some (hist, proc) else None in
          let ops, ctx = Stack.mount ?record st ~proc in
          mounts.(proc) <- Some (ops, ctx);
          for n = 1 to mix_warmup do
            mix_op ~proc rngs.(proc) ops ctx ~warm:true n
          done)
    done
  in
  let body () =
    let start = Barrier.create ~parties:procs () and stop = Barrier.create ~parties:procs () in
    for proc = 0 to procs - 1 do
      Process.spawn st.Stack.engine (fun () ->
          let ops, ctx = Option.get mounts.(proc) in
          Barrier.await start;
          if proc = 0 then t_start := Stack.now st;
          for n = 1 to mix_ops do
            Process.sleep (Rng.exponential rngs.(proc) ~mean:mix_think);
            mix_op ~proc rngs.(proc) ops ctx ~warm:false n
          done;
          Barrier.await stop;
          if proc = 0 then t_end := Stack.now st)
    done
  in
  let setup_host = set_up st setup in
  setup_host, fun () ->
  let measure_host, minor_words, d = window st body in
  let violations = Zk.History.check hist in
  let own_alive = Array.fold_left (fun n q -> n + Queue.length q) 0 own in
  let expected = 2 + mix_dirs + (mix_dirs * mix_files) + own_alive in
  let population = Stack.population st in
  finish st rc ~measure_host ~minor_words ~d ~window:(!t_end -. !t_start)
    ~attempted:(rc.ok + rc.failed) ~failed:rc.failed ~stall_intervals:rc.intervals
    ~checks:
      [ ("sampled sessions linearizable (Zk.History)", violations = []);
        ("every listing holds the preloaded files", !bad_listings = 0);
        ("znode census exact after the mix", population = expected);
        ("replica trees agree", Stack.replicas_agree st) ]
    ~notes:
      [ Printf.sprintf "history: %d ops recorded, %d checked, %d violations"
          (Zk.History.recorded hist) (Zk.History.checked_ops hist) (List.length violations);
        Printf.sprintf "census %d (expected %d)" population expected ]

(* {3 power-fail} *)

let pf_procs = 64
let pf_items = 12
let pf_servers = 5
let pf_writers = 8
let pf_period = 0.01  (* each open-loop writer: one write due every 10 ms *)
let pf_outage = 1.0

let reg_path k = Printf.sprintf "/reg%d/r" k

let power_fail ~seed ~traced =
  let procs = pf_procs in
  let config =
    { (Scenarios.Systems.zk_config ~servers:pf_servers ~procs ()) with
      Zk.Ensemble.seed;
      request_timeout = 0.5;
      retry_backoff = 0.05;
      retry_backoff_cap = 1.0;
      session_timeout = 8.0;
      fail_fast_after = 2.0;
      snapshot_every = 384 }
  in
  let st = Stack.create ~traced { Stack.shards = 1; config; backends = 2; cache_capacity = None } in
  let ens = (Stack.ensembles st).(0) in
  let rc = recorder () in
  let hist = Zk.History.create st.Stack.engine in
  let fault_rng = Rng.create ~seed:(Int64.add seed 977L) in
  let total_creates = procs * pf_items in
  let crash_after =
    int_of_float (float_of_int total_creates *. (0.35 +. (0.3 *. Rng.float fault_rng)))
  in
  let victim = Rng.int fault_rng pf_servers in
  let creates_done = ref 0 and t_off = ref Float.nan in
  let power_off () =
    t_off := Stack.now st;
    let ids = Zk.Ensemble.member_ids ens in
    List.iter (Zk.Ensemble.crash ens) ids;
    Engine.schedule st.Stack.engine ~delay:(pf_outage /. 2.) (fun () ->
        Zk.Ensemble.tear_wal_tail ens victim);
    Engine.schedule st.Stack.engine ~delay:pf_outage (fun () ->
        List.iter (Zk.Ensemble.restart ens) ids)
  in
  let mdtest_done = ref false and recovered = ref false in
  let reg_intervals = ref [] and reg_ok = ref 0 and reg_failed = ref 0 in
  let late_max = ref 0. in
  let probe_write () =
    let s = ref (Zk.Ensemble.session ens ()) in
    let rec go attempt =
      if attempt <= 200 then
        match (!s).Zk.Zk_client.create (Printf.sprintf "/probe%d" attempt) ~data:"" with
        | Ok _ -> recovered := true
        | Error Zk.Zerror.ZSESSIONEXPIRED ->
          s := Zk.Ensemble.session ens ();
          Process.sleep 0.05;
          go (attempt + 1)
        | Error _ ->
          Process.sleep 0.05;
          go (attempt + 1)
    in
    go 1
  in
  let _, mdtest_setup, mdtest_body, span =
    mdtest st rc ~seed ~procs ~items:pf_items
      ~on_phase:(fun _ -> ())
      ~after_op:(fun phase ->
        if phase = Mdtest.Runner.File_create then begin
          incr creates_done;
          if !creates_done = crash_after then
            Engine.schedule st.Stack.engine ~delay:0. power_off
        end)
      ~finished:(fun () ->
        mdtest_done := true;
        probe_write ())
  in
  let setup () =
    mdtest_setup ();
    Process.spawn st.Stack.engine (fun () ->
        let s = Zk.Ensemble.session ens () in
        for k = 0 to pf_writers - 1 do
          match s.Zk.Zk_client.create (Printf.sprintf "/reg%d" k) ~data:"" with
          | Ok _ -> ()
          | Error e -> failwith ("register dir: " ^ Zk.Zerror.to_string e)
        done)
  in
  (* Open-loop register writers: write n of writer i is due at
     start + phase_i + n * period, and timed from that due instant, so
     writes due while the ensemble is dark carry the outage. *)
  let writers () =
    for i = 0 to pf_writers - 1 do
      let rng = Rng.create ~seed:(Int64.add seed (Int64.of_int ((i + 1) * 104729))) in
      Process.spawn st.Stack.engine (fun () ->
          let h = ref (Zk.History.wrap hist ~client:i (Zk.Ensemble.session ens ())) in
          let start = Stack.now st +. (Rng.float rng *. pf_period) in
          let n = ref 0 in
          while not !mdtest_done do
            let due = start +. (float_of_int !n *. pf_period) in
            incr n;
            let now = Stack.now st in
            if due > now then Process.sleep (due -. now)
            else late_max := Float.max !late_max (now -. due);
            let reg = reg_path (Rng.int rng pf_writers) in
            let data = Printf.sprintf "%d.%d" i !n in
            let outcome =
              match Rng.int rng 100 with
              | x when x < 40 -> Result.map ignore ((!h).Zk.Zk_client.create reg ~data)
              | x when x < 75 -> (!h).Zk.Zk_client.set reg ~data
              | _ -> (!h).Zk.Zk_client.delete reg
            in
            let ok =
              match outcome with
              | Ok () | Error (Zk.Zerror.ZNONODE | Zk.Zerror.ZNODEEXISTS) -> true
              | Error Zk.Zerror.ZSESSIONEXPIRED ->
                h := Zk.History.wrap hist ~client:i (Zk.Ensemble.session ens ());
                false
              | Error _ -> false
            in
            if ok then incr reg_ok else incr reg_failed;
            reg_intervals := (due, Stack.now st, ok) :: !reg_intervals
          done;
          (!h).Zk.Zk_client.close ())
    done
  in
  let body () =
    mdtest_body ();
    writers ()
  in
  let setup_host = set_up st setup in
  setup_host, fun () ->
  let measure_host, minor_words, d = window st body in
  let violations = Zk.History.check ~max_states:2_000_000 hist in
  let lookup path =
    match Zk.Ztree.get (Stack.leader_tree ens) path with
    | Ok (data, _) -> Some data
    | Error _ -> None
  in
  let durability = Zk.History.durability_audit hist ~lookup in
  let intervals = rc.intervals @ !reg_intervals in
  let first_after =
    List.fold_left
      (fun acc (start, stop, ok) -> if ok && start >= !t_off then Float.min acc stop else acc)
      infinity intervals
  in
  let rep =
    finish st rc ~measure_host ~minor_words ~d ~window:(span ())
      ~attempted:(rc.ok + rc.failed + !reg_ok + !reg_failed)
      ~failed:(rc.failed + !reg_failed) ~stall_intervals:intervals
      ~checks:
        [ ("power-off fired mid-file-create", not (Float.is_nan !t_off));
          ("service recovered (probe write committed)", !recovered);
          ("register history linearizable", violations = []);
          ("durability audit clean", durability = []);
          ("replica trees agree", Stack.replicas_agree st) ]
      ~notes:
        [ Printf.sprintf "power-off at %.6f s after %d creates, victim %d torn; \
                          first write issued after it succeeded %.6f s later"
            !t_off crash_after victim (first_after -. !t_off);
          Printf.sprintf "register writes: %d ok, %d failed, %d audited, open-loop lag max %.3f ms"
            !reg_ok !reg_failed (Zk.History.audited_paths hist) (1e3 *. !late_max) ]
  in
  if traced then { rep with layers = rep.layers @ [ ("openloop.late_ms_max", 1e3 *. !late_max) ] }
  else rep

(* Each workload with the number of windows, each from its own sub-seed
   of [--seed], whose samples are pooled into the modeled metrics. *)
let all =
  [ ("mdtest-shared", (16, mdtest_shared)); ("cached-mix", (8, cached_mix));
    ("power-fail", (8, power_fail)) ]
