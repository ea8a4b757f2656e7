module Engine = Simkit.Engine
module Process = Simkit.Process
module Mailbox = Simkit.Mailbox
module Net = Simkit.Net
module Rng = Simkit.Rng

type result = {
  mix : string;              (* timer / mailbox / net *)
  actors : int;              (* concurrent timers / workers / flows *)
  events_executed : int;     (* engine events per run (deterministic) *)
  virtual_s : float;         (* final virtual clock of one run *)
  ns_per_event : float;      (* wall nanoseconds per engine event *)
  events_per_sec : float;    (* wall-clock engine throughput *)
  minor_words_per_event : float;  (* the zero-alloc-quiet-path meter *)
  deterministic : bool;      (* a second run replayed the same digest *)
}

(* Every mix returns (executed events, final virtual clock) — the replay
   digest. All randomness is seeded, so two runs of the same mix must
   return identical digests. *)

(* {2 timer: the future-event queue under high occupancy}

   [outstanding] timers are always armed; each firing re-arms itself at
   an exponential offset. The pending queue therefore sits at
   ~[outstanding] entries for the whole run — the regime where a binary
   heap pays its log factor on every single event. *)
let timer_mix ~outstanding ~events () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:0x7153e5L in
  let budget = ref events in
  let rec arm () =
    if !budget > 0 then begin
      decr budget;
      Engine.schedule e ~delay:(Rng.exponential rng ~mean:1e-3) arm
    end
  in
  for _ = 1 to outstanding do
    arm ()
  done;
  Engine.run e;
  (Engine.executed_events e, Engine.now e)

(* {2 mailbox: delay-0 group-commit fan-out/fan-in}

   One coordinator broadcasts a batch of [batch] messages to each of
   [workers] parked processes and gathers their batched replies, round
   after round — the shape of ZAB group commit ([batch] mirrors the
   repo's [max_batch = 16] config): each wake drains a burst from the
   inbox and pushes a burst of replies. All traffic is [delay:0.];
   virtual time never advances, so the whole run exercises the
   zero-delay lane, suspend/resume, and mailbox queueing. *)
let mailbox_mix ~workers ~events () =
  let batch = 16 in
  let e = Engine.create () in
  let to_w = Array.init workers (fun _ -> Mailbox.create ()) in
  let from_w = Mailbox.create () in
  (* one round ≈ 1 event per worker (its wake; coordinator wakes
     amortize away) carrying ~2*batch messages *)
  let rounds = max 1 (events / workers) in
  for i = 0 to workers - 1 do
    Process.spawn e (fun () ->
        for _ = 1 to rounds do
          for _ = 1 to batch do
            ignore (Mailbox.recv to_w.(i))
          done;
          for b = 1 to batch do
            Mailbox.send from_w (b + i)
          done
        done)
  done;
  Process.spawn e (fun () ->
      for _ = 1 to rounds do
        for i = 0 to workers - 1 do
          for b = 1 to batch do
            Mailbox.send to_w.(i) b
          done
        done;
        for _ = 1 to workers * batch do
          ignore (Mailbox.recv from_w)
        done
      done);
  Engine.run e;
  (Engine.executed_events e, Engine.now e)

(* {2 net: fault-active message flows}

   [flows] independent flows send to random endpoints through a network
   with every probabilistic fault knob live plus periodic partition
   churn — the event profile of a chaos run: latency draws, fault draws,
   duplicated deliveries, and timer-driven resends interleaved. *)
let net_mix ~flows ~events () =
  let e = Engine.create () in
  let net = Net.create ~default_latency:(Net.Uniform_lat (2e-4, 8e-4)) ~seed:0x9e7a1L e in
  let n_eps = 24 in
  let eps = Array.init n_eps (fun _ -> Net.endpoint net) in
  Net.set_drop net 0.02;
  Net.set_duplicate net 0.01;
  Net.set_reorder net ~p:0.05 ~window:2e-3;
  Net.set_extra_delay net 1e-4;
  let rng = Rng.create ~seed:0x51a9L in
  let budget = ref events in
  let rec churn healed =
    if !budget > 0 then begin
      (if healed then Net.partition net [ [ eps.(Rng.int rng n_eps) ] ]
       else Net.heal net);
      Engine.schedule e ~delay:0.05 (fun () -> churn (not healed))
    end
  in
  churn true;
  let rec flow src =
    if !budget > 0 then begin
      decr budget;
      Net.send net ~src:eps.(src) ~dst:eps.(Rng.int rng n_eps) ignore;
      Engine.schedule e ~delay:(Rng.exponential rng ~mean:5e-4) (fun () -> flow src)
    end
  in
  for f = 1 to flows do
    flow (f mod n_eps)
  done;
  Engine.run e;
  (Engine.executed_events e, Engine.now e)

let mixes ~events =
  [ ("timer", 4096, timer_mix ~outstanding:4096 ~events);
    ("mailbox", 2048, mailbox_mix ~workers:2048 ~events);
    ("net", 512, net_mix ~flows:512 ~events) ]

(* Allocation per event, measured over one whole run. Gc.minor_words is
   a process-global accumulator; single-threaded, so the delta is ours. *)
let minor_words_of run executed =
  let before = Gc.minor_words () in
  ignore (run ());
  (Gc.minor_words () -. before) /. float_of_int executed

let bechamel_ns_per_run ~quota_s ~name run =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage (fun () -> ignore (run ()))) in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota_s) ~kde:None
      ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
  let analyzed = Analyze.all ols instance raw in
  let estimate = ref nan in
  Hashtbl.iter
    (fun _ result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> estimate := ns
      | Some _ | None -> ())
    analyzed;
  if Float.is_finite !estimate then !estimate
  else failwith (Printf.sprintf "Engine_bench: no OLS estimate for %s" name)

let run_data ?(events = 1_000_000) ?(quota_s = 2.0) () =
  List.map
    (fun (name, actors, mix) ->
      (* replay digest: the same seeded mix twice must agree *)
      let executed, virtual_s = mix () in
      let executed', virtual_s' = mix () in
      let minor_words = minor_words_of mix executed in
      let ns_per_run = bechamel_ns_per_run ~quota_s ~name mix in
      let ns_per_event = ns_per_run /. float_of_int executed in
      { mix = name;
        actors;
        events_executed = executed;
        virtual_s;
        ns_per_event;
        events_per_sec = 1e9 /. ns_per_event;
        minor_words_per_event = minor_words;
        deterministic = executed = executed' && virtual_s = virtual_s' })
    (mixes ~events)

(* Development-machine smoke runs reach 1.6-3.9M events/sec per mix; a
   shared CI runner gets an order of magnitude of slack before this
   trips, so a failure means a real regression, not noise. *)
let floor_events_per_sec = 250_000.

let check ~events r =
  List.concat
    [ Mdtest.Report.expect r.deterministic
        "%s: replay digest differs between two runs of the same seed" r.mix;
      Mdtest.Report.expect (r.events_executed >= events)
        "%s: %d events executed, fewer than the %d requested" r.mix
        r.events_executed events;
      Mdtest.Report.expect (r.events_per_sec >= floor_events_per_sec)
        "%s: %.0f events/sec below the %.0f floor" r.mix r.events_per_sec
        floor_events_per_sec ]

let run ?(events = 1_000_000) ?quota_s () =
  Mdtest.Report.print_header "Engine throughput: wall-clock events/sec per mix";
  let results = run_data ~events ?quota_s () in
  Printf.printf "  %-10s %8s %12s %12s %14s %10s\n" "mix" "actors" "events"
    "ns/event" "events/sec" "words/ev";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %8d %12d %12.1f %14.0f %10.1f\n" r.mix r.actors
        r.events_executed r.ns_per_event r.events_per_sec
        r.minor_words_per_event)
    results;
  flush stdout;
  ( List.map
      (fun r ->
        Mdtest.Report.point
          ~experiment:("engine-" ^ r.mix)
          ~procs:r.actors
          ~config:(Printf.sprintf "events=%d|queue=calendar+fifo" r.events_executed)
          ~ops_per_sec:r.events_per_sec
          ~phases:
            [ ("events_executed", float_of_int r.events_executed);
              ("ns_per_event", r.ns_per_event);
              ("virtual_s", r.virtual_s);
              ("minor_words_per_event", r.minor_words_per_event) ]
          ())
      results,
    List.concat_map (check ~events) results )
