(* Unit and property tests for the discrete-event simulation substrate. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Resource = Simkit.Resource
module Mailbox = Simkit.Mailbox
module Gate = Simkit.Gate
module Rng = Simkit.Rng
module Stat = Simkit.Stat

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {2 Engine} *)

let test_initial_state () =
  let e = Engine.create () in
  check_float "time starts at 0" 0. (Engine.now e);
  check_int "no pending events" 0 (Engine.pending_events e);
  check_int "no executed events" 0 (Engine.executed_events e)

let test_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_on_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among equal timestamps"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:0.5 (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule e ~delay:1.5 (fun () -> seen := Engine.now e :: !seen);
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "clock at event times" [ 0.5; 1.5 ]
    (List.rev !seen)

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0. in
  Engine.schedule e ~delay:1. (fun () ->
      Engine.schedule e ~delay:1. (fun () -> fired := Engine.now e));
  Engine.run e;
  check_float "relative to current event" 2. !fired

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    Engine.schedule e ~delay:1. (fun () -> incr count)
  done;
  Engine.schedule e ~delay:10. (fun () -> incr count);
  Engine.run ~until:5. e;
  check_int "later event not run" 5 !count;
  check_float "clock clamped to horizon" 5. (Engine.now e);
  check_int "event still pending" 1 (Engine.pending_events e)

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1. (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  check_int "stopped after third event" 3 !count;
  Engine.run e;
  check_int "run resumes" 10 !count

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: bad delay -1") (fun () ->
      Engine.schedule e ~delay:(-1.) ignore)

let test_past_schedule_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5. ignore;
  Engine.run e;
  Alcotest.check_raises "absolute time in the past"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      Engine.schedule_at e ~time:1. ignore)

let test_executed_counter () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule e ~delay:1. ignore
  done;
  Engine.run e;
  check_int "executed count" 7 (Engine.executed_events e)

let prop_heap_order =
  QCheck2.Test.make ~name:"events always pop in nondecreasing time order" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0. 100.))
    (fun delays ->
      let e = Engine.create () in
      let times = ref [] in
      List.iter
        (fun d -> Engine.schedule e ~delay:d (fun () -> times := Engine.now e :: !times))
        delays;
      Engine.run e;
      let ordered = List.rev !times in
      List.length ordered = List.length delays
      && List.for_all2 ( <= ) ordered (List.sort compare delays))

(* [run ~until] + [stop] interplay: a horizon exit clamps the clock to
   the horizon, a [stop] exit leaves it at the last executed event, and
   a later [run] resumes cleanly from either. *)
let test_stop_under_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule_at e ~time:(float_of_int i) (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run ~until:7.5 e;
  check_int "stopped after third event" 3 !count;
  check_float "stop leaves clock at last event, not horizon" 3. (Engine.now e);
  Engine.run ~until:7.5 e;
  check_int "resume runs up to horizon" 7 !count;
  check_float "horizon exit clamps clock" 7.5 (Engine.now e);
  Engine.run e;
  check_int "all events eventually run" 10 !count;
  check_float "clock at final event" 10. (Engine.now e)

let test_run_until_empty_queue () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1. ignore;
  Engine.run ~until:5. e;
  check_float "idle run still advances to horizon" 5. (Engine.now e);
  Engine.run ~until:3. e;
  check_float "earlier horizon does not rewind" 5. (Engine.now e)

(* Dispatch-order oracle: a reference engine whose pending queue is an
   explicit (time, seq)-sorted list — insertion keeps ties in schedule
   order, exactly the binary-heap contract the calendar queue + FIFO
   lane must preserve. Both engines execute the same two-level scenario
   (roots at absolute times, children at relative offsets, many of them
   exactly 0 to land in the zero-delay lane) and must produce identical
   (time, tag) traces. *)
module Ref_engine = struct
  type ev = { time : float; seq : int; fire : unit -> unit }

  type t = {
    mutable now : float;
    mutable seq : int;
    mutable pending : ev list;  (* sorted by (time, seq) *)
  }

  let create () = { now = 0.; seq = 0; pending = [] }

  let schedule_at t ~time fire =
    let ev = { time; seq = t.seq; fire } in
    t.seq <- t.seq + 1;
    let rec insert = function
      | [] -> [ ev ]
      | e :: rest ->
        if e.time > ev.time then ev :: e :: rest else e :: insert rest
    in
    t.pending <- insert t.pending

  let rec run t =
    match t.pending with
    | [] -> ()
    | ev :: rest ->
      t.pending <- rest;
      t.now <- ev.time;
      ev.fire ();
      run t
end

let prop_matches_reference_heap =
  let gen_offset =
    QCheck2.Gen.(
      oneof [ return 0.; float_range 0. 1.; return 0.; float_range 0. 0.01 ])
  in
  let gen_scenario =
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (float_range 0. 10.) (list_size (int_range 0 3) gen_offset)))
  in
  QCheck2.Test.make
    ~name:"dispatch order identical to reference (time, seq) heap" ~count:200
    gen_scenario
    (fun scenario ->
      let trace schedule_at now =
        let log = ref [] in
        List.iteri
          (fun i (t0, kids) ->
            schedule_at t0 (fun () ->
                log := (now (), (i, -1)) :: !log;
                List.iteri
                  (fun j off ->
                    schedule_at (now () +. off) (fun () ->
                        log := (now (), (i, j)) :: !log))
                  kids))
          scenario;
        log
      in
      let e = Engine.create () in
      let log_e = trace (fun t f -> Engine.schedule_at e ~time:t f)
          (fun () -> Engine.now e) in
      Engine.run e;
      let r = Ref_engine.create () in
      let log_r = trace (fun t f -> Ref_engine.schedule_at r ~time:t f)
          (fun () -> r.Ref_engine.now) in
      Ref_engine.run r;
      List.rev !log_e = List.rev !log_r)

(* {2 Timers} *)

let test_cancelled_timer_never_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule_timer e ~delay:2. (fun () -> fired := true) in
  Engine.schedule e ~delay:1. (fun () -> Engine.cancel e timer);
  Engine.run e;
  check_bool "cancelled timer did not fire" false !fired;
  check_float "clock stops at the last live event" 1. (Engine.now e);
  check_int "only the canceller executed" 1 (Engine.executed_events e);
  check_int "nothing pending" 0 (Engine.pending_events e)

let test_cancel_after_fire_is_noop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let timer = Engine.schedule_timer e ~delay:1. (fun () -> incr fired) in
  let later = ref false in
  Engine.schedule e ~delay:2. (fun () -> later := true);
  Engine.run ~until:1.5 e;
  check_int "timer fired once" 1 !fired;
  Engine.cancel e timer;
  check_int "later event still pending" 1 (Engine.pending_events e);
  Engine.run e;
  check_bool "later event ran" true !later;
  check_int "timer did not fire again" 1 !fired

(* A fired timer's record goes back to the free list and is reused by
   the next calendar event; the stale handle must not withdraw it. *)
let test_stale_handle_after_recycle () =
  let e = Engine.create () in
  let timer = Engine.schedule_timer e ~delay:1. ignore in
  Engine.run e;
  let fired = ref false in
  Engine.schedule e ~delay:1. (fun () -> fired := true);
  let again = Engine.schedule_timer e ~delay:1. ignore in
  Engine.cancel e timer;
  check_int "reused records untouched" 2 (Engine.pending_events e);
  Engine.cancel e again;
  Engine.cancel e again;
  check_int "double cancel withdraws once" 1 (Engine.pending_events e);
  Engine.run e;
  check_bool "event on the recycled record ran" true !fired

(* Equal-time events share a bucket and append at its tail in O(1);
   cancelling the tail must move the tail back, or later appends would
   hang off the withdrawn record and vanish. *)
let test_cancel_tail_keeps_appends () =
  let e = Engine.create () in
  let log = ref [] in
  let at i () = log := i :: !log in
  Engine.schedule_at e ~time:1. (at 0);
  Engine.schedule_at e ~time:1. (at 1);
  let tail = Engine.schedule_timer e ~delay:1. (at 99) in
  Engine.cancel e tail;
  Engine.schedule_at e ~time:1. (at 2);
  Engine.schedule_at e ~time:1. (at 3);
  let head = Engine.schedule_timer e ~delay:1. (at 98) in
  Engine.schedule_at e ~time:1. (at 4);
  Engine.cancel e head;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order without the cancelled timers"
    [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_bad_timer_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "zero delay"
    (Invalid_argument "Engine.schedule_timer: bad delay 0") (fun () ->
      ignore (Engine.schedule_timer e ~delay:0. ignore))

(* Random mixes of [schedule_at], [schedule_timer] and [cancel]: the pop
   trace equals the reference engine's with the cancelled events left
   out, and [pending_events] counts exactly the live events after every
   step. A second batch of operations runs from inside an event at a
   random time, so its cancels also meet timers that already fired and
   records that were recycled. *)
type timer_op =
  | At of float  (* absolute time; an offset from now inside the run *)
  | Timer of float  (* positive delay *)
  | Cancel of int  (* index into the timers armed so far *)

let prop_timers_match_reference =
  let gen_op =
    QCheck2.Gen.(
      frequency
        [ ( 3,
            map (fun t -> At t)
              (oneof [ float_range 0. 5.; map float_of_int (int_range 0 5) ]) );
          (3, map (fun d -> Timer d) (oneof [ float_range 0.001 5.; return 1. ]));
          (2, map (fun i -> Cancel i) (int_range 0 30)) ])
  in
  let gen_ops n = QCheck2.Gen.(list_size (int_range 0 n) gen_op) in
  QCheck2.Test.make ~name:"timers and cancel match the reference heap"
    ~count:300
    QCheck2.Gen.(triple (gen_ops 60) (float_range 0. 5.) (gen_ops 20))
    (fun (ops, at, nested) ->
      let e = Engine.create () in
      let log = ref [] and live = ref 0 and exact = ref true in
      let timers = ref [||] and cancelled = Hashtbl.create 16 in
      let tag = ref 0 in
      let apply ~in_run op =
        let id = !tag in
        incr tag;
        let fire () =
          decr live;
          log := (Engine.now e, id) :: !log
        in
        (match op with
         | At time ->
           let time = if in_run then Engine.now e +. time else time in
           Engine.schedule_at e ~time fire;
           incr live
         | Timer delay ->
           timers := Array.append !timers [| (Engine.schedule_timer e ~delay fire, id) |];
           incr live
         | Cancel i when Array.length !timers > 0 ->
           let timer, tid = !timers.(i mod Array.length !timers) in
           let fired = List.exists (fun (_, x) -> x = tid) !log in
           if not (fired || Hashtbl.mem cancelled tid) then begin
             Hashtbl.replace cancelled tid ();
             decr live
           end;
           Engine.cancel e timer
         | Cancel _ -> ());
        if Engine.pending_events e <> !live then exact := false
      in
      List.iter (apply ~in_run:false) ops;
      Engine.schedule_at e ~time:at (fun () ->
          decr live;
          List.iter (apply ~in_run:true) nested);
      incr live;
      Engine.run e;
      (* the reference runs every timer and drops the cancelled ones'
         entries from its trace *)
      let r = Ref_engine.create () in
      let rlog = ref [] and rtag = ref 0 in
      let rapply ~in_run op =
        let id = !rtag in
        incr rtag;
        let fire () =
          if not (Hashtbl.mem cancelled id) then
            rlog := (r.Ref_engine.now, id) :: !rlog
        in
        match op with
        | At time ->
          let time = if in_run then r.Ref_engine.now +. time else time in
          Ref_engine.schedule_at r ~time fire
        | Timer delay ->
          Ref_engine.schedule_at r ~time:(r.Ref_engine.now +. delay) fire
        | Cancel _ -> ()
      in
      List.iter (rapply ~in_run:false) ops;
      Ref_engine.schedule_at r ~time:at (fun () ->
          List.iter (rapply ~in_run:true) nested);
      Ref_engine.run r;
      !exact && Engine.pending_events e = 0 && List.rev !log = List.rev !rlog)

(* {2 Processes} *)

let test_sleep_advances_time () =
  let e = Engine.create () in
  let finished = ref 0. in
  Process.spawn e (fun () ->
      Process.sleep 1.;
      Process.sleep 2.;
      finished := Engine.now e);
  Engine.run e;
  check_float "sleeps accumulate" 3. !finished

let test_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  Process.spawn e (fun () ->
      Process.sleep 1.;
      log := "a1" :: !log;
      Process.sleep 2.;
      log := "a3" :: !log);
  Process.spawn e (fun () ->
      Process.sleep 2.;
      log := "b2" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "interleaved by time" [ "a1"; "b2"; "a3" ]
    (List.rev !log)

let test_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref (fun () -> ()) in
  let state = ref "init" in
  Process.spawn e (fun () ->
      Process.suspend (fun resume -> resumer := resume);
      state := "resumed");
  Engine.run e;
  Alcotest.(check string) "parked" "init" !state;
  !resumer ();
  Engine.run e;
  Alcotest.(check string) "resumed" "resumed" !state

let test_suspend_v_carries_value () =
  let e = Engine.create () in
  let send = ref (fun (_ : int) -> ()) in
  let got = ref 0 in
  Process.spawn e (fun () -> got := Process.suspend_v (fun resume -> send := resume));
  Engine.run e;
  !send 42;
  Engine.run e;
  check_int "value delivered" 42 !got

let test_double_resume_rejected () =
  let e = Engine.create () in
  let resumer = ref (fun () -> ()) in
  Process.spawn e (fun () -> Process.suspend (fun resume -> resumer := resume));
  Engine.run e;
  !resumer ();
  Alcotest.check_raises "double resume" (Invalid_argument "Process: double resume")
    (fun () -> !resumer ())

let test_process_failure_surfaces () =
  let e = Engine.create () in
  Process.spawn e (fun () -> failwith "boom");
  (match Engine.run e with
   | () -> Alcotest.fail "expected Process_failure"
   | exception Process.Process_failure (Failure msg) ->
     Alcotest.(check string) "original exception kept" "boom" msg)

let test_engine_accessor () =
  let e = Engine.create () in
  let ok = ref false in
  Process.spawn e (fun () ->
      Process.sleep 0.25;
      ok := Process.now () = 0.25 && Process.engine () == e);
  Engine.run e;
  check_bool "engine and now visible inside process" true !ok

(* {2 Resources} *)

let test_resource_capacity () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:2 () in
  let concurrent = ref 0 in
  let peak = ref 0 in
  for _ = 1 to 5 do
    Process.spawn e (fun () ->
        Resource.with_slot r (fun () ->
            incr concurrent;
            peak := max !peak !concurrent;
            Process.sleep 1.;
            decr concurrent))
  done;
  Engine.run e;
  check_int "never above capacity" 2 !peak;
  check_float "three waves of service" 3. (Engine.now e)

let test_resource_fifo () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:1 () in
  let order = ref [] in
  for i = 0 to 4 do
    Process.spawn e (fun () ->
        Resource.serve r 1.;
        order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO grants" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_resource_exception_releases () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:1 () in
  let second_ran = ref false in
  Process.spawn e (fun () ->
      (try Resource.with_slot r (fun () -> raise Exit) with Exit -> ()));
  Process.spawn e (fun () -> Resource.with_slot r (fun () -> second_ran := true));
  Engine.run e;
  check_bool "slot released on exception" true !second_ran;
  check_int "nothing held" 0 (Resource.in_use r)

let test_release_unheld_rejected () =
  let r = Resource.create ~capacity:1 () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Resource.release: not held") (fun () -> Resource.release r)

let test_queue_length () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:1 () in
  let seen = ref (-1) in
  for i = 0 to 3 do
    Process.spawn e (fun () ->
        if i = 3 then seen := Resource.queue_length r;
        Resource.serve r 1.)
  done;
  Engine.run e;
  check_int "two were queued when the fourth arrived" 2 !seen

let test_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Resource.create: capacity < 1")
    (fun () -> ignore (Resource.create ~capacity:0 ()))

(* {2 Mailboxes} *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Process.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Process.spawn e (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run e;
  Alcotest.(check (list int)) "messages in order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocks_until_send () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let received_at = ref 0. in
  Process.spawn e (fun () ->
      ignore (Mailbox.recv mb);
      received_at := Engine.now e);
  Process.spawn e (fun () ->
      Process.sleep 5.;
      Mailbox.send mb ());
  Engine.run e;
  check_float "receiver waited" 5. !received_at

let test_mailbox_multiple_receivers () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Process.spawn e (fun () -> sum := !sum + Mailbox.recv mb)
  done;
  Process.spawn e (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 10;
      Mailbox.send mb 100);
  Engine.run e;
  check_int "each got one" 111 !sum

let test_mailbox_recv_opt () =
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.recv_opt mb);
  Mailbox.send mb 7;
  Alcotest.(check (option int)) "nonempty" (Some 7) (Mailbox.recv_opt mb);
  check_bool "drained" true (Mailbox.is_empty mb)

let test_mailbox_clear () =
  let mb = Mailbox.create () in
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  Mailbox.clear mb;
  check_bool "cleared" true (Mailbox.is_empty mb);
  Alcotest.(check (option int)) "nothing left" None (Mailbox.recv_opt mb);
  (* still usable afterwards *)
  Mailbox.send mb 3;
  Alcotest.(check (option int)) "post-clear send" (Some 3) (Mailbox.recv_opt mb)

let drain mb =
  let rec go acc =
    match Mailbox.recv_opt mb with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

let test_take_if_scans () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.send mb) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (option int)) "first even, not head" (Some 2)
    (Mailbox.take_if mb (fun x -> x mod 2 = 0));
  Alcotest.(check (option int)) "no match leaves queue alone" None
    (Mailbox.take_if mb (fun x -> x > 100));
  Alcotest.(check (list int)) "rest keeps FIFO order" [ 1; 3; 4; 5 ] (drain mb)

let test_take_if_wrapped_ring () =
  let mb = Mailbox.create () in
  (* rotate the ring so the live span wraps the end of the array
     (initial capacity 8), then take from the wrapped region *)
  for i = 1 to 8 do Mailbox.send mb i done;
  for _ = 1 to 5 do ignore (Mailbox.recv_opt mb) done;
  for i = 9 to 13 do Mailbox.send mb i done;
  Alcotest.(check (option int)) "match deep in wrapped span" (Some 12)
    (Mailbox.take_if mb (fun x -> x = 12));
  Alcotest.(check (list int)) "survivors in order" [ 6; 7; 8; 9; 10; 11; 13 ]
    (drain mb)

let test_take_head_if () =
  let mb = Mailbox.create () in
  List.iter (Mailbox.send mb) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "non-matching head blocks" None
    (Mailbox.take_head_if mb (fun x -> x = 2));
  Alcotest.(check (option int)) "matching head pops" (Some 1)
    (Mailbox.take_head_if mb (fun x -> x = 1));
  Alcotest.(check (list int)) "rest untouched" [ 2; 3 ] (drain mb)

(* {2 Barriers} *)

let test_barrier_synchronizes () =
  let e = Engine.create () in
  let b = Gate.Barrier.create ~parties:3 () in
  let releases = ref [] in
  List.iter
    (fun d ->
      Process.spawn e (fun () ->
          Process.sleep d;
          Gate.Barrier.await b;
          releases := Engine.now e :: !releases))
    [ 1.; 2.; 3. ];
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "all release when last arrives" [ 3.; 3.; 3. ]
    !releases

let test_barrier_cyclic () =
  let e = Engine.create () in
  let b = Gate.Barrier.create ~parties:2 () in
  let log = ref [] in
  for i = 0 to 1 do
    Process.spawn e (fun () ->
        for round = 0 to 2 do
          Process.sleep (float_of_int (i + 1));
          Gate.Barrier.await b;
          if i = 0 then log := round :: !log
        done)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "three rounds completed" [ 0; 1; 2 ] (List.rev !log)

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  check_bool "same seed, same stream" true (xs = ys)

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  check_bool "split stream differs" true (xs <> ys)

let prop_rng_float_range =
  QCheck2.Test.make ~name:"float in [0,1)" ~count:500 QCheck2.Gen.int64 (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.float rng in
      x >= 0. && x < 1.)

let prop_rng_int_range =
  QCheck2.Test.make ~name:"int in [0,bound)" ~count:500
    QCheck2.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    check_bool "exponential >= 0" true (Rng.exponential rng ~mean:2. >= 0.)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:1L in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle rng arr;
  Array.sort compare arr;
  check_bool "same multiset" true (arr = orig)

(* {2 Stat} *)

let test_counter () =
  let c = Stat.Counter.create () in
  Stat.Counter.incr c;
  Stat.Counter.add c 4;
  check_int "value" 5 (Stat.Counter.value c);
  Stat.Counter.reset c;
  check_int "reset" 0 (Stat.Counter.value c)

let test_summary () =
  let s = Stat.Summary.create () in
  List.iter (Stat.Summary.add s) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Stat.Summary.count s);
  check_float "mean" 2.5 (Stat.Summary.mean s);
  Alcotest.(check (option (float 1e-12))) "min" (Some 1.) (Stat.Summary.min s);
  Alcotest.(check (option (float 1e-12))) "max" (Some 4.) (Stat.Summary.max s);
  Alcotest.(check (float 1e-6)) "stddev" 1.290994 (Stat.Summary.stddev s)

let test_summary_empty () =
  let s = Stat.Summary.create () in
  check_float "mean of empty" 0. (Stat.Summary.mean s);
  check_float "stddev of empty" 0. (Stat.Summary.stddev s)

(* 1000 samples: past the buffer's first doublings, added in an order
   that is not sorted *)
let test_latency_quantiles () =
  let l = Stat.Latency.create () in
  let samples = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000 + 1) *. 1e-4) in
  Array.iter (Stat.Latency.add l) samples;
  let s = Stat.Latency.summary l in
  check_int "count" 1000 (Stat.Summary.count s);
  check_float "mean" 0.05005 (Stat.Summary.mean s);
  Alcotest.(check (option (float 1e-12))) "max" (Some 0.1) (Stat.Summary.max s);
  List.iter
    (fun q ->
      check_float (Printf.sprintf "q%g is the exact percentile" q)
        (Stat.percentile samples q) (Stat.Latency.quantile l q))
    [ 0.01; 0.5; 0.95; 0.99; 1.0 ];
  check_float "p50" 0.05 (Stat.Latency.quantile l 0.5)

let test_latency_empty () =
  let l = Stat.Latency.create () in
  check_int "no samples" 0 (Stat.Summary.count (Stat.Latency.summary l));
  check_bool "quantile of empty is nan" true (Float.is_nan (Stat.Latency.quantile l 0.5))

let test_schedule_at_absolute () =
  let e = Engine.create () in
  let at = ref 0. in
  Engine.schedule e ~delay:1. (fun () ->
      Engine.schedule_at e ~time:5. (fun () -> at := Engine.now e));
  Engine.run e;
  check_float "absolute time honored" 5. !at

let test_summary_empty_minmax () =
  let s = Stat.Summary.create () in
  Alcotest.(check (option (float 0.))) "min of empty" None (Stat.Summary.min s);
  Alcotest.(check (option (float 0.))) "max of empty" None (Stat.Summary.max s)

let test_summary_stddev_no_nan () =
  (* identical large samples: catastrophic cancellation can drive the
     Welford m2 accumulator a hair below zero; stddev must clamp to 0,
     never sqrt a negative into NaN *)
  let s = Stat.Summary.create () in
  for _ = 1 to 1000 do
    Stat.Summary.add s 1.000000000001e9
  done;
  let sd = Stat.Summary.stddev s in
  check_bool "stddev finite" true (Float.is_finite sd);
  check_bool "stddev >= 0" true (sd >= 0.)

(* {2 Exact nearest-rank percentile} *)

let test_percentile_ranks () =
  (* 100 down to 1: unsorted on purpose *)
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "p50 of 1..100" 50. (Stat.percentile hundred 0.5);
  check_float "p99 of 1..100" 99. (Stat.percentile hundred 0.99);
  check_float "p100 of 1..100" 100. (Stat.percentile hundred 1.0);
  check_float "p1 of 1..100" 1. (Stat.percentile hundred 0.01);
  check_float "input left unsorted" 100. hundred.(0);
  check_float "input left unsorted" 1. hundred.(99)

let test_percentile_one_sample () =
  List.iter
    (fun q -> check_float "the sample itself" 7.5 (Stat.percentile [| 7.5 |] q))
    [ 0.01; 0.5; 0.99; 1.0 ]

let test_percentile_contract () =
  check_bool "empty input is nan" true (Float.is_nan (Stat.percentile [||] 0.5));
  List.iter
    (fun q ->
      match Stat.percentile [| 1.; 2. |] q with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "q = %g answered %g instead of raising" q v)
    [ 0.; -0.5; 1.5; Float.nan ]

let test_rng_int_rejection () =
  let rng = Rng.create ~seed:9L in
  (* a bound that is nowhere near a power of two: modulo would bias it *)
  let bound = 3 in
  let counts = Array.make bound 0 in
  let draws = 30_000 in
  for _ = 1 to draws do
    let v = Rng.int rng bound in
    check_bool "in range" true (v >= 0 && v < bound);
    counts.(v) <- counts.(v) + 1
  done;
  let expect = float_of_int draws /. float_of_int bound in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d within 5%% of uniform (%d)" i c)
        true
        (Float.abs (float_of_int c -. expect) < 0.05 *. expect))
    counts;
  (* huge bounds must not overflow or loop: 2^62 holds any OCaml bound *)
  for _ = 1 to 100 do
    let v = Rng.int rng max_int in
    check_bool "max_int bound in range" true (v >= 0)
  done

let test_resource_wait_hold_summaries () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:1 () in
  for _ = 1 to 3 do
    Process.spawn e (fun () ->
        Resource.with_slot r (fun () -> Process.sleep 2.))
  done;
  Engine.run e;
  let wait = Resource.wait_summary r and hold = Resource.hold_summary r in
  check_int "three waits recorded" 3 (Stat.Summary.count wait);
  check_int "three holds recorded" 3 (Stat.Summary.count hold);
  (* arrivals tie at t=0: waits are 0, 2 and 4 seconds *)
  Alcotest.(check (option (float 1e-9))) "longest wait" (Some 4.)
    (Stat.Summary.max wait);
  Alcotest.(check (float 1e-9)) "mean hold = service" 2. (Stat.Summary.mean hold)

let test_rng_uniform_and_pick () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 200 do
    let x = Rng.uniform rng ~lo:5. ~hi:7. in
    check_bool "uniform in [5,7)" true (x >= 5. && x < 7.)
  done;
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    check_bool "pick from array" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_resource_with_slot_returns_value () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:1 () in
  let got = ref 0 in
  Process.spawn e (fun () -> got := Resource.with_slot r (fun () -> 41 + 1));
  Engine.run e;
  check_int "value returned" 42 !got

(* {2 Determinism of a whole simulation} *)

let run_mini_sim () =
  let e = Engine.create () in
  let r = Resource.create ~capacity:2 () in
  let rng = Rng.create ~seed:99L in
  let log = Buffer.create 256 in
  for i = 0 to 9 do
    Process.spawn e (fun () ->
        Process.sleep (Rng.float rng);
        Resource.serve r (Rng.float rng *. 0.1);
        Buffer.add_string log (Printf.sprintf "%d@%.9f;" i (Engine.now e)))
  done;
  Engine.run e;
  Buffer.contents log

let test_whole_sim_deterministic () =
  Alcotest.(check string) "identical traces" (run_mini_sim ()) (run_mini_sim ())

(* {2 Fault-injectable network} *)

module Net = Simkit.Net

let mk_net ?default_latency () =
  let e = Engine.create () in
  let n = Net.create ?default_latency ~seed:7L e in
  let a = Net.endpoint n and b = Net.endpoint n in
  (e, n, a, b)

(* Count deliveries of [k] messages a->b after running to quiescence. *)
let deliveries e n ~src ~dst k =
  let got = ref 0 in
  for _ = 1 to k do
    Net.send n ~src ~dst (fun () -> incr got)
  done;
  Engine.run e;
  !got

let test_net_delivers_and_counts () =
  let e, n, a, b = mk_net () in
  check_int "all delivered" 5 (deliveries e n ~src:a ~dst:b 5);
  check_int "sent" 5 (Net.sent n);
  check_int "delivered" 5 (Net.delivered n);
  check_int "dropped" 0 (Net.dropped n);
  check_int "duplicated" 0 (Net.duplicated n)

let test_net_partition_and_heal () =
  let e, n, a, b = mk_net () in
  Net.partition n [ [ a ]; [ b ] ];
  check_int "partitioned: nothing crosses" 0 (deliveries e n ~src:a ~dst:b 3);
  check_int "counted as dropped" 3 (Net.dropped n);
  Net.heal n;
  check_int "healed: delivers again" 3 (deliveries e n ~src:a ~dst:b 3)

let test_net_partition_unnamed_reaches_everyone () =
  let e, n, a, b = mk_net () in
  let c = Net.endpoint n in
  Net.partition n [ [ a ]; [ b ] ];
  (* [c] is in no group: it reaches (and is reached by) both sides,
     while the named groups stay cut off from each other *)
  check_int "c->a unaffected" 2 (deliveries e n ~src:c ~dst:a 2);
  check_int "c->b unaffected" 2 (deliveries e n ~src:c ~dst:b 2);
  check_int "a->b cut" 0 (deliveries e n ~src:a ~dst:b 2)

let test_net_oneway_block () =
  let e, n, a, b = mk_net () in
  Net.block_oneway n ~src:a ~dst:b;
  check_int "blocked direction" 0 (deliveries e n ~src:a ~dst:b 3);
  check_int "reverse direction open" 3 (deliveries e n ~src:b ~dst:a 3);
  Net.heal n;
  check_int "heal removes the block" 3 (deliveries e n ~src:a ~dst:b 3)

let test_net_follow_rides_partition () =
  let e, n, a, b = mk_net () in
  let client = Net.endpoint ~follow:a n in
  Net.partition n [ [ a ]; [ b ] ];
  check_int "follower reaches its server" 2
    (deliveries e n ~src:client ~dst:a 2);
  check_int "follower cut from the far side" 0
    (deliveries e n ~src:client ~dst:b 2)

let test_net_drop_probability () =
  let e, n, a, b = mk_net () in
  Net.set_drop n 1.0;
  check_int "p=1 drops all" 0 (deliveries e n ~src:a ~dst:b 4);
  Net.set_drop n 0.0;
  check_int "p=0 drops none" 4 (deliveries e n ~src:a ~dst:b 4);
  Net.set_drop n 0.5;
  let got = deliveries e n ~src:a ~dst:b 200 in
  check_bool "p=0.5 drops some" true (got > 50 && got < 150);
  check_int "sent = delivered + dropped" (Net.sent n)
    (Net.delivered n + Net.dropped n)

let test_net_duplicate () =
  let e, n, a, b = mk_net () in
  Net.set_duplicate n 1.0;
  let got = deliveries e n ~src:a ~dst:b 3 in
  check_int "each message delivered twice" 6 got;
  check_int "duplicated counter" 3 (Net.duplicated n)

let test_net_extra_delay () =
  let e, n, a, b = mk_net ~default_latency:(Net.Fixed 0.001) () in
  let at = ref 0. in
  Net.set_extra_delay n 0.25;
  Net.send n ~src:a ~dst:b (fun () -> at := Engine.now e);
  Engine.run e;
  check_bool "delay added on top of latency" true
    (!at >= 0.251 -. 1e-9 && !at < 0.3)

(* With every knob at rest, Net must not consume randomness: the RNG
   draws (and hence any seeded behaviour downstream) are identical with
   and without the Net in the path. *)
let test_net_quiet_draws_no_randomness () =
  let trace knobs =
    let e = Engine.create () in
    let n = Net.create ~seed:99L e in
    let a = Net.endpoint n and b = Net.endpoint n in
    if knobs then Net.set_drop n 0.0; (* setting a zero knob changes nothing *)
    let log = Buffer.create 64 in
    for i = 1 to 20 do
      Net.send n ~src:a ~dst:b (fun () ->
          Buffer.add_string log (Printf.sprintf "%d@%.9f;" i (Engine.now e)))
    done;
    Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "fault-free schedule is knob-independent"
    (trace false) (trace true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simkit"
    [ ( "engine",
        [ Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "schedule order" `Quick test_schedule_order;
          Alcotest.test_case "fifo on ties" `Quick test_fifo_on_ties;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "past schedule rejected" `Quick test_past_schedule_rejected;
          Alcotest.test_case "executed counter" `Quick test_executed_counter;
          Alcotest.test_case "stop under until" `Quick test_stop_under_until;
          Alcotest.test_case "run until empty queue" `Quick
            test_run_until_empty_queue;
          qc prop_heap_order;
          qc prop_matches_reference_heap;
          Alcotest.test_case "cancelled timer never fires" `Quick
            test_cancelled_timer_never_fires;
          Alcotest.test_case "cancel after fire is a no-op" `Quick
            test_cancel_after_fire_is_noop;
          Alcotest.test_case "stale handle after recycle" `Quick
            test_stale_handle_after_recycle;
          Alcotest.test_case "cancelling a tail keeps appends" `Quick
            test_cancel_tail_keeps_appends;
          Alcotest.test_case "bad timer delay rejected" `Quick
            test_bad_timer_delay_rejected;
          qc prop_timers_match_reference ] );
      ( "process",
        [ Alcotest.test_case "sleep advances time" `Quick test_sleep_advances_time;
          Alcotest.test_case "interleaving" `Quick test_interleaving;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "suspend_v value" `Quick test_suspend_v_carries_value;
          Alcotest.test_case "double resume rejected" `Quick test_double_resume_rejected;
          Alcotest.test_case "failure surfaces" `Quick test_process_failure_surfaces;
          Alcotest.test_case "engine accessor" `Quick test_engine_accessor ] );
      ( "resource",
        [ Alcotest.test_case "capacity bound" `Quick test_resource_capacity;
          Alcotest.test_case "fifo grants" `Quick test_resource_fifo;
          Alcotest.test_case "exception releases" `Quick test_resource_exception_releases;
          Alcotest.test_case "release unheld rejected" `Quick test_release_unheld_rejected;
          Alcotest.test_case "queue length" `Quick test_queue_length;
          Alcotest.test_case "bad capacity" `Quick test_bad_capacity ] );
      ( "mailbox",
        [ Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocks until send" `Quick test_mailbox_blocks_until_send;
          Alcotest.test_case "multiple receivers" `Quick test_mailbox_multiple_receivers;
          Alcotest.test_case "recv_opt" `Quick test_mailbox_recv_opt;
          Alcotest.test_case "clear" `Quick test_mailbox_clear;
          Alcotest.test_case "take_if scans past head" `Quick test_take_if_scans;
          Alcotest.test_case "take_if wrapped ring" `Quick
            test_take_if_wrapped_ring;
          Alcotest.test_case "take_head_if head only" `Quick
            test_take_head_if ] );
      ( "net",
        [ Alcotest.test_case "delivers and counts" `Quick
            test_net_delivers_and_counts;
          Alcotest.test_case "partition and heal" `Quick
            test_net_partition_and_heal;
          Alcotest.test_case "unnamed endpoints unaffected" `Quick
            test_net_partition_unnamed_reaches_everyone;
          Alcotest.test_case "one-way block" `Quick test_net_oneway_block;
          Alcotest.test_case "follower rides partition" `Quick
            test_net_follow_rides_partition;
          Alcotest.test_case "drop probability" `Quick
            test_net_drop_probability;
          Alcotest.test_case "duplicate delivery" `Quick test_net_duplicate;
          Alcotest.test_case "extra delay" `Quick test_net_extra_delay;
          Alcotest.test_case "quiet net draws no randomness" `Quick
            test_net_quiet_draws_no_randomness ] );
      ( "gate",
        [ Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
          Alcotest.test_case "barrier cyclic" `Quick test_barrier_cyclic ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          qc prop_rng_float_range;
          qc prop_rng_int_range;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ] );
      ( "stat",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "summary empty min/max" `Quick test_summary_empty_minmax;
          Alcotest.test_case "summary stddev no NaN" `Quick test_summary_stddev_no_nan;
          Alcotest.test_case "percentile ranks" `Quick test_percentile_ranks;
          Alcotest.test_case "percentile of one sample" `Quick test_percentile_one_sample;
          Alcotest.test_case "percentile empty and bad q" `Quick test_percentile_contract;
          Alcotest.test_case "latency quantiles" `Quick test_latency_quantiles;
          Alcotest.test_case "latency empty" `Quick test_latency_empty;
          Alcotest.test_case "rng int rejection sampling" `Quick test_rng_int_rejection;
          Alcotest.test_case "resource wait/hold summaries" `Quick
            test_resource_wait_hold_summaries ] );
      ( "edges",
        [ Alcotest.test_case "schedule_at absolute" `Quick test_schedule_at_absolute;
          Alcotest.test_case "rng uniform and pick" `Quick test_rng_uniform_and_pick;
          Alcotest.test_case "with_slot returns value" `Quick
            test_resource_with_slot_returns_value ] );
      ( "determinism",
        [ Alcotest.test_case "whole sim deterministic" `Quick
            test_whole_sim_deterministic ] ) ]
