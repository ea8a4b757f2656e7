(* The event core is built for throughput under bit-identical dispatch
   order: events run in nondecreasing (time, seq) order exactly as the
   original binary-heap engine dispatched them.

   Two structures split the load:

   - a dedicated FIFO lane for zero-delay events ([delay:0.] /
     [schedule_at ~time:now]) — the dominant event class (every
     [Process.suspend] resume and same-tick [Mailbox.send]). A ring
     buffer of (fn, arg) pairs: O(1) push/pop, no comparisons, no
     allocation.
   - a calendar queue (Brown '88) for future events: an array of
     bucketed, (time, seq)-sorted intrusive lists indexed by
     [time / width mod nbuckets]. Push and pop are O(1) amortized at
     any occupancy; the width adapts on resize so a bucket holds ~1-3
     events. A full-year scan without a hit falls back to a global
     min-of-heads sweep, so pathological widths degrade to O(nbuckets)
     per pop, never to wrong order.

   Timers ([schedule_timer]) are ordinary calendar events whose handle
   remembers the record and its seq; [cancel] unlinks the record from
   its bucket and recycles it. Recycling stamps a record's seq to -1 and
   reuse gives it a fresh one, so a handle whose event already fired or
   was cancelled — even if the record now carries another event — no
   longer matches and cancels nothing. [cancel] never touches the seq
   counter, so every other event keeps its (time, seq).

   Event records are recycled through a free list and carry a
   monomorphic [fn : Obj.t -> unit] plus its argument instead of a
   fresh closure, so the steady-state schedule/dispatch path allocates
   nothing. The [Obj] use is contained to this module and
   [schedule_app]'s boundary: arguments round-trip through [Obj.repr]/
   [Obj.obj] and functions are only ever applied to the argument they
   were registered with (indirect calls use the uniform representation,
   so boxed floats and immediates are both safe).

   Why cross-lane order is exact: a calendar event with time [T] can
   only be scheduled while [now < T] (at [now = T] it would be routed
   to the FIFO lane), so every calendar event at [T] carries a smaller
   seq than every lane event pushed at [T]; and the lane always drains
   before the clock advances (its events are due immediately). The run
   loop therefore (1) drains calendar events at exactly [now] — they
   are contiguous at the head of the current window's bucket — then
   (2) the FIFO lane, then (3) pops the calendar to advance the
   clock. *)

type event = {
  mutable time : float;
  mutable seq : int;
  mutable fn : Obj.t -> unit;
  mutable arg : Obj.t;
  mutable next : event;  (* intrusive bucket link, [nil]-terminated *)
}

let obj_unit = Obj.repr ()
let ignore_obj : Obj.t -> unit = fun _ -> ()

(* Shared trampoline for thunk events: the thunk itself is the argument. *)
let run_thunk : Obj.t -> unit = fun f -> (Obj.obj f : unit -> unit) ()

let rec nil =
  { time = infinity; seq = -1; fn = ignore_obj; arg = obj_unit; next = nil }

type t = {
  mutable now : float;
  mutable stopped : bool;
  mutable executed : int;
  mutable seq : int;  (* tie-break for calendar events only *)
  (* calendar queue (strictly-future events) *)
  mutable buckets : event array;
  mutable tails : event array;  (* valid only where buckets.(b) != nil *)
  mutable mask : int;           (* nbuckets - 1; nbuckets is a power of two *)
  mutable width : float;
  mutable cal_size : int;
  mutable window : int;         (* un-modded window index of the scan cursor *)
  (* zero-delay FIFO lane: parallel rings, power-of-two capacity *)
  mutable nl_fn : (Obj.t -> unit) array;
  mutable nl_arg : Obj.t array;
  mutable nl_head : int;
  mutable nl_size : int;
  (* event-record free list, chained through [next] *)
  mutable free : event;
  (* insert-walk feedback: when sorted inserts walk long bucket lists,
     the width is stale (size-triggered resizes never fire on a
     stable-size queue) — re-derive it from the live population *)
  mutable ins_count : int;
  mutable walk_steps : int;
  (* window where {!cal_find} located the head event (scratch return
     slot: a tuple result would allocate on every pop) *)
  mutable found_w : int;
}

let initial_buckets = 64
let max_buckets = 1 lsl 20

let create () =
  { now = 0.;
    stopped = false;
    executed = 0;
    seq = 0;
    buckets = Array.make initial_buckets nil;
    tails = Array.make initial_buckets nil;
    mask = initial_buckets - 1;
    width = 1e-3;
    cal_size = 0;
    window = 0;
    nl_fn = Array.make 256 ignore_obj;
    nl_arg = Array.make 256 obj_unit;
    nl_head = 0;
    nl_size = 0;
    free = nil;
    ins_count = 0;
    walk_steps = 0;
    found_w = 0 }

let now t = t.now
let executed_events t = t.executed
let pending_events t = t.cal_size + t.nl_size
let stop t = t.stopped <- true

(* (time, seq) order: earliest first, FIFO on ties. *)
let[@inline] earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Window index of a timestamp. Monotone in [time]; clamped so that
   [int_of_float] stays exact (< 2^53) for any finite input. *)
let max_window = 1 lsl 50

let[@inline] idx_of t time =
  let q = time /. t.width in
  if q >= float_of_int max_window then max_window else int_of_float q

(* {2 FIFO lane} *)

let nl_grow t =
  let cap = Array.length t.nl_fn in
  let fns = Array.make (2 * cap) ignore_obj in
  let args = Array.make (2 * cap) obj_unit in
  for k = 0 to t.nl_size - 1 do
    let i = (t.nl_head + k) land (cap - 1) in
    fns.(k) <- t.nl_fn.(i);
    args.(k) <- t.nl_arg.(i)
  done;
  t.nl_fn <- fns;
  t.nl_arg <- args;
  t.nl_head <- 0

let[@inline] nl_push t fn arg =
  if t.nl_size = Array.length t.nl_fn then nl_grow t;
  let i = (t.nl_head + t.nl_size) land (Array.length t.nl_fn - 1) in
  Array.unsafe_set t.nl_fn i fn;
  Array.unsafe_set t.nl_arg i arg;
  t.nl_size <- t.nl_size + 1

(* {2 Calendar queue} *)

let alloc_event t =
  let ev = t.free in
  if ev == nil then
    { time = 0.; seq = 0; fn = ignore_obj; arg = obj_unit; next = nil }
  else begin
    t.free <- ev.next;
    ev.next <- nil;
    ev
  end

let recycle t (ev : event) =
  ev.seq <- -1;
  ev.fn <- ignore_obj;
  ev.arg <- obj_unit;
  ev.next <- t.free;
  t.free <- ev

(* Link [ev] after the first element of [prev]'s tail that it is not
   earlier than; returns the number of links walked (width feedback).
   Top-level and tuple-free so the insert path stays allocation-free. *)
let rec walk_insert prev ev steps =
  let next = prev.next in
  if next != nil && not (earlier ev next) then walk_insert next ev (steps + 1)
  else begin
    ev.next <- next;
    prev.next <- ev;
    steps
  end

let cal_insert t ev =
  let b = idx_of t ev.time land t.mask in
  let head = Array.unsafe_get t.buckets b in
  if head == nil then begin
    ev.next <- nil;
    Array.unsafe_set t.buckets b ev;
    Array.unsafe_set t.tails b ev
  end
  else begin
    let tail = Array.unsafe_get t.tails b in
    if not (earlier ev tail) then begin
      (* monotone/equal-time bursts append in O(1) *)
      ev.next <- nil;
      tail.next <- ev;
      Array.unsafe_set t.tails b ev
    end
    else if earlier ev head then begin
      ev.next <- head;
      Array.unsafe_set t.buckets b ev
    end
    else
      (* ev is after head and before tail: the walk terminates early *)
      t.walk_steps <- t.walk_steps + walk_insert head ev 1
  end

(* Rebucket every event under a fresh width estimated from the current
   population: ~3x the mean inter-event spacing, floored so that
   [time / width] stays far below the [idx_of] clamp. Depends only on
   queue state, so replay determinism is unaffected. *)
let resize t nbuckets =
  let chain = ref nil in
  for b = 0 to t.mask do
    let ev = ref t.buckets.(b) in
    while !ev != nil do
      let next = !ev.next in
      !ev.next <- !chain;
      chain := !ev;
      ev := next
    done;
    t.buckets.(b) <- nil
  done;
  let mn = ref infinity and mx = ref neg_infinity in
  let ev = ref !chain in
  while !ev != nil do
    if !ev.time < !mn then mn := !ev.time;
    if !ev.time > !mx then mx := !ev.time;
    ev := !ev.next
  done;
  let spread = !mx -. !mn in
  let width =
    if t.cal_size > 1 && spread > 0. then spread /. float_of_int t.cal_size
    else t.width
  in
  let width = Float.max width (!mx /. 1e12) in
  let width =
    if Float.is_finite width && width > 0. then width else t.width
  in
  t.width <- width;
  if Array.length t.buckets <> nbuckets then begin
    t.buckets <- Array.make nbuckets nil;
    t.tails <- Array.make nbuckets nil;
    t.mask <- nbuckets - 1
  end;
  t.window <- idx_of t t.now;
  t.ins_count <- 0;
  t.walk_steps <- 0;
  let ev = ref !chain in
  while !ev != nil do
    let next = !ev.next in
    cal_insert t !ev;
    ev := next
  done;
  (* the reinsertion walks don't reflect steady-state traffic *)
  t.ins_count <- 0;
  t.walk_steps <- 0

let cal_schedule t ~time fn arg =
  let ev = alloc_event t in
  ev.time <- time;
  ev.seq <- t.seq;
  t.seq <- t.seq + 1;
  ev.fn <- fn;
  ev.arg <- arg;
  cal_insert t ev;
  t.cal_size <- t.cal_size + 1;
  t.ins_count <- t.ins_count + 1;
  if t.cal_size > 2 * (t.mask + 1) && t.mask + 1 < max_buckets then
    resize t (2 * (t.mask + 1))
  else if t.ins_count >= 128 then
    if t.walk_steps > 2 * t.ins_count then resize t (t.mask + 1)
    else begin
      t.ins_count <- 0;
      t.walk_steps <- 0
    end;
  ev

(* Find the earliest calendar event, leaving its window in [t.found_w]
   without unlinking it — the caller commits (or not, when the event
   lies beyond the run horizon). Top-level recursion, not a local
   closure: [cal_find] runs on every clock advance. Precondition:
   [t.cal_size > 0]. *)
let rec cal_scan t w tries =
  if tries > t.mask then begin
    (* full year empty: jump straight to the earliest head *)
    let best = ref nil in
    for b = 0 to t.mask do
      let h = t.buckets.(b) in
      if h != nil && (!best == nil || earlier h !best) then best := h
    done;
    t.found_w <- idx_of t !best.time;
    !best
  end
  else
    let h = Array.unsafe_get t.buckets (w land t.mask) in
    if h != nil && idx_of t h.time <= w then begin
      t.found_w <- w;
      h
    end
    else cal_scan t (w + 1) (tries + 1)

let cal_find t = cal_scan t t.window 0

let shrink_if_sparse t =
  if t.cal_size * 4 < t.mask + 1 && t.mask + 1 > initial_buckets then
    resize t ((t.mask + 1) / 2)

(* Unlink [ev], known to be the head of the bucket for window [w]. *)
let cal_remove_head t ev w =
  let b = w land t.mask in
  Array.unsafe_set t.buckets b ev.next;
  t.window <- w;
  t.cal_size <- t.cal_size - 1;
  shrink_if_sparse t

(* Unlink [ev] from anywhere in its bucket. Buckets hold ~1-3 events, so
   finding the predecessor is a short walk. *)
let rec pred_of prev ev = if prev.next == ev then prev else pred_of prev.next ev

let cal_unlink t ev =
  let b = idx_of t ev.time land t.mask in
  let head = Array.unsafe_get t.buckets b in
  if head == ev then Array.unsafe_set t.buckets b ev.next
  else begin
    let prev = pred_of head ev in
    prev.next <- ev.next;
    if Array.unsafe_get t.tails b == ev then Array.unsafe_set t.tails b prev
  end;
  t.cal_size <- t.cal_size - 1;
  recycle t ev;
  shrink_if_sparse t

(* {2 Scheduling} *)

let schedule_obj t ~time fn arg =
  if time = t.now then nl_push t fn arg
  else ignore (cal_schedule t ~time fn arg : event)

let schedule t ~delay run =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule: bad delay %g" delay);
  if delay = 0. then nl_push t run_thunk (Obj.repr run)
  else
    ignore (cal_schedule t ~time:(t.now +. delay) run_thunk (Obj.repr run) : event)

let schedule_at t ~time run =
  if not (Float.is_finite time) || time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.now);
  schedule_obj t ~time run_thunk (Obj.repr run)

let schedule_app (type a) t ~delay (fn : a -> unit) (arg : a) =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule: bad delay %g" delay);
  let fn : Obj.t -> unit = Obj.magic fn in
  if delay = 0. then nl_push t fn (Obj.repr arg)
  else ignore (cal_schedule t ~time:(t.now +. delay) fn (Obj.repr arg) : event)

type timer = { event : event; stamp : int (* [event.seq] when armed *) }

let schedule_timer t ~delay run =
  if not (Float.is_finite delay) || delay <= 0. then
    invalid_arg (Printf.sprintf "Engine.schedule_timer: bad delay %g" delay);
  let ev = cal_schedule t ~time:(t.now +. delay) run_thunk (Obj.repr run) in
  { event = ev; stamp = ev.seq }

let cancel t timer =
  if timer.event.seq = timer.stamp then cal_unlink t timer.event

(* {2 The run loop} *)

let run ?until t =
  t.stopped <- false;
  let horizon = match until with None -> Float.infinity | Some u -> u in
  let continue = ref true in
  while !continue && not t.stopped do
    if t.now > horizon then continue := false
    else begin
      (* calendar events due at exactly [now] precede the lane (smaller
         seq); they sit contiguously at the current window's bucket head *)
      let b = t.window land t.mask in
      let h = Array.unsafe_get t.buckets b in
      if t.cal_size > 0 && h != nil && h.time = t.now then begin
        cal_remove_head t h t.window;
        let fn = h.fn and arg = h.arg in
        recycle t h;
        t.executed <- t.executed + 1;
        fn arg
      end
      else if t.nl_size > 0 then begin
        let cap = Array.length t.nl_fn in
        let i = t.nl_head in
        let fn = Array.unsafe_get t.nl_fn i
        and arg = Array.unsafe_get t.nl_arg i in
        Array.unsafe_set t.nl_fn i ignore_obj;
        (* pointer args must be cleared through the barriered store
           (OCaml 5 deletion barrier); immediates can stay in place *)
        if not (Obj.is_int arg) then Array.unsafe_set t.nl_arg i obj_unit;
        t.nl_head <- (i + 1) land (cap - 1);
        t.nl_size <- t.nl_size - 1;
        t.executed <- t.executed + 1;
        fn arg
      end
      else if t.cal_size > 0 then begin
        let ev = cal_find t in
        if ev.time > horizon then continue := false
        else begin
          cal_remove_head t ev t.found_w;
          t.now <- ev.time;
          let fn = ev.fn and arg = ev.arg in
          recycle t ev;
          t.executed <- t.executed + 1;
          fn arg
        end
      end
      else continue := false
    end
  done;
  (* A run that drained the queue or hit the horizon parks the clock at
     the horizon; a [stop]ped run keeps [now] at the last executed
     event so the caller sees how far it actually got. *)
  match until with
  | Some u when (not t.stopped) && t.now < u -> t.now <- u
  | Some _ | None -> ()
