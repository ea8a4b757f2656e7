module Stat = Simkit.Stat

(* A trace is a metrics registry plus an on/off switch. Everything is
   default-off: a disabled trace records nothing, allocates nothing per
   event, and never touches the virtual clock — so traced and untraced
   runs replay the exact same event sequence. *)

type t = {
  mutable on : bool;
  metrics : Metrics.t;
}

let create () = { on = false; metrics = Metrics.create () }

(* The shared sink for components built without a trace: permanently off. *)
let null = create ()

let enable t =
  if t == null then invalid_arg "Trace.enable: the null trace stays off";
  t.on <- true

let disable t = t.on <- false
let enabled t = t.on
let metrics t = t.metrics

(* One latency instrument per span name: every duration kept, so the
   count, mean, max and percentiles read back are all exact. *)

let record_span t name dur =
  if t.on then Stat.Latency.add (Metrics.latency t.metrics name) dur

(* Scalar observation (queue depth, batch size): summary only. *)
let observe t name v =
  if t.on then Stat.Summary.add (Metrics.summary t.metrics name) v

let span t name = Option.map Stat.Latency.summary (Metrics.latency_opt t.metrics name)

let span_count t name =
  match span t name with Some s -> Stat.Summary.count s | None -> 0

let span_mean t name =
  match span t name with
  | Some s when Stat.Summary.count s > 0 -> Some (Stat.Summary.mean s)
  | Some _ | None -> None

let span_max t name = Option.bind (span t name) Stat.Summary.max

let span_quantile t name q =
  match Metrics.latency_opt t.metrics name with
  | Some l when Stat.Summary.count (Stat.Latency.summary l) > 0 ->
    Some (Stat.Latency.quantile l q)
  | Some _ | None -> None

(* {2 Write-path span context}

   One [wspan] rides along a coordination write; the layers it crosses
   stamp it (client send, leader batch start, proposal fan-out, quorum
   commit) and the client folds the stamps into the five quorum phases
   when the reply lands. The stamps tile the op's timeline exactly, so
   phase durations sum to the measured op latency by construction. *)

type wspan = {
  mutable w_sent : float;      (* client handed the write to the wire *)
  mutable w_batch : float;     (* leader started processing its batch *)
  mutable w_persist : float;   (* persist share of the batch sleep (duration) *)
  mutable w_proposed : float;  (* proposals handed to the follower fan-out *)
  mutable w_quorum : float;    (* quorum reached, txn applied *)
}

let unstamped = Float.neg_infinity

(* Shared dummy carried by untraced writes: never read back. *)
let no_wspan =
  { w_sent = unstamped;
    w_batch = unstamped;
    w_persist = 0.;
    w_proposed = unstamped;
    w_quorum = unstamped }

let wspan t ~now =
  if t.on then
    { w_sent = now;
      w_batch = unstamped;
      w_persist = 0.;
      w_proposed = unstamped;
      w_quorum = unstamped }
  else no_wspan

let is_real w = w != no_wspan

let phases = [ "queue-wait"; "propose"; "persist"; "ack"; "commit" ]

let dropped_name op = "zk." ^ op ^ ".dropped"

let finish_write t ~op w ~now =
  if t.on && is_real w then
    if
      (* every stamp present and monotone; a retry or fail-over can leave
         a span half-stamped (for example a write that fails after its
         retries), and a half-stamped span is not honest data *)
      w.w_sent >= 0.
      && w.w_batch >= w.w_sent
      && w.w_proposed >= w.w_batch +. w.w_persist
      && w.w_quorum >= w.w_proposed
      && now >= w.w_quorum
    then begin
      let base = "zk." ^ op in
      record_span t (base ^ ".total") (now -. w.w_sent);
      record_span t (base ^ ".queue-wait") (w.w_batch -. w.w_sent);
      record_span t (base ^ ".propose") (w.w_proposed -. w.w_batch -. w.w_persist);
      record_span t (base ^ ".persist") w.w_persist;
      record_span t (base ^ ".ack") (w.w_quorum -. w.w_proposed);
      record_span t (base ^ ".commit") (now -. w.w_quorum)
    end
    else Stat.Counter.incr (Metrics.counter t.metrics (dropped_name op))

let dropped t ~op =
  match Metrics.counter_opt t.metrics (dropped_name op) with
  | Some c -> Stat.Counter.value c
  | None -> 0
