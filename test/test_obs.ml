(* The obs layer's contract: a get-or-create metric registry, and span
   tracing that is default-off, allocates nothing while off, and — when
   on — is pure accumulator bookkeeping, so a traced run replays the
   exact same simulated timeline as an untraced one. *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Engine = Simkit.Engine
module Process = Simkit.Process
module Stat = Simkit.Stat

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {2 Metrics registry} *)

let test_get_or_create () =
  let m = Metrics.create () in
  let c = Metrics.counter m "ops" in
  Stat.Counter.incr c;
  (* same name, same instrument *)
  Stat.Counter.incr (Metrics.counter m "ops");
  check_int "one instrument under the name" 2
    (Stat.Counter.value (Metrics.counter m "ops"));
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"ops\" already registered as a counter")
    (fun () -> ignore (Metrics.summary m "ops"))

let test_names_in_registration_order () =
  let m = Metrics.create () in
  ignore (Metrics.summary m "b");
  ignore (Metrics.counter m "a");
  ignore (Metrics.latency m "c");
  Alcotest.(check (list string)) "registration order" [ "b"; "a"; "c" ]
    (Metrics.names m)

(* {2 Trace basics} *)

let test_trace_off_by_default () =
  let t = Trace.create () in
  check_bool "disabled on creation" false (Trace.enabled t);
  Trace.record_span t "x" 1.0;
  check_int "nothing recorded while off" 0 (Trace.span_count t "x");
  Trace.enable t;
  Trace.record_span t "x" 1.0;
  check_int "recorded once on" 1 (Trace.span_count t "x");
  Alcotest.check_raises "null trace cannot be enabled"
    (Invalid_argument "Trace.enable: the null trace stays off") (fun () ->
      Trace.enable Trace.null)

let test_span_quantile_exact () =
  let t = Trace.create () in
  Trace.record_span t "lat" 1.0;
  Alcotest.(check (option (float 0.))) "nothing recorded while off" None
    (Trace.span_quantile t "lat" 0.5);
  Trace.enable t;
  Alcotest.(check (option (float 0.))) "never recorded" None
    (Trace.span_quantile t "lat" 0.5);
  let rng = Simkit.Rng.create ~seed:42L in
  let samples = Array.init 5000 (fun _ -> Simkit.Rng.exponential rng ~mean:2e-3) in
  Array.iter (Trace.record_span t "lat") samples;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "q%g = Stat.percentile" q)
        (Some (Stat.percentile samples q))
        (Trace.span_quantile t "lat" q))
    [ 0.01; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check (option (float 0.))) "max is the largest sample"
    (Some (Stat.percentile samples 1.0)) (Trace.span_max t "lat")

(* Words allocated on the minor heap by [f], net of the measurement's
   own cost. *)
let minor_words f =
  let idle = Gc.minor_words () -. Gc.minor_words () in
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before +. idle

let test_off_allocates_nothing () =
  let disabled = Trace.create () in
  Trace.enable disabled;
  Trace.disable disabled;
  List.iter
    (fun (label, t) ->
      let words =
        minor_words (fun () ->
            for _ = 1 to 1000 do
              Trace.record_span t "zk.create.total" 1.0;
              let w = Trace.wspan t ~now:1.0 in
              Trace.finish_write t ~op:"create" w ~now:2.0
            done)
      in
      Alcotest.(check (float 0.)) (label ^ ": minor words") 0. words)
    [ ("null", Trace.null); ("disabled", disabled) ]

let test_wspan_allocation_gate () =
  let t = Trace.create () in
  check_bool "disabled trace hands out the shared dummy" true
    (not (Trace.is_real (Trace.wspan t ~now:1.0)));
  Trace.enable t;
  check_bool "enabled trace allocates a real span" true
    (Trace.is_real (Trace.wspan t ~now:1.0))

let test_finish_write_rejects_half_stamped () =
  let t = Trace.create () in
  Trace.enable t;
  let w = Trace.wspan t ~now:1.0 in
  (* only w_sent stamped: a write that timed out mid-flight *)
  Trace.finish_write t ~op:"create" w ~now:2.0;
  check_int "half-stamped span dropped" 0 (Trace.span_count t "zk.create.total");
  check_int "and counted" 1 (Trace.dropped t ~op:"create");
  (* a write begun while tracing was off carries the shared dummy: it was
     never traced, so nothing is dropped *)
  Trace.finish_write t ~op:"create" Trace.no_wspan ~now:2.0;
  check_int "untraced span not counted" 1 (Trace.dropped t ~op:"create");
  Trace.disable t;
  Trace.finish_write t ~op:"create" w ~now:2.0;
  check_int "nothing counted while off" 1 (Trace.dropped t ~op:"create")

(* {2 End-to-end: ensemble + client, traced vs untraced} *)

let workload trace =
  let engine = Engine.create () in
  let cfg =
    { (Zk.Ensemble.default_config ~servers:5) with Zk.Ensemble.max_batch = 8 }
  in
  let ensemble = Zk.Ensemble.start ?trace engine cfg in
  let final = ref 0. in
  for proc = 0 to 3 do
    Process.spawn engine (fun () ->
        let s = Zk.Ensemble.session ensemble () in
        for i = 0 to 24 do
          (match s.Zk.Zk_client.create (Printf.sprintf "/n%d_%d" proc i) ~data:"x" with
           | Ok _ -> ()
           | Error e -> failwith (Zk.Zerror.to_string e));
          ignore (s.Zk.Zk_client.get (Printf.sprintf "/n%d_%d" proc i));
          match s.Zk.Zk_client.delete (Printf.sprintf "/n%d_%d" proc i) with
          | Ok _ -> ()
          | Error e -> failwith (Zk.Zerror.to_string e)
        done;
        final := Engine.now engine)
  done;
  Engine.run engine;
  !final

let test_tracing_preserves_determinism () =
  let untraced = workload None in
  let trace = Trace.create () in
  Trace.enable trace;
  let traced = workload (Some trace) in
  check_bool "final clocks bit-identical"
    true (untraced = traced);
  check_int "creates all traced" 100 (Trace.span_count trace "zk.create.total");
  check_int "deletes all traced" 100 (Trace.span_count trace "zk.delete.total");
  check_int "reads all traced" 100 (Trace.span_count trace "zk.read.total");
  check_bool "one instrument per span: no .sum twins" true
    (List.for_all
       (fun n -> not (String.ends_with ~suffix:".sum" n))
       (Metrics.names (Trace.metrics trace)))

let test_phase_telescoping () =
  let trace = Trace.create () in
  Trace.enable trace;
  ignore (workload (Some trace));
  List.iter
    (fun op ->
      let base = "zk." ^ op in
      let mean name =
        match Trace.span_mean trace name with
        | Some m -> m
        | None -> Alcotest.fail (name ^ ": no samples")
      in
      let total = mean (base ^ ".total") in
      let sum =
        List.fold_left
          (fun acc p -> acc +. mean (base ^ "." ^ p))
          0. Trace.phases
      in
      (* the stamps tile the write's timeline: the phases must sum to the
         measured op latency well within the 5% acceptance bound *)
      check_bool
        (Printf.sprintf "%s: phase sum %.9g within 5%% of total %.9g" op sum total)
        true
        (Float.abs (sum -. total) <= 0.05 *. total);
      check_bool (op ^ ": every phase nonnegative") true
        (List.for_all (fun p -> mean (base ^ "." ^ p) >= 0.) Trace.phases))
    [ "create"; "delete" ];
  (* group commit visible in the leader batch-size summary *)
  let batch =
    match Metrics.summary_opt (Trace.metrics trace) "zk.leader.batch_size" with
    | Some s -> s
    | None -> Alcotest.fail "no batch-size summary"
  in
  check_bool "batches observed" true (Stat.Summary.count batch > 0);
  check_bool "some batching happened (max_batch=8, 4 writers)" true
    (match Stat.Summary.max batch with Some m -> m >= 1. | None -> false)

(* A leader crash that also takes the quorum: the clients retry every
   write until its attempts run out. Each such span is half-stamped, so
   it must be counted as dropped rather than silently lost, while the
   writes acknowledged before the crash are traced as usual. *)
let test_crash_retry_counts_dropped_spans () =
  let engine = Engine.create () in
  let cfg =
    { (Zk.Ensemble.default_config ~servers:3) with
      Zk.Ensemble.max_batch = 8;
      election_timeout = 0.2;
      request_timeout = 0.3 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  let ensemble = Zk.Ensemble.start ~trace engine cfg in
  let failed = ref 0 in
  for proc = 0 to 3 do
    Process.spawn engine (fun () ->
        let s = Zk.Ensemble.session ensemble ~server:(proc mod 3) () in
        for i = 0 to 9 do
          (if proc = 0 && i = 3 then
             match Zk.Ensemble.leader_id ensemble with
             | Some l ->
               Zk.Ensemble.crash ensemble l;
               Zk.Ensemble.crash ensemble ((l + 1) mod 3)
             | None -> Alcotest.fail "no leader mid-run");
          match s.Zk.Zk_client.create (Printf.sprintf "/c%d_%d" proc i) ~data:"" with
          | Ok _ -> ()
          | Error _ -> incr failed
        done)
  done;
  Engine.run engine;
  let dropped = Trace.dropped trace ~op:"create" in
  check_bool "writes failed after retrying" true (!failed > 0);
  check_int "every failed write's span counted as dropped" !failed dropped;
  check_int "every create either traced or counted" 40
    (Trace.span_count trace "zk.create.total" + dropped)

(* A create whose leader dies before the write reaches it times out,
   retries once the survivors have elected a new leader, and succeeds.
   Its span carries the timeout as one [retry] span; queue-wait starts
   at the resend, so retry plus the five phases is the op's latency. *)
let test_retry_span_tiles_the_total () =
  let engine = Engine.create () in
  let cfg =
    { (Zk.Ensemble.default_config ~servers:3) with
      Zk.Ensemble.election_timeout = 0.2;
      request_timeout = 0.3 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  let ensemble = Zk.Ensemble.start ~trace engine cfg in
  let result = ref None in
  Process.spawn engine (fun () ->
      Process.sleep 0.1;
      let leader = Option.get (Zk.Ensemble.leader_id ensemble) in
      let s = Zk.Ensemble.session ensemble ~server:((leader + 1) mod 3) () in
      Zk.Ensemble.crash ensemble leader;
      result := Some (s.Zk.Zk_client.create "/r" ~data:"x"));
  Engine.run engine;
  check_bool "the retried create succeeded" true
    (match !result with Some (Ok _) -> true | Some (Error _) | None -> false);
  check_int "one create traced" 1 (Trace.span_count trace "zk.create.total");
  check_int "with one retry span" 1 (Trace.span_count trace "zk.create.retry");
  check_int "nothing dropped" 0 (Trace.dropped trace ~op:"create");
  let span name =
    match Trace.span_mean trace ("zk.create." ^ name) with
    | Some m -> m
    | None -> Alcotest.fail (name ^ ": no sample")
  in
  let retry = span "retry" and total = span "total" in
  check_bool "the retry span covers the timeout" true (retry >= 0.3);
  let sum = List.fold_left (fun acc p -> acc +. span p) retry Trace.phases in
  check_bool
    (Printf.sprintf "retry + phases %.12g = total %.12g" sum total)
    true
    (Float.abs (sum -. total) <= 1e-9 *. total)

(* The one create of [trace] is traced, not dropped, with one retry
   span; retry plus the five phases is its latency. *)
let check_one_traced_retry trace =
  check_int "nothing dropped" 0 (Trace.dropped trace ~op:"create");
  check_int "one create traced" 1 (Trace.span_count trace "zk.create.total");
  check_int "with one retry span" 1 (Trace.span_count trace "zk.create.retry");
  let span name = Option.get (Trace.span_mean trace ("zk.create." ^ name)) in
  let sum = List.fold_left (fun acc p -> acc +. span p) (span "retry") Trace.phases in
  check_bool
    (Printf.sprintf "retry + phases %.12g = total %.12g" sum (span "total"))
    true
    (Float.abs (sum -. span "total") <= 1e-9 *. span "total")

(* The origin follower dies after forwarding a create but before the
   commit's reply reaches it: the client times out and retries against
   another server, and the leader answers the retry from its dedup
   table. The span must be restamped at that answer, so the write is
   traced as one retry whose phases tile its latency, not dropped as
   half-stamped. *)
let test_dedup_answered_retry_is_traced () =
  let engine = Engine.create () in
  let cfg =
    { (Zk.Ensemble.default_config ~servers:5) with
      Zk.Ensemble.election_timeout = 0.2;
      request_timeout = 0.3 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  let ensemble = Zk.Ensemble.start ~trace engine cfg in
  let result = ref None in
  Process.spawn engine (fun () ->
      let s = Zk.Ensemble.session ensemble ~server:4 () in
      result := Some (s.Zk.Zk_client.create "/once" ~data:"x"));
  Engine.schedule engine ~delay:0.0002 (fun () -> Zk.Ensemble.crash ensemble 4);
  Engine.run engine;
  check_bool "the retried create succeeded" true
    (match !result with Some (Ok _) -> true | Some (Error _) | None -> false);
  check_int "retry answered from the dedup table" 1 (Zk.Ensemble.dedup_hits ensemble);
  check_one_traced_retry trace

(* The followers die before acking a create, so the leader holds it
   pending past the client's timeout; the client's retry reaches the
   leader and is re-pointed at the pending proposal, which commits once
   the followers are back. The span is restamped at the re-point, so
   the write is traced as one retry, not dropped. *)
let test_repointed_retry_is_traced () =
  let engine = Engine.create () in
  let cfg =
    { (Zk.Ensemble.default_config ~servers:3) with
      Zk.Ensemble.election_timeout = 0.2;
      request_timeout = 0.3 }
  in
  let trace = Trace.create () in
  Trace.enable trace;
  let ensemble = Zk.Ensemble.start ~trace engine cfg in
  let result = ref None in
  Process.spawn engine (fun () ->
      Process.sleep 0.1;
      let leader = Option.get (Zk.Ensemble.leader_id ensemble) in
      let s = Zk.Ensemble.session ensemble ~server:leader () in
      List.iter
        (fun id -> if id <> leader then Zk.Ensemble.crash ensemble id)
        (Zk.Ensemble.member_ids ensemble);
      Engine.schedule engine ~delay:0.45 (fun () ->
          List.iter
            (fun id -> if id <> leader then Zk.Ensemble.restart ensemble id)
            (Zk.Ensemble.member_ids ensemble));
      result := Some (s.Zk.Zk_client.create "/pending" ~data:"x"));
  Engine.run engine;
  check_bool "the retried create succeeded" true
    (match !result with Some (Ok _) -> true | Some (Error _) | None -> false);
  check_int "retry re-pointed at the pending proposal" 1 (Zk.Ensemble.dedup_hits ensemble);
  check_one_traced_retry trace

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "get-or-create" `Quick test_get_or_create;
          Alcotest.test_case "names ordered" `Quick test_names_in_registration_order ] );
      ( "trace",
        [ Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "span quantile exact" `Quick test_span_quantile_exact;
          Alcotest.test_case "off allocates nothing" `Quick test_off_allocates_nothing;
          Alcotest.test_case "wspan allocation gate" `Quick test_wspan_allocation_gate;
          Alcotest.test_case "half-stamped dropped" `Quick
            test_finish_write_rejects_half_stamped ] );
      ( "end-to-end",
        [ Alcotest.test_case "tracing preserves determinism" `Quick
            test_tracing_preserves_determinism;
          Alcotest.test_case "phases telescope to op latency" `Quick
            test_phase_telescoping;
          Alcotest.test_case "crash-leader retries counted as dropped" `Quick
            test_crash_retry_counts_dropped_spans;
          Alcotest.test_case "a retry span tiles the total" `Quick
            test_retry_span_tiles_the_total;
          Alcotest.test_case "a dedup-answered retry is traced" `Quick
            test_dedup_answered_retry_is_traced;
          Alcotest.test_case "a re-pointed retry is traced" `Quick
            test_repointed_retry_is_traced ] ) ]
