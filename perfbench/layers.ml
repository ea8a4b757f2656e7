(* Per-layer metrics of one traced window: the Probe spans, the
   program's existing Obs.Trace quorum phases, and the public counters
   of every layer, differenced across the measured window. A layer the
   workload does not run reports 0 (no cache on mdtest-shared, no
   recovery without a fault) — never an invented value. *)

type snapshot = (string * float) list

let sum_ens st f = Array.fold_left (fun acc e -> acc +. float_of_int (f e)) 0. (Stack.ensembles st)

let sum_lustre st f = Array.fold_left (fun acc m -> acc +. f m) 0. st.Stack.lustre

let summary_total s = float_of_int (Simkit.Stat.Summary.count s) *. Simkit.Stat.Summary.mean s

let cache_sum st f = List.fold_left (fun acc c -> acc +. float_of_int (f c)) 0. st.Stack.caches

let snapshot st : snapshot =
  let router_stats =
    match st.Stack.deployment with
    | Stack.Sharded r ->
      let s = Zk.Shard_router.stats r in
      float_of_int (s.Zk.Shard_router.cross_shard_multis + s.Zk.Shard_router.cross_shard_deletes)
    | Stack.Single _ -> 0.
  in
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i e -> (Printf.sprintf "shard%d.writes" i, float_of_int (Zk.Ensemble.writes_committed e)))
         (Stack.ensembles st))
  in
  [ ("events", float_of_int (Simkit.Engine.executed_events st.Stack.engine));
    ("writes", sum_ens st Zk.Ensemble.writes_committed);
    ("msgs", sum_ens st (fun e -> Simkit.Net.sent (Zk.Ensemble.net e)));
    ("wal_appended", sum_ens st Zk.Ensemble.wal_appended);
    ("wal_replayed", sum_ens st Zk.Ensemble.wal_replayed);
    ("wal_truncated", sum_ens st Zk.Ensemble.wal_truncated);
    ("diff_txns", sum_ens st Zk.Ensemble.transfer_diff_txns);
    ("snap_loads", sum_ens st Zk.Ensemble.snap_loads);
    ("leases_revoked", sum_ens st Zk.Ensemble.leases_revoked);
    ("commit_fanouts", sum_ens st Zk.Ensemble.commit_fanouts);
    ("piggybacked", sum_ens st Zk.Ensemble.piggybacked_commits);
    ("dedup_hits", sum_ens st Zk.Ensemble.dedup_hits);
    ("sessions_expired", sum_ens st Zk.Ensemble.sessions_expired);
    ("writes_failed_fast", sum_ens st Zk.Ensemble.writes_failed_fast);
    ("lock_revokes", sum_lustre st (fun m -> float_of_int (Pfs.Lustre_sim.lock_revokes m)));
    ("mds_served", sum_lustre st (fun m -> float_of_int (Pfs.Lustre_sim.mds_served m)));
    ("mds_wait_n", sum_lustre st (fun m ->
         float_of_int (Simkit.Stat.Summary.count (Pfs.Lustre_sim.mds_wait_summary m))));
    ("mds_wait_s", sum_lustre st (fun m -> summary_total (Pfs.Lustre_sim.mds_wait_summary m)));
    ("mds_hold_n", sum_lustre st (fun m ->
         float_of_int (Simkit.Stat.Summary.count (Pfs.Lustre_sim.mds_hold_summary m))));
    ("mds_hold_s", sum_lustre st (fun m -> summary_total (Pfs.Lustre_sim.mds_hold_summary m)));
    ("cross_shard", router_stats);
    ("cache_hits", cache_sum st Dufs.Cache.hits);
    ("cache_misses", cache_sum st Dufs.Cache.misses);
    ("cache_invalidations", cache_sum st Dufs.Cache.invalidations) ]
  @ per_shard

let delta ~before ~after = List.map (fun (k, v) -> (k, v -. List.assoc k before)) after

let ratio a b = if b = 0. then 0. else a /. b

(* Mean of one quorum phase over every write op label the ensemble
   traced ([zk.<op>.<phase>], exact summaries), in ms. *)
let zk_phase_ms trace phase =
  let n, total =
    List.fold_left
      (fun (n, total) op ->
        let name = Printf.sprintf "zk.%s.%s" op phase in
        let c = Obs.Trace.span_count trace name in
        match Obs.Trace.span_mean trace name with
        | Some m -> (n + c, total +. (m *. float_of_int c))
        | None -> (n, total))
      (0, 0.) [ "create"; "delete"; "set"; "multi" ]
  in
  if n = 0 then 0. else 1e3 *. total /. float_of_int n

(* The per-layer metric names, in report order, with their units. *)
let metric_units =
  [ ("client.self_ms", "ms"); ("client.coord_calls_per_op", "calls/op");
    ("client.backend_calls_per_op", "calls/op"); ("cache.hit_ratio", "ratio");
    ("cache.lookups", "count"); ("cache.invalidations", "count");
    ("lease.revoked_per_write", "revokes/write");
    ("router.cross_shard_per_write", "ops/write"); ("router.shard_write_skew", "ratio");
    ("zk.write_ms", "ms"); ("zk.write_p99_ms", "ms"); ("zk.read_ms", "ms");
    ("zk.queue_wait_ms", "ms"); ("zk.propose_ms", "ms"); ("zk.persist_ms", "ms");
    ("zk.ack_ms", "ms"); ("zk.commit_ms", "ms"); ("zk.msgs_per_write", "msgs/write");
    ("zk.piggyback_ratio", "ratio"); ("zk.dedup_hits", "count");
    ("zk.sessions_expired", "count"); ("zk.writes_failed_fast", "count");
    ("wal.appends_per_write", "appends/write"); ("wal.replayed", "count");
    ("wal.truncated", "count"); ("wal.diff_txns", "count"); ("wal.snap_loads", "count");
    ("wal.recovery_ms_max", "ms"); ("mds.wait_ms", "ms"); ("mds.hold_ms", "ms");
    ("dlm.revokes_per_op", "revokes/op"); ("backend.call_ms", "ms");
    ("sim.events_per_op", "events/op"); ("sim.minor_words_per_op", "words/op");
    ("trace.overhead_pct", "%"); ("openloop.late_ms_max", "ms") ]

(* [metrics st ~d ~ops ~client_ops] — every per-layer metric of a traced window
   but three: main.ml derives [sim.minor_words_per_op] and
   [trace.overhead_pct] from the untraced windows, and power-fail adds
   its open-loop generator's [openloop.late_ms_max]. [d] is the
   window's counter delta, [ops] its VFS op count, [client_ops] that
   plus power-fail's open-loop register writes (the simulator's cost
   is per client op, like [host_us_per_op]). *)
let metrics st ~d ~ops ~client_ops =
  let p = Option.get st.Stack.probe in
  let g k = List.assoc k d in
  let ops = float_of_int ops in
  let writes = g "writes" in
  let shard_writes =
    List.filter_map
      (fun (k, v) -> if String.length k > 5 && String.sub k 0 5 = "shard" then Some v else None)
      d
  in
  let skew =
    match shard_writes with
    | [] | [ _ ] -> 1.
    | l ->
      let mean = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      ratio (List.fold_left Float.max 0. l) mean
  in
  let lookups = g "cache_hits" +. g "cache_misses" in
  let zk_p99 =
    let s = Stats.Fvec.to_array p.Probe.zk_write_samples in
    if Array.length s = 0 then 0. else 1e3 *. Stats.percentile s 0.99
  in
  let recovery_max =
    Array.fold_left
      (fun acc e -> Float.max acc (Zk.Ensemble.recovery_time_max e))
      0. (Stack.ensembles st)
  in
  [ ("client.self_ms", 1e3 *. ratio p.Probe.vfs_self (float_of_int p.Probe.vfs.Probe.calls));
    ("client.coord_calls_per_op", ratio (float_of_int p.Probe.coord.Probe.calls) ops);
    ("client.backend_calls_per_op", ratio (float_of_int p.Probe.backend.Probe.calls) ops);
    ("cache.hit_ratio", ratio (g "cache_hits") lookups);
    ("cache.lookups", lookups);
    ("cache.invalidations", g "cache_invalidations");
    ("lease.revoked_per_write", ratio (g "leases_revoked") writes);
    ("router.cross_shard_per_write", ratio (g "cross_shard") writes);
    ("router.shard_write_skew", skew);
    ("zk.write_ms", Probe.mean_ms p.Probe.zk_write);
    ("zk.write_p99_ms", zk_p99);
    ("zk.read_ms", Probe.mean_ms p.Probe.zk_read);
    ("zk.queue_wait_ms", zk_phase_ms st.Stack.trace "queue-wait");
    ("zk.propose_ms", zk_phase_ms st.Stack.trace "propose");
    ("zk.persist_ms", zk_phase_ms st.Stack.trace "persist");
    ("zk.ack_ms", zk_phase_ms st.Stack.trace "ack");
    ("zk.commit_ms", zk_phase_ms st.Stack.trace "commit");
    ("zk.msgs_per_write", ratio (g "msgs") writes);
    ("zk.piggyback_ratio", ratio (g "piggybacked") (g "piggybacked" +. g "commit_fanouts"));
    ("zk.dedup_hits", g "dedup_hits");
    ("zk.sessions_expired", g "sessions_expired");
    ("zk.writes_failed_fast", g "writes_failed_fast");
    ("wal.appends_per_write", ratio (g "wal_appended") writes);
    ("wal.replayed", g "wal_replayed");
    ("wal.truncated", g "wal_truncated");
    ("wal.diff_txns", g "diff_txns");
    ("wal.snap_loads", g "snap_loads");
    ("wal.recovery_ms_max", 1e3 *. recovery_max);
    ("mds.wait_ms", 1e3 *. ratio (g "mds_wait_s") (g "mds_wait_n"));
    ("mds.hold_ms", 1e3 *. ratio (g "mds_hold_s") (g "mds_hold_n"));
    ("dlm.revokes_per_op", ratio (g "lock_revokes") (g "mds_served"));
    ("backend.call_ms", Probe.mean_ms p.Probe.backend);
    ("sim.events_per_op", ratio (g "events") (float_of_int client_ops)) ]
