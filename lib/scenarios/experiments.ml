(* The experiment table: every experiment [dufs_bench] runs, declared
   once with its id and doc line, its BENCH file, whether it is gated,
   its full run and its CI smoke shape. Every driver returns its bench
   points and check failures; [run] alone writes the file and gates the
   run. The paper figures (fig7-fig11) are the ungated rows: they print
   their series and write nothing. *)

open Figures
module Report = Mdtest.Report

type outcome = Report.bench_point list * string list

type t = {
  id : string;
  doc : string;
  bench : string option;
  gated : bool;
  run : unit -> outcome;
  smoke : (string * (unit -> outcome)) option;
}

let row ?bench ?smoke ?(gated = true) id doc run = { id; doc; bench; gated; run; smoke }

(* The smokes' two chaos schedules, one single-shard and one 4-shard. *)
let smoke_chaos_runs = [ (1, 11L); (4, 12L) ]

let table =
  [ row ~gated:false "fig7" "ZooKeeper raw op throughput vs ensemble size" (fun () ->
        fig7 ());
    row ~gated:false "fig8" "DUFS op throughput vs number of ZooKeeper servers" fig8;
    row ~gated:false "fig9" "DUFS file ops with 2 vs 4 Lustre backends" fig9;
    row ~gated:false "fig10" "DUFS vs Basic Lustre and Basic PVFS2" fig10;
    row "headline" "§V-D headline ratios at 256 procs" headline;
    row ~gated:false "fig11" "memory usage vs directories created" (fun () -> fig11 ());
    row "ablation-mapping"
      "MD5-mod-N vs consistent hashing; gated: mod-N relocates ~N/(N+1) of \
       FIDs on grow, the ring ~1/(N+1), both balanced"
      ablation_mapping;
    row "ablation-cmd"
      "DUFS vs hypothetical Lustre Clustered MDS; gated: more MDSes speed \
       dir-stat and slow dir-create, DUFS beats both CMD variants"
      ablation_cmd;
    row "ablation-unique"
      "shared vs unique working directories (mdtest -u); gated: Lustre gains \
       >= 10%, DUFS within 2%"
      ablation_unique;
    row "ablation-async"
      "synchronous vs pipelined coordination API; gated: window 16 >= 2.5x \
       window 1 at 1 client, flat at 8"
      ablation_async;
    row "ablation-cache"
      "client-side metadata cache with lease invalidation; gated: DUFS+cache \
       within 2% of DUFS on mdtest, hot stat loop >= 20x"
      (fun () -> ablation_cache ())
      ~smoke:
        ( "ablation-cache at 64 procs, 12 dirs and 12 files per proc",
          fun () -> ablation_cache ~procs:64 ~items:12 ~hot_procs:[ 64 ] () );
    row "ablation-giga"
      "GIGA+ directory indexing vs DUFS vs Lustre; gated: GIGA+ >= 10x both, \
       partly unavailable after a crash"
      ablation_giga;
    row "ablation-observers"
      "non-voting observers: reads scale, writes unaffected; gated: 3 voters + \
       4 observers keep 95% of 7 voters' gets and 3 voters' creates"
      ablation_observers;
    (* At 32 procs and 30 items the smoke's file-create phase still
       outlasts every plan's crash offsets, so each fault lands in the
       phase its plan names, as in the full run. *)
    row "faults" "mdtest under fault schedules: fault-free vs faulted"
      ~bench:"BENCH_pr2" (fun () -> faults ())
      ~smoke:
        ( "faults at 32 procs, 30 dirs and 30 files per proc",
          fun () -> faults ~procs:32 ~items:30 () );
    row "profile" "span-traced mdtest: latency percentiles + quorum phase breakdown"
      ~bench:"BENCH_pr3" (fun () -> profile ())
      ~smoke:("profile at 64 procs only", fun () -> profile ~procs_list:[ 64 ] ());
    row "sharding" "namespace sharded across 1/2/4 ZAB ensembles, batched and unbatched"
      ~bench:"BENCH_pr4" (fun () -> sharding ())
      ~smoke:
        ( "sharding at 64 procs, 1x8 vs 2x4 batched",
          fun () ->
            sharding ~procs_list:[ 64 ] ~topologies:[ (1, 8); (2, 4) ] ~batches:[ 16 ] ()
        );
    row "chaos" "randomized network-fault schedules + linearizability checker"
      ~bench:"BENCH_pr5" (fun () -> chaos ())
      ~smoke:
        ( "chaos at 64 procs, 2 fixed seeds",
          fun () ->
            chaos ~runs:smoke_chaos_runs
              ~shape:
                { chaos_shape with
                  clients = 64; registers = 16; heal_at = 8.; post_heal = 6.; events = 8 }
              () );
    row "engine"
      "simulator engine wall-clock throughput: 10^6-event timer/mailbox/net mixes"
      ~bench:"BENCH_pr6" (fun () -> Engine_bench.run ())
      ~smoke:
        ( "engine throughput at 10^5 events",
          fun () -> Engine_bench.run ~events:100_000 ~quota_s:0.5 () );
    row "sessions"
      "lease-coherent client caches at 1k-100k sessions: server state per \
       working directory, observer read scaling"
      ~bench:"BENCH_pr7" (fun () -> Sessions_bench.run ())
      ~smoke:
        ("sessions at 1k, 2 observers", fun () -> Sessions_bench.run ~cases:[ (1_000, 2) ] ());
    row "reshard"
      "elastic resharding: live 2->4 shard split (and 4->2 merge) during \
       mdtest file creates, linearizability-checked"
      ~bench:"BENCH_pr8" (fun () -> reshard ())
      ~smoke:("resharding at 64 procs", fun () -> reshard ~procs_list:[ 64 ] ());
    (* The 30% acceptance bar is measured on the full run's 256-proc
       point; the smoke keeps a softer 10% floor so a genuinely broken
       pipeline still fails fast without making CI sensitive to the
       smaller scale's exact split. *)
    row "pipeline"
      "pipelined ZAB write path: windowed proposals vs stop-and-wait, traced \
       breakdown + chaos sweep with the window open"
      ~bench:"BENCH_pr9" (fun () -> pipeline ())
      ~smoke:
        ( "pipeline at 64 procs, 2 chaos seeds",
          fun () ->
            pipeline ~procs_list:[ 64 ] ~chaos_runs:smoke_chaos_runs ~min_improvement:10. ()
        );
    row "durability"
      "checksummed-WAL durability: whole-cluster power failures + storage \
       corruption under mdtest, durability oracle"
      ~bench:"BENCH_pr10" (fun () -> durability ())
      ~smoke:
        ( "durability at 16 procs, 4 schedules",
          fun () ->
            durability
              ~seeds:(List.map Int64.of_int [ 1; 2; 3; 4 ])
              ~procs:16 ~ops_per_client:30 ~dirs_per_proc:6 ~files_per_proc:6 () ) ]

let bench_file e ~smoke =
  Option.map (fun stem -> stem ^ (if smoke then "_smoke" else "") ^ ".json") e.bench

let run ?(smoke = false) e =
  let f =
    match (smoke, e.smoke) with
    | false, _ -> e.run
    | true, Some (_, f) -> f
    | true, None -> invalid_arg (e.id ^ " has no smoke run")
  in
  let points, failures = f () in
  Option.iter (fun path -> Report.emit_json ~path points) (bench_file e ~smoke);
  if e.gated then Report.gate ~experiment:e.id failures

let ids =
  let line doc = function
    | [] -> doc
    | notes -> Printf.sprintf "%s (%s)" doc (String.concat "; " notes)
  in
  let writes e ~smoke = Option.to_list (Option.map (( ^ ) "writes ") (bench_file e ~smoke)) in
  List.concat_map
    (fun e ->
      (e.id, line e.doc (writes e ~smoke:false), fun () -> run e)
      :: List.map
           (fun (doc, _) ->
             ( e.id ^ "-smoke",
               line doc ("CI" :: writes e ~smoke:true),
               fun () -> run ~smoke:true e ))
           (Option.to_list e.smoke))
    table
  @ [ ("all", "every experiment in order", fun () -> List.iter run table) ]

let ci_ids =
  List.filter_map
    (fun e ->
      if not e.gated then None
      else Some (if e.smoke = None then e.id else e.id ^ "-smoke"))
    table
