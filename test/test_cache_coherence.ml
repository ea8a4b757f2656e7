(* The client cache's coherence machinery: fill fencing against
   revocations that race a read reply, lease coherence — expiry on the
   sim clock, the aggregated revocation channel, the TTL staleness bound
   after a lease-table loss — the observer gap-repair fix, and a qcheck
   property pinning the cache to an uncached session over random
   interleavings. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Zk_local = Zk.Zk_local
module Zk_client = Zk.Zk_client
module Ztree = Zk.Ztree
module Zerror = Zk.Zerror
module Cache = Dufs.Cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let zk_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Zk.Zerror.to_string e)

let get_data label h path = fst (zk_ok label (h.Zk_client.get path))

(* Zk_local's default clock: constant 0, so a cache compared against it
   sees no lease expire. *)
let zero_clock () = 0.

(* {2 Fill races}

   The window: a fill's read reply is in flight when a revocation of its
   entry arrives. Every fill is fenced by a per-path counter, so the
   stale reply is dropped instead of being cached with nothing left to
   revoke it.

   Zk_local is synchronous, so the race is staged by interposing on the
   wire: the server answers and grants the lease, then a concurrent
   write commits — revoking through the session's aggregated channel —
   before the reply reaches the cache. Each racing fill may return what
   the server read but must not store it. *)

(* A lease cache over a session whose read is wrapped by [install]: the
   wrapper calls [after_read p] between the server's answer for [p] and
   the reply's return, and the first time [p = path], [write] commits
   from another session. *)
let lease_cache_racing ~install ~path ~write =
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  let raw = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/a" ~data:"v1"));
  let raced = ref false in
  let after_read p =
    if (not !raced) && p = path then begin
      raced := true;
      write writer
    end
  in
  let cache = Cache.wrap ~now:zero_clock (install raw after_read) in
  (cache, Cache.handle cache)

let test_lease_get_race_fenced () =
  let _, cached =
    lease_cache_racing ~path:"/d/a"
      ~write:(fun w -> ignore (zk_ok "racing set" (w.Zk_client.set "/d/a" ~data:"v2")))
      ~install:(fun raw after_read ->
        { raw with
          Zk_client.lease_get =
            (fun p ->
              let result = raw.Zk_client.lease_get p in
              after_read p;
              result) })
  in
  check_string "racing fill returns what the server read" "v1"
    (get_data "racing fill" cached "/d/a");
  check_string "next read sees the concurrent write" "v2"
    (get_data "re-read" cached "/d/a");
  check_string "and the fresh fill is cached normally" "v2"
    (get_data "cached" cached "/d/a")

let test_lease_children_race_fenced () =
  let cache, cached =
    lease_cache_racing ~path:"/d"
      ~write:(fun w -> ignore (zk_ok "racing create" (w.Zk_client.create "/d/b" ~data:"")))
      ~install:(fun raw after_read ->
        { raw with
          Zk_client.lease_children =
            (fun p ->
              let result = raw.Zk_client.lease_children p in
              after_read p;
              result) })
  in
  check_int "racing listing returns what the server read" 1
    (List.length (zk_ok "racing fill" (cached.Zk_client.children "/d")));
  let misses = Cache.misses cache in
  check_int "next listing sees the concurrent create" 2
    (List.length (zk_ok "re-list" (cached.Zk_client.children "/d")));
  check_int "because the racing fill stored nothing" (misses + 1) (Cache.misses cache)

let test_lease_bulk_race_fenced () =
  let cache, cached =
    lease_cache_racing ~path:"/d"
      ~write:(fun w -> ignore (zk_ok "racing create" (w.Zk_client.create "/d/b" ~data:"")))
      ~install:(fun raw after_read ->
        { raw with
          Zk_client.lease_children_with_data =
            (fun p ->
              let result = raw.Zk_client.lease_children_with_data p in
              after_read p;
              result) })
  in
  check_int "racing listing returns what the server read" 1
    (List.length (zk_ok "racing fill" (cached.Zk_client.children_with_data "/d")));
  check_int "nothing was warmed" 0 (Cache.size cache);
  check_int "next listing sees the concurrent create" 2
    (List.length (zk_ok "re-list" (cached.Zk_client.children_with_data "/d")))

(* Two fills of one path in flight at once (the second issued while the
   first's reply is still on the wire) share one reference-counted
   fence. [write_while_both] picks when the write lands: while both are
   in flight, or after the inner fill has returned but before the outer
   one has. Either way the outer fill must not store the old value. *)
let nested_lease_fills ~write_while_both =
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  let raw = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/a" ~data:"v1"));
  let write () = ignore (zk_ok "racing set" (writer.Zk_client.set "/d/a" ~data:"v2")) in
  let depth = ref 0 and inner = ref None and fences_seen = ref [] in
  let cache_ref = ref None in
  let coord =
    { raw with
      Zk_client.lease_get =
        (fun p ->
          incr depth;
          let result = raw.Zk_client.lease_get p in
          let cache = Option.get !cache_ref in
          fences_seen := Cache.open_fences cache :: !fences_seen;
          (match !depth with
           | 1 ->
             (* the outer fill's reply is in flight: a second fill starts *)
             inner := Some (get_data "inner fill" (Cache.handle cache) p);
             if not write_while_both then write ()
           | _ -> if write_while_both then write ());
          decr depth;
          result) }
  in
  let cache = Cache.wrap ~now:zero_clock coord in
  cache_ref := Some cache;
  let cached = Cache.handle cache in
  check_string "outer fill returns what the server read" "v1"
    (get_data "outer fill" cached "/d/a");
  check_string "inner fill too" "v1" (Option.get !inner);
  Alcotest.(check (list int)) "both fills share one fence" [ 1; 1 ] !fences_seen;
  check_int "no fence outlives its fills" 0 (Cache.open_fences cache);
  check_string "neither stale fill was kept" "v2" (get_data "re-read" cached "/d/a")

let test_nested_fills_write_while_both () = nested_lease_fills ~write_while_both:true
let test_nested_fills_write_after_inner () = nested_lease_fills ~write_while_both:false

(* Fences exist only while a fill is in flight: thousands of foreign
   creates and unlinks under a leased directory — each revoking this
   cache — leave none behind. *)
let test_fence_state_bounded () =
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/a" ~data:""));
  let cache = Cache.wrap ~now:zero_clock (Zk_local.session service) in
  let cached = Cache.handle cache in
  let revoked_before = Zk.Lease.revoked (Zk_local.leases service) in
  for i = 0 to 1999 do
    (* keep both the listing and an entry leased, so every write revokes *)
    ignore (zk_ok "list" (cached.Zk_client.children "/d"));
    ignore (zk_ok "get" (cached.Zk_client.get "/d/a"));
    let path = Printf.sprintf "/d/f%04d" i in
    ignore (zk_ok "create" (writer.Zk_client.create path ~data:""));
    ignore (zk_ok "unlink" (writer.Zk_client.delete path))
  done;
  check_bool "every write revoked this cache" true
    (Zk.Lease.revoked (Zk_local.leases service) - revoked_before >= 4000);
  check_int "no fence is held between fills" 0 (Cache.open_fences cache)

(* {2 Own-write invalidation of sequential names}

   A sequential create materializes under a name the caller did not
   request. With no revocation arriving (the channel is stubbed out), only
   the cache's own invalidation can drop a negative entry for that name;
   [multi] always did, [multi_async] now does too. *)

let test_multi_async_invalidates_sequential_name () =
  let service = Zk_local.create () in
  let raw = Zk_local.session service in
  ignore (zk_ok "mkdir" (raw.Zk_client.create "/q" ~data:""));
  let coord = { raw with Zk_client.set_invalidation = (fun _ -> ()) } in
  let cached = Cache.handle (Cache.wrap ~now:zero_clock coord) in
  let name = Zk.Zpath.concat "/q" (Zk.Zpath.sequential_name "n-" 0) in
  (match cached.Zk_client.get name with
   | Error Zerror.ZNONODE -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected a cached ZNONODE");
  let created = ref None in
  cached.Zk_client.multi_async
    [ Zk.Txn.Create
        { path = "/q/n-"; data = "x"; ephemeral_owner = 0L; sequential = true } ]
    (fun result -> created := Some result);
  (match !created with
   | Some (Ok [ Zk.Txn.Created actual ]) -> check_string "actual name" name actual
   | Some _ | None -> Alcotest.fail "sequential create did not complete");
  check_string "the client sees its own create" "x" (get_data "own create" cached name)

(* {2 Failed fills cache nothing}

   The server grants the lease before the reply is sent; if the reply
   is lost (timeout, connection loss) the cache must store nothing and
   hold no fence, so the next read goes back to the server. The lease
   left behind on the server is session-level and expires on its own. *)

let test_failed_fill_caches_nothing () =
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  let raw = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/f" ~data:"x"));
  let lose = ref true in
  let lost f = if !lose then Error Zerror.ZCONNECTIONLOSS else f in
  let coord =
    { raw with
      Zk_client.lease_get = (fun p -> lost (raw.Zk_client.lease_get p));
      lease_children = (fun p -> lost (raw.Zk_client.lease_children p));
      lease_children_with_data =
        (fun p -> lost (raw.Zk_client.lease_children_with_data p)) }
  in
  let cache = Cache.wrap ~now:zero_clock coord in
  let cached = Cache.handle cache in
  let expect_loss label = function
    | Error Zerror.ZCONNECTIONLOSS -> ()
    | Ok _ | Error _ -> Alcotest.failf "%s: expected the injected loss" label
  in
  expect_loss "get" (cached.Zk_client.get "/d/f");
  expect_loss "children" (cached.Zk_client.children "/d");
  expect_loss "bulk" (cached.Zk_client.children_with_data "/d");
  check_int "nothing cached" 0 (Cache.size cache);
  check_int "no fence left open" 0 (Cache.open_fences cache);
  lose := false;
  let misses = Cache.misses cache in
  check_string "the next read goes to the server" "x" (get_data "get" cached "/d/f");
  check_int "as a miss" (misses + 1) (Cache.misses cache)

(* {2 Leases: zero per-znode server state}

   The server-state shape the sessions bench measures: lease coherence
   is O(session working dirs), not O(cached znodes). *)

let test_lease_mode_server_state_is_per_directory () =
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  for d = 0 to 3 do
    ignore
      (zk_ok "mkdir" (writer.Zk_client.create (Printf.sprintf "/d%d" d) ~data:""));
    for i = 0 to 49 do
      ignore
        (zk_ok "seed"
           (writer.Zk_client.create (Printf.sprintf "/d%d/f%02d" d i) ~data:""))
    done
  done;
  let cache = Cache.wrap ~now:zero_clock (Zk_local.session service) in
  let cached = Cache.handle cache in
  for d = 0 to 3 do
    for i = 0 to 49 do
      ignore (zk_ok "read" (cached.Zk_client.get (Printf.sprintf "/d%d/f%02d" d i)))
    done
  done;
  check_int "no per-znode watches at all" 0
    (Ztree.watch_count (Zk_local.tree service));
  check_bool "lease table holds one interest per working directory" true
    (Zk.Lease.entries (Zk_local.leases service) <= 4);
  check_int "200 reads cost 4 grants" 4 (Zk.Lease.granted (Zk_local.leases service));
  check_int "and 196 renewals" 196 (Zk.Lease.renewed (Zk_local.leases service))

let test_lease_revocation_channel () =
  (* committed changes reach the leased cache synchronously through the
     session's single aggregated invalidation callback *)
  let service = Zk_local.create () in
  let writer = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/f" ~data:"v1"));
  let cache = Cache.wrap ~now:zero_clock (Zk_local.session service) in
  let cached = Cache.handle cache in
  check_string "warm" "v1" (get_data "warm" cached "/d/f");
  check_int "listing warm" 1
    (List.length (zk_ok "list" (cached.Zk_client.children "/d")));
  ignore (zk_ok "set" (writer.Zk_client.set "/d/f" ~data:"v2"));
  check_string "set revokes the data lease" "v2" (get_data "reread" cached "/d/f");
  ignore (zk_ok "create" (writer.Zk_client.create "/d/g" ~data:""));
  check_int "create revokes the listing lease" 2
    (List.length (zk_ok "relist" (cached.Zk_client.children "/d")));
  ignore (zk_ok "delete" (writer.Zk_client.delete "/d/g"));
  check_int "delete revokes it again" 1
    (List.length (zk_ok "relist2" (cached.Zk_client.children "/d")));
  (* negative caching: a leased ZNONODE answer is revoked by creation *)
  (match cached.Zk_client.get "/d/new" with
  | Error Zerror.ZNONODE -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected ZNONODE");
  ignore (zk_ok "create new" (writer.Zk_client.create "/d/new" ~data:"born"));
  check_string "creation revokes the negative entry" "born"
    (get_data "negative revoked" cached "/d/new");
  check_bool "revocations were pushed, not polled" true
    (Zk.Lease.revoked (Zk_local.leases service) >= 4)

let test_lease_expiry_on_sim_clock () =
  let now = ref 0.0 in
  let service = Zk_local.create ~clock:(fun () -> !now) ~lease_ttl:5.0 () in
  let writer = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/f" ~data:"x"));
  let cache =
    Cache.wrap ~now:(fun () -> !now)
      (Zk_local.session service)
  in
  let cached = Cache.handle cache in
  ignore (zk_ok "fill" (cached.Zk_client.get "/d/f"));
  let misses_after_fill = Cache.misses cache in
  now := 4.9;
  ignore (zk_ok "hit" (cached.Zk_client.get "/d/f"));
  check_int "within the lease: served locally" misses_after_fill
    (Cache.misses cache);
  check_int "no expiry yet" 0 (Cache.lease_expired_hits cache);
  now := 5.0;
  ignore (zk_ok "refill" (cached.Zk_client.get "/d/f"));
  check_int "at the deadline: entry expired, refetched" (misses_after_fill + 1)
    (Cache.misses cache);
  check_int "expired hit counted" 1 (Cache.lease_expired_hits cache);
  (* the refill re-granted: the server saw the first interest expire *)
  check_int "server observed the expired interest" 1
    (Zk.Lease.expired (Zk_local.leases service));
  check_int "and granted twice in total" 2
    (Zk.Lease.granted (Zk_local.leases service));
  now := 9.9;
  ignore (zk_ok "hit2" (cached.Zk_client.get "/d/f"));
  check_int "the new lease serves locally again" (misses_after_fill + 1)
    (Cache.misses cache)

let test_lease_staleness_bounded_by_ttl () =
  (* the protocol's staleness bound: a crashed replica loses its lease
     table with its RAM, so revocations stop — but only until the
     deadline, after which every entry self-expires *)
  let now = ref 0.0 in
  let service = Zk_local.create ~clock:(fun () -> !now) ~lease_ttl:5.0 () in
  let writer = Zk_local.session service in
  ignore (zk_ok "mkdir" (writer.Zk_client.create "/d" ~data:""));
  ignore (zk_ok "seed" (writer.Zk_client.create "/d/f" ~data:"old"));
  let cache =
    Cache.wrap ~now:(fun () -> !now)
      (Zk_local.session service)
  in
  let cached = Cache.handle cache in
  check_string "warm" "old" (get_data "warm" cached "/d/f");
  (* the serving replica crashes: its lease table is gone *)
  Zk.Lease.clear (Zk_local.leases service);
  ignore (zk_ok "unrevoked write" (writer.Zk_client.set "/d/f" ~data:"new"));
  now := 1.0;
  check_string "within the TTL the client may serve the stale value" "old"
    (get_data "stale window" cached "/d/f");
  now := 5.0;
  check_string "past the deadline it must refetch" "new"
    (get_data "bounded" cached "/d/f")

(* {2 Satellite 4: observers repair Inform gaps before serving}

   An observer that misses Inform messages (partition, loss) must not
   skip the gap: it buffers, fetches the missing committed entries from
   the leader, applies strictly in zxid order, and only then advances
   its freshness stamp. The old code skipped the gap — silently
   diverging the observer's tree while its reads stayed "fresh". *)

let observer_cfg ~seed =
  { (Ensemble.default_config ~servers:3) with
    Ensemble.observers = 1;
    seed;
    election_timeout = 0.3;
    request_timeout = 0.2;
    retry_backoff = 0.02;
    retry_backoff_cap = 0.05;
    session_timeout = 30.;
    stale_read_after = 0.5;
    serve_stale_reads = false }

let test_partitioned_observer_reconverges () =
  let engine = Engine.create () in
  (* no freshness gate here: an idle observer hears nothing between
     writes, and this test reads well after the last commit — the gate
     has its own history-checked test below *)
  let ensemble =
    Ensemble.start engine
      { (observer_cfg ~seed:11L) with
        Ensemble.stale_read_after = infinity;
        serve_stale_reads = true }
  in
  let observer = 3 in
  Process.spawn engine (fun () ->
      let writer = Ensemble.session ensemble ~server:0 () in
      ignore (zk_ok "seed" (writer.Zk_client.create "/a" ~data:"v0"));
      Process.sleep 0.5;
      (* the observer is cut off while three writes commit *)
      Ensemble.partition ensemble [ [ observer ] ];
      ignore (zk_ok "b" (writer.Zk_client.create "/b" ~data:""));
      ignore (zk_ok "c" (writer.Zk_client.create "/c" ~data:""));
      ignore (zk_ok "set a" (writer.Zk_client.set "/a" ~data:"v1"));
      Process.sleep 0.5;
      Ensemble.heal ensemble;
      (* the next Inform carries a zxid gap: the observer must fetch
         the missed committed entries instead of skipping them *)
      ignore (zk_ok "d" (writer.Zk_client.create "/d" ~data:""));
      Process.sleep 1.0;
      let leader =
        match Ensemble.leader_id ensemble with
        | Some id -> id
        | None -> Alcotest.fail "no leader"
      in
      check_bool "observer tree reconverged with the leader's" true
        (Ztree.equal_state
           (Ensemble.tree_of ensemble observer)
           (Ensemble.tree_of ensemble leader));
      (* and a session homed on the observer reads repaired state *)
      let reader = Ensemble.session ensemble ~server:observer () in
      check_string "observer serves the write it was partitioned through" "v1"
        (get_data "observer read" reader "/a"));
  Engine.run engine

let test_partitioned_observer_history_checked () =
  (* the same scenario under the linearizability oracle: writes against
     a register while its observer-homed readers are partitioned away
     and healed; the freshness gate must refuse stale observer reads
     rather than serve diverged state as fresh *)
  let engine = Engine.create () in
  let ensemble = Ensemble.start engine (observer_cfg ~seed:23L) in
  let history = Zk.History.create engine in
  let observer = 3 in
  let attempts = ref 0 and completed = ref 0 in
  let client ~id ~server ops =
    Process.spawn engine (fun () ->
        let h =
          Zk.History.wrap history ~client:id
            (Ensemble.session ensemble ~server ())
        in
        List.iter
          (fun op ->
            incr attempts;
            (op h : unit);
            incr completed;
            Process.sleep 0.15)
          ops)
  in
  let w data h =
    match h.Zk_client.exists "/r" with
    | Ok None -> ignore (h.Zk_client.create "/r" ~data)
    | Ok (Some _) | Error _ -> ignore (h.Zk_client.set "/r" ~data)
  in
  let r h = ignore (h.Zk_client.get "/r") in
  client ~id:0 ~server:0 [ w "a"; w "b"; w "c"; w "d"; w "e"; w "f" ];
  client ~id:1 ~server:observer [ r; r; r; r; r; r ];
  Process.spawn engine (fun () ->
      Process.sleep 0.25;
      Ensemble.partition ensemble [ [ observer ] ];
      Process.sleep 0.6;
      Ensemble.heal ensemble);
  Engine.run engine;
  check_int "every client op completed or timed out cleanly" !attempts !completed;
  let violations = Zk.History.check history in
  List.iter
    (fun (v : Zk.History.violation) ->
      Printf.printf "OBSERVER VIOLATION [%s] %s: %s\n%!" v.Zk.History.v_kind
        v.Zk.History.v_path v.Zk.History.v_detail)
    violations;
  check_int "observer reads are linearizable across the partition" 0
    (List.length violations);
  check_bool "the history actually recorded both clients" true
    (Zk.History.recorded history >= 10)

(* {2 Lease cache ≡ uncached session (qcheck)}

   Fault-free, revocations arrive synchronously at commit time, so a
   lease cache must return exactly what an uncached session over the
   same service returns for every read — across random writes by a
   third session and clock advances that expire leases mid-sequence. *)

type step =
  | St_create of string * string
  | St_set of string * string
  | St_delete of string
  | St_get of string
  | St_children of string
  | St_readdir of string
  | St_advance of float

let gen_path =
  QCheck2.Gen.(
    let dir = oneofl [ "/a"; "/b" ] in
    oneof [ dir; map2 (fun d leaf -> d ^ "/" ^ leaf) dir (oneofl [ "x"; "y"; "z" ]) ])

let gen_step =
  QCheck2.Gen.(
    oneof
      [ map2 (fun p d -> St_create (p, d)) gen_path (string_size (return 2));
        map2 (fun p d -> St_set (p, d)) gen_path (string_size (return 2));
        map (fun p -> St_delete p) gen_path;
        map (fun p -> St_get p) gen_path;
        map (fun p -> St_children p) gen_path;
        map (fun p -> St_readdir p) gen_path;
        map (fun dt -> St_advance dt) (float_range 0.5 4.0) ])

let show_step = function
  | St_create (p, d) -> Printf.sprintf "create %s %S" p d
  | St_set (p, d) -> Printf.sprintf "set %s %S" p d
  | St_delete p -> "delete " ^ p
  | St_get p -> "get " ^ p
  | St_children p -> "children " ^ p
  | St_readdir p -> "readdir " ^ p
  | St_advance dt -> Printf.sprintf "advance %.2f" dt

let read_repr label = function
  | Ok s -> label ^ ":" ^ s
  | Error e -> label ^ ":" ^ Zerror.to_string e

let prop_lease_cache_equals_session =
  QCheck2.Test.make
    ~name:"lease cache ≡ uncached session over random interleavings"
    ~count:300
    ~print:(fun steps -> String.concat "; " (List.map show_step steps))
    QCheck2.Gen.(list_size (int_range 1 40) gen_step)
    (fun steps ->
      let now = ref 0.0 in
      let service = Zk_local.create ~clock:(fun () -> !now) ~lease_ttl:3.0 () in
      let writer = Zk_local.session service in
      let raw = Zk_local.session service in
      let lease_cache =
        Cache.wrap ~now:(fun () -> !now) (Zk_local.session service)
      in
      let lh = Cache.handle lease_cache in
      let read_both label f =
        let a = f raw and b = f lh in
        if a <> b then
          QCheck2.Test.fail_reportf "divergence on %s: session=%s lease=%s" label
            a b
      in
      List.iter
        (fun step ->
          match step with
          | St_create (p, d) -> ignore (writer.Zk_client.create p ~data:d)
          | St_set (p, d) -> ignore (writer.Zk_client.set p ~data:d)
          | St_delete p -> ignore (writer.Zk_client.delete p)
          | St_advance dt -> now := !now +. dt
          | St_get p ->
            read_both (show_step step) (fun h ->
                read_repr "get"
                  (Result.map (fun (d, _) -> d) (h.Zk_client.get p)))
          | St_children p ->
            read_both (show_step step) (fun h ->
                read_repr "children"
                  (Result.map (String.concat ",") (h.Zk_client.children p)))
          | St_readdir p ->
            read_both (show_step step) (fun h ->
                read_repr "readdir"
                  (Result.map
                     (fun entries ->
                       String.concat ","
                         (List.map
                            (fun (n, d, _) -> n ^ "=" ^ d)
                            entries))
                     (h.Zk_client.children_with_data p))))
        steps;
      true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache-coherence"
    [ ( "refill-fence",
        [ Alcotest.test_case "lease get race is fenced" `Quick
            test_lease_get_race_fenced;
          Alcotest.test_case "lease listing race is fenced" `Quick
            test_lease_children_race_fenced;
          Alcotest.test_case "lease bulk listing race is fenced" `Quick
            test_lease_bulk_race_fenced;
          Alcotest.test_case "nested fills, write while both in flight" `Quick
            test_nested_fills_write_while_both;
          Alcotest.test_case "nested fills, write after the inner returns" `Quick
            test_nested_fills_write_after_inner;
          Alcotest.test_case "no fence outlives its fills" `Quick
            test_fence_state_bounded;
          Alcotest.test_case "multi_async invalidates the sequential name" `Quick
            test_multi_async_invalidates_sequential_name ] );
      ( "lease-lifecycle",
        [ Alcotest.test_case "failed fill caches nothing" `Quick
            test_failed_fill_caches_nothing ] );
      ( "leases",
        [ Alcotest.test_case "server state is per working directory" `Quick
            test_lease_mode_server_state_is_per_directory;
          Alcotest.test_case "revocation channel" `Quick test_lease_revocation_channel;
          Alcotest.test_case "expiry on the sim clock" `Quick
            test_lease_expiry_on_sim_clock;
          Alcotest.test_case "staleness bounded by the TTL" `Quick
            test_lease_staleness_bounded_by_ttl ] );
      ( "observers",
        [ Alcotest.test_case "partitioned observer reconverges" `Quick
            test_partitioned_observer_reconverges;
          Alcotest.test_case "observer reads stay linearizable" `Quick
            test_partitioned_observer_history_checked ] );
      ("equivalence", [ qc prop_lease_cache_equals_session ]) ]
