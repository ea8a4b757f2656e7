module Engine = Simkit.Engine
module Process = Simkit.Process
module Mailbox = Simkit.Mailbox
module Net = Simkit.Net
module Rng = Simkit.Rng

type config = {
  servers : int;
  observers : int;
  net_latency : float;
  rpc_cpu : float;
  read_service : float;
  write_service : float;
  delete_service : float;
  set_service : float;
  persist : float;
  follower_apply : float;
  election_timeout : float;
  request_timeout : float;
  load_factor : float;
  max_batch : int;
  seed : int64;
  retry_backoff : float;
  retry_backoff_cap : float;
  session_timeout : float;
  stale_read_after : float;
  serve_stale_reads : bool;
  fail_fast_after : float;
  lease_ttl : float;
  max_inflight_batches : int;
  snapshot_every : int;
}

let default_config ~servers =
  { servers;
    observers = 0;
    net_latency = 60e-6;
    rpc_cpu = 5e-6;
    read_service = 40e-6;
    write_service = 50e-6;
    delete_service = 82e-6;
    set_service = 78e-6;
    persist = 20e-6;
    follower_apply = 8e-6;
    election_timeout = 0.5;
    request_timeout = 2.0;
    load_factor = 1.0;
    max_batch = 1;
    seed = 1L;
    retry_backoff = 0.;
    retry_backoff_cap = 1.;
    session_timeout = 60.;
    stale_read_after = infinity;
    serve_stale_reads = true;
    fail_fast_after = infinity;
    lease_ttl = 5.0;
    max_inflight_batches = 1;
    snapshot_every = 4096 }

type reply = (Txn.result_item list, Zerror.t) result -> unit

(* Session-scoped request id (ZooKeeper's session id + client xid): the
   client stamps every write once and reuses the stamp across timeout
   retries, so the leader can recognize a resubmission of a transaction
   it already committed and return the original result instead of
   applying it twice. The WAL's type: an entry holds the client's rid
   itself, so no replica rebuilds one to apply or replay it. *)
type rid = Wal.rid = {
  rsession : int64;
  rcxid : int64;
}

(* Request ids are pairs of small counters: hash them directly instead
   of through the generic polymorphic hash. Only the in-flight index
   [pending_rids] uses this table, and nothing iterates over it. *)
module Rid_tbl = Hashtbl.Make (struct
  type t = rid

  let equal a b =
    Int64.equal a.rsession b.rsession && Int64.equal a.rcxid b.rcxid

  let hash r =
    ((Int64.to_int r.rsession * 65599) + Int64.to_int r.rcxid) land max_int
end)

(* A transaction travels and rests as one [Wal.entry], built by the
   leader when it assigns the zxid: its pending write, every proposal,
   inform and fetch answer, each follower's [proposals], every member's
   [log] and every WAL record point at that one immutable value. An
   entry carries [e_close = Some owner] when it is the cleanup
   transaction of a Close_session: every replica that applies it also
   evicts that session's dedup entries (the session can never retry
   again, so keeping its results would grow leader state without
   bound). *)

type role = Leader | Follower | Observer | Down

type pending_write = {
  p_entry : Wal.entry;
  (* a timed-out retry of a still-in-flight write re-points the reply
     (and its route home) at the retry's continuation *)
  mutable p_origin : int;
  mutable p_reply : reply;
  (* acking server ids, not a bare count: under duplication or gap
     repair the same follower may ack the same zxid more than once, and
     double-counting would commit without a true quorum *)
  mutable p_acked : int list;
  (* when this entry last went out as a Propose_batch: rate-limits the
     stalled-head re-propose so a lossy burst cannot snowball *)
  mutable p_proposed_at : float;
  (* whether the leader's own txn-log append for this entry has landed.
     The stop-and-wait path persists before proposing, so it is born
     true; the pipelined path proposes first and persists concurrently,
     so the leader's vote only counts once the overlapped persist
     completes. *)
  mutable p_self_acked : bool;
  p_span : Obs.Trace.wspan;
}

type applied_result = (Txn.result_item list, Zerror.t) result

(* One not-yet-proposed batch queued for the pipelined leader's proposer
   process. While a batch [b_open] (still queued, not yet picked up),
   freshly drained writes coalesce into it up to [max_batch] — the
   adaptive group commit: a write waits exactly as long as the pipeline
   is busy ahead of it and not a tick longer. Entry and span lists are
   kept reversed (append at head) and reversed once at fan-out. *)
type pbatch = {
  mutable b_entries : Wal.entry list;    (* reversed *)
  mutable b_spans : Obs.Trace.wspan list; (* reversed, parallel to b_entries *)
  mutable b_cpu : float;                 (* summed leader CPU for the batch *)
  mutable b_count : int;
  mutable b_hi : int64;                  (* highest zxid in the batch *)
  mutable b_open : bool;                 (* still coalescing? *)
}

(* [Read] executes against the serving replica itself, not just its
   tree: lease reads must grant an interest in the server's lease table
   in the same atomic step as the read. *)
type msg =
  | Write of {
      txn : Txn.t;
      rid : rid;
      origin : int;
      reply : reply;
      span : Obs.Trace.wspan;
    }
  | Read of { exec : server -> unit; refuse : Zerror.t -> unit }
  | Propose_batch of { epoch : int; entries : Wal.entry list; committed_upto : int64 }
    (* one leader->follower round carries a whole group-committed batch;
       a singleton batch is exactly the classic per-txn PROPOSAL.
       [committed_upto] piggybacks the leader's commit frontier (every
       zxid <= it is committed) so a busy pipeline learns commits
       without a separate Commit_batch round; [0L] carries no frontier
       — the stop-and-wait leader and the repair paths always send 0L,
       leaving the standalone Commit_batch in charge there. *)
  | Ack_batch of { epoch : int; zxids : int64 list; from : int }
  | Commit_batch of { epoch : int; zxids : int64 list }
  | Inform_batch of { epoch : int; entries : Wal.entry list }
    (* ZAB INFORM: commit + payload, sent to non-voting observers *)
  | Deliver_reply of {
      epoch : int;
      zxid : int64;
      result : (Txn.result_item list, Zerror.t) result;
      reply : reply;
      committed_upto : int64;
        (* the frontier also rides on replies: when the pipelined leader
           suppresses Commit_batch, the origin follower still learns the
           commit with (FIFO-before) the reply, preserving
           read-your-own-writes without a Fetch round *)
    }
  | Close_session of {
      owner : int64;
      rid : rid;
      origin : int;
      reply : reply;
      span : Obs.Trace.wspan;
    }
  | Fetch of { epoch : int; from_zxid : int64; upto : int64; who : int }
    (* follower->leader gap repair: a lossy link dropped a proposal or
       commit; the leader answers with the missing entries (as a
       Propose_batch) followed by the commit marks it already holds.
       Observers use the same message and are answered with an
       Inform_batch of the committed range instead. *)

and server = {
  id : int;
  mutable role : role;
  mutable epoch : int;
  mutable tree : Ztree.t;
  log : Wal.entry Zxid_tbl.t (* committed txns, by zxid *);
  (* request id -> (zxid, result) of every txn this replica has applied:
     the dedup table behind exactly-once writes. Replicated implicitly —
     each replica records entries as it applies the same committed
     sequence — so it survives leader failover. One row per session,
     indexed by cxid: both are dense counters. The zxid is the entry's
     own box. *)
  applied : (int64 * applied_result) Zxid_tbl.t Zxid_tbl.t;
  inbox : msg Mailbox.t;
  (* leader state *)
  pending : pending_write Zxid_tbl.t;
  pending_rids : int64 Rid_tbl.t;  (* in-flight request ids *)
  mutable next_zxid : int64;
  mutable next_commit : int64;
  (* pipelined-leader state (max_inflight_batches > 1; inert otherwise).
     [prop_queue] holds batches awaiting the proposer process, newest
     last; [prop_unsent] counts queued-or-picked-up batches whose
     Propose_batch has not left yet — while it is positive, a commit's
     frontier is guaranteed to ride out on a future proposal, so the
     standalone Commit_batch fan-out can be skipped. [inflight_his] is
     the hi-zxid of each proposed-but-not-fully-committed batch in
     ascending order; its length is the in-flight window occupancy.
     [persist_until] serializes the leader's overlapped txn-log appends
     on the single WAL device. *)
  prop_queue : pbatch Queue.t;
  mutable prop_unsent : int;
  mutable inflight_his : int64 list;
  mutable persist_until : float;
  mutable proposer_wake : unit Simkit.Process.waiter option;
  (* follower state *)
  proposals : Wal.entry Zxid_tbl.t;
  committed : unit Zxid_tbl.t;
  (* highest zxid this follower knows committed via a piggybacked
     frontier (0L = none this epoch); zxids <= it apply without an
     explicit Commit_batch mark *)
  mutable commit_frontier : int64;
  mutable next_apply : int64;
  (* when this replica last heard from its leader (proposal, commit,
     inform, or sync): the freshness clock behind stale-read detection *)
  mutable fresh_at : float;
  (* client replies held back because this server has not yet applied
     the zxid they answer for (a dropped commit broke the usual
     FIFO commit-before-reply ordering); flushed as applies catch up *)
  mutable deferred : (int64 * (unit -> unit)) list;
  (* session-level lease interests this replica granted on its reads;
     lost (cleared) when the server crashes — the TTL covers that hole *)
  leases : Lease.t;
  (* stable storage: what this server's disk holds at any instant.
     [crash] materializes its power-off truth; [restart] rebuilds the
     tree, committed log and dedup table from it. *)
  wal : Wal.t;
  (* readable-but-uncommitted WAL suffix found by local recovery: kept
     only while parked leaderless after a whole-cluster power failure
     (the recovery election's winner commits its tail); discarded the
     moment a live leader resyncs this server *)
  mutable recovered_tail : Wal.entry list;
  (* (epoch, zxid) of the last readable WAL record after local
     recovery: the recovery election compares log ends ZAB-style *)
  mutable recovered_log_end : int * int64;
  (* parked after restarting into a leaderless sub-quorum cluster;
     cleared when a quorum forms and elects *)
  mutable awaiting_quorum : bool;
  (* [recovered_tail]/[recovered_log_end] reflect the current disk
     (local recovery ran and no resync has superseded it since) *)
  mutable disk_synced : bool;
  (* counters *)
  mutable reads : int;
}

type t = {
  engine : Engine.t;
  cfg : config;
  trace : Obs.Trace.t;
  (* metric-name prefix for per-shard instruments ("" = unsharded); a
     tagged ensemble also records its leader summaries and queue-wait
     under [zk.<tag>.*] so a sharded deployment's balance is visible. *)
  tag : string;
  members : server array;
  (* the members' apply-sharing context: one per ensemble *)
  share : Ztree.share;
  net : Net.t;
  (* server id -> network endpoint; client sessions get their own
     endpoints that follow their home server's partition side *)
  eps : Net.endpoint array;
  session_rng : Rng.t;
  mutable leader : int;
  mutable next_session : int64;
  mutable next_server : int;
  mutable commits : int;
  mutable last_commit_at : float;
  (* pipelined-commit accounting: standalone Commit_batch rounds fanned
     out vs commit rounds whose fan-out was suppressed because the
     frontier rides on a queued proposal *)
  mutable commit_fanouts : int;
  mutable piggybacked_commits : int;
  mutable dedup_hits : int;
  mutable dedup_evictions : int;
  mutable stale_served : int;
  mutable failed_fast : int;
  mutable sessions_expired : int;
  (* fan-out targets, precomputed so the per-batch hot path does not
     rebuild them; refreshed whenever any member changes role *)
  mutable follower_peers : server list;
  mutable observer_peers : server list;
  (* recovery accounting *)
  mutable recoveries : int;
  mutable recovery_time_total : float;
  mutable recovery_time_max : float;
  mutable wal_tail_commits : int;
  mutable transfer_diff_txns : int;
  mutable transfer_snaps : int;
}

let net t = t.net
let leader_id t = if t.members.(t.leader).role = Leader then Some t.leader else None

let alive_ids t =
  Array.to_list
    (Array.map (fun s -> s.id)
       (Array.of_seq
          (Seq.filter (fun s -> s.role <> Down) (Array.to_seq t.members))))

let tree_of t id = t.members.(id).tree

let reads_served t id = t.members.(id).reads
let writes_committed t = t.commits
let commit_fanouts t = t.commit_fanouts
let piggybacked_commits t = t.piggybacked_commits
let dedup_hits t = t.dedup_hits
let dedup_evictions t = t.dedup_evictions

let dedup_cxids t id ~session =
  match Zxid_tbl.find_opt t.members.(id).applied session with
  | Some row -> List.rev (Zxid_tbl.fold (fun cxid _ acc -> cxid :: acc) row [])
  | None -> []

let stale_reads_served t = t.stale_served
let writes_failed_fast t = t.failed_fast
let sessions_expired t = t.sessions_expired

(* {2 Lease / watch-table introspection} *)

let lease_entries t id = Lease.entries t.members.(id).leases
let watch_table_size t id = Ztree.watch_count t.members.(id).tree

let sum_leases f t =
  Array.fold_left (fun acc (s : server) -> acc + f s.leases) 0 t.members

let leases_granted t = sum_leases Lease.granted t
let leases_renewed t = sum_leases Lease.renewed t
let leases_revoked t = sum_leases Lease.revoked t

(* Ownership flip (online resharding): this ensemble is no longer the
   owner of [dir]'s contents, so any coherence state its live members
   still hold for [dir] — armed child watches on [dir], data watches on
   its immediate children (present or absent), lease interests in [dir]
   — must fire now: the writes they wait for will commit on another
   shard and never reach these tables. Crashed members already lost
   their tables; the resync/TTL paths cover them as usual. *)
let revoke_dir t dir =
  Array.iter
    (fun (s : server) ->
      if s.role <> Down then begin
        ignore (Ztree.fire_data_watches_under s.tree ~dir);
        ignore (Ztree.fire_child_watches s.tree dir);
        let children =
          match Ztree.children s.tree dir with
          | Ok names -> List.map (Zpath.concat dir) names
          | Error _ -> []
        in
        ignore (Lease.revoke_dir s.leases ~children dir)
      end)
    t.members

let quorum t = (t.cfg.servers / 2) + 1

(* [max_inflight_batches = 1] (the default) takes the stop-and-wait
   leader path bit-for-bit: no proposer process is spawned, frontiers
   stay 0L, and every event fires exactly as it did before the pipeline
   existed — which is what keeps recorded replays byte-identical. *)
let pipelined t = t.cfg.max_inflight_batches > 1

let wake_proposer (s : server) =
  match s.proposer_wake with
  | None -> ()
  | Some w ->
    s.proposer_wake <- None;
    Simkit.Process.wake w ()

(* Forget all pipelined-leader progress and the follower's piggybacked
   frontier: called on election, crash and restart, where zxid
   numbering restarts relative to a new epoch and any queued batch or
   frontier mark would apply stale state. The proposer (if parked) is
   woken so it re-reads the emptied queue instead of sleeping on a
   window slot that no longer exists. *)
let reset_pipeline_state (s : server) =
  Queue.clear s.prop_queue;
  s.prop_unsent <- 0;
  s.inflight_his <- [];
  s.persist_until <- 0.;
  s.commit_frontier <- 0L;
  wake_proposer s
let is_observer_id t id = id >= t.cfg.servers
let member_count t = t.cfg.servers + t.cfg.observers
let member_ids t = List.init (member_count t) Fun.id

(* Service times scaled by the co-located-load factor. *)
let svc t base = base *. t.cfg.load_factor

(* Roles are exclusive, so the leader never appears in either list. *)
let refresh_peers t =
  let followers = ref [] and observers = ref [] in
  Array.iter
    (fun (s : server) ->
      match s.role with
      | Follower -> followers := s :: !followers
      | Observer -> observers := s :: !observers
      | Leader | Down -> ())
    t.members;
  t.follower_peers <- List.rev !followers;
  t.observer_peers <- List.rev !observers

(* Every message crosses the fault-injectable network. [src] is the
   sending member's id; client traffic uses [send_from] with the
   session's own endpoint. Delivery to a Down server is discarded at
   arrival time (its mailbox was flushed at crash; nothing may sneak in
   afterwards either). *)
let send_from t ~src_ep ~dst msg =
  Net.send t.net ~src:src_ep ~dst:t.eps.(dst) (fun () ->
      let s = t.members.(dst) in
      if s.role <> Down then Mailbox.send s.inbox msg)

let send t ~src ~dst msg = send_from t ~src_ep:t.eps.(src) ~dst msg

(* {2 Fault-state control} *)

(* [partition t groups] over member ids; members not named form one
   implicit extra group, so [partition t [[0; 1]]] isolates servers 0-1
   (and their clients) from everyone else. *)
let partition t groups =
  let named = List.concat groups in
  List.iter
    (fun id ->
      if id < 0 || id >= member_count t then
        invalid_arg (Printf.sprintf "Ensemble.partition: no member %d" id))
    named;
  let rest = List.filter (fun id -> not (List.mem id named)) (member_ids t) in
  let groups = if rest = [] then groups else groups @ [ rest ] in
  Net.partition t.net (List.map (List.map (fun id -> t.eps.(id))) groups)

let partition_oneway t ~from ~to_ =
  Net.block_oneway t.net ~src:t.eps.(from) ~dst:t.eps.(to_)

let heal t = Net.heal t.net
let set_drop t p = Net.set_drop t.net p
let set_extra_delay t d = Net.set_extra_delay t.net d
let set_duplicate t p = Net.set_duplicate t.net p
let set_reorder t ~p ~window = Net.set_reorder t.net ~p ~window

(* {2 Dedup table} *)

let find_applied (s : server) rid =
  match Zxid_tbl.find_opt s.applied rid.rsession with
  | Some row -> Zxid_tbl.find_opt row rid.rcxid
  | None -> None

let record_applied (s : server) rid result =
  let row =
    match Zxid_tbl.find_opt s.applied rid.rsession with
    | Some row -> row
    | None ->
      let row = Zxid_tbl.create 8 in
      Zxid_tbl.replace s.applied rid.rsession row;
      row
  in
  Zxid_tbl.replace row rid.rcxid result

(* Applying a session's close evicts its dedup entries on this replica:
   a closed session can never retry, so its results are dead weight.
   [keep] is the close txn's own rid — that one entry stays so a retried
   close still answers from the table instead of re-running cleanup. *)
let evict_session_applied t (s : server) ~keep owner =
  match Zxid_tbl.find_opt s.applied owner with
  | None -> ()
  | Some row ->
    let kept =
      if keep.rsession = owner then Zxid_tbl.find_opt row keep.rcxid else None
    in
    let victims = Zxid_tbl.length row - Bool.to_int (Option.is_some kept) in
    Zxid_tbl.reset row;
    Option.iter (Zxid_tbl.replace row keep.rcxid) kept;
    if s.role = Leader then t.dedup_evictions <- t.dedup_evictions + victims

let note_close_applied t (s : server) ~rid close_of =
  match close_of with
  | None -> ()
  | Some owner ->
    Lease.drop_session s.leases owner;
    evict_session_applied t s ~keep:rid owner

(* {2 State-machine apply}

   Every replica applies committed transactions through this helper so
   the lease revocation channel fires wherever the apply happens —
   leader commit, follower apply, observer inform, state transfer. *)

let apply_txn (s : server) ~zxid ~time txn =
  let result = Ztree.apply s.tree ~zxid ~time txn in
  (match result with
   | Ok items -> Lease.revoke_txn s.leases txn items
   | Error _ -> ());
  result

(* A replica's apply of a committed entry: tree, dedup row (keyed by the
   entry's own rid, holding the entry's own zxid box) and, for a
   session close, the session's eviction. *)
let apply_entry t (s : server) (e : Wal.entry) =
  let rid = e.Wal.e_rid in
  record_applied s rid
    (e.Wal.e_zxid, apply_txn s ~zxid:e.Wal.e_zxid ~time:e.Wal.e_time e.Wal.e_txn);
  note_close_applied t s ~rid e.Wal.e_close

(* {2 Stable-storage hooks}

   The WAL and these helpers are pure state updates — no events, no
   sleeps, no RNG — so wiring them into the hot paths leaves fault-free
   schedules bit-identical. *)

(* Append unless this epoch already logged the zxid: a re-proposal is
   re-acked idempotently, and so is the disk. *)
let wal_append_once (s : server) ~start ~done_at (e : Wal.entry) =
  match Wal.epoch_at s.wal e.Wal.e_zxid with
  | Some epoch when epoch = s.epoch -> ()
  | _ -> Wal.append s.wal ~epoch:s.epoch ~start ~done_at e

(* Mark [zxid] durably applied and roll a snapshot once the replay
   distance exceeds the configured cadence. Snapshot writing is modeled
   as free: ZooKeeper serializes fuzzy snapshots from a background
   thread off the commit path, and the simulated persist budget already
   covers the log append that actually gates each ack. The snapshot
   holds the tree's image, an immutable value. *)
let wal_applied t (s : server) zxid =
  Wal.note_commit s.wal zxid;
  let distance = Int64.sub (Wal.frontier s.wal) (Wal.last_snapshot_zxid s.wal) in
  if t.cfg.snapshot_every > 0 && Int64.to_int distance >= t.cfg.snapshot_every then
    Wal.snapshot s.wal ~zxid:(Ztree.last_zxid s.tree) ~epoch:s.epoch (Ztree.capture s.tree)

(* {2 Deferred replies} *)

(* Flush replies whose zxid this server has now processed, oldest first.
   Progress is measured by [next_apply], not the tree's last zxid: an
   errored transaction never touches the tree, but its commit still
   advances the apply cursor. *)
let flush_deferred (s : server) =
  match s.deferred with
  | [] -> ()
  | ds ->
    let ready, still = List.partition (fun (z, _) -> z < s.next_apply) ds in
    s.deferred <- still;
    List.iter
      (fun (_, k) -> k ())
      (List.sort (fun (a, _) (b, _) -> Int64.compare a b) ready)

(* {2 Leader commit path} *)

let try_commit t (s : server) =
  if s.role = Leader then begin
    (* drain every consecutive quorum-acked zxid starting at next_commit;
       the leader's own persisted copy counts toward the quorum (in the
       pipelined path only once its overlapped persist has landed) *)
    let rec take acc =
      match Zxid_tbl.find_opt s.pending s.next_commit with
      | Some pw
        when List.length pw.p_acked + (if pw.p_self_acked then 1 else 0)
             >= quorum t ->
        let zxid = s.next_commit in
        Zxid_tbl.remove s.pending zxid;
        s.next_commit <- Int64.add zxid 1L;
        take (pw :: acc)
      | Some _ | None -> List.rev acc
    in
    match take [] with
    | [] -> ()
    | ready ->
      t.last_commit_at <- Engine.now t.engine;
      (* retire fully committed batches from the in-flight window and
         let the proposer claim the freed slots *)
      (match s.inflight_his with
       | hi :: _ when hi < s.next_commit ->
         s.inflight_his <-
           List.filter (fun hi -> hi >= s.next_commit) s.inflight_his;
         wake_proposer s
       | _ -> ());
      (if Obs.Trace.enabled t.trace then
         let now = Engine.now t.engine in
         List.iter
           (fun pw ->
             if Obs.Trace.is_real pw.p_span then
               pw.p_span.Obs.Trace.w_quorum <- now)
           ready);
      let results =
        List.map
          (fun pw ->
            let e = pw.p_entry in
            let zxid = e.Wal.e_zxid and rid = e.Wal.e_rid in
            (* each txn applies individually: a failing txn returns its
               error to its own caller without touching its batch
               neighbours (and does not consume the zxid in the tree) *)
            let result =
              if Ztree.last_zxid s.tree < zxid then
                apply_txn s ~zxid ~time:e.Wal.e_time e.Wal.e_txn
              else
                (* already applied (state transfer raced ahead): answer
                   from the dedup table rather than re-applying *)
                match find_applied s rid with
                | Some (_, result) -> result
                | None -> Ok []
            in
            record_applied s rid (zxid, result);
            Rid_tbl.remove s.pending_rids rid;
            Zxid_tbl.replace s.log zxid e;
            note_close_applied t s ~rid e.Wal.e_close;
            wal_applied t s zxid;
            t.commits <- t.commits + 1;
            (pw, result))
          ready
      in
      let zxids = List.map (fun (pw, _) -> pw.p_entry.Wal.e_zxid) results in
      (* Commit piggybacking: while a proposal is still queued to go
         out, its Propose_batch will carry a frontier >= this commit on
         the same FIFO links — the standalone fan-out would be pure
         duplicate traffic. A quiescent pipeline (nothing queued) still
         fans out, so the tail of a burst always commits everywhere. *)
      if pipelined t && s.prop_unsent > 0 then
        t.piggybacked_commits <- t.piggybacked_commits + 1
      else begin
        t.commit_fanouts <- t.commit_fanouts + 1;
        List.iter
          (fun (peer : server) ->
            send t ~src:s.id ~dst:peer.id (Commit_batch { epoch = s.epoch; zxids }))
          t.follower_peers
      end;
      (match t.observer_peers with
       | [] -> ()
       | observers ->
         let entries = List.map (fun (pw, _) -> pw.p_entry) results in
         List.iter
           (fun (peer : server) ->
             send t ~src:s.id ~dst:peer.id (Inform_batch { epoch = s.epoch; entries }))
           observers);
      (* replies go out after the commits: the FIFO channel back to each
         origin then delivers Commit_batch first, preserving
         read-your-own-writes on the origin server *)
      let committed_upto =
        if pipelined t then Int64.sub s.next_commit 1L else 0L
      in
      List.iter
        (fun (pw, result) ->
          if pw.p_origin = s.id then pw.p_reply result
          else
            send t ~src:s.id ~dst:pw.p_origin
              (Deliver_reply
                 { epoch = s.epoch; zxid = pw.p_entry.Wal.e_zxid; result;
                   reply = pw.p_reply; committed_upto }))
        results
  end

(* Leader CPU depends on the mutation kind: creates append a fresh node;
   deletes and setData must locate an existing node, update parent state
   and sweep watches — which is why the paper's Fig. 7 shows zoo_delete()
   and zoo_set() topping out well below zoo_create(). A multi costs as
   much as its most expensive op. *)
let leader_service t txn =
  let op_cost = function
    | Txn.Create _ -> t.cfg.write_service
    | Txn.Delete _ -> t.cfg.delete_service
    | Txn.Set_data _ -> t.cfg.set_service
    | Txn.Check _ -> t.cfg.write_service /. 2.
  in
  List.fold_left (fun acc op -> Float.max acc (op_cost op)) t.cfg.write_service txn

let build_session_cleanup (s : server) owner =
  List.map
    (fun path -> Txn.Delete { path; expected_version = -1 })
    (Ztree.ephemerals_of s.tree ~owner)

(* {2 Leader group commit}

   The leader drains further queued writes from its own mailbox (head
   only, so FIFO order with reads and protocol messages is preserved)
   and pays [persist] plus the follower RPC fan-out once for the whole
   batch. [max_batch = 1] reproduces the classic one-txn-per-round
   pipeline exactly. *)

let is_batchable = function
  | Write _ | Close_session _ -> true
  | _ -> false

let drain_batch t (s : server) first =
  let rec drain acc n =
    if n >= t.cfg.max_batch then acc
    else
      match Mailbox.take_head_if s.inbox is_batchable with
      | None -> acc
      | Some (Write { txn; rid; origin; reply; span }) ->
        drain ((txn, rid, origin, reply, span, None) :: acc) (n + 1)
      | Some (Close_session { owner; rid; origin; reply; span }) ->
        drain
          ((build_session_cleanup s owner, rid, origin, reply, span, Some owner)
           :: acc)
          (n + 1)
      | Some _ -> acc
  in
  List.rev (drain [ first ] 1)

(* A retry answered by the dedup table skips the batch its first
   attempt went through, so its span's leader stamps predate its
   resend: restamp them from now (no persist; an applied write also
   reached quorum now), so the breakdown records it as a retry. *)
let restamp_retry t span ~applied =
  if Obs.Trace.is_real span then begin
    let now = Engine.now t.engine in
    span.Obs.Trace.w_batch <- now;
    span.Obs.Trace.w_persist <- 0.;
    span.Obs.Trace.w_proposed <- now;
    if applied then span.Obs.Trace.w_quorum <- now
  end

(* The exactly-once gate. A request id the leader has already applied is
   answered from the dedup table (no new zxid, nothing re-applied); one
   that is still in flight re-points the pending write's reply at the
   retry, so the eventual commit answers the attempt the client is
   actually waiting on instead of producing a second proposal. *)
let dedup_filter t (s : server) batch =
  List.filter
    (fun (_, rid, origin, reply, span, _) ->
      match find_applied s rid with
      | Some (zxid, result) ->
        t.dedup_hits <- t.dedup_hits + 1;
        restamp_retry t span ~applied:true;
        if origin = s.id then reply result
        else
          send t ~src:s.id ~dst:origin
            (Deliver_reply
               { epoch = s.epoch; zxid; result; reply; committed_upto = 0L });
        false
      | None -> (
        match Rid_tbl.find_opt s.pending_rids rid with
        | Some zxid -> (
          match Zxid_tbl.find_opt s.pending zxid with
          | Some pw ->
            t.dedup_hits <- t.dedup_hits + 1;
            restamp_retry t pw.p_span ~applied:false;
            pw.p_origin <- origin;
            pw.p_reply <- reply;
            pw.p_proposed_at <- Engine.now t.engine;
            (* the retry proves the original propose round may have
               been lost: re-propose so a write stalled by a lossy
               link can still reach quorum (duplicate proposals and
               acks are idempotent) *)
            List.iter
              (fun (peer : server) ->
                send t ~src:s.id ~dst:peer.id
                  (Propose_batch
                     { epoch = s.epoch; entries = [ pw.p_entry ];
                       committed_upto = 0L }))
              t.follower_peers;
            false
          | None ->
            Rid_tbl.remove s.pending_rids rid;
            true)
        | None -> true))
    batch

(* Graceful degradation under quorum loss: when the leader has pending
   writes and has not committed anything for [fail_fast_after] seconds,
   new writes are refused immediately with ZCONNECTIONLOSS instead of
   queueing behind a stalled quorum (default: queue forever). *)
let failing_fast t (s : server) =
  t.cfg.fail_fast_after < infinity
  && Zxid_tbl.length s.pending > 0
  && Engine.now t.engine -. t.last_commit_at > t.cfg.fail_fast_after

(* A pending commit head older than [request_timeout] is evidence of a
   lost proposal or lost acks: re-propose it to every follower (re-acks
   are idempotent), refreshing the stamp so a lossy burst cannot
   snowball. Called only on message arrival — repair rides on flowing
   traffic, so a quiesced engine stays quiesced, and the age gate keeps
   fault-free schedules untouched (healthy commits finish far inside
   the timeout). *)
let repropose_stalled_head t (s : server) =
  match Zxid_tbl.find_opt s.pending s.next_commit with
  | Some pw
    when Engine.now t.engine -. pw.p_proposed_at > t.cfg.request_timeout ->
    pw.p_proposed_at <- Engine.now t.engine;
    let entries = [ pw.p_entry ] in
    List.iter
      (fun (peer : server) ->
        send t ~src:s.id ~dst:peer.id
          (Propose_batch { epoch = s.epoch; entries; committed_upto = 0L }))
      t.follower_peers
  | _ -> ()

(* With a multi-batch window the head is rarely the only casualty of a
   lossy burst: every in-flight batch can lose its proposal or acks at
   once, and repairing one entry per ack round trip turns recovery into
   a serial cascade the length of the window. Resend *all* timed-out
   pending entries in zxid order in one round; refreshing each entry's
   [p_proposed_at] rate-limits the resend exactly like the head repair.
   The stop-and-wait path keeps the head-only repair so its recorded
   replays stay byte-identical.

   The scan runs per leader message, so it is skipped when no entry can
   be stale. Every [p_proposed_at] is at least its entry's [e_time]: both
   are stamped with the current time when the entry is built, and the
   stamp only moves forward. Zxids are assigned in arrival order, so the
   lowest pending zxid has the smallest [e_time], and if even that entry
   is younger than the timeout, every entry is. *)
let may_have_stalled t (s : server) ~now =
  match Option.bind (Zxid_tbl.min_key s.pending) (Zxid_tbl.find_opt s.pending) with
  | Some oldest -> now -. oldest.p_entry.Wal.e_time > t.cfg.request_timeout
  | None -> false

let repropose_stalled t (s : server) =
  if not (pipelined t) then repropose_stalled_head t s
  else begin
    let now = Engine.now t.engine in
    let stalled =
      if not (may_have_stalled t s ~now) then []
      else
        Zxid_tbl.fold
          (fun _ pw acc ->
            if now -. pw.p_proposed_at > t.cfg.request_timeout then pw :: acc
            else acc)
          s.pending []
    in
    (* the fold runs in ascending zxid order, so [stalled] is reversed *)
    match List.rev stalled with
    | [] -> ()
    | stalled ->
      let entries =
        List.map
          (fun pw ->
            pw.p_proposed_at <- now;
            pw.p_entry)
          stalled
      in
      List.iter
        (fun (peer : server) ->
          send t ~src:s.id ~dst:peer.id
            (Propose_batch
               { epoch = s.epoch; entries;
                 committed_upto = Int64.sub s.next_commit 1L }))
        t.follower_peers
  end

let refuse_fast t (s : server) ~origin ~reply =
  t.failed_fast <- t.failed_fast + 1;
  let result = Error Zerror.ZCONNECTIONLOSS in
  (if origin = s.id then reply result
   else
     send t ~src:s.id ~dst:origin
       (Deliver_reply
          { epoch = s.epoch; zxid = 0L; result; reply; committed_upto = 0L }));
  (* The stall that triggered fail-fast may itself be a stranded head
     (every follower missed the proposal during a partition, so no ack
     will ever arrive unprompted). Refusing every write would then also
     starve the repair that unwedges the commit path — so each refused
     write doubles as a repair attempt. *)
  repropose_stalled t s

(* Give a drained write the next zxid: build its entry, the one value
   every replica will hold for it, and register it pending. *)
let new_pending (s : server) ~time ~txn ~rid ~origin ~reply ~span ~close
    ~self_acked =
  let zxid = s.next_zxid in
  s.next_zxid <- Int64.add zxid 1L;
  let entry =
    { Wal.e_zxid = zxid; e_txn = txn; e_time = time; e_rid = rid;
      e_close = close }
  in
  Zxid_tbl.replace s.pending zxid
    { p_entry = entry; p_origin = origin; p_reply = reply; p_acked = [];
      p_proposed_at = time; p_self_acked = self_acked; p_span = span };
  Rid_tbl.replace s.pending_rids rid zxid;
  entry

(* Record [v] under [name], [zk.<rest>] (single-ensemble profiles read
   it), and in a tagged ensemble under [zk.<tag>.<rest>] too, so a
   sharded deployment's balance shows. Observations and stamps are pure
   accumulator writes: a traced run sleeps exactly as long as an
   untraced one. *)
let observe t name v =
  Obs.Trace.observe t.trace name v;
  if t.tag <> "" then
    Obs.Trace.observe t.trace ("zk." ^ t.tag ^ String.sub name 2 (String.length name - 2)) v

(* Stamp a batch's start at the leader on each traced write: its queue
   wait, measured where the backlog lives (client (last) send -> batch
   start), and its persist share of the batch sleep. *)
let stamp_batch t batch ~time ~persist =
  List.iter
    (fun (_, _, _, _, span, _) ->
      if Obs.Trace.is_real span then begin
        observe t "zk.queue_wait" (time -. span.Obs.Trace.w_resent);
        span.Obs.Trace.w_batch <- time;
        span.Obs.Trace.w_persist <- persist
      end)
    batch

let leader_handle_batch t (s : server) batch =
  match dedup_filter t s batch with
  | [] -> ()
  | batch ->
    let time = Engine.now t.engine in
    if Obs.Trace.enabled t.trace then begin
      observe t "zk.leader.queue_depth" (float_of_int (Mailbox.length s.inbox));
      observe t "zk.leader.batch_size" (float_of_int (List.length batch));
      stamp_batch t batch ~time ~persist:(svc t t.cfg.persist)
    end;
    let cpu =
      List.fold_left
        (fun acc (txn, _, _, _, _, _) -> acc +. leader_service t txn)
        0. batch
    in
    (* [device_delay] is exactly 0. unless a storage fault (disk stall /
       fail-slow) is armed, keeping the fault-free schedule untouched *)
    Process.sleep
      (svc t (cpu +. t.cfg.persist)
       +. Wal.device_delay s.wal ~now:(Engine.now t.engine));
    (* a crash may have landed mid-sleep: a deposed leader must not
       propose with stale state *)
    if s.role = Leader then begin
      let persisted_at = Engine.now t.engine in
      let entries =
        List.map
          (fun (txn, rid, origin, reply, span, close) ->
            let entry =
              new_pending s ~time ~txn ~rid ~origin ~reply ~span ~close
                ~self_acked:true (* persist already paid above *)
            in
            Wal.append s.wal ~epoch:s.epoch ~start:time ~done_at:persisted_at entry;
            entry)
          batch
      in
      let followers = t.follower_peers in
      Process.sleep (svc t (t.cfg.rpc_cpu *. float_of_int (List.length followers)));
      if s.role = Leader then begin
        (if Obs.Trace.enabled t.trace then
           let now = Engine.now t.engine in
           List.iter
             (fun (_, _, _, _, span, _) ->
               if Obs.Trace.is_real span then span.Obs.Trace.w_proposed <- now)
             batch);
        List.iter
          (fun (peer : server) ->
            send t ~src:s.id ~dst:peer.id
              (Propose_batch { epoch = s.epoch; entries; committed_upto = 0L }))
          followers;
        try_commit t s
      end
    end

(* {2 Pipelined leader path (max_inflight_batches > 1)}

   The main server loop only assigns zxids and queues batches — it
   never sleeps for a write, so the inbox keeps draining (and batching)
   while earlier rounds are still in flight. A dedicated proposer
   process pays the leader CPU and fan-out per batch, bounded by the
   in-flight window; the leader's own persist is issued *after* the
   proposal leaves and completes concurrently with the follower round
   trip (serialized against other persists on [persist_until] — one WAL
   device), and only then does the leader's vote count ([p_self_acked]).
   Commits still advance strictly in zxid order through [try_commit]'s
   [next_commit] cursor, so linearizability is untouched: the window
   changes *when* rounds overlap, never the order in which they land. *)

(* Queue [batch] (already dedup-filtered) for the proposer, coalescing
   into the still-open tail batch while there is room. *)
let leader_enqueue_batch t (s : server) batch =
  match dedup_filter t s batch with
  | [] -> ()
  | batch ->
    let time = Engine.now t.engine in
    if Obs.Trace.enabled t.trace then begin
      observe t "zk.leader.queue_depth" (float_of_int (Mailbox.length s.inbox));
      (* no persist share: the overlapped persist is off the critical
         path — its residual cost surfaces inside the ack phase, so the
         five phases still tile the latency *)
      stamp_batch t batch ~time ~persist:0.
    end;
    List.iter
      (fun (txn, rid, origin, reply, span, close) ->
        let entry =
          new_pending s ~time ~txn ~rid ~origin ~reply ~span ~close
            ~self_acked:false (* counts only after the overlapped persist *)
        in
        let zxid = entry.Wal.e_zxid in
        let cpu = leader_service t txn in
        (* Queue exposes no tail peek; fold to it — the queue is at most
           a few batches deep (window + backlog) *)
        match Queue.fold (fun _ b -> Some b) None s.prop_queue with
        | Some b when b.b_open && b.b_count < t.cfg.max_batch ->
          b.b_entries <- entry :: b.b_entries;
          b.b_spans <- span :: b.b_spans;
          b.b_cpu <- b.b_cpu +. cpu;
          b.b_count <- b.b_count + 1;
          b.b_hi <- zxid
        | _ ->
          Queue.push
            { b_entries = [ entry ]; b_spans = [ span ]; b_cpu = cpu;
              b_count = 1; b_hi = zxid; b_open = true }
            s.prop_queue;
          s.prop_unsent <- s.prop_unsent + 1)
      batch;
    wake_proposer s

(* The proposer process: one per member (it idles unless that member
   leads), spawned only when the ensemble is pipelined so the default
   configuration replays byte-identically. *)
let rec proposer_loop t (s : server) =
  (match Queue.peek_opt s.prop_queue with
   | Some b when List.length s.inflight_his < t.cfg.max_inflight_batches ->
     ignore (Queue.pop s.prop_queue);
     b.b_open <- false;
     s.inflight_his <- s.inflight_his @ [ b.b_hi ];
     let epoch0 = s.epoch in
     Process.sleep (svc t b.b_cpu);
     (* a crash or election may have landed mid-sleep: a deposed leader
        must not propose with stale state (the reset already emptied
        the queue and window) *)
     if s.role = Leader && s.epoch = epoch0 then begin
       let followers = t.follower_peers in
       Process.sleep
         (svc t (t.cfg.rpc_cpu *. float_of_int (List.length followers)));
       if s.role = Leader && s.epoch = epoch0 then begin
         let entries = List.rev b.b_entries in
         s.prop_unsent <- s.prop_unsent - 1;
         let committed_upto = Int64.sub s.next_commit 1L in
         (if Obs.Trace.enabled t.trace then begin
            let now = Engine.now t.engine in
            observe t "zk.leader.batch_size" (float_of_int b.b_count);
            List.iter
              (fun (span : Obs.Trace.wspan) ->
                if Obs.Trace.is_real span then span.Obs.Trace.w_proposed <- now)
              b.b_spans
          end);
         List.iter
           (fun (peer : server) ->
             send t ~src:s.id ~dst:peer.id
               (Propose_batch { epoch = s.epoch; entries; committed_upto }))
           followers;
         (* overlapped persist: issued now, completes after any earlier
            append still holding the WAL (and after any injected disk
            stall / fail-slow surcharge — both exactly absent by
            default); the completion flips the leader's votes and
            retries the commit cursor *)
         let now = Engine.now t.engine in
         let done_at =
           Float.max (Float.max now s.persist_until) (Wal.stalled_until s.wal)
           +. svc t t.cfg.persist +. Wal.fsync_extra s.wal
         in
         s.persist_until <- done_at;
         (* the WAL records the overlapped window: a crash before
            [done_at] loses these appends even though the batch was
            already proposed (and possibly acked by followers) *)
         List.iter (Wal.append s.wal ~epoch:s.epoch ~start:now ~done_at) entries;
         Engine.schedule t.engine ~delay:(done_at -. now) (fun () ->
             if s.role = Leader && s.epoch = epoch0 then begin
               List.iter
                 (fun (e : Wal.entry) ->
                   match Zxid_tbl.find_opt s.pending e.Wal.e_zxid with
                   | Some pw -> pw.p_self_acked <- true
                   | None -> ())
                 entries;
               try_commit t s
             end)
       end
     end
   | Some _ | None ->
     Process.suspend_with
       (fun (s : server) w -> s.proposer_wake <- Some w)
       s);
  proposer_loop t s

(* {2 Follower apply path} *)

let rec follower_apply_ready t (s : server) =
  if
    Zxid_tbl.mem s.committed s.next_apply
    || s.next_apply <= s.commit_frontier
  then
    match Zxid_tbl.find_opt s.proposals s.next_apply with
    | None -> ()  (* proposal not yet received (cleared by election) *)
    | Some e ->
      let zxid = s.next_apply in
      Zxid_tbl.remove s.committed zxid;
      Zxid_tbl.remove s.proposals zxid;
      s.next_apply <- Int64.add zxid 1L;
      if Ztree.last_zxid s.tree < zxid then apply_entry t s e;
      Zxid_tbl.replace s.log zxid e;
      wal_applied t s zxid;
      follower_apply_ready t s

(* Observers buffer informs in [proposals] and apply strictly in zxid
   order from [next_apply] — an inform lost on the wire leaves a gap
   that must be repaired, never skipped (skipping silently diverges the
   observer's tree forever while it keeps serving reads). *)
let rec observer_apply_ready t (s : server) =
  match Zxid_tbl.find_opt s.proposals s.next_apply with
  | None -> ()
  | Some e ->
    let zxid = s.next_apply in
    Zxid_tbl.remove s.proposals zxid;
    s.next_apply <- Int64.add zxid 1L;
    if Ztree.last_zxid s.tree < zxid then begin
      apply_entry t s e;
      Zxid_tbl.replace s.log zxid e;
      (* observers have no ack round: the inform itself doubles as the
         txn-log append (already committed, so it lands at the frontier) *)
      let now = Engine.now t.engine in
      wal_append_once s ~start:now ~done_at:now e;
      wal_applied t s zxid
    end;
    observer_apply_ready t s

(* Commit marks this follower cannot apply yet mean a proposal or an
   earlier commit was lost on the wire: ask the leader to resend. *)
let request_gap_repair t (s : server) =
  match Zxid_tbl.max_key s.committed with
  | Some upto ->
    send t ~src:s.id ~dst:t.leader
      (Fetch { epoch = s.epoch; from_zxid = s.next_apply; upto; who = s.id })
  | None -> ()

(* A piggybacked commit frontier arrived: every zxid <= [frontier] is
   committed. Pays the same per-entry apply CPU a Commit_batch would
   (only for marks not already learned), advances the frontier, applies
   whatever proposals are now ready, and — like Commit_batch's gap
   repair — fetches the range if the frontier points past a proposal
   hole. Called from the handler process (it sleeps). [epoch] is the
   frontier's epoch: a stale frontier from a deposed leader must not
   mark the new epoch's proposals committed. *)
let advance_frontier t (s : server) ~epoch frontier =
  if epoch = s.epoch && s.role = Follower && frontier > s.commit_frontier then begin
    let base = Int64.max s.commit_frontier (Int64.sub s.next_apply 1L) in
    if frontier > base then begin
      let fresh = ref 0 in
      let z = ref (Int64.add base 1L) in
      while !z <= frontier do
        if not (Zxid_tbl.mem s.committed !z) then incr fresh;
        z := Int64.add !z 1L
      done;
      if !fresh > 0 then
        Process.sleep (svc t (t.cfg.follower_apply *. float_of_int !fresh));
      if s.role = Follower && epoch = s.epoch then begin
        s.commit_frontier <- Int64.max s.commit_frontier frontier;
        s.fresh_at <- Engine.now t.engine;
        follower_apply_ready t s;
        flush_deferred s;
        if s.next_apply <= s.commit_frontier then
          send t ~src:s.id ~dst:t.leader
            (Fetch
               { epoch = s.epoch; from_zxid = s.next_apply;
                 upto = s.commit_frontier; who = s.id })
      end
    end
    else s.commit_frontier <- Int64.max s.commit_frontier frontier
  end

let handle t (s : server) msg =
  match msg with
  | Read { exec; refuse } ->
    Process.sleep (svc t t.cfg.read_service);
    if s.role <> Down then begin
      let stale =
        (s.role = Follower || s.role = Observer)
        && t.cfg.stale_read_after < infinity
        && Engine.now t.engine -. s.fresh_at > t.cfg.stale_read_after
      in
      if stale && not t.cfg.serve_stale_reads then
        refuse Zerror.ZCONNECTIONLOSS
      else begin
        if stale then t.stale_served <- t.stale_served + 1;
        s.reads <- s.reads + 1;
        exec s
      end
    end
  | Write { txn; rid; origin; reply; span } ->
    if s.role = Leader then begin
      if failing_fast t s then refuse_fast t s ~origin ~reply
      else
        (if pipelined t then leader_enqueue_batch else leader_handle_batch)
          t s (drain_batch t s (txn, rid, origin, reply, span, None))
    end
    else begin
      Process.sleep (svc t t.cfg.rpc_cpu);
      send t ~src:s.id ~dst:t.leader (Write { txn; rid; origin; reply; span })
    end
  | Close_session { owner; rid; origin; reply; span } ->
    if s.role = Leader then begin
      if failing_fast t s then refuse_fast t s ~origin ~reply
      else
        let txn = build_session_cleanup s owner in
        (if pipelined t then leader_enqueue_batch else leader_handle_batch)
          t s (drain_batch t s (txn, rid, origin, reply, span, Some owner))
    end
    else begin
      Process.sleep (svc t t.cfg.rpc_cpu);
      send t ~src:s.id ~dst:t.leader (Close_session { owner; rid; origin; reply; span })
    end
  | Propose_batch { epoch; entries; committed_upto } ->
    if epoch = s.epoch && s.role = Follower then begin
      let issued_at = Engine.now t.engine in
      (* one persist + one reply RPC covers the whole batch; injected
         storage faults (disk stall / fail-slow) stretch it *)
      Process.sleep
        (svc t (t.cfg.persist +. t.cfg.rpc_cpu)
         +. Wal.device_delay s.wal ~now:issued_at);
      if s.role = Follower && epoch = s.epoch then begin
        let persisted_at = Engine.now t.engine in
        s.fresh_at <- persisted_at;
        List.iter
          (fun (e : Wal.entry) ->
            Zxid_tbl.replace s.proposals e.Wal.e_zxid e;
            (* log the proposal before acking (ZAB's accept-then-ack) *)
            wal_append_once s ~start:issued_at ~done_at:persisted_at e)
          entries;
        let zxids = List.map (fun (e : Wal.entry) -> e.Wal.e_zxid) entries in
        send t ~src:s.id ~dst:t.leader (Ack_batch { epoch; zxids; from = s.id });
        (* A lossy link can strand an earlier proposal: if every
           follower missed that batch, it never gathers a quorum, and
           since commits are in zxid order the uncommitted head blocks
           every later write. Any proposal arriving past a hole in this
           follower's log is evidence of exactly that — fetch the
           missing range. Repair rides on whatever traffic still flows
           (client retries re-propose), so a quiet network stays quiet
           and the simulation still quiesces. *)
        let hi =
          List.fold_left (fun acc z -> Int64.max acc z) 0L zxids
        in
        let missing = ref false in
        let z = ref s.next_apply in
        while (not !missing) && Int64.compare !z hi < 0 do
          if not (Zxid_tbl.mem s.proposals !z) then missing := true;
          z := Int64.add !z 1L
        done;
        if !missing then
          send t ~src:s.id ~dst:t.leader
            (Fetch
               { epoch = s.epoch; from_zxid = s.next_apply; upto = hi;
                 who = s.id });
        (* a retransmitted proposal may fill the gap a held-back commit
           is waiting on *)
        follower_apply_ready t s;
        flush_deferred s;
        (* the piggybacked commit frontier, if any, commits everything
           it covers — the pipelined leader's substitute for the
           standalone Commit_batch while rounds overlap *)
        if committed_upto > 0L then advance_frontier t s ~epoch committed_upto
      end
    end
  | Ack_batch { epoch; zxids; from } ->
    if epoch = s.epoch && s.role = Leader then begin
      Process.sleep (svc t t.cfg.rpc_cpu);
      List.iter
        (fun zxid ->
          match Zxid_tbl.find_opt s.pending zxid with
          | Some pw ->
            if not (List.mem from pw.p_acked) then pw.p_acked <- from :: pw.p_acked
          | None -> ())
        zxids;
      try_commit t s;
      (* An Ack_batch lost on a lossy link can strand the commit head:
         every follower holds the proposal (so no log gap to repair) and
         none will re-ack unprompted, while the leader waits for a
         quorum that never completes — and commits are zxid-ordered, so
         everything behind the head stalls too. *)
      if s.role = Leader then repropose_stalled t s
    end
  | Commit_batch { epoch; zxids } ->
    if epoch = s.epoch && s.role = Follower then begin
      (* applying stays per-txn work even when the commit is batched *)
      Process.sleep
        (svc t (t.cfg.follower_apply *. float_of_int (List.length zxids)));
      if s.role = Follower && epoch = s.epoch then begin
        s.fresh_at <- Engine.now t.engine;
        List.iter (fun zxid -> Zxid_tbl.replace s.committed zxid ()) zxids;
        follower_apply_ready t s;
        flush_deferred s;
        request_gap_repair t s
      end
    end
  | Inform_batch { epoch; entries } ->
    if epoch = s.epoch && s.role = Observer then begin
      Process.sleep
        (svc t (t.cfg.follower_apply *. float_of_int (List.length entries)));
      if s.role = Observer && epoch = s.epoch then begin
        (* The leader->observer channel is FIFO but not lossless: an
           inform dropped during a partition leaves a zxid gap. Buffer
           out-of-order entries and apply strictly from [next_apply] —
           an observer that skipped the gap would diverge silently and
           keep serving reads from the wrong tree. *)
        List.iter
          (fun (e : Wal.entry) ->
            if e.Wal.e_zxid >= s.next_apply then
              Zxid_tbl.replace s.proposals e.Wal.e_zxid e)
          entries;
        observer_apply_ready t s;
        let hi =
          List.fold_left
            (fun acc (e : Wal.entry) -> Int64.max acc e.Wal.e_zxid)
            0L entries
        in
        if s.next_apply <= hi then
          (* gap: fetch the missing committed range; freshness must NOT
             advance — a behind observer is exactly what the stale-read
             gate exists to catch *)
          send t ~src:s.id ~dst:t.leader
            (Fetch
               { epoch = s.epoch; from_zxid = s.next_apply; upto = hi;
                 who = s.id })
        else s.fresh_at <- Engine.now t.engine
      end
    end
  | Fetch { epoch; from_zxid; upto; who } ->
    if epoch = s.epoch && s.role = Leader then begin
      Process.sleep (svc t t.cfg.rpc_cpu);
      if s.role = Leader && epoch = s.epoch then begin
        let upto = Int64.min upto (Int64.sub s.next_zxid 1L) in
        (* observers only ever see committed state: they are answered
           with the committed entries of the range as an Inform_batch
           (the pending tail is not committed and must not reach them) *)
        let observer = is_observer_id t who in
        let entries = ref [] and commits = ref [] in
        let z = ref upto in
        while !z >= from_zxid do
          (match Zxid_tbl.find_opt s.log !z with
           | Some e ->
             entries := e :: !entries;
             commits := !z :: !commits
           | None -> (
             match Zxid_tbl.find_opt s.pending !z with
             | Some pw when not observer -> entries := pw.p_entry :: !entries
             | Some _ | None -> ()));
          z := Int64.sub !z 1L
        done;
        if observer then begin
          if !entries <> [] then
            send t ~src:s.id ~dst:who (Inform_batch { epoch; entries = !entries })
        end
        else begin
          if !entries <> [] then
            send t ~src:s.id ~dst:who
              (* frontier 0L: gap repair always ships explicit commit
                 marks right behind on the same FIFO link *)
              (Propose_batch
                 { epoch; entries = !entries; committed_upto = 0L });
          (* the commit marks ride behind the entries on the same FIFO
             link, so the follower stores before it applies *)
          if !commits <> [] then
            send t ~src:s.id ~dst:who (Commit_batch { epoch; zxids = !commits })
        end
      end
    end
  | Deliver_reply { epoch; zxid; result; reply; committed_upto } ->
    Process.sleep (svc t t.cfg.rpc_cpu);
    (* a frontier riding on the reply commits the write it answers for
       (and everything before it) at this origin — the pipelined happy
       path applies here instead of deferring below *)
    if committed_upto > 0L then advance_frontier t s ~epoch committed_upto;
    (* On a FIFO lossless link the matching Commit was processed already,
       so this server's tree reflects the write before the client
       resumes. A lossy link can break that: hold the reply until the
       apply catches up (and ask the leader for the missing entries) so
       read-your-own-writes survives message loss. *)
    if s.role = Follower && zxid > 0L && s.next_apply <= zxid then begin
      s.deferred <- (zxid, fun () -> reply result) :: s.deferred;
      send t ~src:s.id ~dst:t.leader
        (Fetch { epoch = s.epoch; from_zxid = s.next_apply; upto = zxid; who = s.id })
    end
    else reply result

let server_loop t s =
  let rec loop () =
    let msg = Mailbox.recv s.inbox in
    if s.role <> Down then handle t s msg;
    loop ()
  in
  loop ()

let make_server ~share ~now ~lease_ttl id =
  { id;
    role = Follower;
    epoch = 0;
    tree = Ztree.create ~share ();
    log = Zxid_tbl.create 1024;
    applied = Zxid_tbl.create 64;
    inbox = Mailbox.create ();
    pending = Zxid_tbl.create 64;
    pending_rids = Rid_tbl.create 64;
    next_zxid = 1L;
    next_commit = 1L;
    prop_queue = Queue.create ();
    prop_unsent = 0;
    inflight_his = [];
    persist_until = 0.;
    proposer_wake = None;
    proposals = Zxid_tbl.create 64;
    committed = Zxid_tbl.create 64;
    commit_frontier = 0L;
    next_apply = 1L;
    fresh_at = 0.;
    deferred = [];
    leases = Lease.create ~now ~ttl:lease_ttl;
    wal = Wal.create ();
    recovered_tail = [];
    recovered_log_end = (0, 0L);
    awaiting_quorum = false;
    disk_synced = false;
    reads = 0 }

let start ?(trace = Obs.Trace.null) ?(tag = "") engine cfg =
  if cfg.servers < 1 then invalid_arg "Ensemble.start: servers < 1";
  if cfg.observers < 0 then invalid_arg "Ensemble.start: observers < 0";
  if cfg.max_batch < 1 then invalid_arg "Ensemble.start: max_batch < 1";
  if cfg.max_inflight_batches < 1 then
    invalid_arg "Ensemble.start: max_inflight_batches < 1";
  if cfg.retry_backoff < 0. then invalid_arg "Ensemble.start: retry_backoff < 0";
  if cfg.request_timeout <= 0. then
    invalid_arg "Ensemble.start: request_timeout <= 0";
  if cfg.session_timeout <= 0. then
    invalid_arg "Ensemble.start: session_timeout <= 0";
  if cfg.lease_ttl <= 0. then invalid_arg "Ensemble.start: lease_ttl <= 0";
  let share = Ztree.share () in
  let members =
    Array.init (cfg.servers + cfg.observers)
      (make_server ~share ~now:(fun () -> Engine.now engine) ~lease_ttl:cfg.lease_ttl)
  in
  members.(0).role <- Leader;
  for i = cfg.servers to cfg.servers + cfg.observers - 1 do
    members.(i).role <- Observer
  done;
  let master = Rng.create ~seed:cfg.seed in
  let net =
    Net.create ~default_latency:(Net.Fixed cfg.net_latency) ~seed:(Rng.next master)
      engine
  in
  let eps =
    Array.init
      (cfg.servers + cfg.observers)
      (fun _ -> Net.endpoint net)
  in
  let t =
    { engine; cfg; trace; tag; members; share; net; eps; session_rng = master;
      leader = 0; next_session = 1L; next_server = 0;
      commits = 0; last_commit_at = Engine.now engine;
      commit_fanouts = 0; piggybacked_commits = 0; dedup_hits = 0;
      dedup_evictions = 0; stale_served = 0; failed_fast = 0;
      sessions_expired = 0; follower_peers = []; observer_peers = [];
      recoveries = 0; recovery_time_total = 0.; recovery_time_max = 0.;
      wal_tail_commits = 0; transfer_diff_txns = 0; transfer_snaps = 0 }
  in
  refresh_peers t;
  Array.iter (fun s -> Process.spawn engine (fun () -> server_loop t s)) members;
  (* proposer processes exist only in pipelined mode, so the default
     configuration's process/event schedule — and thus its recorded
     replays — stay byte-identical. Every member gets one: any voter
     may be elected later. *)
  if pipelined t then
    Array.iter (fun s -> Process.spawn engine (fun () -> proposer_loop t s)) members;
  t

(* {2 Failure injection} *)

(* How far behind a returning follower may be before the leader ships a
   whole snapshot instead of replaying the log suffix txn by txn —
   mirroring ZooKeeper's SNAP vs DIFF follower synchronization. *)
let snapshot_transfer_threshold = 512L

let state_transfer t ~from ~target =
  let src = t.members.(from) and dst = t.members.(target) in
  let now = Engine.now t.engine in
  let src_z = Ztree.last_zxid src.tree and dst_z = Ztree.last_zxid dst.tree in
  let gap = Int64.sub src_z dst_z in
  (* A live leader resyncing this server overrules any readable-but-
     uncommitted WAL tail local recovery was holding for a possible
     recovery election. *)
  dst.recovered_tail <- [];
  dst.disk_synced <- false;
  (* Two situations force a SNAP regardless of the gap size:
     - divergence: [dst] is ahead of [src]'s tree, or what [dst]'s disk
       holds at its own last zxid differs from committed history — a
       server that replayed an uncommitted suffix from a dead epoch.
       Its state must be overwritten wholesale (ZooKeeper's TRUNC,
       folded into SNAP here: [Wal.install_snapshot] discards the local
       log).
     - missing history: [src]'s in-memory log no longer covers all of
       (dst_z, src_z] because the leader itself recovered from a
       snapshot and only holds its replay suffix — a DIFF would
       silently skip transactions. *)
  let diverged =
    dst_z > src_z
    || (dst_z > 0L
        &&
        match Zxid_tbl.find_opt src.log dst_z with
        | Some committed -> (
          match Wal.entry_at dst.wal dst_z with
          | Some e -> e.Wal.e_txn <> committed.Wal.e_txn
          | None -> false (* snapshot-covered prefix: consistent *))
        | None ->
          (* unknown at src: fine if committed long ago (src pruned it),
             divergent if it is beyond src's committed frontier *)
          dst_z > Wal.frontier src.wal)
  in
  let missing_history () =
    let missing = ref false in
    let z = ref (Int64.add dst_z 1L) in
    while (not !missing) && !z <= src_z do
      if not (Zxid_tbl.mem src.log !z) then missing := true;
      z := Int64.add !z 1L
    done;
    !missing
  in
  if gap > snapshot_transfer_threshold || diverged
     || (gap > 0L && missing_history ())
  then begin
    (* the snapshot is [src]'s image itself: [dst] takes it over and
       is in lock-step with [src] again. Swapping it in must not orphan
       the watches armed on the old tree: still-connected sessions
       (e.g. client caches) rely on them for invalidation. Unchanged
       watches re-arm on the new tree; watches whose node changed during
       the gap fire the missed event now. *)
    let img = Ztree.capture src.tree in
    let stale = dst.tree in
    dst.tree <- Ztree.restore ~share:t.share img;
    Ztree.migrate_watches ~from:stale ~into:dst.tree;
    Zxid_tbl.reset dst.log;
    Zxid_tbl.iter (fun zxid entry -> Zxid_tbl.replace dst.log zxid entry) src.log;
    Zxid_tbl.reset dst.applied;
    Zxid_tbl.iter
      (fun session row -> Zxid_tbl.replace dst.applied session (Zxid_tbl.copy row))
      src.applied;
    t.transfer_snaps <- t.transfer_snaps + 1;
    (* write-through: the installed snapshot supersedes dst's whole
       local log (TRUNC + SNAP) *)
    Wal.install_snapshot dst.wal ~zxid:src_z ~epoch:dst.epoch img
  end;
  let zxid = ref (Int64.add (Ztree.last_zxid dst.tree) 1L) in
  while !zxid <= Ztree.last_zxid src.tree do
    (match Zxid_tbl.find_opt src.log !zxid with
     | Some e ->
       apply_entry t dst e;
       Zxid_tbl.replace dst.log !zxid e;
       t.transfer_diff_txns <- t.transfer_diff_txns + 1;
       (* write-through: a diff-synced txn lands on dst's disk too *)
       wal_append_once dst ~start:now ~done_at:now e;
       wal_applied t dst !zxid
     | None -> ());
    zxid := Int64.add !zxid 1L
  done;
  dst.fresh_at <- Engine.now t.engine

(* Crown [new_leader] under [epoch]: reset epoch-relative state on every
   live member, resync them from the leader, restart zxid numbering. *)
let crown t (new_leader : server) ~epoch =
  t.leader <- new_leader.id;
  Array.iter
    (fun s ->
      if s.role <> Down then begin
        s.epoch <- epoch;
        Wal.note_epoch s.wal epoch;
        s.awaiting_quorum <- false;
        s.recovered_tail <- [];
        s.disk_synced <- false;
        Zxid_tbl.reset s.proposals;
        Zxid_tbl.reset s.committed;
        Zxid_tbl.reset s.pending;
        Rid_tbl.reset s.pending_rids;
        (* queued batches and frontiers are epoch-relative state *)
        reset_pipeline_state s;
        if s.id = new_leader.id then s.role <- Leader
        else begin
          s.role <- (if is_observer_id t s.id then Observer else Follower);
          state_transfer t ~from:new_leader.id ~target:s.id
        end;
        s.next_apply <- Int64.add (Ztree.last_zxid s.tree) 1L;
        s.fresh_at <- Engine.now t.engine;
        flush_deferred s
      end)
    t.members;
  new_leader.next_zxid <- Int64.add (Ztree.last_zxid new_leader.tree) 1L;
  new_leader.next_commit <- new_leader.next_zxid;
  t.last_commit_at <- Engine.now t.engine;
  refresh_peers t

let alive_voters t =
  let n = ref 0 in
  Array.iter
    (fun (s : server) ->
      if s.role <> Down && not (is_observer_id t s.id) then incr n)
    t.members;
  !n

let elect t =
  (* servers parked by a whole-cluster power failure must not be crowned
     into a minority leadership by a stale election timer: the recovery
     election in [restart] runs once a quorum of voters is back *)
  if
    Array.exists (fun (s : server) -> s.awaiting_quorum) t.members
    && alive_voters t < quorum t
  then ()
  else begin
    let best = ref None in
    Array.iter
      (fun s ->
        (* observers never lead *)
        if s.role <> Down && not (is_observer_id t s.id) then
          match !best with
          | None -> best := Some s
          | Some b ->
            let key (x : server) = (Ztree.last_zxid x.tree, x.id) in
            if key s > key b then best := Some s)
      t.members;
    match !best with
    | None -> ()  (* total outage; a later restart re-elects *)
    | Some new_leader -> crown t new_leader ~epoch:(new_leader.epoch + 1)
  end

(* {2 Whole-cluster power-failure recovery}

   Every riser recovered locally from its own disk; once a quorum of
   voters is back, ZAB elects the member with the most advanced durable
   log — comparing (epoch, zxid) of the last readable WAL record, epoch
   first — and the winner's log, readable-but-uncommitted tail
   included, becomes history. Any election quorum intersects every ack
   quorum, so each acknowledged write is on at least one riser's disk
   and the epoch-first comparison guarantees the winner holds it. *)

let commit_recovered_tail t (s : server) =
  List.iter
    (fun (e : Wal.entry) ->
      let zxid = e.Wal.e_zxid in
      if Ztree.last_zxid s.tree < zxid then apply_entry t s e;
      Zxid_tbl.replace s.log zxid e;
      wal_applied t s zxid;
      t.wal_tail_commits <- t.wal_tail_commits + 1)
    s.recovered_tail;
  s.recovered_tail <- []

let recovery_elect t =
  (* candidates that never lost power still vote with their durable
     log: read it back now so every [recovered_log_end] is current *)
  Array.iter
    (fun (s : server) ->
      if s.role <> Down && not (is_observer_id t s.id) && not s.disk_synced
      then begin
        let r = Wal.recover s.wal in
        s.recovered_tail <- r.Wal.rc_tail;
        s.recovered_log_end <- r.Wal.rc_log_end;
        s.disk_synced <- true
      end)
    t.members;
  let best = ref None in
  Array.iter
    (fun s ->
      if s.role <> Down && not (is_observer_id t s.id) then
        match !best with
        | None -> best := Some s
        | Some b ->
          let key (x : server) =
            let e, z = x.recovered_log_end in
            (e, z, x.id)
          in
          if key s > key b then best := Some s)
    t.members;
  match !best with
  | None -> ()
  | Some new_leader ->
    commit_recovered_tail t new_leader;
    let epoch =
      1
      + Array.fold_left
          (fun acc (s : server) ->
            if s.role <> Down then max acc (max s.epoch (Wal.epoch s.wal))
            else acc)
          0 t.members
    in
    crown t new_leader ~epoch

(* Local crash recovery: rebuild the tree, the committed log and the
   dedup table from stable storage — newest valid snapshot, then the
   contiguous committed WAL suffix. RAM state from before the crash is
   discarded wholesale; only armed watches migrate (still-connected
   sessions rely on them for invalidation). The modeled recovery time
   (snapshot load plus per-record replay at the configured device and
   apply costs) is recorded as an observation, not slept: restarts were
   instantaneous before this module existed and recorded schedules must
   stay byte-identical. *)
let recover_local t (s : server) =
  let r = Wal.recover s.wal in
  let stale = s.tree in
  (* members that restore the same snapshot hold one image, so their
     replays share applies *)
  s.tree <-
    (match r.Wal.rc_snapshot with
     | Some img -> Ztree.restore ~share:t.share img
     | None -> Ztree.create ~share:t.share ());
  Zxid_tbl.reset s.log;
  Zxid_tbl.reset s.applied;
  List.iter
    (fun (e : Wal.entry) ->
      let zxid = e.Wal.e_zxid in
      if Ztree.last_zxid s.tree < zxid then apply_entry t s e;
      Zxid_tbl.replace s.log zxid e)
    r.Wal.rc_replay;
  (* watches migrate only once the tree is fully rebuilt: comparing
     against the half-replayed tree would fire spurious events for
     every node the replay had not reached yet *)
  Ztree.migrate_watches ~from:stale ~into:s.tree;
  s.recovered_tail <- r.Wal.rc_tail;
  s.recovered_log_end <- r.Wal.rc_log_end;
  s.disk_synced <- true;
  t.recoveries <- t.recoveries + 1;
  let recovery_time =
    (match r.Wal.rc_snapshot with
     | Some img ->
       (* snapshot load at device speed, one persist per 64 KiB page *)
       float_of_int ((Ztree.encoded_length img / 65536) + 1) *. t.cfg.persist
     | None -> 0.)
    +. (float_of_int r.Wal.rc_replayed
        *. (t.cfg.persist +. t.cfg.follower_apply))
  in
  t.recovery_time_total <- t.recovery_time_total +. recovery_time;
  if recovery_time > t.recovery_time_max then
    t.recovery_time_max <- recovery_time;
  if Obs.Trace.enabled t.trace then
    Obs.Trace.observe t.trace "zk.wal.recovery_time" recovery_time

let crash t id =
  let s = t.members.(id) in
  if s.role <> Down then begin
    let was_leader = s.role = Leader in
    s.role <- Down;
    Zxid_tbl.reset s.pending;
    Rid_tbl.reset s.pending_rids;
    reset_pipeline_state s;
    (* a crash loses RAM: whatever sat unprocessed in the inbox is gone,
       held-back replies die with the connection state, and so does the
       lease-interest table — clients ride out the hole on the TTL *)
    Mailbox.clear s.inbox;
    s.deferred <- [];
    Lease.clear s.leases;
    s.recovered_tail <- [];
    s.awaiting_quorum <- false;
    s.disk_synced <- false;
    (* the disk keeps only what the WAL device finished before the power
       died: un-fsynced appends are gone, the in-flight one is torn.
       [restart] rebuilds all volatile state from this. *)
    Wal.power_off s.wal ~now:(Engine.now t.engine);
    refresh_peers t;
    if was_leader then
      Engine.schedule t.engine ~delay:t.cfg.election_timeout (fun () -> elect t)
  end

let restart t id =
  let s = t.members.(id) in
  if s.role = Down then begin
    s.role <- (if is_observer_id t id then Observer else Follower);
    s.epoch <- t.members.(t.leader).epoch;
    Zxid_tbl.reset s.proposals;
    Zxid_tbl.reset s.committed;
    s.commit_frontier <- 0L;
    (* local recovery first, from disk alone: snapshot load + WAL replay.
       Only the genuinely missing remainder is then diff-synced from a
       live leader (if any). *)
    recover_local t s;
    if t.members.(t.leader).role = Leader && t.leader <> id then begin
      let leader = t.members.(t.leader) in
      state_transfer t ~from:t.leader ~target:id;
      (* Re-propose the leader's uncommitted transactions so writes that
         stalled during a quorum outage can reach quorum and commit.
         Observers do not vote, so they are not re-proposed to. *)
      if not (is_observer_id t id) then begin
        (* the fold runs in ascending zxid order: reverse once *)
        let entries =
          Zxid_tbl.fold (fun _ pw acc -> pw.p_entry :: acc) leader.pending []
        in
        match List.rev entries with
        | [] -> ()
        | entries ->
          send t ~src:t.leader ~dst:id
            (Propose_batch
               { epoch = leader.epoch; entries; committed_upto = 0L })
      end
    end
    else if t.members.(t.leader).role <> Leader then begin
      (* No live leader anywhere. If any riser is parked awaiting quorum
         (or this restart finds itself alone), the whole ensemble went
         down: wait for a quorum of voters to recover, then run the
         power-failure recovery election over durable log ends. With a
         quorum already up and nobody parked, the old path — a plain
         election among live trees — still applies (e.g. a follower
         restarting inside the leader's election-timeout window). *)
      let voters = alive_voters t in
      let parked =
        Array.exists (fun (x : server) -> x.awaiting_quorum) t.members
      in
      if voters < quorum t then
        s.awaiting_quorum <- not (is_observer_id t id)
      else if parked || s.awaiting_quorum then recovery_elect t
      else elect t
    end;
    s.next_apply <- Int64.add (Ztree.last_zxid s.tree) 1L;
    s.fresh_at <- Engine.now t.engine;
    refresh_peers t
  end

(* {2 Storage-fault injection} *)

let tear_wal_tail t id = ignore (Wal.tear_tail t.members.(id).wal)
let corrupt_wal t id ~fraction = ignore (Wal.corrupt t.members.(id).wal ~fraction)
let corrupt_snapshot t id = ignore (Wal.corrupt_snapshot t.members.(id).wal)

let disk_stall t id ~duration =
  Wal.stall t.members.(id).wal ~now:(Engine.now t.engine) ~duration

let add_fsync_delay t id d = Wal.add_fsync_delay t.members.(id).wal d

(* {2 Stable-storage introspection} *)

let sum_wal f t =
  Array.fold_left (fun acc (s : server) -> acc + f s.wal) 0 t.members

let wal_appended t = sum_wal Wal.appended t
let wal_replayed t = sum_wal Wal.replayed t
let wal_truncated t = sum_wal Wal.truncated t
let wal_tail_dropped t = sum_wal Wal.tail_dropped t
let snap_loads t = sum_wal Wal.snap_loads t
let snap_fallbacks t = sum_wal Wal.snap_fallbacks t
let wal_snapshots t id = Wal.snapshots t.members.(id).wal

let durable_zxid t id =
  Wal.durable_zxid t.members.(id).wal ~now:(Engine.now t.engine)

let recoveries t = t.recoveries
let recovery_time_total t = t.recovery_time_total
let recovery_time_max t = t.recovery_time_max
let wal_tail_commits t = t.wal_tail_commits
let transfer_diff_txns t = t.transfer_diff_txns
let transfer_snaps t = t.transfer_snaps

(* {2 Client side} *)

(* Suspend the calling process until [reply] fires or [timeout] elapses;
   late replies after a timeout are ignored. The reply crosses the
   network from [from] back to the session's endpoint [cep], so it is
   subject to the same partitions and loss as the request. A reply that
   settles first cancels the timeout, so no dead timer lingers in the
   event queue. *)
let await_reply t ~timeout ~from ~cep issue =
  Process.suspend_v (fun resume ->
      let settled = ref false in
      let finish v = if not !settled then begin settled := true; resume v end in
      let timer =
        Engine.schedule_timer t.engine ~delay:timeout (fun () ->
            finish (Error Zerror.ZOPERATIONTIMEOUT))
      in
      issue (fun result ->
          Net.send t.net ~src:t.eps.(from) ~dst:cep (fun () ->
              Engine.cancel t.engine timer;
              finish result)))

let pick_alive t preferred =
  if t.members.(preferred).role <> Down then preferred
  else
    match alive_ids t with
    | [] -> preferred
    | ids -> List.nth ids (preferred mod List.length ids)

(* Span label for a client write, by mutation kind. *)
let txn_label = function
  | [ Txn.Create _ ] -> "create"
  | [ Txn.Delete _ ] -> "delete"
  | [ Txn.Set_data _ ] -> "set"
  | _ -> "multi"

(* Capped exponential backoff with full jitter between retry attempts;
   [retry_backoff = 0.] (the default) retries immediately. *)
let backoff_sleep t rng ~attempt =
  if t.cfg.retry_backoff > 0. then begin
    let base = t.cfg.retry_backoff *. (2. ** float_of_int attempt) in
    let capped = Float.min base t.cfg.retry_backoff_cap in
    Process.sleep (capped *. (0.5 +. (0.5 *. Rng.float rng)))
  end

(* The request id is fixed by the caller and reused verbatim across
   timeout retries: if the timed-out attempt actually committed, the
   leader's dedup table answers the retry with the original result
   instead of applying the transaction a second time. *)
let rec submit_attempts t ~server ~cep ~rng ~attempt ~attempts ~rid ~span txn =
  let target = pick_alive t server in
  let result =
    await_reply t ~timeout:t.cfg.request_timeout ~from:target ~cep (fun reply ->
        send_from t ~src_ep:cep ~dst:target
          (Write { txn; rid; origin = target; reply; span }))
  in
  match result with
  | Error Zerror.ZOPERATIONTIMEOUT when attempts > 1 ->
    backoff_sleep t rng ~attempt;
    if Obs.Trace.is_real span then span.Obs.Trace.w_resent <- Engine.now t.engine;
    submit_attempts t ~server ~cep ~rng ~attempt:(attempt + 1)
      ~attempts:(attempts - 1) ~rid ~span txn
  | result -> result

let submit t ~server ~cep ~rng ~attempts ~rid txn =
  let span = Obs.Trace.wspan t.trace ~now:(Engine.now t.engine) in
  let result =
    submit_attempts t ~server ~cep ~rng ~attempt:0 ~attempts ~rid ~span txn
  in
  (* finish_write rejects half-stamped spans, so a write that failed, or
     whose last attempt left no stamps of its own, drops out of the
     breakdown instead of skewing it; it counts what it drops under
     zk.<op>.dropped *)
  Obs.Trace.finish_write t.trace ~op:(txn_label txn) span
    ~now:(Engine.now t.engine);
  result

let rec read_attempts t ~server ~cep ~rng ~attempt ~attempts exec_read =
  let target = pick_alive t server in
  let result =
    await_reply t ~timeout:t.cfg.request_timeout ~from:target ~cep (fun reply ->
        send_from t ~src_ep:cep ~dst:target
          (Read
             { exec = (fun srv -> reply (Ok (exec_read srv)));
               refuse = (fun e -> reply (Error e)) }))
  in
  match result with
  | Error Zerror.ZOPERATIONTIMEOUT when attempts > 1 ->
    backoff_sleep t rng ~attempt;
    read_attempts t ~server ~cep ~rng ~attempt:(attempt + 1)
      ~attempts:(attempts - 1) exec_read
  | Error e -> Error e
  | Ok v -> Ok v

let read t ~server ~cep ~rng ~attempts exec_read =
  let t0 = Engine.now t.engine in
  let result = read_attempts t ~server ~cep ~rng ~attempt:0 ~attempts exec_read in
  Obs.Trace.record_span t.trace "zk.read.total" (Engine.now t.engine -. t0);
  result

let max_attempts = 8

let session t ?server () =
  let home =
    match server with
    | Some id -> id
    | None ->
      (* observers take their share of sessions: that is their point *)
      let id = t.next_server in
      t.next_server <- (t.next_server + 1) mod member_count t;
      id
  in
  let session_id = t.next_session in
  t.next_session <- Int64.add session_id 1L;
  (* the session's own network endpoint: it sits on its home server's
     side of any partition, so cutting a server off strands its clients *)
  let cep = Net.endpoint ~follow:t.eps.(home) t.net in
  let rng = Rng.split t.session_rng in
  (* ZooKeeper's cxid: one monotone stamp per client request; retries of
     the same request keep the stamp *)
  let next_cxid = ref 0L in
  let fresh_rid () =
    let cxid = !next_cxid in
    next_cxid := Int64.add cxid 1L;
    { rsession = session_id; rcxid = cxid }
  in
  (* Session-expiry detection: a session whose every request has failed
     for [session_timeout] seconds straight is declared expired — its
     ops fail fast with ZSESSIONEXPIRED, and a best-effort Close_session
     is fired so the server reaps its ephemerals (whose deletion events
     fire the session's watches) and evicts its dedup entries. *)
  let expired = ref false in
  let failing_since = ref None in
  let expire () =
    if not !expired then begin
      expired := true;
      t.sessions_expired <- t.sessions_expired + 1;
      let origin = pick_alive t home in
      send_from t ~src_ep:cep ~dst:origin
        (Close_session
           { owner = session_id; rid = fresh_rid (); origin;
             reply = ignore; span = Obs.Trace.no_wspan })
    end
  in
  let track : 'a. ('a, Zerror.t) result -> ('a, Zerror.t) result =
   fun result ->
    match result with
    | Error (Zerror.ZOPERATIONTIMEOUT | Zerror.ZCONNECTIONLOSS) -> (
      let now = Engine.now t.engine in
      match !failing_since with
      | None ->
        failing_since := Some now;
        result
      | Some since when now -. since >= t.cfg.session_timeout ->
        expire ();
        Error Zerror.ZSESSIONEXPIRED
      | Some _ -> result)
    | result ->
      failing_since := None;
      result
  in
  let submit txn =
    if !expired then Error Zerror.ZSESSIONEXPIRED
    else
      track
        (submit t ~server:home ~cep ~rng ~attempts:max_attempts
           ~rid:(fresh_rid ()) txn)
  in
  let submit_async txn callback =
    (* fire-and-callback: no retry; the deadline still bounds the wait *)
    if !expired then callback (Error Zerror.ZSESSIONEXPIRED)
    else begin
      let settled = ref false in
      let finish result =
        if not !settled then begin
          settled := true;
          callback result
        end
      in
      let timer =
        Engine.schedule_timer t.engine ~delay:t.cfg.request_timeout (fun () ->
            finish (Error Zerror.ZOPERATIONTIMEOUT))
      in
      let target = pick_alive t home in
      send_from t ~src_ep:cep ~dst:target
        (Write
           { txn;
             rid = fresh_rid ();
             origin = target;
             span = Obs.Trace.no_wspan;
             reply =
               (fun result ->
                 Net.send t.net ~src:t.eps.(target) ~dst:cep (fun () ->
                     Engine.cancel t.engine timer;
                     finish result)) })
    end
  in
  let read exec =
    if !expired then Error Zerror.ZSESSIONEXPIRED
    else track (read t ~server:home ~cep ~rng ~attempts:max_attempts exec)
  in
  let or_loss = function Ok v -> v | Error e -> Error e in
  let create ?(ephemeral = false) ?(sequential = false) path ~data =
    let owner = if ephemeral then session_id else 0L in
    match submit [ Zk_client.create_op ~ephemeral:owner ~sequential path ~data ] with
    | Ok [ Txn.Created actual ] -> Ok actual
    | Ok _ -> Error Zerror.ZBADARGUMENTS
    | Error _ as e -> e
  in
  let set ?(version = -1) path ~data =
    Result.map ignore (submit [ Zk_client.set_op ~version path ~data ])
  in
  let delete ?(version = -1) path =
    Result.map ignore (submit [ Zk_client.delete_op ~version path ])
  in
  let close () =
    if not !expired then
      let rid = fresh_rid () in
      ignore
        (await_reply t ~timeout:t.cfg.request_timeout
           ~from:(pick_alive t home) ~cep (fun reply ->
             let origin = pick_alive t home in
             send_from t ~src_ep:cep ~dst:origin
               (Close_session
                  { owner = session_id; rid; origin; reply;
                    span = Obs.Trace.no_wspan })))
  in
  (* The session's single revocation channel: lease reads register this
     callback in the serving replica's lease table, and every committed
     change to a leased directory is pushed through it — one aggregated
     subscription per session, not one watch per cached znode. *)
  let invalidation = ref (fun (_ : Lease.revocation) -> ()) in
  let notify event = !invalidation event in
  let lease (srv : server) dir =
    Lease.grant srv.leases ~session:session_id ~dir ~notify
  in
  { Zk_client.create;
    get = (fun path -> or_loss (read (fun srv -> Ztree.get srv.tree path)));
    set;
    delete;
    exists = (fun path -> read (fun srv -> Ztree.exists srv.tree path));
    children =
      (fun path -> or_loss (read (fun srv -> Ztree.children srv.tree path)));
    children_with_data =
      (fun path ->
        (* one Read message — one coordination round trip for the whole
           listing, names and payloads together *)
        or_loss (read (fun srv -> Ztree.children_with_data srv.tree path)));
    children_with_data_watch =
      (fun path cb ->
        or_loss
          (read (fun srv ->
               Ztree.watch_children srv.tree path cb;
               match Ztree.children_with_data srv.tree path with
               | Ok entries ->
                 List.iter
                   (fun (name, _, _) ->
                     Ztree.watch_data srv.tree (Zpath.concat path name) cb)
                   entries;
                 Ok entries
               | Error _ as e -> e)));
    multi = submit;
    multi_async = submit_async;
    watch_data =
      (fun path cb -> ignore (read (fun srv -> Ztree.watch_data srv.tree path cb)));
    watch_children =
      (fun path cb ->
        ignore (read (fun srv -> Ztree.watch_children srv.tree path cb)));
    get_watch =
      (fun path cb ->
        (* one server visit arms the watch and reads *)
        or_loss
          (read (fun srv ->
               Ztree.watch_data srv.tree path cb;
               Ztree.get srv.tree path)));
    children_watch =
      (fun path cb ->
        or_loss
          (read (fun srv ->
               Ztree.watch_children srv.tree path cb;
               Ztree.children srv.tree path)));
    lease_get =
      (fun path ->
        or_loss
          (read (fun srv ->
               let deadline = lease srv (Zpath.parent path) in
               match Ztree.get srv.tree path with
               | Ok (data, stat) -> Ok (Some (data, stat), deadline)
               | Error Zerror.ZNONODE -> Ok (None, deadline)
               | Error _ as e -> e)));
    lease_children =
      (fun path ->
        or_loss
          (read (fun srv ->
               match Ztree.children srv.tree path with
               | Ok names -> Ok (names, lease srv path)
               | Error _ as e -> e)));
    lease_children_with_data =
      (fun path ->
        or_loss
          (read (fun srv ->
               match Ztree.children_with_data srv.tree path with
               | Ok entries -> Ok (entries, lease srv path)
               | Error _ as e -> e)));
    set_invalidation = (fun cb -> invalidation := cb);
    sync = (fun () -> ignore (submit []));
    close;
    session_id }
