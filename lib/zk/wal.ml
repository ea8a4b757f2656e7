(* Per-server stable storage: an append-only transaction log of
   checksummed records plus periodic tree snapshots.

   This is a *model* of the durable medium, in the spirit of Simkit's
   device models: the simulation's persist costs already say *when* an
   append reaches the platter ([persist] sleeps on the stop-and-wait
   paths, the [persist_until] device cursor on the pipelined leader);
   this module says *what* is on the platter at any instant, so a crash
   can be answered with the disk's truth instead of the dead process's
   RAM.

   Record layout (the checksummed [payload] of each record):

     W1 <epoch> <zxid> <time-bits-hex> <rsession> <rcxid> <close|-> <n>
     <op>...

   with each op length-prefixed ZTREE-style ("<len>:<string>"), followed
   by a 16-byte MD5 over the payload. A record is readable iff its MD5
   matches; a crash mid-append leaves the in-flight record torn (its
   checksum can never match), and bit-rot flips payload bytes under an
   unchanged checksum. Recovery walks the log in append order, stops at
   the first unreadable record (everything after a torn or rotten block
   is unreachable in a sequential log), and un-does zxid rewinds: a
   later record whose zxid is not above its predecessor's marks an
   epoch change that overwrote the old uncommitted suffix, exactly
   ZooKeeper's TRUNC.

   Three durability points are modeled as zero-latency ("piggybacked on
   the device's write stream", DESIGN.md §12): the apply marker
   [frontier] (ZooKeeper does not persist commits either; we trade its
   log-end recovery for an explicit marker so recovery reproduces the
   applied prefix exactly), the epoch stamp, and records installed by a
   leader state transfer.

   The fault marks are the bytes' verdict. The model knows which
   records were torn or rotted, so it keeps those marks instead of the
   bytes: a record verifies iff it is neither torn nor rotted. Rot
   flips one mid-payload byte, so a second rot of the same record flips
   it back and the record verifies again; [r_rotted] toggles the same
   way. [corrupt] still picks its victims by the MD5 of each record's
   as-appended encoding, computed on the fly. A snapshot keeps the
   tree's immutable image ([Ztree.capture], O(1)) and a rot mark; the
   image is what recovery restores, and its bytes would be
   [Ztree.encode] of it. *)

type entry = {
  e_zxid : int64;
  e_txn : Txn.t;
  e_time : float;
  e_rsession : int64;
  e_rcxid : int64;
  e_close : int64 option;
}

type record = {
  r_entry : entry;
  r_epoch : int;
  r_start : float; (* device write issued *)
  r_done : float; (* device write (incl. fsync) complete *)
  mutable r_torn : bool; (* partially written: crash mid-append *)
  mutable r_rotted : bool; (* one payload byte flipped by bit-rot *)
}

type snapshot = {
  s_zxid : int64;
  s_epoch : int;
  s_image : Ztree.image; (* the tree at [s_zxid] *)
  mutable s_rotted : bool; (* one payload byte flipped by bit-rot *)
}

type t = {
  mutable records : record list; (* newest first (append order reversed) *)
  by_zxid : record Zxid_tbl.t; (* latest record per zxid *)
  mutable snaps : snapshot list; (* newest first; at most two kept *)
  mutable frontier : int64; (* durable apply marker *)
  mutable epoch : int; (* durable epoch stamp *)
  (* storage-fault state *)
  mutable stalled_until : float; (* disk-stall: device busy until then *)
  mutable fsync_extra : float; (* fail-slow: additive per-fsync latency *)
  (* counters (cumulative across this server's lifetime) *)
  mutable appended : int;
  mutable replayed : int;
  mutable truncated : int; (* records lost to torn tails / bad checksums *)
  mutable tail_dropped : int; (* un-fsynced records dropped at power-off *)
  mutable snap_loads : int;
  mutable snap_fallbacks : int; (* corrupt snapshot skipped for an older one *)
}

let create () =
  { records = [];
    by_zxid = Zxid_tbl.create 256;
    snaps = [];
    frontier = 0L;
    epoch = 0;
    stalled_until = 0.;
    fsync_extra = 0.;
    appended = 0;
    replayed = 0;
    truncated = 0;
    tail_dropped = 0;
    snap_loads = 0;
    snap_fallbacks = 0 }

(* {2 Record encoding} *)

let field b s =
  Buffer.add_char b ' ';
  Buffer.add_string b s

let enc_op b op =
  (match op with
   | Txn.Create { path; data; ephemeral_owner; sequential } ->
     Buffer.add_string b "C ";
     Ztree.add_len_str b path;
     Buffer.add_char b ' ';
     Ztree.add_len_str b data;
     field b (Int64.to_string ephemeral_owner);
     field b (if sequential then "1" else "0")
   | Txn.Delete { path; expected_version } ->
     Buffer.add_string b "D ";
     Ztree.add_len_str b path;
     field b (string_of_int expected_version)
   | Txn.Set_data { path; data; expected_version } ->
     Buffer.add_string b "S ";
     Ztree.add_len_str b path;
     Buffer.add_char b ' ';
     Ztree.add_len_str b data;
     field b (string_of_int expected_version)
   | Txn.Check { path; expected_version } ->
     Buffer.add_string b "K ";
     Ztree.add_len_str b path;
     field b (string_of_int expected_version));
  Buffer.add_char b '\n'

let encode ~epoch (e : entry) =
  let b = Buffer.create 128 in
  Buffer.add_string b "W1";
  field b (string_of_int epoch);
  field b (Int64.to_string e.e_zxid);
  Buffer.add_char b ' ';
  Ztree.add_float_bits b e.e_time;
  field b (Int64.to_string e.e_rsession);
  field b (Int64.to_string e.e_rcxid);
  field b (match e.e_close with None -> "-" | Some o -> Int64.to_string o);
  field b (string_of_int (List.length e.e_txn));
  Buffer.add_char b '\n';
  List.iter (enc_op b) e.e_txn;
  Buffer.contents b

(* {2 Appending} *)

let entry_at t zxid =
  Option.map (fun r -> r.r_entry) (Zxid_tbl.find_opt t.by_zxid zxid)

let epoch_at t zxid =
  Option.map (fun r -> r.r_epoch) (Zxid_tbl.find_opt t.by_zxid zxid)

let append t ~epoch ~start ~done_at entry =
  let r =
    { r_entry = entry; r_epoch = epoch; r_start = start; r_done = done_at;
      r_torn = false; r_rotted = false }
  in
  t.records <- r :: t.records;
  Zxid_tbl.replace t.by_zxid entry.e_zxid r;
  t.appended <- t.appended + 1

let note_commit t zxid = if zxid > t.frontier then t.frontier <- zxid
let note_epoch t epoch = if epoch > t.epoch then t.epoch <- epoch
let frontier t = t.frontier
let epoch t = t.epoch

(* {2 Snapshots} *)

let rebuild_index t =
  Zxid_tbl.reset t.by_zxid;
  List.iter
    (fun r -> Zxid_tbl.replace t.by_zxid r.r_entry.e_zxid r)
    (List.rev t.records)

(* Keep the newest two snapshots (the older one is the bit-rot fallback)
   and prune log records at or below the older snapshot's zxid: recovery
   never replays below the snapshot it loads. The index is pruned in
   place: the cut is by zxid, so every record of a pruned zxid (of any
   epoch) goes and every record of a kept zxid stays — removing the
   pruned zxids leaves exactly the index a rebuild would give. *)
let snapshot t ~zxid ~epoch image =
  let s = { s_zxid = zxid; s_epoch = epoch; s_image = image; s_rotted = false } in
  match t.snaps with
  | [] -> t.snaps <- [ s ]
  | older :: _ ->
    t.snaps <- [ s; older ];
    let keep, pruned =
      List.partition (fun r -> r.r_entry.e_zxid > older.s_zxid) t.records
    in
    if pruned <> [] then begin
      t.records <- keep;
      List.iter (fun r -> Zxid_tbl.remove t.by_zxid r.r_entry.e_zxid) pruned
    end

let last_snapshot_zxid t =
  match t.snaps with [] -> 0L | s :: _ -> s.s_zxid

(* A leader-installed snapshot (SNAP state transfer) supersedes the
   whole local log: everything at or below it is captured by the
   snapshot, everything above it is a stale suffix the leader has
   overruled (ZooKeeper's TRUNC). *)
let install_snapshot t ~zxid ~epoch image =
  t.records <- [];
  Zxid_tbl.reset t.by_zxid;
  t.snaps <- [ { s_zxid = zxid; s_epoch = epoch; s_image = image; s_rotted = false } ];
  if zxid > t.frontier then t.frontier <- zxid

(* {2 Storage-fault state} *)

(* Additional device latency an fsync issued at [now] pays on top of the
   configured [persist] cost: the remainder of a disk stall plus the
   fail-slow surcharge. Zero when no storage fault is armed, so the
   default schedule's sleep arguments are bit-identical. *)
let device_delay t ~now =
  (if t.stalled_until > now then t.stalled_until -. now else 0.)
  +. t.fsync_extra

let stall t ~now ~duration =
  let until = now +. duration in
  if until > t.stalled_until then t.stalled_until <- until

let stalled_until t = t.stalled_until
let add_fsync_delay t d = t.fsync_extra <- t.fsync_extra +. d
let fsync_extra t = t.fsync_extra

(* Tear the newest record: its trailing block never made it out of the
   drive cache (torn write), so its checksum cannot match. *)
let tear_tail t =
  match t.records with [] -> false | r :: _ -> r.r_torn <- true; true

(* Deterministic bit-rot: each record decays iff a hash of its
   as-appended checksum falls under [fraction] — reproducible across
   runs (no RNG draw), yet spread pseudo-randomly over the log. The
   flipped byte sits mid-payload, so the record parses identically but
   fails verification; flipping it again restores the bytes. *)
let corrupt t ~fraction =
  let threshold = int_of_float (fraction *. 65536.) in
  let hit = ref 0 in
  List.iter
    (fun r ->
      let sum = Md5.digest (encode ~epoch:r.r_epoch r.r_entry) in
      if Md5.to_int sum land 0xFFFF < threshold then begin
        r.r_rotted <- not r.r_rotted;
        incr hit
      end)
    t.records;
  !hit

let corrupt_snapshot t =
  match t.snaps with
  | [] -> false
  | s :: _ -> s.s_rotted <- not s.s_rotted; true

(* {2 Crash} *)

(* Power-off at [now]: appends whose device write had not completed are
   lost — fully (never issued, or issued and still queued behind an
   earlier write) or torn (the one write actually on the platter when
   the power died). The device serializes writes, so at most one record
   can be mid-write. *)
let power_off t ~now =
  let keep, gone =
    List.partition (fun r -> r.r_done <= now || r.r_torn) t.records
  in
  let dropped = ref 0 in
  let torn =
    List.filter
      (fun r ->
        if r.r_start < now then true
        else begin
          incr dropped;
          false
        end)
      gone
  in
  List.iter (fun r -> r.r_torn <- true) torn;
  t.records <- torn @ keep;
  t.tail_dropped <- t.tail_dropped + !dropped;
  if !dropped > 0 || torn <> [] then rebuild_index t

(* {2 Recovery} *)

type recovered = {
  rc_snapshot : Ztree.image option; (* None = cold start *)
  rc_snap_zxid : int64;
  rc_replay : entry list; (* (snap, frontier], ascending, contiguous *)
  rc_tail : entry list; (* beyond the frontier: persisted, uncommitted *)
  rc_log_end : int * int64; (* (epoch, zxid) of the last readable record *)
  rc_truncated : int; (* records lost to torn tails / bad checksums *)
  rc_replayed : int;
  rc_snap_fallback : bool;
}

let record_valid r = not (r.r_torn || r.r_rotted)

(* Walk the log in append order, stop at the first unreadable record,
   and resolve zxid rewinds (epoch changes overwriting an uncommitted
   suffix) by popping the superseded tail — returns the effective log,
   ascending. *)
let effective_log t =
  let in_order = List.rev t.records in
  let rec scan eff bad = function
    | [] -> (eff, bad)
    | r :: rest ->
      if not (record_valid r) then (eff, 1 + List.length rest)
      else begin
        let rec pop = function
          | top :: below when top.r_entry.e_zxid >= r.r_entry.e_zxid -> pop below
          | eff -> eff
        in
        scan (r :: pop eff) bad rest
      end
  in
  let eff_rev, bad = scan [] 0 in_order in
  (List.rev eff_rev, bad)

let recover t =
  let eff, bad = effective_log t in
  t.truncated <- t.truncated + bad;
  (* truncate the physical log too: a real recovery rewrites the file
     up to the last readable record *)
  if bad > 0 then begin
    (* the readable prefix in append order: everything before the first
       torn or rotten record *)
    let rec keep_prefix acc = function
      | r :: rest when record_valid r -> keep_prefix (r :: acc) rest
      | _ -> acc (* newest first *)
    in
    t.records <- keep_prefix [] (List.rev t.records);
    rebuild_index t
  end;
  (* snapshot ladder: newest checksum-valid snapshot, else the older
     one, else cold start (the caller falls back to a leader SNAP) *)
  let rec pick_snap fallback = function
    | [] -> (None, 0L, fallback)
    | s :: rest ->
      if not s.s_rotted then (Some s.s_image, s.s_zxid, fallback)
      else begin
        t.snap_fallbacks <- t.snap_fallbacks + 1;
        pick_snap true rest
      end
  in
  let snap_image, snap_zxid, snap_fallback = pick_snap false t.snaps in
  if Option.is_some snap_image then t.snap_loads <- t.snap_loads + 1;
  (* replay = contiguous records in (snap_zxid, frontier]; a gap means
     lost records (truncated tail or pruned-under-corrupt-snapshots) —
     stop there, the leader diff-sync supplies the rest *)
  let rec split_replay acc expect = function
    | [] -> (List.rev acc, [])
    | r :: rest ->
      if r.r_entry.e_zxid <= snap_zxid then split_replay acc expect rest
      else if r.r_entry.e_zxid > t.frontier then (List.rev acc, r :: rest)
      else if r.r_entry.e_zxid = expect then
        split_replay (r :: acc) (Int64.add expect 1L) rest
      else (List.rev acc, [])
  in
  let replay_recs, rest = split_replay [] (Int64.add snap_zxid 1L) eff in
  (* the uncommitted tail is usable only if it continues the replayed
     prefix without a hole *)
  let replay_end =
    match List.rev replay_recs with
    | last :: _ -> last.r_entry.e_zxid
    | [] -> snap_zxid
  in
  let rec take_tail acc expect = function
    | [] -> List.rev acc
    | r :: rest ->
      if r.r_entry.e_zxid = expect then
        take_tail (r :: acc) (Int64.add expect 1L) rest
      else List.rev acc
  in
  let tail_recs =
    if replay_end = t.frontier then
      take_tail [] (Int64.add t.frontier 1L)
        (List.filter (fun r -> r.r_entry.e_zxid > t.frontier) rest)
    else []
  in
  let log_end =
    match List.rev eff with
    | last :: _ -> (last.r_epoch, last.r_entry.e_zxid)
    | [] -> (t.epoch, snap_zxid)
  in
  t.replayed <- t.replayed + List.length replay_recs;
  { rc_snapshot = snap_image;
    rc_snap_zxid = snap_zxid;
    rc_replay = List.map (fun r -> r.r_entry) replay_recs;
    rc_tail = List.map (fun r -> r.r_entry) tail_recs;
    rc_log_end = log_end;
    rc_truncated = bad;
    rc_replayed = List.length replay_recs;
    rc_snap_fallback = snap_fallback }

(* {2 Introspection} *)

let records t = List.length t.records
let snapshots t = List.length t.snaps
let appended t = t.appended
let replayed t = t.replayed
let truncated t = t.truncated
let tail_dropped t = t.tail_dropped
let snap_loads t = t.snap_loads
let snap_fallbacks t = t.snap_fallbacks

(* Highest zxid whose record has completed its device write at [now]
   and verifies — "what would survive a power failure right now". *)
let durable_zxid t ~now =
  List.fold_left
    (fun acc r ->
      if r.r_done <= now && record_valid r then Int64.max acc r.r_entry.e_zxid
      else acc)
    (last_snapshot_zxid t) t.records
