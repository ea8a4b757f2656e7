(* Per-server stable storage: an append-only transaction log of
   checksummed records plus periodic tree snapshots, modeled by what is
   on the platter at any instant, so a crash is answered with the
   disk's truth instead of the dead process's RAM (DESIGN.md §12 has
   the record layout, the durability points and the pruning invariant).

   A record is readable iff its checksum matches: a crash mid-append
   leaves the in-flight record torn, and bit-rot flips payload bytes
   under an unchanged checksum. Recovery walks the log in append order,
   stops at the first unreadable record, and un-does zxid rewinds: a
   later record whose zxid is not above its predecessor's marks an
   epoch change that overwrote the old uncommitted suffix (TRUNC).

   The log is fsync rows over the shared entries. A record's entry is
   the leader's one [entry] value, held in a zxid window; a group
   commit's appends share one (epoch, start, done) and ascending zxids,
   so each fsync is one row of unboxed ints and floats, in chunks of
   [chunk] rows that are never copied as the log grows. A record is
   named by its zxid and the count of records of that zxid before it:
   only a rewind logs a zxid twice, and the entry it supersedes moves
   to [stale]. Fault marks, not bytes: the torn and rotted records'
   names are kept instead of their bytes, and [corrupt] still picks its
   victims by the MD5 of each record's [encode]. Faults, power-off and
   recovery read the log as a [record] list built from the rows and
   write their result back as rows. A snapshot keeps the tree's
   immutable image ([Ztree.capture]) and a rot mark. *)

type rid = {
  rsession : int64;
  rcxid : int64;
}

type entry = {
  e_zxid : int64;
  e_txn : Txn.t;
  e_time : float;
  e_rid : rid;
  e_close : int64 option;
}

(* One record as the rows describe it; built on demand, never kept. *)
type record = {
  r_entry : entry;
  r_epoch : int;
  r_start : float; (* device write issued *)
  r_done : float; (* device write (incl. fsync) complete *)
  r_torn : bool; (* partially written: crash mid-append *)
  r_rotted : bool; (* one payload byte flipped by bit-rot *)
}

type snapshot = {
  s_zxid : int64;
  s_epoch : int;
  s_image : Ztree.image; (* the tree at [s_zxid] *)
  mutable s_rotted : bool; (* one payload byte flipped by bit-rot *)
}

(* Record names: (zxid, records of that zxid before it). *)
module Names = Set.Make (struct type t = int64 * int let compare = compare end)

type t = {
  entries : entry Zxid_tbl.t; (* the newest record's entry per zxid *)
  mutable stale : (int64 * int * entry) list; (* superseded records, by name *)
  mutable rows : int; (* fsyncs in the log, in append order *)
  mutable ints : int array array; (* chunks; per row: epoch, lowest zxid, highest zxid *)
  mutable times : Float.Array.t array; (* chunks; per row: write issued, fsync done *)
  mutable torn : Names.t;
  mutable rotted : Names.t;
  mutable snaps : snapshot list; (* newest first; at most two kept *)
  mutable frontier : int64; (* durable apply marker *)
  mutable epoch : int; (* durable epoch stamp *)
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
  { entries = Zxid_tbl.create 256; stale = []; rows = 0; ints = [||];
    times = [||]; torn = Names.empty; rotted = Names.empty;
    snaps = []; frontier = 0L; epoch = 0; stalled_until = 0.; fsync_extra = 0.;
    appended = 0; replayed = 0; truncated = 0; tail_dropped = 0; snap_loads = 0;
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
  field b (Int64.to_string e.e_rid.rsession);
  field b (Int64.to_string e.e_rid.rcxid);
  field b (match e.e_close with None -> "-" | Some o -> Int64.to_string o);
  field b (string_of_int (List.length e.e_txn));
  Buffer.add_char b '\n';
  List.iter (enc_op b) e.e_txn;
  Buffer.contents b

(* {2 Rows} *)

let chunk = 64
let row_epoch t i = t.ints.(i / chunk).(3 * (i mod chunk))
let row_lo t i = t.ints.(i / chunk).((3 * (i mod chunk)) + 1)
let row_hi t i = t.ints.(i / chunk).((3 * (i mod chunk)) + 2)
let row_start t i = Float.Array.get t.times.(i / chunk) (2 * (i mod chunk))
let row_done t i = Float.Array.get t.times.(i / chunk) ((2 * (i mod chunk)) + 1)

let set_row t i ~epoch ~lo ~hi ~start ~done_at =
  let c = i / chunk and j = i mod chunk in
  if c = Array.length t.ints then begin
    t.ints <- Array.append t.ints (Array.make (max 4 c) [||]);
    t.times <- Array.append t.times (Array.make (max 4 c) (Float.Array.create 0))
  end;
  if Array.length t.ints.(c) = 0 then begin
    t.ints.(c) <- Array.make (3 * chunk) 0;
    t.times.(c) <- Float.Array.make (2 * chunk) 0.
  end;
  let ints = t.ints.(c) and times = t.times.(c) in
  ints.(3 * j) <- epoch;
  ints.((3 * j) + 1) <- lo;
  ints.((3 * j) + 2) <- hi;
  Float.Array.set times (2 * j) start;
  Float.Array.set times ((2 * j) + 1) done_at

(* Log one record and return its name: extend the newest row when the
   record shares its fsync and continues its zxids, else open a row. *)
let push t ~epoch ~start ~done_at (e : entry) =
  let k =
    match Zxid_tbl.find_opt t.entries e.e_zxid with
    | None -> 0
    | Some older ->
      let k = List.length (List.filter (fun (z, _, _) -> z = e.e_zxid) t.stale) in
      t.stale <- (e.e_zxid, k, older) :: t.stale;
      k + 1
  in
  Zxid_tbl.replace t.entries e.e_zxid e;
  let n = t.rows and z = Int64.to_int e.e_zxid in
  if
    n > 0
    && row_hi t (n - 1) = z - 1
    && row_epoch t (n - 1) = epoch
    && row_start t (n - 1) = start
    && row_done t (n - 1) = done_at
  then set_row t (n - 1) ~epoch ~lo:(row_lo t (n - 1)) ~hi:z ~start ~done_at
  else begin
    set_row t n ~epoch ~lo:z ~hi:z ~start ~done_at;
    t.rows <- n + 1
  end;
  (e.e_zxid, k)

(* The log in append order, one [record] per record. *)
let records_of t =
  let seen = Hashtbl.create 16 and acc = ref [] in
  for i = 0 to t.rows - 1 do
    for z = row_lo t i to row_hi t i do
      let zxid = Int64.of_int z in
      let k = Option.value ~default:0 (Hashtbl.find_opt seen zxid) in
      if t.stale <> [] then Hashtbl.replace seen zxid (k + 1);
      let entry =
        match List.find_opt (fun (z, k', _) -> z = zxid && k' = k) t.stale with
        | Some (_, _, e) -> e
        | None -> Option.get (Zxid_tbl.find_opt t.entries zxid)
      in
      acc :=
        { r_entry = entry; r_epoch = row_epoch t i; r_start = row_start t i;
          r_done = row_done t i; r_torn = Names.mem (zxid, k) t.torn;
          r_rotted = Names.mem (zxid, k) t.rotted }
        :: !acc
    done
  done;
  List.rev !acc

(* Replace the log with [recs], in that order, marks included; the
   row chunks are kept and written over. *)
let rebuild t recs =
  Zxid_tbl.reset t.entries;
  t.stale <- [];
  t.rows <- 0;
  t.torn <- Names.empty;
  t.rotted <- Names.empty;
  List.iter
    (fun r ->
      let name = push t ~epoch:r.r_epoch ~start:r.r_start ~done_at:r.r_done r.r_entry in
      if r.r_torn then t.torn <- Names.add name t.torn;
      if r.r_rotted then t.rotted <- Names.add name t.rotted)
    recs

(* {2 Appending} *)

let entry_at t zxid = Zxid_tbl.find_opt t.entries zxid

(* The newest record of a zxid lies in the newest row that spans it. *)
let epoch_at t zxid =
  if not (Zxid_tbl.mem t.entries zxid) then None
  else begin
    let z = Int64.to_int zxid and i = ref (t.rows - 1) in
    while row_lo t !i > z || row_hi t !i < z do decr i done;
    Some (row_epoch t !i)
  end

let append t ~epoch ~start ~done_at entry =
  ignore (push t ~epoch ~start ~done_at entry : Names.elt);
  t.appended <- t.appended + 1

let note_commit t zxid = if zxid > t.frontier then t.frontier <- zxid
let note_epoch t epoch = if epoch > t.epoch then t.epoch <- epoch
let frontier t = t.frontier
let epoch t = t.epoch

(* {2 Snapshots} *)

(* Keep the newest two snapshots (the older one is the bit-rot fallback)
   and prune log records at or below the older snapshot's zxid: recovery
   never replays below the snapshot it loads. The cut is by zxid, so
   every record of a pruned zxid (of any epoch) goes and every record of
   a kept zxid stays, its name too: rows are clipped in place. *)
let snapshot t ~zxid ~epoch image =
  let s = { s_zxid = zxid; s_epoch = epoch; s_image = image; s_rotted = false } in
  match t.snaps with
  | [] -> t.snaps <- [ s ]
  | older :: _ ->
    t.snaps <- [ s; older ];
    let floor = older.s_zxid and kept = ref 0 in
    let f = Int64.to_int floor in
    for i = 0 to t.rows - 1 do
      if row_hi t i > f then begin
        set_row t !kept ~epoch:(row_epoch t i) ~lo:(max (f + 1) (row_lo t i))
          ~hi:(row_hi t i) ~start:(row_start t i) ~done_at:(row_done t i);
        incr kept
      end
    done;
    t.rows <- !kept;
    Option.iter
      (fun lo -> for z = Int64.to_int lo to f do Zxid_tbl.remove t.entries (Int64.of_int z) done)
      (Zxid_tbl.min_key t.entries);
    t.stale <- List.filter (fun (z, _, _) -> z > floor) t.stale;
    t.torn <- Names.filter (fun (z, _) -> z > floor) t.torn;
    t.rotted <- Names.filter (fun (z, _) -> z > floor) t.rotted

let last_snapshot_zxid t = match t.snaps with [] -> 0L | s :: _ -> s.s_zxid

(* A leader-installed snapshot (SNAP state transfer) supersedes the
   whole local log: everything at or below it is captured by the
   snapshot, everything above it is a stale suffix the leader has
   overruled (ZooKeeper's TRUNC). *)
let install_snapshot t ~zxid ~epoch image =
  rebuild t [];
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
  match List.rev (records_of t) with
  | [] -> false
  | newest :: older ->
    rebuild t (List.rev ({ newest with r_torn = true } :: older));
    true

(* Deterministic bit-rot: each record decays iff a hash of its
   as-appended checksum falls under [fraction] — reproducible across
   runs (no RNG draw), yet spread pseudo-randomly over the log. The
   flipped byte sits mid-payload, so the record parses identically but
   fails verification; flipping it again restores the bytes. *)
let corrupt t ~fraction =
  let threshold = int_of_float (fraction *. 65536.) and hit = ref 0 in
  let rot r =
    let sum = Md5.digest (encode ~epoch:r.r_epoch r.r_entry) in
    if Md5.to_int sum land 0xFFFF >= threshold then r
    else begin
      incr hit;
      { r with r_rotted = not r.r_rotted }
    end
  in
  rebuild t (List.map rot (records_of t));
  !hit

let corrupt_snapshot t =
  match t.snaps with
  | [] -> false
  | s :: _ -> s.s_rotted <- not s.s_rotted; true

(* {2 Crash} *)

(* Power-off at [now]: appends whose device write had not completed are
   lost — fully (never issued, or issued and still queued behind an
   earlier write) or torn (the fsync on the platter when the power
   died), and the torn ones move behind the kept ones. Done times are
   not monotone in the log (a state transfer installs records done at
   once, after appends still in flight), so this is no cut at an end. *)
let power_off t ~now =
  let keep, gone = List.partition (fun r -> r.r_done <= now || r.r_torn) (records_of t) in
  if gone <> [] then begin
    let torn, dropped = List.partition (fun r -> r.r_start < now) gone in
    t.tail_dropped <- t.tail_dropped + List.length dropped;
    rebuild t (keep @ List.map (fun r -> { r with r_torn = true }) torn)
  end

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

(* The longest hole-free run of [recs] (ascending) from zxid [from],
   cut where [keep] fails. *)
let rec contiguous ~keep from = function
  | r :: rest when r.r_entry.e_zxid = from && keep r ->
    r :: contiguous ~keep (Int64.add from 1L) rest
  | _ -> []

let recover t =
  (* the readable prefix: everything before the first torn or rotten
     record; the physical log is truncated to it too, as a real
     recovery rewrites the file up to the last readable record *)
  let rec readable acc = function
    | r :: rest when record_valid r -> readable (r :: acc) rest
    | rest -> (List.rev acc, List.length rest)
  in
  let prefix, bad = readable [] (records_of t) in
  t.truncated <- t.truncated + bad;
  if bad > 0 then rebuild t prefix;
  (* resolve zxid rewinds: a record pops every record at or above its
     zxid, leaving the effective log, ascending *)
  let rec pop z = function
    | top :: below when top.r_entry.e_zxid >= z -> pop z below
    | eff -> eff
  in
  let eff = List.rev (List.fold_left (fun eff r -> r :: pop r.r_entry.e_zxid eff) [] prefix) in
  (* snapshot ladder: newest checksum-valid snapshot, else the older
     one, else cold start (the caller falls back to a leader SNAP) *)
  let rec ladder skipped = function
    | s :: rest when s.s_rotted -> ladder (skipped + 1) rest
    | s :: _ -> (Some s.s_image, s.s_zxid, skipped)
    | [] -> (None, 0L, skipped)
  in
  let snap_image, snap_zxid, skipped = ladder 0 t.snaps in
  t.snap_fallbacks <- t.snap_fallbacks + skipped;
  if Option.is_some snap_image then t.snap_loads <- t.snap_loads + 1;
  (* replay = contiguous records in (snap_zxid, frontier]; a gap means
     lost records (truncated tail or pruned-under-corrupt-snapshots) —
     stop there, the leader diff-sync supplies the rest. The
     uncommitted tail is usable only if it continues the replay. *)
  let above z = List.filter (fun r -> r.r_entry.e_zxid > z) eff in
  let replay =
    contiguous ~keep:(fun r -> r.r_entry.e_zxid <= t.frontier)
      (Int64.add snap_zxid 1L) (above snap_zxid)
  in
  let replay_end = List.fold_left (fun _ r -> r.r_entry.e_zxid) snap_zxid replay in
  let tail =
    if replay_end <> t.frontier then []
    else contiguous ~keep:(fun _ -> true) (Int64.add t.frontier 1L) (above t.frontier)
  in
  let log_end =
    List.fold_left (fun _ r -> (r.r_epoch, r.r_entry.e_zxid)) (t.epoch, snap_zxid) eff
  in
  let replayed = List.length replay in
  t.replayed <- t.replayed + replayed;
  { rc_snapshot = snap_image;
    rc_snap_zxid = snap_zxid;
    rc_replay = List.map (fun r -> r.r_entry) replay;
    rc_tail = List.map (fun r -> r.r_entry) tail;
    rc_log_end = log_end;
    rc_truncated = bad;
    rc_replayed = replayed;
    rc_snap_fallback = skipped > 0 }

(* {2 Introspection} *)

(* each record is its zxid's newest or a stale one *)
let records t = Zxid_tbl.length t.entries + List.length t.stale

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
    (fun acc r -> if r.r_done <= now && record_valid r then Int64.max acc r.r_entry.e_zxid else acc)
    (last_snapshot_zxid t) (records_of t)
