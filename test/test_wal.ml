(* Tests for the stable-storage model (Zk.Wal) and crash-consistent
   ensemble recovery built on it: power-off keeps exactly what the
   device finished (the in-flight record torn), recovery truncates at
   the first bad checksum, corrupt snapshots fall back down the ladder,
   and — the two regression scenarios this PR exists for — a crash must
   drop a pipelined leader's un-fsynced suffix, and a whole-cluster
   power failure must be survivable from local disks alone. *)

module Engine = Simkit.Engine
module Process = Simkit.Process
module Ensemble = Zk.Ensemble
module Wal = Zk.Wal
module Txn = Zk.Txn
module Ztree = Zk.Ztree
module Zerror = Zk.Zerror
module Zk_client = Zk.Zk_client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected %s" label (Zerror.to_string e)

let make ?(servers = 3) ?(config_adjust = Fun.id) () =
  let engine = Engine.create () in
  let cfg = config_adjust (Ensemble.default_config ~servers) in
  (engine, Ensemble.start engine cfg)

(* {2 The log model alone} *)

let entry z =
  { Wal.e_zxid = z;
    e_txn =
      [ Txn.Create
          { path = Printf.sprintf "/n%Ld" z; data = Printf.sprintf "d%Ld" z;
            ephemeral_owner = 0L; sequential = false } ];
    e_time = 0.;
    e_rsession = 1L;
    e_rcxid = z;
    e_close = None }

(* The record payload is the checksummed on-disk format: its bytes, and
   so every checksum and every deterministic bit-rot pick, must not move.
   Pinned over each op kind (ephemeral and sequential creates included),
   a negative time and a session close. *)
let test_encode_golden_bytes () =
  let e1 =
    { Wal.e_zxid = 0x1_0000_002aL;
      e_txn =
        [ Txn.Create
            { path = "/dufs/a"; data = "v1|d|755|0|"; ephemeral_owner = 0L;
              sequential = false };
          Txn.Create
            { path = "/locks/l-"; data = ""; ephemeral_owner = 0x5eedL;
              sequential = true };
          Txn.Delete { path = "/dufs/old"; expected_version = -1 };
          Txn.Set_data { path = "/dufs/a"; data = "x y\nz"; expected_version = 3 };
          Txn.Check { path = "/dufs"; expected_version = 0 } ];
      e_time = 1.5;
      e_rsession = 7L;
      e_rcxid = 12L;
      e_close = None }
  in
  let e2 =
    { Wal.e_zxid = 9L; e_txn = []; e_time = -0.25; e_rsession = -3L; e_rcxid = 0L;
      e_close = Some 42L }
  in
  check_string "ops record"
    "W1 3 4294967338 3ff8000000000000 7 12 - 5\n\
     C 7:/dufs/a 11:v1|d|755|0| 0 0\n\
     C 9:/locks/l- 0: 24301 1\n\
     D 9:/dufs/old -1\n\
     S 7:/dufs/a 5:x y\nz 3\n\
     K 5:/dufs 0\n"
    (Wal.encode ~epoch:3 e1);
  check_string "close record" "W1 0 9 bfd0000000000000 -3 0 42 0\n"
    (Wal.encode ~epoch:0 e2)

let replay_zxids r = List.map (fun e -> e.Wal.e_zxid) r.Wal.rc_replay

(* Distinct snapshot images: the tree holding one node, created at [z]. *)
let tree_at z =
  let tree = Ztree.create () in
  ignore
    (ok_or_fail "tree_at"
       (Ztree.apply tree ~zxid:z ~time:0. (entry z).Wal.e_txn));
  Ztree.capture tree

let tree_at_3 = tree_at 3L
let tree_at_5 = tree_at 5L
let tree_at_8 = tree_at 8L
let empty_image = Ztree.capture (Ztree.create ())

let test_power_off_drops_unfsynced_tail () =
  let w = Wal.create () in
  (* four appends: two fsynced by t=0.3, one mid-write (torn), one still
     queued behind it (dropped outright) *)
  Wal.append w ~epoch:1 ~start:0.00 ~done_at:0.10 (entry 1L);
  Wal.append w ~epoch:1 ~start:0.10 ~done_at:0.20 (entry 2L);
  Wal.append w ~epoch:1 ~start:0.25 ~done_at:0.35 (entry 3L);
  Wal.append w ~epoch:1 ~start:0.32 ~done_at:0.45 (entry 4L);
  Wal.note_commit w 2L;
  check_bool "durable zxid before the cut" true (Wal.durable_zxid w ~now:0.3 = 2L);
  Wal.power_off w ~now:0.3;
  check_int "queued append dropped outright" 1 (Wal.tail_dropped w);
  let r = Wal.recover w in
  check_int "torn in-flight record truncated" 1 r.Wal.rc_truncated;
  check_bool "replay is the committed fsynced prefix" true
    (replay_zxids r = [ 1L; 2L ]);
  check_bool "no uncommitted tail survives the tear" true (r.Wal.rc_tail = []);
  check_bool "log end is the durable prefix" true (snd r.Wal.rc_log_end = 2L)

let test_truncate_at_first_bad_checksum () =
  let w = Wal.create () in
  for i = 1 to 20 do
    let t = float_of_int i *. 0.01 in
    Wal.append w ~epoch:1 ~start:t ~done_at:(t +. 0.005) (entry (Int64.of_int i))
  done;
  Wal.note_commit w 20L;
  let rotted = Wal.corrupt w ~fraction:0.5 in
  check_bool "bit-rot hit at least one record" true (rotted >= 1);
  let r = Wal.recover w in
  check_int "every record is replayed or truncated" 20
    (r.Wal.rc_replayed + List.length r.Wal.rc_tail + r.Wal.rc_truncated);
  (* truncate-at-first-bad: what survives is a contiguous prefix *)
  check_bool "replay is a contiguous prefix from zxid 1" true
    (replay_zxids r
     = List.init r.Wal.rc_replayed (fun i -> Int64.of_int (i + 1)));
  check_bool "nothing past the first bad checksum survives" true
    (r.Wal.rc_replayed < 20 && r.Wal.rc_truncated >= 1)

let test_full_rot_is_a_cold_start () =
  let w = Wal.create () in
  for i = 1 to 10 do
    Wal.append w ~epoch:1 ~start:0. ~done_at:0. (entry (Int64.of_int i))
  done;
  Wal.note_commit w 10L;
  check_int "every record rots at fraction 1" 10 (Wal.corrupt w ~fraction:1.);
  let r = Wal.recover w in
  check_int "nothing replayable" 0 r.Wal.rc_replayed;
  check_int "whole log truncated" 10 r.Wal.rc_truncated;
  check_bool "no snapshot to stand on" true (r.Wal.rc_snapshot = None)

let test_snapshot_fallback_ladder () =
  let w = Wal.create () in
  for i = 1 to 10 do
    Wal.append w ~epoch:1 ~start:0. ~done_at:0. (entry (Int64.of_int i))
  done;
  Wal.note_commit w 10L;
  Wal.snapshot w ~zxid:5L ~epoch:1 tree_at_5;
  Wal.snapshot w ~zxid:8L ~epoch:1 tree_at_8;
  check_int "log pruned below the older snapshot" 5 (Wal.records w);
  check_bool "newest snapshot corrupted" true (Wal.corrupt_snapshot w);
  let r = Wal.recover w in
  check_bool "fell back to the older snapshot" true r.Wal.rc_snap_fallback;
  check_bool "older snapshot loaded" true (r.Wal.rc_snapshot = Some tree_at_5);
  check_bool "snapshot zxid is the fallback's" true (r.Wal.rc_snap_zxid = 5L);
  check_bool "replay covers (5, 10] from the surviving log" true
    (replay_zxids r = [ 6L; 7L; 8L; 9L; 10L ]);
  check_int "fallback counted" 1 (Wal.snap_fallbacks w)

let test_double_recover_is_idempotent () =
  let w = Wal.create () in
  for i = 1 to 12 do
    Wal.append w ~epoch:1 ~start:0. ~done_at:0. (entry (Int64.of_int i))
  done;
  Wal.note_commit w 12L;
  ignore (Wal.corrupt w ~fraction:0.5);
  let r1 = Wal.recover w in
  let r2 = Wal.recover w in
  check_int "second recovery truncates nothing new" 0 r2.Wal.rc_truncated;
  check_bool "same replay both times" true
    (replay_zxids r1 = replay_zxids r2);
  check_bool "same log end both times" true (r1.Wal.rc_log_end = r2.Wal.rc_log_end)

let test_zxid_rewind_is_trunc () =
  (* an epoch-2 record re-proposing zxid 4 overwrites epoch 1's
     uncommitted 4..5 suffix — recovery must pop the stale tail *)
  let w = Wal.create () in
  for i = 1 to 5 do
    Wal.append w ~epoch:1 ~start:0. ~done_at:0. (entry (Int64.of_int i))
  done;
  Wal.append w ~epoch:2 ~start:0. ~done_at:0. (entry 4L);
  Wal.note_commit w 4L;
  Wal.note_epoch w 2;
  let r = Wal.recover w in
  check_bool "replay ends at the epoch-2 rewrite" true
    (replay_zxids r = [ 1L; 2L; 3L; 4L ]);
  check_bool "log end reflects the new epoch" true (r.Wal.rc_log_end = (2, 4L));
  check_bool "the re-proposed record wins its zxid" true
    (Wal.epoch_at w 4L = Some 2)

(* {2 Reads do not change what the disk holds}

   Each scenario runs twice: on a log whose every record was read back
   ([durable_zxid]) as soon as it was appended, and on a log never read
   before the fault. Both must select, verify and recover exactly the
   same records, and rot must pick the records an MD5 of their encoded
   bytes picks. *)

(* Varied entries: multi-op, sets, closes and non-zero times, so the
   payloads (and their checksums) differ in more than the zxid. *)
let varied_entry z =
  let i = Int64.to_int z in
  { Wal.e_zxid = z;
    e_txn =
      (if i mod 3 = 0 then
         [ Txn.Set_data
             { path = Printf.sprintf "/d%d" (i / 3); data = String.make (i mod 7) 'x';
               expected_version = -1 } ]
       else
         [ Txn.Create
             { path = Printf.sprintf "/n%d" i; data = Printf.sprintf "v1|f|%d" i;
               ephemeral_owner = Int64.of_int (i mod 2); sequential = i mod 5 = 0 };
           Txn.Check { path = "/"; expected_version = -1 } ]);
    e_time = float_of_int i *. 0.125;
    e_rsession = Int64.of_int (1 + (i mod 4));
    e_rcxid = z;
    e_close = (if i mod 11 = 0 then Some 3L else None) }

(* Record [i] (zxid [i]) finishes its device write at [float i]. *)
let fill ~eager ?(epoch = fun _ -> 1) n =
  let w = Wal.create () in
  for i = 1 to n do
    let z = Int64.of_int i in
    Wal.append w ~epoch:(epoch i) ~start:(float_of_int i -. 0.5)
      ~done_at:(float_of_int i) (varied_entry z);
    if eager then ignore (Wal.durable_zxid w ~now:infinity : int64)
  done;
  w

(* Which records verify: record [i] does iff the durable frontier at its
   own completion time reaches it. *)
let valid_records w n =
  List.init n (fun k -> Wal.durable_zxid w ~now:(float_of_int (k + 1)) = Int64.of_int (k + 1))

let test_corrupt_same_records () =
  let n = 200 and fraction = 0.3 in
  let eager = fill ~eager:true n and lazy_ = fill ~eager:false n in
  let hit_eager = Wal.corrupt eager ~fraction in
  let hit_lazy = Wal.corrupt lazy_ ~fraction in
  check_int "same number of records rotted" hit_eager hit_lazy;
  check_bool "bit-rot hit some but not all" true (hit_lazy > 0 && hit_lazy < n);
  (* the selection is the one an eager checksum of the encoded bytes makes *)
  let threshold = int_of_float (fraction *. 65536.) in
  let expected =
    List.init n (fun k ->
        let sum = Zk.Md5.digest (Wal.encode ~epoch:1 (varied_entry (Int64.of_int (k + 1)))) in
        not (Zk.Md5.to_int sum land 0xFFFF < threshold))
  in
  Alcotest.(check (list bool)) "eager-read log rots the checksum-selected records"
    expected (valid_records eager n);
  Alcotest.(check (list bool)) "never-read log rots the same records" expected
    (valid_records lazy_ n)

let test_tear_never_read_record () =
  let w = fill ~eager:false 3 in
  Wal.note_commit w 3L;
  check_bool "tail torn" true (Wal.tear_tail w);
  check_bool "torn record is not durable" true (Wal.durable_zxid w ~now:infinity = 2L);
  let r = Wal.recover w in
  check_int "torn record fails verification" 1 r.Wal.rc_truncated;
  check_bool "replay stops before it" true (replay_zxids r = [ 1L; 2L ])

let test_recover_same_for_eager_and_lazy () =
  (* epoch 2 rewrites zxids 9.. over an uncommitted suffix; a snapshot
     prunes the front; power-off tears one record and drops another;
     bit-rot lands in the middle *)
  let scenario ~eager =
    let w = fill ~eager ~epoch:(fun i -> if i <= 10 then 1 else 2) 10 in
    Wal.snapshot w ~zxid:3L ~epoch:1 tree_at_3;
    Wal.snapshot w ~zxid:5L ~epoch:1 tree_at_5;
    for i = 9 to 16 do
      Wal.append w ~epoch:2 ~start:(10. +. float_of_int i)
        ~done_at:(10.5 +. float_of_int i) (varied_entry (Int64.of_int i));
      if eager then ignore (Wal.durable_zxid w ~now:infinity : int64)
    done;
    Wal.note_epoch w 2;
    Wal.note_commit w 14L;
    let rotted = Wal.corrupt w ~fraction:0.05 in
    Wal.power_off w ~now:26.2;
    (rotted, Wal.recover w, Wal.records w, Wal.durable_zxid w ~now:infinity)
  in
  let rotted_e, r_e, n_e, d_e = scenario ~eager:true in
  let rotted_l, r_l, n_l, d_l = scenario ~eager:false in
  check_int "same rot" rotted_e rotted_l;
  check_bool "same recovered result" true (r_e = r_l);
  check_int "same surviving records" n_e n_l;
  check_bool "same durable frontier" true (d_e = d_l);
  check_bool "the scenario replays and truncates" true
    (r_l.Wal.rc_replayed > 0 && r_l.Wal.rc_truncated > 0)

let test_corrupt_snapshot_same_ladder () =
  let scenario ~read_first =
    let w = fill ~eager:false 10 in
    Wal.note_commit w 10L;
    Wal.snapshot w ~zxid:5L ~epoch:1 tree_at_5;
    Wal.snapshot w ~zxid:8L ~epoch:1 tree_at_8;
    if read_first then begin
      let r = Wal.recover w in
      check_bool "clean read loads the newest snapshot" true
        (r.Wal.rc_snapshot = Some tree_at_8)
    end;
    check_bool "newest snapshot corrupted" true (Wal.corrupt_snapshot w);
    Wal.recover w
  in
  let r_read = scenario ~read_first:true and r_never = scenario ~read_first:false in
  check_bool "never-read snapshot falls back" true
    (r_never.Wal.rc_snap_fallback && r_never.Wal.rc_snapshot = Some tree_at_5);
  check_bool "same ladder either way" true (r_read = r_never);
  (* the same ladder over real tree images, taken the way the ensemble
     takes them, while the tree keeps changing after each snapshot *)
  let tree_scenario ~read_first =
    let w = Wal.create () and tree = Ztree.create () in
    let serialized = ref [] in
    for i = 1 to 10 do
      let e = entry (Int64.of_int i) in
      Wal.append w ~epoch:1 ~start:0. ~done_at:0. e;
      ignore (ok_or_fail "apply" (Ztree.apply tree ~zxid:e.Wal.e_zxid ~time:0. e.Wal.e_txn));
      if i = 5 || i = 8 then begin
        let img = Ztree.capture tree in
        Wal.snapshot w ~zxid:e.Wal.e_zxid ~epoch:1 img;
        serialized := (i, Ztree.serialize tree) :: !serialized
      end
    done;
    Wal.note_commit w 10L;
    if read_first then begin
      let r = Wal.recover w in
      check_bool "clean read loads the tree at 8" true
        (Option.map Ztree.encode r.Wal.rc_snapshot = Some (List.assoc 8 !serialized))
    end;
    check_bool "newest tree image corrupted" true (Wal.corrupt_snapshot w);
    (Wal.recover w, List.assoc 5 !serialized)
  in
  let r_read, at5 = tree_scenario ~read_first:true in
  let r_never, _ = tree_scenario ~read_first:false in
  check_bool "never-read tree image falls back to the tree at 5" true
    (r_never.Wal.rc_snap_fallback
     && Option.map Ztree.encode r_never.Wal.rc_snapshot = Some at5);
  check_bool "same tree ladder either way" true (r_read = r_never)

(* {2 Incremental index pruning}

   A snapshot prunes the zxid index in place instead of rebuilding it.
   Random logs of appends, snapshots, power-offs and epoch rewinds are
   checked after every step against a model: for every zxid, the index
   must name the newest surviving record, exactly what a rebuild from
   the surviving log would give. Writes are serialised on the device, so
   completion times rise in append order and the newest records are the
   ones a power-off cuts. *)

type index_step = Append | Snapshot | Power_off of int | Rewind of int

let prop_index_matches_rebuild =
  let gen_step =
    QCheck2.Gen.(
      frequency
        [ (6, pure Append);
          (2, pure Snapshot);
          (1, map (fun k -> Power_off k) (int_range 0 3));
          (1, map (fun k -> Rewind k) (int_range 0 4)) ])
  in
  QCheck2.Test.make ~name:"zxid index = rebuild from the surviving log after every step"
    ~count:300 QCheck2.Gen.(list_size (int_range 1 80) gen_step)
    (fun steps ->
      let w = Wal.create () in
      (* model log, newest first: (zxid, epoch, done_at, entry) *)
      let log = ref [] and snaps = ref [] in
      let epoch = ref 1 and next = ref 1L and clock = ref 0. and seq = ref 0L in
      let append () =
        seq := Int64.add !seq 1L;
        let e = { (entry !next) with Wal.e_rcxid = !seq } in
        let start = !clock in
        clock := start +. 1.;
        Wal.append w ~epoch:!epoch ~start ~done_at:!clock e;
        log := (!next, !epoch, !clock, e) :: !log;
        next := Int64.add !next 1L
      in
      let step = function
        | Append -> append ()
        | Snapshot ->
          let zxid = Int64.sub !next 1L in
          Wal.snapshot w ~zxid ~epoch:!epoch empty_image;
          (match !snaps with
           | older :: _ -> log := List.filter (fun (z, _, _, _) -> z > older) !log
           | [] -> ());
          snaps := zxid :: !snaps
        | Power_off k ->
          (* cut [k] writes before the end: the newest is torn in flight
             (it stays in the log, unreadable), the rest never started *)
          let now = !clock -. float_of_int k -. 0.5 in
          Wal.power_off w ~now;
          log := List.filter (fun (_, _, d, _) -> d -. 1. < now) !log;
          clock := !clock +. 10.
        | Rewind k ->
          (* a new epoch re-proposes from [k] zxids back *)
          incr epoch;
          next := Int64.max 1L (Int64.sub !next (Int64.of_int k));
          append ()
      in
      let newest z = List.find_opt (fun (z', _, _, _) -> z' = z) !log in
      let agrees () =
        List.for_all
          (fun i ->
            let z = Int64.of_int i in
            match newest z with
            | None -> Wal.entry_at w z = None && Wal.epoch_at w z = None
            | Some (_, ep, _, e) -> Wal.entry_at w z = Some e && Wal.epoch_at w z = Some ep)
          (List.init (Int64.to_int !next + 1) Fun.id)
      in
      List.for_all (fun s -> step s; agrees ()) steps)

(* {2 Fault marks agree with checksums}

   The log keeps fault marks where a disk keeps bytes. The reference
   below keeps the bytes: each record's [Wal.encode] and the MD5 they
   had when appended, and each snapshot's [Ztree.encode] and its MD5.
   Bit-rot XOR-flips a mid-payload byte, and a record or snapshot
   verifies iff it is not torn and its bytes still hash to their MD5.
   Random runs of appends, epoch rewinds, commits, snapshots,
   power-offs, tears and repeated rot on one log must read back exactly
   what the reference reads back, at every step. *)

type ref_record = {
  rr_entry : Wal.entry;
  rr_epoch : int;
  rr_start : float;
  rr_done : float;
  rr_sum : string;
  rr_bytes : Bytes.t;
  mutable rr_torn : bool;
}

type ref_snap = {
  rs_zxid : int64;
  rs_image : Ztree.image;
  rs_sum : string;
  rs_bytes : Bytes.t;
}

type ref_log = {
  mutable recs : ref_record list; (* newest first *)
  mutable snaps : ref_snap list; (* newest first *)
  mutable frontier : int64;
  mutable depoch : int;
}

let flip b =
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40))

let verifies sum b = Zk.Md5.digest (Bytes.to_string b) = sum
let rr_zxid r = r.rr_entry.Wal.e_zxid
let rr_valid r = (not r.rr_torn) && verifies r.rr_sum r.rr_bytes

let ref_append m ~epoch ~start ~done_at e =
  let bytes = Wal.encode ~epoch e in
  m.recs <-
    { rr_entry = e; rr_epoch = epoch; rr_start = start; rr_done = done_at;
      rr_sum = Zk.Md5.digest bytes; rr_bytes = Bytes.of_string bytes; rr_torn = false }
    :: m.recs

let ref_snapshot m ~zxid img =
  let bytes = Ztree.encode img in
  let s =
    { rs_zxid = zxid; rs_image = img; rs_sum = Zk.Md5.digest bytes;
      rs_bytes = Bytes.of_string bytes }
  in
  match m.snaps with
  | [] -> m.snaps <- [ s ]
  | older :: _ ->
    m.snaps <- [ s; older ];
    m.recs <- List.filter (fun r -> rr_zxid r > older.rs_zxid) m.recs

let ref_corrupt m ~fraction =
  let threshold = int_of_float (fraction *. 65536.) in
  List.fold_left
    (fun hit r ->
      if Zk.Md5.to_int r.rr_sum land 0xFFFF < threshold then begin
        flip r.rr_bytes;
        hit + 1
      end
      else hit)
    0 m.recs

let ref_power_off m ~now =
  let keep, gone = List.partition (fun r -> r.rr_done <= now || r.rr_torn) m.recs in
  let torn = List.filter (fun r -> r.rr_start < now) gone in
  List.iter (fun r -> r.rr_torn <- true) torn;
  m.recs <- torn @ keep

let ref_durable m ~now =
  List.fold_left
    (fun acc r -> if r.rr_done <= now && rr_valid r then Int64.max acc (rr_zxid r) else acc)
    (match m.snaps with [] -> 0L | s :: _ -> s.rs_zxid)
    m.recs

(* The longest run of [rs] (ascending) that starts at zxid [from] and
   has no hole, cut where [keep] fails. *)
let contiguous ~from ~keep rs =
  let rec go expect acc = function
    | r :: rest when rr_zxid r = expect && keep r -> go (Int64.succ expect) (r :: acc) rest
    | _ -> List.rev acc
  in
  go from [] rs

(* What [Wal.recover] returns, from the bytes: the readable prefix, its
   newest record per zxid (a rewind drops everything at or above it),
   the newest snapshot that verifies, the contiguous committed replay
   above it and the contiguous tail above the frontier. *)
let ref_recover m =
  let rec readable acc = function
    | r :: rest when rr_valid r -> readable (r :: acc) rest
    | rest -> (List.rev acc, List.length rest)
  in
  let prefix, bad = readable [] (List.rev m.recs) in
  if bad > 0 then m.recs <- List.rev prefix;
  let eff =
    List.fold_left
      (fun eff r -> List.filter (fun x -> rr_zxid x < rr_zxid r) eff @ [ r ])
      [] prefix
  in
  let snap = List.find_opt (fun s -> verifies s.rs_sum s.rs_bytes) m.snaps in
  let snap_zxid = match snap with Some s -> s.rs_zxid | None -> 0L in
  let above = List.filter (fun r -> rr_zxid r > snap_zxid) eff in
  let replay =
    contiguous ~from:(Int64.succ snap_zxid) ~keep:(fun r -> rr_zxid r <= m.frontier) above
  in
  let replay_end = List.fold_left (fun _ r -> rr_zxid r) snap_zxid replay in
  let tail =
    if replay_end = m.frontier then
      contiguous ~from:(Int64.succ m.frontier) ~keep:(fun _ -> true)
        (List.filter (fun r -> rr_zxid r > m.frontier) above)
    else []
  in
  let log_end =
    match List.rev eff with
    | last :: _ -> (last.rr_epoch, rr_zxid last)
    | [] -> (m.depoch, snap_zxid)
  in
  let entries = List.map (fun r -> r.rr_entry) in
  let fallback =
    match m.snaps with s :: _ -> not (verifies s.rs_sum s.rs_bytes) | [] -> false
  in
  ( entries replay, entries tail, log_end, bad, snap_zxid,
    Option.map (fun s -> s.rs_image) snap, fallback )

type rot_step =
  | R_append
  | R_rewind of int
  | R_commit of int
  | R_snapshot
  | R_power_off of int
  | R_tear
  | R_rot of float
  | R_rot_snapshot
  | R_recover

let prop_marks_match_checksums =
  let gen_step =
    QCheck2.Gen.(
      frequency
        [ (8, pure R_append);
          (1, map (fun k -> R_rewind k) (int_range 0 4));
          (3, map (fun k -> R_commit k) (int_range 0 3));
          (2, pure R_snapshot);
          (1, map (fun k -> R_power_off k) (int_range 0 3));
          (1, pure R_tear);
          (2, map (fun f -> R_rot f) (oneofl [ 0.1; 0.5; 1. ]));
          (1, pure R_rot_snapshot);
          (2, pure R_recover) ])
  in
  QCheck2.Test.make ~name:"recovery from fault marks = recovery from checksummed bytes"
    ~count:300 QCheck2.Gen.(list_size (int_range 1 80) gen_step)
    (fun steps ->
      let w = Wal.create () in
      let m = { recs = []; snaps = []; frontier = 0L; depoch = 0 } in
      let tree = Ztree.create () and tree_zxid = ref 0L in
      let epoch = ref 1 and next = ref 1L and clock = ref 0. in
      let append () =
        let e = { (varied_entry !next) with Wal.e_rcxid = Int64.of_float !clock } in
        let start = !clock in
        clock := start +. 1.;
        Wal.append w ~epoch:!epoch ~start ~done_at:!clock e;
        ref_append m ~epoch:!epoch ~start ~done_at:!clock e;
        next := Int64.succ !next
      in
      let agrees = function
        | R_append -> append (); true
        | R_rewind k ->
          incr epoch;
          Wal.note_epoch w !epoch;
          m.depoch <- !epoch;
          next := Int64.max 1L (Int64.sub !next (Int64.of_int k));
          append ();
          true
        | R_commit k ->
          let z = Int64.sub !next (Int64.of_int (k + 1)) in
          Wal.note_commit w z;
          if z > m.frontier then m.frontier <- z;
          true
        | R_snapshot ->
          (* a tree that takes one more txn per snapshot stands in for
             the replica's *)
          let z = Wal.frontier w in
          if z > Wal.last_snapshot_zxid w then begin
            tree_zxid := Int64.succ !tree_zxid;
            ignore
              (Ztree.apply tree ~zxid:!tree_zxid ~time:0.
                 (varied_entry !tree_zxid).Wal.e_txn);
            let img = Ztree.capture tree in
            Wal.snapshot w ~zxid:z ~epoch:!epoch img;
            ref_snapshot m ~zxid:z img
          end;
          true
        | R_power_off k ->
          let now = !clock -. float_of_int k -. 0.5 in
          Wal.power_off w ~now;
          ref_power_off m ~now;
          clock := !clock +. 10.;
          true
        | R_tear ->
          let torn = Wal.tear_tail w in
          (match m.recs with r :: _ -> r.rr_torn <- true | [] -> ());
          torn = (m.recs <> [])
        | R_rot fraction -> Wal.corrupt w ~fraction = ref_corrupt m ~fraction
        | R_rot_snapshot ->
          let rotted = Wal.corrupt_snapshot w in
          (match m.snaps with s :: _ -> flip s.rs_bytes | [] -> ());
          rotted = (m.snaps <> [])
        | R_recover ->
          let r = Wal.recover w in
          let replay, tail, log_end, bad, snap_zxid, image, fallback = ref_recover m in
          r.Wal.rc_replay = replay && r.Wal.rc_tail = tail
          && r.Wal.rc_log_end = log_end && r.Wal.rc_truncated = bad
          && r.Wal.rc_snap_zxid = snap_zxid
          && (match (r.Wal.rc_snapshot, image) with
              | Some a, Some b -> a == b
              | None, None -> true
              | _ -> false)
          && r.Wal.rc_snap_fallback = fallback
          && r.Wal.rc_replayed = List.length replay
      in
      let consistent () =
        Wal.records w = List.length m.recs
        && Wal.durable_zxid w ~now:infinity = ref_durable m ~now:infinity
        && Wal.durable_zxid w ~now:!clock = ref_durable m ~now:!clock
      in
      List.for_all (fun s -> agrees s && consistent ()) (steps @ [ R_recover ]))

(* [encoded_length] counts what [encode] writes, over trees built by
   random op streams: lengths and counters across digit boundaries,
   negative and full-width owners, zxids past the native int range,
   and arbitrary times. *)
let prop_encoded_length =
  let open QCheck2.Gen in
  let path =
    oneofl [ "/a"; "/a/b"; "/a/b/c"; "/d"; "/d/e"; "/long-name-" ^ String.make 20 'n' ]
  in
  let data = map (fun n -> String.make n 'v') (int_range 0 120) in
  let owner = oneofl [ 0L; 7L; -3L; 0x5eed_0000_0000L; Int64.min_int; Int64.max_int ] in
  let version = int_range (-1) 2 in
  let op =
    frequency
      [ ( 4,
          map
            (fun (((path, data), ephemeral_owner), sequential) ->
              Txn.Create { path; data; ephemeral_owner; sequential })
            (pair (pair (pair path data) owner) bool) );
        (1, map (fun (path, expected_version) -> Txn.Delete { path; expected_version })
              (pair path version));
        (2, map (fun (path, data, expected_version) ->
                 Txn.Set_data { path; data; expected_version })
              (triple path data version)) ]
  in
  let time = oneof [ oneofl [ 0.; -0.25; 1.5; 1e300; Float.min_float ]; float ] in
  QCheck2.Test.make ~name:"encoded_length = length of encode" ~count:300
    (pair (oneofl [ 1L; 0x1_0000_0000L; Int64.sub Int64.max_int 1000L ])
       (list_size (int_range 1 60) (pair (list_size (int_range 1 3) op) time)))
    (fun (base, txns) ->
      let tree = Ztree.create () in
      let ok img = Ztree.encoded_length img = String.length (Ztree.encode img) in
      ok (Ztree.capture tree)
      && List.for_all
           (fun (i, (txn, time)) ->
             ignore (Ztree.apply tree ~zxid:(Int64.add base (Int64.of_int i)) ~time txn);
             ok (Ztree.capture tree))
           (List.mapi (fun i x -> (i, x)) txns))

(* {2 Regression: crash must drop the un-persisted suffix}

   The pipelined leader acks a proposal once a quorum is in — and two
   followers are a quorum of three, so a write can commit (and the
   client be told Ok) while the leader's own append still sits in a
   stalled WAL device. Before this PR, [crash] kept the dead server's
   RAM as its recovered state, silently including that suffix; now the
   crash answers with the disk's truth, and the acked write survives
   where it was actually persisted: on the followers. *)

let test_crash_drops_unpersisted_suffix () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { c with Ensemble.max_inflight_batches = 4; election_timeout = 0.1 })
      ()
  in
  let members = [ 0; 1; 2 ] in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:1 () in
      ignore (ok_or_fail "warmup" (s.Zk_client.create "/pre" ~data:"p"));
      Process.sleep 0.05;
      let lid = Option.get (Ensemble.leader_id ensemble) in
      Ensemble.disk_stall ensemble lid ~duration:10.;
      ignore
        (ok_or_fail "acked via the follower quorum"
           (s.Zk_client.create "/w" ~data:"W"));
      check_bool "leader's durable zxid lags a follower's" true
        (Ensemble.durable_zxid ensemble lid
         < Ensemble.durable_zxid ensemble ((lid + 1) mod 3));
      List.iter (Ensemble.crash ensemble) members;
      Process.sleep 0.1;
      (* power returns to the old leader first: alone it has no quorum,
         so it parks on its locally recovered state — which must hold
         the fsynced prefix but NOT the never-persisted /w *)
      Ensemble.restart ensemble lid;
      Process.sleep 0.1;
      let t = Ensemble.tree_of ensemble lid in
      (match Ztree.get t "/pre" with
       | Ok (d, _) -> check_string "fsynced prefix recovered" "p" d
       | Error e -> Alcotest.failf "/pre lost: %s" (Zerror.to_string e));
      (match Ztree.get t "/w" with
       | Error _ -> ()
       | Ok _ ->
         Alcotest.fail "crash kept an un-fsynced suffix (RAM, not disk)");
      (* the followers come back: the recovery election compares durable
         log ends, a follower's longer log wins, and /w is restored
         everywhere — including onto the old leader *)
      List.iter
        (fun id -> if id <> lid then Ensemble.restart ensemble id)
        members);
  Engine.run engine;
  check_bool "a leader was re-elected" true (Ensemble.leader_id ensemble <> None);
  List.iter
    (fun id ->
      let d, _ =
        ok_or_fail
          (Printf.sprintf "server %d" id)
          (Ztree.get (Ensemble.tree_of ensemble id) "/w")
      in
      check_string (Printf.sprintf "server %d holds the acked write" id) "W" d)
    members

(* {2 Regression: whole-cluster power failure is survivable} *)

let test_whole_cluster_power_failure () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c -> { c with Ensemble.election_timeout = 0.1 })
      ()
  in
  let post = ref None in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble () in
      for i = 0 to 9 do
        ignore
          (ok_or_fail "pre-outage write"
             (s.Zk_client.create (Printf.sprintf "/a%d" i) ~data:"v"))
      done;
      Process.sleep 0.05;
      List.iter (Ensemble.crash ensemble) [ 0; 1; 2 ];
      Process.sleep 0.5;
      (* the first riser parks (1 < quorum 2); the second completes the
         quorum and triggers the recovery election; the third joins *)
      Ensemble.restart ensemble 0;
      Process.sleep 0.05;
      check_bool "sub-quorum riser stays leaderless" true
        (Ensemble.leader_id ensemble = None);
      Ensemble.restart ensemble 1;
      Ensemble.restart ensemble 2;
      Process.sleep 0.2;
      let s2 = Ensemble.session ensemble () in
      post := Some (s2.Zk_client.create "/post" ~data:"alive"));
  Engine.run engine;
  (match !post with
   | Some (Ok _) -> ()
   | Some (Error e) ->
     Alcotest.failf "write after full recovery: %s" (Zerror.to_string e)
   | None -> Alcotest.fail "post-recovery write never ran");
  check_bool "a leader exists after total outage" true
    (Ensemble.leader_id ensemble <> None);
  check_int "three local recoveries ran" 3 (Ensemble.recoveries ensemble);
  List.iter
    (fun id ->
      let t = Ensemble.tree_of ensemble id in
      for i = 0 to 9 do
        ignore
          (ok_or_fail
             (Printf.sprintf "server %d /a%d" id i)
             (Ztree.get t (Printf.sprintf "/a%d" i)))
      done)
    [ 0; 1; 2 ];
  check_bool "replicas agree after recovery" true
    (Ztree.equal_state (Ensemble.tree_of ensemble 0) (Ensemble.tree_of ensemble 1)
     && Ztree.equal_state (Ensemble.tree_of ensemble 0)
          (Ensemble.tree_of ensemble 2))

(* {2 Recovery ladder, end to end on a member} *)

let test_snapshot_corruption_falls_back_then_converges () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { c with Ensemble.snapshot_every = 8; election_timeout = 0.1 })
      ()
  in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to 29 do
        ignore
          (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/s%d" i) ~data:"x"))
      done;
      Process.sleep 0.05;
      check_bool "follower has two snapshots" true
        (Ensemble.wal_snapshots ensemble 2 = 2);
      Ensemble.corrupt_snapshot ensemble 2;
      Ensemble.crash ensemble 2;
      Process.sleep 0.1;
      Ensemble.restart ensemble 2);
  Engine.run engine;
  check_bool "newest snapshot was skipped for the older one" true
    (Ensemble.snap_fallbacks ensemble >= 1);
  check_bool "replica converges despite the rotten snapshot" true
    (Ztree.equal_state (Ensemble.tree_of ensemble 2) (Ensemble.tree_of ensemble 0))

let test_rotten_log_resyncs_from_leader () =
  (* the whole disk is bad: every WAL record rots and there are no
     snapshots — local recovery comes up empty and the live leader must
     supply everything by state transfer *)
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { c with Ensemble.snapshot_every = 0; election_timeout = 0.1 })
      ()
  in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to 19 do
        ignore
          (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/r%d" i) ~data:"x"))
      done;
      Process.sleep 0.05;
      Ensemble.corrupt_wal ensemble 2 ~fraction:1.;
      Ensemble.crash ensemble 2;
      Process.sleep 0.1;
      Ensemble.restart ensemble 2);
  Engine.run engine;
  check_bool "the whole log was truncated" true
    (Ensemble.wal_truncated ensemble >= 20);
  check_bool "leader transfer filled the hole" true
    (Ensemble.transfer_diff_txns ensemble > 0
     || Ensemble.transfer_snaps ensemble > 0);
  check_bool "replica converges from the transfer" true
    (Ztree.equal_state (Ensemble.tree_of ensemble 2) (Ensemble.tree_of ensemble 0))

let test_double_restart_is_idempotent () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c -> { c with Ensemble.election_timeout = 0.1 })
      ()
  in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      for i = 0 to 14 do
        ignore
          (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/i%d" i) ~data:"x"))
      done;
      Process.sleep 0.05;
      Ensemble.crash ensemble 2;
      Process.sleep 0.1;
      Ensemble.restart ensemble 2;
      Process.sleep 0.1;
      Ensemble.crash ensemble 2;
      Process.sleep 0.1;
      Ensemble.restart ensemble 2);
  Engine.run engine;
  check_int "both restarts recovered" 2 (Ensemble.recoveries ensemble);
  check_int "recovery invents no nodes" 16
    (Ztree.node_count (Ensemble.tree_of ensemble 2));
  check_bool "replica state is a fixed point of recovery" true
    (Ztree.equal_state (Ensemble.tree_of ensemble 2) (Ensemble.tree_of ensemble 0))

(* {2 No bytes across crash and restart, end to end}

   A snapshot holds the tree's image, and recovery restores that image
   and replays log entries, so a restart builds no snapshot or record
   bytes. The files written here carry [big] bytes of data (in the SNAP
   test, the first file only), so encoding a snapshot that holds one,
   or a record that creates one, would allocate more than [big]: the
   checks below bound what a step allocates by it. *)

let big = 256 * 1024

(* Bytes the heap allocated while [f] ran. The major heap's counters
   are exact only after a major collection, so one brackets [f]. *)
let allocated f =
  let words () =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  f ();
  (words () -. before) *. float_of_int (Sys.word_size / 8)

let test_fault_free_run_encodes_no_snapshot () =
  let run ~snapshot_every =
    let engine, ensemble =
      make ~servers:3
        ~config_adjust:(fun c -> { c with Ensemble.snapshot_every })
        ()
    in
    let data = String.make big 'x' in
    Process.spawn engine (fun () ->
        let s = Ensemble.session ensemble ~server:0 () in
        for i = 0 to 29 do
          ignore
            (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/f%d" i) ~data))
        done;
        Process.sleep 0.05);
    let bytes = allocated (fun () -> Engine.run engine) in
    (ensemble, bytes)
  in
  let ensemble, with_snapshots = run ~snapshot_every:8 in
  let _, without = run ~snapshot_every:0 in
  List.iter
    (fun id ->
      check_int (Printf.sprintf "server %d took snapshots" id) 2
        (Ensemble.wal_snapshots ensemble id))
    [ 0; 1; 2 ];
  check_bool "taking every snapshot cost less than one file's bytes" true
    (with_snapshots -. without < float_of_int big);
  check_int "no snapshot was loaded" 0 (Ensemble.snap_loads ensemble)

let test_restart_loads_snapshot_taken_before_the_crash () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { c with Ensemble.snapshot_every = 8; election_timeout = 0.1 })
      ()
  in
  let data = String.make big 'x' in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      let write i =
        ignore
          (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/c%d" i) ~data))
      in
      for i = 0 to 20 do write i done;
      Process.sleep 0.05;
      let before = Ztree.fingerprint (Ensemble.tree_of ensemble 2) in
      let bytes =
        allocated (fun () ->
            Ensemble.crash ensemble 2;
            Ensemble.restart ensemble 2)
      in
      check_bool "crash and restart built no snapshot or record bytes" true
        (bytes < float_of_int big);
      check_int "the restart rebuilt the pre-crash tree" before
        (Ztree.fingerprint (Ensemble.tree_of ensemble 2));
      (* the snapshot's own image, and a replay that adopted the
         applies its peers computed: a decoded copy would be equal,
         not identical *)
      check_bool "and holds its peers' very image" true
        (Ztree.capture (Ensemble.tree_of ensemble 2)
         == Ztree.capture (Ensemble.tree_of ensemble 0));
      Process.sleep 0.1;
      for i = 21 to 29 do write i done;
      Process.sleep 0.05);
  Engine.run engine;
  check_int "the restarted server loaded a snapshot" 1 (Ensemble.snap_loads ensemble);
  check_bool "the snapshot predates the crash by some writes" true
    (Ensemble.wal_replayed ensemble > 0);
  List.iter
    (fun id ->
      check_int
        (Printf.sprintf "server 2 ends with server %d's fingerprint" id)
        (Ztree.fingerprint (Ensemble.tree_of ensemble id))
        (Ztree.fingerprint (Ensemble.tree_of ensemble 2)))
    [ 0; 1 ]

(* A SNAP sync hands the leader's image over: the follower holds the
   very same value and stays in step with it afterwards, and a restart
   restores the installed image without building its bytes. *)
let test_snap_sync_hands_over_the_image () =
  let engine, ensemble =
    make ~servers:3
      ~config_adjust:(fun c ->
        { c with Ensemble.snapshot_every = 0; election_timeout = 0.1 })
      ()
  in
  let same_image () =
    Ztree.capture (Ensemble.tree_of ensemble 2)
    == Ztree.capture (Ensemble.tree_of ensemble 0)
  in
  let finished = ref false in
  Process.spawn engine (fun () ->
      let s = Ensemble.session ensemble ~server:0 () in
      let write ?(data = "x") i =
        ignore
          (ok_or_fail "write" (s.Zk_client.create (Printf.sprintf "/s%d" i) ~data))
      in
      write ~data:(String.make big 'x') 0;
      Process.sleep 0.05;
      Ensemble.crash ensemble 2;
      (* more than the DIFF threshold while server 2 is down *)
      for i = 1 to 600 do write i done;
      Process.sleep 0.1;
      let transfer = allocated (fun () -> Ensemble.restart ensemble 2) in
      check_int "one SNAP sync" 1 (Ensemble.transfer_snaps ensemble);
      check_bool "server 2 holds the leader's image" true (same_image ());
      check_bool "the transfer built no snapshot bytes" true
        (transfer < float_of_int big);
      for i = 601 to 610 do write i done;
      Process.sleep 0.05;
      check_bool "and stays in step with it" true (same_image ());
      let before = Ztree.fingerprint (Ensemble.tree_of ensemble 2) in
      let restart =
        allocated (fun () ->
            Ensemble.crash ensemble 2;
            Ensemble.restart ensemble 2)
      in
      check_bool "the restart built no snapshot or record bytes" true
        (restart < float_of_int big);
      check_int "the restart rebuilt the pre-crash tree" before
        (Ztree.fingerprint (Ensemble.tree_of ensemble 2));
      check_bool "from the installed image itself" true (same_image ());
      Process.sleep 0.1;
      finished := true);
  Engine.run engine;
  check_bool "the scenario ran to its end" true !finished;
  check_int "the restart loaded the installed snapshot" 1 (Ensemble.snap_loads ensemble);
  check_int "and recovered the leader's state"
    (Ztree.fingerprint (Ensemble.tree_of ensemble 0))
    (Ztree.fingerprint (Ensemble.tree_of ensemble 2))

let () =
  Alcotest.run "wal"
    [ ( "log-model",
        [ Alcotest.test_case "record encoding golden bytes" `Quick
            test_encode_golden_bytes;
          Alcotest.test_case "power-off drops the un-fsynced tail" `Quick
            test_power_off_drops_unfsynced_tail;
          Alcotest.test_case "truncate at the first bad checksum" `Quick
            test_truncate_at_first_bad_checksum;
          Alcotest.test_case "full rot is a cold start" `Quick
            test_full_rot_is_a_cold_start;
          Alcotest.test_case "snapshot fallback ladder" `Quick
            test_snapshot_fallback_ladder;
          Alcotest.test_case "double recovery is idempotent" `Quick
            test_double_recover_is_idempotent;
          Alcotest.test_case "zxid rewind pops the stale suffix" `Quick
            test_zxid_rewind_is_trunc;
          Alcotest.test_case "rot hits the same records unread" `Quick
            test_corrupt_same_records;
          Alcotest.test_case "tear fails a never-read record" `Quick
            test_tear_never_read_record;
          Alcotest.test_case "recovery same for unread logs" `Quick
            test_recover_same_for_eager_and_lazy;
          Alcotest.test_case "unread snapshot rot falls back" `Quick
            test_corrupt_snapshot_same_ladder;
          QCheck_alcotest.to_alcotest prop_index_matches_rebuild;
          QCheck_alcotest.to_alcotest prop_marks_match_checksums;
          QCheck_alcotest.to_alcotest prop_encoded_length ] );
      ( "recovery",
        [ Alcotest.test_case "crash drops the un-persisted suffix" `Quick
            test_crash_drops_unpersisted_suffix;
          Alcotest.test_case "whole-cluster power failure survivable" `Quick
            test_whole_cluster_power_failure;
          Alcotest.test_case "corrupt snapshot falls back and converges" `Quick
            test_snapshot_corruption_falls_back_then_converges;
          Alcotest.test_case "rotten log resyncs from the leader" `Quick
            test_rotten_log_resyncs_from_leader;
          Alcotest.test_case "double restart is idempotent" `Quick
            test_double_restart_is_idempotent ] );
      ( "lazy-snap",
        [ Alcotest.test_case "fault-free run encodes no snapshot" `Quick
            test_fault_free_run_encodes_no_snapshot;
          Alcotest.test_case "restart loads a pre-crash snapshot" `Quick
            test_restart_loads_snapshot_taken_before_the_crash;
          Alcotest.test_case "SNAP sync hands over the image" `Quick
            test_snap_sync_hands_over_the_image ] ) ]
