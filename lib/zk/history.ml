open Simkit

type op_kind =
  | K_create of string      (* data *)
  | K_create_seq of string  (* data; r_path is the sequential prefix *)
  | K_set of string
  | K_delete
  | K_get
  | K_exists

type outcome =
  | Ok_unit
  | Ok_data of string
  | Ok_created of string    (* actual path (sequential suffix resolved) *)
  | Ok_bool of bool
  | Err of Zerror.t
  | Undetermined

type record = {
  r_client : int;
  r_session : int; (* one per [wrap] call: session guarantees live here *)
  r_seq : int;
  r_path : string;
  r_kind : op_kind;
  r_invoke : float;
  mutable r_return : float; (* infinity while open or undetermined *)
  mutable r_outcome : outcome;
}

type violation = {
  v_path : string;
  v_kind : string;
  v_detail : string;
}

type t = {
  engine : Engine.t;
  mutable recs : record list; (* newest first *)
  mutable n : int;
  mutable sessions : int; (* next wrap-session id *)
  mutable last_checked : int;
  mutable last_audited : int;
}

let create engine =
  { engine; recs = []; n = 0; sessions = 0; last_checked = 0; last_audited = 0 }

let recorded t = t.n

let undetermined t =
  List.length (List.filter (fun r -> r.r_outcome = Undetermined) t.recs)

let checked_ops t = t.last_checked
let audited_paths t = t.last_audited

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let begin_op t ~client ~session ~path ~kind =
  let r =
    { r_client = client; r_session = session; r_seq = t.n; r_path = path;
      r_kind = kind; r_invoke = Engine.now t.engine; r_return = infinity;
      r_outcome = Undetermined }
  in
  t.n <- t.n + 1;
  t.recs <- r :: t.recs;
  r

(* Transport-level failures leave the op's fate unknown: the request or
   its reply may have been lost on either side of the commit. *)
let undetermined_error = function
  | Zerror.ZOPERATIONTIMEOUT | Zerror.ZCONNECTIONLOSS
  | Zerror.ZSESSIONEXPIRED -> true
  | _ -> false

let end_op t r outcome =
  match outcome with
  | Err e when undetermined_error e -> () (* stays Undetermined, ret = inf *)
  | o ->
    r.r_return <- Engine.now t.engine;
    r.r_outcome <- o

let wrap t ~client (h : Zk_client.handle) : Zk_client.handle =
  let session = t.sessions in
  t.sessions <- t.sessions + 1;
  let create ?(ephemeral = false) ?(sequential = false) path ~data =
    if ephemeral then
      (* Session-close cleanup deletes ephemerals outside any recorded
         operation; they would look like spontaneous register writes. *)
      h.Zk_client.create ~ephemeral ~sequential path ~data
    else begin
      let kind = if sequential then K_create_seq data else K_create data in
      let r = begin_op t ~client ~session ~path ~kind in
      let res = h.Zk_client.create ~sequential path ~data in
      (match res with
       | Ok actual -> end_op t r (Ok_created actual)
       | Error e -> end_op t r (Err e));
      res
    end
  in
  let get path =
    let r = begin_op t ~client ~session ~path ~kind:K_get in
    let res = h.Zk_client.get path in
    (match res with
     | Ok (data, _) -> end_op t r (Ok_data data)
     | Error e -> end_op t r (Err e));
    res
  in
  let set ?version path ~data =
    match version with
    | Some v when v >= 0 ->
      (* Conditional writes are outside the register model. *)
      h.Zk_client.set ~version:v path ~data
    | _ ->
      let r = begin_op t ~client ~session ~path ~kind:(K_set data) in
      let res = h.Zk_client.set ?version path ~data in
      (match res with
       | Ok () -> end_op t r Ok_unit
       | Error e -> end_op t r (Err e));
      res
  in
  let delete ?version path =
    match version with
    | Some v when v >= 0 -> h.Zk_client.delete ~version:v path
    | _ ->
      let r = begin_op t ~client ~session ~path ~kind:K_delete in
      let res = h.Zk_client.delete ?version path in
      (match res with
       | Ok () -> end_op t r Ok_unit
       | Error e -> end_op t r (Err e));
      res
  in
  let exists path =
    let r = begin_op t ~client ~session ~path ~kind:K_exists in
    let res = h.Zk_client.exists path in
    (match res with
     | Ok st -> end_op t r (Ok_bool (st <> None))
     | Error e -> end_op t r (Err e));
    res
  in
  { h with create; get; set; delete; exists }

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)

let kind_to_string = function
  | K_create d -> "create:" ^ d
  | K_create_seq d -> "createseq:" ^ d
  | K_set d -> "set:" ^ d
  | K_delete -> "delete"
  | K_get -> "get"
  | K_exists -> "exists"

let outcome_to_string = function
  | Ok_unit -> "ok"
  | Ok_data d -> "data:" ^ d
  | Ok_created p -> "created:" ^ p
  | Ok_bool b -> if b then "present" else "absent"
  | Err e -> "err:" ^ Zerror.to_string e
  | Undetermined -> "?"

let digest t =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Printf.bprintf b "%d|%d|%d|%s|%s|%.17g|%.17g|%s\n" r.r_client
        r.r_session r.r_seq r.r_path (kind_to_string r.r_kind) r.r_invoke
        r.r_return
        (outcome_to_string r.r_outcome))
    (List.rev t.recs);
  Md5.hex (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Register checker (Wing & Gong)                                      *)

exception Found
exception Too_hard

(* Possible register states after linearizing [r] in state [st]; [] if
   [r]'s observed outcome is impossible here. The state is the node's
   data, [None] = absent; the recorder must have seen the path's whole
   lifetime (first recorded op runs against an absent node).
   An Undetermined write branches: applied here (if its precondition
   holds) or never applied / applied after every recorded op — both
   futures are indistinguishable to the recorded reads. *)
let apply st r =
  match r.r_kind, r.r_outcome with
  | K_create d, Ok_created _ -> if st = None then [ Some d ] else []
  | K_create _, Err Zerror.ZNODEEXISTS -> if st <> None then [ st ] else []
  | K_create d, Undetermined -> if st = None then [ Some d; st ] else [ st ]
  | K_set d, Ok_unit -> if st <> None then [ Some d ] else []
  | K_set _, Err Zerror.ZNONODE -> if st = None then [ st ] else []
  | K_set d, Undetermined -> if st <> None then [ Some d; st ] else [ st ]
  | K_delete, Ok_unit -> if st <> None then [ None ] else []
  | K_delete, Err Zerror.ZNONODE -> if st = None then [ st ] else []
  | K_delete, Undetermined -> if st <> None then [ None; st ] else [ st ]
  | K_get, Ok_data d ->
    (match st with Some v when String.equal v d -> [ st ] | _ -> [])
  | K_get, Err Zerror.ZNONODE -> if st = None then [ st ] else []
  | (K_get | K_exists), Undetermined -> [ st ]
  | K_exists, Ok_bool b -> if (st <> None) = b then [ st ] else []
  | _, Err _ -> [ st ] (* unexpected error class: permissive, no effect *)
  | _, _ -> [ st ]

let bit bs j = Char.code (Bytes.get bs (j lsr 3)) land (1 lsl (j land 7)) <> 0

let with_bit bs j =
  let bs' = Bytes.copy bs in
  Bytes.set bs' (j lsr 3)
    (Char.chr (Char.code (Bytes.get bs' (j lsr 3)) lor (1 lsl (j land 7))));
  bs'

let state_key st done_ =
  (match st with None -> "-" | Some v -> "+" ^ v) ^ "\x00"
  ^ Bytes.to_string done_

(* What is actually guaranteed — and therefore what we check — is
   ZooKeeper's contract, not full linearizability of every operation:

   - Writes (create/set/delete, including their error outcomes, which
     the leader evaluated against the committed tree) are linearizable:
     real-time order among determined writes is enforced, and an
     Undetermined write branches between "applied at this point" and
     "never applied within the recorded window".

   - Reads (get/exists) are served from a follower's local tree. A
     follower that missed a commit legally serves stale data to other
     sessions, so reads are only *sequentially consistent*: a read may
     linearize in the past relative to other clients' completed writes,
     but it must (a) return a value the register actually held at its
     linearization point and (b) respect its own wrap-session's order —
     it comes after every determined same-session op that completed
     before it was invoked (read-your-writes, monotonic reads).
     Undetermined reads constrain nothing and are dropped.

   Because reads never change the state and their admission rule is
   monotone (doing an admissible read earlier only relaxes later
   constraints), any matching enabled read can be linearized greedily;
   the search branches over write interleavings only. *)
let check_register ~max_states path ops =
  let ops =
    Array.of_list
      (List.sort
         (fun a b ->
           let c = compare a.r_invoke b.r_invoke in
           if c <> 0 then c else compare a.r_seq b.r_seq)
         (List.filter
            (fun r ->
              match r.r_kind, r.r_outcome with
              | (K_get | K_exists), Undetermined -> false (* vacuous *)
              | _ -> true)
            ops))
  in
  let n = Array.length ops in
  let is_read j =
    match ops.(j).r_kind with K_get | K_exists -> true | _ -> false
  in
  (* Only determined writes pin real time; reads and undetermined
     writes stay "open" and never force another op to wait for them. *)
  let ret_eff j = if is_read j then infinity else ops.(j).r_return in
  (* prereq.(j): same-session ops that completed before j was invoked —
     the session-order constraint that real time no longer implies once
     reads may linearize in the past. *)
  let prereq = Array.make n [] in
  for j = 0 to n - 1 do
    for k = 0 to n - 1 do
      if
        k <> j
        && ops.(k).r_session = ops.(j).r_session
        && ops.(k).r_return < ops.(j).r_invoke
      then prereq.(j) <- k :: prereq.(j)
    done
  done;
  let prereqs_done done_ j = List.for_all (fun k -> bit done_ k) prereq.(j) in
  let states = ref 0 in
  let memo : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* Greedily linearize every enabled read whose observed value matches
     the current state; loop to a fixpoint since one read completing
     can satisfy another's session prereq. *)
  let absorb st done_ remaining =
    let done_ = ref done_ and remaining = ref remaining in
    let changed = ref true in
    while !changed do
      changed := false;
      for j = 0 to n - 1 do
        if
          is_read j
          && (not (bit !done_ j))
          && prereqs_done !done_ j
          && apply st ops.(j) <> []
        then begin
          done_ := with_bit !done_ j;
          decr remaining;
          changed := true
        end
      done
    done;
    (!done_, !remaining)
  in
  let rec dfs st done_ remaining =
    let done_, remaining = absorb st done_ remaining in
    if remaining = 0 then raise Found;
    incr states;
    if !states > max_states then raise Too_hard;
    let key = state_key st done_ in
    if not (Hashtbl.mem memo key) then begin
      (* A write can be the next linearization point only if no pending
         determined write returned before it was invoked. *)
      let min_ret = ref infinity in
      for i = 0 to n - 1 do
        if (not (bit done_ i)) && ret_eff i < !min_ret then
          min_ret := ret_eff i
      done;
      for j = 0 to n - 1 do
        if
          (not (is_read j))
          && (not (bit done_ j))
          && ops.(j).r_invoke <= !min_ret
          && prereqs_done done_ j
        then
          List.iter
            (fun st' -> dfs st' (with_bit done_ j) (remaining - 1))
            (apply st ops.(j))
      done;
      Hashtbl.add memo key ()
    end
  in
  if n = 0 then None
  else
    match dfs None (Bytes.make ((n + 7) / 8) '\000') n with
    | () ->
      Some
        { v_path = path; v_kind = "register";
          v_detail =
            Printf.sprintf "no linearization of %d ops (%d states searched)"
              n !states }
    | exception Found -> None
    | exception Too_hard ->
      Some
        { v_path = path; v_kind = "exhausted";
          v_detail =
            Printf.sprintf
              "search exceeded %d states over %d ops: verdict unknown"
              max_states n }

(* ------------------------------------------------------------------ *)
(* Sequential-create checker                                           *)

let seq_suffix prefix actual =
  let pl = String.length prefix in
  if String.length actual > pl && String.sub actual 0 pl = prefix then
    int_of_string_opt (String.sub actual pl (String.length actual - pl))
  else None

let check_sequential prefix ops =
  let violations = ref [] in
  let succ =
    List.filter_map
      (fun r ->
        match r.r_outcome with Ok_created p -> Some (r, p) | _ -> None)
      ops
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, p) ->
      if Hashtbl.mem seen p then
        violations :=
          { v_path = prefix; v_kind = "sequential";
            v_detail = "duplicate sequential path " ^ p }
          :: !violations
      else Hashtbl.add seen p ())
    succ;
  let arr = Array.of_list succ in
  Array.iter
    (fun (a, pa) ->
      Array.iter
        (fun (b, pb) ->
          if a.r_return < b.r_invoke then
            match seq_suffix prefix pa, seq_suffix prefix pb with
            | Some sa, Some sb when sa >= sb ->
              violations :=
                { v_path = prefix; v_kind = "sequential";
                  v_detail =
                    Printf.sprintf
                      "%s finished before %s began but its suffix is not \
                       smaller"
                      pa pb }
                :: !violations
            | _ -> ())
        arr)
    arr;
  !violations

(* ------------------------------------------------------------------ *)

let check ?(max_states = 500_000) t =
  let regs : (string, record list) Hashtbl.t = Hashtbl.create 64 in
  let seqs : (string, record list) Hashtbl.t = Hashtbl.create 16 in
  let add tbl k r =
    Hashtbl.replace tbl k (r :: (try Hashtbl.find tbl k with Not_found -> []))
  in
  List.iter
    (fun r ->
      match r.r_kind with
      | K_create_seq _ -> add seqs r.r_path r
      | _ -> add regs r.r_path r)
    t.recs;
  let checked = ref 0 in
  let violations = ref [] in
  let reg_paths =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) regs [])
  in
  List.iter
    (fun path ->
      let ops = Hashtbl.find regs path in
      checked := !checked + List.length ops;
      match check_register ~max_states path ops with
      | Some v -> violations := v :: !violations
      | None -> ())
    reg_paths;
  let seq_paths =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) seqs [])
  in
  List.iter
    (fun prefix ->
      let ops = Hashtbl.find seqs prefix in
      checked := !checked + List.length ops;
      violations := check_sequential prefix ops @ !violations)
    seq_paths;
  t.last_checked <- !checked;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Durability oracle                                                   *)

(* The final value an effectful acknowledged write leaves behind
   ([None] = node absent). Error outcomes changed nothing; reads never
   do. A successful sequential create keys on its resolved path. *)
let acked_write_value r =
  match r.r_kind, r.r_outcome with
  | (K_create d | K_create_seq d), Ok_created _ -> Some (Some d)
  | K_set d, Ok_unit -> Some (Some d)
  | K_delete, Ok_unit -> Some None
  | _ -> None

(* Value an undetermined write would leave if the service applied it
   after all (its effect may land at any point, even after the client
   gave up — the open-ended window of [check]). *)
let undetermined_write_value r =
  match r.r_kind, r.r_outcome with
  | K_create d, Undetermined -> Some (Some d)
  | K_set d, Undetermined -> Some (Some d)
  | K_delete, Undetermined -> Some None
  | _ -> None

let value_to_string = function
  | None -> "absent"
  | Some d -> Printf.sprintf "%S" d

let durability_audit t ~lookup =
  let by_path : (string, record list) Hashtbl.t = Hashtbl.create 64 in
  let add path r =
    Hashtbl.replace by_path path
      (r :: Option.value ~default:[] (Hashtbl.find_opt by_path path))
  in
  List.iter
    (fun r ->
      match r.r_kind with
      | K_create _ | K_set _ | K_delete -> add r.r_path r
      | K_create_seq _ -> (
        (* the register only exists at the resolved path; an
           undetermined sequential create has no knowable path *)
        match r.r_outcome with
        | Ok_created actual -> add actual r
        | _ -> ())
      | K_get | K_exists -> ())
    t.recs;
  let paths =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_path [])
  in
  let violations = ref [] in
  List.iter
    (fun path ->
      let recs = Hashtbl.find by_path path in
      let acked =
        List.filter_map
          (fun r -> Option.map (fun v -> (r, v)) (acked_write_value r))
          recs
      in
      let undet = List.filter_map undetermined_write_value recs in
      (* An acknowledged write can be the register's final state iff no
         other acknowledged write certainly linearizes after it (began
         after it returned). Undetermined writes have an open-ended
         window, so nothing ever supersedes them with certainty. *)
      let plausible_acked =
        List.filter_map
          (fun ((w, v) : record * string option) ->
            if
              List.exists
                (fun ((w', _) : record * string option) ->
                  w' != w && w'.r_invoke > w.r_return)
                acked
            then None
            else Some v)
          acked
      in
      (* With no acknowledged effectful write, the never-applied branch
         of every undetermined write leaves the node absent. *)
      let plausible =
        plausible_acked @ undet @ (if acked = [] then [ None ] else [])
      in
      let observed = lookup path in
      let matches = function
        | None, None -> true
        | Some a, Some b -> String.equal a b
        | _ -> false
      in
      if not (List.exists (fun v -> matches (v, observed)) plausible) then
        violations :=
          { v_path = path; v_kind = "durability";
            v_detail =
              Printf.sprintf
                "recovered %s but the %d acked + %d undetermined writes \
                 only allow {%s}"
                (value_to_string observed)
                (List.length acked) (List.length undet)
                (String.concat "; "
                   (List.sort_uniq compare (List.map value_to_string plausible))) }
          :: !violations)
    paths;
  t.last_audited <- List.length paths;
  List.rev !violations
