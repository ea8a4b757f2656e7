(* Server-side lease tables for time-bounded client cache coherence.

   A lease read registers *session-level* interest in one directory (the
   parent of the znode read, or the directory listed), not a per-znode
   watch: the table is O(sessions x working directories), independent of
   how many znodes each client caches under those directories. Interest
   is refreshed implicitly on every lease read and expires on the sim
   clock, so the table self-cleans when clients move on or die.

   Early revocation: when a committed transaction touches a path, every
   session holding a live interest in that path's directory (or in the
   path itself, for directories) is notified synchronously through the
   callback it registered — the same zero-latency channel the per-znode
   watches use, so sequential consistency is preserved fault-free while
   the TTL bounds staleness when the server (and this RAM table) is
   lost. *)

type revocation = {
  kind : Ztree.event_kind;
  path : string;
  path_hash : int;
  parent : string;
  parent_hash : int;
}

type interest = {
  mutable deadline : float;
  notify : revocation -> unit;
}

type t = {
  now : unit -> float;
  ttl : float;
  (* dir -> (session -> interest) *)
  interests : (string, (int64, interest) Hashtbl.t) Hashtbl.t;
  mutable granted : int;
  mutable renewed : int;
  mutable revoked : int;
  mutable expired : int;
}

let create ~now ~ttl =
  { now;
    ttl;
    interests = Hashtbl.create 64;
    granted = 0;
    renewed = 0;
    revoked = 0;
    expired = 0 }


let grant t ~session ~dir ~notify =
  let now = t.now () in
  let deadline = now +. t.ttl in
  let sessions =
    match Hashtbl.find_opt t.interests dir with
    | Some sessions -> sessions
    | None ->
      let sessions = Hashtbl.create 4 in
      Hashtbl.replace t.interests dir sessions;
      sessions
  in
  (* liveness is [deadline > now], matching the client's serve-local
     check [now < lease_until]: at the deadline both sides agree the
     lease is dead *)
  (match Hashtbl.find_opt sessions session with
   | Some i when i.deadline > now ->
     i.deadline <- deadline;
     t.renewed <- t.renewed + 1
   | Some i ->
     (* Expired but not yet purged: a fresh grant, not a renewal. *)
     i.deadline <- deadline;
     t.expired <- t.expired + 1;
     t.granted <- t.granted + 1
   | None ->
     Hashtbl.replace sessions session { deadline; notify };
     t.granted <- t.granted + 1);
  deadline

(* Fire every live interest in [dir]; lazily purge expired ones so the
   table stays bounded by live working sets without a sweeper process. *)
let notify_dir t dir event =
  match Hashtbl.find_opt t.interests dir with
  | None -> ()
  | Some sessions ->
    let now = t.now () in
    let dead = ref [] in
    Hashtbl.iter
      (fun session (i : interest) ->
        if i.deadline > now then begin
          t.revoked <- t.revoked + 1;
          i.notify event
        end
        else begin
          t.expired <- t.expired + 1;
          dead := session :: !dead
        end)
      sessions;
    List.iter (Hashtbl.remove sessions) !dead;
    if Hashtbl.length sessions = 0 then Hashtbl.remove t.interests dir

(* A change to [path] invalidates both the entries cached under its
   parent directory (get/stat fills) and listings of [path] itself
   (children fills) — same union the per-znode protocol covers with its
   two watch registries. A table with no interests returns at once,
   without computing the parent or hashing either path. The parent and
   both paths' hashes ride in the event, so none of the sessions revoked
   derives them again. *)
let notify_path t kind path =
  if Hashtbl.length t.interests > 0 then begin
    let parent = Zpath.parent path in
    let event =
      { kind; path; path_hash = Zpath.hash path; parent;
        parent_hash = Zpath.hash parent }
    in
    notify_dir t parent event;
    notify_dir t path event
  end

let revoke_txn t txn results =
  List.iter2
    (fun op result ->
      match op, result with
      | Txn.Create _, Txn.Created actual ->
        notify_path t Ztree.Node_created actual
      | Txn.Delete { path; _ }, Txn.Deleted ->
        notify_path t Ztree.Node_deleted path
      | Txn.Set_data { path; _ }, Txn.Data_set ->
        notify_path t Ztree.Node_data_changed path
      | _, Txn.Checked -> ()
      | _ -> ())
    txn results

(* Ownership flip: every interest in [dir] is notified (the directory's
   contents now live on another shard, so nothing here will ever again
   invalidate them) and dropped — a grant after the flip belongs to the
   new owner's table. Each live interest gets one data event per child
   (the caller enumerates them from its tree — the table itself only
   knows directories) so per-entry caches drop the children too, then
   the children event for the listing. Negative entries for {e absent}
   children cannot be enumerated and stay TTL-bounded (DESIGN.md §10). *)
let revoke_dir t ?(children = []) dir =
  match Hashtbl.find_opt t.interests dir with
  | None -> 0
  | Some sessions ->
    let now = t.now () in
    let fired = ref 0 in
    let dir_hash = Zpath.hash dir and parent = Zpath.parent dir in
    let listing =
      { kind = Ztree.Node_children_changed; path = dir; path_hash = dir_hash;
        parent; parent_hash = Zpath.hash parent }
    in
    let events =
      List.map
        (fun child ->
          { kind = Ztree.Node_data_changed; path = child;
            path_hash = Zpath.hash child; parent = dir; parent_hash = dir_hash })
        children
      @ [ listing ]
    in
    Hashtbl.iter
      (fun _session (i : interest) ->
        if i.deadline > now then begin
          t.revoked <- t.revoked + 1;
          incr fired;
          List.iter i.notify events
        end
        else t.expired <- t.expired + 1)
      sessions;
    Hashtbl.remove t.interests dir;
    !fired

let drop_session t session =
  let empty = ref [] in
  Hashtbl.iter
    (fun dir sessions ->
      Hashtbl.remove sessions session;
      if Hashtbl.length sessions = 0 then empty := dir :: !empty)
    t.interests;
  List.iter (Hashtbl.remove t.interests) !empty

let clear t = Hashtbl.reset t.interests

let entries t =
  Hashtbl.fold (fun _ sessions acc -> acc + Hashtbl.length sessions) t.interests 0

let granted t = t.granted
let renewed t = t.renewed
let revoked t = t.revoked
let expired t = t.expired
