module Smap = Map.Make (String)
module Sset = Set.Make (String)
module Owners = Map.Make (Int64)

(* A znode, never mutated: an update builds a new record and a new
   binding, and every other node stays shared with the previous state.
   Children are found in the path map itself (see [fold_children]). *)
type node = {
  data : string;
  num_kids : int;
  version : int;
  cversion : int;
  seq_counter : int;
  czxid : int64; mzxid : int64; pzxid : int64;
  ctime : float; mtime : float;
  ephemeral_owner : int64;
}

type stat = {
  czxid : int64;
  mzxid : int64;
  pzxid : int64;
  ctime : float;
  mtime : float;
  version : int;
  cversion : int;
  ephemeral_owner : int64;
  data_length : int;
  num_children : int;
}

type event_kind =
  | Node_created
  | Node_deleted
  | Node_data_changed
  | Node_children_changed

type watch_event = { kind : event_kind; path : string }

(* The replicated state, as a value: nodes keyed by path, plus the
   bookkeeping an apply updates with them. *)
type image = {
  nodes : node Smap.t;
  count : int;
  bytes : int;
  last_zxid : int64;
  ephemerals : Sset.t Owners.t; (* owner -> paths *)
}

(* A watch event an apply raised, with the registry it consumes. *)
type trigger = Data of watch_event | Child of watch_event

(* One apply: its inputs and its outcome. *)
type applied = {
  zxid : int64;
  time : float;
  txn : Txn.t;
  pre : image;
  post : image; (* [pre] itself when the txn failed *)
  result : (Txn.result_item list, Zerror.t) result;
  triggers : trigger list; (* in firing order *)
}

(* Applies are pure, so members that hold the same pre-state and apply
   the same (zxid, time, txn) get the same outcome: the first computes
   it, the rest adopt it. [recent] keeps the last apply per zxid slot;
   the leader runs ahead of its followers by its whole pipeline, so one
   slot would be overwritten before they arrive. *)
type share = {
  initial : image;
  recent : applied array;
  mutable adopted : int;
  mutable computed : int;
}

type t = {
  mutable state : image;
  share : share option;
  data_watches : (string, (watch_event -> unit) list ref) Hashtbl.t;
  child_watches : (string, (watch_event -> unit) list ref) Hashtbl.t;
}

(* Heap cost model per znode: node record (~96 B), two hash-table slots
   (parent child-set + global path index, ~96 B), plus path and data
   payloads counted separately. Chosen so that DUFS-sized znodes land near
   the paper's ~417 MB per million znodes once the JVM factor in
   Memory_model is applied. *)
let znode_overhead_bytes = 192

let make_node ~zxid ~time ~data ~ephemeral_owner =
  { data; num_kids = 0; version = 0; cversion = 0; seq_counter = 0;
    czxid = zxid; mzxid = zxid; pzxid = zxid; ctime = time; mtime = time;
    ephemeral_owner }

let root_image () =
  { nodes = Smap.singleton "/" (make_node ~zxid:0L ~time:0. ~data:"" ~ephemeral_owner:0L);
    count = 1;
    bytes = 0;
    last_zxid = 0L;
    ephemerals = Owners.empty }

let memo_slots = 256

let share () =
  let initial = root_image () in
  let vacant =
    (* zxids start at 1, so no apply matches this slot *)
    { zxid = 0L; time = 0.; txn = []; pre = initial; post = initial;
      result = Ok []; triggers = [] }
  in
  { initial; recent = Array.make memo_slots vacant; adopted = 0; computed = 0 }

let adopted sh = sh.adopted
let computed sh = sh.computed

let restore ?share state =
  { state; share; data_watches = Hashtbl.create 64; child_watches = Hashtbl.create 64 }

let create ?share () =
  restore ?share
    (match share with Some sh -> sh.initial | None -> root_image ())

let capture t = t.state

let stat_of_node (n : node) : stat =
  { czxid = n.czxid; mzxid = n.mzxid; pzxid = n.pzxid; ctime = n.ctime;
    mtime = n.mtime; version = n.version; cversion = n.cversion;
    ephemeral_owner = n.ephemeral_owner; data_length = String.length n.data;
    num_children = n.num_kids }

(* {2 Reads} *)

let find t path = Smap.find_opt path t.state.nodes

let get t path =
  match find t path with
  | Some n -> Ok (n.data, stat_of_node n)
  | None -> Error Zerror.ZNONODE

let exists t path = Option.map stat_of_node (find t path)

(* [f name child] over [path]'s children, in reverse name order.
   Siblings' paths compare as their names do, so the children are a
   range of the path map: one seek, then a walk that steps over each
   child's own subtree with a seek past [child ^ "/"] ('0' follows '/').
   The walk stops at the node's child count. *)
let fold_children f t path =
  match find t path with
  | None -> Error Zerror.ZNONODE
  | Some n ->
    let nodes = t.state.nodes in
    let prefix = if path = "/" then path else path ^ "/" in
    let plen = String.length prefix in
    let rec walk seq left acc =
      if left = 0 then acc
      else
        match seq () with
        | Seq.Nil -> acc
        | Seq.Cons ((p, child), rest) ->
          if String.length p = plen then walk rest left acc (* the root *)
          else (
            match String.index_from_opt p plen '/' with
            | None ->
              walk rest (left - 1)
                (f (String.sub p plen (String.length p - plen)) child acc)
            | Some i -> walk (Smap.to_seq_from (String.sub p 0 i ^ "0") nodes) left acc)
    in
    Ok (walk (Smap.to_seq_from prefix nodes) n.num_kids [])

let children t path = Result.map List.rev (fold_children (fun name _ acc -> name :: acc) t path)

let children_with_data t path =
  Result.map List.rev
    (fold_children
       (fun name child acc -> (name, child.data, stat_of_node child) :: acc)
       t path)

(* {2 Watches} *)

let add_watch table path callback =
  match Hashtbl.find_opt table path with
  | Some callbacks -> callbacks := callback :: !callbacks
  | None -> Hashtbl.replace table path (ref [ callback ])

let watch_data t path callback = add_watch t.data_watches path callback
let watch_children t path callback = add_watch t.child_watches path callback

let count_watch_table table =
  Hashtbl.fold (fun _ cbs acc -> acc + List.length !cbs) table 0

let watch_count t =
  count_watch_table t.data_watches + count_watch_table t.child_watches

(* Remove and return the fire-once watches on [path], oldest first. An
   empty registry, the common case on a replica nobody watches, is
   answered without hashing [path]. *)
let take_watches table path =
  if Hashtbl.length table = 0 then []
  else
    match Hashtbl.find_opt table path with
    | None -> []
    | Some callbacks ->
      Hashtbl.remove table path;
      List.rev !callbacks

(* Every watch a committed txn triggers is taken before any callback
   runs, then they fire in trigger order. *)
let fire t triggers =
  if Hashtbl.length t.data_watches + Hashtbl.length t.child_watches > 0 then
    List.fold_left
      (fun due trigger ->
        let table, event =
          match trigger with
          | Data event -> (t.data_watches, event)
          | Child event -> (t.child_watches, event)
        in
        List.fold_left (fun due cb -> (cb, event) :: due) due (take_watches table event.path))
      [] triggers
    |> List.rev
    |> List.iter (fun (cb, event) -> cb event)

(* {2 Watch migration}

   When a replica resyncs from a snapshot it swaps in a fresh tree,
   which carries no watch registries. The watches the old tree held
   belong to still-connected sessions, so they must survive the swap: a
   watch whose node is identical in both states re-arms on the new tree;
   a watch whose node changed while the replica was behind fires right
   away with the event the session missed — ZooKeeper's
   setWatches-on-reconnect behaviour. *)

let drain_watch_table table =
  let entries = Hashtbl.fold (fun path cbs acc -> (path, !cbs) :: acc) table [] in
  Hashtbl.reset table;
  entries

let migrate_watches ~from ~into =
  let fire callbacks kind path =
    let event = { kind; path } in
    List.iter (fun cb -> cb event) (List.rev callbacks)
  in
  (* callbacks are stored newest-first; re-arming oldest-first rebuilds
     the same internal order on the destination table *)
  let rearm table path callbacks =
    List.iter (fun cb -> add_watch table path cb) (List.rev callbacks)
  in
  List.iter
    (fun (path, callbacks) ->
      match find from path, find into path with
      | None, None -> rearm into.data_watches path callbacks
      | Some o, Some n when o.mzxid = n.mzxid && o.version = n.version ->
        rearm into.data_watches path callbacks
      | None, Some _ -> fire callbacks Node_created path
      | Some _, None -> fire callbacks Node_deleted path
      | Some _, Some _ -> fire callbacks Node_data_changed path)
    (drain_watch_table from.data_watches);
  List.iter
    (fun (path, callbacks) ->
      match find from path, find into path with
      | None, None -> rearm into.child_watches path callbacks
      | Some o, Some n when o.pzxid = n.pzxid && o.cversion = n.cversion ->
        rearm into.child_watches path callbacks
      | Some _, None -> fire callbacks Node_deleted path
      | None, Some _ | Some _, Some _ -> fire callbacks Node_children_changed path)
    (drain_watch_table from.child_watches)

(* {2 Ownership-flip revocation}

   When a directory's placement migrates to another shard, watches this
   tree still holds for it will never fire again from here — the writes
   they wait for now commit elsewhere. The reshard controller fires
   them on the old owner right before the flip: child watches on the
   directory itself (a cached listing, possibly of an {e empty}
   directory the retire step touched nothing in), and data watches on
   its immediate children — including watches on {e absent} child
   paths, which back clients' cached negative entries (the registries
   accept absent paths, so only a table sweep finds them). *)

let fire_child_watches t path =
  match take_watches t.child_watches path with
  | [] -> 0
  | callbacks ->
    let event = { kind = Node_children_changed; path } in
    List.iter (fun cb -> cb event) callbacks;
    List.length callbacks

let fire_data_watches_under t ~dir =
  let paths =
    Hashtbl.fold
      (fun path _ acc ->
        if path <> dir && Zpath.parent path = dir then path :: acc else acc)
      t.data_watches []
  in
  List.fold_left
    (fun acc path ->
      match take_watches t.data_watches path with
      | [] -> acc
      | callbacks ->
        let event = { kind = Node_data_changed; path } in
        List.iter (fun cb -> cb event) callbacks;
        acc + List.length callbacks)
    0
    (List.sort String.compare paths)

(* {2 Ephemeral bookkeeping} *)

(* [op] is [Sset.add] or [Sset.remove]; owner 0 owns nothing. *)
let ephemeral op ephemerals ~owner path =
  if owner = 0L then ephemerals
  else
    Owners.update owner
      (fun paths ->
        let paths = op path (Option.value paths ~default:Sset.empty) in
        if Sset.is_empty paths then None else Some paths)
      ephemerals

(* Deepest first, so children are deleted before parents; equal depths
   by path. *)
let ephemerals_of t ~owner =
  match Owners.find_opt owner t.state.ephemerals with
  | None -> []
  | Some paths ->
    Sset.elements paths
    |> List.map (fun path -> (Zpath.depth path, path))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
    |> List.map snd

(* {2 Transactional application}

   Each op maps a state to a new one; a failed op leaves the txn's
   pre-state as the outcome, so there is nothing to roll back. Watch
   triggers accumulate and fire only on overall success. *)

let node_bytes path (n : node) =
  znode_overhead_bytes + String.length path + String.length n.data

let find_version st path ~expected_version : (node, Zerror.t) result =
  match Smap.find_opt path st.nodes with
  | None -> Error Zerror.ZNONODE
  | Some node when expected_version >= 0 && expected_version <> node.version ->
    Error Zerror.ZBADVERSION
  | Some node -> Ok node

(* [parent] after a child was added ([delta = 1]) or removed ([-1]). *)
let touch_parent st parent_path parent ~zxid ~delta =
  Smap.add parent_path
    { parent with
      num_kids = parent.num_kids + delta;
      cversion = parent.cversion + 1;
      seq_counter = parent.seq_counter + max delta 0;
      pzxid = zxid }
    st.nodes

let apply_create st ~zxid ~time ~triggers ~path ~data ~ephemeral_owner ~sequential =
  let parent_path = Zpath.parent path in
  match Zpath.validate path, Smap.find_opt parent_path st.nodes with
  | Error e, _ -> Error e
  | Ok (), _ when path = "/" -> Error Zerror.ZNODEEXISTS
  | Ok (), None -> Error Zerror.ZNONODE
  | Ok (), Some parent when parent.ephemeral_owner <> 0L ->
    Error Zerror.ZNOCHILDRENFOREPHEMERALS
  | Ok (), Some parent ->
    (* non-sequential: the created path is [path] itself *)
    let path =
      if sequential then
        Zpath.concat parent_path
          (Zpath.sequential_name (Zpath.basename path) parent.seq_counter)
      else path
    in
    if Smap.mem path st.nodes then Error Zerror.ZNODEEXISTS
    else begin
      let node = make_node ~zxid ~time ~data ~ephemeral_owner in
      triggers :=
        Child { kind = Node_children_changed; path = parent_path }
        :: Data { kind = Node_created; path } :: !triggers;
      Ok
        ( { st with
            nodes = Smap.add path node (touch_parent st parent_path parent ~zxid ~delta:1);
            count = st.count + 1;
            bytes = st.bytes + node_bytes path node;
            ephemerals = ephemeral Sset.add st.ephemerals ~owner:ephemeral_owner path },
          Txn.Created path )
    end

let apply_delete st ~zxid ~triggers ~path ~expected_version =
  match find_version st path ~expected_version with
  | _ when path = "/" -> Error Zerror.ZBADARGUMENTS
  | Error e -> Error e
  | Ok node when node.num_kids > 0 -> Error Zerror.ZNOTEMPTY
  | Ok node ->
    let parent_path = Zpath.parent path in
    (* The root always exists, so a live node's parent is present. *)
    let parent = Smap.find parent_path st.nodes in
    triggers :=
      Child { kind = Node_children_changed; path = parent_path }
      :: Child { kind = Node_deleted; path }
      :: Data { kind = Node_deleted; path } :: !triggers;
    Ok
      ( { st with
          nodes = Smap.remove path (touch_parent st parent_path parent ~zxid ~delta:(-1));
          count = st.count - 1;
          bytes = st.bytes - node_bytes path node;
          ephemerals = ephemeral Sset.remove st.ephemerals ~owner:node.ephemeral_owner path },
        Txn.Deleted )

let apply_set st ~zxid ~time ~triggers ~path ~data ~expected_version =
  Result.map
    (fun (node : node) ->
      triggers := Data { kind = Node_data_changed; path } :: !triggers;
      ( { st with
          nodes =
            Smap.add path
              { node with data; version = node.version + 1; mzxid = zxid; mtime = time }
              st.nodes;
          bytes = st.bytes + String.length data - String.length node.data },
        Txn.Data_set ))
    (find_version st path ~expected_version)

let run ~zxid ~time txn pre =
  let triggers = ref [] in
  let rec go st items = function
    | [] -> Ok ({ st with last_zxid = zxid }, List.rev items)
    | op :: rest -> (
      match
        match op with
        | Txn.Create { path; data; ephemeral_owner; sequential } ->
          apply_create st ~zxid ~time ~triggers ~path ~data ~ephemeral_owner ~sequential
        | Txn.Delete { path; expected_version } ->
          apply_delete st ~zxid ~triggers ~path ~expected_version
        | Txn.Set_data { path; data; expected_version } ->
          apply_set st ~zxid ~time ~triggers ~path ~data ~expected_version
        | Txn.Check { path; expected_version } ->
          Result.map (fun _ -> (st, Txn.Checked)) (find_version st path ~expected_version)
      with
      | Ok (st, item) -> go st (item :: items) rest
      | Error e -> Error e)
  in
  match go pre [] txn with
  | Ok (post, items) ->
    { zxid; time; txn; pre; post; result = Ok items; triggers = List.rev !triggers }
  | Error e -> { zxid; time; txn; pre; post = pre; result = Error e; triggers = [] }

(* [txn] applied to [pre]: adopted when the share's slot for [zxid]
   holds an apply of the same txn at the same time to this very
   pre-state, computed (and remembered) otherwise. Txns are compared
   physically first: a WAL-decoded copy is equal, not identical. *)
let applied share ~zxid ~time txn pre =
  match share with
  | None -> run ~zxid ~time txn pre
  | Some sh ->
    let slot = Int64.to_int zxid land (memo_slots - 1) in
    let m = sh.recent.(slot) in
    if m.pre == pre && Int64.equal m.zxid zxid && Float.equal m.time time
       && (m.txn == txn || m.txn = txn)
    then begin
      sh.adopted <- sh.adopted + 1;
      m
    end
    else begin
      let m = run ~zxid ~time txn pre in
      sh.computed <- sh.computed + 1;
      sh.recent.(slot) <- m;
      m
    end

let apply t ~zxid ~time txn =
  if zxid <= t.state.last_zxid then
    invalid_arg
      (Printf.sprintf "Ztree.apply: zxid %Ld not beyond %Ld" zxid t.state.last_zxid);
  let m = applied t.share ~zxid ~time txn t.state in
  t.state <- m.post;
  fire t m.triggers;
  m.result

(* {2 Introspection} *)

let node_count t = t.state.count
let last_zxid t = t.state.last_zxid
let resident_bytes t = t.state.bytes + znode_overhead_bytes (* root *)

let equal_state a b =
  a.state == b.state
  || a.state.count = b.state.count
     && Smap.equal
          (fun (n : node) (m : node) ->
            n.data = m.data && n.version = m.version && n.cversion = m.cversion
            && n.num_kids = m.num_kids)
          a.state.nodes b.state.nodes

let fingerprint t =
  Smap.fold
    (fun path (n : node) acc ->
      acc lxor Hashtbl.hash (path, n.data, n.version, n.cversion))
    t.state.nodes 0

(* {2 Snapshots}

   Length-prefixed fields, so paths and data need no escaping:
     ZTREEv1 <last_zxid>\n
     <n>\n
     then per node (sorted by path for deterministic output):
     <len>:<path><len>:<data> v cv sq cz mz pz <ctime-bits> <mtime-bits> eo\n
   Child counts are rebuilt from the node paths themselves. *)

let add_len_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let nibble v i = Int64.to_int (Int64.shift_right_logical v (4 * i)) land 0xf

(* Hex digits of [v] without leading zeros (at least one). *)
let hex_digits v =
  let top = ref 15 in
  while !top > 0 && nibble v !top = 0 do decr top done;
  !top + 1

(* [Printf "%Lx"] of the IEEE bits: lowercase, no leading zeros. *)
let add_float_bits b f =
  let v = Int64.bits_of_float f in
  for i = hex_digits v - 1 downto 0 do
    Buffer.add_char b "0123456789abcdef".[nibble v i]
  done

(* Bytes of a node line besides its path and data: two length prefixes,
   three counters, three zxids, two 16-digit float hexes, the owner, the
   separators and the newline, at the sizes a typical tree holds. *)
let line_fixed_bytes = 96

(* The path map is already in path order, and [bytes] already sums the
   paths and data. *)
let encode img =
  let buf =
    Buffer.create
      (64 + img.bytes + (img.count * (line_fixed_bytes - znode_overhead_bytes))
       + znode_overhead_bytes)
  in
  let field s =
    Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "ZTREEv1";
  field (Int64.to_string img.last_zxid);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int img.count);
  Buffer.add_char buf '\n';
  Smap.iter
    (fun path (n : node) ->
      add_len_str buf path;
      add_len_str buf n.data;
      field (string_of_int n.version);
      field (string_of_int n.cversion);
      field (string_of_int n.seq_counter);
      field (Int64.to_string n.czxid);
      field (Int64.to_string n.mzxid);
      field (Int64.to_string n.pzxid);
      Buffer.add_char buf ' ';
      add_float_bits buf n.ctime;
      Buffer.add_char buf ' ';
      add_float_bits buf n.mtime;
      field (Int64.to_string n.ephemeral_owner);
      Buffer.add_char buf '\n')
    img.nodes;
  Buffer.contents buf

(* [String.length (string_of_int n)], sign included. *)
let rec dec_digits n =
  if n > -10 && n < 10 then 1 + Bool.to_int (n < 0) else 1 + dec_digits (n / 10)

let dec_digits64 v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then dec_digits n
  else String.length (Int64.to_string v)

let len_str_length s = dec_digits (String.length s) + 1 + String.length s

(* What [encode] writes, counted field by field. *)
let encoded_length img =
  let float_bits f = hex_digits (Int64.bits_of_float f) in
  Smap.fold
    (fun path (n : node) acc ->
      acc + len_str_length path + len_str_length n.data
      + dec_digits n.version + dec_digits n.cversion + dec_digits n.seq_counter
      + dec_digits64 n.czxid + dec_digits64 n.mzxid + dec_digits64 n.pzxid
      + float_bits n.ctime + float_bits n.mtime + dec_digits64 n.ephemeral_owner
      + 10 (* nine separating spaces and the newline *))
    img.nodes
    (String.length "ZTREEv1 " + dec_digits64 img.last_zxid + 1
     + dec_digits img.count + 1)
