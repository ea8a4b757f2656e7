type node = {
  mutable data : string;
  mutable children : (string, node) Hashtbl.t;
  mutable version : int;
  mutable cversion : int;
  mutable seq_counter : int;
  czxid : int64;
  mutable mzxid : int64;
  mutable pzxid : int64;
  ctime : float;
  mutable mtime : float;
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

type t = {
  nodes : (string, node) Hashtbl.t;
  data_watches : (string, (watch_event -> unit) list ref) Hashtbl.t;
  child_watches : (string, (watch_event -> unit) list ref) Hashtbl.t;
  ephemerals : (int64, (string, unit) Hashtbl.t) Hashtbl.t;
  mutable last_zxid : int64;
  mutable bytes : int;
}

(* Heap cost model per znode: node record (~96 B), two hash-table slots
   (parent child-set + global path index, ~96 B), plus path and data
   payloads counted separately. Chosen so that DUFS-sized znodes land near
   the paper's ~417 MB per million znodes once the JVM factor in
   Memory_model is applied. *)
let znode_overhead_bytes = 192

(* Child sets map name -> node, so listings read children directly. A
   leaf — most znodes, on every replica — holds this shared empty set,
   which is never written: [add_child] gives a node its own table when
   its first child arrives. *)
let no_children : (string, node) Hashtbl.t = Hashtbl.create 1

let add_child parent name child =
  if parent.children == no_children then parent.children <- Hashtbl.create 2;
  Hashtbl.replace parent.children name child

let make_node ~zxid ~time ~data ~ephemeral_owner =
  { data;
    children = no_children;
    version = 0;
    cversion = 0;
    seq_counter = 0;
    czxid = zxid;
    mzxid = zxid;
    pzxid = zxid;
    ctime = time;
    mtime = time;
    ephemeral_owner }

let create () =
  let t =
    { nodes = Hashtbl.create 1024;
      data_watches = Hashtbl.create 64;
      child_watches = Hashtbl.create 64;
      ephemerals = Hashtbl.create 16;
      last_zxid = 0L;
      bytes = 0 }
  in
  Hashtbl.replace t.nodes "/"
    (make_node ~zxid:0L ~time:0. ~data:"" ~ephemeral_owner:0L);
  t

let stat_of_node (n : node) : stat =
  { czxid = n.czxid;
    mzxid = n.mzxid;
    pzxid = n.pzxid;
    ctime = n.ctime;
    mtime = n.mtime;
    version = n.version;
    cversion = n.cversion;
    ephemeral_owner = n.ephemeral_owner;
    data_length = String.length n.data;
    num_children = Hashtbl.length n.children }

(* {2 Reads} *)

let get t path =
  match Hashtbl.find_opt t.nodes path with
  | Some n -> Ok (n.data, stat_of_node n)
  | None -> Error Zerror.ZNONODE

let exists t path =
  Option.map stat_of_node (Hashtbl.find_opt t.nodes path)

let children t path =
  match Hashtbl.find_opt t.nodes path with
  | None -> Error Zerror.ZNONODE
  | Some n ->
    let names = Hashtbl.fold (fun name _ acc -> name :: acc) n.children [] in
    Ok (List.sort String.compare names)

let children_with_data t path =
  match Hashtbl.find_opt t.nodes path with
  | None -> Error Zerror.ZNONODE
  | Some n ->
    let kids = Hashtbl.fold (fun name child acc -> (name, child) :: acc) n.children [] in
    Ok
      (List.map
         (fun (name, child) -> (name, child.data, stat_of_node child))
         (List.sort (fun (a, _) (b, _) -> String.compare a b) kids))

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

(* Collect the fire-once watches triggered by an event; they are removed
   from the registry now and invoked only after the whole transaction
   commits. An empty registry, the common case on a replica nobody
   watches, is answered without hashing [path]. *)
let take_watches table path =
  if Hashtbl.length table = 0 then []
  else
    match Hashtbl.find_opt table path with
    | None -> []
    | Some callbacks ->
      Hashtbl.remove table path;
      List.rev !callbacks

(* Each pending firing remembers its registry and path so that an aborted
   transaction can re-arm the watch instead of silently consuming it. *)
let trigger acc table kind path =
  match take_watches table path with
  | [] -> acc
  | callbacks ->
    let event = { kind; path } in
    List.fold_left (fun acc cb -> (table, cb, event) :: acc) acc callbacks

(* {2 Watch migration}

   When a replica resyncs from a snapshot it swaps in a freshly
   deserialized tree, which carries no watch registries. The watches the
   old tree held belong to still-connected sessions, so they must survive
   the swap: a watch whose node is identical in both states re-arms on
   the new tree; a watch whose node changed while the replica was behind
   fires right away with the event the session missed — ZooKeeper's
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
      match Hashtbl.find_opt from.nodes path, Hashtbl.find_opt into.nodes path with
      | None, None -> rearm into.data_watches path callbacks
      | Some o, Some n when o.mzxid = n.mzxid && o.version = n.version ->
        rearm into.data_watches path callbacks
      | None, Some _ -> fire callbacks Node_created path
      | Some _, None -> fire callbacks Node_deleted path
      | Some _, Some _ -> fire callbacks Node_data_changed path)
    (drain_watch_table from.data_watches);
  List.iter
    (fun (path, callbacks) ->
      match Hashtbl.find_opt from.nodes path, Hashtbl.find_opt into.nodes path with
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

let record_ephemeral t ~owner path =
  if owner <> 0L then begin
    let set =
      match Hashtbl.find_opt t.ephemerals owner with
      | Some set -> set
      | None ->
        let set = Hashtbl.create 4 in
        Hashtbl.replace t.ephemerals owner set;
        set
    in
    Hashtbl.replace set path ()
  end

let forget_ephemeral t ~owner path =
  if owner <> 0L then
    match Hashtbl.find_opt t.ephemerals owner with
    | Some set ->
      Hashtbl.remove set path;
      if Hashtbl.length set = 0 then Hashtbl.remove t.ephemerals owner
    | None -> ()

let ephemerals_of t ~owner =
  match Hashtbl.find_opt t.ephemerals owner with
  | None -> []
  | Some set ->
    let paths = Hashtbl.fold (fun path () acc -> path :: acc) set [] in
    (* deepest first so children are deleted before parents *)
    List.sort (fun a b -> compare (Zpath.depth b) (Zpath.depth a)) paths

(* {2 Transactional application}

   Each op is validated and applied immediately; an undo closure is pushed
   so that a later op's failure rolls the whole transaction back. Watch
   events accumulate and fire only on overall success. *)

let node_bytes path (n : node) =
  znode_overhead_bytes + String.length path + String.length n.data

let apply_create t ~zxid ~time ~undo ~events
    ~path ~data ~ephemeral_owner ~sequential =
  match Zpath.validate path with
  | Error e -> Error e
  | Ok () ->
    if path = "/" then Error Zerror.ZNODEEXISTS
    else begin
      let parent_path = Zpath.parent path in
      match Hashtbl.find_opt t.nodes parent_path with
      | None -> Error Zerror.ZNONODE
      | Some parent when parent.ephemeral_owner <> 0L ->
        Error Zerror.ZNOCHILDRENFOREPHEMERALS
      | Some parent ->
        let name =
          if sequential then
            Zpath.sequential_name (Zpath.basename path) parent.seq_counter
          else Zpath.basename path
        in
        (* non-sequential: [concat parent name] would rebuild [path]
           byte for byte — reuse it instead of allocating a copy *)
        let actual_path =
          if sequential then Zpath.concat parent_path name else path
        in
        if Hashtbl.mem t.nodes actual_path then Error Zerror.ZNODEEXISTS
        else begin
          let node = make_node ~zxid ~time ~data ~ephemeral_owner in
          let saved_cversion = parent.cversion
          and saved_pzxid = parent.pzxid
          and saved_seq = parent.seq_counter
          and saved_children = parent.children in
          Hashtbl.replace t.nodes actual_path node;
          add_child parent name node;
          parent.cversion <- parent.cversion + 1;
          parent.seq_counter <- parent.seq_counter + 1;
          parent.pzxid <- zxid;
          record_ephemeral t ~owner:ephemeral_owner actual_path;
          t.bytes <- t.bytes + node_bytes actual_path node;
          (match undo with
           | None -> ()
           | Some undo ->
             undo := (fun () ->
                 t.bytes <- t.bytes - node_bytes actual_path node;
                 forget_ephemeral t ~owner:ephemeral_owner actual_path;
                 Hashtbl.remove t.nodes actual_path;
                 Hashtbl.remove parent.children name;
                 parent.children <- saved_children;
                 parent.cversion <- saved_cversion;
                 parent.pzxid <- saved_pzxid;
                 parent.seq_counter <- saved_seq)
               :: !undo);
          events :=
            trigger
              (trigger !events t.data_watches Node_created actual_path)
              t.child_watches Node_children_changed parent_path;
          Ok (Txn.Created actual_path)
        end
    end

let apply_delete t ~zxid ~time:_ ~undo ~events ~path ~expected_version =
  if path = "/" then Error Zerror.ZBADARGUMENTS
  else
    match Hashtbl.find_opt t.nodes path with
    | None -> Error Zerror.ZNONODE
    | Some node ->
      if expected_version >= 0 && expected_version <> node.version then
        Error Zerror.ZBADVERSION
      else if Hashtbl.length node.children > 0 then Error Zerror.ZNOTEMPTY
      else begin
        let parent_path = Zpath.parent path in
        let name = Zpath.basename path in
        (* The root always exists, so a live node's parent is present. *)
        let parent = Hashtbl.find t.nodes parent_path in
        let saved_cversion = parent.cversion and saved_pzxid = parent.pzxid in
        Hashtbl.remove t.nodes path;
        Hashtbl.remove parent.children name;
        parent.cversion <- parent.cversion + 1;
        parent.pzxid <- zxid;
        forget_ephemeral t ~owner:node.ephemeral_owner path;
        t.bytes <- t.bytes - node_bytes path node;
        (match undo with
         | None -> ()
         | Some undo ->
           undo := (fun () ->
               t.bytes <- t.bytes + node_bytes path node;
               record_ephemeral t ~owner:node.ephemeral_owner path;
               Hashtbl.replace t.nodes path node;
               add_child parent name node;
               parent.cversion <- saved_cversion;
               parent.pzxid <- saved_pzxid)
             :: !undo);
        events :=
          trigger
            (trigger
               (trigger !events t.data_watches Node_deleted path)
               t.child_watches Node_deleted path)
            t.child_watches Node_children_changed parent_path;
        Ok Txn.Deleted
      end

let apply_set t ~zxid ~time ~undo ~events ~path ~data ~expected_version =
  match Hashtbl.find_opt t.nodes path with
  | None -> Error Zerror.ZNONODE
  | Some node ->
    if expected_version >= 0 && expected_version <> node.version then
      Error Zerror.ZBADVERSION
    else begin
      let saved_data = node.data
      and saved_version = node.version
      and saved_mzxid = node.mzxid
      and saved_mtime = node.mtime in
      t.bytes <- t.bytes + String.length data - String.length node.data;
      node.data <- data;
      node.version <- node.version + 1;
      node.mzxid <- zxid;
      node.mtime <- time;
      (match undo with
       | None -> ()
       | Some undo ->
         undo := (fun () ->
             t.bytes <- t.bytes + String.length saved_data
                        - String.length node.data;
             node.data <- saved_data;
             node.version <- saved_version;
             node.mzxid <- saved_mzxid;
             node.mtime <- saved_mtime)
           :: !undo);
      events := trigger !events t.data_watches Node_data_changed path;
      Ok Txn.Data_set
    end

let apply_check t ~path ~expected_version =
  match Hashtbl.find_opt t.nodes path with
  | None -> Error Zerror.ZNONODE
  | Some node ->
    if expected_version >= 0 && expected_version <> node.version then
      Error Zerror.ZBADVERSION
    else Ok Txn.Checked

let apply t ~zxid ~time txn =
  if zxid <= t.last_zxid then
    invalid_arg
      (Printf.sprintf "Ztree.apply: zxid %Ld not beyond %Ld" zxid t.last_zxid);
  (* A failed op never mutates the tree, so a single-op transaction has
     nothing to roll back: skip allocating its undo closure entirely.
     Multi-op transactions record one closure per applied op. *)
  let undo_log = ref [] in
  let undo = match txn with [ _ ] -> None | _ -> Some undo_log in
  let events = ref [] in
  let rec run acc = function
    | [] -> Ok (List.rev acc)
    | op :: rest ->
      let result =
        match op with
        | Txn.Create { path; data; ephemeral_owner; sequential } ->
          apply_create t ~zxid ~time ~undo ~events ~path ~data
            ~ephemeral_owner ~sequential
        | Txn.Delete { path; expected_version } ->
          apply_delete t ~zxid ~time ~undo ~events ~path ~expected_version
        | Txn.Set_data { path; data; expected_version } ->
          apply_set t ~zxid ~time ~undo ~events ~path ~data ~expected_version
        | Txn.Check { path; expected_version } ->
          apply_check t ~path ~expected_version
      in
      (match result with
       | Ok item -> run (item :: acc) rest
       | Error _ as e -> e)
  in
  match run [] txn with
  | Ok items ->
    t.last_zxid <- zxid;
    (* Fire watches in registration/processing order, post-commit. *)
    List.iter (fun (_, cb, event) -> cb event) (List.rev !events);
    Ok items
  | Error _ as e ->
    List.iter (fun rollback -> rollback ()) !undo_log;
    (* re-arm the watches the aborted ops had taken *)
    List.iter (fun (table, cb, event) -> add_watch table event.path cb) !events;
    e

(* {2 Introspection} *)

let node_count t = Hashtbl.length t.nodes
let last_zxid t = t.last_zxid
let resident_bytes t = t.bytes + znode_overhead_bytes (* root *)

let equal_state a b =
  Hashtbl.length a.nodes = Hashtbl.length b.nodes
  && Hashtbl.fold
       (fun path (n : node) acc ->
         acc
         &&
         match Hashtbl.find_opt b.nodes path with
         | None -> false
         | Some m ->
           n.data = m.data && n.version = m.version && n.cversion = m.cversion
           && Hashtbl.length n.children = Hashtbl.length m.children)
       a.nodes true

let fingerprint t =
  Hashtbl.fold
    (fun path (n : node) acc ->
      acc lxor Hashtbl.hash (path, n.data, n.version, n.cversion))
    t.nodes 0

(* {2 Snapshots}

   Length-prefixed fields, so paths and data need no escaping:
     ZTREEv1 <last_zxid>\n
     <n>\n
     then per node (sorted by path for deterministic output):
     <len>:<path><len>:<data> v cv sq cz mz pz <ctime-bits> <mtime-bits> eo\n
   Children sets are reconstructed from the node paths themselves. *)

let add_len_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

(* [Printf "%Lx"] of the IEEE bits: lowercase, no leading zeros. *)
let add_float_bits b f =
  let v = Int64.bits_of_float f in
  let nibble i = Int64.to_int (Int64.shift_right_logical v (4 * i)) land 0xf in
  let top = ref 15 in
  while !top > 0 && nibble !top = 0 do decr top done;
  for i = !top downto 0 do
    Buffer.add_char b "0123456789abcdef".[nibble i]
  done

(* Bytes of a node line besides its path and data: two length prefixes,
   three counters, three zxids, two 16-digit float hexes, the owner, the
   separators and the newline, at the sizes a typical tree holds. *)
let line_fixed_bytes = 96

(* A frozen image: every node's path with a copy of its record, so later
   mutations of the live node do not show through. Paths, data and the
   boxed zxids/times are immutable and shared with the live tree; child
   sets are not kept ([deserialize] rebuilds them from paths). A list,
   not an array: fresh cons cells stay on the minor heap, where an array
   this size would pay a write barrier per slot. *)
type image = { i_zxid : int64; i_nodes : (string * node) list }

let capture t =
  { i_zxid = t.last_zxid;
    i_nodes =
      Hashtbl.fold
        (fun path (n : node) acc -> (path, { n with children = no_children }) :: acc)
        t.nodes [] }

let encode img =
  let size = ref 64 and count = ref 0 in
  List.iter
    (fun (path, (n : node)) ->
      incr count;
      size := !size + line_fixed_bytes + String.length path + String.length n.data)
    img.i_nodes;
  let buf = Buffer.create !size in
  let field s =
    Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "ZTREEv1";
  field (Int64.to_string img.i_zxid);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int !count);
  Buffer.add_char buf '\n';
  List.iter
    (fun (path, (n : node)) ->
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
    (List.sort (fun (a, _) (b, _) -> String.compare a b) img.i_nodes);
  Buffer.contents buf

let serialize t = encode (capture t)

exception Bad_snapshot of string

let deserialize s =
  let pos = ref 0 in
  let fail msg = raise (Bad_snapshot msg) in
  let read_line () =
    match String.index_from_opt s !pos '\n' with
    | None -> fail "truncated"
    | Some i ->
      let line = String.sub s !pos (i - !pos) in
      pos := i + 1;
      line
  in
  let read_str () =
    match String.index_from_opt s !pos ':' with
    | None -> fail "missing length prefix"
    | Some i ->
      let len =
        match int_of_string_opt (String.sub s !pos (i - !pos)) with
        | Some len when len >= 0 && i + 1 + len <= String.length s -> len
        | Some _ | None -> fail "bad length prefix"
      in
      let str = String.sub s (i + 1) len in
      pos := i + 1 + len;
      str
  in
  try
    let header = read_line () in
    let last_zxid =
      match String.split_on_char ' ' header with
      | [ "ZTREEv1"; zxid ] ->
        (match Int64.of_string_opt zxid with
         | Some z -> z
         | None -> fail "bad zxid")
      | _ -> fail "bad header"
    in
    let count =
      match int_of_string_opt (read_line ()) with
      | Some n when n >= 1 -> n
      | Some _ | None -> fail "bad node count"
    in
    let t =
      { nodes = Hashtbl.create (2 * count);
        data_watches = Hashtbl.create 64;
        child_watches = Hashtbl.create 64;
        ephemerals = Hashtbl.create 16;
        last_zxid;
        bytes = 0 }
    in
    for _ = 1 to count do
      let path = read_str () in
      let data = read_str () in
      let fields = String.split_on_char ' ' (read_line ()) in
      match fields with
      | [ ""; v; cv; sq; cz; mz; pz; ct; mt; eo ] ->
        let int_field name x =
          match int_of_string_opt x with Some v -> v | None -> fail ("bad " ^ name)
        in
        let i64_field name x =
          match Int64.of_string_opt x with Some v -> v | None -> fail ("bad " ^ name)
        in
        let node =
          { data;
            children = no_children;
            version = int_field "version" v;
            cversion = int_field "cversion" cv;
            seq_counter = int_field "seq" sq;
            czxid = i64_field "czxid" cz;
            mzxid = i64_field "mzxid" mz;
            pzxid = i64_field "pzxid" pz;
            ctime = Int64.float_of_bits (i64_field "ctime" ("0x" ^ ct));
            mtime = Int64.float_of_bits (i64_field "mtime" ("0x" ^ mt));
            ephemeral_owner = i64_field "owner" eo }
        in
        if Hashtbl.mem t.nodes path then fail "duplicate path";
        Hashtbl.replace t.nodes path node;
        record_ephemeral t ~owner:node.ephemeral_owner path;
        t.bytes <- t.bytes + node_bytes path node
      | _ -> fail "bad node record"
    done;
    if not (Hashtbl.mem t.nodes "/") then fail "no root";
    (* match live accounting: the root's overhead and path are excluded
       from [bytes] (counted once in [resident_bytes]), its data is not *)
    t.bytes <- t.bytes - (znode_overhead_bytes + 1);
    (* rebuild children sets from paths *)
    Hashtbl.iter
      (fun path node ->
        if path <> "/" then begin
          match Hashtbl.find_opt t.nodes (Zpath.parent path) with
          | Some parent -> add_child parent (Zpath.basename path) node
          | None -> fail ("dangling node " ^ path)
        end)
      t.nodes;
    Ok t
  with Bad_snapshot msg -> Error ("Ztree.deserialize: " ^ msg)
