module Engine = Simkit.Engine

type action =
  | Crash of int
  | Restart of int
  | Crash_leader
  | Restart_all_down
  | Crash_on of int * int
  | Restart_on of int * int
  | Crash_leader_of of int
  (* network faults; the shard option is None for "shard 0" (i.e. the
     whole deployment when unsharded), mirroring the crash actions *)
  | Partition of int option * int list list
  | Heal of int option  (* None heals every shard's network *)
  | Drop of int option * float
  | Delay of int option * float
  | Duplicate of int option * float
  | Reorder of int option * float * float  (* probability, window seconds *)
  (* storage faults: one member's WAL device or media, shard-qualified
     like the crash actions (None = shard 0) *)
  | Torn_tail of int option * int
  | Corrupt_wal of int option * int * float  (* fraction of records *)
  | Corrupt_snap of int option * int
  | Disk_stall of int option * int * float  (* fail-stop, seconds *)
  | Fsync_delay of int option * int * float  (* fail-slow, seconds *)

type anchor =
  | At of float
  | After_phase of string * float

type event = {
  anchor : anchor;
  action : action;
}

type t = event list

(* {2 Grammar} *)

let shard_prefix = function
  | None -> ""
  | Some s -> Printf.sprintf "%d/" s

let groups_to_string groups =
  String.concat "|"
    (List.map
       (fun g -> String.concat "," (List.map string_of_int g))
       groups)

let action_to_string = function
  | Crash id -> Printf.sprintf "crash=%d" id
  | Restart id -> Printf.sprintf "restart=%d" id
  | Crash_leader -> "crash-leader"
  | Restart_all_down -> "restart-all"
  | Crash_on (shard, id) -> Printf.sprintf "crash=%d/%d" shard id
  | Restart_on (shard, id) -> Printf.sprintf "restart=%d/%d" shard id
  | Crash_leader_of shard -> Printf.sprintf "crash-leader@shard=%d" shard
  | Partition (sh, groups) ->
    Printf.sprintf "partition=%s%s" (shard_prefix sh) (groups_to_string groups)
  | Heal None -> "heal"
  | Heal (Some s) -> Printf.sprintf "heal@shard=%d" s
  | Drop (sh, p) -> Printf.sprintf "drop=%s%g" (shard_prefix sh) p
  | Delay (sh, d) -> Printf.sprintf "delay+=%s%g" (shard_prefix sh) d
  | Duplicate (sh, p) -> Printf.sprintf "dup=%s%g" (shard_prefix sh) p
  | Reorder (sh, p, w) ->
    Printf.sprintf "reorder=%s%g:%g" (shard_prefix sh) p w
  | Torn_tail (sh, id) -> Printf.sprintf "torn-tail=%s%d" (shard_prefix sh) id
  | Corrupt_wal (sh, id, p) ->
    Printf.sprintf "corrupt-wal=%s%d:%g" (shard_prefix sh) id p
  | Corrupt_snap (sh, id) ->
    Printf.sprintf "corrupt-snap=%s%d" (shard_prefix sh) id
  | Disk_stall (sh, id, d) ->
    Printf.sprintf "disk-stall=%s%d:%g" (shard_prefix sh) id d
  | Fsync_delay (sh, id, d) ->
    Printf.sprintf "fsync-delay+=%s%d:%g" (shard_prefix sh) id d

let anchor_to_string = function
  | At time -> Printf.sprintf "%g" time
  | After_phase (phase, offset) -> Printf.sprintf "%s+%g" phase offset

let event_to_string e = action_to_string e.action ^ "@" ^ anchor_to_string e.anchor
let to_string plan = String.concat ";" (List.map event_to_string plan)

let ( let* ) = Result.bind

(* "<shard>/<rest>" splits off an optional shard qualifier; a bare
   argument keeps the single-ensemble (shard 0) meaning. *)
let split_shard arg =
  match String.index_opt arg '/' with
  | None -> Ok (None, arg)
  | Some j -> (
    match int_of_string_opt (String.sub arg 0 j) with
    | Some s when s >= 0 ->
      Ok (Some s, String.sub arg (j + 1) (String.length arg - j - 1))
    | _ -> Error (Printf.sprintf "bad shard qualifier %S" arg))

(* Durations accept "2ms"/"500us"/"2s" suffixes or bare seconds; the
   canonical form printed by [to_string] is bare seconds. *)
let parse_duration str =
  let suffixed suffix scale =
    let sl = String.length suffix and l = String.length str in
    if l > sl && String.sub str (l - sl) sl = suffix then
      Option.map
        (fun v -> v *. scale)
        (float_of_string_opt (String.sub str 0 (l - sl)))
    else None
  in
  match suffixed "us" 1e-6 with
  | Some v -> Some v
  | None -> (
    match suffixed "ms" 1e-3 with
    | Some v -> Some v
    | None -> (
      match float_of_string_opt str with
      | Some v -> Some v
      | None -> suffixed "s" 1.))

let parse_probability str =
  match float_of_string_opt str with
  | Some p when p >= 0. && p <= 1. -> Ok p
  | _ -> Error (Printf.sprintf "bad probability %S" str)

let parse_groups str =
  let parse_group g =
    match String.split_on_char ',' g with
    | [] | [ "" ] -> Error (Printf.sprintf "empty partition group in %S" str)
    | ids ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | id :: rest -> (
          match int_of_string_opt id with
          | Some id when id >= 0 -> go (id :: acc) rest
          | _ -> Error (Printf.sprintf "bad member id %S" id))
      in
      go [] ids
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest ->
      let* group = parse_group g in
      go (group :: acc) rest
  in
  match String.split_on_char '|' str with
  | [] | [ "" ] -> Error (Printf.sprintf "empty partition spec %S" str)
  | groups -> go [] groups

let parse_server_id str =
  match int_of_string_opt str with
  | Some id when id >= 0 -> Ok id
  | _ -> Error (Printf.sprintf "bad server id %S" str)

(* "<id>:<value>" — the shared shape of the parameterized storage
   faults (corrupt-wal fraction, disk-stall / fsync-delay+ duration). *)
let split_server_value verb str =
  match String.index_opt str ':' with
  | None -> Error (Printf.sprintf "%s wants <id>:<value>, got %S" verb str)
  | Some j ->
    let* id = parse_server_id (String.sub str 0 j) in
    Ok (id, String.sub str (j + 1) (String.length str - j - 1))

let parse_action str =
  match str with
  | "crash-leader" -> Ok Crash_leader
  | "restart-all" -> Ok Restart_all_down
  | "heal" -> Ok (Heal None)
  | _ -> (
    match String.index_opt str '=' with
    | None -> Error (Printf.sprintf "unknown action %S" str)
    | Some i -> (
      let verb = String.sub str 0 i in
      let arg = String.sub str (i + 1) (String.length str - i - 1) in
      match verb with
      | "crash" | "restart" -> (
        (* a "<shard>/<id>" argument targets one shard of a sharded
           deployment; a bare "<id>" keeps the single-ensemble meaning *)
        let target =
          match String.index_opt arg '/' with
          | None -> Option.map (fun id -> (None, id)) (int_of_string_opt arg)
          | Some j -> (
            let shard = String.sub arg 0 j
            and id = String.sub arg (j + 1) (String.length arg - j - 1) in
            match (int_of_string_opt shard, int_of_string_opt id) with
            | Some s, Some id -> Some (Some s, id)
            | _ -> None)
        in
        match (verb, target) with
        | "crash", Some (None, id) when id >= 0 -> Ok (Crash id)
        | "restart", Some (None, id) when id >= 0 -> Ok (Restart id)
        | "crash", Some (Some s, id) when s >= 0 && id >= 0 ->
          Ok (Crash_on (s, id))
        | "restart", Some (Some s, id) when s >= 0 && id >= 0 ->
          Ok (Restart_on (s, id))
        | _ -> Error (Printf.sprintf "bad server id %S" arg))
      | "crash-leader@shard" -> (
        match int_of_string_opt arg with
        | Some s when s >= 0 -> Ok (Crash_leader_of s)
        | _ -> Error (Printf.sprintf "bad shard %S" arg))
      | "heal@shard" -> (
        match int_of_string_opt arg with
        | Some s when s >= 0 -> Ok (Heal (Some s))
        | _ -> Error (Printf.sprintf "bad shard %S" arg))
      | "partition" ->
        let* sh, rest = split_shard arg in
        let* groups = parse_groups rest in
        Ok (Partition (sh, groups))
      | "drop" ->
        let* sh, rest = split_shard arg in
        let* p = parse_probability rest in
        Ok (Drop (sh, p))
      | "dup" ->
        let* sh, rest = split_shard arg in
        let* p = parse_probability rest in
        Ok (Duplicate (sh, p))
      | "delay+" -> (
        let* sh, rest = split_shard arg in
        match parse_duration rest with
        | Some d when d >= 0. -> Ok (Delay (sh, d))
        | _ -> Error (Printf.sprintf "bad delay %S" arg))
      | "reorder" -> (
        let* sh, rest = split_shard arg in
        match String.index_opt rest ':' with
        | None -> Error (Printf.sprintf "reorder wants <p>:<window>, got %S" arg)
        | Some j -> (
          let* p = parse_probability (String.sub rest 0 j) in
          match
            parse_duration (String.sub rest (j + 1) (String.length rest - j - 1))
          with
          | Some w when w >= 0. -> Ok (Reorder (sh, p, w))
          | _ -> Error (Printf.sprintf "bad reorder window %S" arg)))
      | "torn-tail" ->
        let* sh, rest = split_shard arg in
        let* id = parse_server_id rest in
        Ok (Torn_tail (sh, id))
      | "corrupt-snap" ->
        let* sh, rest = split_shard arg in
        let* id = parse_server_id rest in
        Ok (Corrupt_snap (sh, id))
      | "corrupt-wal" ->
        let* sh, rest = split_shard arg in
        let* id, value = split_server_value verb rest in
        let* p = parse_probability value in
        Ok (Corrupt_wal (sh, id, p))
      | "disk-stall" -> (
        let* sh, rest = split_shard arg in
        let* id, value = split_server_value verb rest in
        match parse_duration value with
        | Some d when d >= 0. -> Ok (Disk_stall (sh, id, d))
        | _ -> Error (Printf.sprintf "bad stall duration %S" arg))
      | "fsync-delay+" -> (
        let* sh, rest = split_shard arg in
        let* id, value = split_server_value verb rest in
        match parse_duration value with
        | Some d when d >= 0. -> Ok (Fsync_delay (sh, id, d))
        | _ -> Error (Printf.sprintf "bad fsync delay %S" arg))
      | _ -> Error (Printf.sprintf "unknown action %S" str)))

let parse_anchor str =
  match float_of_string_opt str with
  | Some time when time >= 0. -> Ok (At time)
  | Some _ -> Error (Printf.sprintf "negative time %S" str)
  | None -> (
    match String.index_opt str '+' with
    | None ->
      if str = "" then Error "empty anchor" else Ok (After_phase (str, 0.))
    | Some i -> (
      let phase = String.sub str 0 i in
      let offset = String.sub str (i + 1) (String.length str - i - 1) in
      match float_of_string_opt offset with
      | Some off when off >= 0. && phase <> "" -> Ok (After_phase (phase, off))
      | _ -> Error (Printf.sprintf "bad anchor %S" str)))

let parse_event str =
  (* the anchor follows the LAST '@': anchors never contain one, while
     the sharded action "crash-leader@shard=<k>" does *)
  match String.rindex_opt str '@' with
  | None -> Error (Printf.sprintf "event %S: expected <action>@<anchor>" str)
  | Some i ->
    let* action = parse_action (String.sub str 0 i) in
    let* anchor = parse_anchor (String.sub str (i + 1) (String.length str - i - 1)) in
    Ok { anchor; action }

let parse s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | str :: rest ->
      let* event = parse_event (String.trim str) in
      go (event :: acc) rest
  in
  go []
    (List.filter
       (fun str -> String.trim str <> "")
       (String.split_on_char ';' s))

(* {2 Arming a plan against a live ensemble} *)

type armed = {
  engine : Engine.t;
  (* shard 0 is the whole deployment for single-ensemble plans *)
  ensembles : Zk.Ensemble.t array;
  (* phase name -> events waiting for that phase to begin *)
  by_phase : (string, (float * action) list) Hashtbl.t;
  mutable fired : int;
}

let crash_leader_of ensemble =
  match Zk.Ensemble.leader_id ensemble with
  | Some id -> Zk.Ensemble.crash ensemble id
  | None -> () (* no leader to kill: the previous one is still down *)

let restart_down ensemble =
  let alive = Zk.Ensemble.alive_ids ensemble in
  List.iter
    (fun id -> if not (List.mem id alive) then Zk.Ensemble.restart ensemble id)
    (Zk.Ensemble.member_ids ensemble)

(* A shard index beyond the deployment is a plan/deployment mismatch:
   ignoring it would silently weaken the schedule under test. *)
let shard armed s =
  if s < 0 || s >= Array.length armed.ensembles then
    invalid_arg (Printf.sprintf "Faultplan: no shard %d in this deployment" s)
  else armed.ensembles.(s)

(* [heal] at plan level means "give the network back": partitions and
   one-way blocks go, and every probabilistic knob returns to zero — so
   a chaos schedule's closing heal leaves a clean network for recovery
   measurement. *)
let heal_ensemble e =
  Zk.Ensemble.heal e;
  Zk.Ensemble.set_drop e 0.;
  Zk.Ensemble.set_extra_delay e 0.;
  Zk.Ensemble.set_duplicate e 0.;
  Zk.Ensemble.set_reorder e ~p:0. ~window:0.

let shard_opt armed = function
  | None -> armed.ensembles.(0)
  | Some s -> shard armed s

let perform armed action =
  armed.fired <- armed.fired + 1;
  match action with
  | Crash id -> Zk.Ensemble.crash armed.ensembles.(0) id
  | Restart id -> Zk.Ensemble.restart armed.ensembles.(0) id
  | Crash_leader -> crash_leader_of armed.ensembles.(0)
  | Crash_on (s, id) -> Zk.Ensemble.crash (shard armed s) id
  | Restart_on (s, id) -> Zk.Ensemble.restart (shard armed s) id
  | Crash_leader_of s -> crash_leader_of (shard armed s)
  | Restart_all_down -> Array.iter restart_down armed.ensembles
  | Partition (sh, groups) -> Zk.Ensemble.partition (shard_opt armed sh) groups
  | Heal None -> Array.iter heal_ensemble armed.ensembles
  | Heal (Some s) -> heal_ensemble (shard armed s)
  | Drop (sh, p) -> Zk.Ensemble.set_drop (shard_opt armed sh) p
  | Delay (sh, d) -> Zk.Ensemble.set_extra_delay (shard_opt armed sh) d
  | Duplicate (sh, p) -> Zk.Ensemble.set_duplicate (shard_opt armed sh) p
  | Reorder (sh, p, w) -> Zk.Ensemble.set_reorder (shard_opt armed sh) ~p ~window:w
  | Torn_tail (sh, id) -> Zk.Ensemble.tear_wal_tail (shard_opt armed sh) id
  | Corrupt_wal (sh, id, p) ->
    Zk.Ensemble.corrupt_wal (shard_opt armed sh) id ~fraction:p
  | Corrupt_snap (sh, id) -> Zk.Ensemble.corrupt_snapshot (shard_opt armed sh) id
  | Disk_stall (sh, id, d) ->
    Zk.Ensemble.disk_stall (shard_opt armed sh) id ~duration:d
  | Fsync_delay (sh, id, d) ->
    Zk.Ensemble.add_fsync_delay (shard_opt armed sh) id d

let arm_shards engine ensembles plan =
  if Array.length ensembles = 0 then invalid_arg "Faultplan.arm_shards: no shards";
  let armed = { engine; ensembles; by_phase = Hashtbl.create 8; fired = 0 } in
  List.iter
    (fun { anchor; action } ->
      match anchor with
      | At time ->
        let delay = Float.max 0. (time -. Engine.now engine) in
        Engine.schedule engine ~delay (fun () -> perform armed action)
      | After_phase (phase, offset) ->
        let waiting =
          Option.value ~default:[] (Hashtbl.find_opt armed.by_phase phase)
        in
        Hashtbl.replace armed.by_phase phase (waiting @ [ (offset, action) ]))
    plan;
  armed

let notify_phase armed phase =
  match Hashtbl.find_opt armed.by_phase phase with
  | None -> ()
  | Some events ->
    Hashtbl.remove armed.by_phase phase;
    List.iter
      (fun (offset, action) ->
        Engine.schedule armed.engine ~delay:offset (fun () -> perform armed action))
      events

let fired armed = armed.fired

(* {2 Chaos schedules} *)

(* Seed-deterministic random plans: partitions, loss, delay, duplication
   and crashes at sorted random times inside [start, heal_at), closed by
   a full heal plus restart-all at [heal_at] so every schedule ends with
   the network given back and recovery measurable. Reorder is left out
   on purpose: the protocol assumes FIFO links for reply routing, and a
   chaos schedule must only exercise faults the protocol claims to
   survive (DESIGN.md §7). *)
let chaos ~seed ~servers ?(shards = 1) ~start ~heal_at ~events () =
  if servers < 1 then invalid_arg "Faultplan.chaos: servers < 1";
  if shards < 1 then invalid_arg "Faultplan.chaos: shards < 1";
  if not (start >= 0. && heal_at > start) then
    invalid_arg "Faultplan.chaos: bad fault window";
  if events < 0 then invalid_arg "Faultplan.chaos: events < 0";
  let rng = Simkit.Rng.create ~seed in
  let sh () = if shards = 1 then None else Some (Simkit.Rng.int rng shards) in
  let random_split () =
    (* a random nonempty strict subset cut off from the rest (the
       unnamed members form the implicit other side) *)
    let ids = Array.init servers Fun.id in
    Simkit.Rng.shuffle rng ids;
    let k = 1 + Simkit.Rng.int rng (max 1 (servers - 1)) in
    [ Array.to_list (Array.sub ids 0 (min k (servers - 1))) ]
  in
  let random_action () =
    match Simkit.Rng.int rng 100 with
    | n when n < 28 -> Partition (sh (), random_split ())
    | n when n < 44 -> Drop (sh (), 0.01 +. (Simkit.Rng.float rng *. 0.09))
    | n when n < 58 -> Delay (sh (), 2e-4 +. (Simkit.Rng.float rng *. 1.8e-3))
    | n when n < 68 -> Duplicate (sh (), 0.01 +. (Simkit.Rng.float rng *. 0.04))
    | n when n < 78 -> (
      match sh () with None -> Crash_leader | Some s -> Crash_leader_of s)
    | n when n < 88 -> (
      let id = Simkit.Rng.int rng servers in
      match sh () with None -> Crash id | Some s -> Crash_on (s, id))
    | n when n < 94 -> Heal (sh ())
    | _ -> Restart_all_down
  in
  (* explicit loops: the draw order must not depend on unspecified
     evaluation order, or the same seed could yield different plans *)
  let times = Array.make events 0. in
  for i = 0 to events - 1 do
    times.(i) <- Simkit.Rng.uniform rng ~lo:start ~hi:heal_at
  done;
  Array.sort compare times;
  let body = ref [] in
  for i = 0 to events - 1 do
    body := { anchor = At times.(i); action = random_action () } :: !body
  done;
  List.rev !body
  @ [ { anchor = At heal_at; action = Heal None };
      { anchor = At heal_at; action = Restart_all_down } ]
