type t = {
  replicas : int;
  node_ids : int list;
  (* ring points sorted by position *)
  points : (int * int) array;  (* (position, node id) *)
}

let point_of node replica = Md5.to_int (Md5.digest (Printf.sprintf "node:%d:%d" node replica))

let build ~replicas node_ids =
  let points =
    List.concat_map
      (fun node -> List.init replicas (fun r -> (point_of node r, node)))
      node_ids
  in
  let points = Array.of_list points in
  Array.sort compare points;
  { replicas; node_ids = List.sort_uniq compare node_ids; points }

let create ?(replicas = 64) node_ids =
  if node_ids = [] then invalid_arg "Consistent_hash.create: no nodes";
  if replicas < 1 then invalid_arg "Consistent_hash.create: replicas < 1";
  if List.length (List.sort_uniq compare node_ids) <> List.length node_ids then
    invalid_arg "Consistent_hash.create: duplicate node ids";
  build ~replicas node_ids


let lookup t key =
  let h = Md5.to_int (Md5.digest key) in
  let points = t.points in
  let n = Array.length points in
  (* first point with position >= h, wrapping around *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst points.(mid) < h then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  snd points.(if i = n then 0 else i)

let add_node t id =
  if List.mem id t.node_ids then invalid_arg "Consistent_hash.add_node: duplicate";
  build ~replicas:t.replicas (id :: t.node_ids)

let remove_node t id =
  if not (List.mem id t.node_ids) then invalid_arg "Consistent_hash.remove_node: missing";
  match List.filter (fun n -> n <> id) t.node_ids with
  | [] -> invalid_arg "Consistent_hash.remove_node: would empty the ring"
  | rest -> build ~replicas:t.replicas rest

let relocated ~before ~after keys =
  match keys with
  | [] -> 0.
  | _ ->
    let moved =
      List.fold_left
        (fun acc key -> if lookup before key <> lookup after key then acc + 1 else acc)
        0 keys
    in
    float_of_int moved /. float_of_int (List.length keys)
