type tree = { fan_out : int; depth : int }

type config = {
  procs : int;
  dirs_per_proc : int;
  files_per_proc : int;
  tree : tree;
  unique_working_dirs : bool;
}

let default_tree = { fan_out = 10; depth = 2 }

let config ?(dirs_per_proc = 100) ?(files_per_proc = 100) ?(tree = default_tree)
    ?(unique_working_dirs = false) ~procs () =
  if procs < 1 then invalid_arg "Workload.config: procs < 1";
  if (not unique_working_dirs) && (tree.fan_out < 1 || tree.depth < 1) then
    invalid_arg "Workload.config: shared tree needs fan_out >= 1 and depth >= 1";
  { procs; dirs_per_proc; files_per_proc; tree; unique_working_dirs }

(* Shared skeleton: /t0 .. /t9, /t0/t0 .. — parents before children. *)
let shared_skeleton tree =
  let rec level parents depth acc =
    if depth = 0 then List.rev acc
    else begin
      let children =
        List.concat_map
          (fun parent ->
            List.init tree.fan_out (fun i ->
                (if parent = "/" then "" else parent) ^ "/t" ^ string_of_int i))
          parents
      in
      level children (depth - 1) (List.rev_append children acc)
    end
  in
  level [ "/" ] tree.depth []

let leaf_count tree =
  let rec pow n = if n = 0 then 1 else tree.fan_out * pow (n - 1) in
  pow tree.depth

(* Leaf [i] of the shared skeleton, in [shared_skeleton]'s order: the
   base-[fan_out] digits of [i], most significant first, are its /tD
   components. *)
let add_shared_leaf b tree i =
  let rec digits level i =
    if level > 0 then begin
      digits (level - 1) (i / tree.fan_out);
      Buffer.add_string b "/t";
      Buffer.add_string b (string_of_int (i mod tree.fan_out))
    end
  in
  digits tree.depth i

let shared_leaf tree i =
  let b = Buffer.create 32 in
  add_shared_leaf b tree i;
  Buffer.contents b

let skeleton cfg =
  if cfg.unique_working_dirs then
    List.init cfg.procs (fun p -> "/proc" ^ string_of_int p)
  else shared_skeleton cfg.tree

let leaves_for cfg ~proc =
  if cfg.unique_working_dirs then [ "/proc" ^ string_of_int proc ]
  else List.init (leaf_count cfg.tree) (shared_leaf cfg.tree)

let place cfg ~proc ~item ~prefix =
  let b = Buffer.create 48 in
  if cfg.unique_working_dirs then begin
    Buffer.add_string b "/proc";
    Buffer.add_string b (string_of_int proc)
  end
  else add_shared_leaf b cfg.tree ((proc + item) mod leaf_count cfg.tree);
  Buffer.add_char b '/';
  Buffer.add_string b prefix;
  Buffer.add_char b '.';
  Buffer.add_string b (string_of_int proc);
  Buffer.add_char b '.';
  Buffer.add_string b (string_of_int item);
  Buffer.contents b

let dir_path cfg ~proc ~item = place cfg ~proc ~item ~prefix:"dir.mdtest"
let file_path cfg ~proc ~item = place cfg ~proc ~item ~prefix:"file.mdtest"

let total_dirs cfg = cfg.procs * cfg.dirs_per_proc
let total_files cfg = cfg.procs * cfg.files_per_proc
