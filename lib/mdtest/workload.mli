(** mdtest-style metadata workload definition (paper §V).

    The paper runs mdtest over a directory skeleton with fan-out 10; as
    the number of client processes grows, the number of items per
    directory grows with it. Our skeleton is the same shape scaled to
    simulation size (fan-out 10, depth 2 by default — the paper's depth-5
    tree only adds more skeleton directories, not a different contention
    pattern), and each process then creates / stats / removes its own
    items spread round-robin across the shared leaf directories. *)

type tree = { fan_out : int; depth : int }

type config = {
  procs : int;
  dirs_per_proc : int;
  files_per_proc : int;
  tree : tree;
  unique_working_dirs : bool;
      (** mdtest -u: give each process a private directory instead of
          sharing the leaf directories (ablation for lock contention) *)
}

(** @raise Invalid_argument if [procs < 1], or if the shared tree (no
    [unique_working_dirs]) has no leaves: [fan_out < 1] or [depth < 1]. *)
val config :
  ?dirs_per_proc:int ->
  ?files_per_proc:int ->
  ?tree:tree ->
  ?unique_working_dirs:bool ->
  procs:int ->
  unit ->
  config

(** All skeleton directory paths, parents before children. *)
val skeleton : config -> string list

(** Leaf directories items get spread over (for process [proc]). *)
val leaves_for : config -> proc:int -> string list

(** [dir_path cfg ~proc ~item] / [file_path cfg ~proc ~item] — deterministic
    item placement: leaf chosen round-robin, name unique per (proc, item). *)
val dir_path : config -> proc:int -> item:int -> string

val file_path : config -> proc:int -> item:int -> string

(** Total items of each kind across all processes. *)
val total_dirs : config -> int

val total_files : config -> int
