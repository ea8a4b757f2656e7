(** The experiment table: every experiment [dufs_bench] runs — the
    paper's figures ({!Figures}), the extension ablations and the
    gated drivers — declared once, and the one runner that writes each
    run's BENCH file and gates it. *)

(** A run's bench points and its check failures (empty = pass). *)
type outcome = Mdtest.Report.bench_point list * string list

(** One experiment. *)
type t = {
  id : string;  (** what [dufs_bench] runs it by *)
  doc : string;  (** its [--help] line *)
  bench : string option;
      (** its BENCH file's stem, e.g. [BENCH_pr2]: see {!bench_file} *)
  gated : bool;
      (** whether its failures fail the run; false only for the paper
          figures (fig7-fig11), which check nothing *)
  run : unit -> outcome;  (** the full run *)
  smoke : (string * (unit -> outcome)) option;
      (** the CI smoke's doc line and run, a smaller shape of the same
          driver *)
}

(** Every experiment, in the order [all] runs them. *)
val table : t list

(** The file a run of [e] writes: [<stem>.json], or [<stem>_smoke.json]
    for its smoke; [None] when [e] writes none. *)
val bench_file : t -> smoke:bool -> string option

(** [run e] runs [e] (its smoke with [~smoke:true]), writes the points
    to {!bench_file}, printing [wrote <path> (<n> bench points)], then,
    if [e] is gated, hands the failures to {!Mdtest.Report.gate} under
    [e]'s id, which prints its gate line.
    @raise Failure naming the id and every failure, after writing the
    file, when a gated run fails.
    @raise Invalid_argument for [~smoke:true] on a row without one. *)
val run : ?smoke:bool -> t -> unit

(** Every id [dufs_bench] accepts, with its doc line and what it runs:
    each experiment under its id, its smoke under [<id>-smoke], and
    [all], which runs every experiment's full run in table order. *)
val ids : (string * string * (unit -> unit)) list

(** The ids CI runs: each gated experiment's smoke, or the experiment
    itself when it has no smoke. *)
val ci_ids : string list
