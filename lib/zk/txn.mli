(** Replicated transactions — the unit ZAB agrees on and every replica
    applies deterministically, in zxid order.

    A transaction is a list of operations applied atomically
    (all-or-nothing), which covers both single client calls and the
    multi-op updates DUFS uses for rename. *)

type op =
  | Create of {
      path : string;
      data : string;
      ephemeral_owner : int64;  (** 0 for persistent nodes *)
      sequential : bool;
    }
  | Delete of { path : string; expected_version : int }  (** -1 = any *)
  | Set_data of { path : string; data : string; expected_version : int }
  | Check of { path : string; expected_version : int }
      (** version guard used inside multi-transactions *)

type t = op list

type result_item =
  | Created of string  (** actual path (sequential suffix resolved) *)
  | Deleted
  | Data_set
  | Checked

(** Path touched by an op (the requested path, pre-sequential-suffix). *)
val op_path : op -> string
