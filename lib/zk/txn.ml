type op =
  | Create of {
      path : string;
      data : string;
      ephemeral_owner : int64;
      sequential : bool;
    }
  | Delete of { path : string; expected_version : int }
  | Set_data of { path : string; data : string; expected_version : int }
  | Check of { path : string; expected_version : int }

type t = op list

type result_item =
  | Created of string
  | Deleted
  | Data_set
  | Checked

let op_path = function
  | Create { path; _ } | Delete { path; _ } | Set_data { path; _ } | Check { path; _ }
    -> path

let pp_op fmt = function
  | Create { path; sequential; ephemeral_owner; _ } ->
    Format.fprintf fmt "create%s%s %s"
      (if sequential then "/seq" else "")
      (if ephemeral_owner <> 0L then "/eph" else "")
      path
  | Delete { path; expected_version } ->
    Format.fprintf fmt "delete %s v%d" path expected_version
  | Set_data { path; expected_version; _ } ->
    Format.fprintf fmt "set %s v%d" path expected_version
  | Check { path; expected_version } ->
    Format.fprintf fmt "check %s v%d" path expected_version

let pp fmt t =
  Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_op) t
