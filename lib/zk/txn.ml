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

