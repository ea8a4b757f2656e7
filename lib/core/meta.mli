(** The payload DUFS stores in each znode's custom data field (§IV-D):
    whether the node is a directory or a file, and in the latter case its
    FID. Directories additionally carry their permission bits and creation
    time, since they exist only at the metadata level. *)

type kind =
  | Dir
  | File of Fid.t
  | Symlink of string

type t = {
  kind : kind;
  mode : int;
  ctime : float;
}

val dir : mode:int -> ctime:float -> t
val file : Fid.t -> mode:int -> ctime:float -> t
val symlink : target:string -> ctime:float -> t

val equal : t -> t -> bool

(** Compact single-line encoding stored as znode data. *)
val encode : t -> string

(** [decode s] — [Error] on malformed payloads (never raises). *)
val decode : string -> (t, string) result

(** The kind a payload decodes to, without its FID or target. *)
type kind_tag = Dir_tag | File_tag | Symlink_tag

(** [kind_tag s] is the tag of [decode s]'s kind, and [None] exactly
    when [decode s] is an [Error]. It checks [s] in place and allocates
    nothing: listings classify their entries with it. *)
val kind_tag : string -> kind_tag option

val pp : Format.formatter -> t -> unit
