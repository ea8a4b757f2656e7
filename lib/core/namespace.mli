(** Walking the DUFS virtual namespace stored in the coordination
    service, for {!Fsck}. *)

type entry = {
  vpath : string;   (** virtual path as the user sees it *)
  meta : Meta.t;
}

(** [scan coord ~zroot] — every entry under [zroot] (the root directory
    itself excluded), parents before children. Fails with the first
    coordination error encountered; undecodable znode payloads are
    returned with their raw data wrapped in [`Undecodable]. *)
val scan :
  Zk.Zk_client.handle ->
  zroot:string ->
  ((entry, [ `Undecodable of string * string ]) Either.t list, Zk.Zerror.t) result

(** Only the regular files, with their FIDs. *)
val files :
  Zk.Zk_client.handle -> zroot:string -> ((string * Fid.t) list, Zk.Zerror.t) result
