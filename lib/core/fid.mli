(** File Identifiers (§IV-E).

    A FID is a 128-bit integer: the 64-bit id of the DUFS client instance
    that created the file, concatenated with that client's 64-bit file
    creation counter. FIDs are generated without any coordination and
    uniquely identify a file's physical contents for its whole life —
    renames never change the FID. *)

type t = private { client_id : int64; counter : int64 }

val make : client_id:int64 -> counter:int64 -> t
val equal : t -> t -> bool
val compare : t -> t -> int

(** 32 lowercase hex characters: client id (16) then counter (16). *)
val to_hex : t -> string

(** Inverse of {!to_hex}; upper-case digits are accepted too. *)
val of_hex : string -> t option

(** [of_hex_at s pos] — {!of_hex} of the suffix of [s] from [pos], read
    in place. *)
val of_hex_at : string -> int -> t option

(** [is_hex_at s pos] is [Option.is_some (of_hex_at s pos)], without
    building the FID. *)
val is_hex_at : string -> int -> bool

(** [hex_digits s i stop] — the value of the hex digits [s.[i..stop-1]]
    (either case; none gives 0), or -1 if one is not a hex digit or
    there are more than 15 of them. Allocates nothing. *)
val hex_digits : string -> int -> int -> int

(** [hex_run s i] — the index of the first byte of [s] at or after [i]
    that is not a hex digit (either case), or the length of [s]. *)
val hex_run : string -> int -> int

(** 16 bytes, big-endian — the input to the mapping function. *)
val to_bytes : t -> string

val pp : Format.formatter -> t -> unit

(** Per-client generator. A restarted client must be given a fresh
    [client_id]; the counter then restarts at zero (§IV-E). *)
module Gen : sig
  type fid = t
  type t

  val create : client_id:int64 -> t

  (** Number of FIDs generated so far. *)
  val generated : t -> int64

  val next : t -> fid
end
