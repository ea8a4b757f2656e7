(* RFC 1321 via the stdlib: [Digest] is MD5, computed in C. *)

let digest = Digest.string
let hex s = Digest.to_hex (Digest.string s)

(* The low 62 bits of the big-endian first 8 bytes. Stored FID
   placements depend on exactly these bits. *)
let to_int raw = Int64.to_int (String.get_int64_be raw 0) land max_int
