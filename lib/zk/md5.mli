(** MD5 message digest (RFC 1321).

    DUFS uses MD5 as the uniform hash inside its deterministic mapping
    function (§IV-F) and the WAL uses it as its record checksum. The
    bytes come from the stdlib's [Digest]; the RFC vectors in the test
    suite pin the algorithm. *)

(** One-shot digest: 16 raw bytes. *)
val digest : string -> string

(** One-shot digest as 32 lowercase hex characters. *)
val hex : string -> string

(** First 8 digest bytes as a non-negative int (big-endian, sign bit
    cleared) — the integer the mapping function reduces mod N. *)
val to_int : string -> int
