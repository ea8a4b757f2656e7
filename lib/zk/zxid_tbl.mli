(** Hash tables keyed by zxid. Zxids are dense counters, so the low bits
    of the key are already a good hash, and lookups skip the generic
    polymorphic hash. Iteration order differs from [Hashtbl]'s: callers
    that care must sort. *)

include Hashtbl.S with type key = int64
