(** Tables keyed by dense int64 counters: zxids, and the session ids and
    cxids of request ids. The table is an array window indexed by
    [key - base], so a lookup is one bounds check and one array read,
    and nothing is hashed or rehashed. The window follows the live keys:
    it compacts toward the lowest live key when the keys slide up, grows
    when they spread, and re-bases below itself for a key under the
    lowest one. Its capacity stays within [max n (2 * span)], where
    [span] is the widest range of live keys since [create n] or the last
    [reset] (the count of keys from the lowest to the highest, inclusive).
    Keys must therefore be dense: a few keys far apart cost memory in
    proportion to their distance.

    A slot holds its value itself, not an option: an empty slot holds a
    sentinel private to the module, compared by physical equality, so
    a binding costs one array word and no allocation of its own, for
    any value type ([unit], [int] and [float] included). [find_opt]
    allocates the [Some] it returns.

    [iter] and [fold] visit bindings in ascending key order. *)

type 'a t

(** [create n] is an empty table with room for [n] consecutive keys. *)
val create : int -> 'a t

val find_opt : 'a t -> int64 -> 'a option
val mem : 'a t -> int64 -> bool

(** [replace t k v] binds [k] to [v], dropping any previous binding. *)
val replace : 'a t -> int64 -> 'a -> unit

val remove : 'a t -> int64 -> unit
val length : 'a t -> int

(** An independent table with the same bindings. *)
val copy : 'a t -> 'a t

(** Empty the table and shrink it back to its initial capacity. *)
val reset : 'a t -> unit

(** The lowest and highest bound keys; [None] when empty. *)
val min_key : 'a t -> int64 option
val max_key : 'a t -> int64 option

(** Ascending key order. The table must not be changed during the walk. *)
val iter : (int64 -> 'a -> unit) -> 'a t -> unit
val fold : (int64 -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Slots allocated, live or not: the bound above is stated on it. *)
val capacity : 'a t -> int
