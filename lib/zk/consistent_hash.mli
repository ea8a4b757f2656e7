(** Consistent hashing ring with virtual nodes (the paper's §VII future
    work: add/remove back-end storages while keeping the amount of data to
    relocate bounded to ≈ 1/(N+1) of the keys). *)

type t

(** [create ~replicas node_ids] builds a ring with [replicas] virtual
    points per node. @raise Invalid_argument on empty [node_ids] or
    [replicas < 1]. *)
val create : ?replicas:int -> int list -> t

(** [lookup t key] — the node owning [key] (first virtual point clockwise
    of MD5(key)). *)
val lookup : t -> string -> int

(** [add_node t id] / [remove_node t id] return a new ring; [t] is
    unchanged. @raise Invalid_argument if [id] is already present /
    missing, or if removal would empty the ring. *)
val add_node : t -> int -> t

val remove_node : t -> int -> t

(** Fraction of [keys] whose owner differs between [before] and [after]. *)
val relocated : before:t -> after:t -> string list -> float
