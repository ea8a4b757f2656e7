(** Absolute-path algebra shared by all VFS implementations.

    Paths are rooted at ["/"]; components never contain ['/'] and are never
    ["."] or [".."]. [normalize] collapses repeated slashes and strips a
    trailing slash; it does not resolve ["."]/[".."], which are rejected. *)

val max_component : int
(** Longest accepted component (NAME_MAX equivalent, 255). *)

(** [validate p] is [Ok ()] for a well-formed absolute path: [EINVAL]
    for a relative or empty path or a ["."]/[".."] component,
    [ENAMETOOLONG] whenever a component is longer than {!max_component}.
    Doubled and trailing separators are accepted. *)
val validate : string -> (unit, Errno.t) result

(** [normalize p] collapses duplicate separators and removes any trailing
    separator (["/"] stays ["/"]). An already normal [p] is returned
    itself, not a copy. *)
val normalize : string -> string

(** [split p] is the component list of a normalized path; [split "/"] =
    [split ""] = []. *)
val split : string -> string list

(** [join comps] rebuilds an absolute path; [join []] = ["/"]. *)
val join : string list -> string

(** [parent p] and [basename p]; [parent "/"] = [parent ""] = ["/"],
    [basename "/"] = [basename ""] = "". On a relative path they read
    its first byte as the root separator. *)
val parent : string -> string

val basename : string -> string

(** [concat dir name] appends one component. *)
val concat : string -> string -> string

(** [is_prefix ~prefix p]: is [p] equal to or inside [prefix]? *)
val is_prefix : prefix:string -> string -> bool

(** [depth p] is the number of components. *)
val depth : string -> int
