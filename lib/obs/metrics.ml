module Stat = Simkit.Stat

type metric =
  | Counter of Stat.Counter.t
  | Summary of Stat.Summary.t
  | Latency of Stat.Latency.t

type t = {
  table : (string, metric) Hashtbl.t;
  (* registration order, so listings are stable across runs *)
  mutable order : string list;
}

let create () = { table = Hashtbl.create 64; order = [] }

let register t name metric =
  Hashtbl.replace t.table name metric;
  t.order <- name :: t.order

let kind_name = function
  | Counter _ -> "counter"
  | Summary _ -> "summary"
  | Latency _ -> "latency"

let get_or_create t name ~make ~cast =
  match Hashtbl.find_opt t.table name with
  | Some m -> (
    match cast m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name m)))
  | None ->
    let v, m = make () in
    register t name m;
    v

let counter t name =
  get_or_create t name
    ~make:(fun () ->
      let c = Stat.Counter.create () in
      (c, Counter c))
    ~cast:(function Counter c -> Some c | _ -> None)

let summary t name =
  get_or_create t name
    ~make:(fun () ->
      let s = Stat.Summary.create () in
      (s, Summary s))
    ~cast:(function Summary s -> Some s | _ -> None)

let latency t name =
  get_or_create t name
    ~make:(fun () ->
      let l = Stat.Latency.create () in
      (l, Latency l))
    ~cast:(function Latency l -> Some l | _ -> None)

let names t = List.rev t.order
let find t name = Hashtbl.find_opt t.table name

let counter_opt t name =
  match find t name with Some (Counter c) -> Some c | _ -> None

let summary_opt t name =
  match find t name with Some (Summary s) -> Some s | _ -> None

let latency_opt t name =
  match find t name with Some (Latency l) -> Some l | _ -> None
