module Stat = Simkit.Stat

module Gauge = struct
  type t = { mutable value : float }

  let create () = { value = 0. }
  let set t v = t.value <- v
  let add t v = t.value <- t.value +. v
  let value t = t.value
end

type metric =
  | Counter of Stat.Counter.t
  | Gauge of Gauge.t
  | Summary of Stat.Summary.t
  | Histogram of Stat.Histogram.t

type t = {
  table : (string, metric) Hashtbl.t;
  (* registration order, so snapshots are stable across runs *)
  mutable order : string list;
}

let create () = { table = Hashtbl.create 64; order = [] }

let register t name metric =
  Hashtbl.replace t.table name metric;
  t.order <- name :: t.order

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Summary _ -> "summary"
  | Histogram _ -> "histogram"

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

let gauge t name =
  get_or_create t name
    ~make:(fun () ->
      let g = Gauge.create () in
      (g, Gauge g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let summary t name =
  get_or_create t name
    ~make:(fun () ->
      let s = Stat.Summary.create () in
      (s, Summary s))
    ~cast:(function Summary s -> Some s | _ -> None)

(* Default span: 100 ns .. 100 s, ~7% relative bucket resolution. *)
let histogram ?(lo = 1e-7) ?(hi = 100.) ?(buckets = 300) t name =
  get_or_create t name
    ~make:(fun () ->
      let h = Stat.Histogram.create ~lo ~hi ~buckets () in
      (h, Histogram h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let names t = List.rev t.order
let find t name = Hashtbl.find_opt t.table name

let counter_opt t name =
  match find t name with Some (Counter c) -> Some c | _ -> None

let summary_opt t name =
  match find t name with Some (Summary s) -> Some s | _ -> None

let histogram_opt t name =
  match find t name with Some (Histogram h) -> Some h | _ -> None

(* {2 The single snapshot-to-JSON path}

   Every number passes through [num], which refuses to emit NaN or
   infinities — a snapshot is either honest JSON or an error, never
   silently poisoned. Empty summaries/histograms omit their extrema and
   quantiles entirely rather than writing 0.0. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num name v =
  if Float.is_finite v then Printf.sprintf "%.9g" v
  else invalid_arg (Printf.sprintf "Metrics.to_json: %s is not finite" name)

let fields_of name = function
  | Counter c -> [ ("kind", "\"counter\""); ("value", string_of_int (Stat.Counter.value c)) ]
  | Gauge g -> [ ("kind", "\"gauge\""); ("value", num name (Gauge.value g)) ]
  | Summary s ->
    [ ("kind", "\"summary\""); ("count", string_of_int (Stat.Summary.count s)) ]
    @ (if Stat.Summary.count s = 0 then []
       else
         [ ("mean", num name (Stat.Summary.mean s));
           ("stddev", num name (Stat.Summary.stddev s)) ]
         @ (match Stat.Summary.min s with
            | Some v -> [ ("min", num name v) ]
            | None -> [])
         @ (match Stat.Summary.max s with
            | Some v -> [ ("max", num name v) ]
            | None -> []))
  | Histogram h ->
    [ ("kind", "\"histogram\"");
      ("count", string_of_int (Stat.Histogram.count h));
      ("overflow", string_of_int (Stat.Histogram.overflow h)) ]
    @ (if Stat.Histogram.count h = 0 then []
       else
         [ ("p50", num name (Stat.Histogram.quantile h 0.5));
           ("p95", num name (Stat.Histogram.quantile h 0.95));
           ("p99", num name (Stat.Histogram.quantile h 0.99)) ]
         @
         match Stat.Histogram.max_seen h with
         | Some v -> [ ("max", num name v) ]
         | None -> [])

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let names = names t in
  List.iteri
    (fun i name ->
      let metric = Hashtbl.find t.table name in
      Buffer.add_string buf (Printf.sprintf "  \"%s\": {" (json_escape name));
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "\"%s\": %s" k v))
        (fields_of name metric);
      Buffer.add_string buf "}";
      if i < List.length names - 1 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n")
    names;
  Buffer.add_string buf "}";
  Buffer.contents buf
