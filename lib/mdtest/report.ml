(* {2 Machine-readable bench points} *)

type latency_stats = {
  samples : int;
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

type shard_stat = {
  shard : int;
  znodes : int;
  writes_committed : int;
  dedup_hits : int;
  queue_wait_mean_s : float option;
}

type bench_point = {
  experiment : string;
  procs : int;
  config : string;
  ops_per_sec : float;
  latency : latency_stats option;
  phases : (string * float) list;
  shards : shard_stat list;
}

let point ~experiment ~procs ~config ~ops_per_sec ?latency ?(phases = [])
    ?(shards = []) () =
  { experiment; procs; config; ops_per_sec; latency; phases; shards }

let phase p name =
  match List.assoc_opt name p.phases with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Report.phase: %s has no %s" p.experiment name)

let latency_of_runner (l : Runner.latency) =
  { samples = l.Runner.samples;
    mean_s = l.Runner.mean;
    p50_s = l.Runner.p50;
    p95_s = l.Runner.p95;
    p99_s = l.Runner.p99;
    max_s = l.Runner.max }

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

(* Every float is checked before it reaches the file: a bench JSON with
   NaN/Infinity in it is worse than a crashed bench run. *)
let finite ~experiment ~field v =
  if Float.is_finite v then v
  else
    invalid_arg
      (Printf.sprintf "Report.emit_json: %s.%s is not finite" experiment field)

let emit_json ~path points =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i p ->
      let f = finite ~experiment:p.experiment in
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"procs\": %d, \"config\": \"%s\", \
         \"ops_per_sec\": %.3f"
        (json_escape p.experiment) p.procs (json_escape p.config)
        (f ~field:"ops_per_sec" p.ops_per_sec);
      (match p.latency with
       | None -> ()
       | Some l ->
         Printf.fprintf oc
           ", \"latency\": {\"samples\": %d, \"mean_s\": %.9g, \"p50_s\": \
            %.9g, \"p95_s\": %.9g, \"p99_s\": %.9g, \"max_s\": %.9g}"
           l.samples
           (f ~field:"mean_s" l.mean_s)
           (f ~field:"p50_s" l.p50_s)
           (f ~field:"p95_s" l.p95_s)
           (f ~field:"p99_s" l.p99_s)
           (f ~field:"max_s" l.max_s));
      (match p.phases with
       | [] -> ()
       | phases ->
         output_string oc ", \"phases\": {";
         List.iteri
           (fun j (name, dur) ->
             if j > 0 then output_string oc ", ";
             Printf.fprintf oc "\"%s\": %.9g" (json_escape name)
               (f ~field:name dur))
           phases;
         output_string oc "}");
      (match p.shards with
       | [] -> ()
       | shards ->
         output_string oc ", \"shards\": [";
         List.iteri
           (fun j s ->
             if j > 0 then output_string oc ", ";
             Printf.fprintf oc
               "{\"shard\": %d, \"znodes\": %d, \"writes_committed\": %d, \
                \"dedup_hits\": %d"
               s.shard s.znodes s.writes_committed s.dedup_hits;
             (match s.queue_wait_mean_s with
              | None -> ()
              | Some q ->
                Printf.fprintf oc ", \"queue_wait_mean_s\": %.9g"
                  (f ~field:(Printf.sprintf "shard%d.queue_wait" s.shard) q));
             output_string oc "}")
           shards;
         output_string oc "]");
      Printf.fprintf oc "}%s\n" (if i < List.length points - 1 then "," else ""))
    points;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d bench points)\n%!" path (List.length points)

(* {2 Rendering} *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_figure ~title experiment points =
  print_header title;
  let points = List.filter (fun p -> p.experiment = experiment) points in
  let configs =
    List.fold_left
      (fun seen p -> if List.mem p.config seen then seen else seen @ [ p.config ])
      [] points
  in
  let width = 24 in
  Printf.printf "%-10s" "procs";
  List.iter (fun config -> Printf.printf " %*s" width config) configs;
  Printf.printf "   [ops/sec]\n";
  List.iter
    (fun procs ->
      Printf.printf "%-10d" procs;
      List.iter
        (fun config ->
          match List.find_opt (fun p -> p.procs = procs && p.config = config) points with
          | Some p -> Printf.printf " %*.0f" width p.ops_per_sec
          | None -> Printf.printf " %*s" width "-")
        configs;
      print_newline ())
    (List.sort_uniq compare (List.map (fun p -> p.procs) points));
  flush stdout

let print_ratio ~label v = Printf.printf "  %-58s %8.2fx\n%!" label v

let or_missing x = if Float.is_finite x then x else -1.
let missing_as_nan x = if x = -1. then Float.nan else x

type column = string * string * (float -> string, unit, string) format

let column_header (cols : column list) =
  String.concat ""
    (List.map
       (fun (h, _, fmt) -> Printf.sprintf " %*s" (String.length (Printf.sprintf fmt 0.)) h)
       cols)

let column_cells (cols : column list) p =
  String.concat ""
    (List.map
       (fun (_, name, fmt) -> " " ^ Printf.sprintf fmt (missing_as_nan (phase p name)))
       cols)

let print_rows key cols points =
  List.iter (fun p -> print_endline (key p ^ column_cells cols p)) points

let print_table (header, key) cols points =
  print_endline (header ^ column_header cols);
  print_rows key cols points

(* {2 Experiment gates} *)

let expect ok fmt = Printf.ksprintf (fun m -> if ok then [] else [ m ]) fmt

let gate ~experiment = function
  | [] -> Printf.printf "\n  gate: %s — every check passed\n%!" experiment
  | failures ->
    List.iter (Printf.printf "  GATE FAIL: %s\n") failures;
    flush stdout;
    failwith
      (Printf.sprintf "%s: %d check(s) failed: %s" experiment
         (List.length failures)
         (String.concat "; " failures))
