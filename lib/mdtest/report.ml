type series = {
  label : string;
  points : (int * float) list;
}

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_figure ~title ~x_label ?(unit_label = "ops/sec") series =
  print_header title;
  let xs =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.points) series)
  in
  let width = 24 in
  Printf.printf "%-10s" x_label;
  List.iter (fun s -> Printf.printf " %*s" width s.label) series;
  Printf.printf "   [%s]\n" unit_label;
  List.iter
    (fun x ->
      Printf.printf "%-10d" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some v -> Printf.printf " %*.0f" width v
          | None -> Printf.printf " %*s" width "-")
        series;
      print_newline ())
    xs;
  flush stdout

let print_ratio ~label v = Printf.printf "  %-58s %8.2fx\n%!" label v

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
