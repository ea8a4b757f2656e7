(* A sampling profiler for the simulator's own host CPU time.

   A SIGPROF interval timer fires once per [interval] seconds of process
   CPU time, and the handler records the OCaml call stack
   ([Printexc.get_callstack]) as raw entries. Entries are resolved into
   frame names only in [report], after sampling has stopped.

   Limits, which matter when reading the numbers:
   - OCaml 5 runs signal handlers at safepoints (allocations and loop
     polls), not at the interrupted instruction. A sample lands on the
     next safepoint, so a frame that allocates right after a long
     non-allocating stretch is charged for that stretch.
   - GC work is charged to whichever frame allocated when the collector
     ran, not to the code that produced the garbage.
   - C primitives (hashing, [memmove], [compare]) have no OCaml frame:
     their time is charged to the OCaml frame that called them.
   - Frames come from debug information, so an inlined function shows
     as its own frame only when the compiler recorded it.
   - Only the innermost [max_depth] frames of a deeper stack are kept.
   - Each simulated process runs on its own effect fiber, so a stack
     ends at its fiber's entry point, not at [main]. *)

let max_depth = 256

type t = {
  stacks : (Printexc.raw_backtrace_entry array, int ref) Hashtbl.t;
  mutable samples : int;
}

let record t =
  let entries =
    Printexc.raw_backtrace_entries (Printexc.get_callstack max_depth)
  in
  t.samples <- t.samples + 1;
  match Hashtbl.find_opt t.stacks entries with
  | Some n -> incr n
  | None -> Hashtbl.replace t.stacks entries (ref 1)

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let start ?(interval = 0.001) () =
  let t = { stacks = Hashtbl.create 4096; samples = 0 } in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> record t));
  set_timer interval;
  t

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let slot_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

let is_own_frame name = String.starts_with ~prefix:"Dune__exe__Hostprof." name

(* A sample's frames, leaf first, without the profiler's own handler
   frames on top. An inlined call expands into one frame per function. *)
let frames entries =
  let names =
    Array.to_list entries
    |> List.concat_map (fun e ->
           match Printexc.backtrace_slots_of_raw_entry e with
           | Some slots -> List.map slot_name (Array.to_list slots)
           | None -> [])
  in
  let rec drop = function
    | name :: rest when is_own_frame name -> drop rest
    | names -> names
  in
  drop names

let top_lines ~total counts n =
  List.sort (fun (_, a) (_, b) -> compare b a) counts
  |> List.filteri (fun i _ -> i < n)
  |> List.iter (fun (name, c) ->
         Printf.printf "  %6.2f%%  %7d  %s\n"
           (100. *. float_of_int c /. float_of_int (max total 1))
           c name)

(* Print the [n] heaviest frames by self and by inclusive samples, and
   write one folded stack per line ("outer;...;leaf count", the input
   format of flame-graph tools) to [file]. *)
let report ?(n = 25) t ~file =
  let self = Hashtbl.create 1024 and incl = Hashtbl.create 1024 in
  let bump tbl name c =
    Hashtbl.replace tbl name
      (c + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  let oc = open_out file in
  Hashtbl.iter
    (fun entries count ->
      let c = !count in
      match frames entries with
      | [] -> ()
      | leaf :: _ as names ->
        bump self leaf c;
        List.iter (fun name -> bump incl name c) (List.sort_uniq compare names);
        output_string oc (String.concat ";" (List.rev names));
        Printf.fprintf oc " %d\n" c)
    t.stacks;
  close_out oc;
  let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Printf.printf "host profile: %d samples\n" t.samples;
  print_endline "top self frames:";
  top_lines ~total:t.samples (to_list self) n;
  print_endline "top inclusive frames:";
  top_lines ~total:t.samples (to_list incl) n;
  Printf.printf "wrote %s (folded stacks)\n" file

(* Run [f] under the sampler and report on it, even when [f] raises. *)
let profile ~file f =
  let t = start () in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      report t ~file)
    f
