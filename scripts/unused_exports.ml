(* Lists every value and record field that a [lib/**/*.mli] exports and
   that no compilation unit outside its own module and [test/] refers
   to. Run by [scripts/unused-exports.sh], which builds the typed trees
   first ([dune build @check]) and checks the findings against its
   allowlist.

   It reads the compiler's typed trees, not the source text: an
   interface's [.cmti] gives each export's declaration site, and every
   identifier, field access, field update, record construction and
   record pattern in an implementation's [.cmt] carries the declaration
   site of what it names. A reference from another module goes through
   that module's interface, so it carries the [.mli] site; a reference
   inside the defining module carries its [.ml] site and so never counts.

   Usage: unused_exports.exe BUILD_DIR (normally _build/default).
   Prints one finding per line, "<file>:<line> <key> <kind> <users>",
   where <key> is Module.name for a value and Module.type.field for a
   field, and <users> is "test" when only tests refer to it and "none"
   otherwise. *)

open Typedtree

(* The source trees whose references count as callers; [test] is read
   too, but only to tell "test" findings from "none". *)
let caller_roots = [ "lib"; "bin"; "examples"; "perfbench" ]

let site (loc : Location.t) =
  (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

type export = { file : string; line : int; key : string; kind : string }

let exports = ref []

let add_export ~path (loc : Location.t) name kind =
  exports :=
    ( site loc,
      { file = loc.loc_start.pos_fname;
        line = loc.loc_start.pos_lnum;
        key = String.concat "." (List.rev (name :: path));
        kind } )
    :: !exports

let rec signature ~path (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> add_export ~path vd.val_loc vd.val_name.txt "value"
      | Tsig_type (_, decls) ->
        List.iter
          (fun td ->
            match td.typ_kind with
            | Ttype_record labels ->
              List.iter
                (fun ld ->
                  add_export ~path:(td.typ_name.txt :: path) ld.ld_loc
                    ld.ld_name.txt "field")
                labels
            | _ -> ())
          decls
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _ } ->
        signature ~path:(name :: path) sg
      | _ -> ())
    sg.sig_items

(* declaration site -> the source roots that refer to it *)
let refs : (string * int, string list) Hashtbl.t = Hashtbl.create 4096

let add_ref ~root (loc : Location.t) =
  let k = site loc in
  let roots = Option.value (Hashtbl.find_opt refs k) ~default:[] in
  if not (List.mem root roots) then Hashtbl.replace refs k (root :: roots)

let iterator ~root =
  let open Tast_iterator in
  let label (l : Types.label_description) = add_ref ~root l.lbl_loc in
  let expr self e =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) -> add_ref ~root vd.val_loc
     | Texp_field (_, _, l) | Texp_setfield (_, _, l, _) -> label l
     | Texp_record { fields; _ } ->
       Array.iter
         (function l, Overridden _ -> label l | _, Kept _ -> ())
         fields
     | _ -> ());
    default_iterator.expr self e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
     | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> label l) fields
     | _ -> ());
    default_iterator.pat self p
  in
  { default_iterator with expr; pat }

let top_dir file =
  match String.index_opt file '/' with
  | Some i -> String.sub file 0 i
  | None -> ""

let read_unit path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_sourcefile, cmt.cmt_annots) with
  | Some src, Interface sg when top_dir src = "lib" ->
    signature ~path:[ String.capitalize_ascii Filename.(remove_extension (basename src)) ] sg
  | Some src, Implementation str when List.mem (top_dir src) ("test" :: caller_roots) ->
    let it = iterator ~root:(top_dir src) in
    it.structure it str
  | _ -> ()

let rec walk dir =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then read_unit path)
    (Sys.readdir dir)

let () =
  let build = if Array.length Sys.argv > 1 then Sys.argv.(1) else "_build/default" in
  List.iter
    (fun root ->
      let dir = Filename.concat build root in
      if Sys.file_exists dir then walk dir)
    ("test" :: caller_roots);
  if !exports = [] then (
    prerr_endline "unused_exports: no lib/ interfaces found; build with dune build @check";
    exit 2);
  let findings =
    List.filter_map
      (fun (k, e) ->
        let roots = Option.value (Hashtbl.find_opt refs k) ~default:[] in
        if List.exists (fun r -> List.mem r caller_roots) roots then None
        else Some (e, if List.mem "test" roots then "test" else "none"))
      !exports
  in
  List.sort compare findings
  |> List.iter (fun (e, users) ->
         Printf.printf "%s:%d %s %s %s\n" e.file e.line e.key e.kind users)
