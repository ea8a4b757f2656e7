module Vfs = Fuselike.Vfs
module Errno = Fuselike.Errno
module Fspath = Fuselike.Fspath
module Inode = Fuselike.Inode

type issue =
  | Missing_physical of { vpath : string; fid : Fid.t; backend : int }
  | Misplaced_physical of {
      vpath : string;
      fid : Fid.t;
      expected : int;
      actual : int;
    }
  | Orphan_physical of { backend : int; path : string }
  | Double_presence of { vpath : string; fid : Fid.t; expected : int; extra : int }
  | Undecodable_meta of { vpath : string; data : string }

type report = {
  issues : issue list;
  files_checked : int;
  dirs_checked : int;
  physicals_checked : int;
}

let pp_issue fmt = function
  | Missing_physical { vpath; fid; backend } ->
    Format.fprintf fmt "missing physical: %s (fid %a) not on backend %d" vpath Fid.pp
      fid backend
  | Misplaced_physical { vpath; fid; expected; actual } ->
    Format.fprintf fmt "misplaced physical: %s (fid %a) on backend %d, maps to %d"
      vpath Fid.pp fid actual expected
  | Orphan_physical { backend; path } ->
    Format.fprintf fmt "orphan physical: backend %d %s" backend path
  | Double_presence { vpath; fid; expected; extra } ->
    Format.fprintf fmt
      "double presence: %s (fid %a) on backend %d and its home %d" vpath Fid.pp
      fid extra expected
  | Undecodable_meta { vpath; data } ->
    Format.fprintf fmt "undecodable metadata at %s: %S" vpath data

let is_clean report = report.issues = []

(* All FID-named physical files under the layout's hash directories. *)
let physical_files (ops : Vfs.ops) layout =
  let rec walk dir depth acc =
    match ops.Vfs.readdir dir with
    | Error _ -> acc
    | Ok entries ->
      List.fold_left
        (fun acc (e : Vfs.dirent) ->
          let child = Fspath.concat dir e.Vfs.name in
          match e.Vfs.kind with
          | Inode.Directory when depth < layout.Physical.levels -> walk child (depth + 1) acc
          | Inode.Directory | Inode.Symlink -> acc
          | Inode.Regular -> (
            match Fid.of_hex e.Vfs.name with
            | Some fid -> (child, fid) :: acc
            | None -> acc))
        acc entries
  in
  walk "/" 0 []

let scan ~coord ~backends ?(layout = Physical.default_layout)
    ?(zroot = "/dufs") () =
  match Namespace.scan coord ~zroot with
  | Error _ as e -> e
  | Ok entries ->
    let n = Array.length backends in
    let locate fid = Mapping.md5_mod ~backends:n fid in
    let issues = ref [] in
    let files = ref 0 and dirs = ref 0 in
    (* fids the namespace claims, with their expected location *)
    let claimed = Hashtbl.create 1024 in
    List.iter
      (function
        | Either.Left { Namespace.vpath; meta } ->
          (match meta.Meta.kind with
           | Meta.Dir -> incr dirs
           | Meta.Symlink _ -> ()
           | Meta.File fid ->
             incr files;
             let expected = locate fid in
             Hashtbl.replace claimed (Fid.to_hex fid) (vpath, fid, expected);
             let ppath = Physical.path layout fid in
             if not (Vfs.exists backends.(expected) ppath) then begin
               (* missing where it belongs — is it sitting elsewhere? *)
               let misplaced = ref None in
               Array.iteri
                 (fun i ops ->
                   if i <> expected && !misplaced = None && Vfs.exists ops ppath then
                     misplaced := Some i)
                 backends;
               match !misplaced with
               | Some actual ->
                 issues :=
                   Misplaced_physical { vpath; fid; expected; actual } :: !issues
               | None ->
                 issues := Missing_physical { vpath; fid; backend = expected } :: !issues
             end)
        | Either.Right (`Undecodable (vpath, data)) ->
          issues := Undecodable_meta { vpath; data } :: !issues)
      entries;
    (* physical files nobody claims, or claimed but on the wrong mount *)
    let physicals = ref 0 in
    Array.iteri
      (fun backend ops ->
        List.iter
          (fun (path, fid) ->
            incr physicals;
            match Hashtbl.find_opt claimed (Fid.to_hex fid) with
            | Some (_, _, expected) when expected = backend -> ()
            | Some (vpath, fid, expected) ->
              (* A claimed file on the wrong back-end. If its home copy
                 is missing, the namespace pass already reported it as
                 misplaced; if the home copy is also present — a copy
                 whose source unlink never happened — nothing else will
                 report it. *)
              if Vfs.exists backends.(expected) (Physical.path layout fid) then
                issues :=
                  Double_presence { vpath; fid; expected; extra = backend }
                  :: !issues
            | None -> issues := Orphan_physical { backend; path } :: !issues)
          (physical_files ops layout))
      backends;
    Ok
      { issues = List.rev !issues;
        files_checked = !files;
        dirs_checked = !dirs;
        physicals_checked = !physicals }

type repair_stats = {
  recreated : int;
  moved : int;
  deleted : int;
  deduplicated : int;
  unrepairable : int;
}

let copy_file (src : Vfs.ops) (dst : Vfs.ops) path =
  let ( let* ) = Result.bind in
  let* attr = src.Vfs.getattr path in
  let size = Int64.to_int attr.Inode.size in
  let* contents = src.Vfs.read path ~off:0 ~len:size in
  let* () =
    match dst.Vfs.create path ~mode:attr.Inode.mode with
    | Ok () | Error Errno.EEXIST -> Ok ()
    | Error _ as e -> e
  in
  let* _written = dst.Vfs.write path ~off:0 contents in
  dst.Vfs.chmod path ~mode:attr.Inode.mode

let repair ~backends ?(layout = Physical.default_layout) report =
  let stats =
    ref { recreated = 0; moved = 0; deleted = 0; deduplicated = 0; unrepairable = 0 }
  in
  let bump f = stats := f !stats in
  List.iter
    (fun issue ->
      match issue with
      | Missing_physical { fid; backend; _ } ->
        (match backends.(backend).Vfs.create (Physical.path layout fid) ~mode:0o644 with
         | Ok () -> bump (fun s -> { s with recreated = s.recreated + 1 })
         | Error _ -> bump (fun s -> { s with unrepairable = s.unrepairable + 1 }))
      | Misplaced_physical { fid; expected; actual; _ } ->
        let path = Physical.path layout fid in
        (match copy_file backends.(actual) backends.(expected) path with
         | Ok () ->
           (match backends.(actual).Vfs.unlink path with
            | Ok () | Error _ -> ());
           bump (fun s -> { s with moved = s.moved + 1 })
         | Error _ -> bump (fun s -> { s with unrepairable = s.unrepairable + 1 }))
      | Orphan_physical { backend; path } ->
        (match backends.(backend).Vfs.unlink path with
         | Ok () -> bump (fun s -> { s with deleted = s.deleted + 1 })
         | Error _ -> bump (fun s -> { s with unrepairable = s.unrepairable + 1 }))
      | Double_presence { fid; extra; _ } ->
        (* the home copy is authoritative; drop the stale one *)
        (match backends.(extra).Vfs.unlink (Physical.path layout fid) with
         | Ok () -> bump (fun s -> { s with deduplicated = s.deduplicated + 1 })
         | Error _ -> bump (fun s -> { s with unrepairable = s.unrepairable + 1 }))
      | Undecodable_meta _ ->
        bump (fun s -> { s with unrepairable = s.unrepairable + 1 }))
    report.issues;
  !stats
