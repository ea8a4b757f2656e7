(** Consistency checker for a DUFS deployment.

    DUFS splits the truth between the coordination service (names, FIDs)
    and the back-end mounts (file contents). [scan] cross-checks the two:
    every file znode must have its physical file on exactly the back-end
    the mapping function selects, and every physical file must be owned by
    some znode. [repair] fixes what can be fixed mechanically. *)

type issue =
  | Missing_physical of { vpath : string; fid : Fid.t; backend : int }
      (** znode exists but the mapped back-end has no physical file *)
  | Misplaced_physical of {
      vpath : string;
      fid : Fid.t;
      expected : int;
      actual : int;
    }  (** physical file found, but on the wrong back-end *)
  | Orphan_physical of { backend : int; path : string }
      (** physical file not referenced by any znode *)
  | Double_presence of { vpath : string; fid : Fid.t; expected : int; extra : int }
      (** physical file present on its mapped back-end {e and} a second
          one — a copy of the file to another back-end whose source
          unlink never happened, e.g. a migration between back-ends that
          died between its copy and its unlink *)
  | Undecodable_meta of { vpath : string; data : string }
      (** znode data field is not a valid DUFS payload *)

type report = {
  issues : issue list;
  files_checked : int;
  dirs_checked : int;
  physicals_checked : int;
}

val pp_issue : Format.formatter -> issue -> unit
val is_clean : report -> bool

(** [scan ~coord ~backends ()] — read-only cross-check. *)
val scan :
  coord:Zk.Zk_client.handle ->
  backends:Fuselike.Vfs.ops array ->
  ?layout:Physical.layout ->
  ?zroot:string ->
  unit ->
  (report, Zk.Zerror.t) result

type repair_stats = {
  recreated : int;    (** empty physical files created for missing ones *)
  moved : int;        (** misplaced physical files moved home *)
  deleted : int;      (** orphan physical files removed *)
  deduplicated : int; (** stale double-presence copies removed *)
  unrepairable : int;
}

(** [repair ~coord ~backends report] applies mechanical fixes:
    missing physicals are recreated empty (the contents are gone),
    misplaced physicals are copied to the mapped back-end and removed from
    the wrong one, orphans are deleted, the stale copy of a double
    presence is unlinked (the home copy is authoritative). Undecodable
    metadata is left for a human. *)
val repair :
  backends:Fuselike.Vfs.ops array ->
  ?layout:Physical.layout ->
  report ->
  repair_stats
