(** The DUFS client (§IV): a stateless layer that merges N back-end
    mounts into one virtual POSIX filesystem.

    Each operation follows the paper's algorithms: the virtual path is
    looked up in the coordination service to obtain the znode (directories
    live entirely there; files carry their FID in the znode data field);
    for file contents the FID is run through the deterministic mapping
    function to select a back-end mount and the physical path is derived
    from the FID's hex representation. Clients never talk to each other —
    consistency comes from the coordination service's total order.

    A client works identically over {!Zk.Zk_local} + in-memory back-ends
    (immediate mode) and over a simulated ensemble + filesystem simulators
    (every call then blocks the calling simulation process). *)

type t

(** [mount ~coord ~backends ()] creates a client instance.

    @param client_id unique id of this DUFS instance (FID generation);
           defaults to the coordination session id.
    @param layout    physical-path layout; back-ends must have been
           formatted ({!Physical.format}) with the same layout.
    @param zroot     znode subtree holding the virtual namespace.
    @param clock     timestamp source for directory metadata.
    @param delay     charged [overhead] seconds per operation
           ([Simkit.Process.sleep] in simulations, ignore in immediate
           mode).
    @param overhead  per-op FUSE + DUFS cost (default
           {!Pfs.Costs} fuse_crossing + dufs_overhead equivalent).
    @param trace     span sink: when enabled, every POSIX op records a
           [dufs.<op>] root span against [clock]. Off by default
           ({!Obs.Trace.null}); recording never touches the clock. *)
val mount :
  coord:Zk.Zk_client.handle ->
  backends:Fuselike.Vfs.ops array ->
  ?client_id:int64 ->
  ?layout:Physical.layout ->
  ?zroot:string ->
  ?clock:(unit -> float) ->
  ?delay:(float -> unit) ->
  ?overhead:float ->
  ?trace:Obs.Trace.t ->
  unit ->
  t

(** The POSIX operation table of the mounted virtual filesystem. *)
val ops : t -> Fuselike.Vfs.ops

val backend_count : t -> int

(** FIDs generated by this instance so far. *)
val files_created : t -> int64

(** Breadcrumbs left when a file create's back-end write failed and the
    rollback delete of its znode then failed as well: each noted path is
    a [Missing_physical] orphan until {!Fsck.repair} clears it. Oldest
    first. *)
val orphan_notes : t -> string list

(** Back-end index a FID maps to: the paper's {!Mapping.md5_mod} over
    the mounted back-ends (exposed for tests and examples). *)
val locate : t -> Fid.t -> int

(** Modelled resident bytes of the client process — bounded regardless of
    namespace size (Fig. 11): FUSE channel buffers plus the ZooKeeper
    client library. *)
val resident_bytes : t -> int
