module Process = Simkit.Process
module Resource = Simkit.Resource
module Vfs = Fuselike.Vfs
module Memfs = Fuselike.Memfs
module Fspath = Fuselike.Fspath

type config = {
  net_latency : float;
  mds_count : int;
  mds_threads : int;
  local_update_service : float;
  remote_update_service : float;
  lookup_service : float;
  global_lock_hold : float;
  cross_ratio : float;
  thrash : float;
}

let default_config ~mds_count =
  { net_latency = Costs.gige_latency;
    mds_count;
    mds_threads = Costs.Lustre.mds_threads;
    (* one shard behaves like a regular Lustre MDS *)
    local_update_service = Costs.Lustre.mkdir_service;
    remote_update_service = Costs.Lustre.mkdir_service /. 2.;
    lookup_service = Costs.Lustre.getattr_service;
    (* grant + two-phase update + release over the wire *)
    global_lock_hold = 4. *. Costs.gige_latency;
    cross_ratio = -1.;
    thrash = Costs.Lustre.thrash }

type t = {
  cfg : config;
  fs : Memfs.t;
  fs_ops : Vfs.ops;
  servers : Mdserver.t array;
  global_lock : Resource.t;
  mutable lock_acquisitions : int;
}

let create engine ?config () =
  let cfg = match config with Some c -> c | None -> default_config ~mds_count:2 in
  let fs = Memfs.create ~clock:(fun () -> Simkit.Engine.now engine) () in
  { cfg;
    fs;
    fs_ops = Memfs.ops fs;
    servers =
      Array.init cfg.mds_count (fun _ ->
          Mdserver.create engine ~threads:cfg.mds_threads ~thrash:cfg.thrash
            ~net_latency:cfg.net_latency ());
    global_lock = Resource.create ~capacity:1 ();
    lock_acquisitions = 0 }

let local_ops t = t.fs_ops
let global_lock_acquisitions t = t.lock_acquisitions

let shard t key = Hashtbl.hash key mod t.cfg.mds_count

(* Does this mutation span two servers? The new object's server is an
   independent hash, so with k servers a fraction (k-1)/k of updates
   cross; an explicit [cross_ratio] overrides for ablations. *)
let crosses t ~parent_key ~object_key =
  if t.cfg.cross_ratio >= 0. then
    (* deterministic pseudo-choice so runs stay reproducible *)
    float_of_int (Hashtbl.hash (parent_key, object_key) land 0xFFFF) /. 65536.
    < t.cfg.cross_ratio
  else shard t parent_key <> shard t object_key

let lookup t ~key ~service f =
  Mdserver.request t.servers.(shard t key) ~service f

(* A namespace mutation: the parent's shard does the update; if the new
   object hashes to a different server, both are updated under the global
   lock (grant, remote visit, release). *)
let update t ~parent_key ~object_key ~service f =
  if not (crosses t ~parent_key ~object_key) then
    Mdserver.request t.servers.(shard t parent_key) ~service f
  else begin
    t.lock_acquisitions <- t.lock_acquisitions + 1;
    Resource.with_slot t.global_lock (fun () ->
        Process.sleep t.cfg.global_lock_hold;
        Mdserver.request t.servers.(shard t parent_key) ~service ignore;
        Mdserver.request
          t.servers.(shard t object_key)
          ~service:t.cfg.remote_update_service f)
  end

let raw_client t ~client_id:_ =
  let cfg = t.cfg in
  let fs = t.fs_ops in
  let parent = Fspath.parent in
  { Vfs.getattr =
      (fun path -> lookup t ~key:path ~service:cfg.lookup_service (fun () ->
           fs.Vfs.getattr path));
    access =
      (fun path -> lookup t ~key:path ~service:cfg.lookup_service (fun () ->
           fs.Vfs.access path));
    mkdir =
      (fun path ~mode ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.local_update_service (fun () -> fs.Vfs.mkdir path ~mode));
    rmdir =
      (fun path ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.local_update_service (fun () -> fs.Vfs.rmdir path));
    create =
      (fun path ~mode ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.local_update_service (fun () -> fs.Vfs.create path ~mode));
    unlink =
      (fun path ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.local_update_service (fun () -> fs.Vfs.unlink path));
    rename =
      (fun src dst ->
        (* rename touches both parents: treat them as the two endpoints *)
        update t ~parent_key:(parent src) ~object_key:(parent dst)
          ~service:cfg.local_update_service (fun () -> fs.Vfs.rename src dst));
    readdir =
      (fun path -> lookup t ~key:path ~service:cfg.lookup_service (fun () ->
           fs.Vfs.readdir path));
    symlink =
      (fun ~target path ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.local_update_service (fun () -> fs.Vfs.symlink ~target path));
    readlink =
      (fun path -> lookup t ~key:path ~service:cfg.lookup_service (fun () ->
           fs.Vfs.readlink path));
    chmod =
      (fun path ~mode ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.lookup_service (fun () -> fs.Vfs.chmod path ~mode));
    truncate =
      (fun path ~size ->
        update t ~parent_key:(parent path) ~object_key:path
          ~service:cfg.lookup_service (fun () -> fs.Vfs.truncate path ~size));
    read =
      (fun path ~off ~len ->
        Process.sleep (2. *. cfg.net_latency);
        fs.Vfs.read path ~off ~len);
    write =
      (fun path ~off payload ->
        Process.sleep (2. *. cfg.net_latency);
        fs.Vfs.write path ~off payload);
    statfs = fs.Vfs.statfs }

let client t ~client_id = Vfs.absolute_only (raw_client t ~client_id)
