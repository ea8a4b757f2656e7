module Process = Simkit.Process
module Resource = Simkit.Resource
module Vfs = Fuselike.Vfs
module Memfs = Fuselike.Memfs
module Fspath = Fuselike.Fspath

type config = {
  net_latency : float;
  mds_threads : int;
  mkdir_service : float;
  rmdir_service : float;
  create_service : float;
  unlink_service : float;
  getattr_service : float;
  readdir_service : float;
  setattr_service : float;
  rename_service : float;
  oss_create : float;
  lock_revoke : float;
  thrash : float;
  namespace_penalty : float;
  oss_bandwidth : float;
}

let default_config () =
  { net_latency = Costs.gige_latency;
    mds_threads = Costs.Lustre.mds_threads;
    mkdir_service = Costs.Lustre.mkdir_service;
    rmdir_service = Costs.Lustre.rmdir_service;
    create_service = Costs.Lustre.create_service;
    unlink_service = Costs.Lustre.unlink_service;
    getattr_service = Costs.Lustre.getattr_service;
    readdir_service = Costs.Lustre.readdir_service;
    setattr_service = Costs.Lustre.setattr_service;
    rename_service = Costs.Lustre.rename_service;
    oss_create = Costs.Lustre.oss_create;
    lock_revoke = Costs.Lustre.lock_revoke;
    thrash = Costs.Lustre.thrash;
    namespace_penalty = 1.0;
    oss_bandwidth = 100e6 }

let backend_config () =
  { (default_config ()) with
    namespace_penalty = Costs.Lustre.hashed_namespace_penalty }

type t = {
  cfg : config;
  fs : Memfs.t;
  fs_ops : Vfs.ops;
  mds : Mdserver.t;
  oss : Resource.t;
  (* DLM: last client to hold each directory's update lock *)
  lock_owners : (string, int) Hashtbl.t;
  mutable revokes : int;
}

let create engine ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  let fs = Memfs.create ~clock:(fun () -> Simkit.Engine.now engine) () in
  { cfg;
    fs;
    fs_ops = Memfs.ops fs;
    mds =
      Mdserver.create engine ~threads:cfg.mds_threads ~thrash:cfg.thrash
        ~net_latency:cfg.net_latency ();
    oss = Resource.create ~capacity:4 ();
    lock_owners = Hashtbl.create 1024;
    revokes = 0 }

let local_ops t = t.fs_ops
let lock_revokes t = t.revokes
let mds_served t = Mdserver.served t.mds
let mds_wait_summary t = Mdserver.wait_summary t.mds
let mds_hold_summary t = Mdserver.hold_summary t.mds

(* Cost of taking the parent directory's DLM update lock: free if this
   client already holds it, a blocking-AST round trip if it must be
   revoked from another client. *)
let dlm_visit t ~client_id dir =
  match Hashtbl.find_opt t.lock_owners dir with
  | Some owner when owner = client_id -> 0.
  | Some _ ->
    t.revokes <- t.revokes + 1;
    Hashtbl.replace t.lock_owners dir client_id;
    t.cfg.lock_revoke
  | None ->
    Hashtbl.replace t.lock_owners dir client_id;
    0.

let meta t ~client_id ?lock_dir ~service f =
  let extra =
    match lock_dir with
    | Some dir -> dlm_visit t ~client_id dir
    | None -> 0.
  in
  Mdserver.request t.mds ~service:(service *. t.cfg.namespace_penalty) ~extra f

let data t ~bytes f =
  Process.sleep t.cfg.net_latency;
  let service = 20e-6 +. (float_of_int bytes /. t.cfg.oss_bandwidth) in
  let result = Resource.with_slot t.oss (fun () -> Process.sleep service; f ()) in
  Process.sleep t.cfg.net_latency;
  result

let raw_client t ~client_id =
  let cfg = t.cfg in
  let fs = t.fs_ops in
  { Vfs.getattr =
      (fun path ->
        meta t ~client_id ~service:cfg.getattr_service (fun () -> fs.Vfs.getattr path));
    access =
      (fun path ->
        meta t ~client_id ~service:cfg.getattr_service (fun () -> fs.Vfs.access path));
    mkdir =
      (fun path ~mode ->
        meta t ~client_id ~lock_dir:(Fspath.parent path) ~service:cfg.mkdir_service
          (fun () -> fs.Vfs.mkdir path ~mode));
    rmdir =
      (fun path ->
        meta t ~client_id ~lock_dir:(Fspath.parent path) ~service:cfg.rmdir_service
          (fun () -> fs.Vfs.rmdir path));
    create =
      (fun path ~mode ->
        meta t ~client_id ~lock_dir:(Fspath.parent path)
          ~service:(cfg.create_service +. cfg.oss_create)
          (fun () -> fs.Vfs.create path ~mode));
    unlink =
      (fun path ->
        meta t ~client_id ~lock_dir:(Fspath.parent path) ~service:cfg.unlink_service
          (fun () -> fs.Vfs.unlink path));
    rename =
      (fun src dst ->
        (* both parent directories are locked *)
        let extra2 = dlm_visit t ~client_id (Fspath.parent dst) in
        meta t ~client_id ~lock_dir:(Fspath.parent src)
          ~service:(cfg.rename_service +. extra2)
          (fun () -> fs.Vfs.rename src dst));
    readdir =
      (fun path ->
        meta t ~client_id ~service:cfg.readdir_service (fun () -> fs.Vfs.readdir path));
    symlink =
      (fun ~target path ->
        meta t ~client_id ~lock_dir:(Fspath.parent path) ~service:cfg.create_service
          (fun () -> fs.Vfs.symlink ~target path));
    readlink =
      (fun path ->
        meta t ~client_id ~service:cfg.getattr_service (fun () -> fs.Vfs.readlink path));
    chmod =
      (fun path ~mode ->
        meta t ~client_id ~service:cfg.setattr_service (fun () -> fs.Vfs.chmod path ~mode));
    truncate =
      (fun path ~size ->
        meta t ~client_id ~service:cfg.setattr_service (fun () ->
            fs.Vfs.truncate path ~size));
    read = (fun path ~off ~len -> data t ~bytes:len (fun () -> fs.Vfs.read path ~off ~len));
    write =
      (fun path ~off payload ->
        data t ~bytes:(String.length payload) (fun () -> fs.Vfs.write path ~off payload));
    statfs = fs.Vfs.statfs }

let client t ~client_id = Vfs.absolute_only (raw_client t ~client_id)
