module Process = Simkit.Process
module Vfs = Fuselike.Vfs
module Memfs = Fuselike.Memfs
module Fspath = Fuselike.Fspath

type config = {
  net_latency : float;
  meta_servers : int;
  server_threads : int;
  mkdir_service : float;
  rmdir_service : float;
  create_service : float;
  unlink_service : float;
  getattr_service : float;
  readdir_service : float;
  setattr_service : float;
  rename_service : float;
  thrash : float;
  namespace_penalty : float;
  data_bandwidth : float;
}

let default_config () =
  { net_latency = Costs.gige_latency;
    meta_servers = Costs.Pvfs.meta_servers;
    server_threads = Costs.Pvfs.server_threads;
    mkdir_service = Costs.Pvfs.mkdir_service;
    rmdir_service = Costs.Pvfs.rmdir_service;
    create_service = Costs.Pvfs.create_service;
    unlink_service = Costs.Pvfs.unlink_service;
    getattr_service = Costs.Pvfs.getattr_service;
    readdir_service = Costs.Pvfs.readdir_service;
    setattr_service = Costs.Pvfs.setattr_service;
    rename_service = Costs.Pvfs.rename_service;
    thrash = Costs.Pvfs.thrash;
    namespace_penalty = 1.0;
    data_bandwidth = 100e6 }

let backend_config () =
  { (default_config ()) with
    namespace_penalty = Costs.Pvfs.hashed_namespace_penalty }

type t = {
  cfg : config;
  fs : Memfs.t;
  fs_ops : Vfs.ops;
  servers : Mdserver.t array;
}

let create engine ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  let fs = Memfs.create ~clock:(fun () -> Simkit.Engine.now engine) () in
  { cfg;
    fs;
    fs_ops = Memfs.ops fs;
    servers =
      Array.init cfg.meta_servers (fun _ ->
          Mdserver.create engine ~threads:cfg.server_threads ~thrash:cfg.thrash
            ~net_latency:cfg.net_latency ()) }

let local_ops t = t.fs_ops
let served_per_server t = Array.map Mdserver.served t.servers
let wait_summaries t = Array.map Mdserver.wait_summary t.servers
let hold_summaries t = Array.map Mdserver.hold_summary t.servers

(* The handle space is statically hash-partitioned over the servers. *)
let server_for t key = t.servers.(Hashtbl.hash key mod Array.length t.servers)

let visit t ~key ~service f =
  Mdserver.request (server_for t key)
    ~service:(service *. t.cfg.namespace_penalty)
    f

(* Creates allocate datafile handles on one server, then insert the
   directory entry on the parent's server — two sequential visits. *)
let visit2 t ~key1 ~key2 ~service f =
  let s1 = server_for t key1 and s2 = server_for t key2 in
  if s1 == s2 then
    Mdserver.request s1 ~service:(2. *. service *. t.cfg.namespace_penalty) f
  else begin
    Mdserver.request s1 ~service:(service *. t.cfg.namespace_penalty) ignore;
    Mdserver.request s2 ~service:(service *. t.cfg.namespace_penalty) f
  end

let data t ~bytes f =
  Process.sleep t.cfg.net_latency;
  Process.sleep (40e-6 +. (float_of_int bytes /. t.cfg.data_bandwidth));
  let result = f () in
  Process.sleep t.cfg.net_latency;
  result

let raw_client t ~client_id:_ =
  let cfg = t.cfg in
  let fs = t.fs_ops in
  { Vfs.getattr =
      (fun path -> visit t ~key:path ~service:cfg.getattr_service (fun () ->
           fs.Vfs.getattr path));
    access =
      (fun path -> visit t ~key:path ~service:cfg.getattr_service (fun () ->
           fs.Vfs.access path));
    mkdir =
      (fun path ~mode ->
        visit2 t ~key1:(Fspath.parent path) ~key2:path
          ~service:(cfg.mkdir_service /. 2.)
          (fun () -> fs.Vfs.mkdir path ~mode));
    rmdir =
      (fun path ->
        visit2 t ~key1:(Fspath.parent path) ~key2:path
          ~service:(cfg.rmdir_service /. 2.)
          (fun () -> fs.Vfs.rmdir path));
    create =
      (fun path ~mode ->
        visit2 t ~key1:path ~key2:(Fspath.parent path) ~service:cfg.create_service
          (fun () -> fs.Vfs.create path ~mode));
    unlink =
      (fun path ->
        visit2 t ~key1:(Fspath.parent path) ~key2:path
          ~service:(cfg.unlink_service /. 2.)
          (fun () -> fs.Vfs.unlink path));
    rename =
      (fun src dst ->
        visit2 t ~key1:(Fspath.parent src) ~key2:(Fspath.parent dst)
          ~service:(cfg.rename_service /. 2.)
          (fun () -> fs.Vfs.rename src dst));
    readdir =
      (fun path -> visit t ~key:path ~service:cfg.readdir_service (fun () ->
           fs.Vfs.readdir path));
    symlink =
      (fun ~target path ->
        visit2 t ~key1:path ~key2:(Fspath.parent path) ~service:cfg.create_service
          (fun () -> fs.Vfs.symlink ~target path));
    readlink =
      (fun path -> visit t ~key:path ~service:cfg.getattr_service (fun () ->
           fs.Vfs.readlink path));
    chmod =
      (fun path ~mode ->
        visit t ~key:path ~service:cfg.setattr_service (fun () ->
            fs.Vfs.chmod path ~mode));
    truncate =
      (fun path ~size ->
        visit t ~key:path ~service:cfg.setattr_service (fun () ->
            fs.Vfs.truncate path ~size));
    read = (fun path ~off ~len -> data t ~bytes:len (fun () -> fs.Vfs.read path ~off ~len));
    write =
      (fun path ~off payload ->
        data t ~bytes:(String.length payload) (fun () -> fs.Vfs.write path ~off payload));
    statfs = fs.Vfs.statfs }

let client t ~client_id = Vfs.absolute_only (raw_client t ~client_id)
