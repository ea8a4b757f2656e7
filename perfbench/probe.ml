(* Per-layer spans, recorded by record-copy wrappers the benchmark puts
   around the calls into each layer — the way {!Zk.History.wrap}
   interposes on a coordination handle. A wrapper reads the virtual
   clock and bumps accumulators; it never sleeps or schedules, so a
   traced run keeps the untraced run's timeline (main.ml checks it).

   Boundaries, outermost first:
   - vfs:     the DUFS VFS op, timed by the workload (Workloads.call);
   - coord:   Dufs.Client -> its coordination handle (cache or session);
   - backend: Dufs.Client -> a Lustre back-end mount;
   - zk:      -> one ensemble session (below cache and shard router).
   coord and backend spans are the children of a vfs span. *)

module Zc = Zk.Zk_client

type acc = { mutable calls : int; mutable time : float }

let acc () = { calls = 0; time = 0. }

let add a dt =
  a.calls <- a.calls + 1;
  a.time <- a.time +. dt

type t = {
  clock : unit -> float;
  mutable on : bool;  (* only the measured window is recorded *)
  vfs : acc;
  mutable vfs_self : float;
  mutable tiling_violations : int;
  coord : acc;
  backend : acc;
  zk_read : acc;
  zk_write : acc;
  zk_write_samples : Stats.Fvec.t;
}

let create ~clock =
  { clock; on = false; vfs = acc (); vfs_self = 0.; tiling_violations = 0;
    coord = acc (); backend = acc (); zk_read = acc ();
    zk_write = acc (); zk_write_samples = Stats.Fvec.create () }

(* One per simulated client process: the time its current VFS op spent
   in child layers. *)
type ctx = { mutable children : float }

let ctx () = { children = 0. }

let begin_op c = c.children <- 0.

let end_op t c span =
  if t.on then begin
    add t.vfs span;
    match Stats.self_time ~span ~children:c.children with
    | Some self -> t.vfs_self <- t.vfs_self +. self
    | None -> t.tiling_violations <- t.tiling_violations + 1
  end

let timed t record f =
  let t0 = t.clock () in
  let r = f () in
  if t.on then record (t.clock () -. t0);
  r

(* Every blocking call of a coordination handle, classified read or
   write; callback registration and teardown pass through untimed. *)
let wrap_handle t ~read ~write (h : Zc.handle) : Zc.handle =
  let r f = timed t read f and w f = timed t write f in
  { h with
    Zc.create =
      (fun ?ephemeral ?sequential path ~data ->
        w (fun () -> h.Zc.create ?ephemeral ?sequential path ~data));
    get = (fun p -> r (fun () -> h.Zc.get p));
    set = (fun ?version p ~data -> w (fun () -> h.Zc.set ?version p ~data));
    delete = (fun ?version p -> w (fun () -> h.Zc.delete ?version p));
    exists = (fun p -> r (fun () -> h.Zc.exists p));
    children = (fun p -> r (fun () -> h.Zc.children p));
    children_with_data = (fun p -> r (fun () -> h.Zc.children_with_data p));
    children_with_data_watch =
      (fun p cb -> r (fun () -> h.Zc.children_with_data_watch p cb));
    multi = (fun txn -> w (fun () -> h.Zc.multi txn));
    get_watch = (fun p cb -> r (fun () -> h.Zc.get_watch p cb));
    children_watch = (fun p cb -> r (fun () -> h.Zc.children_watch p cb));
    lease_get = (fun p -> r (fun () -> h.Zc.lease_get p));
    lease_children = (fun p -> r (fun () -> h.Zc.lease_children p));
    lease_children_with_data =
      (fun p -> r (fun () -> h.Zc.lease_children_with_data p)) }

let child c a dt =
  add a dt;
  c.children <- c.children +. dt

let wrap_coord t c h =
  let f = child c t.coord in
  wrap_handle t ~read:f ~write:f h

let wrap_zk t h =
  wrap_handle t ~read:(add t.zk_read)
    ~write:(fun dt ->
      add t.zk_write dt;
      Stats.Fvec.push t.zk_write_samples dt)
    h

let wrap_backend t c (b : Fuselike.Vfs.ops) : Fuselike.Vfs.ops =
  let open Fuselike.Vfs in
  let x f = timed t (child c t.backend) f in
  { getattr = (fun p -> x (fun () -> b.getattr p));
    access = (fun p -> x (fun () -> b.access p));
    mkdir = (fun p ~mode -> x (fun () -> b.mkdir p ~mode));
    rmdir = (fun p -> x (fun () -> b.rmdir p));
    create = (fun p ~mode -> x (fun () -> b.create p ~mode));
    unlink = (fun p -> x (fun () -> b.unlink p));
    rename = (fun a d -> x (fun () -> b.rename a d));
    readdir = (fun p -> x (fun () -> b.readdir p));
    symlink = (fun ~target p -> x (fun () -> b.symlink ~target p));
    readlink = (fun p -> x (fun () -> b.readlink p));
    chmod = (fun p ~mode -> x (fun () -> b.chmod p ~mode));
    truncate = (fun p ~size -> x (fun () -> b.truncate p ~size));
    read = (fun p ~off ~len -> x (fun () -> b.read p ~off ~len));
    write = (fun p ~off d -> x (fun () -> b.write p ~off d));
    statfs = (fun () -> x (fun () -> b.statfs ())) }

let mean_ms a = if a.calls = 0 then 0. else 1e3 *. a.time /. float_of_int a.calls
