(* Growing the back-end set — the paper's §VII future work in action.

       dune exec examples/rebalance.exe

   Two mounts hold 2000 files. We add a third mount under both mapping
   strategies and compare how much data each forces us to relocate:
   MD5-mod-N (the paper's function) remaps almost everything, consistent
   hashing only ≈ 1/(N+1). Afterwards fsck verifies the deployment is
   consistent under the new mapping, and a freshly-mounted client still
   reads every file. *)

module Vfs = Fuselike.Vfs

let ok_fs label = function
  | Ok v -> v
  | Error e -> failwith (label ^ ": " ^ Fuselike.Errno.to_string e)

let ok_zk label = function
  | Ok v -> v
  | Error e -> failwith (label ^ ": " ^ Zk.Zerror.to_string e)

let fresh_mount () =
  let ops = Fuselike.Memfs.ops (Fuselike.Memfs.create ~clock:(fun () -> 0.) ()) in
  ok_fs "format" (Dufs.Physical.format Dufs.Physical.default_layout ops);
  ops

let build strategy =
  let service = Zk.Zk_local.create () in
  let coord = Zk.Zk_local.session service in
  let mounts = Array.init 2 (fun _ -> fresh_mount ()) in
  let client = Dufs.Client.mount ~coord ~backends:mounts ~strategy () in
  let fs = Dufs.Client.ops client in
  ok_fs "mkdir" (fs.Vfs.mkdir "/data" ~mode:0o755);
  for i = 0 to 1999 do
    let path = Printf.sprintf "/data/file%04d" i in
    ok_fs "create" (fs.Vfs.create path ~mode:0o644);
    ignore (ok_fs "write" (fs.Vfs.write path ~off:0 (Printf.sprintf "payload %04d" i)))
  done;
  (coord, mounts)

let grow ~label strategy =
  Printf.printf "— strategy: %s\n" label;
  let coord, mounts = build strategy in
  let moves, new_strategy =
    ok_zk "plan"
      (Dufs.Rebalancer.plan_add_backend ~coord ~strategy ~backends_before:2 ())
  in
  Printf.printf "  adding a 3rd backend: %d of 2000 files must move (%.1f%%)\n"
    (List.length moves)
    (float_of_int (List.length moves) /. 20.);
  let all = Array.append mounts [| fresh_mount () |] in
  let stats = ok_fs "execute" (Dufs.Rebalancer.execute ~backends:all moves) in
  Printf.printf "  moved %d files, %Ld bytes\n" stats.Dufs.Rebalancer.moved
    stats.Dufs.Rebalancer.bytes_moved;
  let report = ok_zk "fsck" (Dufs.Fsck.scan ~coord ~backends:all ~strategy:new_strategy ()) in
  Printf.printf "  fsck after rebalance: %s (%d files, %d physicals checked)\n"
    (if Dufs.Fsck.is_clean report then "clean" else "ISSUES FOUND")
    report.Dufs.Fsck.files_checked report.Dufs.Fsck.physicals_checked;
  (* a new client mounted over three backends sees every byte *)
  let client3 = Dufs.Client.mount ~coord ~backends:all ~strategy:new_strategy
      ~client_id:77L () in
  let fs3 = Dufs.Client.ops client3 in
  let intact = ref 0 in
  for i = 0 to 1999 do
    let path = Printf.sprintf "/data/file%04d" i in
    if ok_fs "read" (fs3.Vfs.read path ~off:0 ~len:64) = Printf.sprintf "payload %04d" i
    then incr intact
  done;
  Printf.printf "  %d/2000 files read back intact through the grown mount\n\n" !intact

let () =
  grow ~label:"MD5 mod N (paper §IV-F)" Dufs.Mapping.Md5_mod;
  grow ~label:"consistent hashing (paper §VII)"
    (Dufs.Mapping.Consistent (Zk.Consistent_hash.create [ 0; 1 ]))
