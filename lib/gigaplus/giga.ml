module Process = Simkit.Process

type config = {
  servers : int;
  split_threshold : int;
  max_radix : int;
  net_latency : float;
  insert_service : float;
  lookup_service : float;
  split_entry_cost : float;
  server_threads : int;
}

let default_config ~servers =
  { servers;
    split_threshold = 2000;
    max_radix = 12;
    net_latency = Pfs.Costs.gige_latency;
    insert_service = 60e-6;
    lookup_service = 30e-6;
    split_entry_cost = 2e-6;
    server_threads = 4 }

type partition = {
  mutable radix : int;
  entries : (string, unit) Hashtbl.t;
}

type t = {
  cfg : config;
  (* authoritative split state; servers act on it, clients cache it *)
  bitmap : bool array;
  partitions : (int, partition) Hashtbl.t;
  stations : Pfs.Mdserver.t array;
  alive : bool array;
  mutable entry_count : int;
}

let create engine ?config () =
  let cfg = match config with Some c -> c | None -> default_config ~servers:4 in
  if cfg.servers < 1 then invalid_arg "Giga.create: servers < 1";
  if cfg.max_radix < 1 || cfg.max_radix > 24 then invalid_arg "Giga.create: bad max_radix";
  let t =
    { cfg;
      bitmap = Array.make (1 lsl cfg.max_radix) false;
      partitions = Hashtbl.create 64;
      stations =
        Array.init cfg.servers (fun _ ->
            Pfs.Mdserver.create engine ~threads:cfg.server_threads ~thrash:0.
              ~net_latency:cfg.net_latency ());
      alive = Array.make cfg.servers true;
      entry_count = 0 }
  in
  t.bitmap.(0) <- true;
  Hashtbl.replace t.partitions 0 { radix = 0; entries = Hashtbl.create 64 };
  t

let owner t p = p mod t.cfg.servers
let partition_count t = Hashtbl.length t.partitions
let total_entries t = t.entry_count

let partition_sizes t =
  List.sort compare
    (Hashtbl.fold (fun i p acc -> (i, Hashtbl.length p.entries) :: acc) t.partitions [])

let crash_server t i = t.alive.(i) <- false
let restart_server t i = t.alive.(i) <- true

let available_fraction t =
  if t.entry_count = 0 then 1.
  else begin
    let reachable =
      Hashtbl.fold
        (fun i p acc ->
          if t.alive.(owner t i) then acc + Hashtbl.length p.entries else acc)
        t.partitions 0
    in
    float_of_int reachable /. float_of_int t.entry_count
  end

(* 30 usable hash bits from the stdlib's string hash, spread once more so
   low bits are well mixed for the radix addressing. *)
let hash_name name =
  let h = Hashtbl.hash name in
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 16)) land ((1 lsl 24) - 1)

(* GIGA+ addressing: take the low max_radix bits, then clear the most
   significant set bit until landing on a partition the bitmap knows —
   partition 0 always exists, so this terminates. *)
let locate bitmap ~max_radix h =
  let i = ref (h land ((1 lsl max_radix) - 1)) in
  while not bitmap.(!i) do
    (* clear the most significant set bit of !i *)
    let msb = ref 0 in
    let v = ref !i in
    while !v > 1 do
      incr msb;
      v := !v lsr 1
    done;
    i := !i land lnot (1 lsl !msb)
  done;
  !i

(* Split partition [p_index]: entries whose hash has bit [radix] set move
   to the sibling p_index + 2^radix. Returns the number moved (the caller
   charges the migration cost). *)
let split t p_index =
  let p = Hashtbl.find t.partitions p_index in
  let sibling_index = p_index + (1 lsl p.radix) in
  let sibling = { radix = p.radix + 1; entries = Hashtbl.create 64 } in
  let moved =
    Hashtbl.fold
      (fun name () acc ->
        if (hash_name name lsr p.radix) land 1 = 1 then name :: acc else acc)
      p.entries []
  in
  List.iter
    (fun name ->
      Hashtbl.remove p.entries name;
      Hashtbl.replace sibling.entries name ())
    moved;
  p.radix <- p.radix + 1;
  Hashtbl.replace t.partitions sibling_index sibling;
  t.bitmap.(sibling_index) <- true;
  List.length moved

let can_split t p_index =
  let p = Hashtbl.find t.partitions p_index in
  p_index + (1 lsl p.radix) < Array.length t.bitmap

(* {2 Clients} *)

type client = {
  cluster : t;
  my_bitmap : bool array;  (* possibly stale *)
  mutable redirect_count : int;
}

let client t =
  { cluster = t; my_bitmap = Array.copy t.bitmap; redirect_count = 0 }

let redirects c = c.redirect_count

let refresh_map c = Array.blit c.cluster.bitmap 0 c.my_bitmap 0 (Array.length c.my_bitmap)

(* One addressing round: pick the partition per the client's map, visit
   its server. The server re-addresses with the authoritative map; a
   mismatch means the client was stale: it gets fresh map bits and must
   retry (GIGA+'s "eventual consistency" for client views). *)
let rec visit c ~service ~attempt (h : int) f =
  let t = c.cluster in
  let p_client = locate c.my_bitmap ~max_radix:t.cfg.max_radix h in
  let server = owner t p_client in
  if not t.alive.(server) then begin
    (* request into the void: pay the wire latency, report unavailability *)
    Process.sleep (2. *. t.cfg.net_latency);
    Error `Unavailable
  end
  else
    let outcome =
      Pfs.Mdserver.request t.stations.(server) ~service (fun () ->
          let p_actual = locate t.bitmap ~max_radix:t.cfg.max_radix h in
          if p_actual <> p_client then `Stale
          else `Served (f p_actual))
    in
    match outcome with
    | `Served result -> Ok result
    | `Stale ->
      c.redirect_count <- c.redirect_count + 1;
      refresh_map c;
      if attempt > 32 then Error `Unavailable
      else visit c ~service ~attempt:(attempt + 1) h f

let create_file c name =
  let t = c.cluster in
  let h = hash_name name in
  match
    visit c ~service:t.cfg.insert_service ~attempt:0 h (fun p_index ->
        let p = Hashtbl.find t.partitions p_index in
        if Hashtbl.mem p.entries name then `Exists
        else begin
          Hashtbl.replace p.entries name ();
          t.entry_count <- t.entry_count + 1;
          if Hashtbl.length p.entries > t.cfg.split_threshold && can_split t p_index
          then `Split (split t p_index)
          else `Done
        end)
  with
  | Error `Unavailable -> Error `Unavailable
  | Ok `Exists -> Error `Exists
  | Ok `Done -> Ok ()
  | Ok (`Split moved) ->
    (* the splitting server streams the moved entries to the sibling's
       server; the inserting client waits it out (incremental splits are
       GIGA+ future work) *)
    Process.sleep (t.cfg.split_entry_cost *. float_of_int moved);
    Ok ()

let lookup c name =
  let t = c.cluster in
  let h = hash_name name in
  match
    visit c ~service:t.cfg.lookup_service ~attempt:0 h (fun p_index ->
        let p = Hashtbl.find t.partitions p_index in
        Hashtbl.mem p.entries name)
  with
  | Error `Unavailable -> Error `Unavailable
  | Ok present -> Ok present
