type endpoint = int

type latency =
  | Fixed of float
  | Uniform_lat of float * float
  | Exp_lat of float

type t = {
  engine : Engine.t;
  rng : Rng.t;
  default_latency : latency;
  mutable follows : int array;  (* endpoint -> endpoint whose side it shares *)
  mutable count : int;
  (* fault state *)
  mutable sides : (int, int) Hashtbl.t option;  (* endpoint -> partition group *)
  mutable oneway : (int * int) list;            (* blocked (src, dst) pairs *)
  mutable drop_p : float;
  mutable dup_p : float;
  mutable extra_delay : float;
  mutable reorder_p : float;
  mutable reorder_window : float;
  (* counters *)
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  (* Precomputed hop delay for the quiet state: no partition/one-way
     blocks, every probabilistic knob at zero and a [Fixed] default
     latency. [-1.] whenever any of that is untrue. Lets [send] skip the
     whole fault-guard chain on the hot path. *)
  mutable quiet_fixed : float;
}

let refresh_quiet t =
  t.quiet_fixed <-
    (match t.default_latency with
     | Fixed d
       when t.sides = None && t.oneway = []
            && t.drop_p = 0. && t.dup_p = 0. && t.reorder_p = 0. ->
       d +. t.extra_delay
     | Fixed _ | Uniform_lat _ | Exp_lat _ -> -1.)

let create ?(default_latency = Fixed 0.) ~seed engine =
  let t =
    { engine;
      rng = Rng.create ~seed;
      default_latency;
      follows = Array.make 8 0;
      count = 0;
      sides = None;
      oneway = [];
      drop_p = 0.;
      dup_p = 0.;
      extra_delay = 0.;
      reorder_p = 0.;
      reorder_window = 0.;
      n_sent = 0;
      n_delivered = 0;
      n_dropped = 0;
      n_duplicated = 0;
      quiet_fixed = -1. }
  in
  refresh_quiet t;
  t

let endpoint ?follow t =
  if t.count = Array.length t.follows then begin
    let b = Array.make (2 * t.count) 0 in
    Array.blit t.follows 0 b 0 t.count;
    t.follows <- b
  end;
  let e = t.count in
  t.count <- e + 1;
  (match follow with
   | Some f when f < 0 || f >= e ->
     invalid_arg (Printf.sprintf "Net.endpoint: cannot follow %d" f)
   | Some f -> t.follows.(e) <- f
   | None -> t.follows.(e) <- e);
  e

let check t e op =
  if e < 0 || e >= t.count then
    invalid_arg (Printf.sprintf "Net.%s: unknown endpoint %d" op e)

(* A follower chain is one hop deep by construction ([endpoint] only
   lets a fresh endpoint follow an existing one, and servers follow
   themselves), but resolving iteratively keeps this robust. *)
let resolve t e =
  let rec go e = if t.follows.(e) = e then e else go t.follows.(e) in
  go e

let partition t groups =
  let sides = Hashtbl.create 16 in
  List.iteri
    (fun side members ->
      List.iter
        (fun e ->
          check t e "partition";
          Hashtbl.replace sides e side)
        members)
    groups;
  t.sides <- (if Hashtbl.length sides = 0 then None else Some sides);
  refresh_quiet t

let block_oneway t ~src ~dst =
  check t src "block_oneway";
  check t dst "block_oneway";
  t.oneway <- (resolve t src, resolve t dst) :: t.oneway;
  refresh_quiet t

let heal t =
  t.sides <- None;
  t.oneway <- [];
  refresh_quiet t

let check_p op p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Net.%s: probability %g outside [0,1]" op p)

let set_drop t p = check_p "set_drop" p; t.drop_p <- p; refresh_quiet t

let set_duplicate t p =
  check_p "set_duplicate" p;
  t.dup_p <- p;
  refresh_quiet t

let set_extra_delay t d =
  if not (d >= 0.) then invalid_arg "Net.set_extra_delay: negative delay";
  t.extra_delay <- d;
  refresh_quiet t

let set_reorder t ~p ~window =
  check_p "set_reorder" p;
  if not (window >= 0.) then invalid_arg "Net.set_reorder: negative window";
  t.reorder_p <- p;
  t.reorder_window <- window;
  refresh_quiet t

let unreachable t src dst =
  let s = resolve t src and d = resolve t dst in
  (match t.sides with
   | None -> false
   | Some sides -> (
     match (Hashtbl.find_opt sides s, Hashtbl.find_opt sides d) with
     | Some a, Some b -> a <> b
     | _ -> false))
  || (t.oneway <> [] && List.mem (s, d) t.oneway)

(* Each guard below tests its knob before touching the RNG, so a
   network with every fault at rest consumes no randomness at all —
   the fault-free schedule is bit-identical to bare Engine.schedule. *)
let sample_latency t =
  match t.default_latency with
  | Fixed d -> d
  | Uniform_lat (lo, hi) -> Rng.uniform t.rng ~lo ~hi
  | Exp_lat mean -> Rng.exponential t.rng ~mean

let hop_delay t =
  let jitter =
    if t.reorder_p > 0. && Rng.float t.rng < t.reorder_p then
      Rng.uniform t.rng ~lo:0. ~hi:t.reorder_window
    else 0.
  in
  sample_latency t +. t.extra_delay +. jitter

let send t ~src ~dst deliver =
  check t src "send";
  check t dst "send";
  t.n_sent <- t.n_sent + 1;
  if t.quiet_fixed >= 0. then begin
    (* quiet state: same delay the general path computes (Fixed default
       plus extra_delay, zero jitter), no RNG draws, no lookups *)
    t.n_delivered <- t.n_delivered + 1;
    Engine.schedule t.engine ~delay:t.quiet_fixed deliver
  end
  else if unreachable t src dst then t.n_dropped <- t.n_dropped + 1
  else if t.drop_p > 0. && Rng.float t.rng < t.drop_p then
    t.n_dropped <- t.n_dropped + 1
  else begin
    Engine.schedule t.engine ~delay:(hop_delay t) deliver;
    t.n_delivered <- t.n_delivered + 1;
    if t.dup_p > 0. && Rng.float t.rng < t.dup_p then begin
      t.n_duplicated <- t.n_duplicated + 1;
      t.n_delivered <- t.n_delivered + 1;
      Engine.schedule t.engine ~delay:(hop_delay t) deliver
    end
  end

let sent t = t.n_sent
let delivered t = t.n_delivered
let dropped t = t.n_dropped
let duplicated t = t.n_duplicated
