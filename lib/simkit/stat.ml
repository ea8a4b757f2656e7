module Counter = struct
  type t = { mutable value : int }

  let create () = { value = 0 }
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let reset t = t.value <- 0
end

module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.; m2 = 0.; min = Float.infinity; max = Float.neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0. else t.mean

  (* An empty summary has no extrema: returning 0.0 here would be
     indistinguishable from a genuine zero-latency sample downstream. *)
  let min t = if t.count = 0 then None else Some t.min
  let max t = if t.count = 0 then None else Some t.max

  let stddev t =
    if t.count < 2 then 0.
    else
      (* catastrophic cancellation can drive m2 a hair below zero; sqrt
         of that is NaN, which then poisons every aggregate it meets *)
      let v = t.m2 /. float_of_int (t.count - 1) in
      if v > 0. then sqrt v else 0.
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    log_lo : float;
    log_step : float;
    buckets : int array;
    (* samples above [hi] land here instead of being folded into the top
       bucket, so tail quantiles cannot silently report [hi] as the max *)
    mutable overflow : int;
    mutable count : int;
    mutable max_seen : float;
  }

  let create ~lo ~hi ~buckets () =
    if not (lo > 0. && hi > lo && buckets > 0) then
      invalid_arg "Histogram.create: need 0 < lo < hi and buckets > 0";
    { lo;
      hi;
      log_lo = log lo;
      log_step = (log hi -. log lo) /. float_of_int buckets;
      buckets = Array.make buckets 0;
      overflow = 0;
      count = 0;
      max_seen = Float.neg_infinity }

  let index t x =
    if x <= t.lo then 0
    else
      let i = int_of_float ((log x -. t.log_lo) /. t.log_step) in
      Stdlib.min i (Array.length t.buckets - 1)

  let add t x =
    if x > t.hi then t.overflow <- t.overflow + 1
    else begin
      let i = index t x in
      t.buckets.(i) <- t.buckets.(i) + 1
    end;
    t.count <- t.count + 1;
    if x > t.max_seen then t.max_seen <- x

  let count t = t.count
  let overflow t = t.overflow
  let max_seen t = if t.count = 0 then None else Some t.max_seen

  let bucket_upper t i = exp (t.log_lo +. (t.log_step *. float_of_int (i + 1)))

  let quantile t q =
    if t.count = 0 then 0.
    else begin
      let target = int_of_float (Float.round (q *. float_of_int t.count)) in
      let target = Stdlib.max 1 (Stdlib.min t.count target) in
      let rec scan i acc =
        if i >= Array.length t.buckets then
          (* the target falls among overflow samples: the honest answer
             is the exact observed maximum, not the [hi] clamp *)
          t.max_seen
        else
          let acc = acc + t.buckets.(i) in
          if acc >= target then Stdlib.min (bucket_upper t i) t.max_seen
          else scan (i + 1) acc
      in
      scan 0 0
    end
end

module Throughput = struct
  type t = { started : float; mutable ops : int }

  let start ~at = { started = at; ops = 0 }
  let record t = t.ops <- t.ops + 1
  let record_n t n = t.ops <- t.ops + n
  let ops t = t.ops

  let rate t ~now =
    let dt = now -. t.started in
    if dt <= 0. then 0. else float_of_int t.ops /. dt
end

let percentile samples q =
  if not (q > 0. && q <= 1.) then invalid_arg "Stat.percentile: q outside (0, 1]";
  match Array.length samples with
  | 0 -> Float.nan
  | n ->
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
