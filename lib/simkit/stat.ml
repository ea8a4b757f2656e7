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

let percentile samples q =
  if not (q > 0. && q <= 1.) then invalid_arg "Stat.percentile: q outside (0, 1]";
  match Array.length samples with
  | 0 -> Float.nan
  | n ->
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

module Latency = struct
  (* raw samples in [buf.(0 .. count - 1)], doubling when full *)
  type t = { mutable buf : float array; summary : Summary.t }

  let create () = { buf = [||]; summary = Summary.create () }

  let add t x =
    let n = Summary.count t.summary in
    if n = Array.length t.buf then begin
      let grown = Array.make (Stdlib.max 16 (2 * n)) 0. in
      Array.blit t.buf 0 grown 0 n;
      t.buf <- grown
    end;
    t.buf.(n) <- x;
    Summary.add t.summary x

  let summary t = t.summary
  let quantile t q = percentile (Array.sub t.buf 0 (Summary.count t.summary)) q
end
