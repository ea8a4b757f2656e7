(* The benchmark's own metric arithmetic. Everything here is pure, so
   [self_test] can pin it on known inputs before any run reports a
   number computed with it. *)

(* A growable float buffer: per-op samples are appended from inside the
   simulation and only sorted once the run has drained. (Stdlib's
   Dynarray would do, but it arrived in OCaml 5.2 and this must also
   build with 5.1.) *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* Exact nearest-rank percentile of raw samples: the smallest sample
   with at least [q] of all samples at or below it. No histogram, so a
   change smaller than any bucket width still shows. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.percentile: q outside (0, 1]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fail_frac ~attempted ~failed =
  if attempted <= 0 || failed < 0 || failed > attempted then
    invalid_arg "Stats.fail_frac: counts out of range";
  float_of_int failed /. float_of_int attempted

(* Self time of a span whose children ran strictly inside it, one after
   another (the DUFS client is synchronous within one simulated
   process). [None] when the children do not fit in the parent: the
   tiling is broken and no self time is honest. *)
let self_time ~span ~children =
  let slack = 1e-12 *. Float.max 1. span in
  if children < 0. || children > span +. slack then None
  else Some (Float.max 0. (span -. children))

(* Longest write stall: the longest stretch of time during which some
   client write was outstanding and none succeeded. [intervals] are
   (start, stop, ok) per write attempt. The union of the intervals is
   cut at every successful completion; the longest piece is the stall.
   After a power-off it is the time from the last success before the
   outage to the first success after it. *)
let longest_stall intervals =
  let a = Array.of_list intervals in
  Array.sort (fun (s1, _, _) (s2, _, _) -> Float.compare s1 s2) a;
  let best = ref 0. in
  let close_segment seg_start seg_stop cuts =
    let cuts = List.sort Float.compare cuts in
    let last =
      List.fold_left
        (fun prev c ->
          best := Float.max !best (c -. prev);
          c)
        seg_start cuts
    in
    best := Float.max !best (seg_stop -. last)
  in
  let n = Array.length a in
  if n > 0 then begin
    let s0, e0, ok0 = a.(0) in
    let seg_start = ref s0 and seg_stop = ref e0 in
    let cuts = ref (if ok0 then [ e0 ] else []) in
    for i = 1 to n - 1 do
      let s, e, ok = a.(i) in
      if s > !seg_stop then begin
        close_segment !seg_start !seg_stop !cuts;
        seg_start := s;
        seg_stop := e;
        cuts := []
      end
      else seg_stop := Float.max !seg_stop e;
      if ok then cuts := e :: !cuts
    done;
    close_segment !seg_start !seg_stop !cuts
  end;
  !best

(* Returns the failed checks' names; empty means the metric code is
   sound on known inputs. *)
let self_test () =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "percentile p50 of 1..100" (percentile hundred 0.5 = 50.);
  check "percentile p99 of 1..100" (percentile hundred 0.99 = 99.);
  check "percentile p100 of 1..100" (percentile hundred 1.0 = 100.);
  check "percentile of one sample" (percentile [| 7. |] 0.99 = 7.);
  check "percentile leaves input unsorted" (hundred.(0) = 100.);
  (* a gain of 1% must show, where a 7.7%-wide bucket would hide it *)
  let shifted = Array.map (fun x -> x *. 1.01) hundred in
  check "percentile resolves 1%" (percentile shifted 0.5 > percentile hundred 0.5);
  check "median odd" (median [ 3.; 1.; 2. ] = 2.);
  check "median even" (median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "fail_frac" (fail_frac ~attempted:6 ~failed:2 = 2. /. 6.);
  check "fail_frac of a clean run" (fail_frac ~attempted:5 ~failed:0 = 0.);
  check "fail_frac refuses more failures than attempts"
    (match fail_frac ~attempted:1 ~failed:2 with _ -> false | exception Invalid_argument _ -> true);
  check "self time tiles" (self_time ~span:1.0 ~children:(0.3 +. 0.2) = Some 0.5);
  check "self time exact fit" (self_time ~span:0.5 ~children:0.5 = Some 0.);
  check "children overflowing the parent are refused"
    (self_time ~span:1.0 ~children:(0.7 +. 0.4) = None);
  check "stall across an outage"
    (longest_stall [ (0., 1., true); (0.5, 3., true); (3.5, 4., true) ] = 2.);
  check "idle gaps are not stalls"
    (longest_stall [ (0., 1., true); (5., 5.5, true) ] = 1.);
  check "failed writes do not end a stall"
    (longest_stall [ (0., 1., true); (1., 2., false); (1.5, 4., true) ] = 3.);
  check "no writes, no stall" (longest_stall [] = 0.);
  List.rev !failures
