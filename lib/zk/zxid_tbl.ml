(* An array window over dense int64 keys: [slots.(i)] holds the binding
   of key [base + i], the value itself with no [Some] box. A slot with
   no binding holds [empty], a block private to this module that no
   caller's value can be physically equal to, so [== empty] is the
   emptiness test whatever ['a] is ([unit] and [int] included). Slots
   are [Obj.t], so a ['a = float] table is an array of pointers to
   boxed floats, never a flat float array. Live bindings occupy indices
   [lo, hi]; an empty table has [lo > hi] and every slot [empty].

   A key outside the window re-lays the live range [lo, hi] and the new
   key out, once: in place when the combined span fits in half the
   array, in an array twice the span otherwise. Either way at least as
   many free slots as the span remain on the side the key grew towards,
   so a window sliding up (pending zxids) or growing up (the committed
   log) re-lays out O(1) times per key, amortised. A key below the
   window leaves half the free room below it, for the rarer downward
   growth (an epoch rewind). *)

type 'a t = {
  mutable base : int64;
  mutable slots : Obj.t array;
  mutable lo : int;
  mutable hi : int;
  mutable size : int;
  initial : int;
}

let empty : Obj.t = Obj.repr (ref ())

let create n =
  let n = max n 1 in
  { base = 0L; slots = Array.make n empty; lo = 0; hi = -1; size = 0;
    initial = n }

let length t = t.size
let capacity t = Array.length t.slots

let reset t =
  t.slots <- Array.make t.initial empty;
  t.base <- 0L;
  t.lo <- 0;
  t.hi <- -1;
  t.size <- 0

(* the slot index of [key], or -1 when it lies outside the window *)
let index t key =
  let d = Int64.sub key t.base in
  if d < 0L || d >= Int64.of_int (Array.length t.slots) then -1
  else Int64.to_int d

let find_opt t key =
  let i = index t key in
  if i < 0 then None
  else
    let v = Array.unsafe_get t.slots i in
    if v == empty then None else Some (Obj.obj v)

let mem t key =
  let i = index t key in
  i >= 0 && Array.unsafe_get t.slots i != empty

(* Move the live range so that [key] gets a slot. *)
let relayout t key =
  let old_lo = Int64.add t.base (Int64.of_int t.lo) in
  let old_hi = Int64.add t.base (Int64.of_int t.hi) in
  let below = key < old_lo in
  let first = if below then key else old_lo in
  let last = if below then old_hi else Int64.max key old_hi in
  let span = Int64.to_int (Int64.sub last first) + 1 in
  let cap = Array.length t.slots in
  let cap' = if 2 * span <= cap then cap else 2 * span in
  let pad = if below then (cap' - span) / 2 else 0 in
  let base' = Int64.sub first (Int64.of_int pad) in
  let shift = Int64.to_int (Int64.sub t.base base') in
  let live = t.hi - t.lo + 1 in
  if cap' = cap then begin
    Array.blit t.slots t.lo t.slots (t.lo + shift) live;
    (* clear the vacated slots the blit did not overwrite *)
    if shift < 0 then
      let from = Int.max t.lo (t.hi + shift + 1) in
      Array.fill t.slots from (t.hi - from + 1) empty
    else if shift > 0 then
      Array.fill t.slots t.lo (Int.min live shift) empty
  end
  else begin
    let slots = Array.make cap' empty in
    Array.blit t.slots t.lo slots (t.lo + shift) live;
    t.slots <- slots
  end;
  t.base <- base';
  t.lo <- t.lo + shift;
  t.hi <- t.hi + shift

let replace t key v =
  if t.size = 0 then begin
    (* an empty table re-bases at the first key it is given *)
    t.base <- key;
    t.lo <- 0;
    t.hi <- 0;
    t.size <- 1;
    Array.unsafe_set t.slots 0 (Obj.repr v)
  end
  else begin
    if index t key < 0 then relayout t key;
    let i = index t key in
    if Array.unsafe_get t.slots i == empty then begin
      t.size <- t.size + 1;
      if i < t.lo then t.lo <- i;
      if i > t.hi then t.hi <- i
    end;
    Array.unsafe_set t.slots i (Obj.repr v)
  end

let remove t key =
  let i = index t key in
  if i >= 0 && Array.unsafe_get t.slots i != empty then begin
    Array.unsafe_set t.slots i empty;
    t.size <- t.size - 1;
    if t.size = 0 then begin
      t.lo <- 0;
      t.hi <- -1
    end
    else begin
      while Array.unsafe_get t.slots t.lo == empty do
        t.lo <- t.lo + 1
      done;
      while Array.unsafe_get t.slots t.hi == empty do
        t.hi <- t.hi - 1
      done
    end
  end

let min_key t =
  if t.size = 0 then None else Some (Int64.add t.base (Int64.of_int t.lo))

let max_key t =
  if t.size = 0 then None else Some (Int64.add t.base (Int64.of_int t.hi))

let iter f t =
  let slots = t.slots and base = t.base in
  for i = t.lo to t.hi do
    let v = Array.unsafe_get slots i in
    if v != empty then f (Int64.add base (Int64.of_int i)) (Obj.obj v)
  done

let fold f t init =
  let slots = t.slots and base = t.base in
  let acc = ref init in
  for i = t.lo to t.hi do
    let v = Array.unsafe_get slots i in
    if v != empty then acc := f (Int64.add base (Int64.of_int i)) (Obj.obj v) !acc
  done;
  !acc

let copy t = { t with slots = Array.copy t.slots }
