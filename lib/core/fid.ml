type t = { client_id : int64; counter : int64 }

let make ~client_id ~counter = { client_id; counter }
let equal a b = Int64.equal a.client_id b.client_id && Int64.equal a.counter b.counter

let compare a b =
  match Int64.unsigned_compare a.client_id b.client_id with
  | 0 -> Int64.unsigned_compare a.counter b.counter
  | c -> c

let hex_chars = "0123456789abcdef"

(* the 16 lower-case hex digits of [v] into [b] at [off], most
   significant first, written from its two 32-bit halves in native ints *)
let put_hex64 b off v =
  let put_u32 off x =
    for i = 0 to 7 do
      Bytes.unsafe_set b (off + i)
        (String.unsafe_get hex_chars ((x lsr (4 * (7 - i))) land 15))
    done
  in
  put_u32 off (Int64.to_int (Int64.shift_right_logical v 32));
  put_u32 (off + 8) (Int64.to_int v land 0xFFFF_FFFF)

let to_hex t =
  let b = Bytes.create 32 in
  put_hex64 b 0 t.client_id;
  put_hex64 b 16 t.counter;
  Bytes.unsafe_to_string b

(* Digits are accumulated in native ints, 32 bits at a time, so parsing
   allocates nothing but the result. Each byte's digit value comes from
   one load in a 256-byte table, '\255' for a non-digit. *)
let hex_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | 'A' .. 'F' -> Char.chr (i - Char.code 'A' + 10)
      | _ -> '\255')

let hex_digit c =
  let v = Char.code (String.unsafe_get hex_values (Char.code c)) in
  if v = 255 then -1 else v

let value_at s i =
  Char.code (String.unsafe_get hex_values (Char.code (String.unsafe_get s i)))

(* eight bytes a step while all eight are digits (their values or
   together stay below 16), then one at a time *)
let rec hex_run s i =
  if i + 8 <= String.length s
     && value_at s i lor value_at s (i + 1) lor value_at s (i + 2) lor value_at s (i + 3)
        lor value_at s (i + 4) lor value_at s (i + 5) lor value_at s (i + 6)
        lor value_at s (i + 7)
        < 16
  then hex_run s (i + 8)
  else if i < String.length s && value_at s i < 16 then hex_run s (i + 1)
  else i

(* the hex digits of [s] from [i] up to [stop] appended to [acc], or -1
   on a non-digit; a closure-free loop, so a call allocates nothing *)
let rec hex_acc s acc i stop =
  if i = stop then acc
  else
    let d = hex_digit (String.unsafe_get s i) in
    if d < 0 then -1 else hex_acc s ((acc lsl 4) lor d) (i + 1) stop

let hex_digits s i stop =
  if i < 0 || stop < i || stop > String.length s || stop - i > 15 then -1
  else hex_acc s 0 i stop

(* the 8 hex digits at [off] as a 32-bit value, or -1 *)
let parse_u32 s off = hex_acc s 0 off (off + 8)

let u64 hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let of_hex_at s pos =
  if pos < 0 || String.length s - pos <> 32 then None
  else
    let a = parse_u32 s pos and b = parse_u32 s (pos + 8)
    and c = parse_u32 s (pos + 16) and d = parse_u32 s (pos + 24) in
    if a < 0 || b < 0 || c < 0 || d < 0 then None
    else Some { client_id = u64 a b; counter = u64 c d }

let of_hex s = of_hex_at s 0

let is_hex_at s pos =
  pos >= 0 && String.length s - pos = 32 && hex_run s pos = String.length s

let to_bytes t =
  let bytes = Bytes.create 16 in
  let put off v =
    for i = 0 to 7 do
      Bytes.set bytes (off + i)
        (Char.chr
           (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)))
    done
  in
  put 0 t.client_id;
  put 8 t.counter;
  Bytes.to_string bytes

let pp fmt t = Format.pp_print_string fmt (to_hex t)

module Gen = struct
  type fid = t
  type nonrec t = { gen_client_id : int64; mutable next_counter : int64 }

  let create ~client_id = { gen_client_id = client_id; next_counter = 0L }
  let generated t = t.next_counter

  let next t =
    let counter = t.next_counter in
    t.next_counter <- Int64.add counter 1L;
    make ~client_id:t.gen_client_id ~counter
end
