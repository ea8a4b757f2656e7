type kind =
  | Dir
  | File of Fid.t
  | Symlink of string

type t = {
  kind : kind;
  mode : int;
  ctime : float;
}

let dir ~mode ~ctime = { kind = Dir; mode; ctime }
let file fid ~mode ~ctime = { kind = File fid; mode; ctime }
let symlink ~target ~ctime = { kind = Symlink target; mode = 0o777; ctime }

let equal a b =
  a.mode = b.mode
  && Float.equal a.ctime b.ctime
  &&
  match a.kind, b.kind with
  | Dir, Dir -> true
  | File x, File y -> Fid.equal x y
  | Symlink x, Symlink y -> String.equal x y
  | (Dir | File _ | Symlink _), _ -> false

let hex_chars = "0123456789abcdef"

(* [n]'s digits in base [1 lsl bits], unsigned and without leading zeros,
   as [Printf]'s [%o] and [%Lx] write them: a negative mode is its 63
   bits in octal, and the ctime bits are a full unsigned 64-bit value *)
let add_digits b ~bits n =
  let rec go n =
    if n <> 0 then begin
      go (n lsr bits);
      Buffer.add_char b (String.unsafe_get hex_chars (n land ((1 lsl bits) - 1)))
    end
  in
  if n = 0 then Buffer.add_char b '0' else go n

let add_hex64 b v =
  let hi = Int64.to_int (Int64.shift_right_logical v 32)
  and lo = Int64.to_int v land 0xFFFF_FFFF in
  if hi = 0 then add_digits b ~bits:4 lo
  else begin
    add_digits b ~bits:4 hi;
    for i = 7 downto 0 do
      Buffer.add_char b (String.unsafe_get hex_chars ((lo lsr (4 * i)) land 15))
    done
  end

(* v1|<kind>|<mode octal>|<ctime bits hex>|<payload>
   payload: FID hex for files, raw target for symlinks (last field, so it
   may contain any character including '|'). *)
let encode t =
  let kind_tag, payload =
    match t.kind with
    | Dir -> ('d', "")
    | File fid -> ('f', Fid.to_hex fid)
    | Symlink target -> ('l', target)
  in
  let b = Buffer.create (48 + String.length payload) in
  Buffer.add_string b "v1|";
  Buffer.add_char b kind_tag;
  Buffer.add_char b '|';
  add_digits b ~bits:3 t.mode;
  Buffer.add_char b '|';
  add_hex64 b (Int64.bits_of_float t.ctime);
  Buffer.add_char b '|';
  Buffer.add_string b payload;
  Buffer.contents b

(* the index of the first '|' at or after [i], or -1 *)
let rec next_bar s i =
  if i >= String.length s then -1
  else if String.unsafe_get s i = '|' then i
  else next_bar s (i + 1)

(* the index of the first byte of [s] at or after [i] that is not an
   octal digit, or the length of [s] *)
let rec octal_run s i =
  if i < String.length s
     && (match String.unsafe_get s i with '0' .. '7' -> true | _ -> false)
  then octal_run s (i + 1)
  else i

(* the value of those digits, wrapping as [int_of_string "0o..."] does *)
let rec octal s acc i stop =
  if i = stop then acc
  else
    let d = Char.code (String.unsafe_get s i) - Char.code '0' in
    octal s ((acc lsl 3) lor d) (i + 1) stop

let field_error what s = Error (Printf.sprintf "Meta.decode: bad %s in %S" what s)

let versioned s = String.length s >= 3 && s.[0] = 'v' && s.[1] = '1' && s.[2] = '|'

(* The index of the bar that ends the ctime field when everything before
   the payload is as [encode] writes it, the kind field's contents left
   to the caller; -1 otherwise. One pass: the mode's run of 1 to 21
   octal digits (21 is the 63 bits [encode] writes for a negative mode)
   and the ctime's run of 1 to 16 hex digits must each end at a bar. *)
let header_end s =
  let n = String.length s in
  let kind_end = if versioned s then next_bar s 3 else -1 in
  let mode_end = if kind_end < 0 then n else octal_run s (kind_end + 1) in
  let ctime_end = if mode_end >= n then n else Fid.hex_run s (mode_end + 1) in
  if ctime_end < n && s.[mode_end] = '|' && s.[ctime_end] = '|'
     && mode_end - kind_end - 1 >= 1 && mode_end - kind_end - 1 <= 21
     && ctime_end - mode_end - 1 >= 1 && ctime_end - mode_end - 1 <= 16
  then ctime_end
  else -1

(* Why [header_end] refused [s]: fewer than four bars from the version
   on is a bad layout, anything else a bad number. Hex digits may be of
   either case; underscores or signs in a number, or more than 16 ctime
   digits, are bad numbers. *)
let header_error s =
  let bar_after i = if i < 0 then -1 else next_bar s (i + 1) in
  if versioned s && bar_after (bar_after (bar_after 2)) >= 0 then
    field_error "numeric field" s
  else field_error "layout" s

(* the kind byte of a one-byte kind field, or '?' *)
let kind_char s = if s.[3] <> '|' && s.[4] = '|' then s.[3] else '?'

(* [kind] with the mode and ctime of a well-formed header: a one-byte
   kind field, so the mode starts at byte 5; the ctime bits are read in
   two 32-bit halves *)
let with_header kind s ctime_end =
  let mode_end = next_bar s 5 in
  let lo_start = Int.max (mode_end + 1) (ctime_end - 8) in
  let hi = Fid.hex_digits s (mode_end + 1) lo_start
  and lo = Fid.hex_digits s lo_start ctime_end in
  Ok
    { kind;
      mode = octal s 0 5 mode_end;
      ctime =
        Int64.float_of_bits
          (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)) }

(* Parses what [encode] writes, in place: the fields are found by index,
   the numbers accumulate in native ints and nothing is copied out but a
   symlink target. *)
let decode s =
  match header_end s with
  | -1 -> header_error s
  | ctime_end ->
    let payload = ctime_end + 1 in
    (match kind_char s with
     | 'd' -> with_header Dir s ctime_end
     | 'f' ->
       (match Fid.of_hex_at s payload with
        | Some fid -> with_header (File fid) s ctime_end
        | None -> field_error "fid" s)
     | 'l' ->
       with_header (Symlink (String.sub s payload (String.length s - payload))) s ctime_end
     | _ -> field_error "kind" s)

type kind_tag = Dir_tag | File_tag | Symlink_tag

(* [decode]'s checks without its values: no FID, boxed ctime, record or
   symlink target is built *)
let kind_tag s =
  let ctime_end = header_end s in
  if ctime_end < 0 then None
  else
    match kind_char s with
    | 'd' -> Some Dir_tag
    | 'f' -> if Fid.is_hex_at s (ctime_end + 1) then Some File_tag else None
    | 'l' -> Some Symlink_tag
    | _ -> None

let pp fmt t =
  match t.kind with
  | Dir -> Format.fprintf fmt "dir(mode=%o)" t.mode
  | File fid -> Format.fprintf fmt "file(%a, mode=%o)" Fid.pp fid t.mode
  | Symlink target -> Format.fprintf fmt "symlink(%s)" target
