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
let next_bar s i = try String.index_from s i '|' with Not_found -> -1

(* whether [s] holds 1 to 21 octal digits from [i] up to [stop]: 21 is
   the 63 bits [encode] writes for a negative mode *)
let rec octal_digits s i stop =
  i = stop
  || (match String.unsafe_get s i with
      | '0' .. '7' -> octal_digits s (i + 1) stop
      | _ -> false)

let is_octal s i stop = stop > i && stop - i <= 21 && octal_digits s i stop

(* the value of those digits, wrapping as [int_of_string "0o..."] does *)
let rec octal s acc i stop =
  if i = stop then acc
  else
    let d = Char.code (String.unsafe_get s i) - Char.code '0' in
    octal s ((acc lsl 3) lor d) (i + 1) stop

let field_error what s = Error (Printf.sprintf "Meta.decode: bad %s in %S" what s)

(* Parses what [encode] writes, in place: the fields are found by index,
   the numbers accumulate in native ints (the ctime bits in two 32-bit
   halves) and nothing is copied out but a symlink target. Hex digits
   may be of either case; any other shape (underscores or signs in a
   number, more than 16 ctime digits, no payload field) is an error. *)
let decode s =
  let n = String.length s in
  let kind_end =
    if n >= 3 && s.[0] = 'v' && s.[1] = '1' && s.[2] = '|' then next_bar s 3 else -1
  in
  let mode_end = if kind_end < 0 then -1 else next_bar s (kind_end + 1) in
  let ctime_end = if mode_end < 0 then -1 else next_bar s (mode_end + 1) in
  if ctime_end < 0 then field_error "layout" s
  else
    let mode_ok = is_octal s (kind_end + 1) mode_end in
    let ctime_start = mode_end + 1 in
    let lo_start = Int.max ctime_start (ctime_end - 8) in
    let hi = Fid.hex_digits s ctime_start lo_start
    and lo = Fid.hex_digits s lo_start ctime_end in
    if (not mode_ok) || ctime_end = ctime_start || ctime_end - ctime_start > 16
       || hi < 0 || lo < 0
    then field_error "numeric field" s
    else
      let ctime =
        Int64.float_of_bits
          (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      in
      let mode = octal s 0 (kind_end + 1) mode_end and payload = ctime_end + 1 in
      match if kind_end = 4 then s.[3] else '?' with
      | 'd' -> Ok { kind = Dir; mode; ctime }
      | 'f' ->
        (match Fid.of_hex_at s payload with
         | Some fid -> Ok { kind = File fid; mode; ctime }
         | None -> field_error "fid" s)
      | 'l' -> Ok { kind = Symlink (String.sub s payload (n - payload)); mode; ctime }
      | _ -> field_error "kind" s

let pp fmt t =
  match t.kind with
  | Dir -> Format.fprintf fmt "dir(mode=%o)" t.mode
  | File fid -> Format.fprintf fmt "file(%a, mode=%o)" Fid.pp fid t.mode
  | Symlink target -> Format.fprintf fmt "symlink(%s)" target
