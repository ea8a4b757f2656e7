module Vfs = Fuselike.Vfs

type layout = {
  levels : int;
  chars_per_level : int;
}

let default_layout = { levels = 2; chars_per_level = 1 }

let check_layout layout =
  if layout.levels < 0 || layout.chars_per_level < 1
     || layout.levels * layout.chars_per_level > 16
  then invalid_arg "Physical: bad layout"

(* "/c1/c2/.../<hex>", built in one buffer from one formatting of the
   FID's hex. Components come from the low end of the hex string: the
   counter's low digits vary fastest, spreading consecutive creates
   across the top directories. *)
let path layout fid =
  check_layout layout;
  let hex = Fid.to_hex fid in
  let len = String.length hex and width = layout.chars_per_level in
  let dirs = layout.levels * (width + 1) in
  let b = Bytes.create (dirs + 1 + len) in
  for i = 0 to layout.levels - 1 do
    Bytes.set b (i * (width + 1)) '/';
    Bytes.blit_string hex (len - ((i + 1) * width)) b ((i * (width + 1)) + 1) width
  done;
  Bytes.set b dirs '/';
  Bytes.blit_string hex 0 b (dirs + 1) len;
  Bytes.unsafe_to_string b

let dir layout fid =
  let p = path layout fid in
  if layout.levels = 0 then "/"
  else String.sub p 0 (layout.levels * (layout.chars_per_level + 1))

let fid_of_path p =
  match String.rindex_opt p '/' with
  | None -> None
  | Some i -> Fid.of_hex (String.sub p (i + 1) (String.length p - i - 1))

let format layout ops =
  check_layout layout;
  let rec fill parent level =
    if level = layout.levels then Ok ()
    else begin
      let width = layout.chars_per_level in
      let count = 1 lsl (4 * width) in
      let rec each i =
        if i = count then Ok ()
        else begin
          let name = Printf.sprintf "%0*x" width i in
          let child = Fuselike.Fspath.concat parent name in
          match ops.Vfs.mkdir child ~mode:0o755 with
          | Ok () | Error Fuselike.Errno.EEXIST ->
            (match fill child (level + 1) with
             | Ok () -> each (i + 1)
             | Error _ as e -> e)
          | Error _ as e -> e
        end
      in
      each 0
    end
  in
  fill "/" 0

let paper_split hex =
  if String.length hex <> 16 then invalid_arg "Physical.paper_split: want 16 hex digits";
  let quarter i = String.sub hex (4 * i) 4 in
  String.concat "/" [ quarter 3; quarter 2; quarter 1; quarter 0 ]
