let split p =
  if p = "/" || p = "" then []
  else String.split_on_char '/' (String.sub p 1 (String.length p - 1))

(* Single char scan, no intermediate component list: [validate] sits on
   every create/delete path of every replica, so it must not allocate.
   A component is the span between slashes; reject empty ones (double
   slash), ["."] and [".."]. *)
let validate p =
  let len = String.length p in
  if len = 0 || p.[0] <> '/' then Error Zerror.ZBADARGUMENTS
  else if len = 1 then Ok ()
  else if p.[len - 1] = '/' then Error Zerror.ZBADARGUMENTS
  else begin
    let bad = ref false in
    let start = ref 1 in
    (* component [start..i-1] ends at each '/' and at the end of string *)
    for i = 1 to len do
      if i = len || p.[i] = '/' then begin
        let n = i - !start in
        if
          n = 0
          || (n = 1 && p.[!start] = '.')
          || (n = 2 && p.[!start] = '.' && p.[!start + 1] = '.')
        then bad := true;
        start := i + 1
      end
    done;
    if !bad then Error Zerror.ZBADARGUMENTS else Ok ()
  end

let parent p =
  match String.rindex_opt p '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub p 0 i

let basename p =
  match String.rindex_opt p '/' with
  | None -> p
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)

let concat dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let depth p = List.length (split p)

let sequential_name base counter = Printf.sprintf "%s%010d" base counter

let hash (p : string) = Hashtbl.hash p
