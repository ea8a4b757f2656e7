let max_component = 255

(* whether [p] holds no doubled separator and, past its first byte, no
   trailing one: the common case, which [normalize] returns as is *)
let is_normal p =
  let len = String.length p in
  let rec clean i =
    i >= len
    || (not (String.unsafe_get p i = '/' && String.unsafe_get p (i - 1) = '/'))
       && clean (i + 1)
  in
  (len < 2 || String.unsafe_get p (len - 1) <> '/') && clean 1

let normalize p =
  if is_normal p then p
  else begin
    let len = String.length p in
    let b = Bytes.create len in
    let n = ref 0 in
    for i = 0 to len - 1 do
      let c = String.unsafe_get p i in
      if c <> '/' || !n = 0 || Bytes.unsafe_get b (!n - 1) <> '/' then begin
        Bytes.unsafe_set b !n c;
        incr n
      end
    done;
    if !n > 1 && Bytes.unsafe_get b (!n - 1) = '/' then decr n;
    Bytes.sub_string b 0 !n
  end

(* Every function below reads byte 0 of a normalized path as the root
   separator whatever it holds, so a relative path loses its first byte
   (["ab/c"] has components ["b"; "c"]); [validate] refuses such paths
   before any VFS walks them. *)

let split p =
  match normalize p with
  | "" | "/" -> []
  | p -> String.split_on_char '/' (String.sub p 1 (String.length p - 1))

(* One scan over the components, doubled and trailing separators
   skipped. A component longer than [max_component] answers at once, as
   ENAMETOOLONG outranks a ["."] or [".."] seen earlier. The scan is a
   top-level function, so validating allocates nothing: every simulated
   client op validates its path. *)
let rec validate_from p len start i dotted =
  if i = len || String.unsafe_get p i = '/' then
    let n = i - start in
    if n > max_component then Error Errno.ENAMETOOLONG
    else
      let dotted =
        dotted
        || (n = 1 && String.unsafe_get p start = '.')
        || (n = 2 && String.unsafe_get p start = '.'
            && String.unsafe_get p (start + 1) = '.')
      in
      if i < len then validate_from p len (i + 1) (i + 1) dotted
      else if dotted then Error Errno.EINVAL
      else Ok ()
  else validate_from p len start (i + 1) dotted

let validate p =
  let len = String.length p in
  if len = 0 || String.unsafe_get p 0 <> '/' then Error Errno.EINVAL
  else validate_from p len 1 1 false

let join = function
  | [] -> "/"
  | comps -> "/" ^ String.concat "/" comps

(* the last separator of a normalized [n] past byte 0, or 0 *)
let last_sep n =
  let rec go i =
    if i < 1 then 0 else if String.unsafe_get n i = '/' then i else go (i - 1)
  in
  go (String.length n - 1)

let parent p =
  let n = normalize p in
  match last_sep n with
  | 0 -> "/"
  | i when n.[0] = '/' -> String.sub n 0 i
  | i -> "/" ^ String.sub n 1 (i - 1)

let basename p =
  let n = normalize p in
  if String.length n < 2 then ""
  else
    let i = last_sep n in
    String.sub n (i + 1) (String.length n - i - 1)

let concat dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let is_prefix ~prefix p =
  let prefix = normalize prefix and p = normalize p in
  prefix = p
  || prefix = "/"
  ||
  let lp = String.length prefix in
  String.length p > lp && String.sub p 0 lp = prefix && p.[lp] = '/'

let depth p = List.length (split p)
