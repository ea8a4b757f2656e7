include Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash z = Int64.to_int z land max_int
end)
