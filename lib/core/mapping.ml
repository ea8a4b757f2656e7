let md5_mod ~backends fid =
  if backends < 1 then invalid_arg "Mapping.md5_mod: backends < 1";
  Zk.Md5.to_int (Zk.Md5.digest (Fid.to_bytes fid)) mod backends

let imbalance locate_fid ~backends fids =
  if backends < 1 then invalid_arg "Mapping.imbalance: backends < 1";
  let buckets = Array.make backends 0 in
  List.iter (fun fid -> let i = locate_fid fid in buckets.(i) <- buckets.(i) + 1) fids;
  let largest = Array.fold_left max 0 buckets in
  let smallest = Array.fold_left min max_int buckets in
  if smallest = 0 then Float.infinity
  else float_of_int largest /. float_of_int smallest
