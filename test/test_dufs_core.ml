(* Tests for the DUFS core primitives: MD5, FIDs, the deterministic
   mapping function, consistent hashing, physical layout and metadata
   encoding. *)

module Md5 = Zk.Md5
module Fid = Dufs.Fid
module Mapping = Dufs.Mapping
module Consistent_hash = Zk.Consistent_hash
module Physical = Dufs.Physical
module Meta = Dufs.Meta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* {2 MD5 (RFC 1321 test vectors)} *)

let rfc1321_vectors =
  [ ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" ) ]

let test_rfc_vectors () =
  List.iter
    (fun (input, expected) ->
      check_string (Printf.sprintf "md5(%S)" input) expected (Md5.hex input))
    rfc1321_vectors

let test_digest_length () =
  check_int "raw digest is 16 bytes" 16 (String.length (Md5.digest "anything"));
  check_int "hex digest is 32 chars" 32 (String.length (Md5.hex "anything"))

(* Lengths around the 64-byte block and 56-byte padding boundary,
   pinned to the digests of the hand-rolled RFC 1321 implementation this
   module replaced: the stdlib computes the same bytes. *)
let block_boundary_digests =
  [ (0, "d41d8cd98f00b204e9800998ecf8427e");
    (1, "9dd4e461268c8034f5c8564e155c67a6");
    (55, "04364420e25c512fd958a70738aa8f72");
    (56, "668a72d5ba17f08e62dabcafad6db14b");
    (57, "693037871c4a9d3d8685018905cb530a");
    (63, "7dc2ca208106a2f703567bdff99d8981");
    (64, "c1bb4f81d892b2d57947682aeb252456");
    (65, "1bc932052302d074bdec39795fe00cf6");
    (119, "ab347a5f68c8a443cfcddc633f12c24f");
    (120, "fb98667f98096de92620b64f46e1c5b5");
    (127, "a0b28c1da68705c2ff883fe279b72753");
    (128, "d69cb61a6ee87200676eb0d4b90edbcb");
    (1000, "398533d48111e9f664b1f64cb10c4b63") ]

let test_block_boundaries () =
  List.iter
    (fun (n, expected) ->
      check_string (Printf.sprintf "md5 of %d x's" n) expected
        (Md5.hex (String.make n 'x')))
    block_boundary_digests

let prop_md5_deterministic =
  QCheck2.Test.make ~name:"md5 deterministic and 128-bit" ~count:300
    QCheck2.Gen.string (fun s ->
      Md5.digest s = Md5.digest s && String.length (Md5.digest s) = 16)

let test_to_int_nonnegative () =
  List.iter
    (fun s -> check_bool "to_int >= 0" true (Md5.to_int (Md5.digest s) >= 0))
    [ ""; "a"; "\255\255\255\255\255\255\255\255"; "zzz" ]

(* {2 FID} *)

let test_fid_hex_roundtrip () =
  let fid = Fid.make ~client_id:0x0123456789abcdefL ~counter:42L in
  let hex = Fid.to_hex fid in
  check_int "32 hex chars" 32 (String.length hex);
  check_string "layout" "0123456789abcdef000000000000002a" hex;
  (match Fid.of_hex hex with
  | Some fid' -> check_bool "roundtrip" true (Fid.equal fid fid')
  | None -> Alcotest.fail "of_hex failed")

let test_fid_of_hex_rejects_garbage () =
  check_bool "short" true (Fid.of_hex "abc" = None);
  check_bool "bad chars" true (Fid.of_hex (String.make 32 'g') = None);
  check_bool "right length wrong chars" true
    (Fid.of_hex "0123456789abcdef0123456789abcdeZ" = None)

let test_fid_bytes () =
  let fid = Fid.make ~client_id:1L ~counter:258L in
  let b = Fid.to_bytes fid in
  check_int "16 bytes" 16 (String.length b);
  check_int "client id big-endian" 1 (Char.code b.[7]);
  check_int "counter high byte" 1 (Char.code b.[14]);
  check_int "counter low byte" 2 (Char.code b.[15])

let test_fid_generator () =
  let gen = Fid.Gen.create ~client_id:7L in
  let a = Fid.Gen.next gen and b = Fid.Gen.next gen in
  check_bool "distinct" true (not (Fid.equal a b));
  check_bool "same client" true (Fid.compare a b < 0);
  check_bool "counter increments" true
    (Int64.equal (Fid.Gen.generated gen) 2L)

let prop_fid_uniqueness =
  QCheck2.Test.make ~name:"fids unique across clients and counters" ~count:100
    QCheck2.Gen.(int_range 2 8)
    (fun clients ->
      let all =
        List.concat_map
          (fun c ->
            let gen = Fid.Gen.create ~client_id:(Int64.of_int c) in
            List.init 50 (fun _ -> Fid.to_hex (Fid.Gen.next gen)))
          (List.init clients (fun i -> i + 1))
      in
      List.length (List.sort_uniq compare all) = List.length all)

(* {2 Mapping function} *)

let fids_for_tests n =
  let gen = Fid.Gen.create ~client_id:99L in
  List.init n (fun _ -> Fid.Gen.next gen)

let test_mapping_range () =
  List.iter
    (fun backends ->
      List.iter
        (fun fid ->
          let i = Mapping.md5_mod ~backends fid in
          check_bool "in range" true (i >= 0 && i < backends))
        (fids_for_tests 200))
    [ 1; 2; 3; 7; 16 ]

let test_mapping_deterministic () =
  let fid = Fid.make ~client_id:5L ~counter:123L in
  check_int "same result every time"
    (Mapping.md5_mod ~backends:4 fid)
    (Mapping.md5_mod ~backends:4 fid)

(* The FID -> back-end placement is a stored-data format: every client
   must keep finding files where earlier clients put them. Pinned over
   64 fixed FIDs to the hand-rolled MD5's placements. *)
let golden_fids =
  List.init 64 (fun i ->
      Fid.make
        ~client_id:(Int64.of_int ((i mod 7 * 0x1000193) + 1))
        ~counter:(Int64.of_int (i * 37)))

let golden_placements =
  [ ( 2,
      [ 0; 0; 0; 1; 0; 1; 1; 1; 1; 0; 0; 1; 0; 1; 1; 0; 1; 1; 1; 1; 0; 0;
        0; 1; 1; 1; 1; 1; 1; 1; 0; 1; 1; 1; 1; 0; 0; 0; 0; 0; 1; 1; 0; 0;
        0; 1; 1; 0; 0; 0; 0; 1; 0; 0; 0; 0; 1; 1; 1; 0; 1; 0; 0; 1 ] );
    ( 3,
      [ 2; 1; 2; 2; 0; 2; 1; 1; 0; 0; 1; 0; 0; 0; 1; 1; 2; 1; 0; 1; 2; 2;
        1; 2; 0; 0; 0; 2; 2; 1; 2; 1; 1; 1; 0; 0; 0; 0; 0; 0; 1; 1; 2; 0;
        2; 1; 2; 1; 2; 1; 1; 0; 2; 0; 1; 1; 2; 2; 0; 0; 1; 1; 2; 1 ] );
    ( 8,
      [ 6; 6; 6; 3; 4; 1; 5; 7; 7; 2; 4; 5; 6; 1; 7; 4; 1; 3; 5; 7; 4; 4;
        0; 5; 7; 1; 1; 5; 5; 5; 6; 5; 5; 5; 3; 2; 2; 4; 2; 0; 7; 7; 6; 0;
        4; 5; 3; 6; 4; 4; 0; 3; 2; 2; 6; 6; 3; 5; 7; 6; 5; 0; 2; 3 ] ) ]

let test_mapping_golden_placements () =
  List.iter
    (fun (backends, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "md5_mod ~backends:%d" backends)
        expected
        (List.map (Mapping.md5_mod ~backends) golden_fids))
    golden_placements

let test_mapping_rejects_zero_backends () =
  Alcotest.check_raises "zero backends"
    (Invalid_argument "Mapping.md5_mod: backends < 1") (fun () ->
      ignore (Mapping.md5_mod ~backends:0 (Fid.make ~client_id:1L ~counter:1L)))

let test_mapping_fairness () =
  (* the paper picks MD5 precisely for its load-spreading fairness (§IV-F) *)
  let fids = fids_for_tests 20_000 in
  List.iter
    (fun backends ->
      let imbalance =
        Mapping.imbalance (Mapping.md5_mod ~backends) ~backends fids
      in
      check_bool
        (Printf.sprintf "max/min bucket ratio %.3f < 1.15 for N=%d" imbalance backends)
        true (imbalance < 1.15))
    [ 2; 4; 8 ]

(* {2 Consistent hashing} *)

let test_ring_basic () =
  let ring = Consistent_hash.create [ 0; 1; 2; 3 ] in
  let owner = Consistent_hash.lookup ring "some-key" in
  check_bool "owner valid" true (owner >= 0 && owner < 4);
  check_int "lookup deterministic" owner (Consistent_hash.lookup ring "some-key")

let test_ring_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Consistent_hash.create: no nodes")
    (fun () -> ignore (Consistent_hash.create []));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Consistent_hash.create: duplicate node ids") (fun () ->
      ignore (Consistent_hash.create [ 1; 1 ]));
  let ring = Consistent_hash.create [ 0 ] in
  Alcotest.check_raises "remove last"
    (Invalid_argument "Consistent_hash.remove_node: would empty the ring") (fun () ->
      ignore (Consistent_hash.remove_node ring 0))

let keys_for_tests n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let test_ring_bounded_relocation_on_add () =
  (* §VII: adding a back-end must relocate only ~1/(N+1) of the data *)
  let keys = keys_for_tests 20_000 in
  let before = Consistent_hash.create [ 0; 1; 2; 3 ] in
  let after = Consistent_hash.add_node before 4 in
  let moved = Consistent_hash.relocated ~before ~after keys in
  check_bool (Printf.sprintf "moved %.3f ≈ 1/5" moved) true
    (moved > 0.10 && moved < 0.30)

let test_ring_relocation_only_to_new_node () =
  let keys = keys_for_tests 5_000 in
  let before = Consistent_hash.create [ 0; 1; 2 ] in
  let after = Consistent_hash.add_node before 3 in
  List.iter
    (fun key ->
      let a = Consistent_hash.lookup before key and b = Consistent_hash.lookup after key in
      if a <> b then check_int "keys only move to the new node" 3 b)
    keys

let test_ring_remove_inverse_of_add () =
  let before = Consistent_hash.create [ 0; 1; 2 ] in
  let round_trip = Consistent_hash.remove_node (Consistent_hash.add_node before 9) 9 in
  List.iter
    (fun key ->
      check_int "same owner after add+remove"
        (Consistent_hash.lookup before key)
        (Consistent_hash.lookup round_trip key))
    (keys_for_tests 1_000)

let test_md5_mod_relocation_is_unbounded () =
  (* the contrast motivating the future work: mod-N moves ~1 - 1/(N+1) *)
  let fids = fids_for_tests 20_000 in
  let moved =
    List.length
      (List.filter
         (fun fid -> Mapping.md5_mod ~backends:4 fid <> Mapping.md5_mod ~backends:5 fid)
         fids)
  in
  let fraction = float_of_int moved /. 20_000. in
  check_bool (Printf.sprintf "mod-N moved %.2f > 0.6" fraction) true (fraction > 0.6)

let prop_ring_balance =
  QCheck2.Test.make ~name:"ring spreads keys within 2.5x of fair" ~count:10
    QCheck2.Gen.(int_range 2 8)
    (fun nodes ->
      let ring = Consistent_hash.create ~replicas:128 (List.init nodes Fun.id) in
      let counts = Array.make nodes 0 in
      List.iter
        (fun key ->
          let o = Consistent_hash.lookup ring key in
          counts.(o) <- counts.(o) + 1)
        (keys_for_tests 20_000);
      let fair = 20_000. /. float_of_int nodes in
      Array.for_all
        (fun c -> float_of_int c > fair /. 2.5 && float_of_int c < fair *. 2.5)
        counts)

(* {2 Physical layout} *)

let test_paper_split_example () =
  (* Fig. 4 of the paper, verbatim *)
  check_string "paper example" "cdef/89ab/4567/0123"
    (Physical.paper_split "0123456789abcdef")

let test_physical_path_shape () =
  let fid = Fid.make ~client_id:0x0123456789abcdefL ~counter:0x1122334455667788L in
  let layout = Physical.default_layout in
  let p = Physical.path layout fid in
  (* low hex digits of the counter become the leading components *)
  check_string "path" "/8/8/0123456789abcdef1122334455667788" p;
  check_string "dir" "/8/8" (Physical.dir layout fid)

let test_physical_components_vary_fastest () =
  (* consecutive creates land in different top-level directories *)
  let layout = Physical.default_layout in
  let gen = Fid.Gen.create ~client_id:1L in
  let dirs =
    List.init 16 (fun _ -> Physical.dir layout (Fid.Gen.next gen))
  in
  check_int "16 consecutive fids hit 16 distinct dirs" 16
    (List.length (List.sort_uniq compare dirs))

let test_physical_fid_roundtrip () =
  let layout = { Physical.levels = 3; chars_per_level = 2 } in
  let fid = Fid.make ~client_id:123L ~counter:456L in
  (match Physical.fid_of_path (Physical.path layout fid) with
  | Some fid' -> check_bool "roundtrip through path" true (Fid.equal fid fid')
  | None -> Alcotest.fail "fid_of_path failed")

let test_physical_bad_layout () =
  Alcotest.check_raises "too many chars" (Invalid_argument "Physical: bad layout")
    (fun () ->
      ignore
        (Physical.path { Physical.levels = 5; chars_per_level = 4 }
           (Fid.make ~client_id:1L ~counter:1L)))

let test_format_creates_hierarchy () =
  let fs = Fuselike.Memfs.create ~clock:(fun () -> 0.) () in
  let ops = Fuselike.Memfs.ops fs in
  (match Physical.format Physical.default_layout ops with
  | Ok () -> ()
  | Error e -> Alcotest.failf "format: %s" (Fuselike.Errno.to_string e));
  (* 16 top dirs, each with 16 children *)
  check_int "16 top-level dirs" 16
    (List.length (Result.get_ok (ops.Fuselike.Vfs.readdir "/")));
  check_int "16 second-level dirs" 16
    (List.length (Result.get_ok (ops.Fuselike.Vfs.readdir "/a")));
  (* formatting is idempotent *)
  check_bool "idempotent" true (Physical.format Physical.default_layout ops = Ok ())

let prop_physical_unique_paths =
  QCheck2.Test.make ~name:"distinct fids give distinct physical paths" ~count:100
    QCheck2.Gen.(pair int64 int64)
    (fun (a, b) ->
      let fid_a = Fid.make ~client_id:1L ~counter:a in
      let fid_b = Fid.make ~client_id:1L ~counter:b in
      Int64.equal a b
      || Physical.path Physical.default_layout fid_a
         <> Physical.path Physical.default_layout fid_b)

(* {2 Meta encoding} *)

let test_meta_roundtrip_dir () =
  let meta = Meta.dir ~mode:0o751 ~ctime:1234.5 in
  (match Meta.decode (Meta.encode meta) with
  | Ok meta' -> check_bool "dir roundtrip" true (Meta.equal meta meta')
  | Error e -> Alcotest.fail e)

let test_meta_roundtrip_file () =
  let fid = Fid.make ~client_id:77L ~counter:88L in
  let meta = Meta.file fid ~mode:0o640 ~ctime:0.125 in
  match Meta.decode (Meta.encode meta) with
  | Ok { Meta.kind = Meta.File fid'; mode; _ } ->
    check_bool "fid kept" true (Fid.equal fid fid');
    check_int "mode kept" 0o640 mode
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e

let test_meta_roundtrip_symlink_with_separator () =
  (* the target is the last field, so it may contain the separator *)
  let meta = Meta.symlink ~target:"/weird|name|with|pipes" ~ctime:9. in
  match Meta.decode (Meta.encode meta) with
  | Ok { Meta.kind = Meta.Symlink target; _ } ->
    check_string "target with pipes survives" "/weird|name|with|pipes" target
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e

let garbage_metas =
  [ ""; "v0|d|755|0|"; "v1|z|755|0|"; "v1|d|xyz|0|"; "v1|f|644|0|nothex"; "random" ]

let test_meta_decode_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "rejects %S" s) true (Result.is_error (Meta.decode s)))
    garbage_metas

let prop_meta_roundtrip =
  QCheck2.Test.make ~name:"meta encode/decode roundtrip" ~count:300
    QCheck2.Gen.(triple (int_range 0 0o777) (float_range 0. 1e9) (pair int64 int64))
    (fun (mode, ctime, (client_id, counter)) ->
      let metas =
        [ Meta.dir ~mode ~ctime;
          Meta.file (Fid.make ~client_id ~counter) ~mode ~ctime ]
      in
      List.for_all
        (fun meta ->
          match Meta.decode (Meta.encode meta) with
          | Ok meta' -> Meta.equal meta meta'
          | Error _ -> false)
        metas)

(* {2 Meta decoding equivalence}

   [Meta.decode] parses [encode]'s output in place. The field-splitting
   decoders it replaced are kept here verbatim as the reference. On
   encoded metadata both must return the same value. On damaged input
   the in-place decoder may refuse more (underscores in numbers, an
   over-long ctime, a missing payload field), but never a string that
   is [encode]'s output, never accepts what the reference refuses and
   never decodes to a different value. *)

let reference_fid_of_hex s =
  let hex_value c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let parse_u64 s off =
    let rec go acc i =
      if i = 16 then Some acc
      else
        match hex_value s.[off + i] with
        | Some v -> go (Int64.logor (Int64.shift_left acc 4) (Int64.of_int v)) (i + 1)
        | None -> None
    in
    go 0L 0
  in
  if String.length s <> 32 then None
  else
    match parse_u64 s 0, parse_u64 s 16 with
    | Some client_id, Some counter -> Some (Fid.make ~client_id ~counter)
    | _, _ -> None

let reference_meta_decode s =
  let field_error what = Error (Printf.sprintf "Meta.decode: bad %s in %S" what s) in
  match String.split_on_char '|' s with
  | "v1" :: kind_tag :: mode_s :: ctime_s :: rest ->
    let payload = String.concat "|" rest in
    let mode = int_of_string_opt ("0o" ^ mode_s) in
    let ctime =
      match Int64.of_string_opt ("0x" ^ ctime_s) with
      | Some bits -> Some (Int64.float_of_bits bits)
      | None -> None
    in
    (match mode, ctime with
     | Some mode, Some ctime ->
       (match kind_tag with
        | "d" -> Ok { Meta.kind = Meta.Dir; mode; ctime }
        | "f" ->
          (match reference_fid_of_hex payload with
           | Some fid -> Ok { Meta.kind = Meta.File fid; mode; ctime }
           | None -> field_error "fid")
        | "l" -> Ok { Meta.kind = Meta.Symlink payload; mode; ctime }
        | _ -> field_error "kind")
     | _, _ -> field_error "numeric field")
  | _ -> field_error "layout"

(* same value, ctime compared by its bits so NaN payloads count *)
let same_meta (x : Meta.t) (y : Meta.t) =
  x.mode = y.mode
  && Int64.equal (Int64.bits_of_float x.ctime) (Int64.bits_of_float y.ctime)
  &&
  match x.kind, y.kind with
  | Meta.Dir, Meta.Dir -> true
  | Meta.File f, Meta.File g -> Fid.equal f g
  | Meta.Symlink p, Meta.Symlink q -> String.equal p q
  | (Meta.Dir | Meta.File _ | Meta.Symlink _), _ -> false

let decode_errors s =
  List.map
    (fun what -> Printf.sprintf "Meta.decode: bad %s in %S" what s)
    [ "layout"; "numeric field"; "kind"; "fid" ]

(* [Meta.decode s] against the reference, as the section comment says *)
let agrees_with_reference s =
  match Meta.decode s, reference_meta_decode s with
  | Ok x, Ok y -> same_meta x y
  | Ok _, Error _ -> false
  | Error e, Ok y -> Meta.encode y <> s && List.mem e (decode_errors s)
  | Error e, Error _ -> List.mem e (decode_errors s)

let show_decoding = function
  | Ok meta -> Format.asprintf "Ok %a ctime=%Lx" Meta.pp meta
                 (Int64.bits_of_float meta.Meta.ctime)
  | Error e -> "Error " ^ e

let gen_encoded_meta =
  QCheck2.Gen.(
    let ctime =
      oneof
        [ float;
          map Int64.float_of_bits int64;
          oneofl [ nan; -.nan; infinity; neg_infinity; max_float; -.max_float;
                   min_float; -0.; 0.; -1.5; 1e300; -1e-300 ] ]
    in
    let mode = oneof [ int_range 0 0o7777; int; oneofl [ 0; max_int; min_int; -1 ] ] in
    let target = string_size ~gen:(oneofl [ 'a'; '/'; '|'; '0'; ' '; 'f' ]) (int_range 0 12) in
    let meta =
      oneof
        [ map2 (fun mode ctime -> Meta.dir ~mode ~ctime) mode ctime;
          map3 (fun (client_id, counter) mode ctime ->
              Meta.file (Fid.make ~client_id ~counter) ~mode ~ctime)
            (pair int64 int64) mode ctime;
          map2 (fun target ctime -> Meta.symlink ~target ~ctime) target ctime ]
    in
    map Meta.encode meta)

(* a single-byte mutation or a truncation of an encoded string *)
let gen_damaged_meta =
  QCheck2.Gen.(
    gen_encoded_meta >>= fun s ->
    let n = String.length s in
    let alphabet =
      oneof [ oneofl [ '0'; '7'; '8'; '9'; 'a'; 'f'; 'g'; 'A'; 'F'; 'x'; 'o'; '_';
                       '|'; '-'; '+'; 'v'; '1'; 'd'; 'l' ];
              char ]
    in
    oneof
      [ map2 (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
          (int_range 0 (n - 1)) alphabet;
        map (fun len -> String.sub s 0 len) (int_range 0 n) ])

let prop_meta_decode_encoded =
  QCheck2.Test.make ~name:"decode = reference on encoded metadata" ~count:3000
    ~print:(Printf.sprintf "%S") gen_encoded_meta (fun s ->
      match Meta.decode s, reference_meta_decode s with
      | Ok x, Ok y -> same_meta x y
      | (Ok _ | Error _), _ -> false)

let prop_meta_decode_damaged =
  QCheck2.Test.make ~name:"decode agrees with reference on mutated and truncated metadata"
    ~count:3000 ~print:(Printf.sprintf "%S") gen_damaged_meta agrees_with_reference

let pinned_fid_hex = "0123456789ABCDEF0123456789abcdef"

let pinned_metas =
  let fid_hex = pinned_fid_hex in
  [ ("v1|f|644|0|" ^ fid_hex, `Reference);
    ("v1|f|644|0|" ^ String.uppercase_ascii fid_hex, `Reference);
    ("v1|d|755|3FF0000000000000|", `Reference);
    ("v1|d|755|0|extra|field", `Reference);
    ("v1|f|644|0|" ^ fid_hex ^ "|extra", `Reference);
    ("v1|l|777|0|target|with|pipes|", `Reference);
    ("v1|d|755|12345678901234567|", `Reference);
    ("v1|d||0|", `Reference);
    ("v1|D|755|0|", `Reference);
    ("v1|dd|755|0|", `Reference);
    ("v1|d|0o755|0|", `Reference);
    ("v1|d|755|0x0|", `Reference);
    ("v1|d|-1|0|", `Reference);
    ("v1|d|77777777777777777777|ffffffffffffffff|", `Reference);
    ("v1|d|777777777777777777777|0|", `Reference);
    ("v1|d|1777777777777777777777|0|", `Reference);
    (* narrowed: the reference accepts these, [encode] never writes them *)
    ("v1|d|7_55|0|", `Refused "numeric field");
    ("v1|d|755|00000000000000000|", `Refused "numeric field");
    ("v1|d|755|0", `Refused "layout");
    ("v1|d|755|", `Refused "layout") ]

let test_meta_decode_pinned_edges () =
  let expect (s, want) =
    let got = Meta.decode s in
    match want, got with
    | `Reference, _ ->
      (match got, reference_meta_decode s with
       | Ok x, Ok y when same_meta x y -> ()
       | Error e, Error r when e = r -> ()
       | _, want ->
         Alcotest.failf "decode %S: got %s, reference %s" s (show_decoding got)
           (show_decoding want))
    | `Refused what, Error e when e = Printf.sprintf "Meta.decode: bad %s in %S" what s -> ()
    | `Refused what, _ ->
      Alcotest.failf "decode %S: got %s, want bad %s" s (show_decoding got) what
  in
  List.iter expect pinned_metas

let test_meta_decode_allocates_little () =
  (* the in-place parse allocates the result (Ok, record, boxed ctime,
     File, the FID and its two int64s), not per digit or per field *)
  let s =
    Meta.encode
      (Meta.file (Fid.make ~client_id:0x0123456789abcdefL ~counter:(-2L))
         ~mode:0o644 ~ctime:1.7e9)
  in
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (Meta.decode s))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int rounds in
  check_bool (Printf.sprintf "%.1f words per decode" per_call) true (per_call < 32.)

let prop_fid_of_hex_matches_reference =
  let hex_char = QCheck2.Gen.oneofl (String.to_seq "0123456789abcdefABCDEF" |> List.of_seq) in
  let any_char = QCheck2.Gen.(oneof [ hex_char; hex_char; hex_char; char ]) in
  QCheck2.Test.make ~name:"Fid.of_hex matches the reference parser" ~count:3000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [ string_size ~gen:hex_char (return 32);
          string_size ~gen:any_char (return 32);
          string_size ~gen:hex_char (int_range 30 34) ])
    (fun s ->
      match Fid.of_hex s, reference_fid_of_hex s with
      | Some a, Some b -> Fid.equal a b
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* {2 Extra edges} *)

let test_md5_large_input () =
  (* multi-megabyte input exercises the block loop; pinned to the
     hand-rolled implementation's digest *)
  let s = String.init (3 * 1024 * 1024) (fun i -> Char.chr (i mod 251)) in
  check_string "3 MiB digest" "b9e8be962fa541bad8cd7e526acd4ffc" (Md5.hex s)

let test_fid_compare_total_order () =
  let a = Fid.make ~client_id:1L ~counter:5L in
  let b = Fid.make ~client_id:1L ~counter:6L in
  let c = Fid.make ~client_id:2L ~counter:0L in
  check_bool "counter orders within client" true (Fid.compare a b < 0);
  check_bool "client id dominates" true (Fid.compare b c < 0);
  check_int "reflexive" 0 (Fid.compare a a);
  (* unsigned comparison: a 'negative' int64 client id sorts high *)
  let big = Fid.make ~client_id:(-1L) ~counter:0L in
  check_bool "unsigned client ordering" true (Fid.compare c big < 0)

let test_physical_zero_levels () =
  let layout = { Physical.levels = 0; chars_per_level = 1 } in
  let fid = Fid.make ~client_id:1L ~counter:2L in
  check_string "flat layout" ("/" ^ Fid.to_hex fid) (Physical.path layout fid);
  (* formatting a flat layout creates nothing and succeeds *)
  let fs = Fuselike.Memfs.create ~clock:(fun () -> 0.) () in
  check_bool "format ok" true (Physical.format layout (Fuselike.Memfs.ops fs) = Ok ())

let test_mapping_single_backend () =
  List.iter
    (fun fid -> check_int "always 0" 0 (Mapping.md5_mod ~backends:1 fid))
    (fids_for_tests 50)

let test_meta_encode_is_stable () =
  (* the wire format is persisted in znodes: lock it down *)
  let fid = Fid.make ~client_id:0xabcdL ~counter:7L in
  check_string "file encoding frozen"
    "v1|f|644|0|000000000000abcd0000000000000007"
    (Meta.encode (Meta.file fid ~mode:0o644 ~ctime:0.));
  check_string "dir encoding frozen" "v1|d|755|0|"
    (Meta.encode (Meta.dir ~mode:0o755 ~ctime:0.))

(* {2 Encoders pinned to their Printf references} *)

let reference_fid_hex (fid : Fid.t) =
  Printf.sprintf "%016Lx%016Lx" fid.client_id fid.counter

let reference_meta_encode (m : Meta.t) =
  let kind_tag, payload =
    match m.kind with
    | Meta.Dir -> ("d", "")
    | Meta.File fid -> ("f", reference_fid_hex fid)
    | Meta.Symlink target -> ("l", target)
  in
  Printf.sprintf "v1|%s|%o|%Lx|%s" kind_tag m.mode (Int64.bits_of_float m.ctime)
    payload

let reference_physical_path (layout : Physical.layout) fid =
  let hex = reference_fid_hex fid in
  let len = String.length hex and width = layout.chars_per_level in
  let parts =
    List.init layout.levels (fun i -> String.sub hex (len - ((i + 1) * width)) width)
  in
  let dir = "/" ^ String.concat "/" parts in
  if dir = "/" then "/" ^ hex else dir ^ "/" ^ hex

let gen_fid =
  QCheck2.Gen.(
    map2
      (fun client_id counter -> Fid.make ~client_id ~counter)
      (oneof [ ui64; map Int64.of_int small_nat ])
      (oneof [ ui64; map Int64.of_int small_nat ]))

(* modes and ctimes include the edges [Printf] formats specially: negative
   modes (63-bit octal), zero, and ctimes from raw bits, NaN payloads and
   negative zero among them *)
let gen_encoded_meta =
  QCheck2.Gen.(
    let mode = oneof [ int; small_nat; oneofl [ 0; -1; min_int; max_int; 0o755 ] ] in
    let ctime =
      oneof
        [ map Int64.float_of_bits ui64;
          (* denormals: bits that fit in the low 32 *)
          map (fun n -> Int64.float_of_bits (Int64.of_int n)) (int_range 0 0xFFFF_FFFF);
          oneofl [ 0.; -0.; nan; Float.infinity; 1.7e9 ];
          map (fun lo -> Int64.float_of_bits (Int64.logor 0x7ff0_0000_0000_0000L
                                                (Int64.of_int (lo + 1))))
            small_nat ]
    in
    let kind =
      oneof
        [ return Meta.Dir;
          map (fun fid -> Meta.File fid) gen_fid;
          map (fun s -> Meta.Symlink s) string_printable ]
    in
    map3 (fun kind mode ctime -> { Meta.kind; mode; ctime }) kind mode ctime)

let prop_meta_encode_matches_printf =
  QCheck2.Test.make ~name:"Meta.encode writes the Printf reference bytes" ~count:3000
    ~print:reference_meta_encode gen_encoded_meta (fun m ->
      String.equal (Meta.encode m) (reference_meta_encode m))

let prop_physical_path_matches_printf =
  QCheck2.Test.make ~name:"Fid.to_hex and Physical.path match the Printf reference"
    ~count:2000
    ~print:(fun (fid, (levels, width)) ->
      Printf.sprintf "%s levels=%d width=%d" (reference_fid_hex fid) levels width)
    QCheck2.Gen.(pair gen_fid (pair (int_range 0 4) (int_range 1 4)))
    (fun (fid, (levels, chars_per_level)) ->
      let layout = { Physical.levels; chars_per_level } in
      String.equal (Fid.to_hex fid) (reference_fid_hex fid)
      && String.equal (Physical.path layout fid) (reference_physical_path layout fid)
      && String.equal (Physical.dir layout fid)
           (Filename.dirname (reference_physical_path layout fid)))

(* {2 Listings classify without decoding}

   [Meta.kind_tag] must name the kind [decode] returns and refuse exactly
   what [decode] refuses. *)

let tag_agrees s =
  match Meta.kind_tag s, Meta.decode s with
  | Some Meta.Dir_tag, Ok { Meta.kind = Meta.Dir; _ }
  | Some Meta.File_tag, Ok { Meta.kind = Meta.File _; _ }
  | Some Meta.Symlink_tag, Ok { Meta.kind = Meta.Symlink _; _ }
  | None, Error _ -> true
  | (Some _ | None), _ -> false

let test_kind_tag_corpus () =
  let fid = Fid.make ~client_id:0x0123456789abcdefL ~counter:(-2L) in
  let encoded =
    List.map Meta.encode
      [ Meta.dir ~mode:0o751 ~ctime:1234.5;
        Meta.file fid ~mode:0o640 ~ctime:0.125;
        Meta.symlink ~target:"/weird|name|with|pipes" ~ctime:9. ]
  in
  List.iter
    (fun s -> check_bool (Printf.sprintf "agrees on %S" s) true (tag_agrees s))
    (encoded @ garbage_metas @ List.map fst pinned_metas)

let test_kind_tag_allocates_nothing () =
  let s =
    Meta.encode
      (Meta.file (Fid.make ~client_id:7L ~counter:9L) ~mode:0o644 ~ctime:1.7e9)
  in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Meta.kind_tag s))
  done;
  check_bool "no words per call" true (Gc.minor_words () -. before < 100.)

(* byte flips, truncations, an inserted '|' and hex digits changing
   case, one to three at a time *)
let gen_mutated_meta =
  QCheck2.Gen.(
    let mutate s =
      let n = String.length s in
      if n = 0 then return s
      else
        oneof
          [ map2 (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
              (int_range 0 (n - 1)) char;
            map (fun len -> String.sub s 0 len) (int_range 0 n);
            map (fun i -> String.sub s 0 i ^ "|" ^ String.sub s i (n - i)) (int_range 0 n);
            map (fun i ->
                String.mapi
                  (fun j c ->
                    if j < i then c
                    else if Char.lowercase_ascii c <> c then Char.lowercase_ascii c
                    else Char.uppercase_ascii c)
                  s)
              (int_range 0 n) ]
    in
    let rec times k s = if k = 0 then return s else mutate s >>= times (k - 1) in
    map Meta.encode gen_encoded_meta >>= fun s -> int_range 0 3 >>= fun k -> times k s)

let prop_kind_tag_agrees_with_decode =
  QCheck2.Test.make ~name:"kind_tag = decode on mutations" ~count:5000
    ~print:(Printf.sprintf "%S") gen_mutated_meta tag_agrees

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "dufs-core"
    [ ( "md5",
        [ Alcotest.test_case "RFC 1321 vectors" `Quick test_rfc_vectors;
          Alcotest.test_case "digest length" `Quick test_digest_length;
          Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
          Alcotest.test_case "to_int nonnegative" `Quick test_to_int_nonnegative;
          qc prop_md5_deterministic ] );
      ( "fid",
        [ Alcotest.test_case "hex roundtrip" `Quick test_fid_hex_roundtrip;
          Alcotest.test_case "of_hex rejects garbage" `Quick
            test_fid_of_hex_rejects_garbage;
          Alcotest.test_case "bytes layout" `Quick test_fid_bytes;
          Alcotest.test_case "generator" `Quick test_fid_generator;
          qc prop_fid_uniqueness ] );
      ( "mapping",
        [ Alcotest.test_case "range" `Quick test_mapping_range;
          Alcotest.test_case "deterministic" `Quick test_mapping_deterministic;
          Alcotest.test_case "golden placements" `Quick
            test_mapping_golden_placements;
          Alcotest.test_case "rejects zero backends" `Quick
            test_mapping_rejects_zero_backends;
          Alcotest.test_case "fairness" `Quick test_mapping_fairness ] );
      ( "consistent-hash",
        [ Alcotest.test_case "basics" `Quick test_ring_basic;
          Alcotest.test_case "validation" `Quick test_ring_validation;
          Alcotest.test_case "bounded relocation on add" `Quick
            test_ring_bounded_relocation_on_add;
          Alcotest.test_case "moves only to new node" `Quick
            test_ring_relocation_only_to_new_node;
          Alcotest.test_case "remove inverts add" `Quick test_ring_remove_inverse_of_add;
          Alcotest.test_case "mod-N relocation unbounded" `Quick
            test_md5_mod_relocation_is_unbounded;
          qc prop_ring_balance ] );
      ( "physical",
        [ Alcotest.test_case "paper Fig. 4 example" `Quick test_paper_split_example;
          Alcotest.test_case "path shape" `Quick test_physical_path_shape;
          Alcotest.test_case "components vary fastest" `Quick
            test_physical_components_vary_fastest;
          Alcotest.test_case "fid roundtrip" `Quick test_physical_fid_roundtrip;
          Alcotest.test_case "bad layout" `Quick test_physical_bad_layout;
          Alcotest.test_case "format creates hierarchy" `Quick
            test_format_creates_hierarchy;
          qc prop_physical_unique_paths ] );
      ( "edges",
        [ Alcotest.test_case "md5 large input" `Quick test_md5_large_input;
          Alcotest.test_case "fid total order" `Quick test_fid_compare_total_order;
          Alcotest.test_case "physical zero levels" `Quick test_physical_zero_levels;
          Alcotest.test_case "mapping single backend" `Quick test_mapping_single_backend;
          Alcotest.test_case "meta encoding frozen" `Quick test_meta_encode_is_stable ] );
      ( "meta",
        [ Alcotest.test_case "dir roundtrip" `Quick test_meta_roundtrip_dir;
          Alcotest.test_case "file roundtrip" `Quick test_meta_roundtrip_file;
          Alcotest.test_case "symlink with separators" `Quick
            test_meta_roundtrip_symlink_with_separator;
          Alcotest.test_case "rejects garbage" `Quick test_meta_decode_rejects_garbage;
          qc prop_meta_roundtrip ] );
      ( "meta-decode",
        [ Alcotest.test_case "pinned edges" `Quick test_meta_decode_pinned_edges;
          Alcotest.test_case "allocates only the result" `Quick
            test_meta_decode_allocates_little;
          qc prop_meta_decode_encoded;
          qc prop_meta_decode_damaged;
          qc prop_fid_of_hex_matches_reference ] );
      ( "encoders",
        [ qc prop_meta_encode_matches_printf; qc prop_physical_path_matches_printf ] );
      ( "meta-kind-tag",
        [ Alcotest.test_case "agrees on the corpus" `Quick test_kind_tag_corpus;
          Alcotest.test_case "allocates nothing" `Quick test_kind_tag_allocates_nothing;
          qc prop_kind_tag_agrees_with_decode ] ) ]
