(* Binary snapshots: round-trip bit-identity across the whole catalog,
   typed rejection of damaged / mismatched files, and the Sorted
   layout's branchless lower_bound pinned against its linear reference. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Scratch directory for snapshot files.                              *)

let scratch_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "cr-snap-test-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let rec nuke d =
       (try
          Array.iter
            (fun f ->
              let p = Filename.concat d f in
              if Sys.is_directory p then nuke p
              else try Sys.remove p with _ -> ())
            (Sys.readdir d)
        with _ -> ());
       try Unix.rmdir d with _ -> ()
     in
     at_exit (fun () -> nuke dir);
     dir)

let fresh_path name =
  Filename.concat (Lazy.force scratch_dir) (name ^ ".snap")

(* The full observable behaviour of an instance on a graph: the whole
   outcome of every ordered pair — verdict, delivery vertex, simulated
   walk, measured length, hops and header peak. *)
let route_signature inst g =
  let n = Graph.n g in
  let out = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if u <> v then out := Scheme.route inst ~src:u ~dst:v :: !out
    done
  done;
  !out

(* A loaded instance is the fresh build: the same guarantee, table and
   label sizes, off-heap bytes (a thawed vicinity family is mapped once,
   not once per row) and outcomes. *)
let check_loaded name g (fresh, bound) (loaded, bound') =
  checkb (name ^ " stretch bound") true (bound = bound');
  checkb (name ^ " table words") true
    (fresh.Scheme.table_words = loaded.Scheme.table_words);
  checkb (name ^ " label words") true
    (fresh.Scheme.label_words = loaded.Scheme.label_words);
  checki (name ^ " big_bytes") fresh.Scheme.big_bytes loaded.Scheme.big_bytes;
  checkb (name ^ " routes bit-identical") true
    (route_signature fresh g = route_signature loaded g)

(* Past [CR_RT_LAZY_N] the rt-* stores fill on-demand caches as they
   route; the frozen state must not see them. *)
let with_lazy_n v f =
  let old = Option.value (Sys.getenv_opt "CR_RT_LAZY_N") ~default:"" in
  Unix.putenv "CR_RT_LAZY_N" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "CR_RT_LAZY_N" old) f

let seed = 77
let eps = 0.5

let save_one ?substrate g (e : Catalog.entry) =
  let dir = Lazy.force scratch_dir in
  match Catalog.save_entry ?substrate ~dir ~seed ~eps g e with
  | Ok path -> path
  | Error err ->
    Alcotest.failf "%s: save_entry failed: %s" e.Catalog.id
      (Snapshot.error_to_string err)

let entry id = Option.get (Catalog.find id)

let load_one ?verify ~path g (e : Catalog.entry) =
  match Catalog.load_entry ?verify ~path ~seed ~eps g e with
  | Ok r -> r
  | Error err ->
    Alcotest.failf "%s: load_entry failed: %s" e.Catalog.id
      (Snapshot.error_to_string err)

(* ------------------------------------------------------------------ *)
(* 1. Round-trip bit-identity across the whole catalog.               *)

(* Every catalog entry, and the lazy regime's rt-5eps and rt-4km7-k3;
   every vicinity family goes through snapshot blobs. *)
let test_roundtrip_whole_catalog () =
  let g = Generators.connect ~seed:31 (Generators.gnp ~seed:501 48 0.12) in
  let roundtrip what entries =
    let substrate = Substrate.create g in
    List.iter
      (fun (e : Catalog.entry) ->
        let fresh = e.Catalog.build ~substrate ~seed ~eps g in
        let path = save_one ~substrate g e in
        check_loaded (e.Catalog.id ^ what) g fresh (load_one ~path g e))
      entries
  in
  roundtrip "" Catalog.all;
  with_lazy_n "32" (fun () ->
      roundtrip " (lazy)" [ entry "rt-5eps"; entry "rt-4km7-k3" ])

let test_roundtrip_weighted () =
  let g =
    Generators.with_random_weights ~seed:33 ~lo:0.5 ~hi:4.0
      (Generators.connect ~seed:35 (Generators.gnp ~seed:503 40 0.14))
  in
  let substrate = Substrate.create g in
  List.iter
    (fun (e : Catalog.entry) ->
      if e.Catalog.weighted_ok then begin
        let fresh = e.Catalog.build ~substrate ~seed ~eps g in
        let path = save_one ~substrate g e in
        check_loaded (e.Catalog.id ^ " weighted") g fresh (load_one ~path g e)
      end)
    Catalog.all

(* The mmap fast path (per-blob checksums skipped) must decode the same
   instance as the fully verified path. *)
let test_roundtrip_no_verify () =
  let g = Generators.torus 6 6 in
  let substrate = Substrate.create g in
  List.iter
    (fun (e : Catalog.entry) ->
      let fresh = e.Catalog.build ~substrate ~seed ~eps g in
      let path = save_one ~substrate g e in
      check_loaded (e.Catalog.id ^ " no-verify") g fresh
        (load_one ~verify:false ~path g e))
    Catalog.all

(* qcheck: on random connected graphs a handful of structurally distinct
   schemes round-trip bit-identically.  (The whole catalog runs above on
   fixed graphs; the property keeps the random-graph sweep affordable by
   sampling one scheme per generated graph.) *)
let qcheck_roundtrip =
  let schemes = [| "rt-5eps"; "rt-3eps"; "tz-k2"; "rt-ptr-minus-l2"; "full" |] in
  qcheck ~count:30 "random graph round-trips bit-identically"
    QCheck2.Gen.(pair arb_connected_graph (int_range 0 (Array.length schemes - 1)))
    (fun (g, si) ->
      let e = Option.get (Catalog.find schemes.(si)) in
      let fresh, _ = e.Catalog.build ~seed ~eps g in
      let path = save_one g e in
      let loaded, _ = load_one ~path g e in
      route_signature fresh g = route_signature loaded g)

(* ------------------------------------------------------------------ *)
(* 2. Damaged / mismatched files yield typed errors, never routes.    *)

let small_graph = lazy (Generators.connect ~seed:9 (Generators.gnp ~seed:91 32 0.18))

let saved_snapshot =
  lazy
    (let g = Lazy.force small_graph in
     let e = entry "tz-k2" in
     let path = save_one g e in
     (g, e, path))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* Write a damaged variant of the saved snapshot and return its path. *)
let damaged name mutate =
  let _, _, path = Lazy.force saved_snapshot in
  let b = read_file path in
  let b = mutate b in
  let path' = fresh_path name in
  write_file path' b;
  path'

let expect_error name path pred =
  let g, e, _ = Lazy.force saved_snapshot in
  match Catalog.load_entry ~path ~seed ~eps g e with
  | Ok _ -> Alcotest.failf "%s: damaged snapshot was accepted" name
  | Error err ->
    checkb
      (Printf.sprintf "%s -> %s" name (Snapshot.error_to_string err))
      true (pred err)

let test_truncated () =
  let half = damaged "truncated" (fun b -> Bytes.sub b 0 (Bytes.length b / 2)) in
  expect_error "truncated" half (function Snapshot.Truncated -> true | _ -> false);
  (* Cutting even one byte off the tail must be caught. *)
  let minus1 = damaged "minus1" (fun b -> Bytes.sub b 0 (Bytes.length b - 1)) in
  expect_error "one byte short" minus1 (function
    | Snapshot.Truncated | Snapshot.Checksum_mismatch _ -> true
    | _ -> false)

let test_bad_magic () =
  let p =
    damaged "badmagic" (fun b -> Bytes.set b 0 'X'; b)
  in
  expect_error "bad magic" p (function Snapshot.Bad_magic -> true | _ -> false)

let test_wrong_version () =
  (* The version is a little-endian u32 at offset 8, validated before the
     header checksum so future formats fail with the right error. *)
  let p =
    damaged "version99" (fun b -> Bytes.set_int32_le b 8 99l; b)
  in
  expect_error "unsupported version" p (function
    | Snapshot.Unsupported_version 99 -> true
    | _ -> false)

let test_corrupt_header () =
  let p =
    damaged "hdrflip" (fun b ->
        (* Flip a bit inside the meta block (scheme id / params region),
           past the prelude so magic and version still parse. *)
        let off = 24 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
        b)
  in
  expect_error "corrupt header" p (function
    | Snapshot.Checksum_mismatch _ | Snapshot.Scheme_mismatch _
    | Snapshot.Malformed _ | Snapshot.Truncated ->
      true
    | _ -> false)

let test_corrupt_payload () =
  (* Flip one bit in the last payload byte: that is the residue (written
     last), whose checksum is verified before any unmarshalling. *)
  let p =
    damaged "payloadflip" (fun b ->
        let off = Bytes.length b - 1 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
        b)
  in
  expect_error "corrupt residue" p (function
    | Snapshot.Checksum_mismatch _ -> true
    | _ -> false)

let test_wrong_graph () =
  let _, e, path = Lazy.force saved_snapshot in
  let other = Generators.connect ~seed:10 (Generators.gnp ~seed:92 32 0.18) in
  (match Catalog.load_entry ~path ~seed ~eps other e with
  | Ok _ -> Alcotest.fail "snapshot accepted for a different graph"
  | Error err ->
    checkb "wrong graph -> Graph_mismatch" true
      (match err with Snapshot.Graph_mismatch -> true | _ -> false));
  (* Same n and m but different edges: only the fingerprint can tell. *)
  let ring rot =
    Graph.of_edges ~n:8
      (List.init 8 (fun i -> (i, (i + rot) mod 8, 1.0)))
  in
  let ga = ring 1 and gb = ring 3 in
  let dir2 = Filename.concat (Lazy.force scratch_dir) "ring" in
  (try Unix.mkdir dir2 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pa =
    match Catalog.save_entry ~dir:dir2 ~seed ~eps ga e with
    | Ok p -> p
    | Error err -> Alcotest.failf "ring save failed: %s" (Snapshot.error_to_string err)
  in
  match Catalog.load_entry ~path:pa ~seed ~eps gb e with
  | Ok _ -> Alcotest.fail "snapshot accepted for a same-size different graph"
  | Error err ->
    checkb "same n,m different edges -> Graph_mismatch" true
      (match err with Snapshot.Graph_mismatch -> true | _ -> false)

let test_wrong_params () =
  let g, e, path = Lazy.force saved_snapshot in
  (match Catalog.load_entry ~path ~seed:(seed + 1) ~eps g e with
  | Ok _ -> Alcotest.fail "snapshot accepted under a different seed"
  | Error err ->
    checkb "wrong seed -> Params_mismatch" true
      (match err with Snapshot.Params_mismatch _ -> true | _ -> false));
  match Catalog.load_entry ~path ~seed ~eps:(eps +. 0.25) g e with
  | Ok _ -> Alcotest.fail "snapshot accepted under a different eps"
  | Error err ->
    checkb "wrong eps -> Params_mismatch" true
      (match err with Snapshot.Params_mismatch _ -> true | _ -> false)

let test_wrong_scheme () =
  let g, _, path = Lazy.force saved_snapshot in
  let other = entry "rt-5eps" in
  match Catalog.load_entry ~path ~seed ~eps g other with
  | Ok _ -> Alcotest.fail "tz-k2 snapshot accepted as rt-5eps"
  | Error err ->
    checkb "wrong scheme -> Scheme_mismatch" true
      (match err with Snapshot.Scheme_mismatch _ -> true | _ -> false)

let test_load_or_build_fallback () =
  let g = Lazy.force small_graph in
  let e = entry "tz-k2" in
  let dir = Lazy.force scratch_dir in
  (* Missing file: builds fresh, reports `Built None. *)
  (try Sys.remove (Catalog.snapshot_path ~dir e) with Sys_error _ -> ());
  let (inst0, _), how0 = Catalog.load_or_build ~dir ~seed ~eps g e in
  checkb "missing file -> `Built None" true (how0 = `Built None);
  (* Saved file: loads, and the instance is bit-identical. *)
  let _ = save_one g e in
  let (inst1, _), how1 = Catalog.load_or_build ~dir ~seed ~eps g e in
  checkb "present file -> `Loaded" true (how1 = `Loaded);
  checkb "load_or_build routes bit-identical" true
    (route_signature inst0 g = route_signature inst1 g);
  (* Corrupt file: falls back to build with the typed error attached. *)
  let path = Catalog.snapshot_path ~dir e in
  let b = read_file path in
  Bytes.set b (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
  write_file path b;
  let (inst2, _), how2 = Catalog.load_or_build ~dir ~seed ~eps g e in
  checkb "corrupt file -> `Built (Some _)" true
    (match how2 with `Built (Some _) -> true | _ -> false);
  checkb "fallback routes bit-identical" true
    (route_signature inst0 g = route_signature inst2 g);
  Sys.remove path

(* Bitwise CRC-32 (zlib polynomial): eight shift/xor steps per byte, the
   reference the table-driven kernel is pinned against. *)
let crc_reference crc s off len =
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

(* Header layout (unchanged since version 1): a 20-byte prelude (magic,
   version, endianness, scheme-id length), the scheme id, five 8-byte
   parameters, a u32 blob count, 24-byte directory entries (kind, pad,
   offset, elems, crc), then the residue offset and length, the residue
   crc and the header crc. *)
let hdr_id_len b = Int32.to_int (Bytes.get_int32_le b 16)
let hdr_nblobs b = Int32.to_int (Bytes.get_int32_le b (60 + hdr_id_len b))
let hdr_dirent b i = 64 + hdr_id_len b + (24 * i)
let hdr_blob_offset b i = Int64.to_int (Bytes.get_int64_le b (hdr_dirent b i + 4))
let hdr_blob_bytes b i =
  let elem = if Bytes.get b (hdr_dirent b i) = '\002' then 8 else 4 in
  elem * Int64.to_int (Bytes.get_int64_le b (hdr_dirent b i + 12))
let hdr_residue_len b = hdr_dirent b (hdr_nblobs b) + 8
let hdr_crc b = hdr_dirent b (hdr_nblobs b) + 20

(* Recompute the header checksum, so a crafted header passes it and only
   the later checks stand between the file and the caller. *)
let reseal b =
  let at = hdr_crc b in
  Bytes.set_int32_le b at
    (Int32.of_int (crc_reference 0 (Bytes.unsafe_to_string b) 0 at))

(* A file written by an older writer: version 1's residue holds
   hashtables where version 2 holds [Compiled.Intmap]s, version 2's holds
   hashtables where version 3 holds [Compiled.Intmap]s,
   [Compiled.Table]s and [Compiled.Bitset]s, version 3's holds a separate
   frozen record per scheme where version 4 holds the scheme's state
   record itself, with more fields, version 4's holds boxed vicinity
   records where version 5 holds one packed family's record, its blocks
   in blobs, version 5's may hold bit-packed intmaps, a layout version 6
   no longer has, and version 6's holds per-member tree node records where
   version 7 holds flat tree arrays. Every later header check would pass,
   so the version alone must refuse it, and the warm-start ladder must
   rebuild. The stamp is resealed, as the old writer's own header checksum
   would be. *)
let test_old_version_rebuilt v () =
  let g = Lazy.force small_graph in
  let e = entry "rt-ptr-minus-l2" in
  let dir = Filename.concat (Lazy.force scratch_dir) (Printf.sprintf "v%d" v) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    match Catalog.save_entry ~dir ~seed ~eps g e with
    | Ok p -> p
    | Error err ->
      Alcotest.failf "v%d save failed: %s" v (Snapshot.error_to_string err)
  in
  let b = read_file path in
  checki "writer stamps version 7" 7 (Int32.to_int (Bytes.get_int32_le b 8));
  Bytes.set_int32_le b 8 (Int32.of_int v);
  reseal b;
  write_file path b;
  List.iter
    (fun verify ->
      match Catalog.load_entry ~verify ~path ~seed ~eps g e with
      | Ok _ -> Alcotest.failf "version-%d file accepted (verify:%b)" v verify
      | Error err ->
        checkb
          (Printf.sprintf "version %d (verify:%b) -> %s" v verify
             (Snapshot.error_to_string err))
          true
          (err = Snapshot.Unsupported_version v))
    [ true; false ];
  let fresh, _ = e.Catalog.build ~seed ~eps g in
  let (inst, _), how = Catalog.load_or_build ~dir ~seed ~eps g e in
  checkb
    (Printf.sprintf "version-%d file -> `Built (Some (Unsupported_version %d))" v v)
    true
    (how = `Built (Some (Snapshot.Unsupported_version v)));
  checkb "rebuilt instance routes like a fresh build" true
    (route_signature inst g = route_signature fresh g)

(* Fixed inputs for the format-stability pin: a fixed meta, one blob of
   each kind and an odd-length residue. The F32 blob holds signalling-NaN
   bit patterns; OCaml cannot store those through a float (widening a
   float32 quiets it), so the blob is mapped from a file of raw words. *)
let golden_residue = "golden residue \000\001\127\255"

let write_golden path =
  let i32 =
    Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout
      [| 0l; 1l; -1l; 0x7fffffffl; Int32.min_int |]
  in
  let raw = Filename.concat (Filename.dirname path) "golden-f32.raw" in
  let words = [| 0x7fa00001l; 0x3fc00000l; 0xffa00000l |] in
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int32_ne b (4 * i) w) words;
  let oc = open_out_bin raw in
  output_bytes oc b;
  close_out oc;
  let fd = Unix.openfile raw [ Unix.O_RDONLY ] 0 in
  let f32 =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.float32 Bigarray.c_layout false
         [| Array.length words |])
  in
  Unix.close fd;
  let f64 =
    Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
      [| 0.0; -0.0; 1.5; infinity; Int64.float_of_bits 0x7ff4000000000001L |]
  in
  let sink = Snapshot.sink () in
  List.iter
    (fun blob -> ignore (Snapshot.put sink blob))
    [ Snapshot.I32 i32; Snapshot.F32 f32; Snapshot.F64 f64 ];
  let meta =
    {
      Snapshot.scheme_id = "golden";
      seed = 42;
      eps = 0.25;
      n = 5;
      m = 7;
      fingerprint = 0x0123456789abcdefL;
    }
  in
  Snapshot.save ~path ~meta ~residue:golden_residue sink

let golden_path =
  lazy
    (let path = fresh_path "golden" in
     (match write_golden path with
     | Ok () -> ()
     | Error e -> Alcotest.failf "golden save: %s" (Snapshot.error_to_string e));
     path)

(* Load a crafted variant of the golden container under both verify
   modes: each must come back as [Truncated], never [Ok] and never an
   exception. *)
let expect_truncated name mutate =
  let b = read_file (Lazy.force golden_path) in
  mutate b;
  reseal b;
  let path = fresh_path name in
  write_file path b;
  List.iter
    (fun verify ->
      let what = Printf.sprintf "%s (verify:%b)" name verify in
      match Snapshot.load ~verify path with
      | Ok _ -> Alcotest.failf "%s: crafted snapshot was accepted" what
      | Error e ->
        checkb
          (Printf.sprintf "%s -> %s" what (Snapshot.error_to_string e))
          true (e = Snapshot.Truncated)
      | exception ex -> Alcotest.failf "%s raised %s" what (Printexc.to_string ex))
    [ true; false ]

(* [offset + elems * size] wraps to [offset] when [elems * size] is a
   multiple of 2^63, and a zero-byte payload CRCs to 0. *)
let test_crafted_blob_length () =
  let file = read_file (Lazy.force golden_path) in
  for i = 0 to hdr_nblobs file - 1 do
    expect_truncated (Printf.sprintf "blob%d-elems-2^61" i) (fun b ->
        Bytes.set_int64_le b (hdr_dirent b i + 12) (Int64.shift_left 1L 61);
        Bytes.set_int32_le b (hdr_dirent b i + 20) 0l)
  done

(* [residue_off + max_int] wraps negative. *)
let test_crafted_residue_length () =
  expect_truncated "residue-len-max_int" (fun b ->
      Bytes.set_int64_le b (hdr_residue_len b) (Int64.of_int max_int))

(* ------------------------------------------------------------------ *)
(* 3. The Sorted layout's branchless lower_bound.                     *)

let qcheck_lower_bound =
  qcheck ~count:300 "branchless lower_bound matches the linear reference"
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 200))
    (fun l ->
      let a = Array.of_list (List.sort_uniq compare l) in
      let reference x =
        let n = Array.length a in
        let i = ref 0 in
        while !i < n && a.(!i) < x do incr i done;
        !i
      in
      let ok = ref true in
      for x = -2 to 202 do
        if Compiled.Intmap.lower_bound a x <> reference x then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* 4. CRC-32 kernel pinned against the bitwise reference.             *)

let crc32 = Snapshot.For_testing.crc32

let test_crc_check_value () =
  checki "CRC-32 check value" 0xCBF43926 (crc32 0 "123456789" 0 9);
  checki "reference check value" 0xCBF43926 (crc_reference 0 "123456789" 0 9);
  checki "empty input" 0 (crc32 0 "" 0 0)

(* Every length 0-64 and the long tail, at every start offset 0-7, and
   split at a random point into two incremental updates. *)
let qcheck_crc_kernel =
  qcheck ~count:100 "CRC-32 kernel equals the bitwise reference"
    QCheck2.Gen.(pair (string_size (int_range 72 4000)) nat)
    (fun (s, cut) ->
      let n = String.length s in
      let ok = ref true in
      for off = 0 to 7 do
        for len = 0 to 64 do
          if crc32 0 s off len <> crc_reference 0 s off len then ok := false
        done;
        let len = n - off in
        let full = crc_reference 0 s off len in
        let k = cut mod (len + 1) in
        if crc32 0 s off len <> full then ok := false;
        if crc32 (crc32 0 s off k) s (off + k) (len - k) <> full then ok := false
      done;
      !ok)

(* The int32-view path reads the same memory the bytes path would. *)
let qcheck_crc_i32_view =
  qcheck ~count:200 "CRC-32 of an int32 view equals the CRC of its bytes"
    QCheck2.Gen.(pair (small_string ~gen:char) (list_size (int_range 0 300) int32))
    (fun (prefix, words) ->
      let a =
        Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout
          (Array.of_list words)
      in
      let b = Bytes.create (4 * List.length words) in
      List.iteri (fun i w -> Bytes.set_int32_ne b (4 * i) w) words;
      let bytes = Bytes.unsafe_to_string b in
      let start = crc32 0 prefix 0 (String.length prefix) in
      Snapshot.For_testing.crc32_i32 0 a = crc32 0 bytes 0 (String.length bytes)
      && Snapshot.For_testing.crc32_i32 start a
         = crc32 start bytes 0 (String.length bytes))

(* ------------------------------------------------------------------ *)
(* 5. Format stability: a golden container pinned by its digest.      *)

(* [Digest.file] of the golden container as the version-7 writer
   produces it: a different digest is a format change, which needs a
   version bump. The version-1 to version-6 writers' digests were
   9781ea992cddb3f1bf32a7d711600af1, 26273200783cc8e264b4c227f7b734ea,
   2a63574d2311dd9cc735d7c2920c0ff3, 48e77a45b5bbd71982f52fe24346d258,
   83f6734b263cfbfaf01bb3805a108f29 and 5ab75ef7357ccd046a78df59be5f8c2f;
   their files differ from this one only in the version field and the
   header checksum. Blobs are host memory, so the pin holds on
   little-endian hosts. *)
let golden_digest = "2212a4b6f3227b701416b2bef26a4a4f"

let test_golden_digest () =
  let path = Lazy.force golden_path in
  checki "residue length is odd" 1 (String.length golden_residue land 1);
  if not Sys.big_endian then
    check Alcotest.string "golden container digest" golden_digest
      (Digest.to_hex (Digest.file path));
  match Snapshot.load ~verify:true path with
  | Error e -> Alcotest.failf "golden load: %s" (Snapshot.error_to_string e)
  | Ok l ->
    checkb "meta round-trips" true
      (l.Snapshot.meta.Snapshot.scheme_id = "golden"
      && l.Snapshot.meta.Snapshot.fingerprint = 0x0123456789abcdefL);
    check Alcotest.string "residue round-trips" golden_residue l.Snapshot.residue;
    checki "version 7" 7 (Int32.to_int (Bytes.get_int32_le (read_file path) 8));
    checki "I32 blob" 0x7fffffff
      (Int32.to_int (Bigarray.Array1.get (Snapshot.get_i32 l.Snapshot.source 0) 3));
    checkb "F64 blob keeps its sNaN bits" true
      (Int64.bits_of_float
         (Bigarray.Array1.get (Snapshot.get_f64 l.Snapshot.source 2) 4)
      = 0x7ff4000000000001L)

(* ------------------------------------------------------------------ *)
(* 6. Blob payloads: every vicinity family is written as three blobs; *)
(*    the lazy-regime rt-* files below carry only those.              *)

type lazy_case = {
  name : string;
  frozen_residue : Snapshot.sink -> string;
  fresh : Scheme.instance;
  thaw : Snapshot.source -> string -> Scheme.instance;
}

let lazy_cases g =
  let rt5 = Scheme5eps.preprocess ~mode:`Lazy ~eps ~seed g in
  let rt4 = Scheme4km7.preprocess ~mode:`Lazy ~eps ~seed g ~k:3 in
  [
    {
      name = "rt-5eps";
      frozen_residue = (fun sink -> Marshal.to_string (Scheme5eps.freeze sink rt5) []);
      fresh = Scheme5eps.instance rt5;
      thaw =
        (fun src r ->
          Scheme5eps.instance (Scheme5eps.thaw src ~graph:g (Marshal.from_string r 0)));
    };
    {
      name = "rt-4km7-k3";
      frozen_residue = (fun sink -> Marshal.to_string (Scheme4km7.freeze sink rt4) []);
      fresh = Scheme4km7.instance rt4;
      thaw =
        (fun src r ->
          Scheme4km7.instance (Scheme4km7.thaw src ~graph:g (Marshal.from_string r 0)));
    };
  ]

let test_lazy_blob_roundtrip () =
  let g = Generators.connect ~seed:13 (Generators.gnp ~seed:131 96 0.06) in
  List.iter
    (fun c ->
      let sink = Snapshot.sink () in
      let residue = c.frozen_residue sink in
      let meta =
        {
          Snapshot.scheme_id = c.name;
          seed;
          eps;
          n = Graph.n g;
          m = Graph.m g;
          fingerprint = Snapshot.fingerprint g;
        }
      in
      let path = fresh_path ("lazy-" ^ c.name) in
      (match Snapshot.save ~path ~meta ~residue sink with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s save: %s" c.name (Snapshot.error_to_string e));
      let file = read_file path in
      let nblobs = hdr_nblobs file in
      checkb (Printf.sprintf "%s writes blobs (%d)" c.name nblobs) true (nblobs >= 1);
      List.iter
        (fun verify ->
          match Snapshot.load ~verify path with
          | Error e -> Alcotest.failf "%s load: %s" c.name (Snapshot.error_to_string e)
          | Ok l ->
            check_loaded
              (Printf.sprintf "%s (verify:%b)" c.name verify)
              g (c.fresh, ())
              (c.thaw l.Snapshot.source l.Snapshot.residue, ()))
        [ true; false ];
      (* One flipped byte inside each blob payload is caught by that blob's
         checksum. *)
      for i = 0 to nblobs - 1 do
        let len = hdr_blob_bytes file i in
        if len > 0 then begin
          let at = hdr_blob_offset file i + (len / 2) in
          let b = Bytes.copy file in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
          let p = fresh_path (Printf.sprintf "lazy-%s-blob%d" c.name i) in
          write_file p b;
          match Snapshot.load ~verify:true p with
          | Ok _ -> Alcotest.failf "%s: flipped blob %d accepted" c.name i
          | Error e ->
            checkb
              (Printf.sprintf "%s blob %d flip -> %s" c.name i
                 (Snapshot.error_to_string e))
              true
              (e = Snapshot.Checksum_mismatch (Printf.sprintf "blob %d" i))
        end
      done)
    (lazy_cases g)

(* rt-ptr's levels below ell are prefix views of its level-ell family, so
   its file holds that one family: two int32 blocks and a float64 block of
   the same length, and [big_bytes] counts the shared blocks once (summing
   the levels would count them ell + 1 times). *)
let test_ptr_one_family () =
  let g = Lazy.force small_graph in
  let dir = Filename.concat (Lazy.force scratch_dir) "ptr" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun id ->
      let e = entry id in
      let inst, _ = e.Catalog.build ~seed ~eps g in
      let path =
        match Catalog.save_entry ~dir ~seed ~eps g e with
        | Ok p -> p
        | Error err -> Alcotest.failf "%s save: %s" id (Snapshot.error_to_string err)
      in
      let b = read_file path in
      checki (id ^ ": three blobs") 3 (hdr_nblobs b);
      let kind i = Char.code (Bytes.get b (hdr_dirent b i)) in
      let elems i = Int64.to_int (Bytes.get_int64_le b (hdr_dirent b i + 12)) in
      checkb (id ^ ": members, ports, distances") true
        (List.sort compare (List.map kind [ 0; 1; 2 ]) = [ 0; 0; 2 ]
        && elems 0 = elems 1 && elems 1 = elems 2);
      checki (id ^ ": big_bytes counts the family once") (16 * elems 0)
        inst.Scheme.big_bytes)
    [ "rt-ptr-minus-l2"; "rt-ptr-minus-l3"; "rt-ptr-plus-l2" ]

(* ------------------------------------------------------------------ *)
(* 7. Saving right after a build freezes that build's own state.      *)

let subdir name =
  let d = Filename.concat (Lazy.force scratch_dir) name in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* The bytes [save_entry] writes. *)
let saved_bytes ?substrate ?(seed = seed) ?(eps = eps) ~dir g
    (e : Catalog.entry) =
  match Catalog.save_entry ?substrate ~dir ~seed ~eps g e with
  | Ok path -> Bytes.to_string (read_file path)
  | Error err ->
    Alcotest.failf "%s: save_entry failed: %s" e.Catalog.id
      (Snapshot.error_to_string err)

(* The reference: a save on a fresh handle, with no build before it. *)
let fresh_bytes ?seed ?eps g e =
  saved_bytes ~substrate:(Substrate.create g) ?seed ?eps ~dir:(subdir "fresh")
    g e

(* Save [e] on [h] and report whether the save made no substrate lookup,
   i.e. froze the handle's last build instead of preprocessing. *)
let save_on h ?seed ?eps ~dir g e =
  let st = Substrate.stats h in
  let bytes = saved_bytes ~substrate:h ?seed ?eps ~dir g e in
  (bytes, Substrate.stats h = st)

(* Build on [h], route every pair (so the lazy stores' caches hold
   entries when the state is frozen), save on [h]: the save reuses the
   build and writes the bytes of a fresh save; the slot is then consumed,
   so a second save preprocesses again and writes the same bytes. *)
let check_reuse ~what h g (e : Catalog.entry) =
  let name = Printf.sprintf "%s %s" what e.Catalog.id in
  let inst, _ = e.Catalog.build ~substrate:h ~seed ~eps g in
  let routed = route_signature inst g in
  let reused, no_lookup = save_on h ~dir:(subdir "reuse") g e in
  checkb (name ^ ": the save after the build makes no lookup") true no_lookup;
  checkb (name ^ ": reuse writes a fresh save's bytes") true
    (reused = fresh_bytes g e);
  let again, no_lookup = save_on h ~dir:(subdir "again") g e in
  checkb (name ^ ": a second save preprocesses again") false no_lookup;
  checkb (name ^ ": a second save writes the same bytes") true (again = reused);
  let loaded, _ =
    load_one ~path:(Catalog.snapshot_path ~dir:(subdir "reuse") e) g e
  in
  checkb (name ^ ": the reused save loads bit-identical") true
    (route_signature loaded g = routed)

let reuse_gnp =
  lazy (Generators.connect ~seed:31 (Generators.gnp ~seed:501 48 0.12))

let reuse_weighted =
  lazy
    (Generators.with_random_weights ~seed:33 ~lo:0.5 ~hi:4.0
       (Generators.connect ~seed:35 (Generators.gnp ~seed:503 40 0.14)))

let test_reuse_same_bytes () =
  let g = Lazy.force reuse_gnp in
  let h = Substrate.create g in
  List.iter (check_reuse ~what:"gnp48" h g) Catalog.all;
  let g = Lazy.force reuse_weighted in
  let h = Substrate.create g in
  List.iter
    (fun (e : Catalog.entry) ->
      if e.Catalog.weighted_ok then check_reuse ~what:"weighted gnp40" h g e)
    Catalog.all

let test_reuse_lazy () =
  with_lazy_n "32" @@ fun () ->
  let g = Generators.connect ~seed:13 (Generators.gnp ~seed:131 96 0.06) in
  let h = Substrate.create g in
  List.iter
    (fun id -> check_reuse ~what:"lazy gnp96" h g (entry id))
    [ "rt-5eps"; "rt-4km7-k3" ]

(* A save that asks for anything but the last build — another seed,
   another eps, another entry — preprocesses, writes what a fresh save
   writes, and leaves the slot to the save it belongs to. *)
let test_no_false_reuse () =
  let g = Lazy.force reuse_gnp in
  let h = Substrate.create g in
  let all = Array.of_list Catalog.all in
  Array.iteri
    (fun i (e : Catalog.entry) ->
      let other = all.((i + 1) mod Array.length all) in
      let name = e.Catalog.id in
      ignore (e.Catalog.build ~substrate:h ~seed ~eps g);
      let dir = subdir "false-reuse" in
      let b, no_lookup = save_on h ~seed:(seed + 1) ~dir g e in
      checkb (name ^ ": seed + 1 preprocesses") false no_lookup;
      checkb (name ^ ": seed + 1 writes a fresh save's bytes") true
        (b = fresh_bytes ~seed:(seed + 1) g e);
      let b, no_lookup = save_on h ~eps:(eps +. 0.25) ~dir g e in
      checkb (name ^ ": eps + 0.25 preprocesses") false no_lookup;
      checkb (name ^ ": eps + 0.25 writes a fresh save's bytes") true
        (b = fresh_bytes ~eps:(eps +. 0.25) g e);
      let b, no_lookup = save_on h ~dir g other in
      checkb (name ^ ": " ^ other.Catalog.id ^ " preprocesses") false no_lookup;
      checkb (name ^ ": " ^ other.Catalog.id ^ " writes a fresh save's bytes")
        true
        (b = fresh_bytes g other);
      let b, no_lookup = save_on h ~dir g e in
      checkb (name ^ ": the slot waits for its own save") true no_lookup;
      checkb (name ^ ": which writes a fresh save's bytes") true
        (b = fresh_bytes g e))
    all;
  (* The slot is per handle: a build on [h] is not reused by a save on
     another handle of the same graph. *)
  let e = entry "rt-5eps" in
  ignore (e.Catalog.build ~substrate:h ~seed ~eps g);
  let h2 = Substrate.create g in
  let _, no_lookup = save_on h2 ~dir:(subdir "false-reuse") g e in
  checkb "another handle preprocesses" false no_lookup;
  (* A handle is bound to its graph: saving another graph through it is
     refused as it always was, never answered from the slot. *)
  let g2 = Lazy.force reuse_weighted in
  checkb "a save of another graph on the handle is refused" true
    (match
       Catalog.save_entry ~substrate:h ~dir:(subdir "false-reuse") ~seed ~eps
         g2 e
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let _, no_lookup = save_on h ~dir:(subdir "false-reuse") g e in
  checkb "and leaves the slot to its own save" true no_lookup

(* A "+res" entry's snapshot stores the base payload: its save reuses the
   base state its build made, and loads back wrapped. *)
let test_reuse_resilient () =
  let g = Lazy.force reuse_gnp in
  let h = Substrate.create g in
  List.iter
    (fun id ->
      let e = entry (id ^ "+res") in
      let inst, _ = e.Catalog.build ~substrate:h ~seed ~eps g in
      let routed = route_signature inst g in
      let b, no_lookup = save_on h ~dir:(subdir "res") g e in
      checkb (e.Catalog.id ^ ": reuses the base build") true no_lookup;
      checkb (e.Catalog.id ^ ": writes a fresh +res save's bytes") true
        (b = fresh_bytes g e);
      let loaded, _ =
        load_one ~path:(Catalog.snapshot_path ~dir:(subdir "res") e) g e
      in
      check Alcotest.string (e.Catalog.id ^ ": loads back wrapped")
        inst.Scheme.name loaded.Scheme.name;
      checkb (e.Catalog.id ^ ": loaded routes bit-identical") true
        (route_signature loaded g = routed))
    [ "tz-k2"; "rt-5eps" ]

(* After a repair, the repaired handle's last build is the last repaired
   entry, on the new graph; the source handle keeps nothing. *)
let test_reuse_after_repair () =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 60 0.08) in
  let entries = List.map entry [ "full"; "tz-k2"; "rt-3eps"; "rt-5eps" ] in
  let last = List.nth entries (List.length entries - 1) in
  let h = Substrate.create g in
  List.iter
    (fun (e : Catalog.entry) ->
      ignore (e.Catalog.build ~substrate:h ~seed ~eps g))
    entries;
  let ops = Delta.random ~seed:41 ~size:6 g in
  let r = Catalog.repair ~entries ~substrate:h ~seed ~eps ops in
  let g' = r.Catalog.graph in
  let b, no_lookup =
    save_on r.Catalog.substrate ~dir:(subdir "repaired") g' last
  in
  checkb "the repaired handle reuses the last repaired build" true no_lookup;
  checkb "and writes a fresh save's bytes on the new graph" true
    (b = fresh_bytes g' last);
  let b, no_lookup = save_on h ~dir:(subdir "pre-repair") g last in
  checkb "the source handle does not reuse" false no_lookup;
  checkb "and writes a fresh save's bytes on the old graph" true
    (b = fresh_bytes g last);
  (* [invalidate] alone: the new handle starts empty, though its graph
     and the key match what the source held. *)
  List.iter
    (fun (e : Catalog.entry) ->
      ignore (e.Catalog.build ~substrate:h ~seed ~eps g);
      let h', _ = Substrate.invalidate h ops in
      let g' = Substrate.graph h' in
      let b, no_lookup = save_on h' ~dir:(subdir "invalidated") g' e in
      checkb (e.Catalog.id ^ ": the invalidated handle does not reuse") false
        no_lookup;
      checkb (e.Catalog.id ^ ": and writes a fresh save's bytes") true
        (b = fresh_bytes g' e);
      let _, no_lookup = save_on h ~dir:(subdir "invalidated") g e in
      checkb (e.Catalog.id ^ ": nor does the source handle") false no_lookup)
    entries

(* A repair keeps a vicinity family one packed family, so a save
   on the repaired handle writes what a save on a fresh handle of the new
   graph writes: the last entry's save freezes its repaired build, the
   others preprocess on the carried substrates. Eager and lazy. *)
let test_repaired_saves_fresh () =
  let g =
    Generators.with_random_weights ~seed:3 ~lo:1.0 ~hi:8.0
      (Generators.glp ~seed:3 200)
  in
  let entries = List.map entry [ "tz-k3"; "rt-5eps"; "rt-4km7-k3" ] in
  let ops = Delta.random ~seed:41 ~size:4 g in
  List.iter
    (fun (mode, lazy_n) ->
      with_lazy_n lazy_n @@ fun () ->
      let h = Substrate.create g in
      List.iter
        (fun (e : Catalog.entry) ->
          ignore (e.Catalog.build ~substrate:h ~seed ~eps g))
        entries;
      let r = Catalog.repair ~entries ~substrate:h ~seed ~eps ops in
      let g' = r.Catalog.graph in
      List.iter
        (fun (e : Catalog.entry) ->
          checkb
            (Printf.sprintf "%s %s: a repaired save writes a fresh save's bytes"
               mode e.Catalog.id)
            true
            (saved_bytes ~substrate:r.Catalog.substrate
               ~dir:(subdir "repaired-fresh") g' e
            = fresh_bytes g' e))
        (List.rev entries))
    [ ("eager", ""); ("lazy", "32") ]

(* rt-4km7-k built after tz-k on one handle embeds tz-k's state; built
   alone it builds its own. Tables, labels, routes and snapshot bytes are
   the same either way, eager and lazy. *)
let test_shared_tz_state_same_instance () =
  let g = Lazy.force reuse_weighted in
  let built ~after_tz k =
    let h = Substrate.create g in
    if after_tz then
      ignore ((entry (Printf.sprintf "tz-k%d" k)).Catalog.build ~substrate:h
                ~seed ~eps g);
    let e = entry (Printf.sprintf "rt-4km7-k%d" k) in
    let inst, _ = e.Catalog.build ~substrate:h ~seed ~eps g in
    let bytes = saved_bytes ~substrate:h ~dir:(subdir "shared-tz") g e in
    ( inst.Scheme.table_words,
      inst.Scheme.label_words,
      route_signature inst g,
      bytes )
  in
  List.iter
    (fun (mode, lazy_n) ->
      with_lazy_n lazy_n @@ fun () ->
      List.iter
        (fun k ->
          let tw, lw, rs, sb = built ~after_tz:false k
          and tw', lw', rs', sb' = built ~after_tz:true k in
          let name what = Printf.sprintf "%s rt-4km7-k%d: %s" mode k what in
          checkb (name "table words") true (tw = tw');
          checkb (name "label words") true (lw = lw');
          checkb (name "routes") true (rs = rs');
          checkb (name "snapshot bytes") true (sb = sb'))
        [ 3; 4 ])
    [ ("eager", ""); ("lazy", "32") ]

(* ------------------------------------------------------------------ *)
(* 8. Concurrent saves of one path.                                   *)

(* Two domains save different payloads to one path, over and over: the
   blob sizes differ, so a shared temp file would be shrunk under the
   other writer's mapped blit. Every save must succeed, the last file
   must be one writer's whole payload, and no temp file may remain. *)
let test_concurrent_saves () =
  let dir = subdir "concurrent" in
  let path = Filename.concat dir "one.snap" in
  let meta =
    { Snapshot.scheme_id = "concurrent"; seed; eps; n = 1; m = 0;
      fingerprint = 0L }
  in
  let payload tag words =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout words in
    Bigarray.Array1.fill a (Int32.of_int tag);
    (String.make (100 * tag) (Char.chr (Char.code 'a' + tag)), a)
  in
  let writers = [ payload 1 (1 lsl 18); payload 2 (1 lsl 10) ] in
  let write (residue, blob) () =
    List.init 40 (fun _ ->
        let sink = Snapshot.sink () in
        ignore (Snapshot.put sink (Snapshot.I32 blob));
        Snapshot.save ~path ~meta ~residue sink)
  in
  let results =
    List.map Domain.join (List.map (fun w -> Domain.spawn (write w)) writers)
  in
  List.iteri
    (fun i rs ->
      List.iter
        (function
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "writer %d: %s" i (Snapshot.error_to_string e))
        rs)
    results;
  (match Snapshot.load ~verify:true path with
  | Error e -> Alcotest.failf "final file: %s" (Snapshot.error_to_string e)
  | Ok l ->
    let blob = Snapshot.get_i32 l.Snapshot.source 0 in
    checkb "the final file is one writer's whole payload" true
      (List.exists
         (fun (residue, a) ->
           l.Snapshot.residue = residue
           && Bigarray.Array1.dim blob = Bigarray.Array1.dim a
           && Bigarray.Array1.get blob 0 = Bigarray.Array1.get a 0
           && Bigarray.Array1.get blob (Bigarray.Array1.dim a - 1)
              = Bigarray.Array1.get a 0)
         writers));
  check
    Alcotest.(list string)
    "no temp file is left behind" [ "one.snap" ]
    (Array.to_list (Sys.readdir dir))

let suite =
  [
    case "round-trip: whole catalog bit-identical" test_roundtrip_whole_catalog;
    case "round-trip: weighted schemes" test_roundtrip_weighted;
    case "round-trip: mmap fast path (no per-blob CRC)" test_roundtrip_no_verify;
    qcheck_roundtrip;
    case "reject: truncated file" test_truncated;
    case "reject: bad magic" test_bad_magic;
    case "reject: unsupported version" test_wrong_version;
    case "reject: corrupt header" test_corrupt_header;
    case "reject: corrupt payload" test_corrupt_payload;
    case "reject: wrong graph" test_wrong_graph;
    case "reject: wrong seed/eps" test_wrong_params;
    case "reject: wrong scheme" test_wrong_scheme;
    case "load_or_build fallback ladder" test_load_or_build_fallback;
    case "reject: version-1 file, rebuilt on load" (test_old_version_rebuilt 1);
    case "reject: version-2 file, rebuilt on load" (test_old_version_rebuilt 2);
    case "reject: version-3 file, rebuilt on load" (test_old_version_rebuilt 3);
    case "reject: version-4 file, rebuilt on load" (test_old_version_rebuilt 4);
    case "reject: version-5 file, rebuilt on load" (test_old_version_rebuilt 5);
    case "reject: version-6 file, rebuilt on load" (test_old_version_rebuilt 6);
    case "reject: crafted blob length past the file" test_crafted_blob_length;
    case "reject: crafted residue length past the file" test_crafted_residue_length;
    qcheck_lower_bound;
    case "CRC-32 check value" test_crc_check_value;
    qcheck_crc_kernel;
    qcheck_crc_i32_view;
    case "format pin: golden container digest" test_golden_digest;
    case "round-trip: lazy rt-* blobs" test_lazy_blob_roundtrip;
    case "rt-ptr files hold one vicinity family" test_ptr_one_family;
    case "reuse: a save after a build writes a fresh save's bytes"
      test_reuse_same_bytes;
    case "reuse: lazy rt-* routed before the save" test_reuse_lazy;
    case "reuse: other seed, eps or entry preprocesses" test_no_false_reuse;
    case "reuse: +res entries reuse the base build" test_reuse_resilient;
    case "reuse: after repair and invalidate" test_reuse_after_repair;
    case "repaired saves equal fresh saves, eager and lazy"
      test_repaired_saves_fresh;
    case "rt-4km7-k after tz-k: the same instance and bytes"
      test_shared_tz_state_same_instance;
    case "save: concurrent writers of one path" test_concurrent_saves;
  ]
