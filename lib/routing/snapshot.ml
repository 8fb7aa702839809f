open Cr_graph

(* Versioned binary snapshots of compiled catalog entries.

   A snapshot file carries a small self-describing header (magic, format
   version, host endianness, scheme id and build parameters, graph
   fingerprint), a directory of raw Bigarray blobs, the blob payloads
   themselves (8-aligned, written as raw host memory so they can be
   mapped straight back), and an opaque "residue" string — the caller's
   Marshal bytes for everything that is not a Bigarray. Every region is
   CRC-32 checksummed, and the residue checksum is validated here BEFORE
   the caller ever feeds those bytes to [Marshal.from_string]: a
   corrupted file must fail with a typed error, never with a segfault or
   a garbage route.

   Loading maps each blob with [Unix.map_file] — zero-copy: the plane
   arrays alias the page cache and no element is touched until routing
   reads it (blob CRC verification, on by default, does touch them). *)

type i32arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f32arr = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type blob = I32 of i32arr | F32 of f32arr | F64 of f64arr

type meta = {
  scheme_id : string;
  seed : int;
  eps : float;
  n : int;
  m : int;
  fingerprint : int64;
}

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Endianness_mismatch
  | Truncated
  | Checksum_mismatch of string
  | Scheme_mismatch of { expected : string; found : string }
  | Params_mismatch of string
  | Graph_mismatch
  | Malformed of string

let pp_error ppf = function
  | Io m -> Format.fprintf ppf "i/o error: %s" m
  | Bad_magic -> Format.fprintf ppf "not a snapshot file (bad magic)"
  | Unsupported_version v -> Format.fprintf ppf "unsupported snapshot version %d" v
  | Endianness_mismatch ->
    Format.fprintf ppf "snapshot written on a host with different endianness"
  | Truncated -> Format.fprintf ppf "truncated snapshot file"
  | Checksum_mismatch what -> Format.fprintf ppf "checksum mismatch in %s" what
  | Scheme_mismatch { expected; found } ->
    Format.fprintf ppf "snapshot is for scheme %s, expected %s" found expected
  | Params_mismatch what -> Format.fprintf ppf "parameter mismatch: %s" what
  | Graph_mismatch ->
    Format.fprintf ppf "snapshot graph fingerprint does not match this graph"
  | Malformed what -> Format.fprintf ppf "malformed snapshot: %s" what

let error_to_string e = Format.asprintf "%a" pp_error e

(* ------------------------------------------------------------------ *)
(* CRC-32 (zlib polynomial, slicing-by-8)                              *)
(* ------------------------------------------------------------------ *)

(* CRC states are native ints in [0, 2^32). [crc_tables] holds eight
   256-entry tables back to back: table 0 is the classic byte table, and
   table k is the contribution of a byte followed by k more bytes, so one
   step folds eight bytes with eight independent lookups instead of eight
   dependent ones. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- (c lsr 8) lxor t.(c land 0xff)
  done;
  t

let[@inline] tbl k x = Array.unsafe_get crc_tables ((k lsl 8) lor (x land 0xff))

(* Fold four bytes [w] (first byte in the low bits) into state [c]. *)
let[@inline] crc_word4 c w =
  let x = c lxor w in
  tbl 3 x lxor tbl 2 (x lsr 8) lxor tbl 1 (x lsr 16) lxor tbl 0 (x lsr 24)

(* Fold eight bytes, given as two such words: [lo] the first four, [hi]
   the next four. *)
let[@inline] crc_word8 c lo hi =
  let x = c lxor lo in
  tbl 7 x lxor tbl 6 (x lsr 8) lxor tbl 5 (x lsr 16) lxor tbl 4 (x lsr 24)
  lxor tbl 3 hi lxor tbl 2 (hi lsr 8) lxor tbl 1 (hi lsr 16) lxor tbl 0 (hi lsr 24)

external string_get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* A word loaded from memory as an unsigned int whose low byte is the
   word's first byte in memory, on either host. *)
let[@inline] u32_of_mem x =
  Int32.to_int (if Sys.big_endian then swap32 x else x) land 0xffffffff

(* Continue [crc] over [len] bytes of [s] from [off]; bounds unchecked. *)
let crc_sub crc s off len =
  let c = ref (crc lxor 0xffffffff) in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    c :=
      crc_word8 !c
        (u32_of_mem (string_get32u s !i))
        (u32_of_mem (string_get32u s (!i + 4)));
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c := tbl 0 (!c lxor Char.code (String.unsafe_get s j)) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc_string s = crc_sub 0 s 0 (String.length s)

(* Continue [crc] over the raw memory of [a] — host byte order, exactly
   the bytes a snapshot file holds. Float blobs are checked through int32
   views of their memory, never through their float values: reading a
   float32 widens it, and widening quiets a signalling NaN. *)
let crc_i32 crc (a : i32arr) =
  let len = Bigarray.Array1.dim a in
  let c = ref (crc lxor 0xffffffff) in
  let i = ref 0 in
  while !i < len - 1 do
    c :=
      crc_word8 !c
        (u32_of_mem (Bigarray.Array1.unsafe_get a !i))
        (u32_of_mem (Bigarray.Array1.unsafe_get a (!i + 1)));
    i := !i + 2
  done;
  if !i < len then c := crc_word4 !c (u32_of_mem (Bigarray.Array1.unsafe_get a !i));
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* Graph fingerprint                                                   *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over 64-bit words of the logical CSR (n, m, offsets,
   destinations, weight float bits): each int32 entry is hashed as the
   int it holds and each weight as its float64 bits, so converting a
   graph's weights to float32 changes its fingerprint exactly when the
   rounding changes a weight. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv h x = Int64.mul (Int64.logxor h x) fnv_prime

let fnv_int h x = fnv h (Int64.of_int x)

let fingerprint g =
  let n = Graph.n g and m = Graph.m g in
  let h = ref (fnv_int (fnv_int fnv_offset n) m) in
  let { Graph.off; dst; wgt } = Graph.csr g in
  for i = 0 to Bigarray.Array1.dim off - 1 do
    h := fnv_int !h (Int32.to_int (Bigarray.Array1.unsafe_get off i))
  done;
  for i = 0 to Bigarray.Array1.dim dst - 1 do
    h := fnv_int !h (Int32.to_int (Bigarray.Array1.unsafe_get dst i))
  done;
  for i = 0 to 2 * m - 1 do
    h := fnv !h (Int64.bits_of_float (Graph.weight wgt i))
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Sink: blob collection with physical dedup                           *)
(* ------------------------------------------------------------------ *)

type sink = { mutable blobs : blob list; mutable count : int }

let sink () = { blobs = []; count = 0 }

let blob_eq a b =
  match (a, b) with
  | I32 x, I32 y -> x == y
  | F32 x, F32 y -> x == y
  | F64 x, F64 y -> x == y
  | _ -> false

let put s b =
  (* Physical dedup keeps shared planes (e.g. a vicinity family referenced
     by both a scheme and its nested sequence router) stored once; the
     decoder re-shares them by id. Linear scan — a plane has tens of
     blobs, not thousands. *)
  let rec scan i = function
    | [] ->
      s.blobs <- b :: s.blobs;
      s.count <- s.count + 1;
      s.count - 1
    | x :: tl -> if blob_eq x b then s.count - 1 - i else scan (i + 1) tl
  in
  scan 0 s.blobs

let blob_elems = function
  | I32 a -> Bigarray.Array1.dim a
  | F32 a -> Bigarray.Array1.dim a
  | F64 a -> Bigarray.Array1.dim a

let blob_kind_code = function I32 _ -> 0 | F32 _ -> 1 | F64 _ -> 2

let elem_size = function 0 | 1 -> 4 | 2 -> 8 | _ -> invalid_arg "elem_size"

let blob_bytes b = blob_elems b * elem_size (blob_kind_code b)

(* ------------------------------------------------------------------ *)
(* Source: mapped blobs                                                *)
(* ------------------------------------------------------------------ *)

type source = { loaded : blob array }

let get_i32 src i =
  match src.loaded.(i) with
  | I32 a -> a
  | _ -> invalid_arg "Snapshot.get_i32: blob kind mismatch"

let get_f32 src i =
  match src.loaded.(i) with
  | F32 a -> a
  | _ -> invalid_arg "Snapshot.get_f32: blob kind mismatch"

let get_f64 src i =
  match src.loaded.(i) with
  | F64 a -> a
  | _ -> invalid_arg "Snapshot.get_f64: blob kind mismatch"

(* ------------------------------------------------------------------ *)
(* Format                                                              *)
(* ------------------------------------------------------------------ *)

(* The \r\n inside the magic catches text-mode line-ending mangling the
   way PNG's does. *)
let magic = "CRSNAP\r\n"

(* Marshal is untyped: a residue written for another layout of the
   frozen records would pass every header check and then unmarshal the
   wrong type, so each layout change bumps the version. Version 2:
   witness tables and boxed vicinity indexes became [Compiled.Intmap]s.
   Version 3: tree vertex indexes became [Compiled.Intmap]s, tree and
   label collections [Compiled.Table]s, and TZ bunches
   [Compiled.Bitset]s, where version 2 held hashtables. Version 4: each
   scheme's snapshot form became its built state record with the graph
   handle and the other non-data parts replaced, where version 3 held a
   separate frozen record without those fields. Version 5: every vicinity
   array is one packed family whose blocks are blobs, so its residue part
   is that family's record, where version 4 held per-vertex boxed records
   or family-table entries; rt-ptr writes only its level-ell family.
   Version 6: [Compiled.Intmap] has two layouts, where version 5 also had
   a third, bit-packed one that large sparse maps took (tz-k3 past ~10^4
   vertices); such a file's residue holds a constructor tag the
   two-layout type has no case for. Version 7: a [Tree_routing.t] is flat
   int and float arrays indexed by preorder number and a tree label is one
   int array, where version 6 held per-member node records and labels of
   light-edge records; every tz-*, rt-4km7-*, rt-ptr-*, rt-2eps1, rt-3eps*
   and eager rt-5eps residue holds trees. *)
let version = 7

let align8 x = (x + 7) land lnot 7

(* Fixed-size part of a directory entry: kind u8, pad3, offset i64,
   elems i64, crc u32. *)
let dirent_size = 1 + 3 + 8 + 8 + 4

type dirent = { kind : int; offset : int; elems : int; crc : int }

let put_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* Header size up to (and excluding) the trailing header crc, for a given
   scheme-id length and blob count. *)
let header_size ~id_len ~nblobs =
  8 + 4 + 1 + 3 + 4 + id_len + (5 * 8) + 4 + (nblobs * dirent_size) + 8 + 8 + 4

(* A [kind] view of [elems] elements of [fd] at byte offset [pos]. *)
let map_region fd ~pos ~shared kind elems =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout shared
       [| elems |])

(* Every blob is a whole number of 4-byte words, so an int32 view covers
   its bytes exactly. *)
let blob_words fd ~pos ~shared bytes =
  map_region fd ~pos ~shared Bigarray.int32 (bytes / 4)

(* Each save writes through a temp file of its own, created exclusively
   next to [path] (one file system, so the final rename is atomic). Two
   writers of one path, in two domains or two processes, never truncate,
   map or rename each other's temp file: the last rename wins whole. The
   name carries the pid and a per-process sequence number; [O_EXCL] makes
   a clash with a stale file from another process try the next number. *)
let temp_seq = Atomic.make 0

let rec open_temp path =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add temp_seq 1)
  in
  match
    Unix.openfile tmp
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o644
  with
  | fd -> (tmp, fd)
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> open_temp path

let save ~path ~meta ~residue s =
  let blobs = Array.of_list (List.rev s.blobs) in
  let nblobs = Array.length blobs in
  let id_len = String.length meta.scheme_id in
  let hsize = header_size ~id_len ~nblobs + 4 in
  (* Lay the blobs out 8-aligned after the header; residue last. *)
  let offsets = Array.make nblobs 0 in
  let pos = ref (align8 hsize) in
  Array.iteri
    (fun i b ->
      offsets.(i) <- !pos;
      pos := align8 (!pos + blob_bytes b))
    blobs;
  let residue_off = !pos in
  let residue_len = String.length residue in
  let total = residue_off + residue_len in
  match open_temp path with
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | tmp, fd ->
  match
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* Full length up front: alignment padding reads back as zeros. *)
        Unix.ftruncate fd total;
        (* Each blob: one memcpy into a shared map of its region, then the
           CRC of the bytes as written, through an int32 view of the same
           pages. *)
        let blob_crcs =
          Array.mapi
            (fun i b ->
              let pos = offsets.(i) in
              let words = blob_words fd ~pos ~shared:true (blob_bytes b) in
              let map kind = map_region fd ~pos ~shared:true kind (blob_elems b) in
              (match b with
              | I32 a -> Bigarray.Array1.blit a words
              | F32 a -> Bigarray.Array1.blit a (map Bigarray.float32)
              | F64 a -> Bigarray.Array1.blit a (map Bigarray.float64));
              crc_i32 0 words)
            blobs
        in
        (* Header, built last so it can embed the blob CRCs. *)
        let buf = Buffer.create hsize in
        Buffer.add_string buf magic;
        put_u32 buf version;
        Buffer.add_char buf (if Sys.big_endian then '\001' else '\000');
        Buffer.add_string buf "\000\000\000";
        put_u32 buf id_len;
        Buffer.add_string buf meta.scheme_id;
        put_i64 buf meta.seed;
        Buffer.add_int64_le buf (Int64.bits_of_float meta.eps);
        put_i64 buf meta.n;
        put_i64 buf meta.m;
        Buffer.add_int64_le buf meta.fingerprint;
        put_u32 buf nblobs;
        Array.iteri
          (fun i b ->
            Buffer.add_char buf (Char.chr (blob_kind_code b));
            Buffer.add_string buf "\000\000\000";
            put_i64 buf offsets.(i);
            put_i64 buf (blob_elems b);
            put_u32 buf blob_crcs.(i))
          blobs;
        put_i64 buf residue_off;
        put_i64 buf residue_len;
        put_u32 buf (crc_string residue);
        put_u32 buf (crc_string (Buffer.contents buf));
        let write_at off str =
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write_substring fd str 0 (String.length str))
        in
        write_at 0 (Buffer.contents buf);
        write_at residue_off residue);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Io (Unix.error_message e))
  | exception Sys_error m ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Io m)

type loaded = { meta : meta; source : source; residue : string }

let ( let* ) = Result.bind

let read_exact ic len =
  let b = Bytes.create len in
  match really_input ic b 0 len with
  | () -> Ok b
  | exception End_of_file -> Error Truncated

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let get_i64 b off = Int64.to_int (Bytes.get_int64_le b off)

let load ?(verify = true) path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Io m)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let file_size = in_channel_length ic in
        (* Prelude: magic, version, endianness, scheme-id length. *)
        let* pre = read_exact ic 20 in
        let* () =
          if Bytes.sub_string pre 0 8 <> magic then Error Bad_magic else Ok ()
        in
        let v = get_u32 pre 8 in
        let* () = if v <> version then Error (Unsupported_version v) else Ok () in
        let endian = Bytes.get pre 12 in
        let* () =
          if endian <> (if Sys.big_endian then '\001' else '\000') then
            Error Endianness_mismatch
          else Ok ()
        in
        let id_len = get_u32 pre 16 in
        let* () =
          if id_len > 4096 then Error (Malformed "scheme id length") else Ok ()
        in
        (* Rest of the fixed-position header. *)
        let* mid = read_exact ic (id_len + (5 * 8) + 4) in
        let scheme_id = Bytes.sub_string mid 0 id_len in
        let seed = get_i64 mid id_len in
        let eps = Int64.float_of_bits (Bytes.get_int64_le mid (id_len + 8)) in
        let n = get_i64 mid (id_len + 16) in
        let m = get_i64 mid (id_len + 24) in
        let fp = Bytes.get_int64_le mid (id_len + 32) in
        let nblobs = get_u32 mid (id_len + 40) in
        let* () =
          if nblobs > 100_000 then Error (Malformed "blob count") else Ok ()
        in
        let* dir = read_exact ic ((nblobs * dirent_size) + 8 + 8 + 4 + 4) in
        let dirents =
          Array.init nblobs (fun i ->
              let o = i * dirent_size in
              {
                kind = Char.code (Bytes.get dir o);
                offset = get_i64 dir (o + 4);
                elems = get_i64 dir (o + 12);
                crc = get_u32 dir (o + 20);
              })
        in
        let tail = nblobs * dirent_size in
        let residue_off = get_i64 dir tail in
        let residue_len = get_i64 dir (tail + 8) in
        let residue_crc = get_u32 dir (tail + 16) in
        let header_crc = get_u32 dir (tail + 20) in
        (* Header CRC covers everything before its own 4 bytes. *)
        let* () =
          let crc_of crc b len = crc_sub crc (Bytes.unsafe_to_string b) 0 len in
          let crc = crc_of 0 pre 20 in
          let crc = crc_of crc mid (Bytes.length mid) in
          if crc_of crc dir (Bytes.length dir - 4) <> header_crc then
            Error (Checksum_mismatch "header")
          else Ok ()
        in
        (* Bounds: every blob and the residue must live inside the file.
           Compared by subtraction, so a crafted length cannot wrap a sum
           past [max_int] and slip through. *)
        let* () =
          if
            residue_len < 0 || residue_off < 0 || residue_off > file_size
            || residue_len > file_size - residue_off
          then Error Truncated
          else Ok ()
        in
        let* () =
          Array.fold_left
            (fun acc d ->
              let* () = acc in
              if d.kind < 0 || d.kind > 2 then Error (Malformed "blob kind")
              else if d.elems < 0 then Error (Malformed "blob length")
              else if
                d.offset < 0 || d.offset > file_size
                || d.elems > (file_size - d.offset) / elem_size d.kind
              then Error Truncated
              else Ok ())
            (Ok ()) dirents
        in
        (* Residue bytes + CRC — validated here, before any caller
           unmarshals them. *)
        let* residue =
          seek_in ic residue_off;
          Result.map Bytes.unsafe_to_string (read_exact ic residue_len)
        in
        let* () =
          if crc_string residue <> residue_crc then
            Error (Checksum_mismatch "residue")
          else Ok ()
        in
        (* Blobs: map each region once, then optionally re-CRC its bytes
           in place (page cache, no copy). An I32 blob is its own int32
           view; a float blob is read through an int32 view of its pages.
           Mappings survive the close. *)
        let fd = Unix.descr_of_in_channel ic in
        let mapping f =
          try f () with Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
        in
        let* loaded =
          mapping (fun () ->
              Ok
                (Array.map
                   (fun d ->
                     let map kind =
                       map_region fd ~pos:d.offset ~shared:false kind d.elems
                     in
                     match d.kind with
                     | 0 -> I32 (map Bigarray.int32)
                     | 1 -> F32 (map Bigarray.float32)
                     | _ -> F64 (map Bigarray.float64))
                   dirents))
        in
        let rec check_blob i =
          if i >= nblobs then Ok ()
          else
            let words =
              match loaded.(i) with
              | I32 a -> a
              | b -> blob_words fd ~pos:dirents.(i).offset ~shared:false (blob_bytes b)
            in
            if crc_i32 0 words <> dirents.(i).crc then
              Error (Checksum_mismatch (Printf.sprintf "blob %d" i))
            else check_blob (i + 1)
        in
        let* () = if verify then mapping (fun () -> check_blob 0) else Ok () in
        Ok
          {
            meta = { scheme_id; seed; eps; n; m; fingerprint = fp };
            source = { loaded };
            residue;
          })

let check loaded ~scheme_id ~seed ~eps ~graph =
  let m = loaded.meta in
  if m.scheme_id <> scheme_id then
    Error (Scheme_mismatch { expected = scheme_id; found = m.scheme_id })
  else if m.seed <> seed then Error (Params_mismatch "seed")
  else if m.eps <> eps then Error (Params_mismatch "eps")
  else if m.n <> Graph.n graph || m.m <> Graph.m graph then Error Graph_mismatch
  else if m.fingerprint <> fingerprint graph then Error Graph_mismatch
  else Ok ()

module For_testing = struct
  let crc32 crc s off len =
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Snapshot.For_testing.crc32";
    crc_sub crc s off len

  let crc32_i32 = crc_i32
end
