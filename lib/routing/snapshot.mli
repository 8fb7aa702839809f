open Cr_graph

(** Versioned, checksummed binary snapshots of compiled catalog entries.

    A snapshot serializes one scheme instance built on one graph: a
    self-describing header (magic, version, host endianness, scheme id,
    build parameters, graph fingerprint), a directory of raw Bigarray
    blobs written as host memory, and an opaque caller-provided
    "residue" string (Marshal bytes for the non-Bigarray remainder).
    Loading maps the blobs back with [Unix.map_file] — zero-copy — and
    validates magic, version, endianness, bounds and checksums before
    returning; in particular the residue checksum is verified {e before}
    the caller can unmarshal it, so a damaged file yields a typed
    {!error}, never garbage routes. *)

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

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

val fingerprint : Graph.t -> int64
(** FNV-1a over the logical CSR values (n, m, offsets, destinations,
    weight float bits); float32 weights hash as the rounded values they
    hold. *)

(** {1 Encoding} *)

type sink
(** Collector for the Bigarray blobs of one entry. *)

val sink : unit -> sink

val put : sink -> blob -> int
(** Register a blob, returning its id for the decoder. Blobs are deduped
    by physical identity, so planes shared between two sub-structures
    are stored once and re-shared on load. *)

val blob_bytes : blob -> int

val save :
  path:string -> meta:meta -> residue:string -> sink -> (unit, error) result
(** Write atomically: through a temp file of this call's own in [path]'s
    directory, then one rename. Concurrent saves of one path (other
    domains, other processes) each write a whole file and the last
    rename wins; no temp file is left behind, on success or error. *)

(** {1 Decoding} *)

type source
(** The mapped blobs of a loaded snapshot. *)

val get_i32 : source -> int -> i32arr
(** @raise Invalid_argument on a kind mismatch — that is a codec bug, not
    a file-corruption mode (corruption is caught by the checksums). *)

val get_f32 : source -> int -> f32arr

val get_f64 : source -> int -> f64arr

type loaded = { meta : meta; source : source; residue : string }

val load : ?verify:bool -> string -> (loaded, error) result
(** Parse and validate a snapshot. [verify] (default [true]) additionally
    re-checksums every blob payload; header, directory, bounds and
    residue are always validated. *)

val check :
  loaded ->
  scheme_id:string ->
  seed:int ->
  eps:float ->
  graph:Graph.t ->
  (unit, error) result
(** Validate that a loaded snapshot is usable for [graph] under the given
    scheme and parameters (id, seed, eps, n/m, fingerprint). *)

(** Test-only hooks. *)
module For_testing : sig
  val crc32 : int -> string -> int -> int -> int
  (** [crc32 crc s off len] continues the CRC-32 state [crc] (zlib
      polynomial; states are ints in [\[0, 2^32)], and [0] starts a
      fresh checksum) over the [len] bytes of [s] from [off]. It is the
      kernel behind every header and residue checksum.
      @raise Invalid_argument if the range is not inside [s]. *)

  val crc32_i32 : int -> i32arr -> int
  (** [crc32_i32 crc a] continues [crc] over the raw memory of [a], in
      host byte order — the path every blob payload is checked through,
      float blobs via int32 views of their memory. *)
end
