open Cr_graph
open Cr_routing

(** A uniform catalog of every routing scheme in the repository — the
    paper's five schemes and the implemented baselines — keyed by short ids.
    Drives the CLI, the benchmark harness and the examples. *)

type codec = {
  enc :
    ?substrate:Substrate.t ->
    seed:int ->
    eps:float ->
    Graph.t ->
    Snapshot.sink ->
    string;
      (** freeze one build of the entry: register its Bigarray planes
          with the sink and return the marshalled residue (the scheme's
          plain-data skeleton). The build frozen is the one [substrate]'s
          last-build slot holds when it is this build — same codec id,
          seed and eps, on the handle's own graph — and the slot is then
          emptied; otherwise [enc] runs the same preprocessing as
          [build]. *)
  dec :
    Snapshot.source ->
    string ->
    Graph.t ->
    Scheme.instance * (float * float);
      (** reconstruct the instance from a loaded snapshot: blobs come
          zero-copy from the mapped [source], the residue is the string
          produced by [enc]. *)
}
(** Binary snapshot codec for one catalog entry, derived with [build]
    from the scheme module's [freeze]/[thaw] and the entry's one
    preprocess call. [dec (enc g)] is bit-identical to [build g] — the
    on-disk form is just a faster way to reach the same instance. A
    ["+res"] entry shares its base entry's [enc], codec id included. *)

type entry = {
  id : string;                 (** e.g. ["rt-5eps"], ["tz-k2"] *)
  description : string;
  paper_stretch : string;      (** stretch claimed in the paper / Table 1 *)
  paper_space : string;        (** per-vertex table bound, e.g. ["n^2/3"] *)
  source : string;             (** where the scheme comes from *)
  weighted_ok : bool;          (** accepts weighted graphs? *)
  build :
    ?substrate:Substrate.t ->
    seed:int ->
    eps:float ->
    Graph.t ->
    Scheme.instance * (float * float);
      (** preprocess and return the instance with its proven
          [(alpha, beta)] guarantee at this [eps]. Pass one [substrate]
          handle across several builds on the same graph to share the
          common preprocessing substrates (vicinities, SPTs, center
          samples, clusters) between them — results are bit-identical to
          uncached builds. The handle also keeps this build's state in its
          one last-build slot ({!Substrate.keep_build}), replacing what was
          there, for a {!save_entry} that follows. *)
  snap : codec;  (** snapshot codec *)
}

val all : entry list
(** Every scheme, ordered as in the paper's Table 1. *)

val resilient : ?retries:int -> entry -> entry
(** [resilient e] is [e] building {!Resilient}-wrapped instances: the id
    gains a ["+res"] suffix and every routed message gets the escape-hop /
    tree-guided-detour recovery ladder under faults. The healthy-network
    [(alpha, beta)] guarantee is unchanged — without faults the wrapper is
    transparent. *)

val find : string -> entry option
(** Look up an entry by id. A ["<id>+res"] id resolves to the
    {!resilient}-wrapped base entry. *)

val ids : unit -> string list

(** {1 Binary snapshots}

    Compiled catalog entries serialize to versioned, checksummed binary
    files ({!Snapshot}). A save right after a build on the same
    {!Substrate} handle freezes the state that build made, so each
    preprocess runs once per deployment; any other save runs the
    ordinary build once and writes the result. Loading memory-maps the
    plane arrays back without re-running any preprocessing, and the
    reconstructed instance answers every query bit-identically to a
    fresh build with the same seed/eps on the same graph. *)

val snapshot_path : dir:string -> entry -> string
(** [dir/<id>.snap] — where {!save_entry} writes and {!load_or_build}
    looks. *)

val save_entry :
  ?substrate:Substrate.t ->
  dir:string ->
  seed:int ->
  eps:float ->
  Graph.t ->
  entry ->
  (string, Snapshot.error) result
(** Write the entry's snapshot for [g] under [dir], returning the file
    path. When [substrate]'s last build is this entry's (the base entry's
    for a ["+res"] one) with this [seed] and [eps], and [g] is the
    handle's graph, the save takes that build's state out of the slot
    and freezes it: no preprocess runs and no substrate lookup is made.
    It misses, and builds the entry on [g] as before, when there is no
    handle, when another entry, seed or eps was built last, when [g] is
    not the handle's graph (a save through a handle bound to another
    graph raises [Invalid_argument], as a build does), and when the slot
    was already taken by an earlier save or emptied by
    {!Substrate.invalidate}. Either way the file is byte-identical: a
    build's state freezes to the same bytes after any amount of routing,
    since freezing reads only what preprocessing set. *)

val load_entry :
  ?verify:bool ->
  path:string ->
  seed:int ->
  eps:float ->
  Graph.t ->
  entry ->
  (Scheme.instance * (float * float), Snapshot.error) result
(** Load a snapshot from [path] and reconstruct the instance. Strictly
    validated: magic/version/endianness/checksums at the {!Snapshot}
    layer, then scheme id, seed, eps and graph fingerprint against the
    live arguments — a stale or foreign file yields a typed error, never
    garbage routes. [verify] (default [true]) controls the per-blob CRC
    pass. *)

val load_or_build :
  ?substrate:Substrate.t ->
  ?verify:bool ->
  dir:string ->
  seed:int ->
  eps:float ->
  Graph.t ->
  entry ->
  (Scheme.instance * (float * float))
  * [ `Loaded | `Built of Snapshot.error option ]
(** Warm-start helper: try [dir/<id>.snap], fall back to [build] when the
    file is missing ([`Built None]) or fails validation ([`Built (Some
    err)]). The instance is the same either way; only the wall-clock
    differs. *)

(** {1 Churn repair} *)

type repaired = {
  graph : Graph.t;           (** the post-delta graph *)
  substrate : Substrate.t;   (** handle bound to it (warm after the builds) *)
  instances : (entry * Scheme.instance * (float * float)) list;
  invalidation : Substrate.invalidation option;
      (** reuse accounting; [None] when the repair fell back to a full
          rebuild *)
  full_rebuild : bool;       (** whether the fallback path was taken *)
  wall : float;              (** seconds spent, invalidation + builds *)
}

val repair :
  ?deadline:float ->
  ?force_full:bool ->
  ?entries:entry list ->
  substrate:Substrate.t ->
  seed:int ->
  eps:float ->
  Graph.delta_op list ->
  repaired
(** [repair ~substrate ~seed ~eps ops] applies the delta batch to the
    substrate's graph ({!Graph.apply_delta}), invalidates only the dirty
    region of the cached preprocessing ({!Substrate.invalidate}) and
    rebuilds [entries] (default: the whole catalog) on the surviving
    caches. Every returned instance is bit-identical to a fresh build with
    the same [seed]/[eps] on the post-delta graph — the substrate carries
    only structures proven unchanged — so the incremental path differs
    from a full rebuild in wall-clock only.

    [deadline] (seconds) bounds the incremental bookkeeping: when the
    invalidation pass alone exceeds it, or the deadline is non-positive,
    the repair degrades to a full rebuild on a fresh substrate behind the
    same API ([full_rebuild] reports which path ran). [force_full] takes
    the fallback unconditionally — the benchmark uses it as the
    full-rebuild baseline. *)
