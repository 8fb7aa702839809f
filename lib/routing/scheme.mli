open Cr_graph

(** Uniform view of a compact routing scheme, as consumed by the tests, the
    benchmark harness and the examples.

    Space convention: all sizes are counted in {e words} of O(log n) bits —
    a vertex id, a port, a distance, or a DFS number each cost one word.
    This matches how the paper states table sizes (entries of O(log n) bits)
    and is robust to machine word width.

    One forwarding plane: every scheme routes through a single step
    function over tables built once, at the end of its preprocess, in
    their runtime form ({!Compiled} containers, tree and vicinity
    records). Building an instance, or thawing one from a snapshot, does
    no further work. What differs between a traced route and a
    throughput run is only the two simulator knobs of [route]. *)

type instance = {
  name : string;
  graph : Graph.t;
  route :
    faults:Fault.plan option ->
    record_path:bool ->
    detect_loops:bool ->
    src:int ->
    dst:int ->
    Port_model.outcome;
      (** Simulates one message through the fixed-port simulator over the
          scheme's forwarding tables, optionally under a fault plan (see
          {!Fault}); [~faults:None] is the healthy-network run. The two
          simulator knobs are under caller control: with
          [~record_path:false] the outcome's [path] is [[]], and with
          [~detect_loops:false] a cycling route ends when its hop budget
          runs out, or when a fault event ends it, instead of ending
          [Loop_detected]; every other field is unchanged. Prefer the {!route} and {!route_fast} helpers. *)
  table_words : int array;
      (** [table_words.(v)] = routing-table size of vertex [v], in words.
          A property of the logical tables, not of the containers that
          serve the lookups. *)
  label_words : int array;
      (** [label_words.(v)] = size of [v]'s routing label, in words. *)
  big_bytes : int;
      (** Bigarray payload bytes reachable from the instance (packed
          vicinity families and similar off-heap blocks), which
          [Obj.reachable_words] cannot see — add them explicitly when
          measuring resident footprint. [0] for schemes that keep
          everything on the OCaml heap. *)
}

val route :
  ?faults:Fault.plan -> instance -> src:int -> dst:int -> Port_model.outcome
(** [route inst ~src ~dst] simulates one message with path recording and
    loop detection on; [?faults] subjects the run to a fault plan. With
    telemetry enabled the call is timed into the ["route"] latency
    histogram. *)

val route_fast :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  instance ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** [inst.route] with the two simulator knobs as optional arguments, both
    defaulting to [true] (so with neither given it answers exactly as
    {!route}). The throughput engine runs with both off, relying on the
    simulator's hop budget. With telemetry enabled the call is timed into
    the ["route"] histogram and counts one [fast_plane_hits]. *)

val max_table_words : instance -> int

val avg_table_words : instance -> float

val max_label_words : instance -> int

(** {1 Stretch evaluation} *)

type eval = {
  samples : (float * float) array;
      (** per routed pair: (true distance, routed length); only pairs
          delivered at their destination with positive distance appear *)
  failures : int;  (** pairs that were not delivered at their destination *)
  header_words_peak : int;
}

val sample_pairs : seed:int -> n:int -> count:int -> (int * int) list
(** [sample_pairs ~seed ~n ~count] draws [count] ordered pairs of distinct
    vertices (all [n (n-1)] pairs if [count] is at least that many).
    Sparse draws use rejection sampling; above a 50% fill ratio the
    function switches to enumerating all pairs and taking a partial
    Fisher–Yates prefix, so dense requests (e.g. [count = all - 1])
    terminate in O(n^2) instead of coupon-collector time. *)

val evaluate : instance -> Apsp.t -> (int * int) list -> eval
(** Routes every pair through the simulator and records (distance, length). *)

val evaluate_under_faults :
  ?faults:Fault.plan -> instance -> Apsp.t -> (int * int) list -> eval
(** [evaluate] with every message routed under the given fault plan. Pairs
    the plan renders undeliverable count as failures; distances are still
    measured on the healthy graph, so sample stretches quantify the cost of
    degradation. *)

val evaluate_batch :
  ?pool:Pool.t ->
  ?faults:Fault.plan ->
  ?fast:bool ->
  ?verdicts:int array ->
  instance ->
  Apsp.t ->
  (int * int) list ->
  eval
(** The parallel batched query engine: shards the pair list across the
    domain pool (default {!Pool.default}), routes each pair independently
    into its own slot, and merges the slots in pair order — so the eval is
    bit-identical to the serial {!evaluate} over the same router regardless
    of domain count or scheduling. With [~fast:true] (the default) pairs
    route with path recording and loop detection off, each counting one
    [fast_plane_hits] when telemetry is on; [~fast:false] routes with both
    on, exactly as {!evaluate} does, and then the result is bit-identical
    to {!evaluate_under_faults} unconditionally.

    With telemetry enabled each routed pair is timed into the ["route"]
    histogram and counted on the worker domain's own shard;
    {!Telemetry.totals} merges the shards, so the merged counters equal a
    serial run's regardless of domain count. Telemetry never changes the
    eval.

    [?verdicts] is a caller-owned counter array indexed by
    {!Port_model.verdict_class} (length
    [Array.length Port_model.verdict_classes]): each routed pair bumps its
    verdict's slot — a pair that ends [Delivered] at the wrong vertex
    counts under ["delivered"] but is still an eval failure. The bumps
    happen during the serial pair-order merge, never on worker domains,
    and have no effect on the returned eval. *)

val evaluate_sampled :
  ?pool:Pool.t ->
  ?faults:Fault.plan ->
  ?fast:bool ->
  ?verdicts:int array ->
  instance ->
  ((int * int) * float) list ->
  eval
(** {!evaluate_batch} with the true distances supplied alongside the pairs
    instead of read from an APSP oracle — the scale-tier entry point, fed
    by {!Workload.sampled_pairs}. Identical sharding, telemetry, verdict
    accounting and pair-order merge; on the same pairs and distances the
    result is bit-identical to [evaluate_batch] over an exact oracle. *)

val concat_evals : eval list -> eval
(** Chronological concatenation: [concat_evals [e1; e2]] equals the eval
    of one sweep over the concatenated pair lists (samples keep pair
    order, failures add, header peaks max). The serve loop evaluates its
    stream in chunks and concatenates, so its per-segment evals are
    bit-identical to one {!evaluate_batch} over the segment's whole pair
    sequence. The empty list is the empty eval. *)

val eval_is_empty : eval -> bool
(** No data at all: zero samples {e and} zero failures (e.g. every sampled
    pair was disconnected, or the pair list was empty). Callers must not
    read "no data" as "guarantee holds". *)

val delivery_rate : eval -> float
(** Delivered fraction, [1.0] on an empty eval. *)

val max_stretch : eval -> float
(** Largest multiplicative stretch [length / distance] (1.0 if no samples).
    Ordered by [Float.compare], so a NaN sample can never poison the
    maximum. *)

val avg_stretch : eval -> float

val percentile_stretch : eval -> float -> float
(** [percentile_stretch e 0.99] is the 99th-percentile stretch. Sorts with
    [Float.compare] (NaN-safe total order). For several percentiles of one
    eval use {!percentiles}, which sorts the stretch array once. *)

val percentiles : eval -> float list -> float list
(** [percentiles e ps] computes the sorted stretch array once and reads
    every requested percentile from it. *)

val max_affine_excess : eval -> alpha:float -> beta:float -> float
(** Largest [length - (alpha * distance + beta)] — nonpositive iff every
    routed path satisfies the [(alpha, beta)]-stretch guarantee. *)

val within : eval -> alpha:float -> beta:float -> bool
(** No failures, {b at least one sample}, and [max_affine_excess <= 1e-9].
    An eval with no samples is never "within" a guarantee — an empty pair
    list or an all-failed run must not read as a satisfied bound. *)
