(** Telemetry: per-hop tracing, route counters and latency histograms for
    the whole routing stack.

    The layer has three faces, all behind one global enable flag:

    - {b Counters} — process-wide totals (simulator runs, hops, table
      lookups, bounces, detour entries, throughput-mode routes, ...). Each
      domain increments its own {e shard} (domain-local storage), and
      {!totals} merges the shards, so the parallel batched query engine
      needs no synchronization on the hot path and a batched campaign
      reports exactly the same totals as a serial one.
    - {b Histograms} — log-bucketed (HDR-style, powers-of-[sqrt 2])
      latency histograms around route and preprocessing calls, with
      p50/p90/p99/max readout. Also sharded per domain.
    - {b Trace events} — an optional per-hop event stream (vertex, port,
      header size, bounce/drop/corrupt/retry/detour), recorded only
      while a {!with_trace} collector is installed. This is what powers
      [cr_cli trace]'s hop-by-hop narration.

    {b Zero cost when disabled.} Every instrumentation point in the stack
    is guarded by [if !Telemetry.on then ...]: with the flag off (the
    default unless [CR_TRACE] is set in the environment) a hop pays one
    boolean test and allocates nothing. The bench's [[telemetry]] section
    measures this and fails if the disabled-mode overhead on the
    throughput workload exceeds 5%.

    {b Identity.} Telemetry observes; it never steers. Routing outcomes —
    verdicts, paths, lengths, stretch — are bit-identical with the layer
    on or off ([test_telemetry.ml] pins this across the catalog, with the
    simulator knobs on and off, with and without faults). *)

val on : bool ref
(** The hot-path guard. Instrumentation points read it; everything else
    should go through {!set_enabled}. Initialized from the [CR_TRACE]
    environment variable ([unset], [""] or ["0"] = disabled). Toggle only
    from the main domain while no parallel sweep is in flight — workers
    read the flag they observed at spawn time. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

(** {1 Counters} *)

(** One shard of the process-wide counters. All fields are cumulative
    event counts since the last {!reset}. *)
type counters = {
  mutable routes : int;
      (** simulator runs ([Port_model.run] invocations; a resilient
          recovery ladder counts each of its segments) *)
  mutable hops : int;  (** edges traversed *)
  mutable table_lookups : int;  (** step-function (local table) consultations *)
  mutable bounces : int;  (** dead ports refused at a sender *)
  mutable detour_entries : int;  (** resilience DFS detours entered *)
  mutable fast_plane_hits : int;
      (** routes run with both simulator knobs off: one per
          [Scheme.route_fast] call and per pair of
          [Scheme.evaluate_batch ~fast:true] *)
  mutable delivered : int;  (** runs that ended [Delivered] *)
  mutable dropped : int;  (** messages lost to a fault [Drop] event *)
  mutable corrupted : int;  (** headers garbled by a fault [Corrupt] event *)
  mutable retries : int;  (** resilience escape-hop retransmissions *)
  mutable substrate_hits : int;
      (** preprocessing-substrate cache lookups served from memory *)
  mutable substrate_misses : int;
      (** preprocessing-substrate cache lookups that computed fresh *)
  mutable substrate_reused_after_delta : int;
      (** cached structures carried across a topology delta by
          [Substrate.invalidate] *)
  mutable substrate_dropped_after_delta : int;
      (** cached structures discarded by [Substrate.invalidate] because the
          delta could change them *)
  mutable lazy_seq_hits : int;
      (** lazy Lemma 7/8 sequences served from the pair cache *)
  mutable lazy_seq_misses : int;
      (** lazy Lemma 7/8 sequences built on a pair-cache miss *)
  mutable lazy_tree_builds : int;
      (** destination shortest-path trees the lazy Lemma 8 store computed
          (one Dijkstra each); at most one per destination until the tree
          cache evicts *)
}

val counters_shard : unit -> counters
(** This domain's shard (created and registered on first use). Mutate only
    under [!on]; never share across domains. *)

val null_counters : counters
(** A dummy shard for the disabled path: lets hot loops bind a shard
    unconditionally without touching domain-local storage. Never read. *)

val totals : unit -> counters
(** Fresh merged copy (field-wise sum) of every shard ever registered,
    including shards of worker domains that have since terminated. *)

val counter_rows : counters -> (string * int) list
(** Stable [(name, value)] listing, in declaration order — the CLI and
    the exporters render from this. *)

(** {1 Histograms} *)

module Histogram : sig
  (** Log-bucketed latency histogram: bucket [k] spans
      [[base * r^k, base * r^(k+1))] with [r = sqrt 2] and [base] = 1ns,
      so every bucket's relative width is under 42% and the percentile
      readout is exact to within one bucket (HDR-histogram style).
      Values are in seconds. *)

  type t

  val create : unit -> t

  val record : t -> float -> unit
  (** Non-finite and sub-[base] values clamp into the extreme buckets;
      the exact maximum is tracked separately. *)

  val count : t -> int

  val mean : t -> float
  (** Exact mean of recorded values (0 when empty). *)

  val max_value : t -> float
  (** Exact maximum (0 when empty). *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 1]: the upper bound of the first
      bucket whose cumulative count reaches [p * count] — an upper bound
      on the true percentile, tight to one bucket. [p >= 1] returns the
      exact {!max_value}. 0 when empty. *)

  val merge_into : into:t -> t -> unit
  (** Bucket-wise sum; count/sum/max combine exactly. *)

  val bucket_of : float -> int
  (** Bucket index a value lands in (exposed for the unit pins). *)

  val bucket_bounds : int -> float * float
  (** [(lo, hi)] of a bucket, in seconds. *)

  val nonempty_buckets : t -> (int * int) list
  (** [(bucket index, count)] for every occupied bucket, ascending. *)
end

(** {1 Windowed snapshots} *)

module Snapshot : sig
  (** Frozen view of the merged counters and histograms, for steady-state
      window reporting: capture one snapshot per window boundary and
      {!since} two captures to get that window's counters and latency
      histograms in isolation. The serve loop ([cr_cli serve]) prints one
      line per window from these. *)

  type t

  val capture : unit -> t
  (** Merge every shard right now and freeze the result (with a wall-clock
      stamp). Cheap enough to call once per reporting window; not meant
      for per-route use. *)

  val at : t -> float
  (** Wall-clock capture time ({!now} units). *)

  val since : earlier:t -> t -> t
  (** [since ~earlier later] is the window between the two captures:
      counters and histogram buckets are cumulative, so the delta is exact
      field-wise / bucket-wise. The one caveat: a window histogram's
      {!Histogram.max_value} is the max up to the {e later} capture (the
      exact max is not differentiable); percentiles are window-exact. *)

  val span : earlier:t -> t -> float
  (** Seconds between the two captures. *)

  val counters : t -> counters

  val histogram : t -> string -> Histogram.t option
end

val record_span : string -> float -> unit
(** [record_span name seconds] records into this domain's shard of the
    named histogram (created on first use). No-op when disabled. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed name f] runs [f] and records its wall time into the named
    histogram; when disabled it is exactly [f ()]. *)

val histograms : unit -> (string * Histogram.t) list
(** Merged named histograms across all shards, sorted by name. *)

val now : unit -> float
(** Wall clock in seconds ([Unix.gettimeofday]). *)

(** {1 Trace events} *)

type kind =
  | Hop  (** a forward: the message crossed [port] *)
  | Deliver  (** the step function delivered at [at] *)
  | Bounce  (** [port] refused locally (failed link / crashed neighbor) *)
  | Drop  (** the message was lost in flight on [port] *)
  | Corrupt  (** the header was garbled crossing [port] *)
  | Retry  (** resilience: escape-hop retransmission from [at] *)
  | Detour  (** resilience: DFS detour entered at [at] *)
  | End of string  (** run ended; payload is [Port_model.verdict_name] *)

type event = {
  kind : kind;
  at : int;  (** vertex holding the message *)
  port : int;  (** port involved, [-1] when not applicable *)
  header_words : int;
}

val tracing : unit -> bool
(** Is a {!with_trace} collector installed? Hot loops read this once per
    run and skip event construction entirely when it is off. *)

val emit : kind -> at:int -> port:int -> words:int -> unit
(** Append an event to the installed collector; silently dropped when none is installed. Trace collection
    is single-domain: install one only around serial routing. *)

val with_trace : (unit -> 'a) -> 'a * event list
(** [with_trace f] force-enables telemetry, collects every event emitted
    during [f ()], then restores the previous enabled state. Events are
    returned oldest first. *)

(** {1 Lifecycle and export} *)

val reset : unit -> unit
(** Zero every counter shard and drop every histogram, process-wide. The
    campaign commands call this first so a dump covers exactly one run. *)

val event_to_json : event -> string
(** One JSON object (no trailing newline) for a trace event. *)

val to_jsonl : unit -> string
(** The merged counters and histograms as JSON-lines: one
    [{"type":"counter",...}] object per counter and one
    [{"type":"histogram",...}] object per histogram (with percentiles and
    occupied buckets). *)

val to_csv : unit -> string
(** Same data as one CSV table with a leading [kind] column; counter rows
    leave the histogram columns empty. *)
