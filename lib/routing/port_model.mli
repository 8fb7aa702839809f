open Cr_graph

(** The fixed-port network simulator.

    A routing scheme is exercised as a {e local step function}: at the vertex
    currently holding the message, the step function sees only that vertex's
    identity and the message header, and must either deliver or name an
    outgoing port. The simulator owns the topology: it resolves ports to
    neighbors, accumulates the traversed length, and aborts runaway routes.
    A scheme therefore cannot teleport or follow non-edges — if its local
    tables are wrong the simulated message goes astray and the tests see it.

    Every way a run can end is a structured {!verdict}; no exception escapes
    {!run} for any step function on any graph. An optional {!Fault.plan}
    subjects the run to link failures, vertex crashes, message drops and
    header corruption (see {!Fault}); with an empty plan the run is
    bit-identical to a fault-free one. *)

type 'h decision =
  | Deliver
  | Forward of int * 'h
      (** [Forward (port, header)]: send through [port] with a (possibly
          rewritten) header. *)

(** How a simulated run ended. *)
type verdict =
  | Delivered  (** the step function said [Deliver] at some vertex *)
  | Dropped_at of int
      (** the message was lost in flight right after this vertex transmitted
          it (a {!Fault.Drop} event, or a corruption the caller cannot
          apply) *)
  | Dead_end_at of int
      (** no progress is possible: the step function raised here, the
          header cannot be sized here, the message was sent into this
          crashed vertex, or the source itself is down *)
  | Link_down_at of int * int
      (** [(vertex, port)]: the step function insisted on a failed link and
          no bounce recovered *)
  | Hop_budget_exhausted
      (** the step function wanted another hop after [max_hops] traversals *)
  | Loop_detected of int
      (** the message revisited this vertex with a structurally identical
          header: with a deterministic step function the run could never
          terminate, so it is aborted in O(cycle) hops instead of burning
          the whole hop budget *)
  | Invalid_port of int * int
      (** [(vertex, port)]: the step function named a port the vertex does
          not have — a scheme bug, surfaced as data instead of an
          exception *)

type outcome = {
  verdict : verdict;     (** how the run ended *)
  final : int;           (** vertex where the simulation stopped *)
  path : int list;       (** vertices visited, source first *)
  length : float;        (** total weight of traversed edges *)
  hops : int;            (** number of edges traversed *)
  header_words_peak : int;  (** max header size seen, in O(log n)-bit words *)
}

val delivered : outcome -> bool
(** [delivered o] iff [o.verdict = Delivered] (possibly at the wrong
    vertex — combine with [final]). *)

val delivered_to : outcome -> int -> bool
(** [delivered_to o dst]: delivered, and at [dst]. *)

val verdict_name : verdict -> string
(** Short stable identifier, e.g. ["link-down"] — used by the CLI's exit
    diagnostics and the CSV mirrors. *)

val verdict_class : verdict -> int
(** Stable dense index of the verdict's constructor (payload dropped), in
    [[0, Array.length verdict_classes)] — the per-verdict counter slot the
    serve loop and batch engine bump. *)

val verdict_classes : string array
(** [verdict_classes.(verdict_class v) = verdict_name v] for every
    verdict: the display names of the counter slots, in index order. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Human-readable verdict with its location payload. *)

type hop_record = {
  at : int;            (** vertex holding the message *)
  port : int;          (** port it forwarded through ([-1] on deliver) *)
  header_words : int;  (** header size at this hop *)
}

val run :
  Graph.t ->
  src:int ->
  header:'h ->
  step:(at:int -> 'h -> 'h decision) ->
  header_words:('h -> int) ->
  ?max_hops:int ->
  ?on_hop:(hop_record -> unit) ->
  ?faults:Fault.plan ->
  ?on_bounce:(at:int -> dead:int list -> 'h -> 'h decision option) ->
  ?corrupt:('h -> 'h) ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  unit ->
  outcome
(** [run g ~src ~header ~step ~header_words ()] injects a message at [src]
    and applies [step] until it delivers or the run ends with a non-
    [Delivered] verdict. [on_hop] observes each transmission (used by the
    CLI's trace mode).

    {b Hop budget.} A forward is refused {e before} the edge is traversed
    once [max_hops] (default [4 * n + 16]) edges have been crossed, so a run
    never exceeds its budget and a route of exactly [max_hops] hops still
    delivers.

    {b Faults.} With [?faults], each forward first consults the plan:
    - a failed link, or a crashed endpoint, is {e locally observable at the
      sender}: the message stays put and [on_bounce ~at ~dead hdr] is asked
      for an alternative, where [dead] lists the ports already refused at
      this vertex (most recent first). Returning [None] — or running out of
      ports, or having no [on_bounce] — ends the run with [Link_down_at]
      (or [Dead_end_at] when the far endpoint crashed over a healthy link);
    - a {!Fault.Drop} event loses the message in flight ([Dropped_at]);
    - a {!Fault.Corrupt} event applies [corrupt] to the in-flight header; if
      no [corrupt] is supplied the garbled message is undeliverable and
      counts as a drop.

    {b Path recording} (on by default): the path is built in order, one
    list cell (3 words) per hop. With [~record_path:false] the returned
    [path] is [[]] and nothing else changes — verdict, final vertex,
    length, hop count and header peak are identical; the throughput
    engine turns it off and relies on the hop budget.

    {b Loop detection} (on by default, disable with [~detect_loops:false]):
    the simulator keeps signatures of visited [(vertex, header)] states and
    aborts with [Loop_detected] when one repeats exactly. Headers are
    compared structurally, so a vertex may be revisited with a different
    header; a repeat is only declared when the deterministic step function
    is provably cycling. A run given a [corrupt] hook under a plan that
    corrupts ({!Fault.corrupts}) skips loop detection: the hook may rewrite
    the header at hop-dependent points, so a repeated state proves
    nothing, and the run ends as it would with [~detect_loops:false]. The
    structural hash of the header is cached while the step function
    forwards the same physical header, so long unrewritten stretches hash
    once, not once per hop.

    {b No exceptions.} An invalid port becomes [Invalid_port]. A step
    function that raises, or a header that [header_words] cannot size (it
    raised), becomes [Dead_end_at] the vertex holding the message; that
    covers a header the [corrupt] hook garbled. A raising [on_bounce] gives
    up the bounce, and a raising [corrupt] leaves the header as it was.
    Only [src] out of range is a caller bug and still raises
    [Invalid_argument]; [on_hop] observes, and what it raises propagates,
    as do [Out_of_memory] and [Stack_overflow].

    {b Allocation.} Every hook is resolved once per run, so a run
    allocates a fixed number of words for its state and its outcome, and
    with no hook present and both knobs off a hop allocates nothing in the
    simulator: a route allocates that fixed cost plus whatever [step] and
    [header_words] allocate. Per hop, [record_path] adds its list cell,
    [detect_loops] its signature entry, and [on_hop] one {!hop_record}; a
    fault plan adds its per-hop event, and a bounce its dead-port cell.

    {b Telemetry.} When {!Telemetry.on} is set the run increments this
    domain's counter shard (routes, hops, table lookups, bounces,
    drop/corrupt/deliver verdicts) and, inside {!Telemetry.with_trace},
    emits one trace event per hop, bounce, fault verdict and run end.
    Instrumentation never changes the outcome; counters allocate nothing,
    and disabled, the layer costs one boolean test per instrumentation
    point. *)
