open Cr_graph
open Cr_routing

(** Theorem 16: the [(4k-7+eps)]-stretch routing scheme for weighted
    graphs with [O~((1/eps) n^(1/k) log D)]-word tables — two stretch units
    below the Thorup–Zwick [(4k-5)] baseline at the same space exponent.

    Stores everything the TZ scheme stores, plus: vicinities [B(u, q~)]
    with [q = n^(1/k)], a Lemma 6 coloring with [q] colors, an arbitrary
    partition [W] of [A_(k-2)] into [q] groups, and a Lemma 8 instance from
    the color classes to the groups. Routing follows TZ while the source
    sits in the cluster of a pivot of level [<= k-2] (stretch [<= 4k-9]);
    the expensive level-[(k-1)] fallback is replaced by: chase the
    color-[alpha(p_(k-2)(v))] representative, ride Lemma 8 to [p_(k-2)(v)],
    and finish on [T(p_(k-2)(v))]. *)

type t

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?vicinity_factor:float ->
  ?a1_target:int ->
  ?mode:[ `Auto | `Eager | `Lazy ] ->
  seed:int ->
  Graph.t ->
  k:int ->
  t
(** @raise Invalid_argument if [k < 3], the graph is disconnected, or the
    coloring is infeasible. [substrate] shares vicinities and the whole
    Thorup–Zwick state (hierarchy, cluster trees, bunches, home labels)
    with other schemes on the same handle, keyed by seed, k and the A_1
    target: tz-k and rt-4km7-k on one handle build that part once.

    [mode] (default [`Auto]) picks the substrate representation: [`Eager]
    precomputes the color-representative table and every Lemma 8 sequence
    (the reference, quadratic past ~10^5); [`Lazy] re-derives
    representatives by scanning the vicinity on demand, and
    builds Lemma 8 sequences on first use. Decisions are bit-identical
    between modes. [`Auto] resolves to [`Lazy] past [CR_RT_LAZY_N]
    vertices (default 10^4). Lazy table accounting counts only resident
    entries. *)

val route :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  t ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** One message through the scheme's tables; the simulator knobs default
    on (see {!Port_model.run}). *)

val instance : t -> Scheme.instance

val stretch_bound : t -> float * float
(** The proven guarantee [(4k - 7 + (2k-3) eps, 0)]. *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle dropped and the vicinity planes (their
    payloads as {!Snapshot} blobs) and embedded sub-states frozen. *)

val freeze : Snapshot.sink -> t -> frozen

val thaw : Snapshot.source -> graph:Graph.t -> frozen -> t
(** Rebuild against the blobs of a loaded snapshot. [graph] must be the
    graph the snapshot was built on (callers validate via
    {!Snapshot.check} first). Answers are bit-identical to the frozen
    instance's. *)

(** {1 Testing} *)

module For_testing : sig
  val set_caps : t -> pairs:int -> trees:int -> unit
  (** Lowers a lazy instance's Lemma 8 pair and destination-tree cache
      caps (see {!Seq_routing2.For_testing.set_caps}). Call it before the
      first route. A no-op on an eager instance.
      @raise Invalid_argument if a cap is below 1. *)
end
