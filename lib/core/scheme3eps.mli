open Cr_graph
open Cr_routing

(** The warm-up [(3 + eps)]-stretch labeled routing scheme (Section 4).

    With [q = sqrt n]: color the graph so that every vicinity [B(u, q~)]
    contains every color (Lemma 6), run Lemma 7 inside each color class, and
    route [u -> v] either directly inside [B(u, q~)] or through the color-
    [c(v)] representative of [B(u, q~)]. Tables are
    [O~((1/eps) sqrt n)] words, labels are 2 words, and the routed path is at
    most [(3 + 2 eps) d(u, v)]. *)

type t

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?vicinity_factor:float ->
  seed:int ->
  Graph.t ->
  t
(** [preprocess ~seed g] builds the scheme. [eps] defaults to 0.5;
    [vicinity_factor] scales the vicinity size
    [l = vicinity_factor * q * log2 n] (default 1.0). [substrate] shares
    vicinity families and shortest-path trees with other schemes built on
    the same handle.
    @raise Invalid_argument if [g] is disconnected or the coloring is
    infeasible at this size. *)

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
(** The proven [(alpha, beta)] guarantee: [(3 + 2 eps, 0)]. *)

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
