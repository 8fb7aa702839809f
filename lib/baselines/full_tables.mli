open Cr_graph
open Cr_routing

(** The trivial stretch-1 baseline: every vertex stores the next-hop port of
    a shortest path toward every destination ([Theta(n)] words per vertex).
    Anchors the space axis of the Table 1 reproduction. *)

type t

val preprocess : ?substrate:Substrate.t -> Graph.t -> t
(** @raise Invalid_argument if the graph is disconnected. [substrate]
    shares the [n] shortest-path trees with other constructions on the
    same handle. *)

val route :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  t ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** One message through the port matrix; the simulator knobs default on
    (see {!Port_model.run}). *)

val instance : t -> Scheme.instance

val stretch_bound : t -> float * float
(** [(1, 0)] — routing is exact. *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle dropped: the next-hop port matrix. *)

val freeze : Snapshot.sink -> t -> frozen

val thaw : Snapshot.source -> graph:Graph.t -> frozen -> t
