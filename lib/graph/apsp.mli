(** All-pairs shortest distances — the reference oracle used by tests and
    benches to measure the true stretch of routed paths.

    Quadratic space: intended for the experimental sizes (n up to a few
    thousand), not as a routing substrate. *)

type t

val guard_quadratic : who:string -> int -> unit
(** [guard_quadratic ~who n] raises [Failure] when [n] exceeds the
    O(n^2)-memory size threshold (default 8192; the [CR_QUADRATIC_MAX_N]
    env var sets another). Shared by every entry point that allocates a
    full n-by-n matrix, so a million-vertex run fails fast with a clear
    message instead of OOM-ing. *)

val compute : ?caller:string -> ?pool:Parallel.t -> Graph.t -> t
(** [compute g] runs a single-source search from every vertex (BFS when the
    graph is unit-weighted, Dijkstra otherwise), fanned out over [pool]
    (default {!Parallel.default}); the result is identical to a serial
    run. @raise Failure past the {!guard_quadratic} threshold — the
    message names [caller] when given (e.g. ["rt-5eps oracle"]), so a
    guard trip says {e which} workload requested the quadratic oracle,
    not just that one did. *)

val dist : t -> int -> int -> float
(** [dist t u v] is d(u, v), or [infinity] when disconnected. *)

val diameter : t -> float
(** Largest finite pairwise distance (0 for n <= 1). *)

val normalized_diameter : t -> float
(** The paper's [D = max d(u,v) / min_{u<>v} d(u,v)] (1.0 when n <= 1). *)

val connected : t -> bool

val check_path : t -> Graph.t -> int list -> float option
(** [check_path t g p] is [Some length] if [p] is a nonempty walk along real
    edges of [g], and [None] otherwise. *)

val stretch : t -> src:int -> dst:int -> length:float -> float
(** [stretch t ~src ~dst ~length] is [length / d(src, dst)]; by convention
    1.0 when [src = dst]. @raise Invalid_argument if unreachable. *)
