open Cr_graph

type build_key = { codec : string; seed : int; eps : float }

(* A structure of a type this library cannot name, tagged with the type
   witness that recovers it. *)
type scheme_state = State : 'a Type.Id.t * 'a -> scheme_state

type cluster = {
  members : int array;
  dists : float array;
  tree : Tree_routing.t option;
}

(* Each cache is a plain hashtable: the handle is consulted only from the
   orchestrating domain (the parallel sweeps inside the cached functions
   use their own per-domain workspaces), so no synchronization is needed. *)
type t = {
  g : Graph.t;
  spts : (int, Dijkstra.tree) Hashtbl.t;
  spt_trees : (int, Tree_routing.t) Hashtbl.t;
  vics : (int, Vicinity.t array) Hashtbl.t;
  cents : (int * int, Centers.t) Hashtbl.t;
  clusters : (int * int * int, cluster) Hashtbl.t;
  states : (int * int list, scheme_state) Hashtbl.t; (* (kind uid, key) *)
  (* Scratch for the spt and cluster miss paths: every search runs in this
     workspace and only what a memo entry keeps is copied out, so a sweep
     over all roots or all w allocates no workspace per key. Lazily
     allocated; single-owner like the handle. *)
  mutable cws : Dijkstra.workspace option;
  (* The handle's most recent catalog build (see [keep_build]): outside
     every memo table and every counter. *)
  mutable last_build : (build_key * (Snapshot.sink -> string)) option;
  mutable spt_h : int;
  mutable spt_m : int;
  mutable tree_h : int;
  mutable tree_m : int;
  mutable vic_h : int;
  mutable vic_m : int;
  mutable cent_h : int;
  mutable cent_m : int;
  mutable clus_h : int;
  mutable clus_m : int;
  mutable state_h : int;
  mutable state_m : int;
}

type stats = {
  spt_hits : int;
  spt_misses : int;
  spt_tree_hits : int;
  spt_tree_misses : int;
  vicinity_hits : int;
  vicinity_misses : int;
  centers_hits : int;
  centers_misses : int;
  cluster_hits : int;
  cluster_misses : int;
  scheme_state_hits : int;
  scheme_state_misses : int;
}

let create g =
  {
    g;
    spts = Hashtbl.create 64;
    spt_trees = Hashtbl.create 64;
    vics = Hashtbl.create 4;
    cents = Hashtbl.create 4;
    clusters = Hashtbl.create 64;
    states = Hashtbl.create 4;
    cws = None;
    last_build = None;
    spt_h = 0;
    spt_m = 0;
    tree_h = 0;
    tree_m = 0;
    vic_h = 0;
    vic_m = 0;
    cent_h = 0;
    cent_m = 0;
    clus_h = 0;
    clus_m = 0;
    state_h = 0;
    state_m = 0;
  }

let graph s = s.g

let for_graph sub g =
  match sub with
  | None -> create g
  | Some s ->
    if s.g != g then
      invalid_arg "Substrate.for_graph: handle bound to a different graph";
    s

(* Mirror every lookup into the telemetry shard so a traced campaign shows
   substrate reuse next to the routing counters. *)
let telemetry_tick ~hit =
  if Telemetry.enabled () then begin
    let c = Telemetry.counters_shard () in
    if hit then c.Telemetry.substrate_hits <- c.Telemetry.substrate_hits + 1
    else c.Telemetry.substrate_misses <- c.Telemetry.substrate_misses + 1
  end

let memo tbl key ~hit ~miss compute =
  match Hashtbl.find_opt tbl key with
  | Some v ->
    hit ();
    telemetry_tick ~hit:true;
    v
  | None ->
    miss ();
    telemetry_tick ~hit:false;
    let v = compute () in
    Hashtbl.replace tbl key v;
    v

let scratch_ws s =
  match s.cws with
  | Some ws -> ws
  | None ->
    let ws = Dijkstra.workspace (Graph.n s.g) in
    s.cws <- Some ws;
    ws

(* The borrowed tree's arrays are the workspace's, copied whole: a copy of
   a reset-by-touched workspace array is exactly the fresh array
   [Dijkstra.spt] would return. [order] is already fresh. *)
let spt s v =
  memo s.spts v
    ~hit:(fun () -> s.spt_h <- s.spt_h + 1)
    ~miss:(fun () -> s.spt_m <- s.spt_m + 1)
    (fun () ->
      Dijkstra.with_spt (scratch_ws s) s.g v (fun t ->
          {
            t with
            Dijkstra.dist = Array.copy t.Dijkstra.dist;
            parent = Array.copy t.parent;
            parent_port = Array.copy t.parent_port;
            first_port = Array.copy t.first_port;
          }))

let spt_tree s v =
  memo s.spt_trees v
    ~hit:(fun () -> s.tree_h <- s.tree_h + 1)
    ~miss:(fun () -> s.tree_m <- s.tree_m + 1)
    (fun () -> Tree_routing.of_tree s.g (spt s v))

let vicinities ?pool s l =
  memo s.vics l
    ~hit:(fun () -> s.vic_h <- s.vic_h + 1)
    ~miss:(fun () -> s.vic_m <- s.vic_m + 1)
    (fun () -> Vicinity.compute_all ?pool s.g l)

let centers s ~seed ~target =
  memo s.cents (seed, target)
    ~hit:(fun () -> s.cent_h <- s.cent_h + 1)
    ~miss:(fun () -> s.cent_m <- s.cent_m + 1)
    (fun () -> Centers.sample ~seed s.g ~target)

(* One restricted search in the scratch workspace yields the whole
   record, and the record keeps O(|C_A(w)|) words: the fresh [order], the
   member distances copied out of the borrowed n-sized [dist], and the
   compact [Tree_routing.t] ([of_tree] copies what it keeps). So a sweep
   over all w retains the total cluster mass, not n words per key. *)
let cluster s ~seed ~target w =
  memo s.clusters (seed, target, w)
    ~hit:(fun () -> s.clus_h <- s.clus_h + 1)
    ~miss:(fun () -> s.clus_m <- s.clus_m + 1)
    (fun () ->
      let cd = centers s ~seed ~target in
      Dijkstra.with_restricted (scratch_ws s) s.g w ~limit:cd.Centers.dist_to_a
        (fun c ->
          let members = c.Dijkstra.order in
          {
            members;
            dists = Array.map (fun v -> c.Dijkstra.dist.(v)) members;
            tree =
              (if Array.length members = 0 then None
               else Some (Tree_routing.of_tree s.g c));
          }))

(* Consing in decreasing w leaves each bunch in increasing w. *)
let bunches s ~seed ~target =
  let n = Graph.n s.g in
  let acc = Array.make n [] in
  for w = n - 1 downto 0 do
    Array.iter
      (fun v -> acc.(v) <- w :: acc.(v))
      (cluster s ~seed ~target w).members
  done;
  Array.map Array.of_list acc

(* The kinds are told apart by their witnesses' uids, so a found entry's
   witness is the asked one: the equality check cannot fail. *)
let scheme_state (type a) s (id : a Type.Id.t) key (build : unit -> a) : a =
  let (State (id', v)) =
    memo s.states (Type.Id.uid id, key)
      ~hit:(fun () -> s.state_h <- s.state_h + 1)
      ~miss:(fun () -> s.state_m <- s.state_m + 1)
      (fun () -> State (id, build ()))
  in
  match Type.Id.provably_equal id id' with
  | Some Type.Equal -> v
  | None -> assert false

(* --- the last build -------------------------------------------------------

   One slot, not a table: a caller that saves after building saves each
   entry right after its build, and a table would pin every state built
   on the handle and never saved. Eps compares by its bits, as the
   snapshot header stores it. *)

let same_build a b =
  String.equal a.codec b.codec
  && a.seed = b.seed
  && Int64.equal (Int64.bits_of_float a.eps) (Int64.bits_of_float b.eps)

let keep_build s key freeze = s.last_build <- Some (key, freeze)

let drop_build s = s.last_build <- None

let take_build s key =
  match s.last_build with
  | Some (k, freeze) when same_build k key ->
    s.last_build <- None;
    Some freeze
  | _ -> None

(* --- delta invalidation -------------------------------------------------

   Dirty-region repair after a topology delta: every cached structure is
   kept unless the delta provably can touch it.

   - A full SPT survives iff [Delta.spt_affected] says its distances and
     parents are bit-identical on the new graph; survivors get their port
     labels re-derived ([Delta.patch_tree]) when the batch renumbered any
     ports. The derived [Tree_routing] is then re-extracted from the kept
     tree (structural, O(n)) instead of re-running Dijkstra.
   - A vicinity of [u] survives unless some delta edge is tight for it,
     judged from its own stored distances ([Delta.ball_affected] with bound
     [max_dist], or unbounded when the vicinity swallowed its whole
     component). A dropped vicinity is recomputed in one workspace per
     family; a surviving vicinity whose source had ports renumbered gets
     its first-hop ports remapped. The family is rewritten in a copy of
     its blocks ([Vicinity.update]), so it stays one family and a repaired
     instance freezes to a fresh build's bytes.
   - Center samples (and the cluster records derived from them) are
     dropped on any distance-relevant delta: the sampling
     refinement loop consumes seeded random coins conditioned on cluster
     sizes, so there is no sound reuse argument short of re-running it.
   - Scheme states are dropped on every delta: they are built on a center
     sample, and they hold the graph they were built on.

   An equal-weight-only batch (no distance and no port can change) carries
   every other cache across verbatim. *)

type invalidation = {
  spt_reused : int;
  spt_dropped : int;
  spt_tree_reused : int;
  spt_tree_dropped : int;
  vicinity_reused : int;
  vicinity_dropped : int;
  centers_dropped : int;
  cluster_dropped : int;
  scheme_state_dropped : int;
}

let reused inv = inv.spt_reused + inv.spt_tree_reused + inv.vicinity_reused

let dropped inv =
  inv.spt_dropped + inv.spt_tree_dropped + inv.vicinity_dropped
  + inv.centers_dropped + inv.cluster_dropped + inv.scheme_state_dropped

let invalidation_rows inv =
  [
    ("spt", inv.spt_reused, inv.spt_dropped);
    ("spt-tree", inv.spt_tree_reused, inv.spt_tree_dropped);
    ("vicinity", inv.vicinity_reused, inv.vicinity_dropped);
    ("centers", 0, inv.centers_dropped);
    ("cluster", 0, inv.cluster_dropped);
    ("scheme-state", 0, inv.scheme_state_dropped);
  ]

let invalidate s ops =
  (* The source handle's last build is of the old graph, and a caller may
     keep that handle alive for a while: release it. The new handle starts
     with an empty slot. *)
  drop_build s;
  let d = Delta.classify s.g ops in
  let g' = Delta.new_graph d in
  let s' = create g' in
  let inv =
    if Delta.is_empty d then begin
      (* Nothing observable changed: carry every cache across. *)
      Hashtbl.iter (Hashtbl.replace s'.spts) s.spts;
      Hashtbl.iter (Hashtbl.replace s'.spt_trees) s.spt_trees;
      Hashtbl.iter (Hashtbl.replace s'.vics) s.vics;
      Hashtbl.iter (Hashtbl.replace s'.cents) s.cents;
      Hashtbl.iter (Hashtbl.replace s'.clusters) s.clusters;
      {
        spt_reused = Hashtbl.length s.spts;
        spt_dropped = 0;
        spt_tree_reused = Hashtbl.length s.spt_trees;
        spt_tree_dropped = 0;
        vicinity_reused =
          Hashtbl.fold (fun _ a acc -> acc + Array.length a) s.vics 0;
        vicinity_dropped = 0;
        centers_dropped = 0;
        cluster_dropped = 0;
        scheme_state_dropped = Hashtbl.length s.states;
      }
    end
    else begin
      let structural = Delta.structural d in
      let spt_reused = ref 0 and spt_dropped = ref 0 in
      Hashtbl.iter
        (fun root tr ->
          if Delta.spt_affected d tr then incr spt_dropped
          else begin
            Hashtbl.replace s'.spts root
              (if structural then Delta.patch_tree g' tr else tr);
            incr spt_reused
          end)
        s.spts;
      let tree_reused = ref 0 and tree_dropped = ref 0 in
      Hashtbl.iter
        (fun root tt ->
          match Hashtbl.find_opt s'.spts root with
          | Some tr' ->
            Hashtbl.replace s'.spt_trees root
              (if structural then Tree_routing.of_tree g' tr' else tt);
            incr tree_reused
          | None -> incr tree_dropped)
        s.spt_trees;
      let vic_reused = ref 0 and vic_dropped = ref 0 in
      Hashtbl.iter
        (fun l arr ->
          Hashtbl.replace s'.vics l
            (Vicinity.update g' l arr (fun vic ->
                 let u = Vicinity.source vic in
                 let bound =
                   if Vicinity.size vic < l then infinity
                   else Vicinity.max_dist vic
                 in
                 if
                   Delta.ball_affected d
                     ~dist:(Vicinity.dist_or_infinity vic) ~bound
                 then begin
                   incr vic_dropped;
                   Vicinity.Recompute
                 end
                 else begin
                   incr vic_reused;
                   if structural && Delta.ports_shifted d u then
                     Vicinity.Remap
                       (fun p ->
                         match Graph.port_to g' u (Graph.endpoint s.g u p) with
                         | Some q -> q
                         | None -> assert false)
                   else Vicinity.Keep
                 end)))
        s.vics;
      {
        spt_reused = !spt_reused;
        spt_dropped = !spt_dropped;
        spt_tree_reused = !tree_reused;
        spt_tree_dropped = !tree_dropped;
        vicinity_reused = !vic_reused;
        vicinity_dropped = !vic_dropped;
        centers_dropped = Hashtbl.length s.cents;
        cluster_dropped = Hashtbl.length s.clusters;
        scheme_state_dropped = Hashtbl.length s.states;
      }
    end
  in
  if Telemetry.enabled () then begin
    let c = Telemetry.counters_shard () in
    c.Telemetry.substrate_reused_after_delta <-
      c.Telemetry.substrate_reused_after_delta + reused inv;
    c.Telemetry.substrate_dropped_after_delta <-
      c.Telemetry.substrate_dropped_after_delta + dropped inv
  end;
  (s', inv)

let stats s =
  {
    spt_hits = s.spt_h;
    spt_misses = s.spt_m;
    spt_tree_hits = s.tree_h;
    spt_tree_misses = s.tree_m;
    vicinity_hits = s.vic_h;
    vicinity_misses = s.vic_m;
    centers_hits = s.cent_h;
    centers_misses = s.cent_m;
    cluster_hits = s.clus_h;
    cluster_misses = s.clus_m;
    scheme_state_hits = s.state_h;
    scheme_state_misses = s.state_m;
  }

let hits st =
  st.spt_hits + st.spt_tree_hits + st.vicinity_hits + st.centers_hits
  + st.cluster_hits + st.scheme_state_hits

let misses st =
  st.spt_misses + st.spt_tree_misses + st.vicinity_misses + st.centers_misses
  + st.cluster_misses + st.scheme_state_misses

let stats_rows st =
  [
    ("spt", st.spt_hits, st.spt_misses);
    ("spt-tree", st.spt_tree_hits, st.spt_tree_misses);
    ("vicinity", st.vicinity_hits, st.vicinity_misses);
    ("centers", st.centers_hits, st.centers_misses);
    ("cluster", st.cluster_hits, st.cluster_misses);
    ("scheme-state", st.scheme_state_hits, st.scheme_state_misses);
  ]
