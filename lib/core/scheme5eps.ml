open Cr_graph
open Cr_routing

(* Cluster trees: the eager store keeps every nonempty C_A(w) tree; the
   lazy store builds a tree on first use (restricted Dijkstra in a private
   workspace) and keeps at most [tcap] under FIFO eviction. The cache sits
   behind a mutex because [Scheme.evaluate_batch] routes on pool worker
   domains; the trees themselves are deterministic functions of the graph
   and the center sample, so cache state never changes a decision. *)
type lazy_trees = {
  tmutex : Mutex.t;
  tcache : (int, Tree_routing.t option) Hashtbl.t;
  torder : int Queue.t;
  mutable tcap : int;
  tws : Dijkstra.workspace;
}

type 'lt trees =
  | Trees_eager of Tree_routing.t Compiled.Table.t
  | Trees_lazy of 'lt

let lazy_tree_cap = 4096

(* An empty lazy store; preprocess and thaw both start from one. *)
let lazy_trees ~n =
  {
    tmutex = Mutex.create ();
    tcache = Hashtbl.create (2 * lazy_tree_cap);
    torder = Queue.create ();
    tcap = lazy_tree_cap;
    tws = Dijkstra.workspace n;
  }

(* Color representatives: the dense table is Theta(n * q) words; the lazy
   variant re-runs the same [Vicinity.nearest_of] scan on demand, so the
   chosen representative is identical by construction. *)
type reps =
  | Reps_dense of (int * float) array array
  | Reps_lazy

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities, lazy tree cache, Lemma 8 state), live in [t], frozen in
   [frozen]. *)
type ('g, 'v, 'lt, 'l) state = {
  graph : 'g;
  eps : float;
  vic : 'v;
  centers : Centers.t;
  trees : 'lt trees;
  coloring : Coloring.t;
  reps : reps;
  group_of : int array;        (* alpha(a) for a in A: index of its W-part *)
  lemma8 : 'l;
  first_edge : int array;      (* z on the first edge (p_A(v), z) toward v; -1 for v in A *)
  table_words : int array;
  label_words : int array;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, lazy_trees, Seq_routing2.t) state

(* Label of v: (v, p_A(v), alpha(p_A(v)), z) with (p_A(v), z) the first edge
   on a shortest path from p_A(v) to v (absent when v in A). *)
type label = { vertex : int; p_a : int; group : int; z : int }

type phase =
  | Direct
  | Seek_rep of int
  | Lemma8 of Seq_routing2.header
  | To_z                               (* at p_A(v), hop the stored edge *)
  | Cluster_tree of int * Tree_routing.label
      (* riding T_{C_A(root)}; used both for the source's own cluster and
         for the final cluster behind the stored first edge *)

type header = { lbl : label; phase : phase }

let stretch_bound t = ((5.0 +. (3.0 *. t.eps)), 0.0)

let space_breakdown t = t.breakdown

let label_of t v =
  let p_a = t.centers.Centers.p_a.(v) in
  { vertex = v; p_a; group = t.group_of.(p_a); z = t.first_edge.(v) }

(* The cluster tree of C_A(root), from whichever store is active. The lazy
   miss path runs the restricted search of [Substrate.cluster] in the
   scheme's own mutex-guarded workspace: the substrate handle is
   single-owner by contract and must not be touched from routing. *)
let cluster_tree_at t root =
  match t.trees with
  | Trees_eager tbl -> Compiled.Table.find_opt tbl root
  | Trees_lazy lt ->
    Mutex.protect lt.tmutex (fun () ->
        match Hashtbl.find_opt lt.tcache root with
        | Some tr -> tr
        | None ->
          let tr =
            Dijkstra.with_restricted lt.tws t.graph root
              ~limit:t.centers.Centers.dist_to_a (fun c ->
                if Array.length c.Dijkstra.order = 0 then None
                else Some (Tree_routing.of_tree t.graph c))
          in
          if Queue.length lt.torder >= lt.tcap then
            Hashtbl.remove lt.tcache (Queue.pop lt.torder);
          Hashtbl.replace lt.tcache root tr;
          Queue.push root lt.torder;
          tr)

let rep_of t u color =
  match t.reps with
  | Reps_dense r -> fst r.(u).(color)
  | Reps_lazy -> (
    match
      Vicinity.nearest_of t.vic.(u) (fun w ->
          t.coloring.Coloring.color.(w) = color)
    with
    | Some w -> w
    | None -> invalid_arg "Scheme5eps: vicinity misses a color")

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ?center_target
    ?(mode = `Auto) ~seed g =
  Scheme_util.require_connected g "Scheme5eps.preprocess";
  let n = Graph.n g in
  let mode = Scheme_util.resolve_mode mode n in
  Scheme_util.Log.debug (fun m ->
      m "Scheme5eps: n=%d eps=%g mode=%s" n eps
        (match mode with `Eager -> "eager" | `Lazy -> "lazy"));
  let sub = Substrate.for_graph substrate g in
  let q = Scheme_util.root_exp n (1.0 /. 3.0) in
  let l = Scheme_util.vicinity_size ~n ~q ~factor:vicinity_factor in
  let vic = Substrate.vicinities sub l in
  let target =
    match center_target with
    | Some s -> s
    | None -> Scheme_util.root_exp n (2.0 /. 3.0)
  in
  let centers = Substrate.centers sub ~seed ~target in
  let trees =
    match mode with
    | `Lazy -> Trees_lazy (lazy_trees ~n)
    | `Eager ->
      let tbl = Hashtbl.create (2 * n) in
      for w = 0 to n - 1 do
        match (Substrate.cluster sub ~seed ~target w).tree with
        | None -> ()
        | Some tr -> Hashtbl.replace tbl w tr
      done;
      Trees_eager (Compiled.Table.of_hashtbl tbl)
  in
  (* First edge (p_A(v), z) on a shortest path from each center toward v,
     read off the multi-source forest: [fparent] chains from v reach
     p_A(v) along a shortest path, and every vertex on the chain shares
     the same nearest center, so one memoized climb labels the whole
     chain with the forest child of the center. *)
  let first_edge = Array.make n (-1) in
  let fp = centers.Centers.fparent and p_a = centers.Centers.p_a in
  let chain = ref [] in
  for v0 = 0 to n - 1 do
    if p_a.(v0) >= 0 && p_a.(v0) <> v0 && first_edge.(v0) < 0 then begin
      let x = ref v0 in
      while first_edge.(!x) < 0 && fp.(!x) <> p_a.(!x) do
        chain := !x :: !chain;
        x := fp.(!x)
      done;
      let z = if first_edge.(!x) >= 0 then first_edge.(!x) else !x in
      first_edge.(!x) <- z;
      List.iter (fun y -> first_edge.(y) <- z) !chain;
      chain := []
    end
  done;
  (* Coloring, representatives, the W partition of A, Lemma 8. *)
  let coloring = Scheme_util.color_vicinities ~seed g vic ~colors:q in
  let reps =
    match mode with
    | `Eager -> Reps_dense (Scheme_util.color_reps vic coloring)
    | `Lazy -> Reps_lazy
  in
  let group_of = Array.make n (-1) in
  let groups = Array.make q [] in
  Array.iteri
    (fun i a ->
      group_of.(a) <- i mod q;
      groups.(i mod q) <- a :: groups.(i mod q))
    centers.Centers.centers;
  let dests = Array.map Array.of_list groups in
  let lemma8 =
    Seq_routing2.preprocess ~substrate:sub ~eps ~mode
      g ~vicinities:vic ~parts:coloring.classes ~part_of:coloring.color ~dests
  in
  (* Table accounting: Lemma 8 (vicinities + sequences) + cluster-tree
     records and member labels + color reps. The lazy store counts only
     what is resident — the embedded Lemma 8 vicinity entries — since
     cluster labels and reps are re-derived on demand. *)
  let table_words, breakdown =
    match mode with
    | `Lazy ->
      ( Array.copy (Seq_routing2.table_words lemma8),
        Seq_routing2.breakdown lemma8
        @ [
            ("cluster-tree-records", 0);
            ("cluster-member-labels", 0);
            ("color-reps", 0);
          ] )
    | `Eager ->
      let bunches = Substrate.bunches sub ~seed ~target in
      let dense_reps =
        match reps with Reps_dense r -> r | Reps_lazy -> assert false
      in
      let tree_tbl =
        match trees with Trees_eager tbl -> tbl | Trees_lazy _ -> assert false
      in
      let table_words = Array.make n 0 in
      let tot_cluster = ref 0 and tot_own = ref 0 and tot_reps = ref 0 in
      for u = 0 to n - 1 do
        let cluster_records = 7 * Array.length bunches.(u) in
        let own_labels =
          match Compiled.Table.find_opt tree_tbl u with
          | None -> 0
          | Some tr ->
            Array.fold_left
              (fun acc v ->
                acc + 1 + Tree_routing.label_words (Tree_routing.label tr v))
              0 (Tree_routing.members tr)
        in
        tot_cluster := !tot_cluster + cluster_records;
        tot_own := !tot_own + own_labels;
        tot_reps := !tot_reps + (2 * Array.length dense_reps.(u));
        table_words.(u) <-
          (Seq_routing2.table_words lemma8).(u)
          + cluster_records + own_labels
          + (2 * Array.length dense_reps.(u))
      done;
      ( table_words,
        Seq_routing2.breakdown lemma8
        @ [
            ("cluster-tree-records", !tot_cluster);
            ("cluster-member-labels", !tot_own);
            ("color-reps", !tot_reps);
          ] )
  in
  let label_words = Array.make n 4 in
  {
    graph = g;
    eps;
    vic;
    centers;
    trees;
    coloring;
    reps;
    group_of;
    lemma8;
    first_edge;
    table_words;
    label_words;
    breakdown;
  }

let header_words h =
  4
  + (match h.phase with
    | Direct | To_z -> 0
    | Seek_rep _ -> 1
    | Cluster_tree (_, lbl) -> 1 + Tree_routing.label_words lbl
    | Lemma8 ih -> Seq_routing2.header_words ih)

(* The label fetch at z: z stores (logically) the cluster-tree label of
   every member of C_A(z); both stores answer via [Tree_routing.label],
   which is a precomputed per-member read. *)
let member_label t root dst =
  match cluster_tree_at t root with
  | Some tr -> Tree_routing.label tr dst
  | None -> raise Not_found

let rec step t ~at h =
  let dst = h.lbl.vertex in
  match h.phase with
  | Direct ->
    if at = dst then Port_model.Deliver
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst, h)
  | Cluster_tree (root, lbl) -> (
    let tree =
      match cluster_tree_at t root with
      | Some tr -> tr
      | None -> raise Not_found
    in
    match Tree_routing.step tree ~at lbl with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))
  | Seek_rep w ->
    if at = w then
      if w = h.lbl.p_a then
        (* The representative happens to be the destination's center. *)
        if at = dst then Port_model.Deliver else step t ~at { h with phase = To_z }
      else
        step t ~at
          { h with
            phase = Lemma8 (Seq_routing2.initial_header t.lemma8 ~src:w ~dst:h.lbl.p_a)
          }
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Lemma8 ih -> (
    match Seq_routing2.step t.lemma8 ~at ih with
    | Port_model.Deliver ->
      (* Arrived at p_A(v). *)
      if at = dst then Port_model.Deliver else step t ~at { h with phase = To_z }
    | Port_model.Forward (p, ih') ->
      Port_model.Forward (p, { h with phase = Lemma8 ih' }))
  | To_z ->
    if at = h.lbl.z then
      step t ~at { h with phase = Cluster_tree (at, member_label t at dst) }
    else begin
      match Graph.port_to t.graph at h.lbl.z with
      | Some p -> Port_model.Forward (p, h)
      | None -> invalid_arg "Scheme5eps.step: stored first edge missing"
    end

let initial_header t ~src lbl =
  let v = lbl.vertex in
  if Vicinity.mem t.vic.(src) v then { lbl; phase = Direct }
  else
    match cluster_tree_at t src with
    | Some tr when Tree_routing.mem tr v ->
      { lbl; phase = Cluster_tree (src, Tree_routing.label tr v) }
    | _ -> { lbl; phase = Seek_rep (rep_of t src lbl.group) }

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  let lbl = label_of t dst in
  if src = dst then
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:{ lbl; phase = Direct }
      ~step:(fun ~at:_ _ -> Port_model.Deliver)
      ~header_words
  else
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:(initial_header t ~src lbl)
      ~step:(fun ~at h -> step t ~at h)
      ~header_words

let instance t =
  {
    Scheme.name = "roditty-tov-5eps";
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = t.label_words;
    big_bytes = Vicinity.payload_bytes t.vic;
  }

(* --- snapshot form ------------------------------------------------------ *)

(* Lazy cluster trees carry no state worth freezing: a miss re-derives the
   tree from the graph and the center distances at call time, so the thawed
   store simply starts with an empty cache — decisions are unchanged. *)
type frozen = (unit, Vicinity.frozen, unit, Seq_routing2.frozen) state

let freeze sink t =
  { t with graph = (); vic = Vicinity.freeze sink t.vic;
    trees =
      (match t.trees with
      | Trees_eager tbl -> Trees_eager tbl
      | Trees_lazy _ -> Trees_lazy ());
    lemma8 = Seq_routing2.freeze t.lemma8 }

let thaw src ~graph z =
  let vic = Vicinity.thaw src z.vic in
  { z with graph; vic;
    trees =
      (match z.trees with
      | Trees_eager tbl -> Trees_eager tbl
      | Trees_lazy () -> Trees_lazy (lazy_trees ~n:(Graph.n graph)));
    lemma8 = Seq_routing2.thaw ~graph ~vicinities:vic z.lemma8 }

module For_testing = struct
  let set_caps t ~pairs ~trees ~cluster_trees =
    if cluster_trees < 1 then invalid_arg "Scheme5eps.set_caps";
    Seq_routing2.For_testing.set_caps t.lemma8 ~pairs ~trees;
    match t.trees with
    | Trees_eager _ -> ()
    | Trees_lazy lt ->
      Mutex.protect lt.tmutex (fun () -> lt.tcap <- cluster_trees)
end
