open Cr_graph
open Cr_routing

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities, Lemma 7 state), live in [t] and in snapshot form in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  vic : 'v;
  centers : Centers.t;
  cluster_trees : Tree_routing.t Compiled.Table.t;
      (* w -> T_{C_A(w)}, for nonempty clusters *)
  cluster_labels : Tree_routing.label Compiled.Table.t Compiled.Table.t;
      (* w -> (v in C_A(w) -> label of v in T_{C_A(w)}), stored at w *)
  global_trees : Tree_routing.t Compiled.Table.t; (* a in A -> T(a) *)
  witness : Compiled.Intmap.t array;
      (* witness.(u) : v -> best w in B(u,q~) ∩ B_A(v) *)
  coloring : Coloring.t;
  reps : (int * float) array array;
  lemma7 : 'l;
  table_words : int array;
  label_words : int array;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, Seq_routing.t) state

(* Label of v: (v, c(v), p_A(v), d(v, p_A(v)), tree label in T(p_A(v))). *)
type label = {
  vertex : int;
  color : int;
  p_a : int;
  d_pa : float;
  tree_label : Tree_routing.label;
}

type phase =
  | Direct                                  (* vicinity route to dst *)
  | To_witness of int                       (* vicinity route to w, then cluster tree *)
  | Cluster_tree of int * Tree_routing.label
  | Global_tree                             (* ride T(p_A(dst)) using the label *)
  | Seek_rep of int                         (* vicinity route to the color rep *)
  | Lemma7 of Seq_routing.header

type header = { lbl : label; phase : phase }

let stretch_bound t = ((2.0 +. (2.0 *. t.eps)), 1.0)

let centers t = t.centers.Centers.centers

let space_breakdown t = t.breakdown

let label_of t v =
  let p_a = t.centers.Centers.p_a.(v) in
  let tree = Compiled.Table.find t.global_trees p_a in
  {
    vertex = v;
    color = t.coloring.color.(v);
    p_a;
    d_pa = t.centers.Centers.dist_to_a.(v);
    tree_label = Tree_routing.label tree v;
  }

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ?center_target
    ?(mode = `Auto) ~seed g =
  Scheme_util.require_connected g "Scheme2eps1.preprocess";
  let mode = Scheme_util.resolve_mode mode (Graph.n g) in
  Scheme_util.Log.debug (fun m ->
      m "Scheme2eps1: n=%d eps=%g mode=%s" (Graph.n g) eps
        (match mode with `Eager -> "eager" | `Lazy -> "lazy"));
  if not (Graph.is_unit_weighted g) then
    invalid_arg "Scheme2eps1.preprocess: Theorem 10 addresses unweighted graphs";
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let q = Scheme_util.root_exp n (1.0 /. 3.0) in
  let l = Scheme_util.vicinity_size ~n ~q ~factor:vicinity_factor in
  let vic = Substrate.vicinities sub l in
  let target =
    match center_target with
    | Some s -> s
    | None -> Scheme_util.root_exp n (2.0 /. 3.0)
  in
  let centers = Substrate.centers sub ~seed ~target in
  (* Cluster records, trees and the per-center label stores. *)
  let clusters = Array.init n (Substrate.cluster sub ~seed ~target) in
  let cluster_trees = Hashtbl.create (2 * n) in
  let cluster_labels = Hashtbl.create (2 * n) in
  Array.iteri
    (fun w (c : Substrate.cluster) ->
      match c.tree with
      | None -> ()
      | Some tr ->
        Hashtbl.replace cluster_trees w tr;
        let labels = Hashtbl.create (2 * Array.length c.members) in
        Array.iter
          (fun v -> Hashtbl.replace labels v (Tree_routing.label tr v))
          c.members;
        Hashtbl.replace cluster_labels w labels)
    clusters;
  (* Global trees for the centers. *)
  let global_trees = Hashtbl.create (2 * Array.length centers.Centers.centers) in
  Array.iter
    (fun a -> Hashtbl.replace global_trees a (Substrate.spt_tree sub a))
    centers.Centers.centers;
  (* Intersection witnesses: for u and each v with B(u,q~) ∩ B_A(v) <> ∅,
     the w minimizing (d(u,w) + d(w,v), w); enumerate via the clusters of
     the vicinity members. d(w,v) is the cluster search's own distance,
     aligned with the members: exact on the unit-weight graphs this theorem
     takes. *)
  let scratch = Scheme_util.Witness_scratch.create n in
  let witness =
    Array.init n (fun u ->
        Array.iter
          (fun w ->
            let duw = Vicinity.dist vic.(u) w in
            let c = clusters.(w) in
            for j = 0 to Array.length c.members - 1 do
              Scheme_util.Witness_scratch.offer scratch c.members.(j)
                ~s:(duw +. c.dists.(j)) ~w ~tag:0
            done)
          (Vicinity.members vic.(u));
        Scheme_util.Witness_scratch.flush scratch)
  in
  (* Coloring, representatives, Lemma 7 over the color classes. *)
  let coloring = Scheme_util.color_vicinities ~seed g vic ~colors:q in
  let reps = Scheme_util.color_reps vic coloring in
  (* Only the Lemma 7 sequence store goes lazy here: the witness tables
     and global trees are already the scheme's dominant cost and stay the
     reference construction (Theorem 10 is not a million-vertex target). *)
  let lemma7 =
    Seq_routing.preprocess ~substrate:sub ~eps ~mode
      g ~vicinities:vic ~parts:coloring.classes ~part_of:coloring.color
  in
  (* Table accounting. *)
  let bunches = Substrate.bunches sub ~seed ~target in
  let table_words = Array.make n 0 in
  let tot_cluster = ref 0
  and tot_own = ref 0
  and tot_global = ref 0
  and tot_witness = ref 0
  and tot_reps = ref 0 in
  for u = 0 to n - 1 do
    let cluster_records = 7 * Array.length bunches.(u) in
    let own_labels =
      match Hashtbl.find_opt cluster_labels u with
      | None -> 0
      | Some labels ->
        Hashtbl.fold
          (fun _ lbl acc -> acc + 1 + Tree_routing.label_words lbl)
          labels 0
    in
    let global_records = 7 * Array.length centers.Centers.centers in
    let witness_words = 2 * Compiled.Intmap.cardinal witness.(u) in
    let rep_words = 2 * Array.length reps.(u) in
    tot_cluster := !tot_cluster + cluster_records;
    tot_own := !tot_own + own_labels;
    tot_global := !tot_global + global_records;
    tot_witness := !tot_witness + witness_words;
    tot_reps := !tot_reps + rep_words;
    table_words.(u) <-
      (Seq_routing.table_words lemma7).(u)
      + cluster_records + own_labels + global_records + witness_words
      + rep_words
  done;
  let breakdown =
    Seq_routing.breakdown lemma7
    @ [
        ("cluster-tree-records", !tot_cluster);
        ("cluster-member-labels", !tot_own);
        ("global-tree-records", !tot_global);
        ("witness-tables", !tot_witness);
        ("color-reps", !tot_reps);
      ]
  in
  let label_words =
    Array.init n (fun v ->
        4 + Tree_routing.label_words (let p = centers.Centers.p_a.(v) in
                                      Tree_routing.label (Hashtbl.find global_trees p) v))
  in
  {
    graph = g;
    eps;
    vic;
    centers;
    cluster_trees = Compiled.Table.of_hashtbl cluster_trees;
    cluster_labels =
      Compiled.Table.map Compiled.Table.of_hashtbl
        (Compiled.Table.of_hashtbl cluster_labels);
    global_trees = Compiled.Table.of_hashtbl global_trees;
    witness;
    coloring;
    reps;
    lemma7;
    table_words;
    label_words;
    breakdown;
  }

let header_words h =
  5
  + (match h.phase with
    | Direct | Global_tree -> 0
    | To_witness _ | Seek_rep _ -> 1
    | Cluster_tree (_, lbl) -> 1 + Tree_routing.label_words lbl
    | Lemma7 ih -> Seq_routing.header_words ih)

let rec step t ~at h =
  let dst = h.lbl.vertex in
  match h.phase with
  | Direct ->
    if at = dst then Port_model.Deliver
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst, h)
  | To_witness w ->
    if at = w then begin
      (* w stores the cluster-tree label of every member of C_A(w). *)
      let labels = Compiled.Table.find t.cluster_labels w in
      let lbl = Compiled.Table.find labels dst in
      step t ~at { h with phase = Cluster_tree (w, lbl) }
    end
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Cluster_tree (w, lbl) -> (
    let tree = Compiled.Table.find t.cluster_trees w in
    match Tree_routing.step tree ~at lbl with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))
  | Global_tree -> (
    let tree = Compiled.Table.find t.global_trees h.lbl.p_a in
    match Tree_routing.step tree ~at h.lbl.tree_label with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))
  | Seek_rep w ->
    if at = w then
      step t ~at
        { h with phase = Lemma7 (Seq_routing.initial_header t.lemma7 ~src:w ~dst) }
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Lemma7 ih -> (
    match Seq_routing.step t.lemma7 ~at ih with
    | Port_model.Deliver -> Port_model.Deliver
    | Port_model.Forward (p, ih') ->
      Port_model.Forward (p, { h with phase = Lemma7 ih' }))

(* The source's decision tree, using only u's tables and v's label. *)
let initial_header t ~src lbl =
  let v = lbl.vertex in
  if Vicinity.mem t.vic.(src) v then { lbl; phase = Direct }
  else
    match Compiled.Intmap.find_opt t.witness.(src) v with
    | Some w -> { lbl; phase = To_witness w }
    | None ->
      let w, d_uw = t.reps.(src).(lbl.color) in
      if lbl.d_pa <= d_uw then { lbl; phase = Global_tree }
      else { lbl; phase = Seek_rep w }

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
    Scheme.name = "roditty-tov-2eps1";
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = t.label_words;
    big_bytes = Vicinity.payload_bytes t.vic;
  }

(* --- snapshot form ------------------------------------------------------ *)

type frozen = (unit, Vicinity.frozen, Seq_routing.frozen) state

let freeze sink t =
  { t with graph = (); vic = Vicinity.freeze sink t.vic;
    lemma7 = Seq_routing.freeze t.lemma7 }

let thaw src ~graph z =
  let vic = Vicinity.thaw src z.vic in
  { z with graph; vic; lemma7 = Seq_routing.thaw ~graph ~vicinities:vic z.lemma7 }

module For_testing = struct
  let witness t ~src v = Compiled.Intmap.find_opt t.witness.(src) v

  let vicinities t = t.vic

  let cluster_tree t w = Compiled.Table.find_opt t.cluster_trees w
end
