open Cr_graph
open Cr_routing

(* [graph] is a [Graph.t] in [t] and [()] in [frozen]; everything else
   (hierarchy arrays, tree records, bunch sets, label tables) is data. *)
type 'g state = {
  graph : 'g;
  k : int;
  h : Tz_hierarchy.t;
  trees : Tree_routing.t option array; (* T(w) for every w (None if C(w) = ∅) *)
  in_bunch : Compiled.Bitset.t array; (* membership of B(u) *)
  home_labels : Tree_routing.label Compiled.Table.t array;
      (* at u ∉ A_1: member -> label in T(u) *)
  table_words : int array;
  label_words : int array;
}

type t = Graph.t state

(* Label of v: for each level i, p_i(v) and v's label in T(p_i(v)). *)
type label = { vertex : int; pivots : (int * Tree_routing.label) array }

type header = { lbl : label; root : int } (* riding T(root) *)

let k t = t.k

let hierarchy t = t.h

let stretch_bound t = (float_of_int ((4 * t.k) - 5), 0.0)

let label_of t v =
  {
    vertex = v;
    pivots =
      Array.init t.k (fun i ->
          let p = t.h.Tz_hierarchy.p.(i).(v) in
          match t.trees.(p) with
          | Some tr -> (p, Tree_routing.label tr v)
          | None -> assert false (* v ∈ C(p_i(v)) so the tree exists *));
  }

let build ~substrate ~a1_target ?pool ~seed g ~k =
  let n = Graph.n g in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let h = Tz_hierarchy.build ~seed ~a1_target ~substrate ~pool g ~k in
  (* Cluster searches and tree construction per root, fanned out with one
     workspace per domain; [order] is the only borrowed-tree field a caller
     may retain, and [Tree_routing.of_tree] copies everything else. *)
  let trees_and_members =
    Pool.map_local pool ~n
      ~local:(fun () -> Dijkstra.workspace n)
      (fun ws w ->
        Tz_hierarchy.with_cluster ws g h w (fun c ->
            let members = c.Dijkstra.order in
            if Array.length members = 0 then (None, members)
            else (Some (Tree_routing.of_tree g c), members)))
  in
  let trees = Array.map fst trees_and_members in
  let members_of = Array.map snd trees_and_members in
  let bunches = Array.init n (fun _ -> Hashtbl.create 8) in
  for w = 0 to n - 1 do
    Array.iter (fun v -> Hashtbl.replace bunches.(v) w ()) members_of.(w)
  done;
  let in_bunch = Array.map (Compiled.Bitset.of_hashtbl_keys ~n) bunches in
  (* Home labels are per-vertex private tables over read-only trees. *)
  let homes =
    Pool.map pool ~n (fun u ->
        let tbl = Hashtbl.create 1 in
        (if not h.Tz_hierarchy.in_set.(1).(u) then
           match trees.(u) with
           | None -> ()
           | Some tr ->
             Array.iter
               (fun v -> Hashtbl.replace tbl v (Tree_routing.label tr v))
               members_of.(u));
        let words =
          Hashtbl.fold
            (fun _ lbl acc -> acc + 1 + Tree_routing.label_words lbl)
            tbl 0
        in
        (Compiled.Table.of_hashtbl tbl, words))
  in
  let home_labels = Array.map fst homes in
  let table_words = Array.make n 0 in
  for u = 0 to n - 1 do
    (* per tree: 7-word record + 1 word of bunch hash *)
    let bunch_words = 8 * Compiled.Bitset.cardinal in_bunch.(u) in
    table_words.(u) <- bunch_words + snd homes.(u) + k
  done;
  let label_words = Array.make n 0 in
  let t =
    { graph = g; k; h; trees; in_bunch; home_labels; table_words; label_words }
  in
  for v = 0 to n - 1 do
    let l = label_of t v in
    label_words.(v) <-
      1
      + Array.fold_left
          (fun acc (_, tl) -> acc + 1 + Tree_routing.label_words tl)
          0 l.pivots
  done;
  t

(* The state is a function of the graph, the seed, k and the A_1 target
   alone (the pool changes no output), and nothing writes it after the
   build, so every preprocess with one key on one handle can return one
   state: tz-k and rt-4km7-k (Theorem 16 stores this scheme whole) build
   it once. The handle is checked against [g] before the lookup. *)
let state_id : t Type.Id.t = Type.Id.make ()

let preprocess ?substrate ?a1_target ?pool ~seed g ~k =
  let substrate = Substrate.for_graph substrate g in
  let a1_target =
    match a1_target with
    | Some s -> s
    | None -> Tz_hierarchy.default_a1_target ~n:(Graph.n g) ~k
  in
  Substrate.scheme_state substrate state_id [ seed; k; a1_target ] (fun () ->
      build ~substrate ~a1_target ?pool ~seed g ~k)

let header_words h =
  2
  + Array.fold_left
      (fun acc (_, tl) -> acc + 1 + Tree_routing.label_words tl)
      0 h.lbl.pivots

let step t ~at h =
  match t.trees.(h.root) with
  | None -> invalid_arg "Tz_routing.step: empty tree"
  | Some tr -> (
    (* The destination's tree label for the chosen root, from its label. *)
    let lbl =
      let rec find i =
        if i >= Array.length h.lbl.pivots then
          invalid_arg "Tz_routing.step: root not among pivots"
        else begin
          let p, l = h.lbl.pivots.(i) in
          if p = h.root then l else find (i + 1)
        end
      in
      find 0
    in
    match Tree_routing.step tr ~at lbl with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))

let bunch_mem t u w = Compiled.Bitset.mem t.in_bunch.(u) w

(* The source decision: its own cluster if it stores v's label (the 4k-5
   refinement), else the lowest level whose pivot's cluster contains u. *)
let initial_header t ~src lbl =
  let v = lbl.vertex in
  if Compiled.Table.mem t.home_labels.(src) v then { lbl; root = src }
  else
    let rec find i =
      if i >= t.k then invalid_arg "Tz_routing: no usable pivot"
      else begin
        let p, _ = lbl.pivots.(i) in
        if p = src || bunch_mem t src p then { lbl; root = p } else find (i + 1)
      end
    in
    find 0

(* Home-cluster routing uses the label stored at the source, not the
   destination label, so the header is that label with its root and
   destination. It is forwarded unchanged, so the simulator's hash cache
   sees one physical header for the whole ride. *)
let step_home t ~at ((lbl_home, root, _dst) as h : Tree_routing.label * int * int) =
  match t.trees.(root) with
  | None -> invalid_arg "Tz_routing.step_home: empty tree"
  | Some tr -> (
    match Tree_routing.step tr ~at lbl_home with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  if src = dst then
    Port_model.run t.graph ~src ~header:() ?faults
      ~step:(fun ~at:_ () -> Port_model.Deliver)
      ~header_words:(fun () -> 0)
      ?record_path ?detect_loops ()
  else
    match Compiled.Table.find_opt t.home_labels.(src) dst with
    | Some lbl_home ->
      Port_model.run t.graph ~src ~header:(lbl_home, src, dst) ?faults
        ~step:(fun ~at h -> step_home t ~at h)
        ~header_words:(fun (l, _, _) -> 2 + Tree_routing.label_words l)
        ?record_path ?detect_loops ()
    | None ->
      let header = initial_header t ~src (label_of t dst) in
      Port_model.run t.graph ~src ~header ?faults
        ~step:(fun ~at h -> step t ~at h)
        ~header_words ?record_path ?detect_loops ()

let tree t w = t.trees.(w)

let home_label t u v = Compiled.Table.find_opt t.home_labels.(u) v

let table_words t = t.table_words

let base_label_words t = t.label_words

let label_bits t v =
  let n = Graph.n t.graph in
  let id_bits = Cr_routing.Bits.bits_for n in
  let l = label_of t v in
  Array.fold_left
    (fun acc (p, _) ->
      match t.trees.(p) with
      | Some tr -> acc + id_bits + Tree_routing.label_bits tr v
      | None -> acc)
    id_bits l.pivots

let instance t =
  {
    Scheme.name = Printf.sprintf "thorup-zwick-k%d" t.k;
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = t.label_words;
    big_bytes = 0;
  }

(* --- snapshot form ------------------------------------------------------ *)

type frozen = unit state

let freeze _ t = { t with graph = () }

let thaw _ ~graph z = { z with graph }
