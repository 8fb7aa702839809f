open Cr_graph
open Cr_routing

type variant = [ `Minus | `Plus ]

(* One pivot record per level in the destination label. *)
type pivot = {
  p : int;        (* p_{L_i}(v) *)
  group : int;    (* alpha_i(p): its part in the level's W partition; -1 if unused *)
  d : float;      (* d(v, p_{L_i}(v)) *)
  z : int;        (* first vertex after p on a shortest path p -> v; -1 if p = v *)
}

type label = { vertex : int; pivots : pivot array (* index = level i, 0..ell *) }

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities, Lemma 8 states), live in [t], frozen in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  variant : variant;
  ell : int;
  q : int;
  sizes : int array;          (* sizes.(i) = l_i: the vicinity size q~^i *)
  vic : 'v;                   (* the largest vicinity family B_ell(u) *)
  centers : Centers.t array;  (* centers.(i) = L_i *)
  cluster_trees : Tree_routing.t Compiled.Table.t array;  (* per level *)
  cluster_labels : Tree_routing.label Compiled.Table.t Compiled.Table.t array;
  witness : Compiled.Intmap.t array;
      (* witness.(u) : v -> i * n + w for the level i and the w in
         B_i(u) ∩ B_{L_(ell-i)}(v) minimizing (d(u,w) + d(w,v), w) over all
         levels, the lowest such level on a tie *)
  colorings : Coloring.t option array;   (* c_i for source levels *)
  reps : (int * float) array array array; (* reps.(i).(u).(color) *)
  lemma8 : 'l option array;   (* instance per source level i *)
  radii : float array array;  (* radii.(u).(i) = a_i = r_u(l_i) *)
  labels : label array;
  table_words : int array;
  label_words : int array;
}

type t = (Graph.t, Vicinity.t array, Seq_routing2.t) state

let eps t = t.eps

let variant t = t.variant

let ell t = t.ell

let stretch_bound t =
  let l = float_of_int t.ell and e = t.eps in
  match t.variant with
  | `Minus -> ((3.0 +. (3.0 *. e) -. ((2.0 +. e) /. l)), 2.0)
  | `Plus -> ((3.0 +. (2.0 /. l) +. (4.0 *. e)), 2.0)

(* Source level range I and the destination level k paired with a source
   level j: Theorem 13 uses j in {0..ell-1}, k = ell-j-1; Theorem 15 uses
   j in {1..ell}, k = ell-j+1. *)
let source_levels variant ell =
  match variant with
  | `Minus -> List.init ell Fun.id
  | `Plus -> List.init ell (fun i -> i + 1)

let dest_level variant ell j =
  match variant with `Minus -> ell - j - 1 | `Plus -> ell - j + 1

(* The families B_i, i = 0..ell: B_i(u) is the first l_i members of
   B_ell(u) (paper Section 2), so every level below ell is a prefix view
   of the level-ell family's blocks. *)
let levels vic sizes =
  let ell = Array.length sizes - 1 in
  Array.mapi (fun i l -> if i = ell then vic else Vicinity.prefix vic l) sizes

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ~seed ~variant
    ~ell g =
  if ell < 2 then invalid_arg "Scheme_ptr.preprocess: need ell >= 2";
  Scheme_util.require_connected g "Scheme_ptr.preprocess";
  Scheme_util.Log.debug (fun m -> m "Scheme_ptr: n=%d ell=%d" (Graph.n g) ell);
  if not (Graph.is_unit_weighted g) then
    invalid_arg "Scheme_ptr.preprocess: Theorems 13/15 address unweighted graphs";
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let denom = match variant with `Minus -> (2 * ell) - 1 | `Plus -> (2 * ell) + 1 in
  let q = Scheme_util.root_exp n (1.0 /. float_of_int denom) in
  let pow_q i =
    let rec go acc i = if i = 0 then acc else go (acc * q) (i - 1) in
    min n (go 1 i)
  in
  let sizes =
    Array.init (ell + 1) (fun i ->
        Scheme_util.vicinity_size ~n ~q:(pow_q i) ~factor:vicinity_factor)
  in
  let vic = Substrate.vicinities sub sizes.(ell) in
  let vic_level = levels vic sizes in
  (* Level center sets L_i with cluster bound O(q^i); the substrate keys
     are the per-level [(seed + i, target)] pairs. *)
  let targets = Array.init (ell + 1) (fun i -> max 1 (n / pow_q i)) in
  let centers =
    Array.init (ell + 1) (fun i ->
        Substrate.centers sub ~seed:(seed + i) ~target:targets.(i))
  in
  (* Cluster records, trees and member-label stores, per level. *)
  let clusters =
    Array.init (ell + 1) (fun i ->
        Array.init n (Substrate.cluster sub ~seed:(seed + i) ~target:targets.(i)))
  in
  let cluster_trees = Array.init (ell + 1) (fun _ -> Hashtbl.create (2 * n)) in
  let cluster_labels = Array.init (ell + 1) (fun _ -> Hashtbl.create (2 * n)) in
  for i = 0 to ell do
    Array.iteri
      (fun w (c : Substrate.cluster) ->
        match c.tree with
        | None -> ()
        | Some tr ->
          Hashtbl.replace cluster_trees.(i) w tr;
          let labels = Hashtbl.create (2 * Array.length c.members) in
          Array.iter
            (fun v -> Hashtbl.replace labels v (Tree_routing.label tr v))
            c.members;
          Hashtbl.replace cluster_labels.(i) w labels)
      clusters.(i)
  done;
  (* Intersection witnesses across levels i in {0..ell-1} (level ell is the
     plain vicinity check handled at routing time). B_i(u) is the prefix of
     B_ell(u) of size l_i; d(w,v) is the level-(ell-i) cluster search's own
     distance, aligned with the members and exact on the unit-weight
     graphs these theorems take. Levels are offered in increasing order, so
     a tie keeps the lowest. *)
  let scratch = Scheme_util.Witness_scratch.create n in
  let witness =
    Array.init n (fun u ->
        let b = vic.(u) in
        let members = Vicinity.members b in
        for i = 0 to ell - 1 do
          let lev = ell - i in
          for r = 0 to min (Array.length members) sizes.(i) - 1 do
            let w = members.(r) in
            let duw = Vicinity.dist b w in
            let c = clusters.(lev).(w) in
            for j = 0 to Array.length c.members - 1 do
              Scheme_util.Witness_scratch.offer scratch c.members.(j)
                ~s:(duw +. c.dists.(j)) ~w ~tag:i
            done
          done
        done;
        Scheme_util.Witness_scratch.flush scratch)
  in
  (* Per-source-level colorings, representatives and Lemma 8 instances. *)
  let src_levels = source_levels variant ell in
  let colorings = Array.make (ell + 1) None in
  let reps = Array.make (ell + 1) [||] in
  let lemma8 = Array.make (ell + 1) None in
  let group_of = Array.make (ell + 1) [||] in
  List.iter
    (fun i ->
      let colors = max 1 (pow_q i) in
      let coloring =
        Scheme_util.color_vicinities ~seed:(seed + 100 + i) g vic_level.(i)
          ~colors
      in
      colorings.(i) <- Some coloring;
      reps.(i) <- Scheme_util.color_reps vic_level.(i) coloring;
      (* Partition L_k into [colors] groups for this instance. *)
      let k = dest_level variant ell i in
      let ga = Array.make n (-1) in
      let groups = Array.make colors [] in
      Array.iteri
        (fun idx a ->
          ga.(a) <- idx mod colors;
          groups.(idx mod colors) <- a :: groups.(idx mod colors))
        centers.(k).Centers.centers;
      group_of.(k) <- ga;
      let dests = Array.map Array.of_list groups in
      lemma8.(i) <-
        Some
          (Seq_routing2.preprocess ~substrate:sub ~eps g
             ~vicinities:vic_level.(i) ~parts:coloring.classes
             ~part_of:coloring.color ~dests))
    src_levels;
  (* Prefix radii a_i = r_u(l_i). *)
  let radii =
    Array.init n (fun u ->
        Array.init (ell + 1) (fun i -> Vicinity.prefix_radius vic.(u) sizes.(i)))
  in
  (* Labels: one pivot per level. *)
  let first_edge = Array.make (ell + 1) [||] in
  for i = 0 to ell do
    let fe = Array.make n (-1) in
    Array.iter
      (fun a ->
        let spt = Substrate.spt sub a in
        for v = 0 to n - 1 do
          if centers.(i).Centers.p_a.(v) = a && v <> a then begin
            let rec climb x =
              if spt.Dijkstra.parent.(x) = a then x else climb spt.Dijkstra.parent.(x)
            in
            fe.(v) <- climb v
          end
        done)
      centers.(i).Centers.centers;
    first_edge.(i) <- fe
  done;
  let labels =
    Array.init n (fun v ->
        {
          vertex = v;
          pivots =
            Array.init (ell + 1) (fun i ->
                let p = centers.(i).Centers.p_a.(v) in
                {
                  p;
                  group = (if Array.length group_of.(i) = 0 then -1 else group_of.(i).(p));
                  d = centers.(i).Centers.dist_to_a.(v);
                  z = first_edge.(i).(v);
                });
        })
  in
  (* Space accounting. *)
  let table_words = Array.make n 0 in
  for u = 0 to n - 1 do
    table_words.(u) <-
      Array.fold_left (fun acc f -> acc + (3 * Vicinity.size f.(u))) 0 vic_level
  done;
  (* Tree records and cluster labels, via bunches per level. *)
  for i = 0 to ell do
    let bunch_count = Array.make n 0 in
    Array.iter
      (fun (c : Substrate.cluster) ->
        Array.iter (fun v -> bunch_count.(v) <- bunch_count.(v) + 1) c.members)
      clusters.(i);
    for u = 0 to n - 1 do
      table_words.(u) <- table_words.(u) + (7 * bunch_count.(u));
      (match Hashtbl.find_opt cluster_labels.(i) u with
      | None -> ()
      | Some ls ->
        table_words.(u) <-
          table_words.(u)
          + Hashtbl.fold (fun _ l acc -> acc + 1 + Tree_routing.label_words l) ls 0)
    done
  done;
  for u = 0 to n - 1 do
    table_words.(u) <- table_words.(u) + (2 * Compiled.Intmap.cardinal witness.(u));
    List.iter
      (fun i ->
        table_words.(u) <-
          table_words.(u)
          + (2 * Array.length reps.(i).(u))
          + ((Seq_routing2.table_words (Option.get lemma8.(i))).(u)
            - (3 * Vicinity.size vic_level.(i).(u))))
      src_levels;
    table_words.(u) <- table_words.(u) + ell + 1 (* radii *)
  done;
  let label_words = Array.make n (1 + (4 * (ell + 1))) in
  {
    graph = g;
    eps;
    variant;
    ell;
    q;
    sizes;
    vic;
    centers;
    cluster_trees = Array.map Compiled.Table.of_hashtbl cluster_trees;
    cluster_labels =
      Array.map
        (fun tbl ->
          Compiled.Table.map Compiled.Table.of_hashtbl
            (Compiled.Table.of_hashtbl tbl))
        cluster_labels;
    witness;
    colorings;
    reps;
    lemma8;
    radii;
    labels;
    table_words;
    label_words;
  }

type phase =
  | Direct
  | To_witness of int * int                        (* (level, w) *)
  | Cluster_tree of int * int * Tree_routing.label (* (level, root, label) *)
  | Seek_rep of int * int                          (* (source level j, rep w) *)
  | Lemma8 of int * int * Seq_routing2.header      (* (j, dest level k, inner) *)
  | To_z of int                                    (* dest level k *)

type header = { lbl : label; phase : phase }

let header_words h =
  1 + (4 * Array.length h.lbl.pivots)
  + (match h.phase with
    | Direct -> 0
    | To_witness _ | Seek_rep _ -> 2
    | Cluster_tree (_, _, l) -> 2 + Tree_routing.label_words l
    | Lemma8 (_, _, ih) -> 2 + Seq_routing2.header_words ih
    | To_z _ -> 1)

let rec step t ~at h =
  let dst = h.lbl.vertex in
  match h.phase with
  | Direct ->
    if at = dst then Port_model.Deliver
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst, h)
  | To_witness (lev, w) ->
    if at = w then begin
      let labels = Compiled.Table.find t.cluster_labels.(lev) w in
      step t ~at
        { h with phase = Cluster_tree (lev, w, Compiled.Table.find labels dst) }
    end
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Cluster_tree (lev, root, lbl) -> (
    let tree = Compiled.Table.find t.cluster_trees.(lev) root in
    match Tree_routing.step tree ~at lbl with
    | `Deliver -> Port_model.Deliver
    | `Forward p -> Port_model.Forward (p, h))
  | Seek_rep (j, w) ->
    if at = w then begin
      let k = dest_level t.variant t.ell j in
      let p = h.lbl.pivots.(k).p in
      if w = p then
        if at = dst then Port_model.Deliver else step t ~at { h with phase = To_z k }
      else begin
        let l8 = Option.get t.lemma8.(j) in
        step t ~at
          { h with phase = Lemma8 (j, k, Seq_routing2.initial_header l8 ~src:w ~dst:p) }
      end
    end
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Lemma8 (j, k, ih) -> (
    let l8 = Option.get t.lemma8.(j) in
    match Seq_routing2.step l8 ~at ih with
    | Port_model.Deliver ->
      if at = dst then Port_model.Deliver else step t ~at { h with phase = To_z k }
    | Port_model.Forward (p, ih') ->
      Port_model.Forward (p, { h with phase = Lemma8 (j, k, ih') }))
  | To_z k ->
    let z = h.lbl.pivots.(k).z in
    if at = z then begin
      let labels = Compiled.Table.find t.cluster_labels.(k) at in
      step t ~at
        { h with phase = Cluster_tree (k, at, Compiled.Table.find labels dst) }
    end
    else begin
      match Graph.port_to t.graph at z with
      | Some p -> Port_model.Forward (p, h)
      | None -> invalid_arg "Scheme_ptr.step: stored first edge missing"
    end

(* The source decision: vicinity membership (the level-ell intersection
   convention), then the witness table, then the Lemma 12/14 level choice. *)
let initial_header t ~src lbl =
  let v = lbl.vertex in
  if Vicinity.mem t.vic.(src) v then { lbl; phase = Direct }
  else
    match Compiled.Intmap.find_opt t.witness.(src) v with
    | Some iw ->
      (* The witness was found in B_i(src) ∩ B_{L_(ell-i)}(v): its cluster
         tree lives at level ell - i. *)
      let i, w = Scheme_util.Witness_scratch.unpack ~n:(Graph.n t.graph) iw in
      { lbl; phase = To_witness (t.ell - i, w) }
    | None ->
      let src_levels = source_levels t.variant t.ell in
      (* b_i from the label: d(v, p_{L_i}(v)) - 1, or 0 when v in L_i. *)
      let b i =
        let piv = lbl.pivots.(i) in
        if piv.d = 0.0 then 0.0 else piv.d -. 1.0
      in
      let score j = t.radii.(src).(j) +. b (dest_level t.variant t.ell j) in
      let j =
        List.fold_left
          (fun acc j ->
            match acc with
            | None -> Some j
            | Some j0 -> if score j <= score j0 then Some j else Some j0)
          None src_levels
        |> Option.get
      in
      let k = dest_level t.variant t.ell j in
      let group = lbl.pivots.(k).group in
      let w, _ = t.reps.(j).(src).(group) in
      { lbl; phase = Seek_rep (j, w) }

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  let lbl = t.labels.(dst) in
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
  let name =
    Printf.sprintf "roditty-tov-ptr-%s-l%d"
      (match t.variant with `Minus -> "minus" | `Plus -> "plus")
      t.ell
  in
  {
    Scheme.name;
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = t.label_words;
    (* The levels below ell share [vic]'s blocks. *)
    big_bytes = Vicinity.payload_bytes t.vic;
  }

(* --- snapshot form ------------------------------------------------------ *)

(* Only the level-ell family is frozen: each embedded Lemma 8 instance is
   thawed against its level's prefix view of it, rebuilt as [preprocess]
   built it, so every physical sharing edge the builder established
   survives the round trip. *)
type frozen = (unit, Vicinity.frozen, Seq_routing2.frozen) state

let freeze sink t =
  { t with graph = (); vic = Vicinity.freeze sink t.vic;
    lemma8 = Array.map (Option.map Seq_routing2.freeze) t.lemma8 }

let thaw src ~graph z =
  let vic = Vicinity.thaw src z.vic in
  let vic_level = levels vic z.sizes in
  { z with graph; vic;
    lemma8 =
      Array.mapi
        (fun i -> Option.map (Seq_routing2.thaw ~graph ~vicinities:vic_level.(i)))
        z.lemma8 }

module For_testing = struct
  let witness t ~src v =
    Option.map
      (Scheme_util.Witness_scratch.unpack ~n:(Graph.n t.graph))
      (Compiled.Intmap.find_opt t.witness.(src) v)

  let vicinities t = t.vic

  let sizes t = t.sizes

  let cluster_tree t ~level w = Compiled.Table.find_opt t.cluster_trees.(level) w
end
