open Cr_graph
open Cr_routing
open Cr_baselines

(* Color representatives: the dense table is Theta(n * q) words and
   Theta(n * q * l) work to fill; the lazy variant re-runs the same
   [Vicinity.nearest_of] scan on demand, so the chosen representative is
   identical by construction. *)
type reps =
  | Reps_dense of (int * float) array array
  | Reps_lazy

(* Type parameters: the parts that are not plain data (graph handle, TZ
   state, vicinities, Lemma 8 state), live in [t], frozen in [frozen]. *)
type ('g, 'tz, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  k : int;
  tz : 'tz;
  vic : 'v;
  coloring : Coloring.t;
  reps : reps;
  group_of : int array; (* alpha(a) for a in A_(k-2); -1 elsewhere *)
  lemma8 : 'l;
  table_words : int array;
  label_words : int array;
}

type t = (Graph.t, Tz_routing.t, Vicinity.t array, Seq_routing2.t) state

(* Label of v: the TZ label plus alpha(p_(k-2)(v)). *)
type label = { tz_label : Tz_routing.label; group : int }

type phase =
  | Direct
  | Tz_tree of int                (* riding T(root) via the TZ pivots *)
  | Home of int * Tree_routing.label
      (* riding T(root) with the label the source stored (4k-5 refinement) *)
  | Seek_rep of int
  | Lemma8 of Seq_routing2.header
  | Final_tree                    (* riding T(p_(k-2)(v)) via the TZ pivots *)

type header = { lbl : label; phase : phase }

let stretch_bound t =
  (float_of_int ((4 * t.k) - 7) +. (float_of_int ((2 * t.k) - 3) *. t.eps), 0.0)

let rep_of t u color =
  match t.reps with
  | Reps_dense r -> fst r.(u).(color)
  | Reps_lazy -> (
    match
      Vicinity.nearest_of t.vic.(u) (fun w ->
          t.coloring.Coloring.color.(w) = color)
    with
    | Some w -> w
    | None -> invalid_arg "Scheme4km7: vicinity misses a color")

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ?a1_target
    ?(mode = `Auto) ~seed g ~k =
  if k < 3 then invalid_arg "Scheme4km7.preprocess: need k >= 3";
  Scheme_util.require_connected g "Scheme4km7.preprocess";
  let n = Graph.n g in
  let mode = Scheme_util.resolve_mode mode n in
  Scheme_util.Log.debug (fun m ->
      m "Scheme4km7: n=%d k=%d eps=%g mode=%s" n k eps
        (match mode with `Eager -> "eager" | `Lazy -> "lazy"));
  let sub = Substrate.for_graph substrate g in
  let tz = Tz_routing.preprocess ~substrate:sub ?a1_target ~seed g ~k in
  let h = Tz_routing.hierarchy tz in
  let q = Scheme_util.root_exp n (1.0 /. float_of_int k) in
  let l = Scheme_util.vicinity_size ~n ~q ~factor:vicinity_factor in
  let vic = Substrate.vicinities sub l in
  let coloring = Scheme_util.color_vicinities ~seed g vic ~colors:q in
  let reps =
    match mode with
    | `Eager -> Reps_dense (Scheme_util.color_reps vic coloring)
    | `Lazy -> Reps_lazy
  in
  (* Partition A_(k-2) into q groups. *)
  let a_km2 =
    List.init n Fun.id |> List.filter (fun v -> h.Tz_hierarchy.in_set.(k - 2).(v))
  in
  let group_of = Array.make n (-1) in
  let groups = Array.make q [] in
  List.iteri
    (fun i a ->
      group_of.(a) <- i mod q;
      groups.(i mod q) <- a :: groups.(i mod q))
    a_km2;
  let dests = Array.map Array.of_list groups in
  let lemma8 =
    Seq_routing2.preprocess ~substrate:sub ~eps ~mode
      g ~vicinities:vic ~parts:coloring.classes ~part_of:coloring.color ~dests
  in
  (* Lazy accounting counts only what is resident: the reps table is
     re-derived on demand, and the embedded Lemma 8 counts its own
     resident entries. *)
  let rep_words u =
    match reps with
    | Reps_dense r -> 2 * Array.length r.(u)
    | Reps_lazy -> 0
  in
  let table_words =
    Array.init n (fun u ->
        (Tz_routing.table_words tz).(u)
        + (Seq_routing2.table_words lemma8).(u)
        + rep_words u)
  in
  let label_words = Array.map (fun w -> w + 1) (Tz_routing.base_label_words tz) in
  {
    graph = g;
    eps;
    k;
    tz;
    vic;
    coloring;
    reps;
    group_of;
    lemma8;
    table_words;
    label_words;
  }

let label_of t v =
  let tz_label = Tz_routing.label_of t.tz v in
  let p_km2 = t.tz |> Tz_routing.hierarchy |> fun h -> h.Tz_hierarchy.p.(t.k - 2).(v) in
  { tz_label; group = t.group_of.(p_km2) }

let header_words h =
  let pivot_words =
    Array.fold_left
      (fun acc (_, tl) -> acc + 1 + Tree_routing.label_words tl)
      0 h.lbl.tz_label.Tz_routing.pivots
  in
  2 + pivot_words
  + (match h.phase with
    | Direct | Final_tree -> 0
    | Tz_tree _ | Seek_rep _ -> 1
    | Home (_, lbl) -> 2 + Tree_routing.label_words lbl
    | Lemma8 ih -> 1 + Seq_routing2.header_words ih)

let pivot_label h root =
  let rec find i =
    let p, l = h.lbl.tz_label.Tz_routing.pivots.(i) in
    if p = root then l else find (i + 1)
  in
  find 0

let rec step t ~at h =
  let dst = h.lbl.tz_label.Tz_routing.vertex in
  match h.phase with
  | Direct ->
    if at = dst then Port_model.Deliver
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst, h)
  | Home (root, lbl) -> (
    match Tz_routing.tree t.tz root with
    | None -> invalid_arg "Scheme4km7.step: empty home tree"
    | Some tr -> (
      match Tree_routing.step tr ~at lbl with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, h)))
  | Tz_tree root -> (
    match Tz_routing.tree t.tz root with
    | None -> invalid_arg "Scheme4km7.step: empty TZ tree"
    | Some tr -> (
      match Tree_routing.step tr ~at (pivot_label h root) with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, h)))
  | Seek_rep w ->
    if at = w then begin
      let p_km2 =
        let hh = Tz_routing.hierarchy t.tz in
        hh.Tz_hierarchy.p.(t.k - 2).(dst)
      in
      if w = p_km2 then
        if at = dst then Port_model.Deliver
        else step t ~at { h with phase = Final_tree }
      else
        step t ~at
          { h with
            phase = Lemma8 (Seq_routing2.initial_header t.lemma8 ~src:w ~dst:p_km2)
          }
    end
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)
  | Lemma8 ih -> (
    match Seq_routing2.step t.lemma8 ~at ih with
    | Port_model.Deliver ->
      if at = dst then Port_model.Deliver
      else step t ~at { h with phase = Final_tree }
    | Port_model.Forward (p, ih') ->
      Port_model.Forward (p, { h with phase = Lemma8 ih' }))
  | Final_tree -> (
    let hh = Tz_routing.hierarchy t.tz in
    let root = hh.Tz_hierarchy.p.(t.k - 2).(dst) in
    match Tz_routing.tree t.tz root with
    | None -> invalid_arg "Scheme4km7.step: empty final tree"
    | Some tr -> (
      match Tree_routing.step tr ~at (pivot_label h root) with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, h)))

(* Source decision: vicinity, then the home cluster, then the smallest TZ
   level i <= k-2 whose pivot's cluster contains the source, else the
   Lemma 8 fallback. *)
let initial_header t ~src lbl =
  let v = lbl.tz_label.Tz_routing.vertex in
  if Vicinity.mem t.vic.(src) v then { lbl; phase = Direct }
  else
    match Tz_routing.home_label t.tz src v with
    | Some home -> { lbl; phase = Home (src, home) }
    | None ->
      let rec find i =
        if i > t.k - 2 then
          { lbl; phase = Seek_rep (rep_of t src lbl.group) }
        else begin
          let p, _ = lbl.tz_label.Tz_routing.pivots.(i) in
          if p = src || Tz_routing.bunch_mem t.tz src p then
            { lbl; phase = Tz_tree p }
          else find (i + 1)
        end
      in
      find 0

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
    Scheme.name = Printf.sprintf "roditty-tov-4km7-k%d" t.k;
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = t.label_words;
    big_bytes = Vicinity.payload_bytes t.vic;
  }

(* --- snapshot form ------------------------------------------------------ *)

type frozen = (unit, Tz_routing.frozen, Vicinity.frozen, Seq_routing2.frozen) state

let freeze sink t =
  { t with graph = (); tz = Tz_routing.freeze sink t.tz;
    vic = Vicinity.freeze sink t.vic; lemma8 = Seq_routing2.freeze t.lemma8 }

let thaw src ~graph z =
  let vic = Vicinity.thaw src z.vic in
  { z with graph; tz = Tz_routing.thaw src ~graph z.tz; vic;
    lemma8 = Seq_routing2.thaw ~graph ~vicinities:vic z.lemma8 }

module For_testing = struct
  let set_caps t ~pairs ~trees =
    Seq_routing2.For_testing.set_caps t.lemma8 ~pairs ~trees
end
