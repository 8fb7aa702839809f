open Cr_graph
open Cr_routing

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities, Lemma 7 state), live in [t] and in snapshot form in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  vic : 'v;
  coloring : Coloring.t;
  reps : (int * float) array array; (* reps.(u).(c) = (vertex, distance) *)
  lemma7 : 'l;
  table_words : int array;
  label_words : int array;
}

type t = (Graph.t, Vicinity.t array, Seq_routing.t) state

(* The label of v is (v, c(v)); the header tracks the phase. *)
type phase =
  | Direct                  (* dst is in the current vicinity *)
  | Seek of int             (* heading to the color representative *)
  | Inner of Seq_routing.header

type header = { dst : int; dst_color : int; phase : phase }

let stretch_bound t = ((3.0 +. (2.0 *. t.eps)), 0.0)

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ~seed g =
  Scheme_util.require_connected g "Scheme3eps.preprocess";
  Scheme_util.Log.debug (fun m -> m "Scheme3eps: n=%d eps=%g" (Graph.n g) eps);
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let q = Scheme_util.root_exp n 0.5 in
  let l = Scheme_util.vicinity_size ~n ~q ~factor:vicinity_factor in
  let vic = Substrate.vicinities sub l in
  let coloring = Scheme_util.color_vicinities ~seed g vic ~colors:q in
  let reps = Scheme_util.color_reps vic coloring in
  let lemma7 =
    Seq_routing.preprocess ~substrate:sub ~eps g ~vicinities:vic
      ~parts:coloring.classes ~part_of:coloring.color
  in
  (* Lemma 7 already accounts for the vicinities and trees; add the color
     representatives (vertex + distance per color). *)
  let table_words =
    Array.mapi
      (fun u w -> w + (2 * Array.length reps.(u)))
      (Seq_routing.table_words lemma7)
  in
  let label_words = Array.make n 2 in
  { graph = g; eps; vic; coloring; reps; lemma7; table_words; label_words }

let header_words h =
  2 + (match h.phase with
      | Direct -> 0
      | Seek _ -> 1
      | Inner ih -> Seq_routing.header_words ih)

let rec step t ~at h =
  match h.phase with
  | Inner ih -> (
    match Seq_routing.step t.lemma7 ~at ih with
    | Port_model.Deliver -> Port_model.Deliver
    | Port_model.Forward (p, ih') ->
      Port_model.Forward (p, { h with phase = Inner ih' }))
  | Direct ->
    if at = h.dst then Port_model.Deliver
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:h.dst, h)
  | Seek w ->
    if at = w then
      (* The representative reads its own Lemma 7 sequence for dst. *)
      step t ~at
        { h with phase = Inner (Seq_routing.initial_header t.lemma7 ~src:w ~dst:h.dst) }
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)

(* The source's local decision: direct if dst is in its vicinity, otherwise
   chase the representative of dst's color. *)
let initial_header t ~src ~dst =
  let dst_color = t.coloring.color.(dst) in
  if Vicinity.mem t.vic.(src) dst then { dst; dst_color; phase = Direct }
  else begin
    let w, _ = t.reps.(src).(dst_color) in
    { dst; dst_color; phase = Seek w }
  end

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  if src = dst then
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:{ dst; dst_color = 0; phase = Direct }
      ~step:(fun ~at:_ h -> ignore h; Port_model.Deliver)
      ~header_words
  else
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:(initial_header t ~src ~dst)
      ~step:(fun ~at h -> step t ~at h)
      ~header_words

let instance t =
  {
    Scheme.name = "roditty-tov-3eps";
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

(* The vicinity family is thawed once and passed into the embedded Lemma 7
   instance, restoring the physical sharing the builder established. *)
let thaw src ~graph z =
  let vic = Vicinity.thaw src z.vic in
  { z with graph; vic; lemma7 = Seq_routing.thaw ~graph ~vicinities:vic z.lemma7 }
