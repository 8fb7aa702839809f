open Cr_graph
open Cr_routing

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities, Lemma 7 state), live in [t] and in snapshot form in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  q : int;
  salt : int;
  vic : 'v;
  reps : (int * float) array array;
  lemma7 : 'l;
  table_words : int array;
}

type t = (Graph.t, Vicinity.t array, Seq_routing.t) state

type phase =
  | Direct
  | Seek of int
  | Inner of Seq_routing.header

type header = { dst : int; phase : phase }

let stretch_bound t = ((3.0 +. (2.0 *. t.eps)), 0.0)

let hash_color ~salt ~q v = Hashtbl.hash (salt lxor 0x9e3779b9, v) mod q

let color_of_name t v = hash_color ~salt:t.salt ~q:t.q v

(* Draw salts until the hash coloring satisfies both Lemma 6 conditions
   with respect to the vicinity family. *)
let find_salt ~seed ~q ~n sets =
  let rec attempt i =
    if i >= 64 then invalid_arg "Scheme_ni: no salt satisfies Lemma 6"
    else begin
      let salt = Hashtbl.hash (seed, i) in
      let color = Array.init n (fun v -> hash_color ~salt ~q v) in
      let classes = Array.make q [] in
      Array.iteri (fun v c -> classes.(c) <- v :: classes.(c)) color;
      let coloring =
        {
          Coloring.colors = q;
          color;
          classes = Array.map (fun l -> Array.of_list (List.rev l)) classes;
        }
      in
      match Coloring.verify coloring sets ~balance:4.0 with
      | Ok () -> (salt, coloring)
      | Error _ -> attempt (i + 1)
    end
  in
  attempt 0

let preprocess ?substrate ?(eps = 0.5) ?(vicinity_factor = 1.0) ~seed g =
  Scheme_util.require_connected g "Scheme_ni.preprocess";
  Scheme_util.Log.debug (fun m -> m "Scheme_ni: n=%d eps=%g" (Graph.n g) eps);
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let q = Scheme_util.root_exp n 0.5 in
  let l = Scheme_util.vicinity_size ~n ~q ~factor:vicinity_factor in
  let vic = Substrate.vicinities sub l in
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  let salt, coloring = find_salt ~seed ~q ~n sets in
  let reps = Scheme_util.color_reps vic coloring in
  let lemma7 =
    Seq_routing.preprocess ~substrate:sub ~eps g ~vicinities:vic
      ~parts:coloring.classes ~part_of:coloring.color
  in
  let table_words =
    (* Lemma 7 tables + per-color representatives + the salt. *)
    Array.mapi
      (fun u w -> w + (2 * Array.length reps.(u)) + 1)
      (Seq_routing.table_words lemma7)
  in
  { graph = g; eps; q; salt; vic; reps; lemma7; table_words }

let header_words h =
  1 + (match h.phase with
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
      step t ~at
        { h with
          phase = Inner (Seq_routing.initial_header t.lemma7 ~src:w ~dst:h.dst)
        }
    else Port_model.Forward (Vicinity.step t.vic ~at ~dst:w, h)

(* The source computes the destination's color from its name alone. *)
let initial_header t ~src ~dst =
  if Vicinity.mem t.vic.(src) dst then { dst; phase = Direct }
  else begin
    let w, _ = t.reps.(src).(color_of_name t dst) in
    { dst; phase = Seek w }
  end

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  if src = dst then
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:{ dst; phase = Direct }
      ~step:(fun ~at:_ _ -> Port_model.Deliver)
      ~header_words
  else
    Scheme_util.run_scheme ?faults ?record_path ?detect_loops t.graph ~src
      ~header:(initial_header t ~src ~dst)
      ~step:(fun ~at h -> step t ~at h)
      ~header_words

let instance t =
  {
    Scheme.name = "roditty-tov-3eps-name-independent";
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = t.table_words;
    label_words = Array.make (Graph.n t.graph) 0;
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
