(* Intersection-witness tables of Theorems 10, 13 and 15.

   The schemes build each source's witness map in one dense pass, reading
   d(w, v) from the cluster search. The reference below builds it the
   direct way: a hashtable per source, updated for every (u, w, v) with
   the tree distance walked in the cluster tree, keeping the minimum
   (s, w) and, for the multi-level schemes, the first level on a tie.
   Every vertex's map must equal the reference entry for entry. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Random connected unit-weight graphs, sparse G(n, p) or GLP, n in
   30..150. *)
let arb_unit_graph =
  QCheck2.Gen.(
    let* n = int_range 30 150 in
    let* seed = int_range 0 10_000 in
    let* glp = bool in
    let g =
      if glp then Generators.connect ~seed (Generators.glp ~seed n)
      else
        Generators.connect ~seed
          (Generators.gnp ~seed n (Float.min 1.0 (4.0 /. float_of_int n)))
    in
    return g)

(* Offer (s, w, level) for v under the rule both schemes use. *)
let offer best v s w level =
  match Hashtbl.find_opt best v with
  | Some (s0, w0, _) when s0 < s || (s0 = s && w0 <= w) -> ()
  | _ -> Hashtbl.replace best v (s, w, level)

(* Offer every v of C(w) for one vicinity member w of u. *)
let offer_cluster best tree ~duw w level =
  match tree with
  | None -> ()
  | Some tr ->
    Array.iter
      (fun v -> offer best v (duw +. Tree_routing.tree_dist tr w v) w level)
      (Tree_routing.members tr)

let reference_2eps1 t u =
  let b = (Scheme2eps1.For_testing.vicinities t).(u) in
  let best = Hashtbl.create 16 in
  Array.iter
    (fun w ->
      offer_cluster best
        (Scheme2eps1.For_testing.cluster_tree t w)
        ~duw:(Vicinity.dist b w) w 0)
    (Vicinity.members b);
  best

let reference_ptr t u =
  let ell = Scheme_ptr.ell t in
  let b = (Scheme_ptr.For_testing.vicinities t).(u) in
  let members = Vicinity.members b in
  let sizes = Scheme_ptr.For_testing.sizes t in
  let best = Hashtbl.create 16 in
  for i = 0 to ell - 1 do
    for r = 0 to min (Array.length members) sizes.(i) - 1 do
      let w = members.(r) in
      offer_cluster best
        (Scheme_ptr.For_testing.cluster_tree t ~level:(ell - i) w)
        ~duw:(Vicinity.dist b w) w i
    done
  done;
  best

(* [stored u v] against the reference map of [u], over every v. *)
let maps_equal n ~stored ~reference =
  let ok = ref true in
  for u = 0 to n - 1 do
    let best = reference u in
    for v = 0 to n - 1 do
      if stored u v <> Option.map (fun (_, w, i) -> (i, w)) (Hashtbl.find_opt best v)
      then ok := false
    done
  done;
  !ok

let seed = 41

let prop_2eps1 =
  qcheck ~count:20 "Theorem 10 witness maps equal the reference" arb_unit_graph
    (fun g ->
      let t = Scheme2eps1.preprocess ~eps:0.5 ~seed g in
      maps_equal (Graph.n g)
        ~stored:(fun u v ->
          Option.map (fun w -> (0, w)) (Scheme2eps1.For_testing.witness t ~src:u v))
        ~reference:(reference_2eps1 t))

let prop_ptr name ~variant ~ell =
  qcheck ~count:12 (name ^ " witness maps equal the reference") arb_unit_graph
    (fun g ->
      let t = Scheme_ptr.preprocess ~eps:0.5 ~seed ~variant ~ell g in
      maps_equal (Graph.n g)
        ~stored:(fun u v -> Scheme_ptr.For_testing.witness t ~src:u v)
        ~reference:(reference_ptr t))

let suite =
  [
    prop_2eps1;
    prop_ptr "rt-ptr-minus-l2" ~variant:`Minus ~ell:2;
    prop_ptr "rt-ptr-minus-l3" ~variant:`Minus ~ell:3;
    prop_ptr "rt-ptr-plus-l2" ~variant:`Plus ~ell:2;
  ]
