(* The name-independent (3+eps) scheme, and the prefix-view additions to
   Vicinity (rank / prefix_radius) used by the Section 5 schemes. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* --- name-independent scheme --- *)

let test_ni_no_labels () =
  let g = Generators.torus 5 5 in
  let t = Scheme_ni.preprocess ~seed:91 g in
  let inst = Scheme_ni.instance t in
  checki "labels are empty" 0 (Scheme.max_label_words inst)

let test_ni_color_computable_anywhere () =
  let g = Generators.grid 5 5 in
  let t = Scheme_ni.preprocess ~seed:93 g in
  (* The color is a pure function of the name: recomputing it at any hop
     gives the same value. *)
  for v = 0 to 24 do
    checki "stable" (Scheme_ni.color_of_name t v) (Scheme_ni.color_of_name t v)
  done

let test_ni_zoo () =
  List.iter
    (fun (name, g) ->
      let t = Scheme_ni.preprocess ~eps:0.5 ~seed:95 g in
      let alpha, beta = Scheme_ni.stretch_bound t in
      let apsp = Apsp.compute g in
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let o = Scheme_ni.route t ~src:u ~dst:v in
            if not ((Port_model.delivered o) && o.Port_model.final = v) then
              ok := false
            else if
              o.Port_model.length > (alpha *. Apsp.dist apsp u v) +. beta +. 1e-9
            then ok := false
          end
        done
      done;
      checkb name true !ok)
    (graph_zoo ())

let prop_ni_random =
  qcheck ~count:12 "name-independent scheme on random weighted graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 400 in
      return (g, seed))
    (fun (g, seed) ->
      let t = Scheme_ni.preprocess ~seed g in
      let alpha, beta = Scheme_ni.stretch_bound t in
      let apsp = Apsp.compute g in
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let o = Scheme_ni.route t ~src:u ~dst:v in
            if (not (Port_model.delivered o))
               || o.Port_model.length
                  > (alpha *. Apsp.dist apsp u v) +. beta +. 1e-9
            then ok := false
          end
        done
      done;
      !ok)

(* --- Vicinity.rank and prefix_radius --- *)

let test_rank_matches_order () =
  let g = Generators.path 12 in
  let b = vicinity g 6 7 in
  Array.iteri
    (fun i v -> checkb "rank" true (Vicinity.rank b v = Some i))
    (Vicinity.members b);
  checkb "non-member" true (Vicinity.rank b 11 = None)

let prop_rank_decides_prefix_membership =
  qcheck ~count:40 "rank < l' iff member of the smaller vicinity"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 2 20 in
      let* l' = int_range 1 20 in
      return (g, l, max 1 (min l l')))
    (fun (g, l, l') ->
      let n = Graph.n g in
      let ok = ref true in
      let bigs = Vicinity.compute_all g l and smalls = Vicinity.compute_all g l' in
      for u = 0 to n - 1 do
        let big = bigs.(u) and small = smalls.(u) in
        for v = 0 to n - 1 do
          let in_small = Vicinity.mem small v in
          let via_rank =
            match Vicinity.rank big v with
            | Some r -> r < min l' (Vicinity.size small)
            | None -> false
          in
          (* When l' <= size of the big vicinity, rank decides exactly. *)
          if Vicinity.size big >= min l' (Vicinity.size small) && in_small <> via_rank
          then ok := false
        done
      done;
      !ok)

let prop_prefix_radius_matches_recompute =
  qcheck ~count:40 "prefix_radius = radius of the recomputed vicinity"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 2 20 in
      let* l' = int_range 1 20 in
      return (g, l, l'))
    (fun (g, l, l') ->
      let l' = min l l' in
      let n = Graph.n g in
      let ok = ref true in
      let bigs = Vicinity.compute_all g l and smalls = Vicinity.compute_all g l' in
      for u = 0 to n - 1 do
        let big = bigs.(u) in
        if l' <= Vicinity.size big then begin
          let small = smalls.(u) in
          if Vicinity.size small = l' || Vicinity.size small = Vicinity.size big
          then begin
            let a = Vicinity.prefix_radius big l' in
            let b = Vicinity.radius small in
            if abs_float (a -. b) > 1e-9 then ok := false
          end
        end
      done;
      !ok)

let test_prefix_radius_edges () =
  let g = Generators.path 10 in
  let b = vicinity g 0 10 in
  checkf "full prefix = radius" (Vicinity.radius b) (Vicinity.prefix_radius b 10);
  checkf "oversized prefix clamps" (Vicinity.radius b) (Vicinity.prefix_radius b 99);
  checkf "prefix 1 = 0" 0.0 (Vicinity.prefix_radius b 1)

let suite =
  [
    case "name-independent: zero label words" test_ni_no_labels;
    case "name-independent: colors from names" test_ni_color_computable_anywhere;
    case "name-independent zoo" test_ni_zoo;
    prop_ni_random;
    case "rank matches member order" test_rank_matches_order;
    prop_rank_decides_prefix_membership;
    prop_prefix_radius_matches_recompute;
    case "prefix_radius edge cases" test_prefix_radius_edges;
  ]
