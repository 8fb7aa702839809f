(* Catalog-driven integration tests: every scheme in the catalog must
   deliver every message within its declared bound, on unweighted and
   (where supported) weighted graphs, and must reject inputs it cannot
   handle. This exercises all schemes through the single public entry
   point the benches and CLI use. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

let check_entry g apsp (e : Catalog.entry) =
  let inst, (alpha, beta) = e.Catalog.build ~seed:77 ~eps:0.5 g in
  let n = Graph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let o = Scheme.route inst ~src:u ~dst:v in
        if not ((Port_model.delivered o) && o.Port_model.final = v) then ok := false
        else begin
          (* The simulated walk must consist of real edges with the right
             total length. *)
          (match Apsp.check_path apsp g o.Port_model.path with
          | Some len when abs_float (len -. o.Port_model.length) < 1e-6 -> ()
          | _ -> ok := false);
          let d = Apsp.dist apsp u v in
          if o.Port_model.length > (alpha *. d) +. beta +. 1e-9 then ok := false
        end
      end
    done
  done;
  !ok

let test_all_on_unweighted () =
  let g = Generators.connect ~seed:31 (Generators.gnp ~seed:501 48 0.12) in
  let apsp = Apsp.compute g in
  List.iter
    (fun (e : Catalog.entry) ->
      checkb e.Catalog.id true (check_entry g apsp e))
    Catalog.all

let test_weighted_capable_on_weighted () =
  let g =
    Generators.with_random_weights ~seed:33 ~lo:0.5 ~hi:4.0
      (Generators.connect ~seed:35 (Generators.gnp ~seed:503 48 0.12))
  in
  let apsp = Apsp.compute g in
  List.iter
    (fun (e : Catalog.entry) ->
      if e.Catalog.weighted_ok then
        checkb e.Catalog.id true (check_entry g apsp e))
    Catalog.all

let test_all_on_torus () =
  let g = Generators.torus 6 6 in
  let apsp = Apsp.compute g in
  List.iter
    (fun (e : Catalog.entry) ->
      checkb e.Catalog.id true (check_entry g apsp e))
    Catalog.all

let test_unweighted_only_schemes_reject_weights () =
  let g = Generators.with_random_weights ~seed:37 ~lo:0.5 ~hi:2.0 (Generators.grid 4 4) in
  List.iter
    (fun (e : Catalog.entry) ->
      if not e.Catalog.weighted_ok then
        checkb (e.Catalog.id ^ " rejects weights") true
          (try ignore (e.Catalog.build ~seed:1 ~eps:0.5 g); false
           with Invalid_argument _ -> true))
    Catalog.all

let test_all_reject_disconnected () =
  let g = Graph.of_edges ~n:8 [ (0, 1, 1.0); (2, 3, 1.0); (4, 5, 1.0); (6, 7, 1.0) ] in
  List.iter
    (fun (e : Catalog.entry) ->
      checkb (e.Catalog.id ^ " rejects disconnected") true
        (try ignore (e.Catalog.build ~seed:1 ~eps:0.5 g); false
         with Invalid_argument _ -> true))
    Catalog.all

(* Every entry whose guarantee carries an eps rejects an eps that is not
   finite and positive. [eps <= 0.0] alone let NaN through, and the
   scheme then reported a "nan*d" guarantee. *)
let test_eps_taking_reject_bad_eps () =
  let g = Generators.connect ~seed:3 (Generators.gnp ~seed:33 40 0.12) in
  let takes_eps (e : Catalog.entry) =
    let s = e.Catalog.paper_stretch in
    let rec has i =
      i + 3 <= String.length s && (String.sub s i 3 = "eps" || has (i + 1))
    in
    has 0
  in
  let entries = List.filter takes_eps Catalog.all in
  checki "eps-taking entries" 9 (List.length entries);
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun eps ->
          checkb
            (Printf.sprintf "%s rejects eps=%g" e.Catalog.id eps)
            true
            (try ignore (e.Catalog.build ~seed:1 ~eps g); false
             with Invalid_argument _ -> true))
        [ Float.nan; Float.infinity; 0.0; -1.0 ])
    entries

let test_find_and_ids () =
  checkb "find known" true (Catalog.find "rt-5eps" <> None);
  checkb "find unknown" true (Catalog.find "nope" = None);
  checki "ids = entries" (List.length Catalog.all) (List.length (Catalog.ids ()));
  checkb "ids unique" true
    (let ids = Catalog.ids () in
     List.length (List.sort_uniq compare ids) = List.length ids)

let test_self_routes () =
  let g = Generators.cycle 12 in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:5 ~eps:0.5 g in
      let o = Scheme.route inst ~src:4 ~dst:4 in
      checkb (e.Catalog.id ^ " self") true
        ((Port_model.delivered o) && o.Port_model.hops = 0))
    Catalog.all

let test_tiny_graphs () =
  (* Degenerate sizes must not crash any scheme. *)
  List.iter
    (fun g ->
      let apsp = Apsp.compute g in
      List.iter
        (fun (e : Catalog.entry) ->
          checkb (e.Catalog.id ^ " tiny") true (check_entry g apsp e))
        Catalog.all)
    [ Generators.path 2; Generators.path 3; Generators.complete 4 ]

let test_label_words_reported () =
  let g = Generators.torus 5 5 in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:5 ~eps:0.5 g in
      checki (e.Catalog.id ^ " label array length") (Graph.n g)
        (Array.length inst.Scheme.label_words);
      checki (e.Catalog.id ^ " table array length") (Graph.n g)
        (Array.length inst.Scheme.table_words))
    Catalog.all

let test_deterministic_builds () =
  (* Same seed, same graph => identical space accounting and identical
     routed paths: everything randomized is seeded. *)
  let g = Generators.connect ~seed:41 (Generators.gnp ~seed:505 40 0.12) in
  List.iter
    (fun (e : Catalog.entry) ->
      let i1, _ = e.Catalog.build ~seed:9 ~eps:0.5 g in
      let i2, _ = e.Catalog.build ~seed:9 ~eps:0.5 g in
      checkb (e.Catalog.id ^ " tables deterministic") true
        (i1.Scheme.table_words = i2.Scheme.table_words);
      let o1 = Scheme.route i1 ~src:1 ~dst:38 in
      let o2 = Scheme.route i2 ~src:1 ~dst:38 in
      checkb (e.Catalog.id ^ " paths deterministic") true
        (o1.Port_model.path = o2.Port_model.path))
    Catalog.all

let test_tree_label_nonmember () =
  let g = Generators.grid 4 4 in
  let centers = Centers.of_centers g [ 0 ] in
  let c = Centers.cluster g centers 5 in
  let tr = Tree_routing.of_tree g c in
  (* Vertex 0 is the center: not in the cluster of 5. *)
  checkb "non-member label raises" true
    (try ignore (Tree_routing.label tr 0); false with Not_found -> true)

let suite =
  [
    case "deterministic builds" test_deterministic_builds;
    case "tree label of a non-member raises" test_tree_label_nonmember;
    case "every scheme exact-bounded on random unweighted" test_all_on_unweighted;
    case "weighted-capable schemes on weighted" test_weighted_capable_on_weighted;
    case "every scheme on the torus" test_all_on_torus;
    case "unweighted-only schemes reject weights" test_unweighted_only_schemes_reject_weights;
    case "every scheme rejects disconnected graphs" test_all_reject_disconnected;
    case "eps-taking schemes reject non-finite or non-positive eps"
      test_eps_taking_reject_bad_eps;
    case "catalog lookup" test_find_and_ids;
    case "self routes deliver in place" test_self_routes;
    case "degenerate tiny graphs" test_tiny_graphs;
    case "size arrays cover every vertex" test_label_words_reported;
  ]
