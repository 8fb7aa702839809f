(* Lemma 7: (1+eps)-stretch routing inside the parts of a partition. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Build a Lemma 7 instance over the color classes of a Lemma 6 coloring of
   the vicinity family — exactly how the schemes of Section 4 use it. *)
let make_instance ?(eps = 0.5) ?mode ~seed g =
  let n = Graph.n g in
  let q = max 1 (int_of_float (sqrt (float_of_int n))) in
  let l = min n (max (2 * q) 4) in
  let vic = Vicinity.compute_all g l in
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  match Coloring.make ~seed ~n ~colors:q sets with
  | Error e -> Alcotest.fail ("coloring: " ^ e)
  | Ok c ->
    let t =
      Seq_routing.preprocess ~eps ?mode g ~vicinities:vic ~parts:c.classes
        ~part_of:c.color
    in
    (t, c)

let check_part_pairs ?(eps = 0.5) g (t, (c : Coloring.t)) =
  let apsp = Apsp.compute g in
  let ok = ref true in
  Array.iter
    (fun part ->
      Array.iter
        (fun u ->
          Array.iter
            (fun v ->
              if u <> v then begin
                let o = Seq_routing.route t ~src:u ~dst:v in
                if not ((Port_model.delivered o) && o.Port_model.final = v) then
                  ok := false
                else begin
                  let d = Apsp.dist apsp u v in
                  if o.Port_model.length > ((1.0 +. eps) *. d) +. 1e-9 then
                    ok := false
                end
              end)
            part)
        part)
    c.classes;
  !ok

(* The on-demand store must answer every same-part pair exactly as the
   eager store of [make_instance ~seed g] does: the whole outcome, path
   included, on the pair's first route (a cache miss) and its second (a
   hit). *)
let lazy_agrees ~seed g (eager, (c : Coloring.t)) =
  let lazy_, _ = make_instance ~mode:`Lazy ~seed g in
  Array.for_all
    (fun part ->
      Array.for_all
        (fun u ->
          Array.for_all
            (fun v ->
              u = v
              ||
              let o = Seq_routing.route eager ~src:u ~dst:v in
              o = Seq_routing.route lazy_ ~src:u ~dst:v
              && o = Seq_routing.route lazy_ ~src:u ~dst:v)
            part)
        part)
    c.classes

let test_zoo_unweighted () =
  List.iter
    (fun (name, g) ->
      let inst = make_instance ~seed:17 g in
      checkb (name ^ " within 1+eps") true (check_part_pairs g inst))
    (graph_zoo ())

let test_zoo_weighted () =
  List.iter
    (fun (name, g) ->
      let inst = make_instance ~seed:19 g in
      checkb (name ^ " within 1+eps") true (check_part_pairs g inst))
    (weighted_zoo ())

let test_tight_eps () =
  let g = Generators.torus 5 6 in
  let inst = make_instance ~eps:0.125 ~seed:23 g in
  checkb "eps=1/8 honored" true (check_part_pairs ~eps:0.125 g inst)

let test_loose_eps () =
  let g = Generators.grid 5 5 in
  let inst = make_instance ~eps:2.0 ~seed:29 g in
  checkb "eps=2 honored" true (check_part_pairs ~eps:2.0 g inst)

let test_single_part () =
  (* One part containing everything: all-pairs (1+eps) routing. *)
  let g = Generators.connect ~seed:3 (Generators.gnp ~seed:31 36 0.12) in
  let n = Graph.n g in
  let vic = Vicinity.compute_all g (max 4 (n / 4)) in
  let all = Array.init n Fun.id in
  let t =
    Seq_routing.preprocess ~eps:0.5 g ~vicinities:vic ~parts:[| all |]
      ~part_of:(Array.make n 0)
  in
  let apsp = Apsp.compute g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let o = Seq_routing.route t ~src:u ~dst:v in
        let d = Apsp.dist apsp u v in
        if (not (Port_model.delivered o))
           || o.Port_model.length > (1.5 *. d) +. 1e-9
        then ok := false
      end
    done
  done;
  checkb "all pairs via single part" true !ok

let test_missing_pair_raises () =
  let g = Generators.path 8 in
  let vic = Vicinity.compute_all g 3 in
  let t =
    Seq_routing.preprocess g ~vicinities:vic
      ~parts:[| [| 0; 1 |]; [| 2; 3; 4; 5; 6; 7 |] |]
      ~part_of:[| 0; 0; 1; 1; 1; 1; 1; 1 |]
  in
  checkb "cross-part pair rejected" true
    (try ignore (Seq_routing.route t ~src:0 ~dst:7); false
     with Not_found -> true)

let test_header_words_bounded () =
  let g = Generators.torus 6 6 in
  let inst, c = make_instance ~eps:0.25 ~seed:37 g in
  let b = int_of_float (ceil (2.0 /. 0.25)) in
  let ok = ref true in
  Array.iter
    (fun part ->
      Array.iter
        (fun u ->
          Array.iter
            (fun v ->
              if u <> v then begin
                let o = Seq_routing.route inst ~src:u ~dst:v in
                (* Header: <= 2b hop words + tree label + bookkeeping. *)
                if o.Port_model.header_words_peak > (2 * 2 * b) + 40 then
                  ok := false
              end)
            part)
        part)
    c.classes;
  checkb "header stays O(1/eps + log n)" true !ok

let prop_random_graphs =
  qcheck ~count:20 "Lemma 7 on random connected graphs"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* seed = int_range 0 1000 in
      return (g, seed))
    (fun (g, seed) ->
      let inst = make_instance ~seed g in
      check_part_pairs g inst)

let prop_random_weighted =
  qcheck ~count:20 "Lemma 7 on random weighted graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 1000 in
      return (g, seed))
    (fun (g, seed) ->
      let inst = make_instance ~seed g in
      check_part_pairs g inst && lazy_agrees ~seed g inst)

(* Float32 weights: the store re-derives tree distances by summing the
   rounded weights root outward, as Dijkstra did. *)
let test_lazy_float32 () =
  let g =
    Graph.pack ~float32:true
      (Generators.with_random_weights ~seed:7 ~lo:0.3 ~hi:9.7
         (Generators.glp ~seed:8 150))
  in
  let inst = make_instance ~seed:41 g in
  checkb "within 1+eps" true (check_part_pairs g inst);
  checkb "on-demand = eager" true (lazy_agrees ~seed:41 g inst)

(* With the default pair cap (8192) and a stream that fits it, the
   on-demand store builds one sequence per distinct pair, each by its own
   search, and keeps no destination tree; every repeat is a hit. *)
let test_lazy_counters () =
  let g =
    Generators.with_random_weights ~seed:5 ~lo:1.0 ~hi:4.0
      (Generators.glp ~seed:8 150)
  in
  let t, c = make_instance ~mode:`Lazy ~seed:41 g in
  let parts =
    List.filter (fun p -> Array.length p >= 2) (Array.to_list c.classes)
    |> Array.of_list
  in
  let rng = Random.State.make [| 7 |] in
  let pairs =
    List.init 2000 (fun _ ->
        let part = parts.(Random.State.int rng (Array.length parts)) in
        let k = Array.length part in
        let i = Random.State.int rng k in
        let j = (i + 1 + Random.State.int rng (k - 1)) mod k in
        (part.(i), part.(j)))
  in
  let was_on = Telemetry.enabled () in
  let totals =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was_on)
      (fun () ->
        Telemetry.set_enabled true;
        Telemetry.reset ();
        List.iter
          (fun (u, v) ->
            if not (Port_model.delivered (Seq_routing.route t ~src:u ~dst:v))
            then Alcotest.failf "(src=%d, dst=%d) not delivered" u v)
          pairs;
        Telemetry.totals ())
  in
  let distinct = List.length (List.sort_uniq compare pairs) in
  checki "no tree kept" 0 totals.Telemetry.lazy_tree_builds;
  checki "one miss per distinct pair" distinct totals.Telemetry.lazy_seq_misses;
  checki "a hit per repeat" (2000 - distinct) totals.Telemetry.lazy_seq_hits

let suite =
  [
    case "unweighted zoo" test_zoo_unweighted;
    case "weighted zoo" test_zoo_weighted;
    case "tight eps (1/8)" test_tight_eps;
    case "loose eps (2)" test_loose_eps;
    case "single part covers all pairs" test_single_part;
    case "missing pair raises" test_missing_pair_raises;
    case "header size bounded" test_header_words_bounded;
    prop_random_graphs;
    prop_random_weighted;
    case "on-demand store = eager on a float32 graph" test_lazy_float32;
    case "on-demand store counts one miss per pair, keeps no tree"
      test_lazy_counters;
  ]
