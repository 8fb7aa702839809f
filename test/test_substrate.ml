(* Hitting sets (Lemma 5), coloring (Lemma 6), centers (Lemma 4),
   spanners, and the port-model simulator. *)
open Util
open Cr_graph
open Cr_routing

(* --- Hitting sets --- *)

let hits sets h =
  List.for_all (fun s -> Array.exists (fun v -> List.mem v h) s) sets

let test_greedy_hits () =
  let sets = [ [| 0; 1 |]; [| 2; 3 |]; [| 1; 2 |] ] in
  let h = Hitting_set.greedy ~n:4 sets in
  checkb "hits all" true (hits sets h)

let test_greedy_optimal_on_shared_element () =
  let sets = List.init 10 (fun i -> [| 5; 10 + i |]) in
  let h = Hitting_set.greedy ~n:30 sets in
  checkb "picks the shared element" true (h = [ 5 ])

let test_greedy_rejects_empty () =
  checkb "empty set rejected" true
    (try ignore (Hitting_set.greedy ~n:4 [ [||] ]); false
     with Invalid_argument _ -> true)

let prop_hitting_vicinities =
  qcheck ~count:30 "hitting set hits all vicinities, size near n/s"
    arb_connected_graph (fun g ->
      let n = Graph.n g in
      let s = max 2 (n / 4) in
      let sets =
        Array.to_list (Array.map Vicinity.members (Vicinity.compute_all g s))
      in
      let h = Hitting_set.greedy ~n sets in
      hits sets h
      && List.length h
         <= (n / s * (1 + int_of_float (log (float_of_int (max n 2))))) + 1)

let prop_sampled_hits =
  qcheck ~count:30 "sampled hitting set is valid" arb_connected_graph (fun g ->
      let n = Graph.n g in
      let s = max 2 (n / 3) in
      let sets =
        Array.to_list (Array.map Vicinity.members (Vicinity.compute_all g s))
      in
      hits sets (Hitting_set.sampled ~seed:7 ~n sets))

(* --- Coloring --- *)

let test_coloring_small () =
  let sets = [ [| 0; 1; 2 |]; [| 2; 3; 4 |]; [| 4; 5; 0 |] ] in
  match Coloring.make ~seed:1 ~n:6 ~colors:2 sets with
  | Error e -> Alcotest.fail e
  | Ok c ->
    checkb "verifies" true (Coloring.verify c sets ~balance:4.0 = Ok ());
    checki "classes partition" 6
      (Array.fold_left (fun acc cl -> acc + Array.length cl) 0 c.classes)

let test_coloring_impossible () =
  (* A set smaller than the number of colors can never see every color. *)
  match Coloring.make ~seed:1 ~n:6 ~colors:4 [ [| 0; 1 |] ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let prop_coloring_on_vicinities =
  qcheck ~count:25 "Lemma 6 coloring on vicinity sets" arb_connected_graph
    (fun g ->
      let n = Graph.n g in
      let q = max 1 (int_of_float (sqrt (float_of_int n)) / 2) in
      (* Sets of size >= q * log-ish factor, as the lemma requires. *)
      let l = min n (max (2 * q) 4) in
      let sets =
        Array.to_list (Array.map Vicinity.members (Vicinity.compute_all g l))
      in
      match Coloring.make ~seed:5 ~n ~colors:q sets with
      | Error _ -> false
      | Ok c -> Coloring.verify c sets ~balance:4.0 = Ok ())

(* --- Centers / clusters / bunches (Lemma 4) --- *)

let test_of_centers_basic () =
  let g = Generators.path 6 in
  let t = Centers.of_centers g [ 0; 5 ] in
  checkf "middle distance" 2.0 t.dist_to_a.(2);
  checki "nearest ties to smaller id" 0 t.p_a.(2);
  checki "own center" 5 t.p_a.(5)

let test_cluster_of_center_empty () =
  let g = Generators.path 6 in
  let t = Centers.of_centers g [ 0; 5 ] in
  checki "center cluster empty" 0 (Array.length (Centers.cluster g t 0).order)

let test_empty_center_set () =
  let g = Generators.path 4 in
  let t = Centers.of_centers g [] in
  checkb "infinite distances" true (t.dist_to_a.(0) = infinity);
  (* Every vertex's cluster is then the whole component. *)
  checki "cluster is everything" 4 (Array.length (Centers.cluster g t 2).order)

let prop_sample_cluster_bound =
  qcheck ~count:25 "Lemma 4: sampled centers bound every cluster"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let target = max 1 (int_of_float (float_of_int n ** (2.0 /. 3.0))) in
      let t = Centers.sample ~seed:3 g ~target in
      Centers.max_cluster_size g t <= 4 * n / target)

let prop_bunch_cluster_duality =
  qcheck ~count:25 "w in B_A(v) iff v in C_A(w)" arb_weighted_connected_graph
    (fun g ->
      let n = Graph.n g in
      let t = Centers.of_centers g [ 0; n / 2 ] in
      let b = Centers.bunches g t in
      let apsp = Apsp.compute g in
      let ok = ref true in
      for v = 0 to n - 1 do
        (* Definition check. *)
        let expected =
          List.init n Fun.id
          |> List.filter (fun w -> Apsp.dist apsp w v < t.dist_to_a.(v))
        in
        if Array.to_list b.(v) |> List.sort compare <> expected then ok := false
      done;
      !ok)

let prop_cluster_tree_is_shortest =
  qcheck ~count:20 "cluster trees carry true distances"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Centers.sample ~seed:11 g ~target:(max 1 (n / 3)) in
      let apsp = Apsp.compute g in
      let ok = ref true in
      for w = 0 to n - 1 do
        let c = Centers.cluster g t w in
        Array.iter
          (fun v ->
            if abs_float (c.Dijkstra.dist.(v) -. Apsp.dist apsp w v) > 1e-9 then
              ok := false)
          c.Dijkstra.order
      done;
      !ok)

(* --- Spanners --- *)

let prop_greedy_spanner_stretch =
  qcheck ~count:15 "greedy spanner respects (2k-1) stretch"
    arb_weighted_connected_graph (fun g ->
      List.for_all
        (fun k ->
          let h = Spanner.greedy g ~k in
          Graph.m h <= Graph.m g
          && Spanner.max_stretch g h <= float_of_int ((2 * k) - 1) +. 1e-6)
        [ 1; 2; 3 ])

let prop_baswana_sen_stretch =
  qcheck ~count:15 "baswana-sen spanner respects (2k-1) stretch"
    arb_weighted_connected_graph (fun g ->
      List.for_all
        (fun k ->
          let h = Spanner.baswana_sen ~seed:9 g ~k in
          Spanner.max_stretch g h <= float_of_int ((2 * k) - 1) +. 1e-6)
        [ 1; 2; 3 ])

let test_greedy_spanner_k1_identity () =
  let g = Generators.complete 8 in
  let h = Spanner.greedy g ~k:1 in
  checki "1-spanner keeps all edges of K_n" (Graph.m g) (Graph.m h)

let test_greedy_spanner_sparsifies () =
  let g = Generators.complete 20 in
  let h = Spanner.greedy g ~k:2 in
  (* A 3-spanner of K_20 is much sparser than 190 edges. *)
  checkb "sparser" true (Graph.m h < 100)

(* --- Port model --- *)

let test_simulator_counts () =
  let g = Generators.path 5 in
  (* Header = destination; forward along the single path. *)
  let o =
    Port_model.run g ~src:0 ~header:4
      ~step:(fun ~at dst ->
        if at = dst then Port_model.Deliver
        else
          match Graph.port_to g at (at + 1) with
          | Some p -> Port_model.Forward (p, dst)
          | None -> Alcotest.fail "missing port")
      ~header_words:(fun _ -> 1)
      ()
  in
  checkb "delivered" true (Port_model.delivered o);
  checki "hops" 4 o.Port_model.hops;
  checkf "length" 4.0 o.Port_model.length;
  checkb "path recorded" true (o.Port_model.path = [ 0; 1; 2; 3; 4 ])

let test_simulator_aborts_loops () =
  let g = Generators.cycle 4 in
  let o =
    Port_model.run g ~src:0 ~header:()
      ~step:(fun ~at:_ () -> Port_model.Forward (0, ()))
      ~header_words:(fun _ -> 0)
      ()
  in
  checkb "not delivered" false (Port_model.delivered o);
  checkb "loop verdict" true
    (match o.Port_model.verdict with
    | Port_model.Loop_detected _ -> true
    | _ -> false);
  (* Exact loop detection aborts in O(cycle) hops, far under the budget. *)
  checkb "bounded hops" true (o.Port_model.hops <= 2 * 4)

let test_simulator_max_hops_boundary () =
  (* Pin the budget rule to "refuse a forward once hops = max_hops": a route
     of exactly max_hops hops still delivers; one fewer allowed hop stops at
     the budget, never one edge past it. *)
  let k = 6 in
  let g = Generators.path (k + 1) in
  let run max_hops =
    Port_model.run g ~src:0 ~header:k
      ~step:(fun ~at dst ->
        if at = dst then Port_model.Deliver
        else
          match Graph.port_to g at (at + 1) with
          | Some p -> Port_model.Forward (p, dst)
          | None -> Alcotest.fail "missing port")
      ~header_words:(fun _ -> 1)
      ~max_hops ()
  in
  let exact = run k in
  checkb "max_hops = path length delivers" true (Port_model.delivered exact);
  checki "with exactly k hops" k exact.Port_model.hops;
  let short = run (k - 1) in
  checkb "max_hops = k-1 aborts" false (Port_model.delivered short);
  checkb "budget verdict" true
    (short.Port_model.verdict = Port_model.Hop_budget_exhausted);
  checki "stops where the budget ran out" (k - 1) short.Port_model.hops

let test_simulator_rejects_bad_port () =
  let g = Generators.path 3 in
  let o =
    Port_model.run g ~src:0 ~header:()
      ~step:(fun ~at:_ () -> Port_model.Forward (7, ()))
      ~header_words:(fun _ -> 0)
      ()
  in
  checkb "invalid port verdict" true
    (o.Port_model.verdict = Port_model.Invalid_port (0, 7));
  checki "no edge traversed" 0 o.Port_model.hops

(* --- Scheme helpers --- *)

let test_sample_pairs () =
  let ps = Scheme.sample_pairs ~seed:1 ~n:10 ~count:20 in
  checki "count" 20 (List.length ps);
  checkb "distinct ordered pairs" true
    (List.for_all (fun (u, v) -> u <> v && u < 10 && v < 10) ps);
  checki "all pairs when count large" 90
    (List.length (Scheme.sample_pairs ~seed:1 ~n:10 ~count:1000))

let test_eval_stats () =
  let e =
    {
      Scheme.samples = [| (1.0, 1.0); (2.0, 5.0); (4.0, 4.0) |];
      failures = 0;
      header_words_peak = 3;
    }
  in
  checkf "max stretch" 2.5 (Scheme.max_stretch e);
  checkb "within (3,0)" true (Scheme.within e ~alpha:3.0 ~beta:0.0);
  checkb "not within (2,0)" false (Scheme.within e ~alpha:2.0 ~beta:0.0);
  checkb "within (2,1)" true (Scheme.within e ~alpha:2.0 ~beta:1.0);
  checkf "p100" 2.5 (Scheme.percentile_stretch e 1.0)

let suite =
  [
    case "greedy hitting set hits" test_greedy_hits;
    case "greedy prefers shared elements" test_greedy_optimal_on_shared_element;
    case "greedy rejects empty sets" test_greedy_rejects_empty;
    prop_hitting_vicinities;
    prop_sampled_hits;
    case "coloring on small sets" test_coloring_small;
    case "impossible coloring reported" test_coloring_impossible;
    prop_coloring_on_vicinities;
    case "of_centers distances and ties" test_of_centers_basic;
    case "cluster of a center is empty" test_cluster_of_center_empty;
    case "empty center set" test_empty_center_set;
    prop_sample_cluster_bound;
    prop_bunch_cluster_duality;
    prop_cluster_tree_is_shortest;
    prop_greedy_spanner_stretch;
    prop_baswana_sen_stretch;
    case "1-spanner of K_n is K_n" test_greedy_spanner_k1_identity;
    case "3-spanner of K_20 sparsifies" test_greedy_spanner_sparsifies;
    case "simulator accounting" test_simulator_counts;
    case "simulator aborts loops" test_simulator_aborts_loops;
    case "simulator max_hops boundary" test_simulator_max_hops_boundary;
    case "simulator rejects bad ports" test_simulator_rejects_bad_port;
    case "pair sampling" test_sample_pairs;
    case "eval statistics" test_eval_stats;
  ]
