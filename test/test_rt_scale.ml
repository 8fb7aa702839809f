(* The rt-scale equivalence tier: the lazy/truncated substrates behind the
   schemes' [`Lazy] mode (on-demand cluster trees and color
   representatives, FIFO-capped sequence caches) must make every
   routing decision bit-identically to the eager reference construction
   — and the paper stretch bounds must hold at sizes the eager paths
   cannot reach, with the offending pair named on failure. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

let all_pairs n =
  List.concat_map
    (fun u -> List.filter_map (fun v -> if u <> v then Some (u, v) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

(* Full outcome equality (verdict, final, path, length, hops, header peak):
   the modes must agree bit for bit, not just on delivery. [eager] and
   [lazy_] route one pair each. *)
let compare_modes name ~eager ~lazy_ pairs =
  List.iter
    (fun (u, v) ->
      if eager ~src:u ~dst:v <> lazy_ ~src:u ~dst:v then
        Alcotest.failf "%s: lazy diverges from eager on (src=%d, dst=%d)" name u
          v)
    pairs

(* Replaying the same pairs must also be identical — the second pass is
   all cache hits on the lazy side, so this pins hit-path = miss-path. *)
let compare_replay name ~lazy_ pairs =
  let first = List.map (fun (u, v) -> Scheme.route lazy_ ~src:u ~dst:v) pairs in
  List.iter2
    (fun (u, v) o1 ->
      let o2 = Scheme.route lazy_ ~src:u ~dst:v in
      if o1 <> o2 then
        Alcotest.failf "%s: lazy replay diverges on (src=%d, dst=%d)" name u v)
    pairs first

let sampled g =
  List.map fst (Workload.sampled_pairs ~seed:5 ~sources:24 ~per_source:16 g)

(* --- Theorem 11 (5+eps) --- *)

let test_5eps_all_pairs () =
  let g =
    Generators.with_random_weights ~seed:3 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:21 256)
  in
  let eager =
    Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Eager ~seed:31 g)
  in
  let lazy_ =
    Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Lazy ~seed:31 g)
  in
  compare_modes "rt-5eps n=256" ~eager:(Scheme.route eager)
    ~lazy_:(Scheme.route lazy_) (all_pairs 256);
  compare_replay "rt-5eps n=256" ~lazy_ (sampled g)

let test_5eps_sampled_2000 () =
  let g =
    Generators.with_random_weights ~seed:4 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:22 2000)
  in
  let eager =
    Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Eager ~seed:31 g)
  in
  let lazy_ =
    Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Lazy ~seed:31 g)
  in
  compare_modes "rt-5eps n=2000" ~eager:(Scheme.route eager)
    ~lazy_:(Scheme.route lazy_) (sampled g)

(* --- Theorem 16 (4k-7, k=3) --- *)

let test_4km7_all_pairs () =
  let g =
    Generators.with_random_weights ~seed:6 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:23 220)
  in
  let eager =
    Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Eager ~seed:31 g ~k:3)
  in
  let lazy_ =
    Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Lazy ~seed:31 g ~k:3)
  in
  compare_modes "rt-4km7-k3 n=220" ~eager:(Scheme.route eager)
    ~lazy_:(Scheme.route lazy_) (all_pairs 220)

let test_4km7_sampled_2000 () =
  let g =
    Generators.with_random_weights ~seed:7 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:24 2000)
  in
  let eager =
    Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Eager ~seed:31 g ~k:3)
  in
  let lazy_ =
    Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Lazy ~seed:31 g ~k:3)
  in
  compare_modes "rt-4km7-k3 n=2000" ~eager:(Scheme.route eager)
    ~lazy_:(Scheme.route lazy_) (sampled g)

(* --- Theorem 10 ((2+eps, 1), unweighted): lazy Lemma 7 store --- *)

let test_2eps1_all_pairs () =
  let g = Generators.power_law ~seed:25 240 in
  let eager =
    Scheme2eps1.instance (Scheme2eps1.preprocess ~mode:`Eager ~seed:31 g)
  in
  let lazy_ =
    Scheme2eps1.instance (Scheme2eps1.preprocess ~mode:`Lazy ~seed:31 g)
  in
  compare_modes "rt-2eps1 n=240" ~eager:(Scheme.route eager)
    ~lazy_:(Scheme.route lazy_) (all_pairs 240)

(* --- cache eviction --- *)

(* Eviction never changes an answer. The lazy instances' caches are shrunk
   far below the stream's working set — the shared Lemma 7/8 pair cache
   (FIFO), Lemma 8's destination-tree cache (least recently read) and
   rt-5eps's cluster-tree cache (FIFO) — so a Zipf stream keeps evicting
   and rebuilding, and every outcome, path included, must still equal the
   eager instance's. Lemma 7 runs on its own over the colour classes of
   the graph's vicinities, on the stream's same-class pairs, since
   rt-2eps1 takes only unit weights. The graph is packed with float32
   weights, so the lazy store's re-derived distances are checked against
   the eager store's Dijkstra distances over rounded weights. The
   telemetry counters prove the caches evicted: the shrunk store misses
   (and, keeping trees, builds trees) more often than a store with the
   default caps does on the same stream. Lemma 7's store keeps no tree
   and builds none. *)
let test_eviction_identical () =
  let g =
    Graph.pack ~float32:true
      (Generators.with_random_weights ~seed:11 ~lo:1.0 ~hi:8.0
         (Generators.glp ~seed:30 700))
  in
  let traffic = Traffic.create ~zipf:1.0 ~seed:12 ~n:700 () in
  let pairs = Traffic.pairs traffic ~count:3000 in
  let pair_cap = 16 and tree_cap = 3 in
  let counted f =
    let was_on = Telemetry.enabled () in
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was_on)
      (fun () ->
        Telemetry.set_enabled true;
        Telemetry.reset ();
        f ();
        Telemetry.totals ())
  in
  let run name ~eager ~lazy_ ~uncapped ~keeps_trees pairs =
    let base =
      counted (fun () ->
          List.iter (fun (u, v) -> ignore (uncapped ~src:u ~dst:v)) pairs)
    in
    let c = counted (fun () -> compare_modes name ~eager ~lazy_ pairs) in
    checkb (name ^ ": pair cache evicted") true
      (c.Telemetry.lazy_seq_misses > base.Telemetry.lazy_seq_misses);
    if keeps_trees then
      checkb (name ^ ": tree cache evicted") true
        (c.Telemetry.lazy_tree_builds > base.Telemetry.lazy_tree_builds)
    else checki (name ^ ": no tree built") 0 c.Telemetry.lazy_tree_builds
  in
  let lazy5 () = Scheme5eps.preprocess ~mode:`Lazy ~seed:31 g in
  let capped5 = lazy5 () in
  Scheme5eps.For_testing.set_caps capped5 ~pairs:pair_cap ~trees:tree_cap
    ~cluster_trees:2;
  run "rt-5eps evicting"
    ~eager:
      (Scheme.route
         (Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Eager ~seed:31 g)))
    ~lazy_:(Scheme.route (Scheme5eps.instance capped5))
    ~uncapped:(Scheme.route (Scheme5eps.instance (lazy5 ())))
    ~keeps_trees:true pairs;
  let lazy4 () = Scheme4km7.preprocess ~mode:`Lazy ~seed:31 g ~k:3 in
  let capped4 = lazy4 () in
  Scheme4km7.For_testing.set_caps capped4 ~pairs:pair_cap ~trees:tree_cap;
  run "rt-4km7-k3 evicting"
    ~eager:
      (Scheme.route
         (Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Eager ~seed:31 g ~k:3)))
    ~lazy_:(Scheme.route (Scheme4km7.instance capped4))
    ~uncapped:(Scheme.route (Scheme4km7.instance (lazy4 ())))
    ~keeps_trees:true pairs;
  let n = Graph.n g in
  let q = Scheme_util.root_exp n (1.0 /. 3.0) in
  let vic = Vicinity.compute_all g (Scheme_util.vicinity_size ~n ~q ~factor:1.0) in
  let c = Scheme_util.color_vicinities ~seed:31 g vic ~colors:q in
  let lemma7 mode =
    Seq_routing.preprocess ~mode g ~vicinities:vic ~parts:c.Coloring.classes
      ~part_of:c.Coloring.color
  in
  let capped7 = lemma7 `Lazy in
  Seq_routing.For_testing.set_pair_cap capped7 ~pairs:pair_cap;
  run "Lemma 7 evicting"
    ~eager:(Seq_routing.route (lemma7 `Eager))
    ~lazy_:(Seq_routing.route capped7)
    ~uncapped:(Seq_routing.route (lemma7 `Lazy))
    ~keeps_trees:false
    (List.filter
       (fun (u, v) -> u <> v && c.Coloring.color.(u) = c.Coloring.color.(v))
       pairs)

(* --- random-graph properties (CSR-seeded generators) --- *)

let prop_5eps_modes_identical =
  qcheck ~count:10 "rt-5eps lazy = eager on random graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let n = Graph.n g in
      let eager =
        Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Eager ~seed g)
      in
      let lazy_ =
        Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Lazy ~seed g)
      in
      compare_modes "rt-5eps random" ~eager:(Scheme.route eager)
        ~lazy_:(Scheme.route lazy_) (all_pairs n);
      true)

let prop_4km7_modes_identical =
  qcheck ~count:8 "rt-4km7-k3 lazy = eager on random graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let n = Graph.n g in
      let eager =
        Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Eager ~seed g ~k:3)
      in
      let lazy_ =
        Scheme4km7.instance (Scheme4km7.preprocess ~mode:`Lazy ~seed g ~k:3)
      in
      compare_modes "rt-4km7-k3 random" ~eager:(Scheme.route eager)
        ~lazy_:(Scheme.route lazy_) (all_pairs n);
      true)

(* --- the packed vicinity family --- *)

(* Every accessor of the packed (int32/float64 Bigarray) family against a
   reference read straight off the truncated search (members, distances,
   first ports) and the Section 2 radius taken from a full shortest-path
   tree: the largest member distance r with every vertex at distance <= r
   a member (0 when there is none). The schemes route over rows of it. *)
let test_packed_vicinities_identical () =
  let g =
    Generators.with_random_weights ~seed:8 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:26 500)
  in
  let n = Graph.n g in
  let l = 24 in
  let vics = Vicinity.compute_all g l in
  for u = 0 to n - 1 do
    let tr = Dijkstra.truncated g u l and b = vics.(u) in
    let k = Array.length tr.Dijkstra.vertices in
    checki "source" u (Vicinity.source b);
    checki "size" k (Vicinity.size b);
    checkb "members" true (Vicinity.members b = tr.Dijkstra.vertices);
    checkf "max_dist" (if k = 0 then 0.0 else tr.Dijkstra.dists.(k - 1))
      (Vicinity.max_dist b);
    let spt = Dijkstra.spt g u in
    let complete d =
      let ok = ref true in
      Array.iteri
        (fun w dw -> if dw <= d && not (Array.mem w tr.Dijkstra.vertices) then ok := false)
        spt.Dijkstra.dist;
      !ok
    in
    let radius =
      Array.fold_left
        (fun r d -> if complete d then Float.max r d else r)
        0.0 tr.Dijkstra.dists
    in
    checkb "radius (Section 2)" true (Vicinity.radius b = radius);
    Array.iteri
      (fun i v ->
        checkb "mem" true (Vicinity.mem b v);
        checkb "dist" true (Vicinity.dist b v = tr.Dijkstra.dists.(i));
        checkb "rank" true (Vicinity.rank b v = Some i);
        if v <> u then begin
          checki "first_port" tr.Dijkstra.first_ports.(i) (Vicinity.first_port b v);
          checki "step" tr.Dijkstra.first_ports.(i) (Vicinity.step vics ~at:u ~dst:v)
        end)
      tr.Dijkstra.vertices;
    let pred v = v land 1 = 0 in
    checkb "nearest_of" true
      (Vicinity.nearest_of b pred
      = Array.find_opt pred tr.Dijkstra.vertices)
  done;
  (* A family whose every port is remapped, on the same graph: the fresh
     family's answers with each first port shifted, and the source family
     left as it was. *)
  let shift p = p + 1 in
  let remapped = Vicinity.update g l vics (fun _ -> Vicinity.Remap shift) in
  let fresh = Vicinity.compute_all g l in
  (* Non-members answer alike on every family. *)
  let raises_not_found f = match f () with _ -> false | exception Not_found -> true in
  let absent name fam u v =
    let b = fam.(u) in
    checkb (name ^ " mem") false (Vicinity.mem b v);
    checkb (name ^ " rank") true (Vicinity.rank b v = None);
    checkb (name ^ " dist") true (raises_not_found (fun () -> Vicinity.dist b v));
    checkb (name ^ " first_port") true
      (raises_not_found (fun () -> Vicinity.first_port b v));
    checkb (name ^ " step") true
      (raises_not_found (fun () -> Vicinity.step fam ~at:u ~dst:v))
  in
  for u = 0 to n - 1 do
    checkb "remapped members" true
      (Vicinity.members remapped.(u) = Vicinity.members fresh.(u));
    checkf "remapped radius" (Vicinity.radius fresh.(u)) (Vicinity.radius remapped.(u));
    Array.iter
      (fun v ->
        checkb "remapped rank" true
          (Vicinity.rank remapped.(u) v = Vicinity.rank fresh.(u) v);
        checkf "remapped dist" (Vicinity.dist fresh.(u) v)
          (Vicinity.dist remapped.(u) v);
        if v <> u then begin
          let p = Vicinity.first_port fresh.(u) v in
          checki "source family untouched" p (Vicinity.first_port vics.(u) v);
          checki "remapped first_port" (shift p) (Vicinity.first_port remapped.(u) v);
          checki "remapped step" (shift p) (Vicinity.step remapped ~at:u ~dst:v)
        end)
      (Vicinity.members fresh.(u));
    if u mod 5 = 0 then
      for v = -1 to n do
        if not (Vicinity.mem fresh.(u) v) then begin
          absent "fresh" fresh u v;
          absent "remapped" remapped u v
        end
      done
  done

(* --- stretch bounds at scale (the lazy-only sizes) --- *)

(* Route a sampled workload and hold every pair to the proven
   [(alpha, beta)] guarantee; a violation fails with the offending
   (src, dst, stretch) triple. *)
let check_bounds name inst (alpha, beta) pairs =
  List.iter
    (fun ((u, v), d) ->
      let o = Scheme.route inst ~src:u ~dst:v in
      if not (Port_model.delivered o && o.Port_model.final = v) then
        Alcotest.failf "%s: (src=%d, dst=%d) not delivered" name u v;
      if o.Port_model.length > (alpha *. d) +. beta +. 1e-9 then
        Alcotest.failf
          "%s: bound violated on (src=%d, dst=%d): length %.6f > %.2f * %.6f \
           + %.2f (stretch %.4f)"
          name u v o.Port_model.length alpha d beta (o.Port_model.length /. d))
    pairs

let test_5eps_bound_lazy () =
  let g =
    Generators.with_random_weights ~seed:9 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:27 3000)
  in
  let t = Scheme5eps.preprocess ~mode:`Lazy ~seed:31 g in
  check_bounds "rt-5eps lazy n=3000" (Scheme5eps.instance t)
    (Scheme5eps.stretch_bound t)
    (Workload.sampled_pairs ~seed:5 ~sources:24 ~per_source:16 g)

let test_4km7_bound_lazy () =
  let g =
    Generators.with_random_weights ~seed:10 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:28 3000)
  in
  let t = Scheme4km7.preprocess ~mode:`Lazy ~seed:31 g ~k:3 in
  check_bounds "rt-4km7-k3 lazy n=3000" (Scheme4km7.instance t)
    (Scheme4km7.stretch_bound t)
    (Workload.sampled_pairs ~seed:5 ~sources:24 ~per_source:16 g)

let test_2eps1_bound_lazy () =
  let g = Generators.power_law ~seed:29 1500 in
  let t = Scheme2eps1.preprocess ~mode:`Lazy ~seed:31 g in
  check_bounds "rt-2eps1 lazy n=1500" (Scheme2eps1.instance t)
    (Scheme2eps1.stretch_bound t)
    (Workload.sampled_pairs ~seed:5 ~sources:24 ~per_source:16 g)

let prop_5eps_bound_random =
  qcheck ~count:10 "rt-5eps bound holds, offending pair named"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 500 in
      return (g, seed))
    (fun (g, seed) ->
      let t = Scheme5eps.preprocess ~mode:`Lazy ~seed g in
      let apsp = Apsp.compute g in
      let n = Graph.n g in
      check_bounds "rt-5eps random" (Scheme5eps.instance t)
        (Scheme5eps.stretch_bound t)
        (List.map (fun (u, v) -> ((u, v), Apsp.dist apsp u v)) (all_pairs n));
      true)

let suite =
  [
    case "rt-5eps lazy = eager, all pairs n=256" test_5eps_all_pairs;
    case "rt-5eps lazy = eager, sampled n=2000" test_5eps_sampled_2000;
    case "rt-4km7-k3 lazy = eager, all pairs n=220" test_4km7_all_pairs;
    case "rt-4km7-k3 lazy = eager, sampled n=2000" test_4km7_sampled_2000;
    case "rt-2eps1 lazy = eager, all pairs n=240" test_2eps1_all_pairs;
    prop_5eps_modes_identical;
    prop_4km7_modes_identical;
    case "packed vicinities answer like both the truncated search and the SPT"
      test_packed_vicinities_identical;
    case "rt-5eps bound on lazy tier (n=3000)" test_5eps_bound_lazy;
    case "rt-4km7-k3 bound on lazy tier (n=3000)" test_4km7_bound_lazy;
    case "rt-2eps1 bound on lazy tier (n=1500)" test_2eps1_bound_lazy;
    prop_5eps_bound_random;
    case "rt-5eps/rt-4km7-k3 lazy = eager under cache eviction"
      test_eviction_identical;
  ]
