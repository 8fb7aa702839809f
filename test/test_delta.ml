open Util
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Graph.apply_delta: structural identity with a naive re-build         *)
(* ------------------------------------------------------------------ *)

let arb_graph_and_seed =
  QCheck2.Gen.(
    let* g = arb_weighted_connected_graph in
    let* seed = int_range 0 10_000 in
    return (g, seed))

(* Two CSR graphs are the same iff every array matches — this is the
   "structurally identical, same ports everywhere" contract, stronger
   than edge-set equality. *)
let same_graph a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b && Graph.csr a = Graph.csr b

(* The obviously-correct model: edit the edge list, rebuild from scratch. *)
let edited_edges g ops =
  let key u v = if u < v then (u, v) else (v, u) in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (u, v, w) -> Hashtbl.replace tbl (key u v) w) (Graph.edges g);
  List.iter
    (function
      | Graph.Insert (u, v, w) -> Hashtbl.replace tbl (key u v) w
      | Graph.Remove (u, v) -> Hashtbl.remove tbl (key u v)
      | Graph.Reweight (u, v, w) -> Hashtbl.replace tbl (key u v) w)
    ops;
  Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) tbl []

let prop_matches_of_edges (g, seed) =
  let ops = Delta.random ~seed ~size:8 g in
  same_graph
    (Graph.apply_delta g ops)
    (Graph.of_edges ~n:(Graph.n g) (edited_edges g ops))

(* Vertices not incident to a structural op keep their port slice
   verbatim: same degree, same endpoint behind every port. *)
let prop_untouched_ports_preserved (g, seed) =
  let ops = Delta.random ~seed ~size:6 g in
  let d = Delta.classify g ops in
  let g' = Delta.new_graph d in
  let ok = ref true in
  for u = 0 to Graph.n g - 1 do
    if not (Delta.ports_shifted d u) then
      if Graph.degree g u <> Graph.degree g' u then ok := false
      else
        for p = 0 to Graph.degree g u - 1 do
          if Graph.endpoint g u p <> Graph.endpoint g' u p then ok := false
        done
  done;
  !ok

(* Delta.random promises to keep a connected graph connected (so the
   repaired catalog can always be rebuilt on its output). *)
let prop_random_preserves_connectivity (g, seed) =
  let g' = Graph.apply_delta g (Delta.random ~seed ~size:10 g) in
  Array.for_all (fun c -> c = 0) (Bfs.components g')

(* ------------------------------------------------------------------ *)
(* Degenerate deltas                                                    *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_degenerate () =
  let g = Generators.path 4 in
  checkb "empty batch returns the graph itself, physically" true
    (Graph.apply_delta g [] == g);
  checkb "insert of a present edge rejected" true
    (raises_invalid (fun () -> Graph.apply_delta g [ Graph.Insert (1, 0, 1.0) ]));
  checkb "remove of an absent edge rejected" true
    (raises_invalid (fun () -> Graph.apply_delta g [ Graph.Remove (0, 3) ]));
  checkb "reweight of an absent edge rejected" true
    (raises_invalid (fun () ->
         Graph.apply_delta g [ Graph.Reweight (0, 2, 2.0) ]));
  checkb "self-loop rejected" true
    (raises_invalid (fun () -> Graph.apply_delta g [ Graph.Insert (2, 2, 1.0) ]));
  checkb "non-positive weight rejected" true
    (raises_invalid (fun () -> Graph.apply_delta g [ Graph.Insert (0, 2, 0.0) ]));
  checkb "out-of-range endpoint rejected" true
    (raises_invalid (fun () -> Graph.apply_delta g [ Graph.Insert (0, 9, 1.0) ]));
  checkb "two ops on one unordered pair rejected" true
    (raises_invalid (fun () ->
         Graph.apply_delta g [ Graph.Remove (1, 2); Graph.Insert (2, 1, 1.0) ]));
  (* A disconnecting removal is legal at the graph layer — only
     Delta.random filters them out. *)
  let cut = Graph.apply_delta g [ Graph.Remove (1, 2) ] in
  let comps = Bfs.components cut in
  checkb "disconnecting removal splits the graph" true (comps.(0) <> comps.(3))

let test_classification () =
  let g =
    Generators.with_random_weights ~seed:2 ~lo:0.5 ~hi:2.0 (Generators.path 4)
  in
  let w01 = Option.get (Graph.edge_weight g 0 1) in
  checkb "equal-weight reweight classifies as empty" true
    (Delta.is_empty (Delta.classify g [ Graph.Reweight (0, 1, w01) ]));
  let d = Delta.classify g [ Graph.Reweight (0, 1, w01 +. 1.0) ] in
  checkb "weight increase is not empty" true (not (Delta.is_empty d));
  checkb "pure reweight batch is not structural" true (not (Delta.structural d));
  checkb "reweight shifts no ports" true
    (not (Delta.ports_shifted d 0 || Delta.ports_shifted d 1));
  checkb "weight increase is removal-like, with its old weight" true
    (Delta.removals d = [ (0, 1, w01) ] && Delta.inserts d = []);
  let d2 = Delta.classify g [ Graph.Reweight (0, 1, w01 /. 2.0) ] in
  checkb "weight decrease is insert-like" true
    (Delta.removals d2 = [] && Delta.inserts d2 = [ (0, 1, w01 /. 2.0) ]);
  (* A graph with float32 weights stores every weight rounded; the recorded
     weights are the stored ones. 1 + 2^-30 rounds to 1 in float32. *)
  let g32 = Graph.pack ~float32:true (Generators.path 4) in
  let w = 1.0 +. ldexp 1.0 (-30) in
  checkb "float32: reweight rounding to the old weight is empty" true
    (Delta.is_empty (Delta.classify g32 [ Graph.Reweight (0, 1, w) ]));
  checkb "float32: an insert records its stored weight" true
    (Delta.inserts (Delta.classify g32 [ Graph.Insert (0, 2, w) ])
     = [ (0, 2, 1.0) ])

(* ------------------------------------------------------------------ *)
(* Vicinity invalidation: every carried ball equals a fresh compute     *)
(* ------------------------------------------------------------------ *)

(* Members (in order), distances, first ports and radius. *)
let same_vicinity a b =
  let ms = Vicinity.members a in
  ms = Vicinity.members b
  && Vicinity.radius a = Vicinity.radius b
  && Array.for_all
       (fun v ->
         Vicinity.dist a v = Vicinity.dist b v
         && (v = Vicinity.source a
            || Vicinity.first_port a v = Vicinity.first_port b v))
       ms

(* One handle holding the families of sizes [ls], invalidated across
   [ops]: whether every family the new handle carries equals
   [Vicinity.compute_all] on the new graph, and how many vicinities it
   kept rather than recomputed. *)
let carried_fresh g ls ops =
  let sub = Substrate.create g in
  List.iter (fun l -> ignore (Substrate.vicinities sub l)) ls;
  let sub', inv = Substrate.invalidate sub ops in
  let g' = Substrate.graph sub' in
  let ok =
    List.for_all
      (fun l ->
        Array.for_all2 same_vicinity (Substrate.vicinities sub' l)
          (Vicinity.compute_all g' l))
      ls
  in
  (ok, inv.Substrate.vicinity_reused)

(* l in {1, 2, small, n-1, n}. *)
let sizes n = List.sort_uniq compare [ 1; 2; min 5 n; max 1 (n - 1); n ]

(* The graph's weights as stored: float64, and float32 (where searches
   sum the rounded weights). *)
let reprs g = [ ("float64", g); ("float32", Graph.pack ~float32:true g) ]

let arb_invalidation_case =
  QCheck2.Gen.(
    let* g = oneof [ arb_connected_graph; arb_weighted_connected_graph ] in
    let* repr = int_range 0 1 in
    let* seed = int_range 0 10_000 in
    let* size = int_range 1 8 in
    return (snd (List.nth (reprs g) repr), seed, size))

let prop_carried_fresh (g, seed, size) =
  let ops = Delta.random ~seed ~size g in
  fst (carried_fresh g (sizes (Graph.n g)) ops)

(* The deltas the rule's proof cases turn on, each on a small graph where
   it decides a ball: a tying insert (parent flip), an insert chain, a
   boundary-tie removal (radius), a bridge cut, a component join (a
   whole-component ball), tree-edge reweights, ops at the ball's own
   source (port remapping), and an insert that ties only once float32
   storage rounds its weight (2 + 2^-30 is stored as 2). *)
let invalidation_cases () =
  let unit es = Graph.of_edges (List.map (fun (u, v) -> (u, v, 1.0)) es) in
  let path k = List.init (k - 1) (fun i -> (i, i + 1)) in
  let weighted =
    Graph.of_edges
      [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 1.0); (0, 3, 5.0); (3, 4, 1.5) ]
  in
  [
    ( "tying insert flips a parent",
      unit [ (0, 1); (0, 2); (2, 3); (3, 4); (4, 5) ],
      [ Graph.Insert (1, 3, 1.0) ] );
    ( "insert chain",
      Graph.of_edges (List.map (fun (u, v) -> (u, v, 1.0)) (path 10)),
      [ Graph.Insert (0, 4, 0.5); Graph.Insert (4, 8, 0.5) ] );
    ( "removal of a boundary tie",
      unit [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ],
      [ Graph.Remove (0, 2) ] );
    ("bridge cut", unit (path 8), [ Graph.Remove (3, 4) ]);
    ( "component join",
      Graph.of_edges [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0) ],
      [ Graph.Insert (2, 3, 5.0) ] );
    ("tree-edge weight increase", weighted, [ Graph.Reweight (1, 2, 4.0) ]);
    ("tree-edge weight decrease", weighted, [ Graph.Reweight (2, 3, 0.5) ]);
    ( "ops at the source",
      Graph.of_edges
        [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0); (2, 4, 9.0) ],
      [ Graph.Insert (2, 0, 10.0); Graph.Remove (2, 4) ] );
    ( "insert tying after float32 rounding",
      unit [ (0, 1); (1, 2); (2, 3) ],
      [ Graph.Insert (0, 2, 2.0 +. ldexp 1.0 (-30)) ] );
  ]

let test_invalidation_cases () =
  let kept = ref 0 in
  List.iter
    (fun (name, g, ops) ->
      List.iter
        (fun (repr, g) ->
          let ok, k = carried_fresh g (sizes (Graph.n g)) ops in
          kept := !kept + k;
          checkb (Printf.sprintf "%s (%s graph): carried = fresh" name repr) true ok)
        (reprs g))
    (invalidation_cases ());
  checkb "some vicinities are kept" true (!kept > 0)

(* The reuse the ball test buys, pinned: a weighted GLP graph, two
   families, one 4-op batch. Dropping every ball whose radius reaches a
   delta endpoint (a distance cone) keeps 13 of these 800. *)
let test_reuse_pin () =
  let g =
    Generators.with_random_weights ~seed:1 ~lo:1.0 ~hi:8.0
      (Generators.glp ~seed:1 400)
  in
  let ops = Delta.random ~seed:2 ~size:4 g in
  let ok, kept = carried_fresh g [ 61; 62 ] ops in
  checkb "carried = fresh" true ok;
  checki "vicinities kept" 394 kept

(* ------------------------------------------------------------------ *)
(* spt_affected / patch_tree: kept trees equal a fresh Dijkstra          *)
(* ------------------------------------------------------------------ *)

let test_spt_keep_patch () =
  let kept = ref 0 in
  List.iter
    (fun (name, g) ->
      (* size 2 keeps the dirty region small enough that some trees
         survive on every zoo topology. *)
      let ops = Delta.random ~seed:7 ~size:2 g in
      let d = Delta.classify g ops in
      let g' = Delta.new_graph d in
      for u = 0 to Graph.n g - 1 do
        let t = Dijkstra.spt g u in
        if not (Delta.spt_affected d t) then begin
          incr kept;
          let p = Delta.patch_tree g' t in
          let f = Dijkstra.spt g' u in
          let same =
            p.Dijkstra.source = f.Dijkstra.source
            && Array.to_list p.Dijkstra.dist = Array.to_list f.Dijkstra.dist
            && Array.to_list p.Dijkstra.parent = Array.to_list f.Dijkstra.parent
            && Array.to_list p.Dijkstra.parent_port
               = Array.to_list f.Dijkstra.parent_port
            && Array.to_list p.Dijkstra.first_port
               = Array.to_list f.Dijkstra.first_port
            && Array.to_list p.Dijkstra.order = Array.to_list f.Dijkstra.order
          in
          checkb
            (Printf.sprintf "%s: kept tree at %d equals fresh spt" name u)
            true same
        end
      done)
    (weighted_zoo ());
  checkb "some trees survive across the zoo" true (!kept > 0)

(* ------------------------------------------------------------------ *)
(* Catalog.repair: bit-identical routing vs a fresh build               *)
(* ------------------------------------------------------------------ *)

let build_warm entries ~seed ~eps g =
  let substrate = Substrate.create g in
  let instances =
    List.map
      (fun (e : Catalog.entry) ->
        fst (e.Catalog.build ~substrate ~seed ~eps g))
      entries
  in
  (substrate, instances)

(* The cheap qcheck version: small catalog, serial pool, random graphs. *)
let prop_repair_identical (g, seed) =
  let entries = List.filter_map Catalog.find [ "tz-k2"; "rt-3eps" ] in
  let eps = 0.5 in
  let substrate, _ = build_warm entries ~seed:23 ~eps g in
  let ops = Delta.random ~seed ~size:4 g in
  let rep = Catalog.repair ~entries ~substrate ~seed:23 ~eps ops in
  let g' = rep.Catalog.graph in
  let apsp' = Apsp.compute g' in
  let _, fresh = build_warm entries ~seed:23 ~eps g' in
  let pairs = Scheme.sample_pairs ~seed ~n:(Graph.n g') ~count:150 in
  List.for_all2
    (fun (_, ri, _) fi ->
      Scheme.evaluate_batch ~fast:true ri apsp' pairs
      = Scheme.evaluate_batch ~fast:true fi apsp' pairs)
    rep.Catalog.instances fresh

(* The thorough fixture version: wider catalog (incl. a resilient
   wrapper), serial and 4-domain pools, healthy and faulty plans, plus
   the deadline fallback. *)
let test_repair_identity () =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 60 0.08) in
  let entries =
    List.filter_map Catalog.find [ "full"; "tz-k2"; "rt-3eps"; "tz-k2+res" ]
  in
  checki "fixture entries resolved" 4 (List.length entries);
  let seed = 23 and eps = 0.5 in
  let substrate, _ = build_warm entries ~seed ~eps g in
  let ops = Delta.random ~seed:41 ~size:6 g in
  checkb "delta batch nonempty" true (ops <> []);
  let rep = Catalog.repair ~entries ~substrate ~seed ~eps ops in
  checkb "incremental path taken" true (not rep.Catalog.full_rebuild);
  (match rep.Catalog.invalidation with
  | None -> Alcotest.fail "incremental repair must report invalidation"
  | Some inv ->
    checkb "every cached structure is accounted reused or dropped" true
      (Substrate.reused inv + Substrate.dropped inv > 0));
  let g' = rep.Catalog.graph in
  let apsp' = Apsp.compute g' in
  let _, fresh = build_warm entries ~seed ~eps g' in
  let pairs = Scheme.sample_pairs ~seed:77 ~n:(Graph.n g') ~count:400 in
  let plan = Fault.compile (Fault.spec ~seed:31 ~link_failure_rate:0.05 ()) g' in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  List.iter2
    (fun ((e : Catalog.entry), ri, _) fi ->
      List.iter
        (fun (pool, faults) ->
          let a = Scheme.evaluate_batch ~pool ?faults ~fast:true ri apsp' pairs in
          let b = Scheme.evaluate_batch ~pool ?faults ~fast:true fi apsp' pairs in
          checkb (e.Catalog.id ^ ": repaired routes bit-identically to fresh")
            true (a = b))
        [ (pool1, None); (pool4, None); (pool1, Some plan); (pool4, Some plan) ])
    rep.Catalog.instances fresh;
  (* A non-positive deadline must degrade to the full-rebuild fallback —
     same answers, different path. *)
  let sub2, _ = build_warm entries ~seed ~eps g in
  let full =
    Catalog.repair ~deadline:0.0 ~entries ~substrate:sub2 ~seed ~eps ops
  in
  checkb "non-positive deadline degrades to full rebuild" true
    full.Catalog.full_rebuild;
  checkb "fallback reports no invalidation" true
    (Option.is_none full.Catalog.invalidation);
  List.iter2
    (fun (_, ri, _) (_, fi, _) ->
      checkb "fallback instances route identically" true
        (Scheme.evaluate_batch ~pool:pool1 ~fast:true ri apsp' pairs
        = Scheme.evaluate_batch ~pool:pool1 ~fast:true fi apsp' pairs))
    rep.Catalog.instances full.Catalog.instances

(* Scheme states (the TZ state tz-k and rt-4km7-k share) hold the graph
   they were built on, so every delta drops them, an equal-weight one too:
   the new handle misses, the invalidation record counts them, and a
   repair builds the TZ part once for the pair. *)
let test_scheme_state_dropped () =
  let g =
    Generators.with_random_weights ~seed:5 ~lo:1.0 ~hi:8.0
      (Generators.glp ~seed:5 120)
  in
  let entries = List.filter_map Catalog.find [ "tz-k2"; "tz-k3"; "rt-4km7-k3" ] in
  let seed = 23 and eps = 0.5 in
  let u, v, w = List.hd (Graph.edges g) in
  List.iter
    (fun (name, ops) ->
      let substrate, _ = build_warm entries ~seed ~eps g in
      let sub', inv = Substrate.invalidate substrate ops in
      checki (name ^ ": both TZ states dropped") 2
        inv.Substrate.scheme_state_dropped;
      checkb (name ^ ": and reported") true
        (List.mem ("scheme-state", 0, 2) (Substrate.invalidation_rows inv));
      let e = List.nth entries 1 in
      ignore (e.Catalog.build ~substrate:sub' ~seed ~eps (Substrate.graph sub'));
      let st = Substrate.stats sub' in
      checki (name ^ ": the new handle misses") 1
        st.Substrate.scheme_state_misses;
      checki (name ^ ": and has nothing to hit") 0
        st.Substrate.scheme_state_hits)
    [
      ("4-op delta", Delta.random ~seed:41 ~size:4 g);
      ("equal-weight reweight", [ Graph.Reweight (u, v, w) ]);
    ];
  let substrate, _ = build_warm entries ~seed ~eps g in
  let rep =
    Catalog.repair ~entries ~substrate ~seed ~eps
      (Delta.random ~seed:41 ~size:4 g)
  in
  let st = Substrate.stats rep.Catalog.substrate in
  check
    Alcotest.(pair int int)
    "a repair builds each TZ state once" (1, 2)
    (st.Substrate.scheme_state_hits, st.Substrate.scheme_state_misses)

(* ------------------------------------------------------------------ *)
(* serve under topology churn: epochs, stale windows, hot swaps         *)
(* ------------------------------------------------------------------ *)

let run_topo_serve ~domains =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 60 0.08) in
  let entries = List.filter_map Catalog.find [ "tz-k2"; "rt-3eps"; "tz-k2+res" ] in
  let seed = 23 and eps = 0.5 in
  let substrate, instances = build_warm entries ~seed ~eps g in
  let apsp = Apsp.compute g in
  let cur_sub = ref substrate in
  let repairer _g ops =
    let r = Catalog.repair ~entries ~substrate:!cur_sub ~seed ~eps ops in
    cur_sub := r.Catalog.substrate;
    let reused, dropped =
      match r.Catalog.invalidation with
      | Some inv -> (Substrate.reused inv, Substrate.dropped inv)
      | None -> (0, 0)
    in
    {
      Traffic.sw_graph = r.Catalog.graph;
      sw_instances = List.map (fun (_, i, _) -> i) r.Catalog.instances;
      sw_apsp = Apsp.compute r.Catalog.graph;
      sw_wall = r.Catalog.wall;
      sw_full_rebuild = r.Catalog.full_rebuild;
      sw_reused = reused;
      sw_dropped = dropped;
    }
  in
  let topo = Traffic.topo_cycle ~seed:63 ~every:300 ~budget:900 ~ops:4 in
  checki "two topo events inside the budget" 2 (List.length topo);
  let t = Traffic.create ~zipf:0.8 ~seed:5 ~n:60 () in
  let pool = Pool.create ~domains () in
  let report =
    Traffic.serve ~pool ~topo ~repairer ~chunk:7 ~pace:false t ~budget:900
      ~instances ~apsp
  in
  (pool, report)

let test_serve_topo_churn () =
  let pool, report = run_topo_serve ~domains:1 in
  checki "all queries routed" 900 report.Traffic.routed;
  checki "three epochs" 3 (List.length report.Traffic.epochs);
  checki "served concatenates one list per instance per epoch" 9
    (List.length report.Traffic.served);
  let seg_pairs = ref 0 and stale = ref 0 in
  List.iteri
    (fun i (ep : Traffic.epoch) ->
      checki "epochs are chronological" i ep.Traffic.index;
      stale := !stale + ep.Traffic.stale_queries;
      if i = 0 then begin
        checkb "epoch 0 opens with no delta" true (ep.Traffic.ops = []);
        checki "epoch 0 starts at query 0" 0 ep.Traffic.started_at;
        checki "epoch 0 has no staleness window" 0 ep.Traffic.stale_queries
      end
      else begin
        checkb "churn epoch carries its delta" true (ep.Traffic.ops <> []);
        checkb "epoch starts after its event" true
          (ep.Traffic.started_at >= i * 300);
        (* Unpaced staleness window = one round of chunks. *)
        checki "stale window is one round of chunks" 21
          ep.Traffic.stale_queries;
        match ep.Traffic.stale_eval with
        | None -> Alcotest.fail "churn epoch must evaluate its stale window"
        | Some ev ->
          checkb "delivery never stops during the repair" true
            (Array.length ev.Scheme.samples > 0)
      end;
      (* Replaying any epoch segment against that epoch's own oracle must
         reproduce the recorded eval bit for bit. *)
      List.iter
        (fun (s : Traffic.served) ->
          List.iter
            (fun (sg : Traffic.segment) ->
              seg_pairs := !seg_pairs + List.length sg.Traffic.pairs;
              let fresh =
                Scheme.evaluate_batch ~pool ?faults:sg.Traffic.plan ~fast:true
                  s.Traffic.instance ep.Traffic.apsp sg.Traffic.pairs
              in
              checkb "epoch segment matches evaluate_batch on its oracle" true
                (fresh = sg.Traffic.eval))
            s.Traffic.segments)
        ep.Traffic.served)
    report.Traffic.epochs;
  checki "every query lands in a segment or a staleness window" 900
    (!seg_pairs + !stale)

let test_serve_topo_domain_independent () =
  let _, r1 = run_topo_serve ~domains:1 in
  let _, r4 = run_topo_serve ~domains:4 in
  checki "same routed count" r1.Traffic.routed r4.Traffic.routed;
  List.iter2
    (fun (a : Traffic.epoch) (b : Traffic.epoch) ->
      checki "same epoch start" a.Traffic.started_at b.Traffic.started_at;
      checki "same stale window" a.Traffic.stale_queries b.Traffic.stale_queries;
      checkb "same repair path" true
        (a.Traffic.full_rebuild = b.Traffic.full_rebuild);
      checki "same reuse accounting" a.Traffic.reused b.Traffic.reused;
      checkb "bit-identical stale evals" true
        (a.Traffic.stale_eval = b.Traffic.stale_eval);
      List.iter2
        (fun (sa : Traffic.served) (sb : Traffic.served) ->
          List.iter2
            (fun (ga : Traffic.segment) (gb : Traffic.segment) ->
              checkb "same pair stream" true (ga.Traffic.pairs = gb.Traffic.pairs);
              checkb "bit-identical evals across domain counts" true
                (ga.Traffic.eval = gb.Traffic.eval))
            sa.Traffic.segments sb.Traffic.segments)
        a.Traffic.served b.Traffic.served)
    r1.Traffic.epochs r4.Traffic.epochs

let suite =
  [
    qcheck ~count:75 "apply_delta equals of_edges over the edited list"
      arb_graph_and_seed prop_matches_of_edges;
    qcheck ~count:75 "untouched vertices keep their ports verbatim"
      arb_graph_and_seed prop_untouched_ports_preserved;
    qcheck ~count:50 "Delta.random keeps the graph connected"
      arb_graph_and_seed prop_random_preserves_connectivity;
    case "degenerate deltas" test_degenerate;
    case "delta classification" test_classification;
    qcheck ~count:200 "invalidated vicinities equal a fresh compute"
      arb_invalidation_case prop_carried_fresh;
    case "vicinity invalidation: ties, chains, cuts, joins, reweights"
      test_invalidation_cases;
    case "vicinity reuse pin: weighted GLP, one 4-op batch" test_reuse_pin;
    case "kept trees equal a fresh Dijkstra after patching"
      test_spt_keep_patch;
    qcheck ~count:10 "repair routes bit-identically to a fresh build"
      arb_graph_and_seed prop_repair_identical;
    case "repair identity: pools, faults and the deadline fallback"
      test_repair_identity;
    case "every delta drops the scheme states" test_scheme_state_dropped;
    case "serve under topology churn" test_serve_topo_churn;
    case "topo-churn serve is domain-count independent"
      test_serve_topo_domain_independent;
  ]
