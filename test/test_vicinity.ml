open Util
open Cr_graph
open Cr_routing

(* Whether two families over [n] vertices answer every accessor alike,
   non-members and raised exceptions included. *)
let same_answers n a b =
  let res f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e) in
  let pred v = v mod 3 = 1 in
  let row u =
    let x = a.(u) and y = b.(u) in
    let k = Vicinity.size x in
    Vicinity.source x = Vicinity.source y
    && k = Vicinity.size y
    && Vicinity.members x = Vicinity.members y
    && Vicinity.radius x = Vicinity.radius y
    && Vicinity.max_dist x = Vicinity.max_dist y
    && Vicinity.nearest_of x pred = Vicinity.nearest_of y pred
    && List.for_all
         (fun l -> Vicinity.prefix_radius x l = Vicinity.prefix_radius y l)
         (List.init (k + 2) Fun.id)
    && List.for_all
         (fun v ->
           Vicinity.mem x v = Vicinity.mem y v
           && Vicinity.rank x v = Vicinity.rank y v
           && Vicinity.dist_or_infinity x v = Vicinity.dist_or_infinity y v
           && res (fun () -> Vicinity.dist x v) = res (fun () -> Vicinity.dist y v)
           && res (fun () -> Vicinity.first_port x v)
              = res (fun () -> Vicinity.first_port y v)
           && res (fun () -> Vicinity.step a ~at:u ~dst:v)
              = res (fun () -> Vicinity.step b ~at:u ~dst:v))
         (List.init (n + 2) (fun v -> v - 1))
  in
  List.for_all row (List.init n Fun.id)

(* [prefix (compute_all g l) l'] against [compute_all g l'] for
   l' in {1, 2, l/2, l}; it must share the source family's blocks. *)
let prefix_answers_like_compute g l =
  let n = Graph.n g in
  let big = Vicinity.compute_all g l in
  List.for_all
    (fun l' ->
      let p = Vicinity.prefix big l' in
      same_answers n p (Vicinity.compute_all g l')
      && Vicinity.payload_bytes p = Vicinity.payload_bytes big)
    (List.sort_uniq compare [ 1; min l 2; max 1 (l / 2); l ])

let test_members_ordered () =
  let g = Generators.path 10 in
  let b = vicinity g 5 5 in
  checki "size" 5 (Vicinity.size b);
  checki "source first" 5 (Vicinity.members b).(0);
  (* Closest 5 of vertex 5 on a path: 5 (0), then 4 and 6 (dist 1), then 3
     and 7 (dist 2) — ties broken by id. *)
  checkb "tie-broken order" true (Vicinity.members b = [| 5; 4; 6; 3; 7 |])

let test_radius_unweighted () =
  let g = Generators.path 10 in
  (* B(5, 4) = {5,4,6,3}: distance 2 is split (3 in, 7 out), so r = 1. *)
  let b = vicinity g 5 4 in
  checkf "split distance backs off" 1.0 (Vicinity.radius b);
  let b5 = vicinity g 5 5 in
  checkf "complete distance" 2.0 (Vicinity.radius b5)

let test_radius_whole_graph () =
  let g = Generators.cycle 5 in
  let b = vicinity g 0 100 in
  checki "clamped" 5 (Vicinity.size b);
  checkf "radius = max dist" 2.0 (Vicinity.radius b)

let test_radius_tied_at_boundary () =
  (* Star-ish graph with three vertices tied exactly at the truncation
     boundary: 0-1 w=1, 0-2 w=2, 0-3 w=2, 0-4 w=2. With l=3 the vicinity
     is {0,1,2} and max_dist = 2, but vertices 3 and 4 sit at distance 2
     too — the boundary class is split, so r_0(3) must back off to 1, not
     report 2. (Lemma 7 relies on every vertex at distance <= r being a
     member.) *)
  let g =
    Graph.of_edges ~n:5 [ (0, 1, 1.0); (0, 2, 2.0); (0, 3, 2.0); (0, 4, 2.0) ]
  in
  let b3 = vicinity g 0 3 in
  checkb "members" true (Vicinity.members b3 = [| 0; 1; 2 |]);
  checkf "max_dist is the boundary" 2.0 (Vicinity.max_dist b3);
  checkf "radius backs off below the split class" 1.0 (Vicinity.radius b3);
  (* The underlying truncated search must agree: next_dist is the exact
     distance of the first excluded vertex, equal to dists.(l-1). *)
  let tr = Dijkstra.truncated g 0 3 in
  checkb "next_dist = Some 2.0" true (tr.Dijkstra.next_dist = Some 2.0);
  checkf "boundary tie" 2.0 tr.Dijkstra.dists.(2);
  (* Whole component: nothing excluded, radius reaches the far class. *)
  let b5 = vicinity g 0 5 in
  checkf "complete class keeps full radius" 2.0 (Vicinity.radius b5);
  checkb "nothing excluded" true
    ((Dijkstra.truncated g 0 5).Dijkstra.next_dist = None);
  (* prefix_radius must match a direct computation at every prefix. *)
  checkf "prefix l'=3 of l=5" 1.0 (Vicinity.prefix_radius b5 3);
  checkf "prefix l'=2 of l=5" 1.0 (Vicinity.prefix_radius b5 2);
  checkf "prefix l'=1 of l=5" 0.0 (Vicinity.prefix_radius b5 1);
  (* The prefix view cut inside the split class answers as the direct
     search does, radius included. *)
  let p = Vicinity.prefix (Vicinity.compute_all g 5) 3 in
  checkf "prefix view backs off" 1.0 (Vicinity.radius p.(0));
  checkb "prefix view = compute_all g 3" true
    (same_answers 5 p (Vicinity.compute_all g 3))

let test_dist_and_mem () =
  let g = Generators.grid 3 3 in
  let b = vicinity g 0 4 in
  checkb "source member" true (Vicinity.mem b 0);
  checkf "self distance" 0.0 (Vicinity.dist b 0);
  checkb "far corner absent" false (Vicinity.mem b 8)

let test_nearest_of () =
  let g = Generators.path 10 in
  let b = vicinity g 5 7 in
  checkb "nearest even > source" true (Vicinity.nearest_of b (fun v -> v > 5 && v mod 2 = 0) = Some 6);
  checkb "no match" true (Vicinity.nearest_of b (fun v -> v > 100) = None)

let unweighted_radius_plus_one g =
  (* Paper Section 2: on unweighted graphs d(u,w) <= r_u(l) + 1 for all
     w in B(u,l). *)
  let n = Graph.n g in
  let ok = ref true in
  List.iter
    (fun l ->
      let vic = Vicinity.compute_all g l in
      for u = 0 to n - 1 do
        let b = vic.(u) in
        Array.iter
          (fun w ->
            if Vicinity.dist b w > Vicinity.radius b +. 1.0 then ok := false)
          (Vicinity.members b)
      done)
    [ 2; 4; n ];
  !ok

let prop_radius_bound =
  qcheck ~count:60 "unweighted: member distance <= r_u + 1" arb_connected_graph
    unweighted_radius_plus_one

let property_1 g l =
  (* If v in B(u,l) and w on a shortest path u-v then v in B(w,l). *)
  let n = Graph.n g in
  let apsp = Apsp.compute g in
  let vic = Vicinity.compute_all g l in
  let ok = ref true in
  for u = 0 to n - 1 do
    Array.iter
      (fun v ->
        for w = 0 to n - 1 do
          let on_sp =
            Apsp.dist apsp u w +. Apsp.dist apsp w v
            <= Apsp.dist apsp u v +. 1e-9
          in
          if on_sp && not (Vicinity.mem vic.(w) v) then ok := false
        done)
      (Vicinity.members vic.(u))
  done;
  !ok

let prop_property_1 =
  qcheck ~count:25 "Property 1 (vicinity inheritance on shortest paths)"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* l = int_range 1 8 in
      return (g, l))
    (fun (g, l) -> property_1 g l)

let prop_property_1_weighted =
  qcheck ~count:25 "Property 1 on weighted graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 1 8 in
      return (g, l))
    (fun (g, l) -> property_1 g l)

let lemma2_route g l =
  (* Route u -> v for v in B(u,l) by repeated Vicinity.step; must follow a
     shortest path. *)
  let apsp = Apsp.compute g in
  let vic = Vicinity.compute_all g l in
  let ok = ref true in
  for u = 0 to Graph.n g - 1 do
    Array.iter
      (fun v ->
        if v <> u then begin
          let o =
            Port_model.run g ~src:u ~header:v
              ~step:(fun ~at dst ->
                if at = dst then Port_model.Deliver
                else Port_model.Forward (Vicinity.step vic ~at ~dst, dst))
              ~header_words:(fun _ -> 1)
              ()
          in
          if not ((Port_model.delivered o) && o.Port_model.final = v) then ok := false;
          if abs_float (o.Port_model.length -. Apsp.dist apsp u v) > 1e-9 then
            ok := false
        end)
      (Vicinity.members vic.(u))
  done;
  !ok

let prop_lemma2 =
  qcheck ~count:25 "Lemma 2: vicinity routing follows shortest paths"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 1 10 in
      return (g, l))
    (fun (g, l) -> lemma2_route g l)

(* Unit and weighted gnp (left disconnected, so small components are
   whole balls below l) and glp graphs; l up to n + 2, where every ball
   holds its whole component. *)
let prop_prefix =
  qcheck ~count:60 "prefix of a family answers like a fresh compute"
    QCheck2.Gen.(
      let* n = int_range 4 50 in
      let* seed = int_range 0 10_000 in
      let* glp = bool in
      let* weighted = bool in
      let* l = int_range 1 (n + 2) in
      let g =
        if glp then Generators.glp ~seed n
        else Generators.gnp ~seed n (Float.min 1.0 (2.5 /. float_of_int n))
      in
      let g =
        if weighted then Generators.with_random_weights ~seed ~lo:0.5 ~hi:4.0 g
        else g
      in
      return (g, l))
    (fun (g, l) -> prefix_answers_like_compute g l)

let suite =
  [
    case "members in (dist,id) order" test_members_ordered;
    case "radius backs off on split distance" test_radius_unweighted;
    case "ties exactly at the truncation boundary" test_radius_tied_at_boundary;
    case "radius with whole component" test_radius_whole_graph;
    case "membership and distances" test_dist_and_mem;
    case "nearest_of scans in order" test_nearest_of;
    prop_radius_bound;
    prop_property_1;
    prop_property_1_weighted;
    prop_lemma2;
    prop_prefix;
  ]
