(* Lemma 8: (1+eps)-stretch routing from U_i to W_i with doubling-threshold
   subsequences. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Color the vicinity family (so every B(u,l) contains every part), then
   spread a destination set W across the parts — the Theorem 11 usage. *)
let make_instance ?(eps = 0.5) ~seed ~dest_fraction g =
  let n = Graph.n g in
  let q = max 1 (int_of_float (sqrt (float_of_int n))) in
  let l = min n (max (2 * q) 4) in
  let vic = Vicinity.compute_all g l in
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  match Coloring.make ~seed ~n ~colors:q sets with
  | Error e -> Alcotest.fail ("coloring: " ^ e)
  | Ok c ->
    let st = Random.State.make [| seed; 0xd5 |] in
    let dest_pool =
      List.init n Fun.id
      |> List.filter (fun _ -> Random.State.float st 1.0 < dest_fraction)
    in
    let dest_pool = if dest_pool = [] then [ n - 1 ] else dest_pool in
    (* Arbitrary partition of the destination pool into q parts. *)
    let dests = Array.make q [] in
    List.iteri (fun i w -> dests.(i mod q) <- w :: dests.(i mod q)) dest_pool;
    let dests = Array.map Array.of_list dests in
    let t =
      Seq_routing2.preprocess ~eps g ~vicinities:vic ~parts:c.classes
        ~part_of:c.color ~dests
    in
    (t, c, dests)

let check_pairs ?(eps = 0.5) g (t, (c : Coloring.t), dests) =
  let apsp = Apsp.compute g in
  let ok = ref true in
  Array.iteri
    (fun j part ->
      Array.iter
        (fun u ->
          Array.iter
            (fun w ->
              if u <> w then begin
                let o = Seq_routing2.route t ~src:u ~dst:w in
                if not ((Port_model.delivered o) && o.Port_model.final = w) then
                  ok := false
                else begin
                  let d = Apsp.dist apsp u w in
                  if o.Port_model.length > ((1.0 +. eps) *. d) +. 1e-9 then
                    ok := false
                end
              end)
            dests.(j))
        part)
    c.classes;
  !ok

let test_zoo_unweighted () =
  List.iter
    (fun (name, g) ->
      let inst = make_instance ~seed:41 ~dest_fraction:0.3 g in
      checkb (name ^ " within 1+eps") true (check_pairs g inst))
    (graph_zoo ())

let test_zoo_weighted () =
  List.iter
    (fun (name, g) ->
      let inst = make_instance ~seed:43 ~dest_fraction:0.3 g in
      checkb (name ^ " within 1+eps") true (check_pairs g inst))
    (weighted_zoo ())

let test_all_destinations () =
  (* W = V: every vertex is a destination of some part. *)
  let g = Generators.torus 5 5 in
  let inst = make_instance ~seed:47 ~dest_fraction:1.1 g in
  checkb "W = V" true (check_pairs g inst)

let test_tight_eps () =
  let g = Generators.grid 6 5 in
  let inst = make_instance ~eps:0.2 ~seed:53 ~dest_fraction:0.4 g in
  checkb "eps=0.2 honored" true (check_pairs ~eps:0.2 g inst)

let test_extreme_weights () =
  (* Large normalized diameter: exercises many doubling subsequences. *)
  let g =
    Generators.with_random_weights ~seed:59 ~lo:0.01 ~hi:50.0
      (Generators.connect ~seed:2 (Generators.gnp ~seed:61 40 0.1))
  in
  let inst = make_instance ~seed:67 ~dest_fraction:0.5 g in
  checkb "wide weight range" true (check_pairs g inst)

let test_sequence_length_logarithmic () =
  let g =
    Generators.with_random_weights ~seed:71 ~lo:1.0 ~hi:64.0
      (Generators.torus 6 6)
  in
  let t, _, _ = make_instance ~eps:0.5 ~seed:73 ~dest_fraction:0.5 g in
  let b = 1 + int_of_float (ceil (2.0 /. 0.5)) in
  (* <= 2b log2(Mn) + 2 entries (paper), M <= 64 here. *)
  let bound = (2 * b * int_of_float (ceil (log (64.0 *. 36.0) /. log 2.0))) + 2 in
  checkb "sequence length O((1/eps) log D)" true
    (Seq_routing2.max_sequence_hops t <= bound)

let test_relays_fire_on_long_cycles () =
  (* On a high-diameter graph with small vicinities the sequences must be
     re-injected through relay vertices (Claim 9); with eps = 1 the relays
     produce measurably non-exact — but still (1+eps)-bounded — routes. *)
  let g =
    Generators.with_random_weights ~seed:3 ~lo:1.0 ~hi:2.0 (Generators.cycle 200)
  in
  let n = Graph.n g in
  let q = 6 and l = 12 in
  let vic = Vicinity.compute_all g l in
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  match Coloring.make ~seed:5 ~n ~colors:q sets with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let dests = Array.make q [] in
    List.iteri
      (fun i w -> if i mod 3 = 0 then dests.(i mod q) <- w :: dests.(i mod q))
      (List.init n Fun.id);
    let dests = Array.map Array.of_list dests in
    let t =
      Seq_routing2.preprocess ~eps:1.0 g ~vicinities:vic ~parts:c.classes
        ~part_of:c.color ~dests
    in
    let apsp = Apsp.compute g in
    let non_exact = ref 0 and ok = ref true in
    Array.iteri
      (fun j part ->
        Array.iter
          (fun u ->
            Array.iter
              (fun w ->
                if u <> w then begin
                  let o = Seq_routing2.route t ~src:u ~dst:w in
                  let d = Apsp.dist apsp u w in
                  if not (Port_model.delivered o) then ok := false;
                  if o.Port_model.length > (2.0 *. d) +. 1e-9 then ok := false;
                  if o.Port_model.length > d +. 1e-9 then incr non_exact
                end)
              dests.(j))
          part)
      c.classes;
    checkb "all delivered within 1+eps" true !ok;
    checkb "relays produced non-exact routes" true (!non_exact > 0);
    (* Long sequences: many doubling subsequences were needed. *)
    checkb "sequences grew" true (Seq_routing2.max_sequence_hops t > 12)

let test_missing_pair_raises () =
  let g = Generators.path 8 in
  let vic = Vicinity.compute_all g 4 in
  let t =
    Seq_routing2.preprocess g ~vicinities:vic
      ~parts:[| Array.init 8 Fun.id |]
      ~part_of:(Array.make 8 0) ~dests:[| [| 7 |] |]
  in
  checkb "unknown destination rejected" true
    (try ignore (Seq_routing2.route t ~src:0 ~dst:5); false
     with Not_found -> true)

let prop_random_graphs =
  qcheck ~count:15 "Lemma 8 on random connected graphs"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* seed = int_range 0 1000 in
      return (g, seed))
    (fun (g, seed) ->
      let inst = make_instance ~seed ~dest_fraction:0.4 g in
      check_pairs g inst)

let prop_random_weighted =
  qcheck ~count:15 "Lemma 8 on random weighted graphs"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* seed = int_range 0 1000 in
      return (g, seed))
    (fun (g, seed) ->
      let inst = make_instance ~seed ~dest_fraction:0.4 g in
      check_pairs g inst)

(* The lazy store keeps only a destination tree's parents and re-derives
   distances along them. They must equal Dijkstra's bit for bit, which
   pins the summation order: root outward, as the search relaxed. *)
let same_bits a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let test_rederived_order () =
  (* From root 0, (0.1 +. 0.2) +. 0.3 <> 0.1 +. (0.2 +. 0.3). *)
  let g = Graph.of_edges [ (0, 1, 0.1); (1, 2, 0.2); (2, 3, 0.3) ] in
  checkb "root-outward sums" true
    (same_bits
       (Seq_common.For_testing.rederived_dists g 0)
       (Dijkstra.spt g 0).Dijkstra.dist)

let prop_rederived_dists =
  qcheck ~count:40 "lazy store re-derives tree distances bit for bit"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* float32 = bool in
      return (Graph.pack ~float32 g))
    (fun g ->
      List.for_all
        (fun w ->
          same_bits
            (Seq_common.For_testing.rederived_dists g w)
            (Dijkstra.spt g w).Dijkstra.dist)
        (List.init (min 5 (Graph.n g)) Fun.id))

let suite =
  [
    case "unweighted zoo" test_zoo_unweighted;
    case "weighted zoo" test_zoo_weighted;
    case "every vertex a destination" test_all_destinations;
    case "tight eps (0.2)" test_tight_eps;
    case "extreme weight range" test_extreme_weights;
    case "sequences stay O((1/eps) log D)" test_sequence_length_logarithmic;
    case "relays (Claim 9) fire on long cycles" test_relays_fire_on_long_cycles;
    case "unknown destination raises" test_missing_pair_raises;
    prop_random_graphs;
    prop_random_weighted;
    case "re-derived distances sum root outward" test_rederived_order;
    prop_rederived_dists;
  ]
