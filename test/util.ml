(* Shared helpers for the test suites. *)
open Cr_graph

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

let case name f = Alcotest.test_case name `Quick f

(* The vicinity B(u, l): row [u] of the family [compute_all g l]. *)
let vicinity g u l = (Cr_routing.Vicinity.compute_all g l).(u)

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A small deterministic zoo of connected graphs used across suites. *)
let graph_zoo () =
  [
    ("path16", Generators.path 16);
    ("cycle9", Generators.cycle 9);
    ("grid5x7", Generators.grid 5 7);
    ("torus4x5", Generators.torus 4 5);
    ("hypercube4", Generators.hypercube 4);
    ("complete8", Generators.complete 8);
    ("star12", Generators.star 12);
    ("tree3x3", Generators.balanced_tree ~branching:3 ~depth:3);
    ("gnp40", Generators.connect ~seed:1 (Generators.gnp ~seed:7 40 0.12));
    ("ba50", Generators.barabasi_albert ~seed:3 50 2);
    ("caveman", Generators.caveman ~seed:5 ~cliques:5 ~size:6 ~rewire:0.1);
    ("rtree30", Generators.random_tree ~seed:11 30);
  ]

let weighted_zoo () =
  List.map
    (fun (name, g) ->
      (name ^ "+w", Generators.with_random_weights ~seed:13 ~lo:0.5 ~hi:4.0 g))
    (graph_zoo ())

(* Random connected graph generator for qcheck properties. *)
let arb_connected_graph =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* seed = int_range 0 10_000 in
    let* style = int_range 0 2 in
    let g =
      match style with
      | 0 ->
        Generators.connect ~seed
          (Generators.gnp ~seed n (Float.min 1.0 (3.0 /. float_of_int n)))
      | 1 -> Generators.random_tree ~seed n
      | _ -> Generators.connect ~seed (Generators.gnm ~seed n (min (2 * n) (n * (n - 1) / 2)))
    in
    return g)

let arb_weighted_connected_graph =
  QCheck2.Gen.(
    let* g = arb_connected_graph in
    let* seed = int_range 0 10_000 in
    return (Generators.with_random_weights ~seed ~lo:0.25 ~hi:8.0 g))
