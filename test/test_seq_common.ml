(* The shared sequence machinery (hop alphabet and boundary walk). *)
open Util
open Cr_graph
open Cr_routing
open Cr_core.Seq_common

let test_hop_accessors () =
  checki "via vertex" 7 (hop_vertex (Via 7));
  checki "jump vertex" 3 (hop_vertex (Jump (3, 1)));
  checki "via words" 1 (hop_words (Via 7));
  checki "jump words" 2 (hop_words (Jump (3, 1)));
  checki "seq words" 3 (seq_words [| Via 1; Jump (2, 0) |])

let test_port_between () =
  let g = Generators.path 4 in
  checki "adjacent" 1 (port_between g 1 2);
  checkb "non-edge raises" true
    (try ignore (port_between g 0 3); false with Invalid_argument _ -> true)

let test_boundary_on_path () =
  (* Path 0..9, vicinity of 0 has l = 3 members {0,1,2}; walking toward the
     SPT rooted at 9 must cut the boundary at (2, 3). *)
  let g = Generators.path 10 in
  let spt9 = Dijkstra.spt g 9 in
  let vic0 = vicinity g 0 3 in
  let y, z = boundary ~parent:(Array.get spt9.Dijkstra.parent) vic0 ~x:0 in
  checki "inside endpoint" 2 y;
  checki "outside endpoint" 3 z

let test_boundary_requires_outside_root () =
  let g = Generators.path 4 in
  let spt3 = Dijkstra.spt g 3 in
  let vic0 = vicinity g 0 4 in
  (* 3 is inside B(0,4): the walk runs past the root and must complain. *)
  checkb "raises" true
    (try ignore (boundary ~parent:(Array.get spt3.Dijkstra.parent) vic0 ~x:0); false
     with Invalid_argument _ -> true)

let prop_boundary_straddles =
  qcheck ~count:40 "boundary returns an edge straddling the vicinity"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 1 10 in
      return (g, l))
    (fun (g, l) ->
      let n = Graph.n g in
      let ok = ref true in
      let vic = Vicinity.compute_all g l in
      for dst = 0 to min 4 (n - 1) do
        let spt = Dijkstra.spt g dst in
        for x = 0 to n - 1 do
          let vic_x = vic.(x) in
          if x <> dst && not (Vicinity.mem vic_x dst) then begin
            let y, z = boundary ~parent:(Array.get spt.Dijkstra.parent) vic_x ~x in
            if not (Vicinity.mem vic_x y) then ok := false;
            if Vicinity.mem vic_x z then ok := false;
            if not (Graph.has_edge g y z) then ok := false;
            (* both endpoints on the tree path from x to dst *)
            let path = Dijkstra.path_from spt x in
            if not (List.mem y path && List.mem z path) then ok := false
          end
        done
      done;
      !ok)

let test_vicinity_words () =
  let g = Generators.path 5 in
  let b = vicinity g 2 3 in
  checki "3 words per entry" 9 (vicinity_words b)

let suite =
  [
    case "hop accessors" test_hop_accessors;
    case "port_between" test_port_between;
    case "boundary on a path" test_boundary_on_path;
    case "boundary rejects inside destinations" test_boundary_requires_outside_root;
    prop_boundary_straddles;
    case "vicinity word accounting" test_vicinity_words;
  ]
