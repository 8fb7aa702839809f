open Cr_graph
open Cr_routing

(* [graph] is a [Graph.t] in [t] and [()] in [frozen]. *)
type 'g state = {
  graph : 'g;
  next_port : int array array; (* next_port.(u).(v) = port of u toward v *)
}

type t = Graph.t state

let preprocess ?substrate g =
  Apsp.guard_quadratic ~who:"Full_tables.preprocess" (Graph.n g);
  if not (Bfs.is_connected g) then
    invalid_arg "Full_tables.preprocess: graph must be connected";
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  (* The SPT from v gives, at every u, the first edge toward v by walking
     u's parent pointer (the tree is rooted at v). *)
  let next_port = Array.make_matrix n n (-1) in
  for v = 0 to n - 1 do
    let t = Substrate.spt sub v in
    for u = 0 to n - 1 do
      if u <> v then begin
        let p = t.Dijkstra.parent.(u) in
        match Graph.port_to g u p with
        | Some port -> next_port.(u).(v) <- port
        | None -> assert false
      end
    done
  done;
  { graph = g; next_port }

let step t ~at dst =
  if at = dst then Port_model.Deliver
  else Port_model.Forward (t.next_port.(at).(dst), dst)

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  Port_model.run t.graph ~src ~header:dst ?faults
    ~step:(fun ~at h -> step t ~at h)
    ~header_words:(fun _ -> 1)
    ?record_path ?detect_loops ()

let instance t =
  let n = Graph.n t.graph in
  {
    Scheme.name = "full-tables";
    graph = t.graph;
    route =
      (fun ~faults ~record_path ~detect_loops ~src ~dst ->
        route ?faults ~record_path ~detect_loops t ~src ~dst);
    table_words = Array.make n (max 0 (n - 1));
    label_words = Array.make n 1;
    big_bytes = 0;
  }

let stretch_bound _ = (1.0, 0.0)

(* --- snapshot form ------------------------------------------------------ *)

type frozen = unit state

let freeze _ t = { t with graph = () }

let thaw _ ~graph z = { z with graph }
