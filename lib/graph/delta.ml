(* Classified batched deltas and the tests the substrate invalidation uses
   to decide what survives a topology change.

   The two primitives:

   - [spt_affected]: an exact per-tree test. A cached shortest-path tree
     (dist, parent) stays bit-identical on the new graph unless (a) some
     removed or weight-increased edge is one of its tree edges, or (b) some
     inserted or weight-decreased edge (x, y, w) satisfies
     dist x + w <= dist y (either orientation, finite side only). For (a):
     a removed non-tree edge never wrote a final distance — under the
     (dist, id) settling order the parent of v is the earliest-settled
     achiever of v's final distance, and an edge achieving the final value
     first IS the tree edge — so deleting it changes neither distances nor
     parents. For (b): strict inequality both ways means every path through
     the new edge is strictly longer than an existing shortest path, so no
     final value and no tie changes; the <= catches tie-induced parent
     flips conservatively.

   - [ball_affected]: the same idea for a truncated ball B(u, l), decided
     from the ball's own stored distances (see the proof sketch at the
     function).

   Both compare distances against edge weights as the graphs store them:
   a graph with float32 weights keeps each weight rounded, and a search over it
   sums the rounded values. *)

type t = {
  new_graph : Graph.t;
  ops : Graph.delta_op list;
  removals : (int * int * float) list;
      (* removed or weight-increased edges, with their old stored weight *)
  inserts : (int * int * float) list;
      (* inserted or weight-decreased edges, with their new stored weight *)
  structural : bool; (* any Insert/Remove in the batch *)
  ports_shifted : bool array; (* endpoints of structural ops *)
}

let classify g ops =
  let g' = Graph.apply_delta g ops in
  let old_w u v = Option.get (Graph.edge_weight g u v)
  and new_w u v = Option.get (Graph.edge_weight g' u v) in
  let removals = ref [] and inserts = ref [] in
  let structural = ref false in
  let shifted = Array.make (max (Graph.n g) 1) false in
  List.iter
    (fun op ->
      match op with
      | Graph.Insert (u, v, _) ->
        structural := true;
        shifted.(u) <- true;
        shifted.(v) <- true;
        inserts := (u, v, new_w u v) :: !inserts
      | Graph.Remove (u, v) ->
        structural := true;
        shifted.(u) <- true;
        shifted.(v) <- true;
        removals := (u, v, old_w u v) :: !removals
      | Graph.Reweight (u, v, _) ->
        let w0 = old_w u v and w = new_w u v in
        if w > w0 then removals := (u, v, w0) :: !removals
        else if w < w0 then inserts := (u, v, w) :: !inserts
        (* equal stored weight: a no-op for every cached structure *))
    ops;
  {
    new_graph = g';
    ops;
    removals = !removals;
    inserts = !inserts;
    structural = !structural;
    ports_shifted = shifted;
  }

let new_graph d = d.new_graph
let ops d = d.ops
let structural d = d.structural
let ports_shifted d u = d.ports_shifted.(u)
let removals d = d.removals
let inserts d = d.inserts

let is_empty d = d.removals = [] && d.inserts = [] && not d.structural

(* Why the ball test is sound. Write d for the old distances from u, M for
   the ball's members. Apply the removals and increases first (graph G1),
   then the inserts and decreases (the new graph).

   - G -> G1: distances only grow. The tree path to a member uses tight
     member-to-member edges (d x + w = d y), so none was removed or
     lengthened, and every member keeps its distance. Its G1 achievers are
     old achievers (a longer edge or a farther tail cannot tie), and its old
     parent still achieves, so the parent — the earliest-settled achiever —
     and with it the first port are unchanged. The radius depends on
     whether an excluded vertex ties the farthest member ([bound]); such a
     vertex is reached through a member x with d x + w = bound, and the
     test keeps the ball only when none of these edges went away.
   - G1 -> new graph: distances only shrink. Take the first vertex z, in
     the new settling order, whose distance (<= bound) or parent differs
     from G1. Everything before z agrees, so z gains an achiever through a
     new edge (x, z, w) from a member x with d x + w <= d z, or, when z is
     not a member, <= bound. Ties count (<=): an equal path through an
     earlier-settled x flips the parent, and so the first port.
   - A ball holding its whole component (fewer than l members) takes
     bound = infinity: an insert to any outside vertex joins a component
     whose vertices the new ball takes in.

   So if no edge is tight in this sense, the new search settles the same
   members at the same distances with the same parents, and leaves the
   same tie (or no tie) at the boundary. *)
let ball_affected d ~dist ~bound =
  let enters x y w =
    let dx = dist x in
    dx < infinity && dx +. w <= Float.min (dist y) bound
  in
  let tight (x, y, w) = enters x y w || enters y x w in
  List.exists tight d.removals || List.exists tight d.inserts

let spt_affected d (t : Dijkstra.tree) =
  List.exists
    (fun (x, y, _) -> t.Dijkstra.parent.(x) = y || t.Dijkstra.parent.(y) = x)
    d.removals
  || List.exists
       (fun (x, y, w) ->
         let dx = t.Dijkstra.dist.(x) and dy = t.Dijkstra.dist.(y) in
         (dx < infinity && dx +. w <= dy) || (dy < infinity && dy +. w <= dx))
       d.inserts

(* Patch a kept tree onto the new graph: distances, parents and the settle
   order are unchanged by construction (see [spt_affected]); only the port
   labels can shift at structural endpoints. [parent_port.(v)] is a port of
   [parent.(v)] and [first_port.(v)] a port of the root, so both are
   re-derived on the new graph — the root's ports by one [port_to] per
   direct child, propagated down the (parent-before-child) settle order. *)
let patch_tree g' (t : Dijkstra.tree) =
  let n = Array.length t.Dijkstra.dist in
  let parent_port = Array.make n (-1) in
  let first_port = Array.make n (-1) in
  Array.iter
    (fun v ->
      let p = t.Dijkstra.parent.(v) in
      if p >= 0 then begin
        (match Graph.port_to g' p v with
        | Some q -> parent_port.(v) <- q
        | None -> assert false);
        first_port.(v) <-
          (if p = t.Dijkstra.source then
             match Graph.port_to g' t.Dijkstra.source v with
             | Some q -> q
             | None -> assert false
           else first_port.(p))
      end)
    t.Dijkstra.order;
  { t with Dijkstra.parent_port; first_port }

(* --- random churn ------------------------------------------------------ *)

let random ?(seed = 0) ?(size = 8) g =
  if size < 0 then invalid_arg "Delta.random: negative size";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Delta.random: need at least two vertices";
  let st = Random.State.make [| seed; 0x6474; n; Graph.m g |] in
  let unit = Graph.is_unit_weighted g in
  let wmin, wmax =
    if Graph.m g = 0 then (1.0, 1.0)
    else (Graph.min_edge_weight g, Graph.max_edge_weight g)
  in
  let used = Hashtbl.create (2 * size) in
  let ops = ref [] in
  let work = ref g in
  let fresh_pair u v = not (Hashtbl.mem used (min u v, max u v)) in
  let commit op u v =
    Hashtbl.replace used (min u v, max u v) ();
    ops := op :: !ops;
    work := Graph.apply_delta !work [ op ]
  in
  let try_insert () =
    let rec go attempt =
      if attempt >= 64 then false
      else
        let u = Random.State.int st n and v = Random.State.int st n in
        if u <> v && (not (Graph.has_edge !work u v)) && fresh_pair u v then begin
          let w =
            if unit then 1.0
            else wmin +. Random.State.float st (Float.max (wmax -. wmin) wmin)
          in
          commit (Graph.Insert (u, v, w)) u v;
          true
        end
        else go (attempt + 1)
    in
    go 0
  in
  let try_remove () =
    (* Reject removals that disconnect the working graph (or split a
       component): connected inputs stay connected, so the repaired
       catalog can still be built on the result. *)
    let rec go attempt =
      if attempt >= 64 then false
      else begin
        let es = Graph.edges !work in
        let m = List.length es in
        if m = 0 then false
        else begin
          let u, v, _ = List.nth es (Random.State.int st m) in
          if fresh_pair u v then begin
            let candidate = Graph.apply_delta !work [ Graph.Remove (u, v) ] in
            let ncomp h = 1 + Array.fold_left max (-1) (Bfs.components h) in
            if ncomp candidate = ncomp !work then begin
              commit (Graph.Remove (u, v)) u v;
              true
            end
            else go (attempt + 1)
          end
          else go (attempt + 1)
        end
      end
    in
    go 0
  in
  let try_reweight () =
    let rec go attempt =
      if attempt >= 64 then false
      else begin
        let es = Graph.edges !work in
        let m = List.length es in
        if m = 0 then false
        else begin
          let u, v, w0 = List.nth es (Random.State.int st m) in
          if fresh_pair u v && Graph.has_edge g u v then begin
            let w = w0 *. (0.5 +. Random.State.float st 1.5) in
            if w > 0.0 && w <> w0 then begin
              commit (Graph.Reweight (u, v, w)) u v;
              true
            end
            else go (attempt + 1)
          end
          else go (attempt + 1)
        end
      end
    in
    go 0
  in
  for _ = 1 to size do
    let roll = Random.State.float st 1.0 in
    let ok =
      if unit then
        if roll < 0.5 then try_remove () || try_insert ()
        else try_insert () || try_remove ()
      else if roll < 0.4 then try_remove () || try_insert ()
      else if roll < 0.8 then try_insert () || try_remove ()
      else try_reweight () || try_insert ()
    in
    ignore ok
  done;
  List.rev !ops
