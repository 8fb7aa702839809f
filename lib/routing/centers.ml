open Cr_graph

type t = {
  centers : int array;
  is_center : bool array;
  dist_to_a : float array;
  p_a : int array;
  fparent : int array;
}

let of_centers g center_list =
  let n = Graph.n g in
  let centers = Array.of_list (List.sort_uniq Int.compare center_list) in
  let is_center = Array.make n false in
  Array.iter (fun c -> is_center.(c) <- true) centers;
  if Array.length centers = 0 then
    {
      centers;
      is_center;
      dist_to_a = Array.make n infinity;
      p_a = Array.make n (-1);
      fparent = Array.make n (-1);
    }
  else begin
    let m = Dijkstra.multi_source g (Array.to_list centers) in
    {
      centers;
      is_center;
      dist_to_a = m.dist_to_set;
      p_a = m.nearest;
      fparent = m.mparent;
    }
  end

let cluster g t w = Dijkstra.restricted g w ~limit:t.dist_to_a

(* [dist_to_a] is only read inside the restricted searches, so sweeping
   many sources in parallel is safe; each domain reuses one workspace. *)
let cluster_sizes ?pool g t sources =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.map_local pool ~n:(Array.length sources)
    ~local:(fun () -> Dijkstra.workspace (Graph.n g))
    (fun ws i ->
      Dijkstra.with_restricted ws g sources.(i) ~limit:t.dist_to_a (fun c ->
          Array.length c.Dijkstra.order))

let max_cluster_size ?pool g t =
  let sources = Array.init (Graph.n g) Fun.id in
  Array.fold_left max 0 (cluster_sizes ?pool g t sources)

let sample ~seed g ~target =
  let n = Graph.n g in
  let target = max 1 target in
  if target >= n then of_centers g (List.init n Fun.id)
  else begin
    let st = Random.State.make [| seed; 0x6c34 |] in
    let bound = 4 * n / target in
    let a = Hashtbl.create (2 * target) in
    let rec refine w iter =
      let t = of_centers g (Hashtbl.fold (fun v () acc -> v :: acc) a []) in
      let candidates = Array.of_list w in
      let sizes =
        if Array.length t.centers = 0 then begin
          (* With [A] empty, [C_A(w)] is exactly [w]'s connected
             component ([d(v, A) = infinity] admits every reachable
             vertex), so one BFS sweep yields every size. The generic
             path below would run a full unrestricted Dijkstra per
             candidate — Theta(n m log n) on the first round, the wall
             that kept center sampling off million-vertex graphs. *)
          let comp = Bfs.components g in
          let counts = Hashtbl.create 16 in
          Array.iter
            (fun c ->
              Hashtbl.replace counts c
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
            comp;
          Array.map (fun v -> Hashtbl.find counts comp.(v)) candidates
        end
        else cluster_sizes g t candidates
      in
      let oversized =
        List.filteri (fun i _ -> sizes.(i) > bound) (Array.to_list candidates)
      in
      if oversized = [] then t
      else if iter > 4 + (4 * int_of_float (log (float_of_int (max n 2)))) then begin
        (* Safety valve: absorb the stragglers outright. *)
        List.iter (fun v -> Hashtbl.replace a v ()) oversized;
        of_centers g (Hashtbl.fold (fun v () acc -> v :: acc) a [])
      end
      else begin
        let p = float_of_int target /. float_of_int (List.length oversized) in
        let hit = ref false in
        List.iter
          (fun v ->
            if Random.State.float st 1.0 < p then begin
              Hashtbl.replace a v ();
              hit := true
            end)
          oversized;
        (* Guarantee progress even when the coin never lands. *)
        if not !hit then
          Hashtbl.replace a (List.nth oversized (Random.State.int st (List.length oversized))) ();
        refine oversized (iter + 1)
      end
    in
    let t = refine (List.init n Fun.id) 0 in
    (* A vacuous bound (4n/target >= n) can leave A empty; the schemes need
       p_A everywhere, and adding a center only shrinks clusters. *)
    let t = if Array.length t.centers = 0 then of_centers g [ 0 ] else t in
    assert (max_cluster_size g t <= bound);
    t
  end

let bunches ?pool g t =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let n = Graph.n g in
  (* Cluster membership lists in parallel (the searches), then the serial
     inversion — iterating w in increasing order keeps each bunch sorted
     exactly as the serial code produced it. *)
  let members =
    Pool.map_local pool ~n
      ~local:(fun () -> Dijkstra.workspace n)
      (fun ws w ->
        Dijkstra.with_restricted ws g w ~limit:t.dist_to_a (fun c ->
            c.Dijkstra.order))
  in
  let acc = Array.make n [] in
  for w = 0 to n - 1 do
    Array.iter (fun v -> acc.(v) <- w :: acc.(v)) members.(w)
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) acc
