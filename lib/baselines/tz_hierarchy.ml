open Cr_graph
open Cr_routing

type t = {
  k : int;
  in_set : bool array array;
  level : int array;
  dist : float array array;
  p : int array array;
}

let default_a1_target ~n ~k =
  max 1
    (int_of_float (Float.round (float_of_int n ** (1.0 -. (1.0 /. float_of_int k)))))

let build ~seed ?a1_target ?substrate ?pool g ~k =
  if k < 2 then invalid_arg "Tz_hierarchy.build: need k >= 2";
  if not (Bfs.is_connected g) then
    invalid_arg "Tz_hierarchy.build: graph must be connected";
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let st = Random.State.make [| seed; 0x747a |] in
  let in_set = Array.init k (fun _ -> Array.make n false) in
  (* A_0 = V. *)
  Array.iteri (fun v _ -> in_set.(0).(v) <- true) in_set.(0);
  (* A_1 by Lemma 4 sampling: level-0 clusters bounded by 4 n^(1/k). *)
  if k >= 2 then begin
    let target =
      match a1_target with Some s -> s | None -> default_a1_target ~n ~k
    in
    let c = Substrate.centers sub ~seed ~target in
    Array.iter (fun a -> in_set.(1).(a) <- true) c.Centers.centers
  end;
  (* Further levels by independent sampling with probability n^(-1/k). *)
  let prob = float_of_int n ** (-1.0 /. float_of_int k) in
  for i = 2 to k - 1 do
    for v = 0 to n - 1 do
      if in_set.(i - 1).(v) && Random.State.float st 1.0 < prob then
        in_set.(i).(v) <- true
    done
  done;
  (* Nonempty A_{k-1}: force-keep the lowest-id member of A_{k-2}. *)
  for i = 1 to k - 1 do
    if not (Array.exists Fun.id in_set.(i)) then begin
      let rec first v = if in_set.(i - 1).(v) then v else first (v + 1) in
      in_set.(i).(first 0) <- true
    end
  done;
  let level = Array.make n 0 in
  for i = 1 to k - 1 do
    Array.iteri (fun v m -> if m then level.(v) <- i) in_set.(i)
  done;
  (* Distances and nearest centers per level: the k multi-source searches
     are independent of one another, so they fan out over the pool. *)
  let dist = Array.make (k + 1) [||] in
  let p = Array.make k [||] in
  dist.(k) <- Array.make n infinity;
  let pool = match pool with Some pl -> pl | None -> Pool.default () in
  let per_level =
    Pool.map pool ~n:k (fun i ->
        let members =
          Array.to_list (Array.mapi (fun v m -> if m then v else -1) in_set.(i))
          |> List.filter (fun v -> v >= 0)
        in
        Dijkstra.multi_source g members)
  in
  for i = 0 to k - 1 do
    dist.(i) <- per_level.(i).Dijkstra.dist_to_set;
    p.(i) <- per_level.(i).Dijkstra.nearest
  done;
  (* TZ tie rule, applied top-down. *)
  for i = k - 2 downto 0 do
    for v = 0 to n - 1 do
      if dist.(i).(v) = dist.(i + 1).(v) then p.(i).(v) <- p.(i + 1).(v)
    done
  done;
  { k; in_set; level; dist; p }

let cluster g t w = Dijkstra.restricted g w ~limit:t.dist.(t.level.(w) + 1)

let with_cluster ws g t w f =
  Dijkstra.with_restricted ws g w ~limit:t.dist.(t.level.(w) + 1) f

let bunches ?pool g t =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let n = Graph.n g in
  (* Per-w cluster members with their distances in parallel, then the
     serial inversion in increasing w, matching the serial bunch order. *)
  let members =
    Pool.map_local pool ~n
      ~local:(fun () -> Dijkstra.workspace n)
      (fun ws w ->
        with_cluster ws g t w (fun c ->
            Array.map (fun v -> (v, c.Dijkstra.dist.(v))) c.Dijkstra.order))
  in
  let acc = Array.make n [] in
  for w = 0 to n - 1 do
    Array.iter (fun (v, d) -> acc.(v) <- (w, d) :: acc.(v)) members.(w)
  done;
  Array.map List.rev acc
