type t = { d : float array array }

(* Entry points that allocate Θ(n^2) memory refuse to run past a size
   threshold instead of OOM-ing minutes later: at the default 8192
   vertices a distance matrix is already 512 MB. The [scale] tier uses
   sampled oracles ([Workload.sampled_pairs]) instead. *)
let default_quadratic_max_n = 8192

let quadratic_max_n () =
  match Sys.getenv_opt "CR_QUADRATIC_MAX_N" with
  | None | Some "" -> default_quadratic_max_n
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ -> default_quadratic_max_n)

let guard_quadratic ~who n =
  let limit = quadratic_max_n () in
  if n > limit then
    failwith
      (Printf.sprintf
         "%s: n = %d exceeds the O(n^2)-memory threshold %d; raise it with \
          CR_QUADRATIC_MAX_N to proceed anyway"
         who n limit)

let compute ?caller ?pool g =
  let who =
    match caller with
    | None -> "Apsp.compute"
    | Some c -> Printf.sprintf "Apsp.compute (for %s)" c
  in
  guard_quadratic ~who (Graph.n g);
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let n = Graph.n g in
  let d =
    if Graph.is_unit_weighted g then
      Parallel.map pool ~n (fun s ->
          let r = Bfs.run g s in
          Array.map
            (fun h -> if h = max_int then infinity else float_of_int h)
            r.dist)
    else
      Parallel.map_local pool ~n
        ~local:(fun () -> Dijkstra.workspace n)
        (fun ws s -> Dijkstra.with_spt ws g s (fun t -> Array.copy t.dist))
  in
  { d }

let dist t u v = t.d.(u).(v)

let diameter t =
  let best = ref 0.0 in
  Array.iter
    (Array.iter (fun x -> if x <> infinity && x > !best then best := x))
    t.d;
  !best

let normalized_diameter t =
  let dmin = ref infinity in
  Array.iter
    (Array.iter (fun x -> if x > 0.0 && x < !dmin then dmin := x))
    t.d;
  if !dmin = infinity then 1.0 else diameter t /. !dmin

let connected t =
  Array.for_all (Array.for_all (fun x -> x <> infinity)) t.d

let check_path _t g = function
  | [] -> None
  | first :: rest ->
    let rec walk u len = function
      | [] -> Some len
      | v :: tl -> (
        match Graph.edge_weight g u v with
        | None -> None
        | Some w -> walk v (len +. w) tl)
    in
    walk first 0.0 rest

let stretch t ~src ~dst ~length =
  if src = dst then 1.0
  else begin
    let d = dist t src dst in
    if d = infinity then invalid_arg "Apsp.stretch: unreachable pair";
    length /. d
  end
