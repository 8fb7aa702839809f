open Cr_graph

type spec = {
  seed : int;
  link_failure_rate : float;
  vertex_failure_rate : float;
  drop_prob : float;
  corrupt_prob : float;
}

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.spec: %s = %g not in [0, 1]" name r)

let spec ?(seed = 0) ?(link_failure_rate = 0.0) ?(vertex_failure_rate = 0.0)
    ?(drop_prob = 0.0) ?(corrupt_prob = 0.0) () =
  check_rate "link_failure_rate" link_failure_rate;
  check_rate "vertex_failure_rate" vertex_failure_rate;
  check_rate "drop_prob" drop_prob;
  check_rate "corrupt_prob" corrupt_prob;
  { seed; link_failure_rate; vertex_failure_rate; drop_prob; corrupt_prob }

type plan = {
  sp : spec;
  links : (int, unit) Hashtbl.t; (* keyed by [link_key] *)
  vertices : bool array;
  down_count : int;
}

(* SplitMix64 avalanche: the per-hop randomness must not depend on any
   global RNG state, or replays would diverge. Inlined down to [decide],
   so the Int64 intermediates stay unboxed and a hop allocates nothing.
   [Traffic] hashes its query schedule with the same functions. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let[@inline] hash4 a b c d =
  let open Int64 in
  let h = mix64 (add (of_int a) 0x9e3779b97f4a7c15L) in
  let h = mix64 (logxor h (of_int b)) in
  let h = mix64 (logxor h (of_int c)) in
  mix64 (logxor h (of_int d))

(* Uniform float in [0, 1) from the top 53 bits. *)
let[@inline] u01 h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* An undirected link as one immediate: ids are below [Graph.csr_limit]
   (2^31 - 1), so the smaller endpoint fits above 31 bits of the larger. *)
let link_key u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u

(* Tags keep the link / vertex / drop / corrupt streams independent. *)
let tag_link = 1
let tag_vertex = 2
let tag_hop = 3

let compile sp g =
  let n = Graph.n g in
  let m = Graph.m g in
  let links = Hashtbl.create 16 in
  let k_links =
    int_of_float (Float.round (sp.link_failure_rate *. float_of_int m))
  in
  if k_links > 0 then begin
    (* Rank edges by a seed-derived hash and fail the k smallest: the
       selection is a pure function of (seed, endpoints), independent of
       the order [Graph.edges] happens to produce. *)
    let ranked =
      Graph.fold_edges
        (fun u v _w acc -> ((hash4 sp.seed tag_link u v, u, v) :: acc))
        g []
    in
    let ranked =
      List.sort
        (fun (h1, u1, v1) (h2, u2, v2) ->
          let c = Int64.compare h1 h2 in
          if c <> 0 then c
          else if u1 <> u2 then Int.compare u1 u2
          else Int.compare v1 v2)
        ranked
    in
    List.iteri
      (fun i (_h, u, v) ->
        if i < k_links then Hashtbl.replace links (link_key u v) ())
      ranked
  end;
  let vertices = Array.make (max n 1) false in
  let k_vertices =
    int_of_float (Float.round (sp.vertex_failure_rate *. float_of_int n))
  in
  let down_count = ref 0 in
  if k_vertices > 0 then begin
    let ranked =
      List.init n (fun v -> (hash4 sp.seed tag_vertex v 0, v))
      |> List.sort (fun (h1, v1) (h2, v2) ->
             let c = Int64.compare h1 h2 in
             if c <> 0 then c else Int.compare v1 v2)
    in
    List.iteri
      (fun i (_h, v) ->
        if i < k_vertices then begin
          vertices.(v) <- true;
          incr down_count
        end)
      ranked
  end;
  { sp; links; vertices; down_count = !down_count }

let empty g = compile (spec ()) g

let of_failures ?spec:(sp = spec ()) g ~links ~vertices =
  let n = Graph.n g in
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (u, v) ->
      if not (Graph.has_edge g u v) then
        invalid_arg
          (Printf.sprintf "Fault.of_failures: links[%d] = (%d, %d) is not an edge"
             (i + 1) u v);
      Hashtbl.replace tbl (link_key u v) ())
    links;
  let varr = Array.make (max n 1) false in
  let down_count = ref 0 in
  List.iteri
    (fun i v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Fault.of_failures: vertices[%d] = %d out of range"
             (i + 1) v);
      if not varr.(v) then begin
        varr.(v) <- true;
        incr down_count
      end)
    vertices;
  { sp; links = tbl; vertices = varr; down_count = !down_count }

let is_empty p =
  Hashtbl.length p.links = 0
  && p.down_count = 0
  && p.sp.drop_prob = 0.0
  && p.sp.corrupt_prob = 0.0

let corrupts p = p.sp.corrupt_prob > 0.0

let link_down p u v = Hashtbl.mem p.links (link_key u v)

let vertex_down p v = v >= 0 && v < Array.length p.vertices && p.vertices.(v)

let failed_links p =
  Hashtbl.fold (fun k () acc -> (k lsr 31, k land 0x7fff_ffff) :: acc) p.links []
  |> List.sort (fun (u1, v1) (u2, v2) ->
         if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2)

let failed_vertices p =
  let acc = ref [] in
  for v = Array.length p.vertices - 1 downto 0 do
    if p.vertices.(v) then acc := v :: !acc
  done;
  !acc

type event = Pass | Drop | Corrupt

let decide p ~at ~port ~index =
  if p.sp.drop_prob = 0.0 && p.sp.corrupt_prob = 0.0 then Pass
  else begin
    let r = u01 (hash4 p.sp.seed tag_hop ((at * 1_000_003) + port) index) in
    if r < p.sp.drop_prob then Drop
    else if r < p.sp.drop_prob +. p.sp.corrupt_prob then Corrupt
    else Pass
  end

let pp ppf p =
  Format.fprintf ppf
    "faults(seed=%d, links-down=%d, vertices-down=%d, drop=%g, corrupt=%g)"
    p.sp.seed (Hashtbl.length p.links) p.down_count p.sp.drop_prob
    p.sp.corrupt_prob
