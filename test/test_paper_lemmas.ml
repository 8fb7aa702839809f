(* Direct property tests of the paper's analytical lemmas and of the
   structural facts Section 2 states — tested as code, independently of
   the routing schemes that rely on them. *)
open Util
open Cr_graph
open Cr_routing

(* --- Lemma 12: series x, y in [0,1], x0 = y0 = 0, x_i + y_(l-i) <= 1
   implies some i in {0..l-1} has x_i + y_(l-i-1) <= 1 - 1/l. --- *)

let gen_series =
  QCheck2.Gen.(
    let* l = int_range 1 8 in
    let* xs = list_repeat (l + 1) (float_bound_inclusive 1.0) in
    let* ys = list_repeat (l + 1) (float_bound_inclusive 1.0) in
    return (l, Array.of_list xs, Array.of_list ys))

(* Rescale a random pair of series so it satisfies the hypotheses. *)
let normalize l xs ys =
  xs.(0) <- 0.0;
  ys.(0) <- 0.0;
  for i = 0 to l do
    let s = xs.(i) +. ys.(l - i) in
    if s > 1.0 then begin
      (* shrink both proportionally *)
      xs.(i) <- xs.(i) /. s;
      ys.(l - i) <- ys.(l - i) /. s
    end
  done;
  xs.(0) <- 0.0;
  ys.(0) <- 0.0

let prop_lemma12 =
  qcheck ~count:300 "Lemma 12 (exists i: x_i + y_(l-i-1) <= 1 - 1/l)"
    gen_series
    (fun (l, xs, ys) ->
      normalize l xs ys;
      (* hypotheses hold now; check the conclusion *)
      let ok = ref false in
      for i = 0 to l - 1 do
        if xs.(i) +. ys.(l - i - 1) <= 1.0 -. (1.0 /. float_of_int l) +. 1e-9
        then ok := true
      done;
      !ok)

let prop_lemma14 =
  qcheck ~count:300 "Lemma 14 (exists i: x_(i+1) + y_(l-i) <= 1 + 1/l)"
    gen_series
    (fun (l, xs, ys) ->
      normalize l xs ys;
      let ok = ref false in
      for i = 0 to l - 1 do
        if xs.(i + 1) +. ys.(l - i) <= 1.0 +. (1.0 /. float_of_int l) +. 1e-9
        then ok := true
      done;
      !ok)

(* --- Section 2: clusters are closed under shortest paths (so their
   shortest-path trees are well defined). --- *)

let prop_cluster_shortest_path_closure =
  qcheck ~count:20 "clusters closed under shortest paths"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Centers.sample ~seed:7 g ~target:(max 1 (n / 3)) in
      let apsp = Apsp.compute g in
      let ok = ref true in
      for w = 0 to n - 1 do
        let c = Centers.cluster g t w in
        let in_cluster = Array.make n false in
        Array.iter (fun v -> in_cluster.(v) <- true) c.Dijkstra.order;
        Array.iter
          (fun v ->
            (* every vertex on a shortest w-v path is in C_A(w) *)
            for x = 0 to n - 1 do
              let on_sp =
                Apsp.dist apsp w x +. Apsp.dist apsp x v
                <= Apsp.dist apsp w v +. 1e-9
              in
              if on_sp && not in_cluster.(x) then ok := false
            done)
          c.Dijkstra.order
      done;
      !ok)

(* --- Section 2: on unweighted graphs, every member of B(u, l) is within
   r_u(l) + 1 of u, and every vertex within r_u(l) is a member. --- *)

let prop_radius_characterization =
  qcheck ~count:30 "r_u(l) characterizes vicinity membership"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* l = int_range 1 12 in
      return (g, l))
    (fun (g, l) ->
      let n = Graph.n g in
      let apsp = Apsp.compute g in
      let ok = ref true in
      let vic = Vicinity.compute_all g l in
      for u = 0 to n - 1 do
        let b = vic.(u) in
        let r = Vicinity.radius b in
        for v = 0 to n - 1 do
          let d = Apsp.dist apsp u v in
          if d <= r && not (Vicinity.mem b v) then ok := false;
          if Vicinity.mem b v && d > r +. 1.0 then ok := false
        done
      done;
      !ok)

(* --- The on_hop observer of the simulator sees exactly the traversed
   ports. --- *)

let test_on_hop_trace () =
  let g = Generators.path 5 in
  let hops = ref [] in
  let o =
    Port_model.run g ~src:0 ~header:4
      ~step:(fun ~at dst ->
        if at = dst then Port_model.Deliver
        else
          match Graph.port_to g at (at + 1) with
          | Some p -> Port_model.Forward (p, dst)
          | None -> assert false)
      ~header_words:(fun _ -> 1)
      ~on_hop:(fun h -> hops := h :: !hops)
      ()
  in
  let hops = List.rev !hops in
  checki "one record per decision" (o.Port_model.hops + 1) (List.length hops);
  checkb "last is deliver" true
    ((List.nth hops (List.length hops - 1)).Port_model.port = -1);
  List.iteri
    (fun i (h : Port_model.hop_record) ->
      if i < o.Port_model.hops then begin
        checki "vertex sequence" (List.nth o.Port_model.path i) h.Port_model.at;
        checki "port leads to next"
          (List.nth o.Port_model.path (i + 1))
          (Graph.endpoint g h.Port_model.at h.Port_model.port)
      end)
    hops

(* --- The TZ (4k-5) scheme stays within bound at larger k. --- *)

let test_tz_k5_k6 () =
  let g =
    Generators.with_random_weights ~seed:11 ~lo:1.0 ~hi:4.0
      (Generators.connect ~seed:13 (Generators.gnp ~seed:601 90 0.06))
  in
  let apsp = Apsp.compute g in
  List.iter
    (fun k ->
      let t = Cr_baselines.Tz_routing.preprocess ~seed:603 g ~k in
      let alpha, _ = Cr_baselines.Tz_routing.stretch_bound t in
      let inst = Cr_baselines.Tz_routing.instance t in
      let ok = ref true in
      for u = 0 to 89 do
        for v = 0 to 89 do
          if u <> v then begin
            let o = Cr_routing.Scheme.route inst ~src:u ~dst:v in
            if (not (Port_model.delivered o))
               || o.Port_model.length > (alpha *. Apsp.dist apsp u v) +. 1e-9
            then ok := false
          end
        done
      done;
      checkb (Printf.sprintf "k=%d" k) true !ok)
    [ 5; 6 ]

let suite =
  [
    prop_lemma12;
    prop_lemma14;
    prop_cluster_shortest_path_closure;
    prop_radius_characterization;
    case "on_hop observes every decision" test_on_hop_trace;
    case "TZ routing at k=5 and k=6" test_tz_k5_k6;
  ]
