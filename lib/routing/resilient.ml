open Cr_graph

type t = {
  inst : Scheme.instance;
  tree : Tree_routing.t option; (* spanning SPT; None only on an empty graph *)
  retries : int;
}

let wrap ?(retries = 3) inst =
  if retries < 0 then invalid_arg "Resilient.wrap: retries must be >= 0";
  let g = inst.Scheme.graph in
  let tree =
    if Graph.n g = 0 then None
    else Some (Tree_routing.of_tree g (Dijkstra.spt g 0))
  in
  { inst; tree; retries }

let retries t = t.retries

let tree t = t.tree

(* Distance-to-destination potential from the spanning tree. The tree path
   length upper-bounds the true distance, which is all the greedy orderings
   below need; vertices outside the tree (disconnected hosts) rank last. *)
let potential t ~dst =
  match t.tree with
  | Some tr when Tree_routing.mem tr dst ->
    fun v ->
      if Tree_routing.mem tr v then Tree_routing.tree_dist tr v dst
      else infinity
  | _ -> fun _ -> 0.0

(* --- outcome composition ------------------------------------------------ *)

(* Chronological segments, each starting where the previous one stopped
   (Port_model guarantees [final] is where the message physically is, even
   for drops). Join the paths on the shared vertex; sum the travel. *)
let merge segments =
  match segments with
  | [] -> invalid_arg "Resilient: no segments"
  | first :: rest ->
    let last = List.fold_left (fun _ o -> o) first rest in
    let tail_path o =
      match o.Port_model.path with [] -> [] | _ :: tl -> tl
    in
    {
      Port_model.verdict = last.Port_model.verdict;
      final = last.Port_model.final;
      path = first.Port_model.path @ List.concat_map tail_path rest;
      length =
        List.fold_left (fun a o -> a +. o.Port_model.length) 0.0 segments;
      hops = List.fold_left (fun a o -> a + o.Port_model.hops) 0 segments;
      header_words_peak =
        List.fold_left
          (fun a o -> max a o.Port_model.header_words_peak)
          0 segments;
    }

(* --- escape hops --------------------------------------------------------- *)

(* Best live incident edge of the stranded vertex, by weight + potential of
   the far endpoint; liveness of incident links is locally observable (the
   simulator bounces on them), so consulting the plan here is legitimate. *)
let escape_port plan pot g ~banned ~from =
  let best = ref None in
  for p = 0 to Graph.degree g from - 1 do
    let v = Graph.endpoint g from p in
    if
      (not (Fault.link_down plan from v))
      && (not (Fault.vertex_down plan v))
      && not (Hashtbl.mem banned v)
    then begin
      let score = Graph.port_weight g from p +. pot v in
      match !best with
      | Some (_, s) when s <= score -> ()
      | _ -> best := Some (p, score)
    end
  done;
  Option.map fst !best

(* One simulated hop through a port already known to be live: either the
   neighbor receives it, or the hop's drop/corrupt event loses it. *)
let hop_run plan g ~src ~port =
  let target = Graph.endpoint g src port in
  Port_model.run g ~src ~header:target
    ~step:(fun ~at h ->
      if at = h then Port_model.Deliver else Port_model.Forward (port, h))
    ~header_words:(fun _ -> 1)
    ~faults:plan ()

(* --- spanning-tree-guided detour ----------------------------------------- *)

(* Depth-first walk over the surviving graph. The header is the walk's whole
   state — visited set plus the current DFS chain — so the step function
   stays local and deterministic, and every forward or backtrack produces a
   fresh header (no false loop aborts). Completeness: each vertex is entered
   once, each chain edge backtracked at most once, so the walk exhausts the
   surviving component of its start before giving up. *)
type dfs = { visited : int list; chain : int list (* head = current vertex *) }

let detour_run t plan ~src ~dst =
  let g = t.inst.Scheme.graph in
  let pot = potential t ~dst in
  let pick ~at ~dead h =
    if at = dst then Port_model.Deliver
    else begin
      let best = ref None in
      for p = 0 to Graph.degree g at - 1 do
        if not (List.mem p dead) then begin
          let v = Graph.endpoint g at p in
          if not (List.mem v h.visited) then begin
            let score = Graph.port_weight g at p +. pot v in
            match !best with
            | Some (_, _, s) when s <= score -> ()
            | _ -> best := Some (p, v, score)
          end
        end
      done;
      match !best with
      | Some (p, v, _) ->
        Port_model.Forward
          (p, { visited = v :: h.visited; chain = v :: h.chain })
      | None -> (
        (* Every fresh neighbor is visited or dead: backtrack one chain
           edge. The edge was traversed on the way in, so it is live. *)
        match h.chain with
        | _ :: (parent :: _ as rest) -> (
          match Graph.port_to g at parent with
          | Some p -> Port_model.Forward (p, { h with chain = rest })
          | None -> raise Not_found)
        | _ ->
          (* Chain exhausted: the surviving component holds no dst. The
             raise surfaces as a Dead_end verdict, never as an exception. *)
          raise Not_found)
    end
  in
  Port_model.run g ~src
    ~header:{ visited = [ src ]; chain = [ src ] }
    ~step:(fun ~at h -> pick ~at ~dead:[] h)
    ~on_bounce:(fun ~at ~dead h -> Some (pick ~at ~dead h))
    ~header_words:(fun h -> List.length h.visited + List.length h.chain)
    ~faults:plan
    ~max_hops:((4 * Graph.m g) + (2 * Graph.n g) + 16)
    ()

(* --- the recovery ladder -------------------------------------------------- *)

(* Every sub-route runs with both simulator knobs on, whatever the caller
   asked for: the ladder joins the segments' paths and must see a cycling
   sub-route end [Loop_detected] rather than burn its hop budget. *)
let sub_route t ~faults ~src ~dst =
  t.inst.Scheme.route ~faults ~record_path:true ~detect_loops:true ~src ~dst

let route ?faults t ~src ~dst =
  let bare = sub_route t ~faults ~src ~dst in
  match faults with
  | None -> bare
  | Some plan when Fault.is_empty plan -> bare
  | Some plan ->
    if Port_model.delivered_to bare dst then bare
    else begin
      let g = t.inst.Scheme.graph in
      let pot = potential t ~dst in
      let banned = Hashtbl.create 8 in
      (* [segs] is reverse-chronological; [o] is the last, undelivered one. *)
      let rec recover segs budget o =
        let stuck = o.Port_model.final in
        Hashtbl.replace banned stuck ();
        if budget <= 0 then detour segs stuck
        else
          match escape_port plan pot g ~banned ~from:stuck with
          | None -> detour segs stuck
          | Some port -> (
            if !Telemetry.on then begin
              let tc = Telemetry.counters_shard () in
              tc.Telemetry.retries <- tc.Telemetry.retries + 1;
              if Telemetry.tracing () then
                Telemetry.emit Telemetry.Retry ~at:stuck ~port ~words:0
            end;
            let hop = hop_run plan g ~src:stuck ~port in
            let segs = hop :: segs in
            if not (Port_model.delivered hop) then
              (* The escape hop itself was dropped: retransmit. *)
              recover segs (budget - 1) hop
            else begin
              let from = hop.Port_model.final in
              let o' = sub_route t ~faults ~src:from ~dst in
              let segs = o' :: segs in
              if Port_model.delivered_to o' dst then merge (List.rev segs)
              else recover segs (budget - 1) o'
            end)
      and detour segs stuck =
        if !Telemetry.on then begin
          let tc = Telemetry.counters_shard () in
          tc.Telemetry.detour_entries <- tc.Telemetry.detour_entries + 1;
          if Telemetry.tracing () then
            Telemetry.emit Telemetry.Detour ~at:stuck ~port:(-1) ~words:0
        end;
        let d = detour_run t plan ~src:stuck ~dst in
        merge (List.rev (d :: segs))
      in
      recover [ bare ] t.retries bare
    end

let instance t =
  let base = t.inst in
  let n = Graph.n base.Scheme.graph in
  let tree_words v =
    match t.tree with
    | Some tr when Tree_routing.mem tr v -> Tree_routing.table_words tr v
    | _ -> 0
  in
  {
    Scheme.name = base.Scheme.name ^ "+res";
    graph = base.Scheme.graph;
    route =
      (fun ~faults ~record_path:_ ~detect_loops:_ ~src ~dst ->
        route ?faults t ~src ~dst);
    table_words =
      Array.init n (fun v -> base.Scheme.table_words.(v) + tree_words v);
    label_words = Array.copy base.Scheme.label_words;
    big_bytes = base.Scheme.big_bytes;
  }
