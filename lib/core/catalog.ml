open Cr_routing
open Cr_baselines

type codec = {
  enc :
    ?substrate:Substrate.t ->
    seed:int ->
    eps:float ->
    Cr_graph.Graph.t ->
    Snapshot.sink ->
    string;
  dec :
    Snapshot.source ->
    string ->
    Cr_graph.Graph.t ->
    Scheme.instance * (float * float);
}

type entry = {
  id : string;
  description : string;
  paper_stretch : string;
  paper_space : string;
  source : string;
  weighted_ok : bool;
  build :
    ?substrate:Substrate.t ->
    seed:int ->
    eps:float ->
    Cr_graph.Graph.t ->
    Scheme.instance * (float * float);
  snap : codec;
}

(* A scheme module as the catalog sees it: the built state, the instance
   and proven guarantee it answers with, and its snapshot form. *)
module type SCHEME = sig
  type t
  type frozen

  val instance : t -> Scheme.instance
  val stretch_bound : t -> float * float
  val freeze : Snapshot.sink -> t -> frozen
  val thaw : Snapshot.source -> graph:Cr_graph.Graph.t -> frozen -> t
end

(* One entry from one scheme module and one preprocess call; [build] and
   the snapshot codec both derive from them.

   [build] lands one span in the "preprocess" latency histogram (so the
   scheme modules stay telemetry-free) and, given a handle, leaves the
   state it built in the handle's last-build slot. The slot is emptied
   first, so a build never runs while the handle pins an older state.

   [enc] freezes that kept state when the handle's slot holds exactly this
   build — same codec id, seed and eps, on the handle's own graph — and
   runs the preprocess otherwise. Freezing turns Bigarray payloads into
   snapshot blobs and the rest into one Marshal residue; it reads only
   what preprocess set, never a lazy cache, so a routed state freezes to
   the same bytes as a fresh one. [dec] is only reached after
   [Snapshot.check] validated the scheme id and residue checksum, so the
   unmarshal cannot be handed another scheme's bytes. *)
let scheme (type s) (module S : SCHEME with type t = s) ~id ~description
    ~paper_stretch ~paper_space ~source ~weighted_ok
    ~(preprocess :
       ?substrate:Substrate.t -> seed:int -> eps:float -> Cr_graph.Graph.t -> s)
    =
  let residue t sink = Marshal.to_string (S.freeze sink t) [] in
  let result t = (S.instance t, S.stretch_bound t) in
  let key ~seed ~eps = { Substrate.codec = id; seed; eps } in
  let build ?substrate ~seed ~eps g =
    Telemetry.timed "preprocess" (fun () ->
        Option.iter Substrate.drop_build substrate;
        let t = preprocess ?substrate ~seed ~eps g in
        Option.iter
          (fun sub -> Substrate.keep_build sub (key ~seed ~eps) (residue t))
          substrate;
        result t)
  in
  let enc ?substrate ~seed ~eps g sink =
    let kept =
      match substrate with
      | Some sub when Substrate.graph sub == g ->
        Substrate.take_build sub (key ~seed ~eps)
      | _ -> None
    in
    match kept with
    | Some freeze -> freeze sink
    | None -> residue (preprocess ?substrate ~seed ~eps g) sink
  in
  let dec src residue g =
    result (S.thaw src ~graph:g (Marshal.from_string residue 0))
  in
  { id; description; paper_stretch; paper_space; source; weighted_ok; build;
    snap = { enc; dec } }

let all =
  [
    scheme (module Full_tables) ~id:"full"
      ~description:"shortest-path routing with full tables" ~paper_stretch:"1"
      ~paper_space:"n" ~source:"folklore" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed:_ ~eps:_ g ->
        Full_tables.preprocess ?substrate g);
    scheme (module Tz_routing) ~id:"tz-k2"
      ~description:"Thorup-Zwick compact routing, k=2" ~paper_stretch:"3"
      ~paper_space:"n^1/2" ~source:"Thorup-Zwick SPAA'01" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps:_ g ->
        Tz_routing.preprocess ?substrate ~seed g ~k:2);
    scheme (module Tz_routing) ~id:"tz-k3"
      ~description:"Thorup-Zwick compact routing, k=3" ~paper_stretch:"7"
      ~paper_space:"n^1/3" ~source:"Thorup-Zwick SPAA'01" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps:_ g ->
        Tz_routing.preprocess ?substrate ~seed g ~k:3);
    scheme (module Tz_routing) ~id:"tz-k4"
      ~description:"Thorup-Zwick compact routing, k=4" ~paper_stretch:"11"
      ~paper_space:"n^1/4" ~source:"Thorup-Zwick SPAA'01" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps:_ g ->
        Tz_routing.preprocess ?substrate ~seed g ~k:4);
    scheme (module Scheme3eps) ~id:"rt-3eps"
      ~description:"Roditty-Tov warm-up (3+eps)-stretch scheme"
      ~paper_stretch:"3+eps" ~paper_space:"n^1/2 / eps"
      ~source:"paper Section 4" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme3eps.preprocess ?substrate ~eps ~seed g);
    scheme (module Scheme_ni) ~id:"rt-3eps-ni"
      ~description:"Roditty-Tov name-independent (3+eps)-stretch scheme"
      ~paper_stretch:"3+eps" ~paper_space:"n^1/2 / eps"
      ~source:"paper Section 4 (remark)" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme_ni.preprocess ?substrate ~eps ~seed g);
    scheme (module Scheme2eps1) ~id:"rt-2eps1"
      ~description:"Roditty-Tov (2+eps,1)-stretch scheme (Theorem 10)"
      ~paper_stretch:"(2+eps,1)" ~paper_space:"n^2/3 / eps"
      ~source:"paper Theorem 10" ~weighted_ok:false
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme2eps1.preprocess ?substrate ~eps ~seed g);
    scheme (module Scheme5eps) ~id:"rt-5eps"
      ~description:"Roditty-Tov (5+eps)-stretch scheme (Theorem 11)"
      ~paper_stretch:"5+eps" ~paper_space:"n^1/3 logD / eps"
      ~source:"paper Theorem 11" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme5eps.preprocess ?substrate ~eps ~seed g);
    scheme (module Scheme_ptr) ~id:"rt-ptr-minus-l3"
      ~description:"Roditty-Tov (2 1/3+eps,2)-stretch scheme (Theorem 13, l=3)"
      ~paper_stretch:"(2 1/3+eps,2)" ~paper_space:"n^3/5 / eps"
      ~source:"paper Theorem 13" ~weighted_ok:false
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Minus ~ell:3 g);
    scheme (module Scheme_ptr) ~id:"rt-ptr-minus-l2"
      ~description:"Roditty-Tov (2+eps,2)-stretch scheme (Theorem 13, l=2)"
      ~paper_stretch:"(2+eps,2)" ~paper_space:"n^2/3 / eps"
      ~source:"paper Theorem 13" ~weighted_ok:false
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Minus ~ell:2 g);
    scheme (module Scheme_ptr) ~id:"rt-ptr-plus-l2"
      ~description:"Roditty-Tov (4+eps,2)-stretch scheme (Theorem 15, l=2)"
      ~paper_stretch:"(4+eps,2)" ~paper_space:"n^2/5 / eps"
      ~source:"paper Theorem 15" ~weighted_ok:false
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Plus ~ell:2 g);
    scheme (module Scheme4km7) ~id:"rt-4km7-k3"
      ~description:"Roditty-Tov (5+eps)-stretch via Theorem 16, k=3"
      ~paper_stretch:"5+eps" ~paper_space:"n^1/3 logD / eps"
      ~source:"paper Theorem 16" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme4km7.preprocess ?substrate ~eps ~seed g ~k:3);
    scheme (module Scheme4km7) ~id:"rt-4km7-k4"
      ~description:"Roditty-Tov (9+eps)-stretch scheme (Theorem 16, k=4)"
      ~paper_stretch:"9+eps" ~paper_space:"n^1/4 logD / eps"
      ~source:"paper Theorem 16" ~weighted_ok:true
      ~preprocess:(fun ?substrate ~seed ~eps g ->
        Scheme4km7.preprocess ?substrate ~eps ~seed g ~k:4);
  ]

let resilient ?retries e =
  {
    e with
    id = e.id ^ "+res";
    description = e.description ^ ", with the resilience wrapper";
    build =
      (fun ?substrate ~seed ~eps g ->
        let inst, bound = e.build ?substrate ~seed ~eps g in
        (Resilient.instance (Resilient.wrap ?retries inst), bound));
    (* A "+res" snapshot stores the base scheme's payload (under the
       wrapped id, so [Snapshot.check] still discriminates) through the
       base codec, whose [enc] keys the last-build slot by the base id —
       the slot the base build above fills; the wrapper is reapplied on
       load. *)
    snap =
      {
        e.snap with
        dec =
          (fun src residue g ->
            let inst, bound = e.snap.dec src residue g in
            (Resilient.instance (Resilient.wrap ?retries inst), bound));
      };
  }

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> Some e
  | None -> (
    match Filename.chop_suffix_opt ~suffix:"+res" id with
    | Some base ->
      Option.map resilient (List.find_opt (fun e -> e.id = base) all)
    | None -> None)

let ids () = List.map (fun e -> e.id) all

(* --- snapshots ---------------------------------------------------------- *)

let snapshot_path ~dir e = Filename.concat dir (e.id ^ ".snap")

let save_entry ?substrate ~dir ~seed ~eps g e =
  let sink = Snapshot.sink () in
  let residue = e.snap.enc ?substrate ~seed ~eps g sink in
  let meta =
    {
      Snapshot.scheme_id = e.id;
      seed;
      eps;
      n = Cr_graph.Graph.n g;
      m = Cr_graph.Graph.m g;
      fingerprint = Snapshot.fingerprint g;
    }
  in
  let path = snapshot_path ~dir e in
  Result.map (fun () -> path) (Snapshot.save ~path ~meta ~residue sink)

let load_entry ?verify ~path ~seed ~eps g e =
  Result.bind (Snapshot.load ?verify path) (fun loaded ->
      Result.map
        (fun () -> e.snap.dec loaded.Snapshot.source loaded.Snapshot.residue g)
        (Snapshot.check loaded ~scheme_id:e.id ~seed ~eps ~graph:g))

let load_or_build ?substrate ?verify ~dir ~seed ~eps g e =
  let build err =
    let r = e.build ?substrate ~seed ~eps g in
    (r, `Built err)
  in
  let path = snapshot_path ~dir e in
  if not (Sys.file_exists path) then build None
  else
    match load_entry ?verify ~path ~seed ~eps g e with
    | Ok r -> (r, `Loaded)
    | Error err -> build (Some err)

(* --- churn repair --------------------------------------------------------

   One topology delta, one call: invalidate the substrate's dirty region,
   then rebuild the requested entries on the surviving caches. Everything
   is bit-identical to a fresh build on the post-delta graph — the
   substrate only carries structures proven unchanged — so "incremental"
   here is purely a wall-clock statement. The deadline bounds the
   incremental bookkeeping: if the invalidation pass alone exceeds it (or
   the deadline is non-positive), the repair degrades to a plain full
   rebuild on a fresh substrate behind the same API. *)

type repaired = {
  graph : Cr_graph.Graph.t;
  substrate : Substrate.t;
  instances : (entry * Scheme.instance * (float * float)) list;
  invalidation : Substrate.invalidation option;
  full_rebuild : bool;
  wall : float;
}

let repair ?deadline ?(force_full = false) ?(entries = all) ~substrate ~seed
    ~eps ops =
  let t0 = Unix.gettimeofday () in
  let wall () = Unix.gettimeofday () -. t0 in
  let over () = match deadline with Some dl -> wall () > dl | None -> false in
  let degenerate =
    match deadline with Some dl -> dl <= 0.0 | None -> false
  in
  let g = Substrate.graph substrate in
  let sub, invalidation, full_rebuild =
    if force_full || degenerate then
      (Substrate.create (Cr_graph.Graph.apply_delta g ops), None, true)
    else begin
      let s', inv = Substrate.invalidate substrate ops in
      if over () then
        (* The dirty-region pass already blew the budget: discard it and
           pay the predictable full rebuild instead. *)
        (Substrate.create (Substrate.graph s'), None, true)
      else (s', Some inv, false)
    end
  in
  let g' = Substrate.graph sub in
  let instances =
    List.map
      (fun e ->
        let inst, bound = e.build ~substrate:sub ~seed ~eps g' in
        (e, inst, bound))
      entries
  in
  { graph = g'; substrate = sub; instances; invalidation; full_rebuild;
    wall = wall () }
