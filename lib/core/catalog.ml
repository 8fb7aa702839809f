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

(* Snapshot codecs. [enc] runs the same preprocess the entry's [build]
   runs, then freezes the scheme state: Bigarray payloads become snapshot
   blobs, the rest one Marshal residue. [dec] is only reached after
   [Snapshot.check] validated the scheme id and residue checksum, so the
   unmarshal below cannot be handed another scheme's bytes. *)

let snap_full =
  {
    enc =
      (fun ?substrate ~seed:_ ~eps:_ g sink ->
        ignore sink;
        Marshal.to_string (Full_tables.freeze (Full_tables.preprocess ?substrate g)) []);
    dec =
      (fun _src residue g ->
        let z : Full_tables.frozen = Marshal.from_string residue 0 in
        let t = Full_tables.thaw ~graph:g z in
        (Full_tables.instance t, Full_tables.stretch_bound t));
  }

let snap_tz k =
  {
    enc =
      (fun ?substrate ~seed ~eps:_ g sink ->
        ignore sink;
        Marshal.to_string (Tz_routing.freeze (Tz_routing.preprocess ?substrate ~seed g ~k)) []);
    dec =
      (fun _src residue g ->
        let z : Tz_routing.frozen = Marshal.from_string residue 0 in
        let t = Tz_routing.thaw ~graph:g z in
        (Tz_routing.instance t, Tz_routing.stretch_bound t));
  }

let snap_3eps =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme3eps.freeze sink (Scheme3eps.preprocess ?substrate ~eps ~seed g))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme3eps.frozen = Marshal.from_string residue 0 in
        let t = Scheme3eps.thaw src ~graph:g z in
        (Scheme3eps.instance t, Scheme3eps.stretch_bound t));
  }

let snap_ni =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme_ni.freeze sink (Scheme_ni.preprocess ?substrate ~eps ~seed g))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme_ni.frozen = Marshal.from_string residue 0 in
        let t = Scheme_ni.thaw src ~graph:g z in
        (Scheme_ni.instance t, Scheme_ni.stretch_bound t));
  }

let snap_2eps1 =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme2eps1.freeze sink (Scheme2eps1.preprocess ?substrate ~eps ~seed g))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme2eps1.frozen = Marshal.from_string residue 0 in
        let t = Scheme2eps1.thaw src ~graph:g z in
        (Scheme2eps1.instance t, Scheme2eps1.stretch_bound t));
  }

let snap_5eps =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme5eps.freeze sink (Scheme5eps.preprocess ?substrate ~eps ~seed g))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme5eps.frozen = Marshal.from_string residue 0 in
        let t = Scheme5eps.thaw src ~graph:g z in
        (Scheme5eps.instance t, Scheme5eps.stretch_bound t));
  }

let snap_ptr ~variant ~ell =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme_ptr.freeze sink
             (Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant ~ell g))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme_ptr.frozen = Marshal.from_string residue 0 in
        let t = Scheme_ptr.thaw src ~graph:g z in
        (Scheme_ptr.instance t, Scheme_ptr.stretch_bound t));
  }

let snap_4km7 k =
  {
    enc =
      (fun ?substrate ~seed ~eps g sink ->
        Marshal.to_string
          (Scheme4km7.freeze sink (Scheme4km7.preprocess ?substrate ~eps ~seed g ~k))
          []);
    dec =
      (fun src residue g ->
        let z : Scheme4km7.frozen = Marshal.from_string residue 0 in
        let t = Scheme4km7.thaw src ~graph:g z in
        (Scheme4km7.instance t, Scheme4km7.stretch_bound t));
  }

let all =
  [
    {
      id = "full";
      description = "shortest-path routing with full tables";
      paper_stretch = "1";
      paper_space = "n";
      source = "folklore";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed:_ ~eps:_ g ->
          let t = Full_tables.preprocess ?substrate g in
          (Full_tables.instance t, Full_tables.stretch_bound t));
      snap = snap_full;
    };
    {
      id = "tz-k2";
      description = "Thorup-Zwick compact routing, k=2";
      paper_stretch = "3";
      paper_space = "n^1/2";
      source = "Thorup-Zwick SPAA'01";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps:_ g ->
          let t = Tz_routing.preprocess ?substrate ~seed g ~k:2 in
          (Tz_routing.instance t, Tz_routing.stretch_bound t));
      snap = snap_tz 2;
    };
    {
      id = "tz-k3";
      description = "Thorup-Zwick compact routing, k=3";
      paper_stretch = "7";
      paper_space = "n^1/3";
      source = "Thorup-Zwick SPAA'01";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps:_ g ->
          let t = Tz_routing.preprocess ?substrate ~seed g ~k:3 in
          (Tz_routing.instance t, Tz_routing.stretch_bound t));
      snap = snap_tz 3;
    };
    {
      id = "tz-k4";
      description = "Thorup-Zwick compact routing, k=4";
      paper_stretch = "11";
      paper_space = "n^1/4";
      source = "Thorup-Zwick SPAA'01";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps:_ g ->
          let t = Tz_routing.preprocess ?substrate ~seed g ~k:4 in
          (Tz_routing.instance t, Tz_routing.stretch_bound t));
      snap = snap_tz 4;
    };
    {
      id = "rt-3eps";
      description = "Roditty-Tov warm-up (3+eps)-stretch scheme";
      paper_stretch = "3+eps";
      paper_space = "n^1/2 / eps";
      source = "paper Section 4";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme3eps.preprocess ?substrate ~eps ~seed g in
          (Scheme3eps.instance t, Scheme3eps.stretch_bound t));
      snap = snap_3eps;
    };
    {
      id = "rt-3eps-ni";
      description = "Roditty-Tov name-independent (3+eps)-stretch scheme";
      paper_stretch = "3+eps";
      paper_space = "n^1/2 / eps";
      source = "paper Section 4 (remark)";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme_ni.preprocess ?substrate ~eps ~seed g in
          (Scheme_ni.instance t, Scheme_ni.stretch_bound t));
      snap = snap_ni;
    };
    {
      id = "rt-2eps1";
      description = "Roditty-Tov (2+eps,1)-stretch scheme (Theorem 10)";
      paper_stretch = "(2+eps,1)";
      paper_space = "n^2/3 / eps";
      source = "paper Theorem 10";
      weighted_ok = false;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme2eps1.preprocess ?substrate ~eps ~seed g in
          (Scheme2eps1.instance t, Scheme2eps1.stretch_bound t));
      snap = snap_2eps1;
    };
    {
      id = "rt-5eps";
      description = "Roditty-Tov (5+eps)-stretch scheme (Theorem 11)";
      paper_stretch = "5+eps";
      paper_space = "n^1/3 logD / eps";
      source = "paper Theorem 11";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme5eps.preprocess ?substrate ~eps ~seed g in
          (Scheme5eps.instance t, Scheme5eps.stretch_bound t));
      snap = snap_5eps;
    };
    {
      id = "rt-ptr-minus-l3";
      description = "Roditty-Tov (2 1/3+eps,2)-stretch scheme (Theorem 13, l=3)";
      paper_stretch = "(2 1/3+eps,2)";
      paper_space = "n^3/5 / eps";
      source = "paper Theorem 13";
      weighted_ok = false;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Minus ~ell:3 g in
          (Scheme_ptr.instance t, Scheme_ptr.stretch_bound t));
      snap = snap_ptr ~variant:`Minus ~ell:3;
    };
    {
      id = "rt-ptr-minus-l2";
      description = "Roditty-Tov (2+eps,2)-stretch scheme (Theorem 13, l=2)";
      paper_stretch = "(2+eps,2)";
      paper_space = "n^2/3 / eps";
      source = "paper Theorem 13";
      weighted_ok = false;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Minus ~ell:2 g in
          (Scheme_ptr.instance t, Scheme_ptr.stretch_bound t));
      snap = snap_ptr ~variant:`Minus ~ell:2;
    };
    {
      id = "rt-ptr-plus-l2";
      description = "Roditty-Tov (4+eps,2)-stretch scheme (Theorem 15, l=2)";
      paper_stretch = "(4+eps,2)";
      paper_space = "n^2/5 / eps";
      source = "paper Theorem 15";
      weighted_ok = false;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme_ptr.preprocess ?substrate ~eps ~seed ~variant:`Plus ~ell:2 g in
          (Scheme_ptr.instance t, Scheme_ptr.stretch_bound t));
      snap = snap_ptr ~variant:`Plus ~ell:2;
    };
    {
      id = "rt-4km7-k3";
      description = "Roditty-Tov (5+eps)-stretch via Theorem 16, k=3";
      paper_stretch = "5+eps";
      paper_space = "n^1/3 logD / eps";
      source = "paper Theorem 16";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme4km7.preprocess ?substrate ~eps ~seed g ~k:3 in
          (Scheme4km7.instance t, Scheme4km7.stretch_bound t));
      snap = snap_4km7 3;
    };
    {
      id = "rt-4km7-k4";
      description = "Roditty-Tov (9+eps)-stretch scheme (Theorem 16, k=4)";
      paper_stretch = "9+eps";
      paper_space = "n^1/4 logD / eps";
      source = "paper Theorem 16";
      weighted_ok = true;
      build =
        (fun ?substrate ~seed ~eps g ->
          let t = Scheme4km7.preprocess ?substrate ~eps ~seed g ~k:4 in
          (Scheme4km7.instance t, Scheme4km7.stretch_bound t));
      snap = snap_4km7 4;
    };
  ]

(* Every catalog build lands one span in the "preprocess" latency
   histogram; wrapping here keeps the scheme modules telemetry-free. *)
let all =
  List.map
    (fun e ->
      {
        e with
        build =
          (fun ?substrate ~seed ~eps g ->
            Telemetry.timed "preprocess" (fun () -> e.build ?substrate ~seed ~eps g));
      })
    all

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
       wrapped id, so [Snapshot.check] still discriminates); the wrapper
       is reapplied on load. *)
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
