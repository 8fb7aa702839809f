open Cr_graph

type 'h decision =
  | Deliver
  | Forward of int * 'h

type verdict =
  | Delivered
  | Dropped_at of int
  | Dead_end_at of int
  | Link_down_at of int * int
  | Hop_budget_exhausted
  | Loop_detected of int
  | Invalid_port of int * int

type outcome = {
  verdict : verdict;
  final : int;
  path : int list;
  length : float;
  hops : int;
  header_words_peak : int;
}

let delivered o = o.verdict = Delivered

let delivered_to o dst = o.verdict = Delivered && o.final = dst

let verdict_name = function
  | Delivered -> "delivered"
  | Dropped_at _ -> "dropped"
  | Dead_end_at _ -> "dead-end"
  | Link_down_at _ -> "link-down"
  | Hop_budget_exhausted -> "hop-budget-exhausted"
  | Loop_detected _ -> "loop-detected"
  | Invalid_port _ -> "invalid-port"

let verdict_class = function
  | Delivered -> 0
  | Dropped_at _ -> 1
  | Dead_end_at _ -> 2
  | Link_down_at _ -> 3
  | Hop_budget_exhausted -> 4
  | Loop_detected _ -> 5
  | Invalid_port _ -> 6

let verdict_classes =
  [| "delivered"; "dropped"; "dead-end"; "link-down"; "hop-budget-exhausted";
     "loop-detected"; "invalid-port" |]

let pp_verdict ppf = function
  | Delivered -> Format.pp_print_string ppf "delivered"
  | Dropped_at v -> Format.fprintf ppf "dropped after vertex %d" v
  | Dead_end_at v -> Format.fprintf ppf "dead end at vertex %d" v
  | Link_down_at (v, p) -> Format.fprintf ppf "link down at vertex %d port %d" v p
  | Hop_budget_exhausted -> Format.pp_print_string ppf "hop budget exhausted"
  | Loop_detected v -> Format.fprintf ppf "loop detected at vertex %d" v
  | Invalid_port (v, p) -> Format.fprintf ppf "invalid port %d at vertex %d" p v

type hop_record = {
  at : int;
  port : int;
  header_words : int;
}

(* Loop signatures: bucket on (vertex, words, structural hash) and confirm
   with structural equality, so a repeat is only declared when the exact
   (vertex, header) state recurs — a deterministic step function is then
   provably cycling. Headers containing functional values never compare
   equal (polymorphic compare raises) and simply forgo loop protection.

   Most schemes forward the same physical header for many consecutive hops
   (Via-chains, tree descents); re-hashing it each hop is the detector's
   dominant cost. Physical equality implies structural equality, so the
   cached hash is exact whenever it applies. *)
type 'h loops = {
  seen : (int * int * int, 'h list) Hashtbl.t;
  mutable hashed : 'h;
  mutable hash : int;
  mutable cached : bool;
}

let fresh_loops header =
  { seen = Hashtbl.create 64; hashed = header; hash = 0; cached = false }

let header_hash l hdr =
  if l.cached && hdr == l.hashed then l.hash
  else begin
    let h = Hashtbl.hash hdr in
    l.hashed <- hdr;
    l.hash <- h;
    l.cached <- true;
    h
  end

let repeats l ~at ~words hdr =
  let key = (at, words, header_hash l hdr) in
  let prior = Option.value (Hashtbl.find_opt l.seen key) ~default:[] in
  let same h = try compare h hdr = 0 with Invalid_argument _ -> false in
  List.exists same prior
  || begin
    Hashtbl.replace l.seen key (hdr :: prior);
    false
  end

(* The traversed length lives in an all-float record, which OCaml stores
   flat: adding a weight to it allocates nothing. *)
type meter = { mutable length : float }

(* One run: its hooks, resolved once, and the state the hop loop updates.
   The header in hand is an argument of the loop, not a field, so a hop
   writes only immediates here. *)
type 'h sim = {
  csr : Graph.csr;
  step : at:int -> 'h -> 'h decision;
  header_words : 'h -> int;
  max_hops : int;
  on_hop : (hop_record -> unit) option;
  faults : Fault.plan option;
  on_bounce : (at:int -> dead:int list -> 'h -> 'h decision option) option;
  corrupt : ('h -> 'h) option;
  record_path : bool;
  loops : 'h loops option;
  tc : Telemetry.counters;
  telon : bool;
  ttrace : bool;
  meter : meter;
  mutable at : int;  (* the vertex holding the message *)
  mutable hops : int;
  mutable peak : int;
  mutable words : int;  (* size of the header in hand; 0 if unsizeable *)
  mutable verdict : verdict;  (* set once, when the loop stops *)
}

let off32 (a : Graph.int32_array) i = Int32.to_int (Bigarray.Array1.get a i)

let degree s at = off32 s.csr.Graph.off (at + 1) - off32 s.csr.Graph.off at

(* Size the header in hand. A header the holding vertex cannot size (the
   size function raised) ends the run there, as a raising step does. *)
let sized s hdr =
  match s.header_words hdr with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception _ ->
    s.words <- 0;
    s.verdict <- Dead_end_at s.at;
    false
  | w ->
    s.words <- w;
    if w > s.peak then s.peak <- w;
    true

let delivered_here s =
  let at = s.at in
  (match s.on_hop with
  | Some f -> f { at; port = -1; header_words = s.words }
  | None -> ());
  if s.telon then s.tc.Telemetry.delivered <- s.tc.Telemetry.delivered + 1;
  if s.ttrace then Telemetry.emit Deliver ~at ~port:(-1) ~words:s.words;
  s.verdict <- Delivered

(* How a bounce chain gives up on [port] of [at]: a crashed neighbour
   behind a healthy link is a dead end there, anything else a dead link. *)
let given_up plan ~at ~port v =
  if Fault.vertex_down plan v && not (Fault.link_down plan at v) then
    Dead_end_at v
  else Link_down_at (at, port)

(* The hop loop. [hop] sizes the header in hand, checks for a loop and asks
   [step] for a decision; [forward] carries it out and [cross] moves the
   message; [bounce] runs only under a fault plan. Each returns the
   vertices entered from here on, so the path is built in order, one cons
   per hop and only with [record_path]; every recursive call is a tail
   call (modulo that cons), so the stack stays flat whatever the route's
   length. *)
let[@tail_mod_cons] rec hop s hdr =
  if not (sized s hdr) then []
  else
    let at = s.at in
    match s.loops with
    | Some l when repeats l ~at ~words:s.words hdr ->
      s.verdict <- Loop_detected at;
      []
    | _ -> (
      if s.telon then
        s.tc.Telemetry.table_lookups <- s.tc.Telemetry.table_lookups + 1;
      match s.step ~at hdr with
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception _ ->
        (* The local table cannot produce a next hop (it raised): in a real
           router the message is discarded here. *)
        s.verdict <- Dead_end_at at;
        []
      | dec -> forward s hdr ~dead:[] dec)

and[@tail_mod_cons] forward s hdr ~dead dec =
  let at = s.at in
  match dec with
  | Deliver ->
    delivered_here s;
    []
  | Forward (port, next) -> (
    if port < 0 || port >= degree s at then begin
      s.verdict <- Invalid_port (at, port);
      []
    end
    else
      let edge = off32 s.csr.Graph.off at + port in
      let v = off32 s.csr.Graph.dst edge in
      match s.faults with
      | Some plan when Fault.link_down plan at v || Fault.vertex_down plan v ->
        bounce s plan hdr ~dead ~port v
      | faults -> (
        if s.hops >= s.max_hops then begin
          (* Refuse the hop *before* traversing: the budget bounds the
             number of edges crossed, not the number of abort checks. *)
          s.verdict <- Hop_budget_exhausted;
          []
        end
        else
          let event =
            match faults with
            | None -> Fault.Pass
            | Some plan -> Fault.decide plan ~at ~port ~index:s.hops
          in
          (match s.on_hop with
          | Some f -> f { at; port; header_words = s.words }
          | None -> ());
          match event with
          | Fault.Pass ->
            if s.ttrace then Telemetry.emit Hop ~at ~port ~words:s.words;
            cross s ~edge v next
          | Fault.Drop ->
            if s.telon then
              s.tc.Telemetry.dropped <- s.tc.Telemetry.dropped + 1;
            if s.ttrace then Telemetry.emit Drop ~at ~port ~words:s.words;
            s.verdict <- Dropped_at at;
            []
          | Fault.Corrupt -> (
            if s.telon then
              s.tc.Telemetry.corrupted <- s.tc.Telemetry.corrupted + 1;
            if s.ttrace then Telemetry.emit Corrupt ~at ~port ~words:s.words;
            match s.corrupt with
            | None ->
              (* We cannot forge a header of an arbitrary type; the garbled
                 message is undeliverable and counts as lost in flight. *)
              s.verdict <- Dropped_at at;
              []
            | Some garble ->
              cross s ~edge v
                (try garble next with
                | (Out_of_memory | Stack_overflow) as e -> raise e
                | _ -> next))))

(* Cross the edge at flat index [edge] into [v], carrying [next]. *)
and[@tail_mod_cons] cross s ~edge v next =
  let w =
    match s.csr.Graph.wgt with
    | Graph.W64 a -> a.(edge)
    | Graph.W32 b -> Bigarray.Array1.get b edge
  in
  s.meter.length <- s.meter.length +. w;
  s.at <- v;
  s.hops <- s.hops + 1;
  if s.telon then s.tc.Telemetry.hops <- s.tc.Telemetry.hops + 1;
  if s.record_path then v :: hop s next else hop s next

(* The failed link (or crashed neighbour) behind [port] is observable
   locally: the message stays at the sender, [port] joins the dead ports,
   and the bounce hook may pick another port, with the dead ones masked. *)
and[@tail_mod_cons] bounce s plan hdr ~dead ~port v =
  let at = s.at in
  let dead = port :: dead in
  if s.telon then s.tc.Telemetry.bounces <- s.tc.Telemetry.bounces + 1;
  if s.ttrace then Telemetry.emit Bounce ~at ~port ~words:s.words;
  let alternative =
    match s.on_bounce with
    | Some f when List.length dead < degree s at -> (
      try f ~at ~dead hdr with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | _ -> None)
    | _ -> None
  in
  match alternative with
  | Some dec -> forward s hdr ~dead dec
  | None ->
    s.verdict <- given_up plan ~at ~port v;
    []

let garbles = function Some plan -> Fault.corrupts plan | None -> false

let run g ~src ~header ~step ~header_words ?(max_hops = (4 * Graph.n g) + 16)
    ?on_hop ?faults ?on_bounce ?corrupt ?(record_path = true)
    ?(detect_loops = true) () =
  if src < 0 || src >= Graph.n g then
    invalid_arg (Printf.sprintf "Port_model.run: source %d out of range" src);
  (* Every hook is resolved here, once: with none present a hop tests a few
     fields and allocates nothing. Telemetry too: a single flag read, and
     the shard is this domain's own, so parallel sweeps never contend. *)
  let telon = !Telemetry.on in
  let tc =
    if telon then Telemetry.counters_shard () else Telemetry.null_counters
  in
  if telon then tc.Telemetry.routes <- tc.Telemetry.routes + 1;
  let s =
    {
      csr = Graph.csr g;
      step;
      header_words;
      max_hops;
      on_hop;
      faults;
      on_bounce;
      corrupt;
      record_path;
      (* A [corrupt] hook under a corrupting plan rewrites headers at
         hop-dependent points, so a repeated state proves no cycle there. *)
      loops =
        (if detect_loops && not (Option.is_some corrupt && garbles faults)
         then Some (fresh_loops header) else None);
      tc;
      telon;
      ttrace = telon && Telemetry.tracing ();
      meter = { length = 0.0 };
      at = src;
      hops = 0;
      peak = 0;
      words = 0;
      verdict = Delivered;
    }
  in
  let rest =
    match faults with
    | Some plan when Fault.vertex_down plan src ->
      ignore (sized s header);
      s.verdict <- Dead_end_at src;
      []
    | _ -> hop s header
  in
  if s.ttrace then
    Telemetry.emit
      (End (verdict_name s.verdict))
      ~at:s.at ~port:(-1) ~words:s.words;
  {
    verdict = s.verdict;
    final = s.at;
    path = (if record_path then src :: rest else []);
    length = s.meter.length;
    hops = s.hops;
    header_words_peak = s.peak;
  }
