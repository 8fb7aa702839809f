let to_string g =
  let buf = Buffer.create (16 * (Graph.m g + 1)) in
  Buffer.add_string buf (Printf.sprintf "p %d %d\n" (Graph.n g) (Graph.m g));
  List.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "e %d %d %.17g\n" u v w))
    (Graph.edges g);
  Buffer.contents buf

(* One parser for both entry points, fed a line at a time: [of_string]
   walks a pre-split document, [load] streams straight off the channel —
   a million-edge file never lives in memory as a string or an edge list;
   edges go directly into the CSR builder. *)

(* Ids are bounded so an unordered pair packs into one immediate int for
   the duplicate check (no tuple allocation per edge). *)
let max_vertex_id = (1 lsl 31) - 1

type state = {
  builder : Graph.Builder.t;
  seen : (int, unit) Hashtbl.t;
  mutable n : int; (* -1 until the header arrives *)
  mutable declared_m : int;
  mutable edge_count : int;
  mutable max_id : int;
}

let fresh_state () =
  {
    builder = Graph.Builder.create ();
    seen = Hashtbl.create 64;
    n = -1;
    declared_m = -1;
    edge_count = 0;
    max_id = -1;
  }

let feed st idx line =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        failwith (Printf.sprintf "Graph_io: %s at line %d" msg (idx + 1)))
      fmt
  in
  let line = String.trim line in
  if line = "" || line.[0] = 'c' then ()
  else
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | [ "p"; n_s; m_s ] -> (
      match (int_of_string_opt n_s, int_of_string_opt m_s) with
      | Some nv, Some mv when st.n < 0 ->
        if nv < 0 then bad "negative vertex count %d" nv;
        if mv < 0 then bad "negative edge count %d" mv;
        (* The CSR's own limit, checked here so that an oversized header
           fails at its line before the builder allocates n-sized arrays. *)
        if nv > Graph.csr_limit then
          bad "vertex count %d exceeds the CSR limit %d" nv Graph.csr_limit;
        if mv > Graph.csr_limit / 2 then
          bad "edge count %d exceeds the CSR limit %d" mv (Graph.csr_limit / 2);
        st.n <- nv;
        st.declared_m <- mv
      | Some _, Some _ -> bad "duplicate header"
      | _ -> bad "bad header")
    | [ "e"; u_s; v_s; w_s ] -> (
      match (int_of_string_opt u_s, int_of_string_opt v_s, float_of_string_opt w_s) with
      | Some u, Some v, Some w ->
        if u < 0 || v < 0 then bad "negative vertex id";
        if u > max_vertex_id || v > max_vertex_id then bad "vertex id too large";
        if u = v then bad "self-loop %d-%d" u v;
        if not (Float.is_finite w) then bad "non-finite weight %g" w;
        if w <= 0.0 then bad "non-positive weight %g" w;
        (* Duplicate edges are rejected here rather than silently merged:
           a document listing the same unordered pair twice is corrupt,
           and the builder's keep-the-lightest policy would mask that. *)
        let key = (min u v lsl 31) lor max u v in
        if Hashtbl.mem st.seen key then bad "duplicate edge %d-%d" u v;
        Hashtbl.add st.seen key ();
        Graph.Builder.add_edge st.builder u v w;
        st.edge_count <- st.edge_count + 1;
        if u > st.max_id then st.max_id <- u;
        if v > st.max_id then st.max_id <- v
      | _ -> bad "bad edge")
    | _ -> failwith (Printf.sprintf "Graph_io: unrecognized line %d" (idx + 1))

let finish st =
  if st.n < 0 then failwith "Graph_io: missing header";
  if st.edge_count <> st.declared_m then
    failwith
      (Printf.sprintf "Graph_io: header declares %d edges but %d listed"
         st.declared_m st.edge_count);
  if st.max_id >= st.n then failwith "Graph_io: vertex id exceeds n";
  Graph.Builder.finish ~n:st.n st.builder

let of_string s =
  let st = fresh_state () in
  List.iteri (feed st) (String.split_on_char '\n' s);
  finish st

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let st = fresh_state () in
      let idx = ref 0 in
      (try
         while true do
           feed st !idx (input_line ic);
           incr idx
         done
       with End_of_file -> ());
      finish st)
