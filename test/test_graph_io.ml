(* Graph_io: the plain-text serialization and its strict parser.

   The contract: [of_string] inverts [to_string] exactly (weights are
   written with %.17g, so doubles round-trip), and every malformed
   document — bad header, bad edge, self-loop, duplicate edge,
   non-finite weight, miscounted edges — fails with [Failure], never a
   crash or a silently repaired graph. *)
open Util
open Cr_graph

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip =
  qcheck ~count:150 "of_string (to_string g) preserves the graph exactly"
    arb_weighted_connected_graph
    (fun g ->
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      Graph.n g' = Graph.n g
      && Graph.m g' = Graph.m g
      && Graph.edges g' = Graph.edges g)

let test_roundtrip_unweighted =
  qcheck ~count:100 "unit-weighted graphs stay unit-weighted"
    arb_connected_graph
    (fun g ->
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      Graph.is_unit_weighted g' = Graph.is_unit_weighted g
      && Graph.edges g' = Graph.edges g)

let test_file_roundtrip () =
  let g =
    Generators.with_random_weights ~seed:3 ~lo:0.25 ~hi:8.0
      (Generators.connect ~seed:3 (Generators.gnp ~seed:3 30 0.15))
  in
  let path = Filename.temp_file "cr_graph_io" ".gr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Graph_io.save g path;
      let g' = Graph_io.load path in
      checkb "edges survive a file round trip" true
        (Graph.edges g' = Graph.edges g))

(* ------------------------------------------------------------------ *)
(* Accepted documents                                                  *)
(* ------------------------------------------------------------------ *)

let test_comments_and_blanks () =
  let g =
    Graph_io.of_string "c a comment\n\np 3 2\nc another\ne 0 1 1.5\ne 1 2 2\n"
  in
  checki "n" 3 (Graph.n g);
  checki "m" 2 (Graph.m g);
  checkf "weight survives" 1.5
    (Graph.port_weight g 0 (Option.get (Graph.port_to g 0 1)))

let test_isolated_vertices () =
  let g = Graph_io.of_string "p 5 1\ne 0 4 1\n" in
  checki "n includes isolated vertices" 5 (Graph.n g);
  checki "degree of an isolated vertex" 0 (Graph.degree g 2)

(* ------------------------------------------------------------------ *)
(* Rejected documents                                                  *)
(* ------------------------------------------------------------------ *)

let rejects name doc =
  case name (fun () ->
      match Graph_io.of_string doc with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed document %S" doc)

let rejected_cases =
  [
    rejects "missing header" "e 0 1 1.0\n";
    rejects "bad header" "p x 1\ne 0 1 1.0\n";
    rejects "duplicate header" "p 2 1\np 2 1\ne 0 1 1.0\n";
    rejects "negative vertex count" "p -2 1\ne 0 1 1.0\n";
    rejects "unrecognized line" "p 2 1\nzzz\n";
    rejects "truncated edge" "p 2 1\ne 0 1\n";
    rejects "non-numeric weight" "p 2 1\ne 0 1 abc\n";
    rejects "negative vertex id" "p 2 1\ne -1 1 1.0\n";
    rejects "vertex id beyond n" "p 2 1\ne 0 7 1.0\n";
    rejects "self-loop" "p 2 1\ne 1 1 1.0\n";
    rejects "duplicate edge" "p 3 2\ne 0 1 1.0\ne 1 0 2.0\n";
    rejects "nan weight" "p 2 1\ne 0 1 nan\n";
    rejects "infinite weight" "p 2 1\ne 0 1 inf\n";
    rejects "zero weight" "p 2 1\ne 0 1 0.0\n";
    rejects "negative weight" "p 2 1\ne 0 1 -2.0\n";
    rejects "fewer edges than declared" "p 3 2\ne 0 1 1.0\n";
    rejects "more edges than declared" "p 3 1\ne 0 1 1.0\ne 1 2 1.0\n";
  ]

let names_line k msg =
  let tag = Printf.sprintf "line %d" k in
  let len = String.length tag in
  let rec contains i =
    i + len <= String.length msg
    && (String.sub msg i len = tag || contains (i + 1))
  in
  contains 0

let test_error_names_line () =
  match Graph_io.of_string "p 3 2\ne 0 1 1.0\ne 2 2 1.0\n" with
  | exception Failure msg ->
    checkb "error message names the offending line" true (names_line 3 msg)
  | _ -> Alcotest.fail "self-loop accepted"

(* A header past the int32 CSR limit fails at its own line, before the
   builder would allocate n-sized arrays for it. *)
let test_header_past_csr_limit () =
  List.iter
    (fun doc ->
      match Graph_io.of_string doc with
      | exception Failure msg ->
        checkb ("the header line is named: " ^ msg) true (names_line 2 msg)
      | _ -> Alcotest.failf "accepted oversized header %S" doc)
    [
      Printf.sprintf "c too many vertices\np %d 0\n" (Graph.csr_limit + 1);
      Printf.sprintf "c too many edges\np 3 %d\n" ((Graph.csr_limit / 2) + 1);
    ]

let test_load_missing_file () =
  match Graph_io.load "/nonexistent/cr_no_such_file.gr" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "loading a missing file should raise Sys_error"

let suite =
  [
    test_roundtrip;
    test_roundtrip_unweighted;
    case "file save/load round trip" test_file_roundtrip;
    case "comments and blank lines" test_comments_and_blanks;
    case "isolated vertices survive" test_isolated_vertices;
    case "parse errors carry line numbers" test_error_names_line;
    case "header past the CSR limit" test_header_past_csr_limit;
    case "loading a missing file raises Sys_error" test_load_missing_file;
  ]
  @ rejected_cases
