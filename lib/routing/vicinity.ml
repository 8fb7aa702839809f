open Cr_graph

(* Two physical representations behind one abstract [t]:

   - [Boxed]: the original per-vertex record (member/dist/port arrays plus
     a compiled member -> position map). Built by [compute]/[of_truncated]
     and by [compute_all] in its default mode.
   - [Slice]: one vertex's window into a packed {e family} — a single
     int32/float64 Bigarray block of stride [l] shared by all n vicinities.
     At l ~ n^(1/3) log n and n = 10^6 the boxed family costs hundreds of
     bytes per member (boxed arrays, a per-vertex index); the packed family
     is 16 B/member flat. Slices answer membership by a linear scan of at
     most [l] entries — no per-vertex index — which is far below the cost
     of the searches the answers feed, and keeps the family's memory at
     exactly its payload.

   Every accessor returns identical answers on both representations; the
   packed builder runs the same [Dijkstra.truncated_ws] per source, so the
   contents are bit-identical, not merely equivalent. *)

type boxed = {
  source : int;
  members : int array;
  dists : float array;
  index : Compiled.Intmap.t;   (* member -> position in [members] *)
  first_ports : int array;      (* position-indexed *)
  radius : float;
}

type i32arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The blocks are type parameters: Bigarrays in a live family, blob ids
   in its snapshot form. *)
type ('i, 'f) family = {
  f_l : int;              (* stride: member capacity per vertex *)
  f_len : int array;      (* actual member count per vertex *)
  f_members : 'i;         (* vertex u's members at [u*l .. u*l+len-1] *)
  f_ports : 'i;           (* first-hop ports, position-indexed *)
  f_dists : 'f;           (* distances, position-indexed *)
  f_radius : float array; (* r_u(l) per vertex *)
}

(* A slice names its family: the record itself when live, its index in
   the frozen family table when frozen. *)
type 'fam entry = Boxed of boxed | Slice of 'fam * int

type t = (i32arr, f64arr) family entry

(* Typed block reads, so the Bigarray accesses of the [family]-generic
   accessors below compile to direct loads. *)
let fget (a : i32arr) i = Int32.to_int (Bigarray.Array1.get a i)
let fdist (a : f64arr) i = Bigarray.Array1.get a i

(* r_u(l) for the prefix [dists.(0 .. k-1)] whose nearest excluded vertex
   sits at distance [nd] (Lemma 7 / Section 2 definition): the largest
   distance r such that {e every} vertex at distance exactly r is settled.
   Distance classes strictly below [nd] are complete by the settling order;
   the class at [nd] itself is split — the excluded vertex ties it — so the
   radius backs off to the largest settled distance strictly below [nd].
   Distances are compared exactly: a tie at the truncation boundary means
   bit-equal path lengths, which is what the (dist, id) settling order
   itself uses. Monotone in k: since dists is sorted, the backoff is the
   last settled distance < nd, and with no settled distance below [nd]
   (k = 0, or every member tied at [nd]) the radius is 0 — only the empty
   ball is complete. *)
let radius_below dists k nd =
  let rec scan i = if i < 0 then 0.0 else if dists.(i) < nd then dists.(i) else scan (i - 1) in
  scan (k - 1)

let radius_of_truncated (tr : Dijkstra.truncated) =
  let k = Array.length tr.vertices in
  let max_dist = if k = 0 then 0.0 else tr.dists.(k - 1) in
  match tr.next_dist with
  | None ->
    (* Nothing reachable was excluded: every realized distance class is
       complete and the radius is the farthest member's distance. *)
    max_dist
  | Some nd -> if nd > max_dist then max_dist else radius_below tr.dists k nd

(* The member -> position index every lookup (and Lemma 2 hop) reads. *)
let index_of members =
  Compiled.Intmap.of_pairs (Array.mapi (fun i v -> (v, i)) members)

let of_truncated (tr : Dijkstra.truncated) =
  Boxed
    {
      source = tr.src;
      members = tr.vertices;
      dists = tr.dists;
      index = index_of tr.vertices;
      first_ports = tr.first_ports;
      radius = radius_of_truncated tr;
    }

let compute g u l = of_truncated (Dijkstra.truncated g u l)

(* Source [u]'s search result into its stride of a packed family. *)
let write_row (fam : (i32arr, f64arr) family) u (tr : Dijkstra.truncated) =
  let base = u * fam.f_l in
  Array.iteri
    (fun i v ->
      Bigarray.Array1.set fam.f_members (base + i) (Int32.of_int v);
      Bigarray.Array1.set fam.f_ports (base + i)
        (Int32.of_int tr.first_ports.(i));
      Bigarray.Array1.set fam.f_dists (base + i) tr.dists.(i))
    tr.vertices;
  fam.f_len.(u) <- Array.length tr.vertices;
  fam.f_radius.(u) <- radius_of_truncated tr

let compute_all ?pool ?(packed = false) g l =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let n = Graph.n g in
  if not packed then
    Pool.map_local pool ~n
      ~local:(fun () -> Dijkstra.workspace n)
      (fun ws u -> of_truncated (Dijkstra.truncated_ws ws g u l))
  else begin
    let l = max l 1 in
    let cap = n * l in
    let fam =
      {
        f_l = l;
        f_len = Array.make n 0;
        f_members = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout cap;
        f_ports = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout cap;
        f_dists = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap;
        f_radius = Array.make n 0.0;
      }
    in
    (* Same per-source truncated search as the boxed path; each source owns
       the disjoint stride [u*l .. u*l + l - 1], so the parallel fill is
       race-free and the family contents do not depend on scheduling. *)
    Pool.iter_local pool ~n
      ~local:(fun () -> Dijkstra.workspace n)
      (fun ws u -> write_row fam u (Dijkstra.truncated_ws ws g u l));
    Array.init n (fun u -> Slice (fam, u))
  end

let source = function Boxed b -> b.source | Slice (_, u) -> u

let size = function
  | Boxed b -> Array.length b.members
  | Slice (fam, u) -> fam.f_len.(u)

(* Position of [v] in a slice, or -1: a forward scan of at most [l]
   entries, in (dist, id) order like the boxed arrays. *)
let slice_pos fam u v =
  let base = u * fam.f_l and k = fam.f_len.(u) in
  let rec scan i =
    if i >= k then -1
    else if fget fam.f_members (base + i) = v then i
    else scan (i + 1)
  in
  scan 0

let mem b v =
  match b with
  | Boxed b -> Compiled.Intmap.mem b.index v
  | Slice (fam, u) -> slice_pos fam u v >= 0

let position b v =
  match b with
  | Boxed b -> Compiled.Intmap.find b.index v
  | Slice (fam, u) ->
    let i = slice_pos fam u v in
    if i < 0 then raise Not_found else i

let dist b v =
  match b with
  | Boxed bx -> bx.dists.(position b v)
  | Slice (fam, u) -> fdist fam.f_dists ((u * fam.f_l) + position b v)

let dist_or_infinity b v =
  match b with
  | Boxed bx -> (
    match Compiled.Intmap.find_opt bx.index v with
    | Some i -> bx.dists.(i)
    | None -> infinity)
  | Slice (fam, u) ->
    let i = slice_pos fam u v in
    if i < 0 then infinity else fdist fam.f_dists ((u * fam.f_l) + i)

(* The hot lookup of every Lemma 2 hop: one match, one index probe. *)
let first_port b v =
  match b with
  | Boxed bx ->
    let i = Compiled.Intmap.find bx.index v in
    if v = bx.source then invalid_arg "Vicinity.first_port: source";
    bx.first_ports.(i)
  | Slice (fam, u) ->
    let i = slice_pos fam u v in
    if i < 0 then raise Not_found;
    if v = u then invalid_arg "Vicinity.first_port: source";
    fget fam.f_ports ((u * fam.f_l) + i)

let radius = function Boxed b -> b.radius | Slice (fam, u) -> fam.f_radius.(u)

let members = function
  | Boxed b -> b.members
  | Slice (fam, u) ->
    let base = u * fam.f_l in
    Array.init fam.f_len.(u) (fun i -> fget fam.f_members (base + i))

let max_dist = function
  | Boxed b ->
    let k = Array.length b.dists in
    if k = 0 then 0.0 else b.dists.(k - 1)
  | Slice (fam, u) ->
    let k = fam.f_len.(u) in
    if k = 0 then 0.0 else fdist fam.f_dists ((u * fam.f_l) + k - 1)

let rank b v =
  match b with
  | Boxed b -> Compiled.Intmap.find_opt b.index v
  | Slice (fam, u) ->
    let i = slice_pos fam u v in
    if i < 0 then None else Some i

let prefix_radius b l' =
  let k = size b in
  if l' >= k then radius b
  else if l' <= 0 then 0.0
  else
    (* The nearest excluded vertex of the prefix is member l'. *)
    match b with
    | Boxed b -> radius_below b.dists l' b.dists.(l')
    | Slice (fam, u) ->
      let base = u * fam.f_l in
      let d i = fdist fam.f_dists (base + i) in
      let nd = d l' in
      let rec scan i = if i < 0 then 0.0 else if d i < nd then d i else scan (i - 1) in
      scan (l' - 1)

let nearest_of b pred =
  (* Members are already in (dist, id) order. *)
  match b with
  | Boxed b ->
    let rec scan i =
      if i >= Array.length b.members then None
      else if pred b.members.(i) then Some b.members.(i)
      else scan (i + 1)
    in
    scan 0
  | Slice (fam, u) ->
    let base = u * fam.f_l and k = fam.f_len.(u) in
    let rec scan i =
      if i >= k then None
      else
        let v = fget fam.f_members (base + i) in
        if pred v then Some v else scan (i + 1)
    in
    scan 0

let step vicinities ~at ~dst = first_port vicinities.(at) dst

(* A slice is re-boxed before remapping: the family block must stay
   immutable, since its other slices still describe the old graph
   ([update] remaps a whole family in a copy instead). *)
let to_boxed b =
  match b with
  | Boxed bx -> bx
  | Slice (fam, u) ->
    let base = u * fam.f_l and k = fam.f_len.(u) in
    let members = Array.init k (fun i -> fget fam.f_members (base + i)) in
    {
      source = u;
      members;
      dists = Array.init k (fun i -> fdist fam.f_dists (base + i));
      index = index_of members;
      first_ports = Array.init k (fun i -> fget fam.f_ports (base + i));
      radius = fam.f_radius.(u);
    }

let remap_ports b f =
  let bx = to_boxed b in
  Boxed
    {
      bx with
      first_ports = Array.map (fun p -> if p < 0 then p else f p) bx.first_ports;
    }

type fate = Keep | Remap of (int -> int) | Recompute

(* The family [vics] is one packed block, as [compute_all ~packed:true] and
   [thaw] lay it out: entry [u] is row [u] of one family. *)
let packed_family vics =
  let n = Array.length vics in
  let rec rows fam i =
    i = n
    || match vics.(i) with
       | Slice (f, u) -> f == fam && u = i && rows fam (i + 1)
       | Boxed _ -> false
  in
  match if n = 0 then None else Some vics.(0) with
  | Some (Slice (fam, _)) when Array.length fam.f_len = n && rows fam 0 ->
    Some fam
  | _ -> None

let copy_block a =
  let c =
    Bigarray.Array1.create (Bigarray.Array1.kind a) Bigarray.c_layout
      (Bigarray.Array1.dim a)
  in
  Bigarray.Array1.blit a c;
  c

(* A packed family is copied whole and its changed rows rewritten in the
   copy: the old block is never written, since the old graph's instances
   still read it, and the new family is one block again, laid out as a
   fresh [compute_all ~packed:true] lays it out. *)
let update g l (vics : t array) fate =
  let ws = lazy (Dijkstra.workspace (Graph.n g)) in
  let search u l = Dijkstra.truncated_ws (Lazy.force ws) g u l in
  match packed_family vics with
  | None ->
    Array.map
      (fun b ->
        match fate b with
        | Keep -> b
        | Remap f -> remap_ports b f
        | Recompute -> of_truncated (search (source b) l))
      vics
  | Some fam ->
    let fam' =
      {
        fam with
        f_len = Array.copy fam.f_len;
        f_members = copy_block fam.f_members;
        f_ports = copy_block fam.f_ports;
        f_dists = copy_block fam.f_dists;
        f_radius = Array.copy fam.f_radius;
      }
    in
    Array.iteri
      (fun u b ->
        match fate b with
        | Keep -> ()
        | Remap f ->
          let base = u * fam'.f_l in
          for i = base to base + fam'.f_len.(u) - 1 do
            let p = fget fam'.f_ports i in
            if p >= 0 then Bigarray.Array1.set fam'.f_ports i (Int32.of_int (f p))
          done
        | Recompute -> write_row fam' u (search u fam'.f_l))
      vics;
    Array.init (Array.length vics) (fun u -> Slice (fam', u))

(* --- snapshot form ------------------------------------------------------

   A vicinity array freezes to its own entries with each packed family
   replaced by its index in a family table whose Bigarray blocks became
   snapshot blobs; boxed vicinities ride the residue wholesale (plain
   arrays and the compiled index). Thawing rebuilds each family record
   once, so every slice of one family shares one block again — and a
   caller that thaws a vicinity array once and hands it to its
   sub-structures restores the cross-structure sharing the builder had. *)

type frozen = { fams : (int, int) family array; entries : int entry array }

let freeze sink (vics : t array) =
  let seen = ref [] and fams = ref [] in
  let fam_id fam =
    match List.assq_opt fam !seen with
    | Some i -> i
    | None ->
      let i = List.length !seen in
      seen := (fam, i) :: !seen;
      fams :=
        {
          fam with
          f_members = Snapshot.put sink (Snapshot.I32 fam.f_members);
          f_ports = Snapshot.put sink (Snapshot.I32 fam.f_ports);
          f_dists = Snapshot.put sink (Snapshot.F64 fam.f_dists);
        }
        :: !fams;
      i
  in
  let entries =
    Array.map
      (function Boxed b -> Boxed b | Slice (fam, u) -> Slice (fam_id fam, u))
      vics
  in
  { fams = Array.of_list (List.rev !fams); entries }

let thaw src z : t array =
  let fams =
    Array.map
      (fun f ->
        {
          f with
          f_members = Snapshot.get_i32 src f.f_members;
          f_ports = Snapshot.get_i32 src f.f_ports;
          f_dists = Snapshot.get_f64 src f.f_dists;
        })
      z.fams
  in
  Array.map
    (function Boxed b -> Boxed b | Slice (i, u) -> Slice (fams.(i), u))
    z.entries

let payload_bytes vics =
  (* Bigarray payload bytes reachable from the array — exactly what
     [Obj.reachable_words] cannot see. Families are shared across slices;
     count each once. *)
  let seen = ref [] in
  Array.fold_left
    (fun acc v ->
      match v with
      | Boxed _ -> acc
      | Slice (fam, _) ->
        if List.exists (fun f -> f == fam) !seen then acc
        else begin
          seen := fam :: !seen;
          acc
          + Compiled.bigarray_bytes fam.f_members
          + Compiled.bigarray_bytes fam.f_ports
          + Compiled.bigarray_bytes fam.f_dists
        end)
    0 vics
