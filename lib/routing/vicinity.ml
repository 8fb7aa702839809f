open Cr_graph

(* One physical representation: the family B(u, l) of every vertex u is
   one packed block — member ids and first-hop ports as int32, distances
   as float64, vertex u's row at [u*l .. u*l + len - 1] — plus a member
   count and a radius per vertex. A vicinity is one row of a family. At
   l ~ n^(1/3) log n and n = 10^6 the family costs 16 B per member flat,
   with no per-vertex index: a row answers membership by a forward scan of
   at most [l] entries, which is far below the cost of the searches the
   answers feed. Since B(u, l') is the first l' members of B(u, l)
   (paper Section 2), a family of a smaller size can be a view of a larger
   one's blocks ([prefix]). *)

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

type fam = (i32arr, f64arr) family

(* Row [u] of [fam]. *)
type t = { fam : fam; u : int }

(* Typed block reads, so the Bigarray accesses below compile to direct
   loads. *)
let fget (a : i32arr) i = Int32.to_int (Bigarray.Array1.get a i)
let fdist (a : f64arr) i = Bigarray.Array1.get a i

(* r_u(l) for the prefix [d 0 .. d (k-1)] of a distance-sorted row whose
   nearest excluded vertex sits at distance [nd] (Lemma 7 / Section 2
   definition): the largest distance r such that {e every} vertex at
   distance exactly r is settled. Distance classes strictly below [nd] are
   complete by the settling order; the class at [nd] itself is split — the
   excluded vertex ties it — so the radius backs off to the largest settled
   distance strictly below [nd]. Distances are compared exactly: a tie at
   the truncation boundary means bit-equal path lengths, which is what the
   (dist, id) settling order itself uses. Monotone in k: the backoff is the
   last settled distance < nd, and with no settled distance below [nd]
   (k = 0, or every member tied at [nd]) the radius is 0 — only the empty
   ball is complete. *)
let radius_below d k nd =
  let rec scan i = if i < 0 then 0.0 else if d i < nd then d i else scan (i - 1) in
  scan (k - 1)

let radius_of_truncated (tr : Dijkstra.truncated) =
  let k = Array.length tr.vertices in
  let max_dist = if k = 0 then 0.0 else tr.dists.(k - 1) in
  match tr.next_dist with
  | None ->
    (* Nothing reachable was excluded: every realized distance class is
       complete and the radius is the farthest member's distance. *)
    max_dist
  | Some nd -> if nd > max_dist then max_dist else radius_below (Array.get tr.dists) k nd

let block kind cap = Bigarray.Array1.create kind Bigarray.c_layout cap

let create n l =
  {
    f_l = l;
    f_len = Array.make n 0;
    f_members = block Bigarray.int32 (n * l);
    f_ports = block Bigarray.int32 (n * l);
    f_dists = block Bigarray.float64 (n * l);
    f_radius = Array.make n 0.0;
  }

let rows fam = Array.init (Array.length fam.f_len) (fun u -> { fam; u })

(* The family behind an array: every array this module hands out
   ([compute_all], [update], [prefix], [thaw]) is row [u] of one family at
   index [u]. *)
let family_of (vics : t array) =
  let n = Array.length vics in
  if n = 0 then create 0 1
  else begin
    let fam = vics.(0).fam in
    let rec one i = i = n || (vics.(i).fam == fam && vics.(i).u = i && one (i + 1)) in
    if not (Array.length fam.f_len = n && one 0) then
      invalid_arg "Vicinity: the array is not the rows of one family";
    fam
  end

(* Source [u]'s search result into its row of a family. The annotation
   makes the Bigarray writes direct stores; generic ones would box each
   element. *)
let write_row (fam : fam) u (tr : Dijkstra.truncated) =
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

let compute_all ?pool g l =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let n = Graph.n g in
  (* No ball holds more than n members, so a larger [l] buys no row room. *)
  let l = max 1 (min l n) in
  let fam = create n l in
  (* Each source owns the disjoint stride [u*l .. u*l + l - 1], so the
     parallel fill is race-free and the family contents do not depend on
     scheduling. *)
  Pool.iter_local pool ~n
    ~local:(fun () -> Dijkstra.workspace n)
    (fun ws u -> write_row fam u (Dijkstra.truncated_ws ws g u l));
  rows fam

let source b = b.u

let size b = b.fam.f_len.(b.u)

let base b = b.u * b.fam.f_l

(* Block index of [v] in [a.(i .. stop - 1)], or -1. Top-level, so a
   lookup allocates no closure. *)
let rec scan (a : i32arr) v i stop =
  if i >= stop then -1 else if fget a i = v then i else scan a v (i + 1) stop

(* Block index of member [v] of row [b], or -1: a forward scan of the row
   in (dist, id) order. *)
let index b v =
  let base = base b in
  scan b.fam.f_members v base (base + size b)

let mem b v = index b v >= 0

let dist b v =
  let i = index b v in
  if i < 0 then raise Not_found else fdist b.fam.f_dists i

let dist_or_infinity b v =
  let i = index b v in
  if i < 0 then infinity else fdist b.fam.f_dists i

(* The hot lookup of every Lemma 2 hop: one row scan. *)
let first_port b v =
  let i = index b v in
  if i < 0 then raise Not_found;
  if v = b.u then invalid_arg "Vicinity.first_port: source";
  fget b.fam.f_ports i

let radius b = b.fam.f_radius.(b.u)

let members b =
  let base = base b in
  Array.init (size b) (fun i -> fget b.fam.f_members (base + i))

let max_dist b =
  let k = size b in
  if k = 0 then 0.0 else fdist b.fam.f_dists (base b + k - 1)

let rank b v =
  let i = index b v in
  if i < 0 then None else Some (i - base b)

let prefix_radius b l' =
  let k = size b in
  if l' >= k then radius b
  else if l' <= 0 then 0.0
  else
    (* The nearest excluded vertex of the prefix is member l'. *)
    let base = base b in
    let d i = fdist b.fam.f_dists (base + i) in
    radius_below d l' (d l')

let nearest_of b pred =
  (* Members are already in (dist, id) order. *)
  let base = base b and k = size b in
  let rec go i =
    if i >= k then None
    else
      let v = fget b.fam.f_members (base + i) in
      if pred v then Some v else go (i + 1)
  in
  go 0

let step vicinities ~at ~dst = first_port vicinities.(at) dst

let prefix vics l' =
  let fam = family_of vics in
  let l' = max 1 l' in
  rows
    {
      fam with
      f_len = Array.map (fun k -> min k l') fam.f_len;
      f_radius = Array.map (fun b -> prefix_radius b l') vics;
    }

type fate = Keep | Remap of (int -> int) | Recompute

let copy_block a =
  let c = block (Bigarray.Array1.kind a) (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a c;
  c

(* The family is copied whole and its changed rows rewritten in the
   copy: the old block is never written, since the old graph's instances
   still read it, and the new family is one block again, laid out as a
   fresh [compute_all] lays it out. *)
let update g l (vics : t array) fate =
  let fam = family_of vics in
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
  let ws = lazy (Dijkstra.workspace (Graph.n g)) in
  Array.iter
    (fun b ->
      match fate b with
      | Keep -> ()
      | Remap f ->
        let base = base b in
        for i = base to base + size b - 1 do
          let p = fget fam'.f_ports i in
          if p >= 0 then Bigarray.Array1.set fam'.f_ports i (Int32.of_int (f p))
        done
      | Recompute ->
        write_row fam' b.u (Dijkstra.truncated_ws (Lazy.force ws) g b.u l))
    vics;
  rows fam'

(* --- snapshot form ------------------------------------------------------

   A vicinity array freezes to its family with the three blocks replaced
   by snapshot blob ids; the per-vertex lengths and radii ride the
   caller's residue. [Snapshot.put] writes a block shared by several
   families (a [prefix] view and its source) once, and thawing maps each
   blob once, so the sharing survives the round trip. *)

type frozen = (int, int) family

let freeze sink vics =
  let fam = family_of vics in
  {
    fam with
    f_members = Snapshot.put sink (Snapshot.I32 fam.f_members);
    f_ports = Snapshot.put sink (Snapshot.I32 fam.f_ports);
    f_dists = Snapshot.put sink (Snapshot.F64 fam.f_dists);
  }

let thaw src z =
  rows
    {
      z with
      f_members = Snapshot.get_i32 src z.f_members;
      f_ports = Snapshot.get_i32 src z.f_ports;
      f_dists = Snapshot.get_f64 src z.f_dists;
    }

let payload_bytes vics =
  (* Exactly what [Obj.reachable_words] cannot see. *)
  let fam = family_of vics in
  Compiled.bigarray_bytes fam.f_members
  + Compiled.bigarray_bytes fam.f_ports
  + Compiled.bigarray_bytes fam.f_dists
