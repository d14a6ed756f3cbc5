(** Undirected weighted graphs with vector (multi-constraint) node
    weights, in CSR (compressed sparse row) form.

    This is the input format of the multilevel partitioner ([Partitioner]),
    our stand-in for METIS: the paper partitions its program-level graph
    with METIS using "multiple node weights" (Section 3.3.2).

    The adjacency is stored as three flat [int array]s — offsets,
    neighbor ids, edge weights — exactly like METIS's [xadj]/[adjncy]/
    [adjwgt].  Each row is sorted by neighbor id and contains no
    duplicates; the structure is symmetric (every edge appears in both
    endpoint rows with the same weight).  The record is [Csr.t], which
    only this library can see. *)

type t = Csr.t = {
  n : int;
  ncon : int;
  vwgt : int array;
  xadj : int array;
  adjncy : int array;
  adjwgt : int array;
}

let num_nodes g = g.n
let num_constraints g = g.ncon
let node_weight g v c = g.vwgt.((v * g.ncon) + c)

let iter_neighbors g v f =
  for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f g.adjncy.(i) g.adjwgt.(i)
  done

let neighbors g v =
  let acc = ref [] in
  for i = g.xadj.(v + 1) - 1 downto g.xadj.(v) do
    acc := (g.adjncy.(i), g.adjwgt.(i)) :: !acc
  done;
  !acc

(** Total weight under constraint [c]. *)
let total_weight g c =
  let s = ref 0 in
  for v = 0 to g.n - 1 do
    s := !s + g.vwgt.((v * g.ncon) + c)
  done;
  !s

let num_edges g = Array.length g.adjncy / 2

(* Sorted rows without sorting: [src_adj]/[src_wgt] hold symmetric,
   duplicate-free rows in any order, at the offsets [xadj].  Visiting
   the source rows [v] in increasing order and appending [v], with the
   edge's weight, to the row of each of its neighbours fills every
   destination row in increasing id order.  Symmetry makes the
   transposed rows the same sets with the same lengths, so [xadj] is
   also the destination's offsets.  [fill] is scratch of length [n]. *)
let transpose ~n ~xadj ~src_adj ~src_wgt ~dst_adj ~dst_wgt ~fill =
  Array.blit xadj 0 fill 0 n;
  for v = 0 to n - 1 do
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let u = src_adj.(i) in
      let k = fill.(u) in
      dst_adj.(k) <- v;
      dst_wgt.(k) <- src_wgt.(i);
      fill.(u) <- k + 1
    done
  done

(** Build a graph.  [edges] are (u, v, w) triples with [u <> v]; parallel
    edges are merged by summing weights.  Node weights must all have
    length [ncon]. *)
let create ~ncon ~weights ~edges =
  let n = Array.length weights in
  Array.iteri
    (fun v w ->
      if Array.length w <> ncon then
        invalid_arg
          (Fmt.str "Graph.create: node %d has %d weights, expected %d" v
             (Array.length w) ncon))
    weights;
  let tbl = Hashtbl.create (List.length edges * 2) in
  List.iter
    (fun (u, v, w) ->
      if u = v then invalid_arg "Graph.create: self edge";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.create: edge endpoint out of range";
      if w < 0 then invalid_arg "Graph.create: negative edge weight";
      let key = if u < v then (u, v) else (v, u) in
      Hashtbl.replace tbl key
        (w + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    edges;
  let xadj = Array.make (n + 1) 0 in
  Hashtbl.iter
    (fun (u, v) _ ->
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1)
    tbl;
  for v = 1 to n do
    xadj.(v) <- xadj.(v) + xadj.(v - 1)
  done;
  let m2 = xadj.(n) in
  let src_adj = Array.make m2 0 and src_wgt = Array.make m2 0 in
  let fill = Array.sub xadj 0 n in
  Hashtbl.iter
    (fun (u, v) w ->
      let iu = fill.(u) and iv = fill.(v) in
      src_adj.(iu) <- v;
      src_wgt.(iu) <- w;
      src_adj.(iv) <- u;
      src_wgt.(iv) <- w;
      fill.(u) <- iu + 1;
      fill.(v) <- iv + 1)
    tbl;
  let adjncy = Array.make m2 0 and adjwgt = Array.make m2 0 in
  transpose ~n ~xadj ~src_adj ~src_wgt ~dst_adj:adjncy ~dst_wgt:adjwgt ~fill;
  let vwgt = Array.make (n * ncon) 0 in
  Array.iteri (fun v w -> Array.blit w 0 vwgt (v * ncon) ncon) weights;
  { n; ncon; vwgt; xadj; adjncy; adjwgt }

(** Weight of edges crossing the partition. *)
let edge_cut g (part : int array) =
  let cut = ref 0 in
  for v = 0 to g.n - 1 do
    let pv = part.(v) in
    for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let u = g.adjncy.(i) in
      if v < u && pv <> part.(u) then cut := !cut + g.adjwgt.(i)
    done
  done;
  !cut

(** Per-part weight sums under constraint [c]. *)
let part_weights g (part : int array) ~nparts c =
  let w = Array.make nparts 0 in
  for v = 0 to g.n - 1 do
    w.(part.(v)) <- w.(part.(v)) + g.vwgt.((v * g.ncon) + c)
  done;
  w

(* ------------------------------------------------------------------ *)
(* Derived graphs, built straight into CSR (no intermediate edge lists
   or per-level Hashtbl dedup — the coarsening hot path).              *)

type scratch = {
  members : int array;  (** fine nodes grouped by coarse node *)
  first : int array;  (** coarse node -> first index in [members] *)
  mark : int array;
      (** coarse neighbor -> its slot in the row being built; first the
          fill pointers of the member sort, last those of the transpose *)
  row_adj : int array;  (** merged coarse rows, unsorted *)
  row_wgt : int array;
}

let scratch g =
  let m2 = Array.length g.adjncy in
  {
    members = Array.make g.n 0;
    first = Array.make (g.n + 1) 0;
    mark = Array.make g.n 0;
    row_adj = Array.make m2 0;
    row_wgt = Array.make m2 0;
  }

(** Contract [g] along a node map: [coarse_of.(v)] is the coarse node of
    every fine [v], with ids in [0 .. num_coarse - 1].  Node weights are
    summed per coarse node; parallel fine edges between two coarse nodes
    merge by summing weights; intra-coarse-node edges vanish.  One pass
    merges each coarse node's fine rows into an unsorted coarse row, and
    [transpose] sorts them into the result. *)
let contract ~scratch:s g ~(coarse_of : int array) ~num_coarse =
  let cn = num_coarse in
  if
    Array.length s.members < g.n
    || Array.length s.row_adj < Array.length g.adjncy
  then invalid_arg "Graph.contract: scratch smaller than the graph";
  (* coarse -> fine members, by counting sort (keeps fine order) *)
  let first = s.first and members = s.members and mark = s.mark in
  Array.fill first 0 (cn + 1) 0;
  for v = 0 to g.n - 1 do
    first.(coarse_of.(v) + 1) <- first.(coarse_of.(v) + 1) + 1
  done;
  for cv = 1 to cn do
    first.(cv) <- first.(cv) + first.(cv - 1)
  done;
  let fill = mark in
  Array.blit first 0 fill 0 cn;
  let vwgt = Array.make (cn * g.ncon) 0 in
  for v = 0 to g.n - 1 do
    let cv = coarse_of.(v) in
    members.(fill.(cv)) <- v;
    fill.(cv) <- fill.(cv) + 1;
    for c = 0 to g.ncon - 1 do
      let i = (cv * g.ncon) + c in
      vwgt.(i) <- vwgt.(i) + g.vwgt.((v * g.ncon) + c)
    done
  done;
  let xadj = Array.make (cn + 1) 0 in
  let row_adj = s.row_adj and row_wgt = s.row_wgt in
  Array.fill mark 0 cn (-1);
  let pos = ref 0 in
  for cv = 0 to cn - 1 do
    let start = !pos in
    for k = first.(cv) to first.(cv + 1) - 1 do
      let v = members.(k) in
      for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
        let cu = coarse_of.(g.adjncy.(i)) in
        if cu <> cv then begin
          let m = mark.(cu) in
          if m >= start then row_wgt.(m) <- row_wgt.(m) + g.adjwgt.(i)
          else begin
            mark.(cu) <- !pos;
            row_adj.(!pos) <- cu;
            row_wgt.(!pos) <- g.adjwgt.(i);
            incr pos
          end
        end
      done
    done;
    xadj.(cv + 1) <- !pos
  done;
  let adjncy = Array.make !pos 0 and adjwgt = Array.make !pos 0 in
  transpose ~n:cn ~xadj ~src_adj:row_adj ~src_wgt:row_wgt ~dst_adj:adjncy
    ~dst_wgt:adjwgt ~fill:mark;
  { n = cn; ncon = g.ncon; vwgt; xadj; adjncy; adjwgt }

(** Induced subgraph on [ids] (strictly increasing fine node ids); node
    [i] of the result is [ids.(i)].  Edges to nodes outside [ids] are
    dropped. *)
let induce g (ids : int array) =
  let k = Array.length ids in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n || (i > 0 && ids.(i - 1) >= v) then
        invalid_arg "Graph.induce: ids must be strictly increasing node ids")
    ids;
  let index_of = Array.make g.n (-1) in
  Array.iteri (fun i v -> index_of.(v) <- i) ids;
  let xadj = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    let v = ids.(i) in
    let d = ref 0 in
    for j = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      if index_of.(g.adjncy.(j)) >= 0 then incr d
    done;
    xadj.(i + 1) <- xadj.(i) + !d
  done;
  let m2 = xadj.(k) in
  let adjncy = Array.make m2 0 and adjwgt = Array.make m2 0 in
  let vwgt = Array.make (k * g.ncon) 0 in
  for i = 0 to k - 1 do
    let v = ids.(i) in
    let p = ref xadj.(i) in
    (* fine rows are sorted and [ids] is increasing, so induced rows
       stay sorted *)
    for j = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let u = index_of.(g.adjncy.(j)) in
      if u >= 0 then begin
        adjncy.(!p) <- u;
        adjwgt.(!p) <- g.adjwgt.(j);
        incr p
      end
    done;
    Array.blit g.vwgt (v * g.ncon) vwgt (i * g.ncon) g.ncon
  done;
  { n = k; ncon = g.ncon; vwgt; xadj; adjncy; adjwgt }

(* [relabel g perm]: node [perm.(i)] of [g] becomes node [i].  The
   relabelled rows are written transposed (as in [transpose]): visiting
   new ids in increasing order appends each to its neighbors' rows, which
   come out sorted. *)
let relabel g (perm : int array) =
  let n = g.n in
  if Array.length perm <> n then
    invalid_arg "Graph.relabel: permutation arity mismatch";
  let index_of = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || index_of.(v) >= 0 then
        invalid_arg "Graph.relabel: not a permutation";
      index_of.(v) <- i)
    perm;
  let xadj = Array.make (n + 1) 0 in
  let vwgt = Array.make (n * g.ncon) 0 in
  for i = 0 to n - 1 do
    let v = perm.(i) in
    xadj.(i + 1) <- xadj.(i) + (g.xadj.(v + 1) - g.xadj.(v));
    Array.blit g.vwgt (v * g.ncon) vwgt (i * g.ncon) g.ncon
  done;
  let m = xadj.(n) in
  let adjncy = Array.make m 0 and adjwgt = Array.make m 0 in
  let fill = Array.sub xadj 0 n in
  for j = 0 to n - 1 do
    let v = perm.(j) in
    for k = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let i = index_of.(g.adjncy.(k)) in
      let p = fill.(i) in
      adjncy.(p) <- j;
      adjwgt.(p) <- g.adjwgt.(k);
      fill.(i) <- p + 1
    done
  done;
  { n; ncon = g.ncon; vwgt; xadj; adjncy; adjwgt }

let pp ppf g =
  Fmt.pf ppf "@[<v>graph: %d nodes, %d edges, %d constraint(s)@]" g.n
    (num_edges g) g.ncon
