(** Multilevel multi-constraint graph bisection (METIS stand-in).

    Pipeline: heavy-edge-matching coarsening, greedy-growing initial
    bisection on the coarsest graph, then Fiduccia-Mattheyses refinement
    with rollback at every uncoarsening level.  Balance is enforced per
    constraint: part weights must not exceed [(1 + imbalance.(c)) / 2] of
    the total.  K-way partitioning (for the cluster-count ablation) is
    recursive bisection, powers of two only.

    The hot paths run on the CSR arrays of [Graph] directly, through
    its library-private representation [Csr]: coarsening
    contracts into CSR with no intermediate edge lists ([Graph.contract]),
    FM keeps its candidates in a heap ([Gain_pq]) filled once per call,
    with incremental gain, cut and balance maintenance instead of
    whole-graph rescans, and greedy growing keeps its frontier in the
    same structure.  Their scratch lives in a [workspace] that each
    multilevel start owns and reuses across its levels, tries, passes and
    V-cycles.

    All randomness is seeded; results are deterministic for a given
    [seed]. *)

type config = {
  imbalance : float array;  (** per-constraint tolerance, e.g. 0.1 = 10% *)
  targets : float array option;
      (** per-constraint share of part 0, default 0.5 everywhere; used
          for machines whose clusters have asymmetric memories or
          datapaths (the paper parameterizes the memory balance for this
          case, Section 3.3.2) *)
  seed : int;
  coarsen_until : int;  (** stop coarsening below this many nodes *)
  initial_tries : int;  (** greedy-growing attempts on the coarsest graph *)
  fm_max_bad_moves : int;  (** FM hill-climbing patience *)
  starts : int;
      (** independent multilevel starts, each with its own rng stream;
          coarsening tie-breaks are random, so each start explores a
          different level hierarchy and the best finest-level result
          wins *)
  fm_seeds : int;
      (** speculative multi-seed FM: after the best start is chosen,
          [fm_seeds] final refinement passes run in parallel, each on a
          seeded node relabeling of the graph (seed 0 is the identity =
          the plain polish), and the best (infeasibility, cut) wins. *)
  refine_cycles : int;
      (** extra restricted V-cycles after the first multilevel pass: the
          graph is re-coarsened with matching restricted to same-part
          node pairs and refined again from the coarsest level up.  Each
          cycle is monotone under the (infeasibility, cut) order — FM's
          best-prefix rollback never worsens it — and lets refinement
          move whole clusters of nodes at once, escaping the local
          minima single-node FM gets stuck in. *)
}

let default_config ~ncon =
  {
    imbalance = Array.make ncon 0.15;
    targets = None;
    seed = 42;
    coarsen_until = 24;
    initial_tries = 8;
    fm_max_bad_moves = 32;
    starts = 5;
    fm_seeds = 4;
    refine_cycles = 3;
  }

(* ------------------------------------------------------------------ *)
(* Balance bookkeeping: per-(constraint, part) arrays, flat, with
   [(2 * c) + part] the slot of [part] under constraint [c]            *)

let share (cfg : config) c part =
  match cfg.targets with
  | None -> 0.5
  | Some t ->
      let s = Float.max 0.05 (Float.min 0.95 t.(c)) in
      if part = 0 then s else 1. -. s

(** Fill [caps] with the max allowed weight of each part under each
    constraint, given the part weights [pw] of any bisection. *)
let fill_caps caps (cfg : config) ~ncon pw =
  for c = 0 to ncon - 1 do
    let total = float (pw.(2 * c) + pw.((2 * c) + 1)) in
    for part = 0 to 1 do
      let s = share cfg c part in
      let lim = int_of_float (ceil ((1. +. cfg.imbalance.(c)) *. s *. total)) in
      (* never tighter than a perfect split would need *)
      caps.((2 * c) + part) <- max lim (int_of_float (ceil (s *. total)))
    done
  done

(** Fill [pw] with the weight of each part under each constraint. *)
let fill_part_weights pw (g : Graph.t) (part : int array) =
  let { Csr.ncon; vwgt; _ } = (g :> Csr.t) in
  Array.fill pw 0 (2 * ncon) 0;
  for v = 0 to Graph.num_nodes g - 1 do
    let p = part.(v) in
    for c = 0 to ncon - 1 do
      let i = (2 * c) + p in
      pw.(i) <- pw.(i) + vwgt.((v * ncon) + c)
    done
  done

(** How much the part weights violate the caps (0 when feasible). *)
let infeasibility ~ncon ~caps pw =
  let over = ref 0 in
  for i = 0 to (2 * ncon) - 1 do
    if pw.(i) > caps.(i) then over := !over + (pw.(i) - caps.(i))
  done;
  !over

(** (infeasibility, cut) of a bisection under [cfg] — lexicographically
    smaller is better. *)
let evaluate cfg g part =
  let ncon = Graph.num_constraints g in
  let caps = Array.make (2 * ncon) 0 and pw = Array.make (2 * ncon) 0 in
  fill_part_weights pw g part;
  fill_caps caps cfg ~ncon pw;
  (infeasibility ~ncon ~caps pw, Graph.edge_cut g part)

(* ------------------------------------------------------------------ *)
(* Workspaces                                                          *)

(** What one FM refinement needs, for graphs of up to [n] nodes: gains,
    the move stack, the candidate queue and the balance arrays. *)
type fm_scratch = {
  gain : int array;
  moves : int array;
  pq : Gain_pq.t;  (** empty between refinements *)
  caps : int array;
  pw : int array;
}

let fm_scratch (g : Graph.t) =
  let n = Graph.num_nodes g and ncon = Graph.num_constraints g in
  {
    gain = Array.make n 0;
    moves = Array.make n 0;
    pq = Gain_pq.create ~n;
    caps = Array.make (2 * ncon) 0;
    pw = Array.make (2 * ncon) 0;
  }

(** Scratch of one multilevel start — a [Par] task — sized to its graph
    and reused across its coarsening levels, initial tries, FM passes
    and V-cycles: every coarser graph is smaller.  Each task creates its
    own, so tasks running on different domains share no scratch and the
    result cannot depend on the pool. *)
type workspace = {
  fm : fm_scratch;
  keys : int array;  (** matching tie-break keys *)
  matched : int array;
  pref : int array;  (** each node's current matching proposal *)
  active : int array;  (** nodes still proposing *)
  cw : int array;  (** coarse-node weights, [n * ncon] *)
  contract : Graph.scratch;
}

let workspace (g : Graph.t) =
  let n = Graph.num_nodes g in
  let ints () = Array.make n 0 in
  {
    fm = fm_scratch g;
    keys = ints ();
    matched = ints ();
    pref = ints ();
    active = ints ();
    cw = Array.make (n * Graph.num_constraints g) 0;
    contract = Graph.scratch g;
  }

(* ------------------------------------------------------------------ *)
(* Coarsening                                                          *)

type level = {
  graph : Graph.t;
  coarse_of : int array;  (** fine node -> coarse node of the next level *)
}

(** One round of heavy-edge matching: deterministic local-max matching
    over the CSR vertex ranges.  Returns the coarse graph and the
    fine->coarse map, or [None] if matching cannot shrink the graph.
    When [part] is given, only same-part nodes may match (restricted
    coarsening: every coarse node then lies entirely in one part).

    Each node draws a random priority key from the caller's rng
    (exactly [n] draws, so the per-start stream stays aligned whatever
    the pool width), then rounds alternate between a propose phase —
    every unmatched node picks its heaviest unmatched neighbor, ties
    broken by (key, lower id) — and a match phase that pairs mutual
    proposals.  Both phases are data-parallel over vertex ranges:
    propose reads only the previous round's matching, and in the match
    phase each cell has exactly one writer (the lower endpoint of its
    pair), so the result is independent of the chunking and of the
    domain count — it depends only on the rng keys.  Rounds converge to
    a maximal matching of mutual local maxima (the standard
    parallel-METIS idiom), where a greedy visit-order matcher would
    make later matches depend on earlier ones.  A final aggregation
    pass then folds every node the matching left unmatched into the
    cluster of its heaviest matched neighbor under a weight cap, so
    star-shaped regions contract in one level instead of one leaf per
    level. *)
let coarsen_level ws pool ?(part : int array option) rng (g : Graph.t) :
    (Graph.t * int array) option =
  let n = Graph.num_nodes g in
  let keys = ws.keys in
  for v = 0 to n - 1 do
    keys.(v) <- Random.State.bits rng
  done;
  let { Csr.xadj; adjncy; adjwgt; _ } = (g :> Csr.t) in
  let same_part =
    match part with
    | None -> fun _ _ -> true
    | Some p -> fun u v -> p.(u) = p.(v)
  in
  let matched = ws.matched and pref = ws.pref in
  Array.fill matched 0 n (-1);
  Array.fill pref 0 n (-1);
  (* The fixpoint of mutual-best matching does not depend on which
     nodes are rescanned when, so each round only revisits the frontier
     of still-unmatched nodes that had a live candidate last time —
     total work stays near-linear instead of paying a full-graph scan
     per round.  A node whose candidate set ever empties can be dropped
     for good: matching only removes candidates. *)
  let active = ws.active in
  for v = 0 to n - 1 do
    active.(v) <- v
  done;
  let na = ref n in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !na > 0 && !rounds < 64 do
    incr rounds;
    let nact = !na in
    Par.parallel_chunks pool ~n:nact (fun lo hi ->
        for i = lo to hi - 1 do
          let v = active.(i) in
          (* the candidate order (weight, key, id) is static and
             candidates only ever disappear, so a cached best that is
             still unmatched is still the best — only rescan when the
             previous pick got matched away *)
          let cached = pref.(v) in
          if cached < 0 || matched.(cached) <> -1 then begin
            let best = ref (-1) and best_w = ref (-1) and best_k = ref 0 in
            for j = xadj.(v) to xadj.(v + 1) - 1 do
              let u = adjncy.(j) and w = adjwgt.(j) in
              if matched.(u) = -1 && u <> v && same_part u v then
                if
                  w > !best_w
                  || w = !best_w
                     && (keys.(u) > !best_k
                        || (keys.(u) = !best_k && u < !best))
                then begin
                  best := u;
                  best_w := w;
                  best_k := keys.(u)
                end
            done;
            pref.(v) <- !best
          end
        done);
    let made = Atomic.make false in
    Par.parallel_chunks pool ~n:nact (fun lo hi ->
        for i = lo to hi - 1 do
          let v = active.(i) in
          let u = pref.(v) in
          if matched.(v) = -1 && u > v && pref.(u) = v && matched.(u) = -1
          then begin
            matched.(v) <- u;
            matched.(u) <- v;
            Atomic.set made true
          end
        done);
    progress := Atomic.get made;
    if !progress then begin
      (* compact in place: the write index never passes the read one *)
      let k = ref 0 in
      for i = 0 to nact - 1 do
        let v = active.(i) in
        if matched.(v) = -1 && pref.(v) <> -1 then begin
          active.(!k) <- v;
          incr k
        end
      done;
      na := !k
    end
  done;
  (* Aggregation pass.  At the matching fixpoint every still-unmatched
     node has only matched neighbors (an unmatched adjacent same-part
     pair would still contain a mutual-best edge), so star-shaped
     regions — where any maximal matching pairs the hub with a single
     leaf and shrinks the graph by one node per level — would
     degenerate the cascade into hundreds of levels.  Instead, each
     unmatched node proposes to join the cluster of its heaviest
     matched same-part neighbor (ties by key then lower id — a pure
     function of the graph and the keys, so the parallel scan is
     chunk-invariant); proposals are applied below in a sequential
     index-order pass under a per-constraint cluster-weight cap, which
     keeps coarse nodes small enough for a feasible bisection.  The
     proposals reuse [pref]'s slots: matching is done with it. *)
  let agg = pref in
  Par.parallel_chunks pool ~n (fun lo hi ->
      for v = lo to hi - 1 do
        if matched.(v) = -1 then begin
          let best = ref (-1) and best_w = ref (-1) and best_k = ref 0 in
          for j = xadj.(v) to xadj.(v + 1) - 1 do
            let u = adjncy.(j) and w = adjwgt.(j) in
            if matched.(u) <> -1 && same_part u v then
              if
                w > !best_w
                || w = !best_w
                   && (keys.(u) > !best_k
                      || (keys.(u) = !best_k && u < !best))
              then begin
                best := u;
                best_w := w;
                best_k := keys.(u)
              end
          done;
          agg.(v) <- !best
        end
      done);
  (* matched pairs and isolated singletons get coarse ids in index
     order; aggregating nodes are deferred *)
  let coarse_of = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if coarse_of.(v) = -1 then begin
      let m = matched.(v) in
      if m <> -1 then begin
        coarse_of.(v) <- !next;
        coarse_of.(m) <- !next;
        incr next
      end
      else if agg.(v) = -1 then begin
        coarse_of.(v) <- !next;
        incr next
      end
    end
  done;
  let { Csr.ncon; vwgt; _ } = (g :> Csr.t) in
  (* cap each cluster at 40% of the total weight: big enough to swallow
     a whole star in one level (pairwise matching alone would build the
     same giant cluster, one leaf per level), small enough that a
     balanced bisection of the coarsest graph stays feasible *)
  let cap =
    Array.init ncon (fun c -> max 1 (2 * Graph.total_weight g c / 5))
  in
  let cw = ws.cw in
  Array.fill cw 0 (!next * ncon) 0;
  for v = 0 to n - 1 do
    if coarse_of.(v) >= 0 then
      for c = 0 to ncon - 1 do
        let i = (coarse_of.(v) * ncon) + c in
        cw.(i) <- cw.(i) + vwgt.((v * ncon) + c)
      done
  done;
  for v = 0 to n - 1 do
    if coarse_of.(v) = -1 then begin
      let t = coarse_of.(agg.(v)) in
      let fits = ref true in
      for c = 0 to ncon - 1 do
        if cw.((t * ncon) + c) + vwgt.((v * ncon) + c) > cap.(c) then
          fits := false
      done;
      if !fits then begin
        coarse_of.(v) <- t;
        for c = 0 to ncon - 1 do
          let i = (t * ncon) + c in
          cw.(i) <- cw.(i) + vwgt.((v * ncon) + c)
        done
      end
      else begin
        (* over the cap: a fresh singleton (nothing ever joins it, so
           its weight needs no tracking) *)
        coarse_of.(v) <- !next;
        incr next
      end
    end
  done;
  let cn = !next in
  if cn >= n then None
  else
    let cg = Graph.contract ~scratch:ws.contract g ~coarse_of ~num_coarse:cn in
    Some (cg, coarse_of)

(* span arguments are built only when telemetry records them *)
let level_args lvl n =
  if Telemetry.is_enabled () then
    [ ("level", string_of_int lvl); ("nodes", string_of_int n) ]
  else []

(** Coarsen down to [cfg.coarsen_until] nodes; returns the levels from
    finest to coarsest (each with the map into the next), the coarsest
    graph, and — when [part] was given — [part] projected onto the
    coarsest graph (restricted coarsening keeps each coarse node inside
    one part, so the projection is well defined). *)
let coarsen ?part ws pool rng cfg (g : Graph.t) :
    level list * Graph.t * int array option =
  let rec go lvl acc g part =
    if Graph.num_nodes g <= cfg.coarsen_until then (List.rev acc, g, part)
    else
      match
        Telemetry.with_span "coarsen-level"
          ~args:(level_args lvl (Graph.num_nodes g))
          (fun () -> coarsen_level ws pool ?part rng g)
      with
      | None -> (List.rev acc, g, part)
      | Some (cg, map) ->
          let cpart =
            Option.map
              (fun p ->
                let cp = Array.make (Graph.num_nodes cg) 0 in
                Array.iteri (fun v cv -> cp.(cv) <- p.(v)) map;
                cp)
              part
          in
          go (lvl + 1) ({ graph = g; coarse_of = map } :: acc) cg cpart
  in
  go 0 [] g part

(* ------------------------------------------------------------------ *)
(* FM refinement                                                       *)

(** Refine a bisection in place.  Classic FM with rollback: repeatedly
    move the best-gain movable node out of the queue, lock it, update
    its neighbors' gains, the running cut and the infeasibility
    incrementally, and finally keep the best prefix of the move sequence
    (considering feasibility first, then cut).  Repeated for up to
    [passes] passes or until a pass yields no improvement.

    Gains are computed and queued once per call.  Rolling back moves
    nodes like any other move, so the queued neighbours' gains stay
    exact; after a pass only the nodes it moved (all locked, out of the
    queue) go back in, which leaves the queue exactly as a fresh fill
    would. *)
let fm_refine_with (s : fm_scratch) ?(passes = 4) (cfg : config)
    (g : Graph.t) (part : int array) : unit =
  let n = Graph.num_nodes g in
  let ncon = Graph.num_constraints g in
  let { Csr.xadj; adjncy; adjwgt; vwgt; _ } = (g :> Csr.t) in
  let caps = s.caps and pw = s.pw and gain = s.gain and pq = s.pq in
  fill_part_weights pw g part;
  fill_caps caps cfg ~ncon pw;
  (* every cut edge is external to both of its ends *)
  let crossing = ref 0 in
  for v = 0 to n - 1 do
    let sv = part.(v) in
    let x = ref 0 in
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let w = adjwgt.(i) in
      if part.(adjncy.(i)) = sv then x := !x - w
      else begin
        x := !x + w;
        crossing := !crossing + w
      end
    done;
    gain.(v) <- !x
  done;
  Gain_pq.fill pq gain ~n;
  let cut = ref (!crossing / 2) in
  let inf = ref (infeasibility ~ncon ~caps pw) in
  let move v =
    cut := !cut - gain.(v);
    let sv = part.(v) in
    part.(v) <- 1 - sv;
    for c = 0 to ncon - 1 do
      let w = vwgt.((v * ncon) + c) in
      pw.((2 * c) + sv) <- pw.((2 * c) + sv) - w;
      pw.((2 * c) + 1 - sv) <- pw.((2 * c) + 1 - sv) + w
    done;
    inf := infeasibility ~ncon ~caps pw;
    gain.(v) <- -gain.(v);
    let pv = 1 - sv in
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let u = adjncy.(i) and w = adjwgt.(i) in
      let gu =
        if part.(u) = pv then gain.(u) - (2 * w) else gain.(u) + (2 * w)
      in
      gain.(u) <- gu;
      if Gain_pq.mem pq u then Gain_pq.update pq u ~prio:gu
    done
  in
  (* moving v to the other side keeps (or strictly improves) balance *)
  let move_ok v =
    let sv = part.(v) in
    let after = ref 0 in
    for c = 0 to ncon - 1 do
      let w = vwgt.((v * ncon) + c) in
      let from = (2 * c) + sv and into = (2 * c) + 1 - sv in
      let a = pw.(from) - w and b = pw.(into) + w in
      if a > caps.(from) then after := !after + (a - caps.(from));
      if b > caps.(into) then after := !after + (b - caps.(into))
    done;
    if !inf > 0 then !after < !inf else !after = 0
  in
  let moves = s.moves in
  let pass () =
    let best_cut = ref !cut and best_inf = ref !inf in
    let best_len = ref 0 and len = ref 0 in
    let bad = ref 0 and improved = ref false and stuck = ref false in
    while (not !stuck) && !bad < cfg.fm_max_bad_moves do
      (* best-gain movable node; moved nodes left the queue = locked *)
      let v = Gain_pq.pop_best pq ~accept:move_ok in
      if v < 0 then stuck := true
      else begin
        move v;
        moves.(!len) <- v;
        incr len;
        if !inf < !best_inf || (!inf = !best_inf && !cut < !best_cut) then begin
          best_inf := !inf;
          best_cut := !cut;
          best_len := !len;
          bad := 0;
          improved := true
        end
        else incr bad
      end
    done;
    (* roll back to the best prefix, then unlock this pass's nodes *)
    for k = !len - 1 downto !best_len do
      move moves.(k)
    done;
    for k = 0 to !len - 1 do
      let v = moves.(k) in
      Gain_pq.insert pq v ~prio:gain.(v)
    done;
    !improved
  in
  let continue_ = ref true in
  let p = ref 0 in
  while !continue_ && !p < passes do
    Telemetry.incr "graphpart.fm_passes";
    continue_ := pass ();
    incr p
  done;
  Gain_pq.clear pq

let fm_refine ?passes cfg g part =
  fm_refine_with (fm_scratch g) ?passes cfg g part

(* ------------------------------------------------------------------ *)
(* Initial partition                                                   *)

(** Greedy graph growing into [part]: grow part 1 from a random seed
    node by best gain until half of constraint-0's weight has been
    captured.  The frontier lives in the (empty) queue [pq], keyed by
    each node's connection weight into part 1, kept in [conn] (so
    picking the next node is O(log n) instead of a whole-graph
    rescan). *)
let grow_bisection pq ~conn rng cfg (g : Graph.t) (part : int array) : unit =
  let n = Graph.num_nodes g in
  Array.fill part 0 n 0;
  if n > 1 then begin
    let { Csr.ncon; vwgt; xadj; adjncy; adjwgt; _ } = (g :> Csr.t) in
    let total0 = Graph.total_weight g 0 in
    let target = int_of_float (share cfg 0 1 *. float total0) in
    let seed = Random.State.int rng n in
    Array.fill conn 0 n 0;
    for v = 0 to n - 1 do
      Gain_pq.insert pq v ~prio:(-1)
    done;
    let grown = ref 0 in
    let add v =
      part.(v) <- 1;
      Gain_pq.remove pq v;
      grown := !grown + vwgt.(v * ncon);
      for i = xadj.(v) to xadj.(v + 1) - 1 do
        let u = adjncy.(i) in
        if part.(u) = 0 then begin
          conn.(u) <- conn.(u) + adjwgt.(i);
          (* nodes with no connection get a penalty so connected growth
             is preferred, but isolated nodes can still be taken *)
          Gain_pq.update pq u ~prio:(if conn.(u) = 0 then -1 else conn.(u))
        end
      done
    in
    add seed;
    let continue_ = ref true in
    while !grown < target && !continue_ do
      let v = Gain_pq.pop_best pq ~accept:(fun _ -> true) in
      if v >= 0 then add v else continue_ := false
    done;
    Gain_pq.clear pq
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(** Reject configurations whose balance constraints cannot be satisfied
    by any bisection: negative or non-finite tolerances, and part-0
    target shares outside (0, 1).  Checked up front so an infeasible
    request fails loudly instead of silently returning a partition that
    violates every cap. *)
let validate_config (g : Graph.t) (cfg : config) =
  if Array.length cfg.imbalance <> Graph.num_constraints g then
    invalid_arg "Partitioner: imbalance arity mismatch";
  Array.iteri
    (fun i tol ->
      if Float.is_nan tol || tol < 0. then
        invalid_arg
          (Fmt.str
             "Partitioner: infeasible balance constraint %d (tolerance %g < 0)"
             i tol))
    cfg.imbalance;
  match cfg.targets with
  | None -> ()
  | Some targets ->
      if Array.length targets <> Graph.num_constraints g then
        invalid_arg "Partitioner: targets arity mismatch";
      Array.iteri
        (fun i t ->
          if Float.is_nan t || t <= 0. || t >= 1. then
            invalid_arg
              (Fmt.str
                 "Partitioner: infeasible target share %g for constraint %d \
                  (must lie in (0, 1))"
                 t i))
        targets

(* uncoarsen: project through the levels (finest first in [levels]),
   refining at each *)
let project ws cfg (levels : level list) coarse_part =
  let rec up lvl_idx cpart = function
    | [] -> cpart
    | (lvl : level) :: finer ->
        let n = Graph.num_nodes lvl.graph in
        let fine =
          Telemetry.with_span "refine-level" ~args:(level_args lvl_idx n)
            (fun () ->
              let fine = Array.make n 0 in
              for v = 0 to n - 1 do
                fine.(v) <- cpart.(lvl.coarse_of.(v))
              done;
              fm_refine_with ws.fm cfg lvl.graph fine;
              fine)
        in
        up (lvl_idx + 1) fine finer
  in
  up 0 coarse_part (List.rev levels)

(* one full multilevel start: coarsen, several greedy growings + FM on
   the coarsest graph, project the best back up *)
let one_start ws pool rng cfg g =
  let levels, coarsest, _ = coarsen ws pool rng cfg g in
  let nc = Graph.num_nodes coarsest in
  let args =
    if Telemetry.is_enabled () then [ ("nodes", string_of_int nc) ] else []
  in
  let part =
    Telemetry.with_span "initial-partition" ~args (fun () ->
        let trial = Array.make nc 0 and best = Array.make nc 0 in
        let conn = Array.make nc 0 in
        let best_score = ref None in
        for _try = 1 to cfg.initial_tries do
          grow_bisection ws.fm.pq ~conn rng cfg coarsest trial;
          fm_refine_with ws.fm cfg coarsest trial;
          let score = evaluate cfg coarsest trial in
          match !best_score with
          | Some bscore when compare bscore score <= 0 -> ()
          | _ ->
              best_score := Some score;
              Array.blit trial 0 best 0 nc
        done;
        best)
  in
  project ws cfg levels part

(* restricted V-cycles: re-coarsen along the current partition and
   refine again from the coarsest level up.  Monotone in the
   (infeasibility, cut) order, so extra cycles can only help. *)
let vcycles ws pool rng cfg g part =
  let part = ref part in
  for _cycle = 1 to max 0 cfg.refine_cycles do
    let levels, coarsest, cpart = coarsen ~part:!part ws pool rng cfg g in
    let cpart = match cpart with Some p -> p | None -> !part in
    fm_refine_with ws.fm cfg coarsest cpart;
    part := project ws cfg levels cpart
  done;
  !part

(** Speculative multi-seed FM polish: [cfg.fm_seeds] final refinement
    passes run through the pool, each on a seeded node relabeling of the
    graph.  Seed 0 is the identity relabeling (the plain polish); seed
    [k > 0] shuffles the node ids with [Random.State.make [| cfg.seed;
    k; 0x5EED |]], refines the relabeled instance, and maps the result
    back.  FM's visit order — hence its local minimum — depends on node
    ids, so distinct relabelings explore genuinely different refinement
    trajectories while cuts and balances transfer through the relabeling
    unchanged.  The best (infeasibility, cut) wins; ties go to the
    lowest seed, so the choice is independent of the pool width. *)
let multi_seed_fm pool cfg (g : Graph.t) (part : int array) : int array =
  let k = max 1 cfg.fm_seeds in
  let candidates =
    Par.map pool ~n:k (fun seed ->
        if seed = 0 then begin
          let p = Array.copy part in
          fm_refine cfg g p;
          (evaluate cfg g p, p)
        end
        else begin
          let n = Graph.num_nodes g in
          let rng = Random.State.make [| cfg.seed; seed; 0x5EED |] in
          let perm = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          let rg = Graph.relabel g perm in
          let rp = Array.make n 0 in
          for i = 0 to n - 1 do
            rp.(i) <- part.(perm.(i))
          done;
          fm_refine cfg rg rp;
          let out = Array.make n 0 in
          for i = 0 to n - 1 do
            out.(perm.(i)) <- rp.(i)
          done;
          (evaluate cfg g out, out)
        end)
  in
  let best = ref 0 in
  for s = 1 to k - 1 do
    let score, _ = candidates.(s) and bscore, _ = candidates.(!best) in
    if compare score bscore < 0 then best := s
  done;
  snd candidates.(!best)

(** Bisect [g]; returns a 0/1 assignment per node.  Each start owns
    an independent rng stream seeded [| cfg.seed; start |], so starts
    are order-free and run concurrently; the best (infeasibility, cut)
    wins with ties to the lowest start index, and the winner gets a
    multi-seed FM polish.  The result depends only on [cfg] and [g] —
    never on the pool's width or the [Par] backend.  Without a [pool]
    everything runs inline. *)
let bisect ?(config : config option) ?pool (g : Graph.t) : int array =
  let cfg =
    match config with
    | Some c -> c
    | None -> default_config ~ncon:(Graph.num_constraints g)
  in
  validate_config g cfg;
  let run pool =
    let nstarts = max 1 cfg.starts in
    let starts =
      Par.map pool ~n:nstarts (fun s ->
          let rng = Random.State.make [| cfg.seed; s |] in
          let ws = workspace g in
          let p0 = one_start ws pool rng cfg g in
          let p = vcycles ws pool rng cfg g p0 in
          (evaluate cfg g p, p))
    in
    let best = ref 0 in
    for s = 1 to nstarts - 1 do
      let score, _ = starts.(s) and bscore, _ = starts.(!best) in
      if compare score bscore < 0 then best := s
    done;
    multi_seed_fm pool cfg g (snd starts.(!best))
  in
  match pool with
  | Some pool -> run pool
  | None -> Par.with_pool ~domains:1 run

(** Recursive bisection into [nparts] (a power of two).  Imbalance is
    applied at every level, so the final tolerance compounds slightly. *)
let rec kway ?config ?pool (g : Graph.t) ~nparts : int array =
  if nparts < 1 || nparts land (nparts - 1) <> 0 then
    invalid_arg "Partitioner.kway: nparts must be a positive power of two";
  if nparts = 1 then Array.make (Graph.num_nodes g) 0
  else begin
    let half = bisect ?config ?pool g in
    if nparts = 2 then half
    else begin
      (* split each side into an induced CSR subgraph and recurse *)
      let n = Graph.num_nodes g in
      let result = Array.make n 0 in
      List.iter
        (fun side ->
          let count = ref 0 in
          for v = 0 to n - 1 do
            if half.(v) = side then incr count
          done;
          let ids = Array.make !count 0 in
          let k = ref 0 in
          for v = 0 to n - 1 do
            if half.(v) = side then begin
              ids.(!k) <- v;
              incr k
            end
          done;
          let sub = Graph.induce g ids in
          let sub_part = kway ?config ?pool sub ~nparts:(nparts / 2) in
          Array.iteri
            (fun i v ->
              result.(v) <- (side * nparts / 2) + sub_part.(i))
            ids)
        [ 0; 1 ];
      result
    end
  end
