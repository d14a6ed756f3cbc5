(** Multilevel multi-constraint graph bisection (METIS stand-in).

    Pipeline: heavy-edge-matching coarsening, greedy-growing initial
    bisection on the coarsest graph, then Fiduccia-Mattheyses refinement
    with rollback at every uncoarsening level.  Balance is enforced per
    constraint: part weights must not exceed [(1 + imbalance.(c)) / 2] of
    the total.  K-way partitioning (for the cluster-count ablation) is
    recursive bisection, powers of two only.

    The hot paths run on the CSR arrays of [Graph] directly: coarsening
    contracts into CSR with no intermediate edge lists ([Graph.contract]),
    FM keeps its candidates in a gain bucket / heap ([Gain_pq]) with
    incremental gain and cut maintenance instead of whole-graph rescans,
    and greedy growing keeps its frontier in the same structure.

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
(* Balance bookkeeping                                                 *)

let share (cfg : config) c part =
  match cfg.targets with
  | None -> 0.5
  | Some t ->
      let s = Float.max 0.05 (Float.min 0.95 t.(c)) in
      if part = 0 then s else 1. -. s

(** [caps.(c).(part)]: max allowed weight of [part] under constraint
    [c]. *)
let caps (g : Graph.t) (cfg : config) =
  Array.init (Graph.num_constraints g) (fun c ->
      let total = Graph.total_weight g c in
      Array.init 2 (fun part ->
          let s = share cfg c part in
          let lim =
            int_of_float (ceil ((1. +. cfg.imbalance.(c)) *. s *. float total))
          in
          (* never tighter than a perfect split would need *)
          max lim (int_of_float (ceil (s *. float total)))))

(** How much the partition violates the caps (0 when feasible). *)
let infeasibility ~caps (pw : int array array) =
  let v = ref 0 in
  Array.iteri
    (fun c per_part ->
      Array.iteri
        (fun part cap ->
          if pw.(c).(part) > cap then v := !v + (pw.(c).(part) - cap))
        per_part)
    caps;
  !v

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
let coarsen_level pool ?(part : int array option) rng (g : Graph.t) :
    (Graph.t * int array) option =
  let n = Graph.num_nodes g in
  let keys = Array.make n 0 in
  for v = 0 to n - 1 do
    keys.(v) <- Random.State.bits rng
  done;
  let xadj = Graph.adj_offsets g
  and adjncy = Graph.adj_targets g
  and adjwgt = Graph.adj_weights g in
  let same_part =
    match part with
    | None -> fun _ _ -> true
    | Some p -> fun u v -> p.(u) = p.(v)
  in
  let matched = Array.make n (-1) in
  let pref = Array.make n (-1) in
  (* The fixpoint of mutual-best matching does not depend on which
     nodes are rescanned when, so each round only revisits the frontier
     of still-unmatched nodes that had a live candidate last time —
     total work stays near-linear instead of paying a full-graph scan
     per round.  A node whose candidate set ever empties can be dropped
     for good: matching only removes candidates. *)
  let active = ref (Array.init n Fun.id) in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && Array.length !active > 0 && !rounds < 64 do
    incr rounds;
    let act = !active in
    let na = Array.length act in
    Par.parallel_chunks pool ~n:na (fun lo hi ->
        for i = lo to hi - 1 do
          let v = act.(i) in
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
    Par.parallel_chunks pool ~n:na (fun lo hi ->
        for i = lo to hi - 1 do
          let v = act.(i) in
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
      let keep = ref 0 in
      Array.iter
        (fun v -> if matched.(v) = -1 && pref.(v) <> -1 then incr keep)
        act;
      let next = Array.make !keep 0 in
      let k = ref 0 in
      Array.iter
        (fun v ->
          if matched.(v) = -1 && pref.(v) <> -1 then begin
            next.(!k) <- v;
            incr k
          end)
        act;
      active := next
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
     keeps coarse nodes small enough for a feasible bisection. *)
  let agg = Array.make n (-1) in
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
  let ncon = Graph.num_constraints g in
  (* cap each cluster at 40% of the total weight: big enough to swallow
     a whole star in one level (pairwise matching alone would build the
     same giant cluster, one leaf per level), small enough that a
     balanced bisection of the coarsest graph stays feasible *)
  let cap =
    Array.init ncon (fun c -> max 1 (2 * Graph.total_weight g c / 5))
  in
  let cw = Array.make (!next * ncon) 0 in
  for v = 0 to n - 1 do
    if coarse_of.(v) >= 0 then
      for c = 0 to ncon - 1 do
        let i = (coarse_of.(v) * ncon) + c in
        cw.(i) <- cw.(i) + Graph.node_weight g v c
      done
  done;
  for v = 0 to n - 1 do
    if coarse_of.(v) = -1 then begin
      let t = coarse_of.(agg.(v)) in
      let fits = ref true in
      for c = 0 to ncon - 1 do
        if cw.((t * ncon) + c) + Graph.node_weight g v c > cap.(c) then
          fits := false
      done;
      if !fits then begin
        coarse_of.(v) <- t;
        for c = 0 to ncon - 1 do
          let i = (t * ncon) + c in
          cw.(i) <- cw.(i) + Graph.node_weight g v c
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
  else Some (Graph.contract g ~coarse_of ~num_coarse:cn, coarse_of)

(** Coarsen down to [cfg.coarsen_until] nodes; returns the levels from
    finest to coarsest (each with the map into the next), the coarsest
    graph, and — when [part] was given — [part] projected onto the
    coarsest graph (restricted coarsening keeps each coarse node inside
    one part, so the projection is well defined). *)
let coarsen ?part pool rng cfg (g : Graph.t) :
    level list * Graph.t * int array option =
  let rec go lvl acc g part =
    if Graph.num_nodes g <= cfg.coarsen_until then (List.rev acc, g, part)
    else
      match
        Telemetry.with_span "coarsen-level"
          ~args:
            [
              ("level", string_of_int lvl);
              ("nodes", string_of_int (Graph.num_nodes g));
            ]
          (fun () -> coarsen_level pool ?part rng g)
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

(** Refine a bisection in place.  Classic gain-bucket FM with rollback:
    repeatedly move the best-gain movable node out of the bucket
    structure, lock it, update its neighbors' gains and the running cut
    incrementally, and finally keep the best prefix of the move sequence
    (considering feasibility first, then cut).  Repeated for up to
    [passes] passes or until a pass yields no improvement. *)
let fm_refine ?(passes = 4) (cfg : config) (g : Graph.t) (part : int array) :
    unit =
  let n = Graph.num_nodes g in
  let ncon = Graph.num_constraints g in
  let caps = caps g cfg in
  let pw =
    Array.init ncon (fun c -> Graph.part_weights g part ~nparts:2 c)
  in
  let xadj = Graph.adj_offsets g
  and adjncy = Graph.adj_targets g
  and adjwgt = Graph.adj_weights g in
  let max_gain = Graph.max_weighted_degree g in
  let gain = Array.make n 0 in
  (* the cut is maintained incrementally through every move (and
     rollback move) instead of being recomputed per pass *)
  let cut = ref (Graph.edge_cut g part) in
  let compute_gain v =
    let s = part.(v) in
    let x = ref 0 in
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let w = adjwgt.(i) in
      if part.(adjncy.(i)) = s then x := !x - w else x := !x + w
    done;
    gain.(v) <- !x
  in
  (* [pq]: the pass's bucket structure; moved/locked nodes are out of it *)
  let active_pq = ref None in
  let move v =
    cut := !cut - gain.(v);
    let s = part.(v) in
    part.(v) <- 1 - s;
    for c = 0 to ncon - 1 do
      let w = Graph.node_weight g v c in
      pw.(c).(s) <- pw.(c).(s) - w;
      pw.(c).(1 - s) <- pw.(c).(1 - s) + w
    done;
    gain.(v) <- -gain.(v);
    let pv = part.(v) in
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let u = adjncy.(i) and w = adjwgt.(i) in
      let gu =
        if part.(u) = pv then gain.(u) - (2 * w) else gain.(u) + (2 * w)
      in
      gain.(u) <- gu;
      match !active_pq with
      | Some pq when Gain_pq.mem pq u -> Gain_pq.update pq u ~prio:gu
      | _ -> ()
    done
  in
  (* moving v to the other side keeps (or strictly improves) balance *)
  let move_ok v =
    let s = part.(v) in
    let cur_inf = infeasibility ~caps pw in
    let new_inf = ref 0 in
    for c = 0 to ncon - 1 do
      let w = Graph.node_weight g v c in
      let a = pw.(c).(s) - w and b = pw.(c).(1 - s) + w in
      if a > caps.(c).(s) then new_inf := !new_inf + (a - caps.(c).(s));
      if b > caps.(c).(1 - s) then
        new_inf := !new_inf + (b - caps.(c).(1 - s))
    done;
    if cur_inf > 0 then !new_inf < cur_inf else !new_inf = 0
  in
  let pass () =
    for v = 0 to n - 1 do
      compute_gain v
    done;
    let pq = Gain_pq.create ~n ~max_prio:max_gain in
    for v = 0 to n - 1 do
      Gain_pq.insert pq v ~prio:gain.(v)
    done;
    active_pq := Some pq;
    let moves = ref [] in
    let best_cut = ref !cut in
    let best_inf = ref (infeasibility ~caps pw) in
    let best_len = ref 0 in
    let len = ref 0 in
    let bad = ref 0 in
    let improved = ref false in
    (try
       while !bad < cfg.fm_max_bad_moves do
         (* best-gain movable node; moved nodes left the queue = locked *)
         match Gain_pq.pop_best pq ~accept:move_ok with
         | None -> raise Exit
         | Some v ->
             move v;
             moves := v :: !moves;
             incr len;
             let inf = infeasibility ~caps pw in
             if inf < !best_inf || (inf = !best_inf && !cut < !best_cut)
             then begin
               best_inf := inf;
               best_cut := !cut;
               best_len := !len;
               bad := 0;
               improved := true
             end
             else incr bad
       done
     with Exit -> ());
    active_pq := None;
    (* roll back to the best prefix *)
    let rec rollback k ms =
      if k > 0 then
        match ms with
        | [] -> ()
        | v :: rest ->
            move v;
            rollback (k - 1) rest
    in
    rollback (!len - !best_len) !moves;
    !improved
  in
  let continue_ = ref true in
  let p = ref 0 in
  while !continue_ && !p < passes do
    Telemetry.incr "graphpart.fm_passes";
    continue_ := pass ();
    incr p
  done

(* ------------------------------------------------------------------ *)
(* Initial partition                                                   *)

(** Greedy graph growing: grow part 1 from a random seed node by best
    gain until half of constraint-0's weight has been captured.  The
    frontier lives in a [Gain_pq] keyed by each node's connection weight
    into part 1 (so picking the next node is O(1)-ish instead of a
    whole-graph rescan). *)
let grow_bisection rng cfg (g : Graph.t) : int array =
  let n = Graph.num_nodes g in
  let part = Array.make n 0 in
  if n <= 1 then part
  else begin
    let total0 = Graph.total_weight g 0 in
    let target = int_of_float (share cfg 0 1 *. float total0) in
    let seed = Random.State.int rng n in
    let conn = Array.make n 0 in
    (* nodes with no connection get a penalty so connected growth is
       preferred, but isolated nodes can still be taken *)
    let score v = if conn.(v) = 0 then -1 else conn.(v) in
    let pq =
      Gain_pq.create ~n ~max_prio:(max 1 (Graph.max_weighted_degree g))
    in
    for v = 0 to n - 1 do
      Gain_pq.insert pq v ~prio:(-1)
    done;
    let grown = ref 0 in
    let add v =
      part.(v) <- 1;
      Gain_pq.remove pq v;
      grown := !grown + Graph.node_weight g v 0;
      Graph.iter_neighbors g v (fun u w ->
          if part.(u) = 0 then begin
            conn.(u) <- conn.(u) + w;
            Gain_pq.update pq u ~prio:(score u)
          end)
    in
    add seed;
    let continue_ = ref true in
    while !grown < target && !continue_ do
      match Gain_pq.pop_best pq ~accept:(fun _ -> true) with
      | Some v -> add v
      | None -> continue_ := false
    done;
    part
  end

(** (infeasibility, cut) of a bisection under [cfg] — lexicographically
    smaller is better; what [bisect] minimizes over its initial tries. *)
let evaluate cfg g part =
  let ncon = Graph.num_constraints g in
  let pw = Array.init ncon (fun c -> Graph.part_weights g part ~nparts:2 c) in
  let caps = caps g cfg in
  (infeasibility ~caps pw, Graph.edge_cut g part)

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

(* uncoarsen: project through the levels (finest first in [levels]) *)
let project cfg (levels : level list) coarse_part =
  match levels with
  | [] -> coarse_part
  | _ ->
      (* walk from coarsest to finest: process the list in reverse *)
      let rev = List.rev levels in
      List.fold_left
        (fun (lvl_idx, cpart) (lvl : level) ->
          let n = Graph.num_nodes lvl.graph in
          let fine =
            Telemetry.with_span "refine-level"
              ~args:
                [
                  ("level", string_of_int lvl_idx);
                  ("nodes", string_of_int n);
                ]
              (fun () ->
                let fine = Array.make n 0 in
                for v = 0 to n - 1 do
                  fine.(v) <- cpart.(lvl.coarse_of.(v))
                done;
                fm_refine cfg lvl.graph fine;
                fine)
          in
          (lvl_idx + 1, fine))
        (0, coarse_part) rev
      |> snd

(* one full multilevel start: coarsen, several greedy growings + FM on
   the coarsest graph, project the best back up *)
let one_start pool rng cfg g =
  let levels, coarsest, _ = coarsen pool rng cfg g in
  let part =
    Telemetry.with_span "initial-partition"
      ~args:[ ("nodes", string_of_int (Graph.num_nodes coarsest)) ]
      (fun () ->
        let best = ref None in
        for _try = 1 to cfg.initial_tries do
          let part = grow_bisection rng cfg coarsest in
          fm_refine cfg coarsest part;
          let score = evaluate cfg coarsest part in
          match !best with
          | Some (bscore, _) when compare bscore score <= 0 -> ()
          | _ -> best := Some (score, Array.copy part)
        done;
        match !best with Some (_, p) -> p | None -> assert false)
  in
  project cfg levels part

(* restricted V-cycles: re-coarsen along the current partition and
   refine again from the coarsest level up.  Monotone in the
   (infeasibility, cut) order, so extra cycles can only help. *)
let vcycles pool rng cfg g part =
  let part = ref part in
  for _cycle = 1 to max 0 cfg.refine_cycles do
    let levels, coarsest, cpart = coarsen ~part:!part pool rng cfg g in
    let cpart = match cpart with Some p -> p | None -> !part in
    fm_refine cfg coarsest cpart;
    part := project cfg levels cpart
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
          let p0 = one_start pool rng cfg g in
          let p = vcycles pool rng cfg g p0 in
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
