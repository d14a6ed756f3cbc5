(** Graph partitioner tests: construction, edge cut, balance, multilevel
    bisection, k-way, determinism — with qcheck properties on random
    graphs. *)

module G = Graphpart.Graph
module P = Graphpart.Partitioner

let simple_graph () =
  (* two 4-cliques joined by one light edge: the obvious bisection cuts
     only the bridge *)
  let weights = Array.init 8 (fun _ -> [| 1 |]) in
  let clique base =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j then Some (base + i, base + j, 10) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  G.create ~ncon:1 ~weights ~edges:(clique 0 @ clique 4 @ [ (0, 4, 1) ])

let test_graph_basics () =
  let g = simple_graph () in
  Alcotest.(check int) "nodes" 8 (G.num_nodes g);
  Alcotest.(check int) "edges" 13 (G.num_edges g);
  Alcotest.(check int) "total weight" 8 (G.total_weight g 0)

let test_graph_merges_parallel_edges () =
  let g =
    G.create ~ncon:1
      ~weights:[| [| 1 |]; [| 1 |] |]
      ~edges:[ (0, 1, 2); (1, 0, 3) ]
  in
  Alcotest.(check int) "one edge" 1 (G.num_edges g);
  Alcotest.(check int) "summed weight" 5
    (G.edge_cut g [| 0; 1 |])

let test_graph_rejects () =
  Alcotest.check_raises "self edge" (Invalid_argument "Graph.create: self edge")
    (fun () ->
      ignore (G.create ~ncon:1 ~weights:[| [| 1 |] |] ~edges:[ (0, 0, 1) ]));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph.create: edge endpoint out of range") (fun () ->
      ignore (G.create ~ncon:1 ~weights:[| [| 1 |] |] ~edges:[ (0, 3, 1) ]))

let test_bisect_cliques () =
  let g = simple_graph () in
  let part = P.bisect g in
  Alcotest.(check int) "cuts only the bridge" 1 (G.edge_cut g part);
  let w = G.part_weights g part ~nparts:2 0 in
  Alcotest.(check int) "balanced" 4 w.(0);
  Alcotest.(check int) "balanced" 4 w.(1)

let test_bisect_deterministic () =
  let g = simple_graph () in
  let p1 = P.bisect g and p2 = P.bisect g in
  Alcotest.(check (array int)) "same result" p1 p2

let test_kway () =
  (* four cliques in a ring; 4-way should isolate them *)
  let weights = Array.init 16 (fun _ -> [| 1 |]) in
  let clique base =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j then Some (base + i, base + j, 10) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let bridges = [ (0, 4, 1); (4, 8, 1); (8, 12, 1); (12, 0, 1) ] in
  let g =
    G.create ~ncon:1 ~weights
      ~edges:(clique 0 @ clique 4 @ clique 8 @ clique 12 @ bridges)
  in
  let part = P.kway g ~nparts:4 in
  (* each clique uniform *)
  List.iter
    (fun base ->
      let p = part.(base) in
      List.iter
        (fun i -> Alcotest.(check int) "clique uniform" p part.(base + i))
        [ 1; 2; 3 ])
    [ 0; 4; 8; 12 ];
  (* all four parts used *)
  let used = Array.make 4 false in
  Array.iter (fun p -> used.(p) <- true) part;
  Alcotest.(check bool) "all parts used" true (Array.for_all Fun.id used)

let test_asymmetric_targets () =
  (* 10 unit-weight nodes, no edges; a 70/30 target must land ~7 on part 0 *)
  let weights = Array.init 10 (fun _ -> [| 1 |]) in
  let g = G.create ~ncon:1 ~weights ~edges:[] in
  let cfg =
    {
      (P.default_config ~ncon:1) with
      P.targets = Some [| 0.7 |];
      imbalance = [| 0.05 |];
    }
  in
  let part = P.bisect ~config:cfg g in
  let w = G.part_weights g part ~nparts:2 0 in
  Alcotest.(check bool) "part 0 gets the 70% share" true
    (w.(0) >= 6 && w.(0) <= 8)

let test_kway_rejects_non_power_of_two () =
  let g = simple_graph () in
  Alcotest.check_raises "nparts=3"
    (Invalid_argument "Partitioner.kway: nparts must be a positive power of two")
    (fun () -> ignore (P.kway g ~nparts:3))

(* ------------------------------------------------------------------ *)
(* Random graph properties                                             *)

let arbitrary_graph =
  let gen st =
    let n = 2 + Random.State.int st 40 in
    let ncon = 1 + Random.State.int st 2 in
    let weights =
      Array.init n (fun _ ->
          Array.init ncon (fun _ -> 1 + Random.State.int st 20))
    in
    let nedges = Random.State.int st (3 * n) in
    let edges =
      List.init nedges (fun _ ->
          let a = Random.State.int st n in
          let b = Random.State.int st n in
          (a, b, 1 + Random.State.int st 10))
      |> List.filter (fun (a, b, _) -> a <> b)
    in
    (n, ncon, weights, edges)
  in
  QCheck.make
    ~print:(fun (n, ncon, _, edges) ->
      Printf.sprintf "n=%d ncon=%d edges=%d" n ncon (List.length edges))
    gen

let prop_bisect_valid =
  Helpers.qcheck ~count:100 "bisection assigns every node to 0 or 1"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let part = P.bisect g in
      Array.length part = G.num_nodes g
      && Array.for_all (fun p -> p = 0 || p = 1) part)
    arbitrary_graph

let prop_bisect_balanced =
  Helpers.qcheck ~count:100
    "bisection is never worse than the cap plus one node (bin-packing \
     slack)"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let cfg = P.default_config ~ncon in
      let part = P.bisect ~config:cfg g in
      (* exact feasibility is a bin-packing question, so allow one
         heaviest-node of slack beyond the configured cap *)
      List.for_all
        (fun c ->
          let total = G.total_weight g c in
          let cap =
            max
              (int_of_float
                 (ceil ((1. +. cfg.P.imbalance.(c)) /. 2. *. float total)))
              ((total + 1) / 2)
          in
          let heaviest = ref 0 in
          for v = 0 to G.num_nodes g - 1 do
            heaviest := max !heaviest (G.node_weight g v c)
          done;
          let w = G.part_weights g part ~nparts:2 c in
          max w.(0) w.(1) <= cap + !heaviest)
        (List.init ncon Fun.id))
    arbitrary_graph

let prop_cut_nonnegative_and_bounded =
  Helpers.qcheck ~count:100 "edge cut is between 0 and the total edge weight"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let part = P.bisect g in
      let cut = G.edge_cut g part in
      let total =
        List.fold_left (fun acc (_, _, w) -> acc + w) 0 edges
      in
      cut >= 0 && cut <= total)
    arbitrary_graph

let prop_deterministic =
  Helpers.qcheck ~count:50 "bisection is deterministic"
    (fun (_, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      P.bisect g = P.bisect g)
    arbitrary_graph

(* An adjacency-list reference model of the CSR structure: merged
   symmetric edges as a (min, max) -> weight table plus sorted per-node
   neighbor lists, built with none of [Graph]'s machinery. *)
let reference_model n edges =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a, b, w) ->
      let key = if a < b then (a, b) else (b, a) in
      Hashtbl.replace tbl key
        (w + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    edges;
  let adj = Array.make n [] in
  Hashtbl.iter
    (fun (a, b) w ->
      adj.(a) <- (b, w) :: adj.(a);
      adj.(b) <- (a, w) :: adj.(b))
    tbl;
  (Array.map (List.sort compare) adj, tbl)

(* a partition of [n] nodes derived deterministically from the instance,
   so every random graph also exercises a non-trivial assignment *)
let model_part n edges =
  let salt = List.fold_left (fun a (x, y, w) -> a + x + y + w) 0 edges in
  Array.init n (fun i -> (i + salt) mod 2)

let prop_csr_matches_reference =
  Helpers.qcheck ~count:100
    "CSR neighbors/edge_cut/part_weights agree with an adjacency-list \
     reference"
    (fun (n, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let adj, tbl = reference_model n edges in
      let part = model_part n edges in
      let neighbors_ok =
        Array.for_all Fun.id
          (Array.init n (fun v ->
               let via_iter = ref [] in
               G.iter_neighbors g v (fun u w -> via_iter := (u, w) :: !via_iter);
               G.neighbors g v = adj.(v) && List.rev !via_iter = adj.(v)))
      in
      let ref_cut =
        Hashtbl.fold
          (fun (a, b) w acc -> if part.(a) <> part.(b) then acc + w else acc)
          tbl 0
      in
      let part_weights_ok =
        List.for_all
          (fun c ->
            let expect = Array.make 2 0 in
            Array.iteri
              (fun v p -> expect.(p) <- expect.(p) + weights.(v).(c))
              part;
            G.part_weights g part ~nparts:2 c = expect)
          (List.init ncon Fun.id)
      in
      neighbors_ok && G.edge_cut g part = ref_cut && part_weights_ok)
    arbitrary_graph

let prop_fm_never_worsens =
  Helpers.qcheck ~count:100
    "fm_refine never worsens the (infeasibility, cut) order"
    (fun (n, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let cfg = P.default_config ~ncon in
      let part = model_part n edges in
      let before = P.evaluate cfg g part in
      P.fm_refine cfg g part;
      let after = P.evaluate cfg g part in
      Array.for_all (fun p -> p = 0 || p = 1) part && after <= before)
    arbitrary_graph

(* ------------------------------------------------------------------ *)
(* Gain_pq against a sorted-list reference                             *)

module Q = Graphpart.Gain_pq

type pq_op =
  | Insert of int * int
  | Update of int * int
  | Remove of int
  | Pop of bool array  (** [accept v] is [mask.(v)] *)
  | Fill of int array
  | Clear

let arbitrary_pq_ops =
  let gen st =
    let n = 1 + Random.State.int st 40 in
    let prio () = Random.State.int st 11 - 5 (* a narrow range: many ties *) in
    let op () =
      match Random.State.int st 12 with
      | 0 | 1 | 2 -> Insert (Random.State.int st n, prio ())
      | 3 | 4 -> Update (Random.State.int st n, prio ())
      | 5 -> Remove (Random.State.int st n)
      | 6 -> Fill (Array.init n (fun _ -> prio ()))
      | 7 -> Clear
      | _ ->
          (* from accept-all to reject-all *)
          let reject = [| 0; 30; 70; 95; 100 |].(Random.State.int st 5) in
          Pop (Array.init n (fun _ -> Random.State.int st 100 >= reject))
    in
    (n, List.init (Random.State.int st 150) (fun _ -> op ()))
  in
  QCheck.make
    ~print:(fun (n, ops) -> Printf.sprintf "n=%d ops=%d" n (List.length ops))
    gen

(* the reference: members as a (node, prio) list; [pop_best] is the first
   accepted member in (prio desc, id asc) order *)
let prop_gain_pq_matches_reference =
  Helpers.qcheck ~count:300
    "Gain_pq: pop_best takes the first accepted member in (gain desc, id \
     asc) order and leaves rejected members queued"
    (fun (n, ops) ->
      let q = Q.create ~n in
      let model = ref [] in
      let present v = List.mem_assoc v !model in
      let step = function
        | Insert (v, p) ->
            if not (present v) then begin
              Q.insert q v ~prio:p;
              model := (v, p) :: !model
            end;
            true
        | Update (v, p) ->
            if present v then begin
              Q.update q v ~prio:p;
              model := (v, p) :: List.remove_assoc v !model
            end;
            true
        | Remove v ->
            Q.remove q v;
            model := List.remove_assoc v !model;
            true
        | Fill prios ->
            if !model = [] then begin
              Q.fill q prios ~n;
              model := List.init n (fun v -> (v, prios.(v)))
            end;
            true
        | Clear ->
            Q.clear q;
            model := [];
            true
        | Pop mask ->
            let order =
              List.sort
                (fun (a, pa) (b, pb) -> compare (-pa, a) (-pb, b))
                !model
            in
            let expect =
              match List.find_opt (fun (v, _) -> mask.(v)) order with
              | Some (v, _) -> v
              | None -> -1
            in
            model := List.remove_assoc expect !model;
            Q.pop_best q ~accept:(fun v -> mask.(v)) = expect
      in
      List.for_all
        (fun op ->
          step op
          && Q.cardinal q = List.length !model
          && List.for_all (fun v -> Q.mem q v = present v) (List.init n Fun.id))
        ops)
    arbitrary_pq_ops

(* ------------------------------------------------------------------ *)
(* Derived graphs against the adjacency-list reference                 *)

(* every node's weights and sorted neighbour list *)
let graph_view g =
  Array.init (G.num_nodes g) (fun v ->
      ( Array.init (G.num_constraints g) (G.node_weight g v),
        G.neighbors g v ))

let rows_sorted g =
  Array.for_all
    (fun (_, row) ->
      let ids = List.map fst row in
      List.sort_uniq compare ids = ids)
    (graph_view g)

(* the reference model of an edge list after mapping its endpoints
   through [f] (dropping edges [f] sends to [None] or to one node) *)
let mapped_model ~n f edges =
  let mapped =
    List.filter_map
      (fun (a, b, w) ->
        match (f a, f b) with
        | Some a', Some b' when a' <> b' -> Some (a', b', w)
        | _ -> None)
      edges
  in
  fst (reference_model n mapped)

let prop_contract_matches_reference =
  Helpers.qcheck ~count:100
    "contract: rows sorted, merged and symmetric, node weights summed"
    (fun (n, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let st = Random.State.make [| n; List.length edges |] in
      let cn = 1 + Random.State.int st n in
      (* onto [0 .. cn-1]: the first [cn] nodes take every coarse id *)
      let coarse_of =
        Array.init n (fun v -> if v < cn then v else Random.State.int st cn)
      in
      let expect_w = Array.init cn (fun _ -> Array.make ncon 0) in
      Array.iteri
        (fun v cv ->
          Array.iteri
            (fun c w -> expect_w.(cv).(c) <- expect_w.(cv).(c) + w)
            weights.(v))
        coarse_of;
      let expect_adj =
        mapped_model ~n:cn (fun v -> Some coarse_of.(v)) edges
      in
      let expect = Array.init cn (fun cv -> (expect_w.(cv), expect_adj.(cv))) in
      let scratch = G.scratch g in
      let once = G.contract ~scratch g ~coarse_of ~num_coarse:cn in
      (* a scratch reused after another contraction must not leak its
         rows *)
      ignore
        (G.contract ~scratch g ~coarse_of:(Array.init n Fun.id) ~num_coarse:n);
      let again = G.contract ~scratch g ~coarse_of ~num_coarse:cn in
      G.num_nodes once = cn
      && rows_sorted once
      && graph_view once = expect
      && graph_view again = expect)
    arbitrary_graph

let prop_induce_matches_reference =
  Helpers.qcheck ~count:100
    "induce: the subgraph on increasing ids, rows sorted, weights copied"
    (fun (n, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let st = Random.State.make [| n; List.length edges; 1 |] in
      let ids =
        List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id)
        |> Array.of_list
      in
      let index_of = Array.make n (-1) in
      Array.iteri (fun i v -> index_of.(v) <- i) ids;
      let k = Array.length ids in
      let expect_adj =
        mapped_model ~n:k
          (fun v -> if index_of.(v) >= 0 then Some index_of.(v) else None)
          edges
      in
      let sub = G.induce g ids in
      rows_sorted sub
      && graph_view sub
         = Array.init k (fun i -> (weights.(ids.(i)), expect_adj.(i))))
    arbitrary_graph

let prop_relabel_round_trip =
  Helpers.qcheck ~count:100
    "relabel: rows sorted, and relabelling by a permutation then its \
     inverse gives back the graph"
    (fun (n, ncon, weights, edges) ->
      let g = G.create ~ncon ~weights ~edges in
      let st = Random.State.make [| n; List.length edges; 2 |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let inverse = Array.make n 0 in
      Array.iteri (fun i v -> inverse.(v) <- i) perm;
      let rg = G.relabel g perm in
      let expect_adj = mapped_model ~n (fun v -> Some inverse.(v)) edges in
      rows_sorted rg
      && graph_view rg
         = Array.init n (fun i -> (weights.(perm.(i)), expect_adj.(i)))
      && graph_view (G.relabel rg inverse) = graph_view g)
    arbitrary_graph

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "parallel edges merge" `Quick
      test_graph_merges_parallel_edges;
    Alcotest.test_case "invalid graphs rejected" `Quick test_graph_rejects;
    Alcotest.test_case "bisect cliques" `Quick test_bisect_cliques;
    Alcotest.test_case "bisect deterministic" `Quick test_bisect_deterministic;
    Alcotest.test_case "kway ring of cliques" `Quick test_kway;
    Alcotest.test_case "asymmetric balance targets" `Quick
      test_asymmetric_targets;
    Alcotest.test_case "kway validates nparts" `Quick
      test_kway_rejects_non_power_of_two;
    prop_bisect_valid;
    prop_bisect_balanced;
    prop_cut_nonnegative_and_bounded;
    prop_deterministic;
    prop_csr_matches_reference;
    prop_fm_never_worsens;
    prop_gain_pq_matches_reference;
    prop_contract_matches_reference;
    prop_induce_matches_reference;
    prop_relabel_round_trip;
  ]
