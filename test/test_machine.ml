(** Machine-description tests. *)

module M = Vliw_machine

let test_paper_machine () =
  let m = M.paper_machine () in
  Alcotest.(check int) "clusters" 2 (M.num_clusters m);
  Alcotest.(check int) "move latency" 5 (M.move_latency m);
  Alcotest.(check int) "bus bandwidth" 1 (M.moves_per_cycle m);
  Alcotest.(check bool) "homogeneous" true (M.is_homogeneous m);
  let c = M.cluster_of m 0 in
  Alcotest.(check int) "int units" 2 (M.fu_count c M.FU_int);
  Alcotest.(check int) "float units" 1 (M.fu_count c M.FU_float);
  Alcotest.(check int) "memory units" 1 (M.fu_count c M.FU_memory);
  Alcotest.(check int) "branch units" 1 (M.fu_count c M.FU_branch)

let test_latency_variants () =
  List.iter
    (fun lat ->
      let m = M.paper_machine ~move_latency:lat () in
      Alcotest.(check int) "latency" lat (M.move_latency m))
    [ 1; 5; 10 ]

let test_totals () =
  let m = M.paper_machine () in
  Alcotest.(check int) "total ints" 4 (M.total_fu m M.FU_int);
  Alcotest.(check int) "total mems" 2 (M.total_fu m M.FU_memory)

let test_scaled () =
  let m = M.scaled_machine ~clusters:4 () in
  Alcotest.(check int) "clusters" 4 (M.num_clusters m);
  Alcotest.(check bool) "homogeneous" true (M.is_homogeneous m)

let test_invalid () =
  Alcotest.check_raises "no clusters" (Invalid_argument
    "Vliw_machine.v: machine needs at least one cluster") (fun () ->
      ignore
        (M.v ~name:"x" ~clusters:[||]
           ~network:{ M.topology = Bus; move_latency = 1; moves_per_cycle = 1 }
           ~latencies:M.itanium_latencies));
  Alcotest.check_raises "bad network" (Invalid_argument
    "Vliw_machine.v: invalid network parameters") (fun () ->
      ignore
        (M.v ~name:"x"
           ~clusters:[| M.cluster ~ints:1 ~floats:0 ~mems:1 ~branches:1 () |]
           ~network:{ M.topology = Bus; move_latency = 1; moves_per_cycle = 0 }
           ~latencies:M.itanium_latencies))

let test_invalid_clusters () =
  let net = { M.topology = M.Bus; move_latency = 1; moves_per_cycle = 1 } in
  Alcotest.check_raises "short FU array"
    (Invalid_argument
       "Vliw_machine.v: cluster 0 has 2 FU counts (need 4, one per kind)")
    (fun () ->
      ignore
        (M.v ~name:"x"
           ~clusters:[| { M.fu_counts = [| 1; 1 |]; memory_bytes = 1024 } |]
           ~network:net ~latencies:M.itanium_latencies));
  Alcotest.check_raises "negative FU count"
    (Invalid_argument "Vliw_machine.v: cluster 0: negative FU count")
    (fun () ->
      ignore
        (M.v ~name:"x"
           ~clusters:
             [| { M.fu_counts = [| 1; -1; 1; 1 |]; memory_bytes = 1024 } |]
           ~network:net ~latencies:M.itanium_latencies));
  Alcotest.check_raises "zero-memory cluster"
    (Invalid_argument "Vliw_machine.v: cluster 1 has no local memory")
    (fun () ->
      ignore
        (M.v ~name:"x"
           ~clusters:
             [|
               M.cluster ~ints:1 ~floats:1 ~mems:1 ~branches:1 ();
               M.cluster ~memory_bytes:0 ~ints:1 ~floats:1 ~mems:1 ~branches:1
                 ();
             |]
           ~network:net ~latencies:M.itanium_latencies));
  Alcotest.check_raises "mesh dims must tile the clusters"
    (Invalid_argument "Vliw_machine.v: mesh 2x2 does not cover 3 cluster(s)")
    (fun () ->
      ignore
        (M.v ~name:"x"
           ~clusters:
             (Array.make 3 (M.cluster ~ints:1 ~floats:1 ~mems:1 ~branches:1 ()))
           ~network:
             {
               M.topology = M.Mesh { rows = 2; cols = 2 };
               move_latency = 1;
               moves_per_cycle = 1;
             }
           ~latencies:M.itanium_latencies))

(* ------------------------------------------------------------------ *)
(* Topologies: link counts, deterministic routes, hop distances        *)

let machine_on ~clusters topology =
  M.v
    ~name:(Fmt.str "%d-%s" clusters (M.topology_name topology))
    ~clusters:
      (Array.make clusters (M.cluster ~ints:2 ~floats:1 ~mems:1 ~branches:1 ()))
    ~network:{ M.topology; move_latency = 5; moves_per_cycle = 1 }
    ~latencies:M.itanium_latencies

let test_bus_routes () =
  let m = M.paper_machine () in
  Alcotest.(check int) "one slot" 1 (M.num_link_slots m);
  Alcotest.(check int) "one link" 1 (M.num_links m);
  Alcotest.(check (list int)) "route is the bus" [ 0 ]
    (M.route_links m ~src:0 ~dst:1);
  Alcotest.(check int) "one hop" 1 (M.route_hops m ~src:1 ~dst:0);
  Alcotest.(check int) "self needs no hop" 0 (M.route_hops m ~src:1 ~dst:1);
  Alcotest.(check int) "bus latency is the seed latency" 5
    (M.route_latency m ~src:0 ~dst:1);
  Alcotest.(check int) "max hops" 1 (M.max_hops m)

let test_crossbar_routes () =
  let m = machine_on ~clusters:4 M.Crossbar in
  Alcotest.(check int) "n*n slot table" 16 (M.num_link_slots m);
  Alcotest.(check int) "n*(n-1) links" 12 (M.num_links m);
  Alcotest.(check (list int)) "direct link" [ (2 * 4) + 3 ]
    (M.route_links m ~src:2 ~dst:3);
  Alcotest.(check int) "always one hop" 1 (M.route_hops m ~src:0 ~dst:3);
  Alcotest.(check int) "max hops" 1 (M.max_hops m)

let test_ring_routes () =
  let m = machine_on ~clusters:8 M.Ring in
  Alcotest.(check int) "2n links" 16 (M.num_links m);
  (* shortest direction each way *)
  Alcotest.(check int) "0->3 goes clockwise" 3 (M.route_hops m ~src:0 ~dst:3);
  Alcotest.(check (list int)) "0->3 route"
    [ 1; (1 * 8) + 2; (2 * 8) + 3 ]
    (M.route_links m ~src:0 ~dst:3);
  Alcotest.(check int) "0->5 goes the short way round" 3
    (M.route_hops m ~src:0 ~dst:5);
  Alcotest.(check (list int)) "0->5 route"
    [ 7; (7 * 8) + 6; (6 * 8) + 5 ]
    (M.route_links m ~src:0 ~dst:5);
  (* the n/2 tie breaks clockwise *)
  Alcotest.(check (list int)) "0->4 tie is clockwise"
    [ 1; (1 * 8) + 2; (2 * 8) + 3; (3 * 8) + 4 ]
    (M.route_links m ~src:0 ~dst:4);
  Alcotest.(check int) "max hops" 4 (M.max_hops m);
  Alcotest.(check int) "hop latency scales" 15 (M.route_latency m ~src:0 ~dst:3)

let test_mesh_routes () =
  let m = machine_on ~clusters:16 (M.Mesh { rows = 4; cols = 4 }) in
  Alcotest.(check int) "grid links" 48 (M.num_links m);
  (* X-then-Y over a row-major grid: 0 -> 10 = (0,0) -> (2,2) *)
  Alcotest.(check int) "manhattan distance" 4 (M.route_hops m ~src:0 ~dst:10);
  Alcotest.(check (list int)) "route goes X first"
    [ 1; (1 * 16) + 2; (2 * 16) + 6; (6 * 16) + 10 ]
    (M.route_links m ~src:0 ~dst:10);
  Alcotest.(check int) "corner to corner" 6 (M.route_hops m ~src:0 ~dst:15);
  Alcotest.(check int) "max hops" 6 (M.max_hops m)

(* The hop distance in closed form: the ring's shorter direction, the
   mesh's Manhattan distance, one hop on the bus and the crossbar. *)
let closed_form_hops m ~src ~dst =
  let n = M.num_clusters m in
  if src = dst then 0
  else
    match M.topology m with
    | M.Bus | M.Crossbar -> 1
    | M.Ring ->
        let fwd = (dst - src + n) mod n in
        min fwd (n - fwd)
    | M.Mesh { cols; _ } ->
        abs ((src / cols) - (dst / cols)) + abs ((src mod cols) - (dst mod cols))

let test_route_endpoints () =
  (* every route is a contiguous walk from src to dst on every
     topology, one link per hop, as long as the closed form says *)
  List.iter
    (fun m ->
      let n = M.num_clusters m in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let links = M.route_links m ~src ~dst in
          Alcotest.(check int)
            (Fmt.str "%s %d->%d: hops = closed form" m.M.name src dst)
            (closed_form_hops m ~src ~dst)
            (M.route_hops m ~src ~dst);
          Alcotest.(check int)
            (Fmt.str "%s %d->%d: one link per hop" m.M.name src dst)
            (M.route_hops m ~src ~dst)
            (List.length links);
          if M.topology m <> M.Bus then begin
            let rec walk at = function
              | [] ->
                  Alcotest.(check int)
                    (Fmt.str "%s %d->%d: ends at dst" m.M.name src dst)
                    dst at
              | link :: rest ->
                  Alcotest.(check int)
                    (Fmt.str "%s %d->%d: contiguous" m.M.name src dst)
                    at (link / n);
                  walk (link mod n) rest
            in
            if links <> [] then walk src links
          end
        done
      done)
    [
      machine_on ~clusters:5 M.Ring;
      machine_on ~clusters:8 M.Ring;
      machine_on ~clusters:6 (M.Mesh { rows = 2; cols = 3 });
      machine_on ~clusters:16 (M.Mesh { rows = 4; cols = 4 });
      machine_on ~clusters:4 M.Crossbar;
      M.paper_machine ();
    ]

let test_itanium_latencies () =
  let l = M.itanium_latencies in
  Alcotest.(check int) "load" 2 l.M.load;
  Alcotest.(check bool) "mul longer than alu" true (l.M.int_mul > l.M.int_alu);
  Alcotest.(check bool) "fdiv longest" true
    (l.M.float_div >= l.M.float_mul && l.M.float_div >= l.M.int_div)

let suite =
  [
    Alcotest.test_case "paper machine shape" `Quick test_paper_machine;
    Alcotest.test_case "latency variants" `Quick test_latency_variants;
    Alcotest.test_case "fu totals" `Quick test_totals;
    Alcotest.test_case "scaled machine" `Quick test_scaled;
    Alcotest.test_case "invalid machines rejected" `Quick test_invalid;
    Alcotest.test_case "invalid clusters rejected" `Quick test_invalid_clusters;
    Alcotest.test_case "bus routes" `Quick test_bus_routes;
    Alcotest.test_case "crossbar routes" `Quick test_crossbar_routes;
    Alcotest.test_case "ring routes" `Quick test_ring_routes;
    Alcotest.test_case "mesh routes" `Quick test_mesh_routes;
    Alcotest.test_case "routes walk src to dst" `Quick test_route_endpoints;
    Alcotest.test_case "itanium-like latencies" `Quick test_itanium_latencies;
  ]
