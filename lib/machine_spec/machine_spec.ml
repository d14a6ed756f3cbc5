(** Declarative machine descriptions ("gdp-machine/1").

    A [Machine_spec.t] is the portable, serializable form of a
    [Vliw_machine.t]: per-cluster FU counts and memory capacity, the
    interconnect topology, and the per-hop link latency and per-link
    bandwidth.  Operation latencies are not part of the spec — every
    resolved machine uses [Vliw_machine.itanium_latencies], matching
    the paper.

    Specs travel inside [Pipeline.Settings] (v4), over the gdpcd wire
    protocol (and therefore into the artifact cache key), and as
    [gdpc --machine] arguments; [docs/machine.md] documents the JSON
    format and the presets. *)

type cluster_spec = {
  ints : int;
  floats : int;
  mems : int;
  branches : int;
  memory_bytes : int;
}

type t = {
  name : string;
  clusters : cluster_spec list;
  topology : Vliw_machine.topology;
  link_latency : int;
  link_bandwidth : int;
}

let schema = "gdp-machine/1"

let default_memory_bytes = 32768

(* The paper's cluster shape: 2 integer, 1 float, 1 memory, 1 branch. *)
let paper_cluster =
  {
    ints = 2;
    floats = 1;
    mems = 1;
    branches = 1;
    memory_bytes = default_memory_bytes;
  }

(** The exact machines [Vliw_machine.paper_machine] and
    [scaled_machine] build, as specs — including their names, so both
    paths resolve to a byte-identical machine. *)
let of_legacy ~clusters ~move_latency =
  if clusters < 1 then invalid_arg "Machine_spec.of_legacy";
  {
    name = Fmt.str "%dcluster-2i1f1m1b-lat%d" clusters move_latency;
    clusters = List.init clusters (fun _ -> paper_cluster);
    topology = Vliw_machine.Bus;
    link_latency = move_latency;
    link_bandwidth = 1;
  }

(* ------------------------------------------------------------------ *)
(* Presets *)

let homogeneous ~name ~clusters ~topology ~link_latency =
  {
    name;
    clusters = List.init clusters (fun _ -> paper_cluster);
    topology;
    link_latency;
    link_bandwidth = 1;
  }

let preset_names = [ "paper"; "kway4"; "ring8"; "mesh16"; "hetero4" ]

(** Named machine shapes.  [link_latency] (default 5, the paper's
    midpoint) rescales the whole preset, names included. *)
let preset ?(link_latency = 5) name =
  let lat = link_latency in
  match name with
  | "paper" -> Ok (of_legacy ~clusters:2 ~move_latency:lat)
  | "kway4" -> Ok (of_legacy ~clusters:4 ~move_latency:lat)
  | "ring8" ->
      Ok
        (homogeneous
           ~name:(Fmt.str "ring8-2i1f1m1b-lat%d" lat)
           ~clusters:8 ~topology:Vliw_machine.Ring ~link_latency:lat)
  | "mesh16" ->
      Ok
        (homogeneous
           ~name:(Fmt.str "mesh16-2i1f1m1b-lat%d" lat)
           ~clusters:16
           ~topology:(Vliw_machine.Mesh { rows = 4; cols = 4 })
           ~link_latency:lat)
  | "hetero4" ->
      (* a wide cluster, two paper-shaped ones and a narrow one on a
         contended crossbar: the asymmetric mix of the scenario matrix *)
      Ok
        {
          name = Fmt.str "hetero4-xbar-lat%d" lat;
          clusters =
            [
              {
                ints = 4;
                floats = 2;
                mems = 2;
                branches = 1;
                memory_bytes = 65536;
              };
              paper_cluster;
              paper_cluster;
              {
                ints = 1;
                floats = 1;
                mems = 1;
                branches = 1;
                memory_bytes = 16384;
              };
            ];
          topology = Vliw_machine.Crossbar;
          link_latency = lat;
          link_bandwidth = 1;
        }
  | other ->
      Error
        (Fmt.str "unknown machine preset %S (known: %s)" other
           (String.concat ", " preset_names))

(* ------------------------------------------------------------------ *)
(* Resolution *)

(** Build the concrete machine.  Raises [Invalid_argument] (from
    [Vliw_machine.v]) when the spec is not realizable — e.g. mesh
    dimensions that do not tile the cluster count. *)
let resolve t =
  let cluster c =
    Vliw_machine.cluster ~memory_bytes:c.memory_bytes ~ints:c.ints
      ~floats:c.floats ~mems:c.mems ~branches:c.branches ()
  in
  Vliw_machine.v ~name:t.name
    ~clusters:(Array.of_list (List.map cluster t.clusters))
    ~network:
      {
        Vliw_machine.topology = t.topology;
        move_latency = t.link_latency;
        moves_per_cycle = t.link_bandwidth;
      }
    ~latencies:Vliw_machine.itanium_latencies

let resolve_result t =
  match resolve t with
  | m -> Ok m
  | exception Invalid_argument msg -> Error msg

let validate t = Result.map (fun _ -> ()) (resolve_result t)

(* ------------------------------------------------------------------ *)
(* Topology names: the JSON encoding reuses [Vliw_machine.topology_name]
   ("bus", "ring", "crossbar", "mesh<R>x<C>") so documents read the way
   [Vliw_machine.pp] prints. *)

let topology_of_name s : (Vliw_machine.topology, string) result =
  match s with
  | "bus" -> Ok Vliw_machine.Bus
  | "ring" -> Ok Vliw_machine.Ring
  | "crossbar" -> Ok Vliw_machine.Crossbar
  | s -> (
      match Scanf.sscanf_opt s "mesh%dx%d%!" (fun rows cols -> (rows, cols)) with
      | Some (rows, cols) when rows >= 1 && cols >= 1 ->
          Ok (Vliw_machine.Mesh { rows; cols })
      | Some _ | None ->
          Error
            (Fmt.str
               "unknown topology %S (expected bus, ring, crossbar or \
                mesh<R>x<C>)"
               s))

(* ------------------------------------------------------------------ *)
(* JSON *)

let cluster_to_json c =
  Minijson.obj
    [
      ("ints", Minijson.int c.ints);
      ("floats", Minijson.int c.floats);
      ("mems", Minijson.int c.mems);
      ("branches", Minijson.int c.branches);
      ("memory_bytes", Minijson.int c.memory_bytes);
    ]

let to_json t =
  Minijson.obj
    [
      ("schema", Minijson.str schema);
      ("name", Minijson.str t.name);
      ("topology", Minijson.str (Vliw_machine.topology_name t.topology));
      ("link_latency", Minijson.int t.link_latency);
      ("link_bandwidth", Minijson.int t.link_bandwidth);
      ("clusters", Minijson.list (List.map cluster_to_json t.clusters));
    ]

let known_fields =
  [ "schema"; "name"; "topology"; "link_latency"; "link_bandwidth"; "clusters" ]

let known_cluster_fields = [ "ints"; "floats"; "mems"; "branches"; "memory_bytes" ]

let reject_unknown ~known ~where (doc : Minijson.t) =
  match doc with
  | Minijson.Obj fields ->
      List.fold_left
        (fun acc (k, _) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
              if List.mem k known then Ok ()
              else Error (Fmt.str "%s: unknown field %S" where k))
        (Ok ()) fields
  | _ -> Error (Fmt.str "%s: expected an object" where)

let cluster_of_json (doc : Minijson.t) : (cluster_spec, string) result =
  let open Minijson in
  let ( let* ) = Result.bind in
  let* () = reject_unknown ~known:known_cluster_fields ~where:"machine cluster" doc in
  let int_field ?default name =
    match (Option.bind (member name doc) to_int, default) with
    | Some v, _ -> Ok v
    | None, Some d when member name doc = None -> Ok d
    | None, _ -> Error (Fmt.str "machine cluster: missing or non-integer %S" name)
  in
  let* ints = int_field "ints" in
  let* floats = int_field "floats" in
  let* mems = int_field "mems" in
  let* branches = int_field "branches" in
  let* memory_bytes = int_field ~default:default_memory_bytes "memory_bytes" in
  Ok { ints; floats; mems; branches; memory_bytes }

(** Parse a spec document.  [name] is optional (a deterministic one is
    derived from the shape); every other field is required, unknown
    fields are rejected, and the parsed spec is validated by
    resolution, so [Ok] specs always resolve. *)
let of_json (doc : Minijson.t) : (t, string) result =
  let open Minijson in
  let ( let* ) = Result.bind in
  let* () = reject_unknown ~known:known_fields ~where:"machine spec" doc in
  let* () =
    match Option.bind (member "schema" doc) to_string with
    | Some s when String.equal s schema -> Ok ()
    | Some s -> Error (Fmt.str "machine spec: unsupported schema %S" s)
    | None -> Error "machine spec: missing \"schema\""
  in
  let* topology =
    match Option.bind (member "topology" doc) to_string with
    | Some s -> topology_of_name s
    | None -> Error "machine spec: missing or non-string \"topology\""
  in
  let int_field name =
    match Option.bind (member name doc) to_int with
    | Some v -> Ok v
    | None -> Error (Fmt.str "machine spec: missing or non-integer %S" name)
  in
  let* link_latency = int_field "link_latency" in
  let* link_bandwidth = int_field "link_bandwidth" in
  let* clusters =
    match Option.bind (member "clusters" doc) to_list with
    | Some [] -> Error "machine spec: \"clusters\" must be non-empty"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* c = cluster_of_json item in
            Ok (c :: acc))
          (Ok []) items
        |> Result.map List.rev
    | None -> Error "machine spec: missing or non-array \"clusters\""
  in
  let name =
    match Option.bind (member "name" doc) to_string with
    | Some n -> n
    | None ->
        Fmt.str "%dcluster-%s-lat%d" (List.length clusters)
          (Vliw_machine.topology_name topology)
          link_latency
  in
  let t = { name; clusters; topology; link_latency; link_bandwidth } in
  let* () = Result.map_error (Fmt.str "machine spec: %s") (validate t) in
  Ok t

let pp ppf t = Minijson.pp ppf (to_json t)
