(** Shared helpers for the test suites. *)

let qcheck ?(count = 100) name prop arb =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(** Compile MiniC source, failing the test on frontend errors. *)
let compile ?(unroll = false) src =
  try Minic.compile ~unroll src
  with Minic.Compile_error _ as e ->
    Alcotest.failf "compilation failed: %a" Minic.pp_error e

let run ?(input = [||]) prog = Vliw_interp.Interp.run prog ~input

(** Observable outputs as plain ints (fails on float outputs). *)
let int_outputs ?input prog =
  List.map
    (function
      | Vliw_interp.Interp.VInt i -> i
      | Vliw_interp.Interp.VFloat f ->
          Alcotest.failf "unexpected float output %g" f)
    (run ?input prog).Vliw_interp.Interp.outputs

let equal_outputs a b =
  List.length a = List.length b
  && List.for_all2 Vliw_interp.Interp.equal_value a b

let check_outputs what expected got =
  if not (equal_outputs expected got) then
    Alcotest.failf "%s: outputs differ (%a vs %a)" what
      Fmt.(list ~sep:sp Vliw_interp.Interp.pp_value)
      expected
      Fmt.(list ~sep:sp Vliw_interp.Interp.pp_value)
      got

let machine ?(move_latency = 5) () = Vliw_machine.paper_machine ~move_latency ()

(** A repository file, by its path from the root: the first match in
    this executable's directory or above it.  [dune runtest] copies the
    file into the build tree; after a plain [dune build] the search
    reaches the source tree instead. *)
let repo_file path =
  let exe_dir = Filename.dirname Sys.executable_name in
  let exe_dir =
    if Filename.is_relative exe_dir then Filename.concat (Sys.getcwd ()) exe_dir
    else exe_dir
  in
  let rec up dir =
    let candidate = Filename.concat dir path in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.failf "%s: not found above %s" path exe_dir
      else up parent
  in
  up exe_dir

(** The machine of a [Machine_spec] preset ("paper", "mesh16", ...). *)
let preset_machine name =
  match Machine_spec.preset name with
  | Ok spec -> Machine_spec.resolve spec
  | Error m -> Alcotest.fail m

(** Full context for a compiled program on a given input. *)
let context ?move_latency ?(input = [||]) prog =
  let reference = Vliw_interp.Interp.run prog ~input in
  ( reference,
    Partition.Methods.make_context
      ~machine:(machine ?move_latency ())
      ~prog ~profile:reference.Vliw_interp.Interp.profile () )

(** Factor pairs of [n] (rows, cols), for mesh shapes. *)
let factor_pairs n =
  List.concat_map
    (fun r -> if n mod r = 0 then [ (r, n / r) ] else [])
    (List.init n (fun i -> i + 1))

let gen_cluster st =
  {
    Machine_spec.ints = 1 + Random.State.int st 3;
    floats = 1 + Random.State.int st 2;
    mems = 1 + Random.State.int st 2;
    branches = 1;
    memory_bytes = 1024 * (1 + Random.State.int st 64);
  }

(** A random valid machine spec: 1/2/4/8 clusters (the k-way
    partitioner wants a power of two) of random shapes, any topology
    compatible with the cluster count, latency 1-6, bandwidth 1-2. *)
let gen_spec st =
  let module M = Vliw_machine in
  let n = 1 lsl Random.State.int st 4 in
  let clusters = List.init n (fun _ -> gen_cluster st) in
  let meshes =
    List.map (fun (rows, cols) -> M.Mesh { rows; cols }) (factor_pairs n)
  in
  let topologies = [ M.Bus; M.Ring; M.Crossbar ] @ meshes in
  let topology = List.nth topologies (Random.State.int st (List.length topologies)) in
  {
    Machine_spec.name =
      Fmt.str "random-%dc-%s" n (M.topology_name topology);
    clusters;
    topology;
    link_latency = 1 + Random.State.int st 6;
    link_bandwidth = 1 + Random.State.int st 2;
  }

(** Run [method_] on a ready context through [Pipeline.run] in [Plain]
    mode (the context's machine wins over the settings' default). *)
let evaluate ctx method_ =
  let module P = Gdp_core.Pipeline in
  match P.run ~ctx (P.Settings.default method_) with
  | Ok (P.Evaluated e) -> e
  | Ok (P.Degraded _) -> Alcotest.fail "Plain mode degraded"
  | Error m -> Alcotest.fail m
