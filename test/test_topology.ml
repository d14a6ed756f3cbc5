(** Topology and machine-spec tests: the Bus spec path reproduces the
    seed constructors' cycle counts exactly, the simulator agrees with
    the static model (and the attribution identity holds) on random
    machines of every topology, [Machine_spec] JSON round-trips, and
    settings carry the machine in their v4 [machine] field only. *)

module M = Vliw_machine
module Spec = Machine_spec
module Attrib = Vliw_sched.Attrib
module Sim = Vliw_sched.Vliw_sim
module Perf = Vliw_sched.Perf
module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline
module Settings = Gdp_core.Pipeline.Settings

let sum = Array.fold_left ( + ) 0

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let bench_of_seed seed : Benchsuite.Bench_intf.t =
  {
    name = Printf.sprintf "fuzz-%d" seed;
    description = "";
    source = Gen_minic.gen_program_with_seed seed;
    input = Gen_minic.input;
    exhaustive_ok = false;
  }

(* ------------------------------------------------------------------ *)
(* Bus spec reproduces the seed constructors exactly                   *)

(* [Machine_spec.of_legacy] resolves to the very machine the seed's
   [paper_machine]/[scaled_machine] build (names included), and the
   whole pipeline consequently produces identical cycle counts through
   either path — the invariant that keeps the committed figure
   baselines byte-stable. *)
let check_bus_reproduces_seed seed =
  let prepared = Pipeline.prepare (bench_of_seed seed) in
  List.iter
    (fun (clusters, move_latency) ->
      let seed_machine =
        if clusters = 2 then M.paper_machine ~move_latency ()
        else M.scaled_machine ~clusters ~move_latency ()
      in
      let spec_machine =
        Spec.resolve (Spec.of_legacy ~clusters ~move_latency)
      in
      if spec_machine <> seed_machine then
        QCheck.Test.fail_reportf "spec machine differs for %d clusters lat %d"
          clusters move_latency;
      let eval machine =
        let ctx = Pipeline.context ~machine prepared in
        List.map
          (fun m ->
            let e = Helpers.evaluate ctx m in
            ( Methods.to_string m,
              e.Pipeline.report.Perf.total_cycles,
              e.Pipeline.report.Perf.dynamic_moves ))
          Methods.all
      in
      if eval spec_machine <> eval seed_machine then
        QCheck.Test.fail_reportf
          "cycle counts differ between spec and seed machines (%d clusters, \
           latency %d)"
          clusters move_latency)
    [ (2, 1); (2, 5); (4, 5) ];
  true

let prop_bus_reproduces_seed =
  Helpers.qcheck ~count:8
    "bus topology via Machine_spec reproduces seed cycle counts"
    check_bus_reproduces_seed Gen_minic.arbitrary_program

(* ------------------------------------------------------------------ *)
(* Simulator vs static model on random machines                        *)

(* For a random program on a random machine (any topology): the
   clustered program still computes the reference outputs, the
   contention-aware simulator's cycle count equals the static cycle
   model, and the attribution identity [cycles = sum of categories]
   holds against the simulator's count. *)
let check_random_machine seed =
  let prepared = Pipeline.prepare (bench_of_seed seed) in
  let st = Random.State.make [| (seed * 131) + 17 |] in
  let reference = prepared.Pipeline.reference in
  for _trial = 0 to 1 do
    let spec = Helpers.gen_spec st in
    let machine = Spec.resolve spec in
    let ctx = Pipeline.context ~machine prepared in
    let objects_of = Methods.objects_of ctx in
    List.iter
      (fun m ->
        let what =
          Printf.sprintf "seed %d, %s, %s" seed (Methods.to_string m)
            machine.M.name
        in
        let e = Helpers.evaluate ctx m in
        let clustered = e.Pipeline.outcome.Methods.clustered in
        let sim =
          Sim.run clustered ~machine ~objects_of ~input:Gen_minic.input ()
        in
        if
          not
            (Helpers.equal_outputs sim.Sim.outputs
               reference.Vliw_interp.Interp.outputs)
        then QCheck.Test.fail_reportf "%s: outputs differ" what;
        if sim.Sim.cycles <> e.Pipeline.report.Perf.total_cycles then
          QCheck.Test.fail_reportf "%s: sim %d <> static model %d" what
            sim.Sim.cycles e.Pipeline.report.Perf.total_cycles;
        let attrib =
          Attrib.of_clustered ~machine clustered
            ~profile:reference.Vliw_interp.Interp.profile ~objects_of ()
        in
        if sum attrib.Attrib.t_categories <> sim.Sim.cycles then
          QCheck.Test.fail_reportf "%s: categories sum %d <> cycles %d" what
            (sum attrib.Attrib.t_categories)
            sim.Sim.cycles;
        match Attrib.check_identity attrib with
        | None -> ()
        | Some msg -> QCheck.Test.fail_reportf "%s: %s" what msg)
      Methods.all
  done;
  true

let prop_random_machine =
  Helpers.qcheck ~count:8
    "sim agrees with the static model on random machines"
    check_random_machine Gen_minic.arbitrary_program

(* ------------------------------------------------------------------ *)
(* Machine_spec JSON round-trip                                        *)

let check_spec_roundtrip seed =
  let st = Random.State.make [| (seed * 53) + 5 |] in
  let spec = Helpers.gen_spec st in
  match Spec.of_json (Spec.to_json spec) with
  | Ok spec' ->
      if spec' <> spec then
        QCheck.Test.fail_reportf "round-trip changed the spec: %a -> %a"
          Spec.pp spec Spec.pp spec';
      true
  | Error m -> QCheck.Test.fail_reportf "round-trip rejected: %s" m

let prop_spec_roundtrip =
  Helpers.qcheck ~count:100 "Machine_spec JSON round-trip"
    check_spec_roundtrip QCheck.small_nat

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)

let test_presets () =
  let expect = [ ("paper", 2); ("kway4", 4); ("ring8", 8); ("mesh16", 16); ("hetero4", 4) ] in
  List.iter
    (fun name ->
      match Spec.preset name with
      | Error m -> Alcotest.failf "preset %s rejected: %s" name m
      | Ok spec ->
          let machine = Spec.resolve spec in
          Alcotest.(check int)
            (name ^ ": cluster count")
            (List.assoc name expect) (M.num_clusters machine))
    Spec.preset_names;
  (match Spec.preset "paper" with
  | Ok spec ->
      Alcotest.(check bool) "paper preset is the paper machine" true
        (Spec.resolve spec = M.paper_machine ())
  | Error m -> Alcotest.fail m);
  match Spec.preset "nope" with
  | Ok _ -> Alcotest.fail "unknown preset accepted"
  | Error m ->
      Alcotest.(check bool) "error names the preset" true
        (contains ~affix:"nope" m)

let test_spec_errors () =
  let reject what doc =
    match Spec.of_json doc with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  let cluster_json = Spec.to_json (Spec.of_legacy ~clusters:2 ~move_latency:5) in
  (match cluster_json with
  | Minijson.Obj fields ->
      reject "unknown field" (Minijson.Obj (("wat", Minijson.int 1) :: fields));
      reject "bad topology"
        (Minijson.Obj
           (List.map
              (fun (k, v) ->
                if k = "topology" then (k, Minijson.str "torus") else (k, v))
              fields));
      reject "mesh does not tile"
        (Minijson.Obj
           (List.map
              (fun (k, v) ->
                if k = "topology" then (k, Minijson.str "mesh3x3") else (k, v))
              fields))
  | _ -> Alcotest.fail "spec did not encode as an object");
  reject "not an object" (Minijson.str "paper");
  (match Spec.topology_of_name "mesh4x4" with
  | Ok (M.Mesh { rows = 4; cols = 4 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "mesh4x4 did not parse");
  match Spec.topology_of_name "mesh4" with
  | Ok _ -> Alcotest.fail "mesh4 accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Settings: the machine field                                        *)

(* apply [changes] to a JSON object: [Some v] replaces (or appends) the
   field, [None] deletes it *)
let replace_fields doc changes =
  match doc with
  | Minijson.Obj fields ->
      let replaced =
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k changes with
            | Some None -> None
            | Some (Some v') -> Some (k, v')
            | None -> Some (k, v))
          fields
      in
      let added =
        List.filter_map
          (fun (k, change) ->
            match change with
            | Some v when not (List.mem_assoc k fields) -> Some (k, v)
            | _ -> None)
          changes
      in
      Minijson.Obj (replaced @ added)
  | _ -> Alcotest.fail "settings did not encode as an object"

let test_settings_machine_field () =
  (* the paper machine ships as a v4 spec object like any other... *)
  let doc = Settings.to_json (Settings.default Partition.Methods.Gdp) in
  Alcotest.(check (option int)) "paper machine emits version 4" (Some 4)
    (Option.bind (Minijson.member "version" doc) Minijson.to_int);
  Alcotest.(check bool) "no bare clusters field" true
    (Minijson.member "clusters" doc = None);
  (match Minijson.member "machine" doc with
  | Some (Minijson.Obj _ as spec) ->
      Alcotest.(check bool) "machine field is the of_legacy spec" true
        (Spec.of_json spec = Ok (Spec.of_legacy ~clusters:2 ~move_latency:5))
  | _ -> Alcotest.fail "no machine spec object emitted");
  (* ...and a v2 document (bare clusters/move_latency ints) is rejected,
     naming its version *)
  let v2 =
    replace_fields doc
      [
        ("version", Some (Minijson.int 2));
        ("machine", None);
        ("clusters", Some (Minijson.int 4));
        ("move_latency", Some (Minijson.int 7));
      ]
  in
  (match Settings.of_json v2 with
  | Ok _ -> Alcotest.fail "v2 document accepted"
  | Error m ->
      Alcotest.(check bool) "v2 error names the version" true
        (contains ~affix:"version 2" m));
  (* the bare ints are no v4 fields either *)
  let ints =
    replace_fields doc
      [
        ("machine", None);
        ("clusters", Some (Minijson.int 4));
        ("move_latency", Some (Minijson.int 7));
      ]
  in
  (match Settings.of_json ints with
  | Ok _ -> Alcotest.fail "bare clusters/move_latency accepted"
  | Error m ->
      Alcotest.(check bool) "names the unknown field" true
        (contains ~affix:"clusters" m));
  (* a preset name works in the machine field *)
  let with_preset =
    replace_fields doc [ ("machine", Some (Minijson.str "ring8")) ]
  in
  (match Settings.of_json with_preset with
  | Ok s -> (
      match Spec.preset "ring8" with
      | Ok ring8 ->
          Alcotest.(check bool) "preset name resolves" true
            (s.Settings.machine = ring8)
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  (* missing, unknown-preset and malformed machine fields are rejected *)
  (match Settings.of_json (replace_fields doc [ ("machine", None) ]) with
  | Ok _ -> Alcotest.fail "settings without a machine accepted"
  | Error m ->
      Alcotest.(check bool) "names the missing field" true
        (contains ~affix:"machine" m));
  let unknown =
    replace_fields doc [ ("machine", Some (Minijson.str "torus9")) ]
  in
  (match Settings.of_json unknown with
  | Ok _ -> Alcotest.fail "unknown preset accepted"
  | Error _ -> ());
  let bad_type = replace_fields doc [ ("machine", Some (Minijson.int 3)) ] in
  match Settings.of_json bad_type with
  | Ok _ -> Alcotest.fail "numeric machine field accepted"
  | Error m ->
      Alcotest.(check bool) "type error mentions the contract" true
        (contains ~affix:"preset name or a spec" m)

(* a spec object survives the settings round-trip as a v4 doc *)
let test_settings_v4_roundtrip () =
  match Spec.preset "mesh16" with
  | Error m -> Alcotest.fail m
  | Ok mesh16 -> (
      let s =
        { (Settings.default Partition.Methods.Gdp) with Settings.machine = mesh16 }
      in
      let doc = Settings.to_json s in
      Alcotest.(check (option int)) "emits version 4" (Some 4)
        (Option.bind (Minijson.member "version" doc) Minijson.to_int);
      Alcotest.(check bool) "no bare clusters field" true
        (Minijson.member "clusters" doc = None);
      match Settings.of_json doc with
      | Ok s' -> Alcotest.(check bool) "round-trips" true (s' = s)
      | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)
(* Contention smoke: a real benchmark on the multi-hop presets          *)

(* [Explain.explain] raises if the attribution identity is violated for
   any method, so explaining mpeg2enc on ring8 and mesh16 doubles as
   the identity check on contended machines; on top, distance and link
   contention must actually show up — nonzero [Transfer_wait] for the
   partitioned-memory methods (CI runs exactly this as its matrix
   smoke). *)
let test_contention_smoke () =
  let bench = Benchsuite.Suite.find "mpeg2enc" in
  let wait_idx = Attrib.category_index Attrib.Transfer_wait in
  List.iter
    (fun preset ->
      match Spec.preset preset with
      | Error m -> Alcotest.fail m
      | Ok spec ->
          let machine = Spec.resolve spec in
          let e =
            Gdp_report.Explain.explain ~machine
              (Gdp_core.Pipeline.prepare_default bench)
          in
          List.iter
            (fun (r : Gdp_report.Explain.method_row) ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s: categories sum to cycles" preset
                   r.Gdp_report.Explain.mr_method)
                r.Gdp_report.Explain.mr_cycles
                (sum r.Gdp_report.Explain.mr_totals.Attrib.t_categories);
              if r.Gdp_report.Explain.mr_method <> "unified" then
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s: contention visible" preset
                     r.Gdp_report.Explain.mr_method)
                  true
                  (r.Gdp_report.Explain.mr_totals.Attrib.t_categories.(wait_idx)
                  > 0))
            e.Gdp_report.Explain.ex_rows)
    [ "ring8"; "mesh16" ]

let suite =
  [
    prop_bus_reproduces_seed;
    prop_random_machine;
    prop_spec_roundtrip;
    Alcotest.test_case "presets resolve" `Quick test_presets;
    Alcotest.test_case "ill-formed specs rejected" `Quick test_spec_errors;
    Alcotest.test_case "settings v2 rejected, machine parsed" `Quick
      test_settings_machine_field;
    Alcotest.test_case "settings v4 round-trip" `Quick
      test_settings_v4_roundtrip;
    Alcotest.test_case "ring8/mesh16 contention smoke" `Quick
      test_contention_smoke;
  ]
