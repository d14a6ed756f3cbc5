(** The gdpcd service stack: adversarial Minijson round-trips, the
    length-prefixed frame codec, the LRU artifact cache, the wire
    protocol, and a forked end-to-end daemon (duplicate submissions hit
    the cache, served results are byte-identical to inline runs,
    deadlines and shutdown behave). *)

module Frame = Service.Frame
module Cache = Service.Cache
module Protocol = Service.Protocol
module Client = Service.Client
module Loadgen = Service.Loadgen
module Settings = Gdp_core.Pipeline.Settings

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Minijson: adversarial round-trips                                   *)

let roundtrip doc =
  match Minijson.parse (Minijson.encode doc) with
  | Ok doc' -> doc'
  | Error m -> Alcotest.failf "reparse failed: %s" m

let test_minijson_control_chars () =
  let nasty =
    [
      "\x00\x01\x02\x1f";
      "line\nbreak\ttab\rcr";
      "quote\"backslash\\slash/";
      "\x7f high bit stays out of escapes";
      String.init 32 Char.chr;
    ]
  in
  List.iter
    (fun s ->
      let doc = Minijson.Str s in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %S" s)
        true
        (roundtrip doc = doc))
    nasty

let test_minijson_unicode_escapes () =
  (* \\u below 0x80 decodes to the character itself *)
  (match Minijson.parse "\"\\u0041\\u000a\\u0009\"" with
  | Ok (Minijson.Str str) -> Alcotest.(check string) "decoded" "A\n\t" str
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (* non-ASCII escapes degrade to '?' rather than corrupting the buffer *)
  (match Minijson.parse "\"\\u00e9\\uffff\"" with
  | Ok (Minijson.Str str) -> Alcotest.(check string) "degraded" "??" str
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (* malformed escapes are errors, not silent junk *)
  List.iter
    (fun bad ->
      match Minijson.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "\"\\u00\""; "\"\\uzzzz\""; "\"\\q\""; "\"unterminated" ]

let test_minijson_deep_nesting () =
  let depth = 200 in
  let rec build n = if n = 0 then Minijson.int 7 else Minijson.list [ build (n - 1) ] in
  let doc = build depth in
  Alcotest.(check bool) "deep list round-trips" true (roundtrip doc = doc);
  let rec build_obj n =
    if n = 0 then Minijson.bool true else Minijson.obj [ ("k", build_obj (n - 1)) ]
  in
  let doc = build_obj depth in
  Alcotest.(check bool) "deep object round-trips" true (roundtrip doc = doc)

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      let docs =
        [
          Minijson.obj [ ("op", Minijson.str "ping") ];
          Minijson.Str (String.init 32 Char.chr);
          Minijson.list (List.init 100 Minijson.int);
        ]
      in
      List.iter (Frame.write w) docs;
      List.iter
        (fun doc ->
          match Frame.read r with
          | Ok got -> Alcotest.(check bool) "frame equal" true (got = doc)
          | Error e -> Alcotest.failf "read failed: %s" (Frame.error_to_string e))
        docs)

let test_frame_truncation () =
  (* close mid-header *)
  with_pipe (fun r w ->
      ignore (Unix.write_substring w "\x00\x00" 0 2);
      Unix.close w;
      match Frame.read r with
      | Error Frame.Truncated -> ()
      | Error e -> Alcotest.failf "wanted Truncated, got %s" (Frame.error_to_string e)
      | Ok _ -> Alcotest.fail "read a frame from a truncated header");
  (* close mid-payload *)
  with_pipe (fun r w ->
      let partial = "\x00\x00\x00\x0a{\"x\"" in
      ignore (Unix.write_substring w partial 0 (String.length partial));
      Unix.close w;
      match Frame.read r with
      | Error Frame.Truncated -> ()
      | Error e -> Alcotest.failf "wanted Truncated, got %s" (Frame.error_to_string e)
      | Ok _ -> Alcotest.fail "read a frame from a truncated payload");
  (* clean close between frames is Eof, not an error *)
  with_pipe (fun r w ->
      Frame.write w (Minijson.int 1);
      Unix.close w;
      (match Frame.read r with
      | Ok v -> Alcotest.(check (option int)) "first" (Some 1) (Minijson.to_int v)
      | Error e -> Alcotest.failf "read failed: %s" (Frame.error_to_string e));
      match Frame.read r with
      | Error Frame.Eof -> ()
      | Error e -> Alcotest.failf "wanted Eof, got %s" (Frame.error_to_string e)
      | Ok _ -> Alcotest.fail "read a frame after close")

let test_frame_oversize () =
  (* the reader rejects from the header, before buffering a payload *)
  with_pipe (fun r w ->
      ignore (Unix.write_substring w "\x7f\xff\xff\xff" 0 4);
      match Frame.read ~max_frame:1024 r with
      | Error (Frame.Oversized { size; limit }) ->
          Alcotest.(check int) "declared size" 0x7fffffff size;
          Alcotest.(check int) "limit" 1024 limit
      | Error e -> Alcotest.failf "wanted Oversized, got %s" (Frame.error_to_string e)
      | Ok _ -> Alcotest.fail "accepted an oversized frame");
  (* the writer refuses to emit a frame the peer would reject *)
  with_pipe (fun _r w ->
      match Frame.write ~max_frame:8 w (Minijson.str (String.make 64 'x')) with
      | () -> Alcotest.fail "wrote an oversized frame"
      | exception Invalid_argument _ -> ())

let test_frame_decoder_incremental () =
  let doc1 = Minijson.obj [ ("a", Minijson.int 1) ] in
  let doc2 = Minijson.list [ Minijson.str "two" ] in
  let bytes = Buffer.create 64 in
  with_pipe (fun r w ->
      Frame.write w doc1;
      Frame.write w doc2;
      Unix.close w;
      let chunk = Bytes.create 256 in
      let rec slurp () =
        match Unix.read r chunk 0 256 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes bytes chunk 0 n;
            slurp ()
      in
      slurp ());
  let all = Buffer.to_bytes bytes in
  (* feed byte by byte: frames must pop exactly when complete *)
  let d = Frame.Decoder.create () in
  let got = ref [] in
  Bytes.iteri
    (fun i _ ->
      Frame.Decoder.feed d all i 1;
      match Frame.Decoder.next d with
      | `Frame f -> got := f :: !got
      | `Awaiting -> ()
      | `Error e -> Alcotest.failf "decoder error: %s" (Frame.error_to_string e))
    all;
  Alcotest.(check bool) "both frames" true (List.rev !got = [ doc1; doc2 ]);
  Alcotest.(check int) "nothing buffered" 0 (Frame.Decoder.buffered d);
  (* one big feed: next pops them one at a time *)
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed d all 0 (Bytes.length all);
  (match Frame.Decoder.next d with
  | `Frame f -> Alcotest.(check bool) "first" true (f = doc1)
  | _ -> Alcotest.fail "expected first frame");
  (match Frame.Decoder.next d with
  | `Frame f -> Alcotest.(check bool) "second" true (f = doc2)
  | _ -> Alcotest.fail "expected second frame");
  match Frame.Decoder.next d with
  | `Awaiting -> ()
  | _ -> Alcotest.fail "expected Awaiting after draining"

let test_frame_decoder_oversize_sticky () =
  let d = Frame.Decoder.create ~max_frame:16 () in
  let header = Bytes.of_string "\x00\x00\x10\x00" in
  Frame.Decoder.feed d header 0 4;
  (match Frame.Decoder.next d with
  | `Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized from the header alone");
  (* the error is sticky: more bytes don't resurrect the stream *)
  Frame.Decoder.feed d (Bytes.make 8 'j') 0 8;
  match Frame.Decoder.next d with
  | `Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "expected the decoder to stay failed"

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_lru () =
  let c = Cache.create ~capacity:3 () in
  Cache.add c "a" (Minijson.int 1);
  Cache.add c "b" (Minijson.int 2);
  Cache.add c "c" (Minijson.int 3);
  (* touch "a" so "b" is now least recently used *)
  Alcotest.(check bool) "a hit" true (Cache.find c "a" <> None);
  Cache.add c "d" (Minijson.int 4);
  Alcotest.(check int) "bounded" 3 (Cache.length c);
  Alcotest.(check bool) "b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "a survived" true (Cache.mem c "a");
  Alcotest.(check bool) "c survived" true (Cache.mem c "c");
  Alcotest.(check bool) "d resident" true (Cache.mem c "d");
  (* replacing refreshes, never grows *)
  Cache.add c "c" (Minijson.int 33);
  Alcotest.(check int) "still bounded" 3 (Cache.length c);
  (match Cache.find c "c" with
  | Some v -> Alcotest.(check (option int)) "replaced" (Some 33) (Minijson.to_int v)
  | None -> Alcotest.fail "c vanished");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.length c);
  Alcotest.(check int) "tallies survive clear" 2 (Cache.stats c).Cache.hits

let test_cache_misses_counted () =
  let c = Cache.create ~capacity:2 () in
  Alcotest.(check bool) "miss" true (Cache.find c "nope" = None);
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "no hits" 0 s.Cache.hits

let test_cache_digest_no_aliasing () =
  (* length-prefixed parts: ["ab";"c"] and ["a";"bc"] must differ *)
  let k1 = Cache.digest_key ~parts:[ "ab"; "c" ] in
  let k2 = Cache.digest_key ~parts:[ "a"; "bc" ] in
  Alcotest.(check bool) "no concatenation aliasing" false (k1 = k2);
  Alcotest.(check string)
    "deterministic" k1
    (Cache.digest_key ~parts:[ "ab"; "c" ])

(* ------------------------------------------------------------------ *)
(* Durable store                                                       *)

module Store = Service.Store

let temp_dir () =
  let d = Filename.temp_file "gdp-store" ".d" in
  Unix.unlink d;
  Unix.mkdir d 0o700;
  d

let kdig s = Cache.digest_key ~parts:[ s ]

let test_store_atomic_roundtrip () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let k = kdig "one" and doc = Minijson.obj [ ("v", Minijson.int 1) ] in
  Store.add st k doc;
  Alcotest.(check int) "one entry" 1 (Store.length st);
  (match Store.find st k with
  | Some got ->
      Alcotest.(check string)
        "bytes survive" (Minijson.encode doc) (Minijson.encode got)
  | None -> Alcotest.fail "entry vanished");
  (* replacing is atomic and keeps the count *)
  let doc2 = Minijson.obj [ ("v", Minijson.int 2) ] in
  Store.add st k doc2;
  Alcotest.(check int) "still one entry" 1 (Store.length st);
  (* litter from a writer that died between create and rename is
     cleaned up by the next open; the committed entry is untouched *)
  let tmp = Filename.concat dir ".tmp-deadwriter" in
  let oc = open_out tmp in
  output_string oc "half an entry";
  close_out oc;
  let st2 = Store.open_ dir in
  Alcotest.(check bool) "temp litter removed" false (Sys.file_exists tmp);
  Alcotest.(check int) "index rebuilt from disk" 1 (Store.length st2);
  (match Store.find st2 k with
  | Some got ->
      Alcotest.(check string)
        "replacement visible after reopen" (Minijson.encode doc2)
        (Minijson.encode got)
  | None -> Alcotest.fail "entry lost across reopen");
  Alcotest.(check int)
    "verified disk read counted" 1
    (Store.stats st2).Store.warm_hits;
  Store.remove st2 k;
  Alcotest.(check int) "removed from the index" 0 (Store.length st2);
  Alcotest.(check bool) "removed on disk" true (Store.find st2 k = None)

let test_store_corruption_quarantined () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let keys = List.map kdig [ "a"; "b"; "c" ] in
  List.iteri (fun i k -> Store.add st k (Minijson.int i)) keys;
  let bad = List.nth keys 1 in
  Alcotest.(check bool)
    "corruption helper found the file" true
    (Store.corrupt_for_test st bad);
  (* a bit-flipped entry is detected, quarantined, reported absent *)
  Alcotest.(check bool) "never served" true (Store.find st bad = None);
  Alcotest.(check int) "quarantined" 1 (Store.stats st).Store.quarantined;
  Alcotest.(check int) "index shrank" 2 (Store.length st);
  (* the second lookup is a plain miss, not a second quarantine *)
  Alcotest.(check bool) "still absent" true (Store.find st bad = None);
  Alcotest.(check int)
    "no double quarantine" 1 (Store.stats st).Store.quarantined;
  Alcotest.(check bool)
    "quarantine keeps the evidence" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) >= 1);
  (* a torn (truncated) entry is caught by the startup scrub *)
  let victim = Filename.concat dir (List.nth keys 2) in
  Unix.truncate victim ((Unix.stat victim).Unix.st_size - 1);
  let st2 = Store.open_ dir in
  let intact, quarantined = Store.scrub st2 in
  Alcotest.(check int) "intact after scrub" 1 intact;
  Alcotest.(check int) "torn entry scrubbed" 1 quarantined;
  Alcotest.(check bool)
    "good entry survives the scrub" true
    (Store.find st2 (List.hd keys) <> None)

let test_cache_warm_hits () =
  let dir = temp_dir () in
  let st = Store.open_ dir in
  let c = Cache.create ~capacity:2 ~store:st () in
  let k i = kdig (string_of_int i) in
  Cache.add c (k 1) (Minijson.int 1);
  Cache.add c (k 2) (Minijson.int 2);
  Cache.add c (k 3) (Minijson.int 3);
  (* k1 was evicted from memory but every add wrote through to disk *)
  Alcotest.(check int) "memory bounded" 2 (Cache.length c);
  Alcotest.(check int) "write-through" 3 (Store.length st);
  (match Cache.find c (k 1) with
  | Some v ->
      Alcotest.(check (option int))
        "eviction survivor served from disk" (Some 1) (Minijson.to_int v)
  | None -> Alcotest.fail "evicted entry lost despite the store");
  Alcotest.(check int) "warm hit counted" 1 (Cache.stats c).Cache.warm_hits;
  (* clear empties memory only; the store still answers *)
  Cache.clear c;
  Alcotest.(check int) "memory empty" 0 (Cache.length c);
  Alcotest.(check bool)
    "store survives clear" true
    (Cache.find c (k 2) <> None);
  Alcotest.(check int) "second warm hit" 2 (Cache.stats c).Cache.warm_hits

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let sample_source =
  {|
void main() {
  int n = 8;
  int *a = malloc(8);
  for (int i = 0; i < n; i = i + 1) { a[i] = in(i) * 2; }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
  out(s);
}
|}

let sample_job ?(id = "t1") ?(deadline_ms = None) ?(verify = false)
    ?(trace_id = None) () =
  {
    Protocol.id;
    source = sample_source;
    input = [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    settings = Settings.default Partition.Methods.Gdp;
    deadline_ms;
    verify;
    trace_id;
  }

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Submit (sample_job ~deadline_ms:(Some 5000) ~verify:true ());
      Protocol.Submit (sample_job ~trace_id:(Some "t-client-1") ());
      Protocol.Cancel { id = "t1" };
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Health;
      Protocol.Trace { trace_id = "t-abc" };
      Protocol.Metrics Protocol.Json;
      Protocol.Metrics Protocol.Prometheus;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "request round-trip" true (req = req')
      | Error m -> Alcotest.failf "rejected own encoding: %s" m)
    reqs;
  let resps =
    [
      Protocol.Result
        { id = "t1"; cached = true; result = Minijson.int 5; trace = None };
      Protocol.Result
        {
          id = "t3";
          cached = false;
          result = Minijson.int 6;
          trace = Some (Minijson.obj [ ("trace_id", Minijson.str "t-abc") ]);
        };
      Protocol.Failed
        { id = "t1"; reason = "nope"; retry_after_ms = None; trace = None };
      Protocol.Failed
        {
          id = "t2";
          reason = "server overloaded";
          retry_after_ms = Some 120;
          trace = None;
        };
      Protocol.Cancelled { id = "t1" };
      Protocol.Pong;
      Protocol.Stats_reply (Minijson.obj [ ("served", Minijson.int 3) ]);
      Protocol.Health_reply (Minijson.obj [ ("status", Minijson.str "ok") ]);
      Protocol.Trace_reply (Minijson.obj [ ("trace_id", Minijson.str "t-1") ]);
      Protocol.Metrics_reply (Minijson.obj [ ("window_s", Minijson.float 60.) ]);
      Protocol.Metrics_text_reply "# TYPE gdpcd_served_total counter\n";
      Protocol.Shutting_down;
      Protocol.Error_reply "bad frame";
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok resp' -> Alcotest.(check bool) "response round-trip" true (resp = resp')
      | Error m -> Alcotest.failf "rejected own encoding: %s" m)
    resps

let test_protocol_rejections () =
  (match Protocol.request_of_json (Minijson.obj [ ("op", Minijson.str "ping") ]) with
  | Ok _ -> Alcotest.fail "accepted a schema-less request"
  | Error m ->
      Alcotest.(check bool) "names schema" true (contains m "schema"));
  (match
     Protocol.request_of_json
       (Minijson.obj
          [
            ("schema", Minijson.str Protocol.schema);
            ("op", Minijson.str "frobnicate");
          ])
   with
  | Ok _ -> Alcotest.fail "accepted an unknown op"
  | Error m -> Alcotest.(check bool) "names op" true (contains m "frobnicate"));
  (* an unknown settings field inside a submit is rejected by name *)
  let doc = Protocol.request_to_json (Protocol.Submit (sample_job ())) in
  let doc =
    match doc with
    | Minijson.Obj fields ->
        Minijson.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "settings", Minijson.Obj fs ->
                   (k, Minijson.Obj (fs @ [ ("colour", Minijson.int 1) ]))
               | _ -> (k, v))
             fields)
    | d -> d
  in
  match Protocol.request_of_json doc with
  | Ok _ -> Alcotest.fail "accepted a typo'd settings field"
  | Error m -> Alcotest.(check bool) "names the field" true (contains m "colour")

(* The key a build before the one-driver partitioner derived for a ring8
   GDP [sample_job].  Its artifact has changed since, so the key must
   differ: a durable store written by that build has to miss, not serve
   the stale artifact. *)
let ring8_gdp_key_before_one_driver = "09192198d17b3f04b7ff92c84813d8d5"

(* The settings bytes of that job under settings version 3. *)
let ring8_gdp_settings_v3 =
  String.concat ""
    [
      {|{"schema":"gdp-settings/1","version":3,|};
      {|"machine":{"schema":"gdp-machine/1","name":"ring8-2i1f1m1b-lat5",|};
      {|"topology":"ring","link_latency":5,|};
      {|"link_bandwidth":1,"clusters":[|};
      String.concat ","
        (List.init 8 (fun _ ->
             {|{"ints":2,"floats":1,"mems":1,"branches":1,|}
             ^ {|"memory_bytes":32768}|}));
      {|]},"method":"gdp","unroll":true,"promote":true,"simplify":true,|};
      {|"if_convert":true,"merge_low_slack":null,"rhop":null,"gdp":null,|};
      {|"par_domains":1}|};
    ]

let test_protocol_cache_key () =
  let j = sample_job () in
  (match Machine_spec.preset "ring8" with
  | Error m -> Alcotest.fail m
  | Ok ring8 ->
      let ring8_job =
        {
          j with
          Protocol.settings = { j.Protocol.settings with Settings.machine = ring8 };
        }
      in
      Alcotest.(check bool)
        "stale ring8 key misses" false
        (Protocol.cache_key ring8_job = ring8_gdp_key_before_one_driver);
      (* under the old salt the old settings bytes digest to the old key:
         the salt alone tells the two builds' entries apart *)
      Alcotest.(check string)
        "old salt reproduces the old key" ring8_gdp_key_before_one_driver
        (Cache.digest_key
           ~parts:
             [
               "gdp-artifact/1";
               j.Protocol.source;
               String.concat "," (List.map string_of_int j.Protocol.input);
               ring8_gdp_settings_v3;
               Fmt.str "%a" Vliw_machine.pp
                 (Settings.machine ring8_job.Protocol.settings);
             ]);
      (* the old bytes are a version-3 document, refused by name both as
         settings and inside a submit *)
      let v3 = Result.get_ok (Minijson.parse ring8_gdp_settings_v3) in
      let names_v3 what = function
        | Ok _ -> Alcotest.failf "%s accepted a version-3 document" what
        | Error m ->
            Alcotest.(check bool) (what ^ " names version 3") true
              (contains m "version 3")
      in
      names_v3 "Settings.of_json" (Settings.of_json v3);
      names_v3 "Protocol.request_of_json"
        (Protocol.request_of_json
           (match Protocol.request_to_json (Protocol.Submit ring8_job) with
           | Minijson.Obj fields ->
               Minijson.Obj
                 (List.map
                    (fun (k, x) -> if k = "settings" then (k, v3) else (k, x))
                    fields)
           | d -> d)));
  (* id, deadline and domain count do not participate in the content
     address *)
  Alcotest.(check string)
    "id irrelevant" (Protocol.cache_key j)
    (Protocol.cache_key { j with Protocol.id = "other" });
  Alcotest.(check string)
    "deadline irrelevant" (Protocol.cache_key j)
    (Protocol.cache_key { j with Protocol.deadline_ms = Some 9 });
  (* artifacts never depend on the domain count *)
  List.iter
    (fun par_domains ->
      Alcotest.(check string)
        "par_domains irrelevant" (Protocol.cache_key j)
        (Protocol.cache_key
           {
             j with
             Protocol.settings = { j.Protocol.settings with Settings.par_domains };
           }))
    [ 2; 4 ];
  (* source, input and settings all do *)
  Alcotest.(check bool)
    "source matters" false
    (Protocol.cache_key j
    = Protocol.cache_key { j with Protocol.source = j.Protocol.source ^ " " });
  Alcotest.(check bool)
    "input matters" false
    (Protocol.cache_key j
    = Protocol.cache_key { j with Protocol.input = [ 9 ] });
  Alcotest.(check bool)
    "settings matter" false
    (Protocol.cache_key j
    = Protocol.cache_key
        {
          j with
          Protocol.settings =
            {
              j.Protocol.settings with
              Settings.machine =
                Machine_spec.of_legacy ~clusters:2 ~move_latency:10;
            };
        })

let test_protocol_evaluate_deterministic () =
  match (Protocol.evaluate_job (sample_job ()), Protocol.evaluate_job (sample_job ())) with
  | Ok a, Ok b ->
      Alcotest.(check string)
        "same bytes" (Minijson.encode a) (Minijson.encode b);
      Alcotest.(check (option string))
        "gdp artifact" (Some "gdp-artifact/1")
        (Option.bind (Minijson.member "schema" a) Minijson.to_string)
  | Error m, _ | _, Error m -> Alcotest.failf "evaluate_job failed: %s" m

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)

let test_server_end_to_end () =
  Loadgen.with_local_server ~jobs:2 (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (* ping *)
          (match Client.rpc cl Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | Ok _ -> Alcotest.fail "expected Pong"
          | Error m -> Alcotest.failf "ping failed: %s" m);
          (* first submission computes, the identical resubmit hits *)
          let first =
            match Client.submit cl (sample_job ~id:"e2e-1" ()) with
            | Ok (Protocol.Result { cached; result; _ }) ->
                Alcotest.(check bool) "first is a miss" false cached;
                result
            | Ok (Protocol.Failed { reason; _ }) ->
                Alcotest.failf "job failed: %s" reason
            | Ok _ -> Alcotest.fail "unexpected response"
            | Error m -> Alcotest.failf "submit failed: %s" m
          in
          let second =
            match Client.submit cl (sample_job ~id:"e2e-2" ()) with
            | Ok (Protocol.Result { cached; result; _ }) ->
                Alcotest.(check bool) "resubmit is a hit" true cached;
                result
            | Ok _ -> Alcotest.fail "unexpected response"
            | Error m -> Alcotest.failf "resubmit failed: %s" m
          in
          Alcotest.(check string)
            "hit returns identical bytes" (Minijson.encode first)
            (Minijson.encode second);
          (* ... and both match the inline evaluation byte for byte *)
          (match Protocol.evaluate_job (sample_job ()) with
          | Ok inline_result ->
              Alcotest.(check string)
                "served = inline" (Minijson.encode inline_result)
                (Minijson.encode first)
          | Error m -> Alcotest.failf "inline evaluation failed: %s" m);
          (* an already-expired deadline fails deterministically *)
          (match
             Client.submit cl (sample_job ~id:"e2e-3" ~deadline_ms:(Some 0) ())
           with
          | Ok (Protocol.Failed { reason; _ }) ->
              Alcotest.(check bool)
                "deadline reason" true
                (contains reason "deadline")
          | Ok _ -> Alcotest.fail "expected a deadline failure"
          | Error m -> Alcotest.failf "deadline submit failed: %s" m);
          (* a broken program fails cleanly, not fatally *)
          (match
             Client.submit cl
               { (sample_job ~id:"e2e-4" ()) with Protocol.source = "int x = ;" }
           with
          | Ok (Protocol.Failed _) -> ()
          | Ok _ -> Alcotest.fail "expected a compile failure"
          | Error m -> Alcotest.failf "bad-source submit failed: %s" m);
          (* cancelling an unknown job is a per-job failure *)
          (match Client.rpc cl (Protocol.Cancel { id = "ghost" }) with
          | Ok (Protocol.Failed { reason; _ }) ->
              Alcotest.(check bool) "unknown id" true (contains reason "unknown")
          | Ok _ -> Alcotest.fail "expected Failed for an unknown cancel"
          | Error m -> Alcotest.failf "cancel failed: %s" m);
          (* stats reflect the traffic above *)
          match Client.rpc cl Protocol.Stats with
          | Ok (Protocol.Stats_reply stats) ->
              let geti k = Option.bind (Minijson.member k stats) Minijson.to_int in
              Alcotest.(check bool)
                "served at least 2"
                true
                (match geti "served" with Some n -> n >= 2 | None -> false);
              let cache_hits =
                Option.bind (Minijson.member "cache" stats) (fun c ->
                    Option.bind (Minijson.member "hits" c) Minijson.to_int)
              in
              Alcotest.(check bool)
                "at least one cache hit" true
                (match cache_hits with Some n -> n >= 1 | None -> false)
          | Ok _ -> Alcotest.fail "expected Stats_reply"
          | Error m -> Alcotest.failf "stats failed: %s" m))

let test_server_rejects_garbage () =
  Loadgen.with_local_server ~jobs:1 (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (* valid frame, wrong schema: per-request error, connection lives *)
          Frame.write (Client.fd cl)
            (Minijson.obj [ ("schema", Minijson.str "nope/1") ]);
          (match Client.recv cl with
          | Ok (Protocol.Error_reply m) ->
              Alcotest.(check bool) "names schema" true (contains m "schema")
          | Ok _ -> Alcotest.fail "expected Error_reply"
          | Error m -> Alcotest.failf "recv failed: %s" m);
          (* the connection survived: ping still answers *)
          match Client.rpc cl Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | Ok _ -> Alcotest.fail "expected Pong after protocol error"
          | Error m -> Alcotest.failf "ping after error failed: %s" m))

let test_loadgen_closed_loop () =
  Loadgen.with_local_server ~jobs:2 (fun endpoint ->
      let summary =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.endpoint;
            connections = 2;
            requests = 8;
            duplicate_ratio = 1.0;
            seed = 7;
          }
      in
      Alcotest.(check int) "all issued" 8 summary.Loadgen.requests;
      Alcotest.(check int) "all succeeded" 8 summary.Loadgen.succeeded;
      Alcotest.(check int) "none failed" 0 summary.Loadgen.failed;
      (* ratio 1.0 draws all 8 from a 4-program set: at least half must
         land in the cache (or coalesce onto an in-flight twin) *)
      Alcotest.(check bool)
        "cache hits happen" true
        (summary.Loadgen.cache_hits >= 4);
      Alcotest.(check bool)
        "throughput positive" true
        (summary.Loadgen.throughput_cps > 0.))

(* ------------------------------------------------------------------ *)
(* Durability, overload and chaos, end to end                          *)

let unique_source tag =
  Printf.sprintf
    {|
void main() {
  int n = 8;
  int *a = malloc(8);
  for (int i = 0; i < n; i = i + 1) { a[i] = in(i) * %d; }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
  out(s);
}
|}
    tag

(* big enough that a compile cannot finish inside a 1 ms deadline *)
let heavy_source =
  {|
void main() {
  int n = 48;
  int *a = malloc(48);
  int *b = malloc(48);
  for (int i = 0; i < n; i = i + 1) { a[i] = in(i) * 3; }
  for (int i = 0; i < n; i = i + 1) { b[i] = a[i] + in(i); }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + b[i]; }
  out(s);
}
|}

let heavy_input = List.init 48 (fun i -> i + 1)

let raw_submit cl job =
  Frame.write (Client.fd cl) (Protocol.request_to_json (Protocol.Submit job))

(* Submit [jobs] in one write, so the server reads them together and
   admits them back to back, before any of them can finish. *)
let raw_submit_all cl jobs =
  let s =
    String.concat ""
      (List.map
         (fun j -> Frame.to_string (Protocol.request_to_json (Protocol.Submit j)))
         jobs)
  in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring (Client.fd cl) s off (String.length s - off))
  in
  go 0

(* a compile that runs for a good fraction of a second: the interpreter
   profiles two million loop iterations *)
let slow_source =
  {|
void main() {
  int s = 0;
  for (int i = 0; i < 2000000; i = i + 1) { s = s + (i ^ (s >> 3)); }
  out(s);
}
|}

let submit_expect_result ?(cached = fun _ -> true) cl job =
  match Client.submit cl job with
  | Ok (Protocol.Result { cached = c; result; _ }) ->
      if not (cached c) then
        Alcotest.failf "job %s: unexpected cached=%b" job.Protocol.id c;
      Minijson.encode result
  | Ok (Protocol.Failed { reason; _ }) ->
      Alcotest.failf "job %s failed: %s" job.Protocol.id reason
  | Ok _ -> Alcotest.failf "job %s: unexpected response" job.Protocol.id
  | Error m -> Alcotest.failf "job %s: submit failed: %s" job.Protocol.id m

let stats_int cl path =
  match Client.rpc cl Protocol.Stats with
  | Ok (Protocol.Stats_reply stats) ->
      List.fold_left
        (fun acc k -> Option.bind acc (Minijson.member k))
        (Some stats) path
      |> Fun.flip Option.bind Minijson.to_int
  | Ok _ -> Alcotest.fail "expected Stats_reply"
  | Error m -> Alcotest.failf "stats failed: %s" m

let method_field doc =
  match Option.bind (Minijson.member "method" doc) Minijson.to_string with
  | Some m -> m
  | None -> Alcotest.fail "artifact has no method field"

let inline_method m =
  let j = { (sample_job ()) with Protocol.settings = Settings.default m } in
  match Protocol.evaluate_job j with
  | Ok a -> method_field a
  | Error msg ->
      Alcotest.failf "inline %s run failed: %s"
        (Partition.Methods.to_string m)
        msg

(* The headline durability guarantee: kill -9 the daemon, restart it on
   the same store directory, and the artifact is served from disk —
   byte-identical, without recompiling. *)
let test_server_store_survives_kill () =
  let dir = temp_dir () in
  let job = sample_job ~id:"dur-1" () in
  let inline_bytes =
    match Protocol.evaluate_job job with
    | Ok a -> Minijson.encode a
    | Error m -> Alcotest.failf "inline evaluation failed: %s" m
  in
  let h = Loadgen.spawn_server ~jobs:1 ~store_dir:dir () in
  let first =
    Fun.protect
      ~finally:(fun () -> Loadgen.stop_server ~signal:Sys.sigkill h)
      (fun () ->
        let cl = Client.connect ~attempts:20 h.Loadgen.sh_socket in
        Fun.protect
          ~finally:(fun () -> Client.close cl)
          (fun () -> submit_expect_result ~cached:not cl job))
  in
  Alcotest.(check string) "served = inline" inline_bytes first;
  let h2 = Loadgen.spawn_server ~jobs:1 ~store_dir:dir () in
  Fun.protect
    ~finally:(fun () -> Loadgen.stop_server h2)
    (fun () ->
      let cl = Client.connect ~attempts:20 h2.Loadgen.sh_socket in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let again =
            submit_expect_result cl { job with Protocol.id = "dur-2" }
          in
          Alcotest.(check string) "identical bytes across kill -9" first again;
          Alcotest.(check bool)
            "warm hit counted" true
            (match stats_int cl [ "store"; "warm_hits" ] with
            | Some n -> n >= 1
            | None -> false)))

(* A corrupted store entry must be quarantined by the startup scrub and
   recompiled — never served. *)
let test_server_corrupt_entry_recompiled () =
  let dir = temp_dir () in
  let job = sample_job ~id:"cor-1" () in
  let h = Loadgen.spawn_server ~jobs:1 ~store_dir:dir () in
  let first =
    Fun.protect
      ~finally:(fun () -> Loadgen.stop_server h)
      (fun () ->
        let cl = Client.connect ~attempts:20 h.Loadgen.sh_socket in
        Fun.protect
          ~finally:(fun () -> Client.close cl)
          (fun () -> submit_expect_result ~cached:not cl job))
  in
  (* flip one byte of the artifact the daemon just persisted *)
  let st = Store.open_ dir in
  Alcotest.(check bool)
    "stored entry found and corrupted" true
    (Store.corrupt_for_test st (Protocol.cache_key job));
  let h2 = Loadgen.spawn_server ~jobs:1 ~store_dir:dir () in
  Fun.protect
    ~finally:(fun () -> Loadgen.stop_server h2)
    (fun () ->
      let cl = Client.connect ~attempts:20 h2.Loadgen.sh_socket in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          (* the scrub already quarantined it: this is a recompile *)
          let again =
            submit_expect_result ~cached:not cl
              { job with Protocol.id = "cor-2" }
          in
          Alcotest.(check string) "recompiled to identical bytes" first again;
          Alcotest.(check (option int))
            "startup scrub quarantined the entry" (Some 1)
            (stats_int cl [ "store"; "scrub_quarantined" ]);
          Alcotest.(check bool)
            "evidence kept" true
            (Array.length (Sys.readdir (Filename.concat dir "quarantine"))
            >= 1)))

(* Deadline edges: expiry while the job is running fails the waiter and
   drops the late result; deadline_ms = 0 fails at admission.  The
   running job outlives its 1 ms deadline by hundreds of times. *)
let test_server_deadline_edges () =
  Loadgen.with_local_server ~jobs:1 (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let job =
            {
              (sample_job ~id:"dl-run" ~deadline_ms:(Some 1) ()) with
              Protocol.source = slow_source;
              Protocol.input = [];
            }
          in
          (match Client.submit cl job with
          | Ok (Protocol.Failed { id; reason; _ }) ->
              Alcotest.(check string) "job id" "dl-run" id;
              Alcotest.(check bool)
                "deadline reason" true
                (contains reason "deadline")
          | Ok _ -> Alcotest.fail "expected a deadline failure"
          | Error m -> Alcotest.failf "submit failed: %s" m);
          (* the compile outlives the deadline; its result must be
             dropped, not delivered late *)
          (match Client.rpc cl Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | Ok _ -> Alcotest.fail "expected Pong"
          | Error m -> Alcotest.failf "ping failed: %s" m);
          (match Unix.select [ Client.fd cl ] [] [] 0.5 with
          | [], _, _ -> ()
          | _ -> Alcotest.fail "server pushed a frame after the failure");
          (* admission-time expiry: rejected before any compile *)
          match
            Client.submit cl (sample_job ~id:"dl-0" ~deadline_ms:(Some 0) ())
          with
          | Ok (Protocol.Failed { reason; retry_after_ms; _ }) ->
              Alcotest.(check bool)
                "names the deadline" true
                (contains reason "deadline");
              Alcotest.(check bool)
                "no backpressure hint on a deadline" true
                (retry_after_ms = None)
          | Ok _ -> Alcotest.fail "expected an admission-time failure"
          | Error m -> Alcotest.failf "submit failed: %s" m))

(* Brown-out: with the threshold at 0 every admission is at least level
   1 (verification shed); a burst that fills 2/3 of max_pending pushes
   the last admission to level 3, which steps GDP down the ladder. *)
let test_server_brownout_degrades () =
  Loadgen.with_local_server ~jobs:1 ~max_pending:3 ~brownout:0.0
    (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let mk tag id verify =
            {
              (sample_job ~id ~verify ()) with
              Protocol.source = unique_source tag;
            }
          in
          raw_submit cl (mk 11 "bo-a" true);
          raw_submit cl (mk 12 "bo-b" false);
          raw_submit cl (mk 13 "bo-c" false);
          let rec read_results acc n =
            if n = 0 then acc
            else
              match Client.recv cl with
              | Ok (Protocol.Result { id; result; _ }) ->
                  read_results ((id, result) :: acc) (n - 1)
              | Ok (Protocol.Failed { id; reason; _ }) ->
                  Alcotest.failf "job %s failed: %s" id reason
              | Ok _ -> Alcotest.fail "unexpected response"
              | Error m -> Alcotest.failf "recv failed: %s" m
          in
          let results = read_results [] 3 in
          let last =
            match List.assoc_opt "bo-c" results with
            | Some a -> method_field a
            | None -> Alcotest.fail "no response for bo-c"
          in
          let gdp = inline_method Partition.Methods.Gdp in
          let profile_max = inline_method Partition.Methods.Profile_max in
          let naive = inline_method Partition.Methods.Naive in
          Alcotest.(check bool)
            (Printf.sprintf "stepped down the ladder (got %s)" last)
            true
            (last <> gdp && (last = naive || last = profile_max));
          Alcotest.(check bool)
            "verification was shed" true
            (match stats_int cl [ "admission"; "shed_verify" ] with
            | Some n -> n >= 1
            | None -> false);
          Alcotest.(check bool)
            "degradations counted" true
            (match stats_int cl [ "admission"; "degraded" ] with
            | Some n -> n >= 1
            | None -> false)))

(* Hard admission: beyond max_pending the server rejects with a bounded
   retry_after_ms hint, and the client-side retry loop turns that into
   an eventual success. *)
let test_server_overload_reject_and_retry () =
  Loadgen.with_local_server ~jobs:1 ~max_pending:1 (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      let cl2 = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () ->
          Client.close cl;
          Client.close cl2)
        (fun () ->
          let a =
            { (sample_job ~id:"ov-a" ()) with Protocol.source = unique_source 21 }
          in
          let b =
            { (sample_job ~id:"ov-b" ()) with Protocol.source = unique_source 22 }
          in
          raw_submit_all cl [ a; b ];
          (* b hits the cap while a holds the only pending slot: the
             rejection is synchronous, so it arrives before a's result *)
          (match Client.recv cl with
          | Ok (Protocol.Failed { id; reason; retry_after_ms; _ }) ->
              Alcotest.(check string) "rejected job" "ov-b" id;
              Alcotest.(check bool)
                "names overload" true
                (contains reason "overloaded");
              (match retry_after_ms with
              | Some ms ->
                  Alcotest.(check bool)
                    "hint bounded to [50, 2000]" true
                    (ms >= 50 && ms <= 2000)
              | None -> Alcotest.fail "expected a retry_after_ms hint")
          | Ok _ -> Alcotest.fail "expected the overload rejection first"
          | Error m -> Alcotest.failf "recv failed: %s" m);
          (match Client.recv cl with
          | Ok (Protocol.Result { id; _ }) ->
              Alcotest.(check string) "first job still served" "ov-a" id
          | Ok _ -> Alcotest.fail "expected ov-a's result"
          | Error m -> Alcotest.failf "recv failed: %s" m);
          (* refill the slot, then let the retrying client sleep through
             the hint and win the slot when it frees up *)
          let c =
            { (sample_job ~id:"ov-c" ()) with Protocol.source = unique_source 23 }
          in
          raw_submit cl c;
          (match Client.rpc cl2 Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | _ -> Alcotest.fail "ping failed");
          (* cl's frame was written first; ping-pong on cl2 only proves
             cl2 is live — order c before d by sleeping a beat *)
          ignore (Unix.select [] [] [] 0.05);
          let d =
            { (sample_job ~id:"ov-d" ()) with Protocol.source = unique_source 24 }
          in
          (match Client.submit ~retries:10 cl2 d with
          | Ok (Protocol.Result { id; _ }) ->
              Alcotest.(check string) "retry eventually lands" "ov-d" id
          | Ok (Protocol.Failed { reason; _ }) ->
              Alcotest.failf "retries exhausted: %s" reason
          | Ok _ -> Alcotest.fail "unexpected response"
          | Error m -> Alcotest.failf "retrying submit failed: %s" m);
          (match Client.recv cl with
          | Ok (Protocol.Result { id; _ }) ->
              Alcotest.(check string) "c served too" "ov-c" id
          | Ok (Protocol.Failed { reason; _ }) ->
              Alcotest.failf "ov-c failed: %s" reason
          | Ok _ -> Alcotest.fail "unexpected response"
          | Error m -> Alcotest.failf "recv failed: %s" m);
          Alcotest.(check bool)
            "rejections counted" true
            (match stats_int cl2 [ "rejected" ] with
            | Some n -> n >= 1
            | None -> false)))

(* Server-side chaos: a worker SIGKILLed mid-compile is detected,
   respawned, and the job retried — every artifact still byte-identical
   to the inline pipeline. *)
let test_server_worker_kill_chaos () =
  Loadgen.with_local_server ~jobs:2 ~inject:("service.worker.kill@3", 7)
    (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          List.iter
            (fun tag ->
              let j =
                {
                  (sample_job ~id:(Printf.sprintf "kill-%d" tag) ()) with
                  Protocol.source = unique_source tag;
                }
              in
              let inline_bytes =
                match Protocol.evaluate_job j with
                | Ok a -> Minijson.encode a
                | Error m -> Alcotest.failf "inline run failed: %s" m
              in
              let served = submit_expect_result ~cached:not cl j in
              Alcotest.(check string)
                "byte-identical despite worker kills" inline_bytes served)
            [ 31; 32; 33; 34; 35; 36 ];
          Alcotest.(check bool)
            "a worker was killed" true
            (match stats_int cl [ "pool"; "crashes" ] with
            | Some n -> n >= 1
            | None -> false);
          Alcotest.(check bool)
            "and respawned" true
            (match stats_int cl [ "pool"; "respawns" ] with
            | Some n -> n >= 1
            | None -> false)))

(* Client-side chaos: torn frames, bit flips, slow-loris, mid-job
   disconnects — the daemon survives and never serves diverging
   artifact bytes. *)
let test_loadgen_chaos_consistency () =
  Loadgen.with_local_server ~jobs:2 (fun endpoint ->
      let summary =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.endpoint;
            connections = 3;
            requests = 18;
            duplicate_ratio = 0.5;
            seed = 11;
            chaos =
              Some
                "service.frame.torn@5*,service.frame.corrupt@7*,service.client.slow-loris@9*,service.client.disconnect@6*";
            inject_seed = 23;
            max_attempts = 6;
          }
      in
      Alcotest.(check int) "all issued" 18 summary.Loadgen.requests;
      Alcotest.(check bool)
        "chaos actually injected" true
        (summary.Loadgen.injected >= 3);
      Alcotest.(check int)
        "zero artifact divergence under chaos" 0
        summary.Loadgen.artifact_mismatches;
      Alcotest.(check int)
        "every request accounted for" 18
        (summary.Loadgen.succeeded + summary.Loadgen.failed);
      Alcotest.(check bool)
        "chaos does not sink the stream" true
        (summary.Loadgen.succeeded >= 16))

(* ------------------------------------------------------------------ *)
(* Tracing and the metrics plane                                       *)

(* The server speaks gdp-service/2 only: any other envelope — the
   retired v1 (no [trace_id], no admin verbs) or a future one — is
   refused, naming the version this build speaks.  An unset [trace_id]
   stays off the wire, a set one round-trips. *)
let test_protocol_version_negotiation () =
  let j = sample_job () in
  let with_schema schema =
    match Protocol.request_to_json (Protocol.Submit j) with
    | Minijson.Obj fields ->
        Minijson.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema" then (k, Minijson.str schema) else (k, v))
             fields)
    | d -> d
  in
  List.iter
    (fun schema ->
      match Protocol.request_of_json (with_schema schema) with
      | Ok _ -> Alcotest.failf "accepted a %s submit" schema
      | Error m ->
          Alcotest.(check bool)
            (schema ^ " refused, naming the current version")
            true
            (contains m "gdp-service/2"))
    [ "gdp-service/1"; "gdp-service/3" ];
  (match Protocol.request_of_json (with_schema Protocol.schema) with
  | Ok (Protocol.Submit j') -> Alcotest.(check bool) "v2 submit" true (j' = j)
  | Ok _ -> Alcotest.fail "v2 submit decoded to the wrong request"
  | Error m -> Alcotest.failf "v2 submit rejected: %s" m);
  (match Protocol.request_to_json (Protocol.Submit j) with
  | Minijson.Obj fields ->
      Alcotest.(check bool)
        "trace_id absent when unset" true
        (not (List.mem_assoc "trace_id" fields))
  | _ -> Alcotest.fail "submit did not encode to an object");
  let j2 = sample_job ~trace_id:(Some "t-negotiate") () in
  match
    Protocol.request_of_json (Protocol.request_to_json (Protocol.Submit j2))
  with
  | Ok (Protocol.Submit j') ->
      Alcotest.(check (option string))
        "trace id round-trips" (Some "t-negotiate") j'.Protocol.trace_id
  | Ok _ -> Alcotest.fail "v2 submit decoded to the wrong request"
  | Error m -> Alcotest.failf "v2 submit rejected: %s" m

let gets k doc = Option.bind (Minijson.member k doc) Minijson.to_string
let getf k doc = Option.bind (Minijson.member k doc) Minijson.to_float

let test_server_trace_and_admin () =
  Loadgen.with_local_server ~jobs:1 (fun endpoint ->
      let cl = Client.connect ~attempts:20 endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close cl)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let trace =
            match Client.submit cl (sample_job ~id:"tr-1" ()) with
            | Ok (Protocol.Result { trace = Some t; _ }) -> t
            | Ok (Protocol.Result { trace = None; _ }) ->
                Alcotest.fail "response carried no trace"
            | Ok (Protocol.Failed { reason; _ }) ->
                Alcotest.failf "job failed: %s" reason
            | Ok _ -> Alcotest.fail "unexpected response"
            | Error m -> Alcotest.failf "submit failed: %s" m
          in
          let client_us = (Unix.gettimeofday () -. t0) *. 1e6 in
          let trace_id =
            match gets "trace_id" trace with
            | Some id -> id
            | None -> Alcotest.fail "trace doc has no trace_id"
          in
          Alcotest.(check (option string))
            "trace schema" (Some "gdp-trace/1") (gets "schema" trace);
          Alcotest.(check (option string))
            "computed off-cache" (Some "compute") (gets "cache_tier" trace);
          (* the accounted segments sit inside the server total, and the
             server total inside the client-observed wire latency (1 ms
             slack covers clock granularity either side) *)
          let seg k = Option.value ~default:Float.nan (getf k trace) in
          let total = seg "total_us" in
          Alcotest.(check bool)
            "segments within total" true
            (seg "queue_us" +. seg "exec_us" <= total +. 1000.);
          Alcotest.(check bool)
            "total within client latency" true (total <= client_us +. 1000.);
          (* TRACE <id> resolves to the registered document *)
          (match Client.rpc cl (Protocol.Trace { trace_id }) with
          | Ok (Protocol.Trace_reply doc) ->
              Alcotest.(check string)
                "TRACE returns the registered doc" (Minijson.encode trace)
                (Minijson.encode doc)
          | Ok _ -> Alcotest.fail "expected Trace_reply"
          | Error m -> Alcotest.failf "trace rpc failed: %s" m);
          (* an unknown id is a clean per-request error *)
          (match Client.rpc cl (Protocol.Trace { trace_id = "t-nope" }) with
          | Ok (Protocol.Error_reply m) ->
              Alcotest.(check bool) "names the id" true (contains m "t-nope")
          | Ok _ -> Alcotest.fail "expected Error_reply for unknown trace"
          | Error m -> Alcotest.failf "unknown-trace rpc failed: %s" m);
          (* a client-supplied trace id is honoured end to end *)
          (match
             Client.submit cl
               (sample_job ~id:"tr-2" ~trace_id:(Some "t-mine") ())
           with
          | Ok (Protocol.Result { trace = Some t; _ }) ->
              Alcotest.(check (option string))
                "client trace id kept" (Some "t-mine") (gets "trace_id" t);
              Alcotest.(check (option string))
                "resubmit hit the cache" (Some "memory") (gets "cache_tier" t)
          | Ok _ -> Alcotest.fail "expected a traced Result"
          | Error m -> Alcotest.failf "traced submit failed: %s" m);
          (* HEALTH *)
          (match Client.rpc cl Protocol.Health with
          | Ok (Protocol.Health_reply h) ->
              Alcotest.(check (option string))
                "health schema" (Some "gdp-health/1") (gets "schema" h);
              Alcotest.(check (option string))
                "healthy" (Some "ok") (gets "status" h)
          | Ok _ -> Alcotest.fail "expected Health_reply"
          | Error m -> Alcotest.failf "health failed: %s" m);
          (* METRICS json: the submits above are visible in the window *)
          (match Client.rpc cl (Protocol.Metrics Protocol.Json) with
          | Ok (Protocol.Metrics_reply m) ->
              Alcotest.(check (option string))
                "metrics schema" (Some "gdp-metrics/1") (gets "schema" m);
              let count_of method_ =
                Option.bind (Minijson.member "latency_us" m) (fun l ->
                    Option.bind (Minijson.member method_ l) (fun h ->
                        Option.bind (Minijson.member "count" h) Minijson.to_int))
              in
              Alcotest.(check bool)
                "computed submit recorded" true
                (match count_of "submit" with Some n -> n >= 1 | None -> false);
              Alcotest.(check bool)
                "cache hit recorded" true
                (match count_of "submit_hit" with
                | Some n -> n >= 1
                | None -> false)
          | Ok _ -> Alcotest.fail "expected Metrics_reply"
          | Error m -> Alcotest.failf "metrics failed: %s" m);
          (* METRICS prometheus: well-formed text exposition *)
          match Client.rpc cl (Protocol.Metrics Protocol.Prometheus) with
          | Ok (Protocol.Metrics_text_reply text) ->
              Alcotest.(check bool)
                "has TYPE lines" true
                (contains text "# TYPE gdpcd_");
              Alcotest.(check bool)
                "serves the request counter" true
                (contains text "gdpcd_served_total");
              Alcotest.(check bool)
                "serves quantiles" true
                (contains text "quantile=\"0.99\"")
          | Ok _ -> Alcotest.fail "expected Metrics_text_reply"
          | Error m -> Alcotest.failf "prometheus failed: %s" m))

let test_server_events_log () =
  let events = Filename.temp_file "gdp-events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove events with Sys_error _ -> ())
    (fun () ->
      Loadgen.with_local_server ~jobs:1 ~events (fun endpoint ->
          let cl = Client.connect ~attempts:20 endpoint in
          Fun.protect
            ~finally:(fun () -> Client.close cl)
            (fun () ->
              (* one computed request, one cache hit *)
              (match Client.submit cl (sample_job ~id:"ev-1" ()) with
              | Ok (Protocol.Result _) -> ()
              | _ -> Alcotest.fail "first submit failed");
              (match Client.submit cl (sample_job ~id:"ev-2" ()) with
              | Ok (Protocol.Result { cached; _ }) ->
                  Alcotest.(check bool) "resubmit hit" true cached
              | _ -> Alcotest.fail "resubmit failed");
              (* emit_event flushes per line, so once our responses are
                 back the log is complete up to here *)
              let ic = open_in events in
              let lines = ref [] in
              (try
                 while true do
                   lines := input_line ic :: !lines
                 done
               with End_of_file -> close_in ic);
              let docs =
                List.rev_map
                  (fun line ->
                    match Minijson.parse line with
                    | Ok doc -> doc
                    | Error m ->
                        Alcotest.failf "unparseable event line %S: %s" line m)
                  !lines
              in
              Alcotest.(check bool)
                "events were logged" true
                (List.length docs >= 4);
              List.iter
                (fun doc ->
                  Alcotest.(check bool)
                    "every event is typed" true
                    (gets "event" doc <> None);
                  Alcotest.(check bool)
                    "every event is correlatable" true
                    (gets "trace_id" doc <> None))
                docs;
              let kinds = List.filter_map (gets "event") docs in
              List.iter
                (fun k ->
                  Alcotest.(check bool)
                    (Printf.sprintf "saw a %S event" k)
                    true (List.mem k kinds))
                [ "submit"; "dispatch"; "deliver"; "cache_hit" ])))

(* The request record: every submit ends exactly once, whichever way it
   ends, and the counters, metrics and traces agree with the event log. *)

let terminal_kinds =
  [
    "cache_hit"; "deliver"; "reject"; "deadline_miss"; "cancel"; "disconnect";
    "shutdown";
  ]

let is_terminal d =
  match gets "event" d with Some k -> List.mem k terminal_kinds | None -> false

let read_events path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match Minijson.parse line with
            | Ok doc -> go (doc :: acc)
            | Error m -> Alcotest.failf "unparseable event line %S: %s" line m)
      in
      go [])

let count_events ?outcome kind docs =
  List.length
    (List.filter
       (fun d ->
         gets "event" d = Some kind
         && (outcome = None || gets "outcome" d = outcome))
       docs)

let check_one_terminal_each docs =
  let terminal = List.filter is_terminal docs in
  List.iter
    (fun d ->
      if gets "event" d = Some "submit" then
        let tid = gets "trace_id" d in
        Alcotest.(check int)
          (Printf.sprintf "one terminal event for %s"
             (Option.value ~default:"?" tid))
          1
          (List.length (List.filter (fun t -> gets "trace_id" t = tid) terminal)))
    docs

let test_server_every_request_ends_once () =
  let events = Filename.temp_file "gdp-ends" ".jsonl" in
  let heavy ?deadline_ms id tag =
    {
      (sample_job ~id ~deadline_ms ()) with
      Protocol.source = heavy_source ^ Printf.sprintf "// variant %d\n" tag;
      Protocol.input = heavy_input;
    }
  in
  let expect what = function
    | Ok r -> r
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove events with Sys_error _ -> ())
  @@ fun () ->
  let h = Loadgen.spawn_server ~jobs:1 ~max_pending:2 ~events () in
  Fun.protect
    ~finally:(fun () -> Loadgen.stop_server h)
    (fun () ->
      let cl = Client.connect ~attempts:20 h.Loadgen.sh_socket in
      Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
      let recv what = expect what (Client.recv cl) in
      let rpc what req = expect what (Client.rpc cl req) in
      (* a computed job, then a memory hit on it *)
      let computed =
        match expect "computed" (Client.submit cl (sample_job ~id:"end-a" ())) with
        | Protocol.Result { cached = false; trace = Some t; _ } -> t
        | _ -> Alcotest.fail "expected a computed, traced result"
      in
      ignore (submit_expect_result cl (sample_job ~id:"end-a2" ()));
      (* a coalesced pair *)
      raw_submit_all cl [ heavy "end-b1" 1; heavy "end-b2" 1 ];
      let cached =
        List.init 2 (fun _ ->
            match recv "coalesced" with
            | Protocol.Result { cached; _ } -> cached
            | _ -> Alcotest.fail "expected the pair's results")
      in
      Alcotest.(check (list bool))
        "one compile, one coalesced" [ false; true ] (List.sort compare cached);
      (* a reject: both pending slots are taken *)
      raw_submit_all cl
        [ heavy "end-c" 2; heavy "end-c2" 9; heavy "end-d" 3 ];
      (match recv "reject" with
      | Protocol.Failed { id = "end-d"; retry_after_ms = Some _; _ } -> ()
      | _ -> Alcotest.fail "expected end-d rejected first");
      List.iter
        (fun id ->
          match recv "reject" with
          | Protocol.Result { id = got; _ } when got = id -> ()
          | _ -> Alcotest.failf "expected %s served" id)
        [ "end-c"; "end-c2" ];
      (* a deadline at submit *)
      (match
         expect "deadline"
           (Client.submit cl (sample_job ~id:"end-e0" ~deadline_ms:(Some 0) ()))
       with
      | Protocol.Failed { reason; _ } ->
          Alcotest.(check bool)
            "deadline reason" true (contains reason "deadline")
      | _ -> Alcotest.fail "expected a deadline failure");
      (* a deadline that expires while the job waits behind one that
         holds the only worker, so it cannot finish first; the two
         endings may arrive in either order *)
      raw_submit_all cl
        [ heavy "end-e1-hold" 10; heavy ~deadline_ms:1 "end-e1" 4 ];
      let ending () =
        match recv "deadline" with
        | Protocol.Failed { id = "end-e1"; reason; _ }
          when contains reason "deadline" ->
            "end-e1"
        | Protocol.Result { id = "end-e1-hold"; _ } -> "end-e1-hold"
        | _ -> Alcotest.fail "expected a deadline failure"
      in
      let first = ending () in
      let second = ending () in
      Alcotest.(check (list string))
        "expired behind the worker's holder"
        [ "end-e1"; "end-e1-hold" ]
        (List.sort compare [ first; second ]);
      (* a cancel *)
      raw_submit cl (heavy "end-f" 5);
      (match rpc "cancel" (Protocol.Cancel { id = "end-f" }) with
      | Protocol.Cancelled { id } ->
          Alcotest.(check string) "cancelled" "end-f" id
      | _ -> Alcotest.fail "expected Cancelled");
      (* a disconnect mid-compile *)
      let cl2 = Client.connect ~attempts:20 h.Loadgen.sh_socket in
      raw_submit cl2 (heavy "end-g" 6);
      Client.close cl2;
      let rec await_disconnect tries =
        if count_events "disconnect" (read_events events) = 0 then
          if tries = 0 then Alcotest.fail "no disconnect event"
          else begin
            Unix.sleepf 0.05;
            await_disconnect (tries - 1)
          end
      in
      await_disconnect 100;
      (* every counter agrees with the event log *)
      let docs = read_events events in
      let count ?outcome kind = count_events ?outcome kind docs in
      List.iter
        (fun (counter, expected) ->
          Alcotest.(check (option int))
            counter (Some expected) (stats_int cl [ counter ]))
        [
          ("jobs", count "submit");
          ("served", count "cache_hit" + count ~outcome:"ok" "deliver");
          ("coalesced", count "coalesce");
          ("rejected", count "reject");
          ("deadline_misses", count "deadline_miss");
        ];
      List.iter
        (fun k ->
          Alcotest.(check bool) ("saw a " ^ k) true (count k > 0))
        [ "cache_hit"; "deliver"; "reject"; "deadline_miss"; "cancel"; "disconnect" ];
      (match rpc "metrics" (Protocol.Metrics Protocol.Json) with
      | Protocol.Metrics_reply m ->
          let n method_ =
            Option.bind (Minijson.member "latency_us" m) (fun l ->
                Option.bind (Minijson.member method_ l) (fun h ->
                    Option.bind (Minijson.member "count" h) Minijson.to_int))
            |> Option.value ~default:0
          in
          Alcotest.(check int)
            "latencies = deliver + cache_hit events"
            (count "deliver" + count "cache_hit")
            (n "submit" + n "submit_hit")
      | _ -> Alcotest.fail "expected Metrics_reply");
      (* TRACE resolves every ending so far to the same outcome *)
      check_one_terminal_each docs;
      List.iter
        (fun d ->
          match gets "trace_id" d with
          | Some trace_id when is_terminal d -> (
              match rpc "trace" (Protocol.Trace { trace_id }) with
              | Protocol.Trace_reply t ->
                  Alcotest.(check (option string))
                    (trace_id ^ " trace outcome") (gets "outcome" d)
                    (gets "outcome" t)
              | _ -> Alcotest.failf "no trace for %s" trace_id)
          | _ -> ())
        docs;
      (* the computed request's trace keeps its segments *)
      let spans =
        Option.value ~default:[]
          (Option.bind (Minijson.member "spans" computed) Minijson.to_list)
        |> List.filter_map Telemetry.span_of_json
      in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " span") true
            (List.exists (fun (s : Telemetry.span) -> s.name = name) spans))
        [ "request"; "queue"; "exec"; "deliver" ];
      Alcotest.(check bool)
        "worker spans under exec" true
        (List.exists
           (fun (s : Telemetry.span) -> s.parent = Some 2 && s.id >= 4)
           spans);
      let seg k = Option.value ~default:Float.nan (getf k computed) in
      Alcotest.(check bool)
        "queue + exec within total" true
        (seg "queue_us" +. seg "exec_us" <= seg "total_us");
      (* a shutdown with a job pending *)
      raw_submit cl (heavy "end-h" 7);
      Frame.write (Client.fd cl) (Protocol.request_to_json Protocol.Shutdown);
      let answers = List.init 2 (fun _ -> recv "shutdown") in
      Alcotest.(check bool)
        "pending job failed by the shutdown" true
        (List.exists
           (function
             | Protocol.Failed { id = "end-h"; reason; _ } ->
                 contains reason "shutting down"
             | _ -> false)
           answers));
  let docs = read_events events in
  check_one_terminal_each docs;
  Alcotest.(check int) "one shutdown event" 1 (count_events "shutdown" docs)

let suite =
  [
    Alcotest.test_case "minijson: control chars" `Quick test_minijson_control_chars;
    Alcotest.test_case "minijson: unicode escapes" `Quick
      test_minijson_unicode_escapes;
    Alcotest.test_case "minijson: deep nesting" `Quick test_minijson_deep_nesting;
    Alcotest.test_case "frame: round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: truncation" `Quick test_frame_truncation;
    Alcotest.test_case "frame: oversize rejection" `Quick test_frame_oversize;
    Alcotest.test_case "frame: incremental decoder" `Quick
      test_frame_decoder_incremental;
    Alcotest.test_case "frame: decoder errors sticky" `Quick
      test_frame_decoder_oversize_sticky;
    Alcotest.test_case "cache: LRU bound and recency" `Quick test_cache_lru;
    Alcotest.test_case "cache: misses counted" `Quick test_cache_misses_counted;
    Alcotest.test_case "cache: digest aliasing" `Quick
      test_cache_digest_no_aliasing;
    Alcotest.test_case "store: atomic round-trip" `Quick
      test_store_atomic_roundtrip;
    Alcotest.test_case "store: corruption quarantined" `Quick
      test_store_corruption_quarantined;
    Alcotest.test_case "cache: warm hits through the store" `Quick
      test_cache_warm_hits;
    Alcotest.test_case "protocol: round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: rejections" `Quick test_protocol_rejections;
    Alcotest.test_case "protocol: cache key" `Quick test_protocol_cache_key;
    Alcotest.test_case "protocol: evaluate deterministic" `Quick
      test_protocol_evaluate_deterministic;
    Alcotest.test_case "server: end to end" `Slow test_server_end_to_end;
    Alcotest.test_case "server: garbage handling" `Slow
      test_server_rejects_garbage;
    Alcotest.test_case "loadgen: closed loop" `Slow test_loadgen_closed_loop;
    Alcotest.test_case "server: store survives kill -9" `Slow
      test_server_store_survives_kill;
    Alcotest.test_case "server: corrupt entry recompiled" `Slow
      test_server_corrupt_entry_recompiled;
    Alcotest.test_case "server: deadline edges" `Slow
      test_server_deadline_edges;
    Alcotest.test_case "server: brown-out degrades" `Slow
      test_server_brownout_degrades;
    Alcotest.test_case "server: overload reject and retry" `Slow
      test_server_overload_reject_and_retry;
    Alcotest.test_case "server: worker-kill chaos" `Slow
      test_server_worker_kill_chaos;
    Alcotest.test_case "loadgen: chaos consistency" `Slow
      test_loadgen_chaos_consistency;
    Alcotest.test_case "protocol: version negotiation" `Quick
      test_protocol_version_negotiation;
    Alcotest.test_case "server: trace and admin plane" `Slow
      test_server_trace_and_admin;
    Alcotest.test_case "server: events log" `Slow test_server_events_log;
    Alcotest.test_case "server: every request ends once" `Slow
      test_server_every_request_ends_once;
  ]
