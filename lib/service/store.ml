(** Durable on-disk artifact store (see store.mli). *)

let src = Logs.Src.create "store" ~doc:"on-disk artifact store"

module Log = (val Logs.src_log src : Logs.LOG)

let magic = "gdp-store/1"
let quarantine_dirname = "quarantine"
let tmp_prefix = ".tmp-"

type t = {
  dir : string;
  fsync : bool;
  index : (string, unit) Hashtbl.t;
  mutable writes : int;
  mutable warm_hits : int;
  mutable quarantined : int;
  mutable tmp_counter : int;
}

let dir t = t.dir
let length t = Hashtbl.length t.index
let mem t key = Hashtbl.mem t.index key
let quarantine_dir t = Filename.concat t.dir quarantine_dirname
let path_of t key = Filename.concat t.dir key

let ensure_dir path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } -> ()
  | _ -> invalid_arg (Printf.sprintf "Store.open_: %s is not a directory" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Unix.mkdir path 0o755

(* A key is what digest_key produces: lowercase hex.  Anything else in
   the directory (temp litter, stray files) is not an entry. *)
let is_key name =
  name <> ""
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       name

let open_ ?(fsync = false) dirname =
  ensure_dir dirname;
  ensure_dir (Filename.concat dirname quarantine_dirname);
  let t =
    {
      dir = dirname;
      fsync;
      index = Hashtbl.create 64;
      writes = 0;
      warm_hits = 0;
      quarantined = 0;
      tmp_counter = 0;
    }
  in
  Array.iter
    (fun name ->
      if is_key name then Hashtbl.replace t.index name ()
      else if
        String.length name > String.length tmp_prefix
        && String.sub name 0 (String.length tmp_prefix) = tmp_prefix
      then
        (* a writer died between create and rename: the entry never
           existed, the litter is safe to drop *)
        try Unix.unlink (Filename.concat dirname name)
        with Unix.Unix_error _ -> ())
    (Sys.readdir dirname);
  t

(* ------------------------------------------------------------------ *)
(* Entry encoding                                                      *)

let encode_entry payload =
  Printf.sprintf "%s %s %d\n%s" magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

(* [Ok payload] or [Error reason] for torn/corrupt files. *)
let decode_entry raw =
  match String.index_opt raw '\n' with
  | None -> Error "no header line"
  | Some nl -> (
      match String.split_on_char ' ' (String.sub raw 0 nl) with
      | [ m; digest; len_s ] when m = magic -> (
          match int_of_string_opt len_s with
          | None -> Error "unreadable length"
          | Some len ->
              let have = String.length raw - nl - 1 in
              if have <> len then
                Error (Printf.sprintf "torn entry (%d of %d bytes)" have len)
              else
                let payload = String.sub raw (nl + 1) len in
                if Digest.to_hex (Digest.string payload) <> digest then
                  Error "checksum mismatch"
                else Ok payload)
      | m :: _ when m <> magic -> Error ("bad magic " ^ m)
      | _ -> Error "malformed header")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)

let quarantine t key reason =
  Hashtbl.remove t.index key;
  t.quarantined <- t.quarantined + 1;
  Fault.note_detected ();
  let dst =
    let rec fresh n =
      let p =
        Filename.concat (quarantine_dir t)
          (if n = 0 then key else Printf.sprintf "%s.%d" key n)
      in
      if Sys.file_exists p then fresh (n + 1) else p
    in
    fresh 0
  in
  Log.warn (fun m -> m "quarantining %s: %s" key reason);
  (try Unix.rename (path_of t key) dst
   with Unix.Unix_error _ -> (
     try Unix.unlink (path_of t key) with Unix.Unix_error _ -> ()));
  (* keep the reason next to the evidence *)
  try
    let oc = open_out_bin (dst ^ ".reason") in
    output_string oc (reason ^ "\n");
    close_out_noerr oc
  with Sys_error _ -> ()

let verify t key =
  match read_file (path_of t key) with
  | exception Sys_error _ ->
      quarantine t key "unreadable entry";
      Error ()
  | raw -> (
      match decode_entry raw with
      | Error reason ->
          quarantine t key reason;
          Error ()
      | Ok payload -> (
          match Minijson.parse payload with
          | Ok doc -> Ok doc
          | Error m ->
              quarantine t key ("checksummed but unparseable: " ^ m);
              Error ()))

let find t key =
  if not (Hashtbl.mem t.index key) then None
  else
    match verify t key with
    | Error () -> None
    | Ok doc ->
        t.warm_hits <- t.warm_hits + 1;
        Some doc

let remove t key =
  Hashtbl.remove t.index key;
  try Unix.unlink (path_of t key) with Unix.Unix_error _ -> ()

(* Flip one byte of [key]'s payload in place — deliberately not
   atomic; this IS the corruption. *)
let corrupt_for_test t key =
  let path = path_of t key in
  match read_file path with
  | exception Sys_error _ -> false
  | raw -> (
      match String.index_opt raw '\n' with
      | None -> false
      | Some nl when String.length raw <= nl + 1 -> false
      | Some nl ->
          let body_len = String.length raw - nl - 1 in
          let off = nl + 1 + Fault.rand "service.cache.corrupt" body_len in
          let b = Bytes.of_string raw in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out_noerr oc;
          true)

let add t key doc =
  let payload = Minijson.encode doc in
  let entry = encode_entry payload in
  t.tmp_counter <- t.tmp_counter + 1;
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf "%s%d-%d" tmp_prefix (Unix.getpid ()) t.tmp_counter)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     let rec write_all off len =
       if len > 0 then
         match Unix.write_substring fd entry off len with
         | n -> write_all (off + n) (len - n)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off len
     in
     write_all 0 (String.length entry);
     if t.fsync then Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  Unix.rename tmp (path_of t key);
  Hashtbl.replace t.index key ();
  t.writes <- t.writes + 1;
  (* chaos: damage the freshly durable entry so the read path must
     prove it detects and quarantines rather than serves it *)
  if Fault.fire "service.cache.corrupt" then ignore (corrupt_for_test t key)

let scrub t =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.index [] in
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun key ->
      match verify t key with Ok _ -> incr ok | Error () -> incr bad)
    keys;
  (!ok, !bad)

(* ------------------------------------------------------------------ *)

type stats = {
  entries : int;
  writes : int;
  warm_hits : int;
  quarantined : int;
}

let stats t =
  {
    entries = length t;
    writes = t.writes;
    warm_hits = t.warm_hits;
    quarantined = t.quarantined;
  }

let stats_to_json (s : stats) =
  Minijson.obj
    [
      ("entries", Minijson.int s.entries);
      ("writes", Minijson.int s.writes);
      ("warm_hits", Minijson.int s.warm_hits);
      ("quarantined", Minijson.int s.quarantined);
    ]
