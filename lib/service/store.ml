(** Durable on-disk artifact store (see store.mli). *)

let src = Logs.Src.create "store" ~doc:"on-disk artifact store"

module Log = (val Logs.src_log src : Logs.LOG)

let magic = "gdp-store/2"
let log_name = "store.log"
let quarantine_dirname = "quarantine"

(* The digest field of a tombstone, a record with an empty payload that
   drops its key from the index: no MD5 in hex reads like this. *)
let tombstone = "-"

type t = {
  dir : string;
  fd : Unix.file_descr;  (** the log, opened for reading and appending *)
  index : (string, int * int) Hashtbl.t;
      (** key -> offset and length of its newest record *)
  mutable size : int;  (** the log's length: where the next record lands *)
  mutable writes : int;
  mutable warm_hits : int;
  mutable quarantined : int;
}

let dir t = t.dir
let length t = Hashtbl.length t.index
let mem t key = Hashtbl.mem t.index key
let close t = Unix.close t.fd

let ensure_dir path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } -> ()
  | _ -> invalid_arg (Printf.sprintf "Store.open_: %s is not a directory" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Unix.mkdir path 0o755

(* Up to [len] bytes of the log from [off]; fewer where it ends sooner. *)
let read_at fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go n =
    if n = len then n
    else match Unix.read fd b n (len - n) with 0 -> n | k -> go (n + k)
  in
  Bytes.sub_string b 0 (go 0)

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)

let record key digest payload =
  Printf.sprintf "%s %s %s %d\n%s\n" magic key digest (String.length payload)
    payload

(* The record at [off] of [raw]: [Ok (key, digest, payload offset,
   payload length)], or [Error reason] when it is cut short or its
   framing is damaged. *)
let frame raw off =
  match String.index_from_opt raw off '\n' with
  | None -> Error "torn header"
  | Some nl -> (
      match String.split_on_char ' ' (String.sub raw off (nl - off)) with
      | [ m; key; digest; len ] when m = magic -> (
          match int_of_string_opt len with
          | Some len when len >= 0 && nl + 1 + len < String.length raw ->
              if raw.[nl + 1 + len] = '\n' then Ok (key, digest, nl + 1, len)
              else Error "length mismatch"
          | Some len when len >= 0 ->
              Error (Printf.sprintf "torn record (%d of %d bytes)"
                       (String.length raw - off) (nl + 2 + len - off))
          | _ -> Error "unreadable length")
      | m :: _ when m <> magic -> Error ("bad magic " ^ m)
      | _ -> Error "malformed header")

(* ------------------------------------------------------------------ *)

(* Copy [bytes] into quarantine/ under a fresh name made from [name],
   with the reason beside them. *)
let keep_evidence t name bytes reason =
  t.quarantined <- t.quarantined + 1;
  Fault.note_detected ();
  Log.warn (fun m -> m "quarantining %s: %s" name reason);
  let base = Filename.concat (Filename.concat t.dir quarantine_dirname) name in
  let rec fresh n =
    let p = if n = 0 then base else Printf.sprintf "%s.%d" base n in
    if Sys.file_exists p then fresh (n + 1) else p
  in
  let dst = fresh 0 in
  let write path s =
    Out_channel.with_open_bin path (fun oc -> output_string oc s)
  in
  try
    write dst bytes;
    write (dst ^ ".reason") (reason ^ "\n")
  with Sys_error _ -> ()

(* Append [data] with one write and return the offset it landed at.  A
   failed write is cut back off, so the next record follows a whole one. *)
let append t data =
  let off = t.size in
  (try ignore (Unix.write_substring t.fd data 0 (String.length data))
   with e ->
     (try Unix.ftruncate t.fd off with Unix.Unix_error _ -> ());
     raise e);
  t.size <- off + String.length data;
  off

let open_ dirname =
  ensure_dir dirname;
  ensure_dir (Filename.concat dirname quarantine_dirname);
  let flags = Unix.[ O_RDWR; O_APPEND; O_CREAT; O_CLOEXEC ] in
  let fd = Unix.openfile (Filename.concat dirname log_name) flags 0o644 in
  let raw = read_at fd 0 (Unix.fstat fd).Unix.st_size in
  let t =
    {
      dir = dirname;
      fd;
      index = Hashtbl.create 64;
      size = 0;
      writes = 0;
      warm_hits = 0;
      quarantined = 0;
    }
  in
  let rec scan off =
    if off >= String.length raw then off
    else
      match frame raw off with
      | Ok (key, digest, body, len) ->
          if digest = tombstone then Hashtbl.remove t.index key
          else Hashtbl.replace t.index key (off, body + len + 1 - off);
          scan (body + len + 1)
      | Error reason ->
          (* a writer died mid-append, or a header is damaged: nothing
             from here on can be framed, so none of it is indexed *)
          keep_evidence t
            (Printf.sprintf "tail-%d" off)
            (String.sub raw off (String.length raw - off))
            reason;
          Unix.ftruncate fd off;
          off
  in
  t.size <- scan 0;
  t

(* [Some doc] for a verified entry; a bad one is quarantined and
   tombstoned. *)
let verify t key =
  match Hashtbl.find_opt t.index key with
  | None -> None
  | Some (off, len) -> (
      let raw = read_at t.fd off len in
      let bad reason =
        Hashtbl.remove t.index key;
        keep_evidence t key raw reason;
        (try ignore (append t (record key tombstone ""))
         with Unix.Unix_error _ -> ());
        None
      in
      match frame raw 0 with
      | Error reason -> bad reason
      | Ok (k, _, _, _) when k <> key -> bad ("record of key " ^ k)
      | Ok (_, digest, body, len) -> (
          if Digest.to_hex (Digest.substring raw body len) <> digest then
            bad "checksum mismatch"
          else
            match Minijson.parse (String.sub raw body len) with
            | Ok doc -> Some doc
            | Error m -> bad ("checksummed but unparseable: " ^ m)))

let find t key =
  let doc = verify t key in
  if Option.is_some doc then t.warm_hits <- t.warm_hits + 1;
  doc

(* Flip one byte of [key]'s payload in place — deliberately not an
   append; this IS the corruption. *)
let corrupt_for_test t key =
  match Hashtbl.find_opt t.index key with
  | None -> false
  | Some (off, len) -> (
      let raw = read_at t.fd off len in
      match frame raw 0 with
      | Ok (_, _, body, plen) when plen > 0 ->
          let at = body + Fault.rand "service.cache.corrupt" plen in
          (* not through [t.fd], whose every write appends *)
          Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0
            (Filename.concat t.dir log_name)
            (fun oc ->
              seek_out oc (off + at);
              output_char oc (Char.chr (Char.code raw.[at] lxor 0x20)));
          true
      | _ -> false)

let add t key doc =
  if key = "" || String.contains key ' ' || String.contains key '\n' then
    invalid_arg "Store.add: a key is one word";
  let payload = Minijson.encode doc in
  let data = record key (Digest.to_hex (Digest.string payload)) payload in
  let off = append t data in
  Hashtbl.replace t.index key (off, String.length data);
  t.writes <- t.writes + 1;
  (* chaos: damage the freshly durable entry so the read path must
     prove it detects and quarantines rather than serves it *)
  if Fault.fire "service.cache.corrupt" then ignore (corrupt_for_test t key)

let scrub t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.index [] in
  let intact = List.filter (fun k -> Option.is_some (verify t k)) keys in
  (List.length intact, t.quarantined)

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
