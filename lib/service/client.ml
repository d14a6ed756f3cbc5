(** Blocking gdpcd client (see client.mli). *)

type t = Unix.file_descr

(* "host:port" with a numeric suffix is TCP; anything else is a Unix
   socket path. *)
let is_tcp ep =
  match String.rindex_opt ep ':' with
  | Some i when i > 0 && i < String.length ep - 1 ->
      int_of_string_opt (String.sub ep (i + 1) (String.length ep - i - 1))
      <> None
  | _ -> false

let addr_of_endpoint ep =
  match String.rindex_opt ep ':' with
  | Some i when i > 0 && i < String.length ep - 1 -> (
      let host = String.sub ep 0 i in
      let port = String.sub ep (i + 1) (String.length ep - i - 1) in
      match int_of_string_opt port with
      | Some p ->
          let addr =
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              try (Unix.gethostbyname host).Unix.h_addr_list.(0)
              with Not_found | Invalid_argument _ ->
                raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "connect", host)))
          in
          (Unix.PF_INET, Unix.ADDR_INET (addr, p))
      | None -> (Unix.PF_UNIX, Unix.ADDR_UNIX ep))
  | _ -> (Unix.PF_UNIX, Unix.ADDR_UNIX ep)

(* Connect with an optional wall-clock bound: non-blocking connect,
   then select for writability, then read back [SO_ERROR] (a refused
   connection reports there, not from [connect] itself). *)
let connect_once ?connect_timeout domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match connect_timeout with
  | None -> (
      match Unix.connect fd addr with
      | () -> fd
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)
  | Some tmo -> (
      try
        Unix.set_nonblock fd;
        (match Unix.connect fd addr with
        | () -> ()
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
          -> (
            match Unix.select [] [ fd ] [] tmo with
            | _, [], _ ->
                raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
            | _ -> (
                match Unix.getsockopt_error fd with
                | None -> ()
                | Some err -> raise (Unix.Unix_error (err, "connect", "")))));
        Unix.clear_nonblock fd;
        fd
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)

let connect ?(attempts = 1) ?connect_timeout ?io_timeout ep =
  let domain, addr = addr_of_endpoint ep in
  let rec go n delay =
    match connect_once ?connect_timeout domain addr with
    | fd ->
        (match io_timeout with
        | None -> ()
        | Some tmo ->
            (* best effort: a platform refusing the option still works,
               just without the read/write bound *)
            (try
               Unix.setsockopt_float fd Unix.SO_RCVTIMEO tmo;
               Unix.setsockopt_float fd Unix.SO_SNDTIMEO tmo
             with Unix.Unix_error _ | Invalid_argument _ -> ()));
        fd
    | exception e ->
        if n >= attempts then raise e
        else begin
          (try ignore (Unix.select [] [] [] delay)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go (n + 1) (Float.min 0.5 (delay *. 2.))
        end
  in
  go 1 0.02

let fd t = t
let close t = try Unix.close t with Unix.Unix_error _ -> ()
let send t req = Frame.write t (Protocol.request_to_json req)

let recv t =
  match Frame.read t with
  | Error e -> Error (Frame.error_to_string e)
  | Ok doc -> Protocol.response_of_json doc
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
      Error "i/o timeout"

let rpc t req =
  send t req;
  recv t

let submit_once t (job : Protocol.job) =
  match rpc t (Protocol.Submit job) with
  | Error _ as e -> e
  | Ok resp -> (
      let id_of = function
        | Protocol.Result { id; _ }
        | Protocol.Failed { id; _ }
        | Protocol.Cancelled { id } ->
            Some id
        | _ -> None
      in
      match id_of resp with
      | Some id when id = job.Protocol.id -> Ok resp
      | Some other ->
          Error
            (Printf.sprintf "response for job %S while waiting for %S" other
               job.Protocol.id)
      | None -> Ok resp)

let submit ?(retries = 0) t (job : Protocol.job) =
  let rec go left =
    match submit_once t job with
    | Ok (Protocol.Failed { retry_after_ms = Some ms; _ }) when left > 0 ->
        (* the server told us when the backlog should have moved *)
        (try Unix.sleepf (float_of_int (max 1 ms) /. 1000.)
         with Unix.Unix_error _ -> ());
        go (left - 1)
    | r -> r
  in
  go (max 0 retries)
