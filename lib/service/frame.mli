(** Length-prefixed JSON framing for the [gdpcd] wire.

    A frame is a 4-byte big-endian payload length followed by exactly
    that many bytes of compact {!Minijson} text.  The length prefix
    lets the server budget a read before performing it: a frame whose
    declared size exceeds the limit is rejected {e before} any payload
    is buffered, so a hostile or confused client cannot balloon the
    server's memory.

    All I/O retries on [EINTR] and resumes after partial reads and
    writes. *)

(** Default maximum payload size: 16 MiB. *)
val default_max_frame : int

type error =
  | Eof  (** the peer closed the connection between frames *)
  | Truncated  (** the connection closed mid-header or mid-payload *)
  | Oversized of { size : int; limit : int }
      (** declared length beyond the limit; nothing was buffered *)
  | Malformed of string  (** the payload is not valid JSON *)

val error_to_string : error -> string

val to_string : Minijson.t -> string
(** The exact bytes {!write} would send (header + payload), without
    sending them — the chaos harness slices, truncates and corrupts
    this to fabricate hostile wire traffic. *)

val write : ?max_frame:int -> Unix.file_descr -> Minijson.t -> unit
(** Encode and send one frame.  Raises [Invalid_argument] when the
    encoded payload exceeds [max_frame] (the peer would reject it
    anyway) and [Unix.Unix_error] on I/O failure ([EPIPE] when the
    peer is gone — callers run with [SIGPIPE] ignored). *)

val read : ?max_frame:int -> Unix.file_descr -> (Minijson.t, error) result
(** Blocking read of one complete frame. *)

(** Incremental decoder for event-loop readers: feed whatever bytes
    [read(2)] returned, then drain the complete frames.  Decoding
    errors are sticky — after [`Error] the stream is unusable (the
    byte position is ambiguous) and the connection should be closed. *)
module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends bytes; no-op after an error. *)

  val next : t -> [ `Frame of Minijson.t | `Awaiting | `Error of error ]
  (** The next complete frame, [`Awaiting] when more bytes are needed.
      Call repeatedly — one [feed] can complete several frames. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by [next]. *)
end
