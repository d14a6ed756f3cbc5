(** A minimal JSON reader and writer.

    The repo deliberately has no JSON dependency.  The regression gate
    reads back the baselines written here ([bench --json], the
    attribution report), and the process-pool executor ([Exec]) ships
    jobs and results across pipes as JSON values, so this module
    implements just enough of RFC 8259 to round-trip them: objects,
    arrays, strings with the common escapes, numbers, booleans and
    null.

    The writer is the reader's exact inverse on every value it can
    print: [parse (encode v) = Ok v] for any [v] whose numbers are
    finite (JSON has no NaN/infinity; [encode] raises
    [Invalid_argument] on those). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Parse a complete JSON document.  [Error msg] carries a byte offset. *)
val parse : string -> (t, string) result

val parse_file : string -> (t, string) result

(** {2 Writing} *)

(** Compact, single-line rendering (no spaces or newlines outside
    strings; control characters in strings are escaped), so a document
    is one line of a JSONL file.  Numbers print as
    integers when they are integral and otherwise in the fewest digits
    that round-trip exactly.  Raises [Invalid_argument] on NaN or
    infinite numbers. *)
val encode : t -> string

val pp : Format.formatter -> t -> unit

(** [encode] followed by a trailing newline, written to [path]. *)
val write_file : string -> t -> unit

(** [write_file] laid out for files people diff: a top-level object
    puts each member on its own line, and each element of a list-valued
    member on its own line; everything below that level stays compact.
    Parses back to the same value. *)
val write_rows : string -> t -> unit

(** {2 Building} — tiny constructors for hand-assembled documents. *)

val str : string -> t
val int : int -> t
val float : float -> t
val bool : bool -> t
val obj : (string * t) list -> t
val list : t list -> t
val option : ('a -> t) -> 'a option -> t
(** [None] becomes [Null]. *)

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_string : t -> string option
val to_float : t -> float option
val to_int : t -> int option
