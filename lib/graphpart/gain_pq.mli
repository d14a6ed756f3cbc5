(** Max-priority queue over node ids [0 .. n-1] for FM-style refinement:
    a positioned binary max-heap.  Members come out by decreasing
    priority, then increasing node id — a total order, so results never
    depend on the heap's layout. *)

type t

(** [create ~n] holds nodes [0 .. n-1]; it starts empty. *)
val create : n:int -> t

val cardinal : t -> int
val mem : t -> int -> bool

(** Remove every member, in time linear in their number. *)
val clear : t -> unit

(** [fill t prio ~n] makes an empty queue hold nodes [0 .. n-1] at
    priorities [prio.(v)], in linear time.  Raises [Invalid_argument] if
    the queue is not empty. *)
val fill : t -> int array -> n:int -> unit

(** Raises [Invalid_argument] if the node is already present. *)
val insert : t -> int -> prio:int -> unit

(** Removes the node if present; a no-op otherwise. *)
val remove : t -> int -> unit

(** Re-prioritize a present node.  Raises [Invalid_argument] if
    absent. *)
val update : t -> int -> prio:int -> unit

(** The first member in (priority desc, id asc) order that [accept]
    takes, removed from the queue and returned; [-1] when [accept]
    rejects every member.  Rejected members stay queued, untouched.
    [accept] must be pure.  Allocates nothing. *)
val pop_best : t -> accept:(int -> bool) -> int
