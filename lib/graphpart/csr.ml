(** The representation of [Graph.t].  This module is private to the
    library: outside it, [Graph.t] is abstract, so only [Graph] and the
    partitioner's hot loops, which read these arrays directly, can reach
    a graph's storage.  Graphs are never mutated after construction. *)

type t = {
  n : int;
  ncon : int;  (** number of node-weight constraints *)
  vwgt : int array;  (** [vwgt.((v * ncon) + c)] = weight of [v] under [c] *)
  xadj : int array;  (** length [n + 1]; row [v] is [xadj.(v) .. xadj.(v+1) - 1] *)
  adjncy : int array;  (** neighbor ids, sorted within each row *)
  adjwgt : int array;  (** edge weights, parallel to [adjncy] *)
}
