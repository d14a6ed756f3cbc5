(** Dense bit vectors over [0 .. n-1], [Sys.int_size] bits a word, for
    the dataflow analyses; callers combine vectors word by word. *)

let w = Sys.int_size
let create n = Array.make ((n + w - 1) / w) 0
let mem v i = v.(i / w) land (1 lsl (i mod w)) <> 0
let add v i = v.(i / w) <- v.(i / w) lor (1 lsl (i mod w))
let remove v i = v.(i / w) <- v.(i / w) land lnot (1 lsl (i mod w))

(** The members, ascending. *)
let to_list v =
  let acc = ref [] in
  for k = Array.length v - 1 downto 0 do
    for b = w - 1 downto 0 do
      if v.(k) land (1 lsl b) <> 0 then acc := ((k * w) + b) :: !acc
    done
  done;
  !acc
