(* Sequential backend (OCaml 4.x): the Par interface with every body
   run inline.  No threads library is linked, so Lock is a no-op — with
   a single domain there is nothing to exclude. *)

let backend = "seq"
let recommended () = 1
let is_main_domain () = true

type pool = unit

let with_pool ?workers ~domains f =
  ignore (workers, domains);
  f ()

let size () = 1

let parallel_for _pool ~n body =
  for i = 0 to n - 1 do
    body i
  done

let parallel_chunks _pool ~n body = if n > 0 then body 0 n

let map pool ~n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for pool ~n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

module Lock = struct
  type t = unit

  let create () = ()
  let with_lock () f = f ()
end
