(** Whole programs: globals plus functions, with ["main"] as entry.

    Operation ids are unique across the whole program (checked by
    [Validate]); side tables produced by analyses and partitioners are
    keyed by op id. *)

type t = {
  globals : Data.global list;
  funcs : Func.t list;
  op_count : int;  (** op ids are in [0 .. op_count - 1] *)
}

let v ~globals ~funcs ~op_count =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      let n = Func.name f in
      if Hashtbl.mem seen n then
        invalid_arg ("Prog.v: duplicate function " ^ n);
      Hashtbl.replace seen n ())
    funcs;
  let gseen = Hashtbl.create 16 in
  List.iter
    (fun (g : Data.global) ->
      if Hashtbl.mem gseen g.Data.g_name then
        invalid_arg ("Prog.v: duplicate global " ^ g.Data.g_name);
      Hashtbl.replace gseen g.Data.g_name ())
    globals;
  { globals; funcs; op_count }

let globals p = p.globals
let funcs p = p.funcs
let op_count p = p.op_count

let find_func p name =
  match List.find_opt (fun f -> String.equal (Func.name f) name) p.funcs with
  | Some f -> f
  | None -> invalid_arg ("Prog.find_func: no function " ^ name)

let find_func_opt p name =
  List.find_opt (fun f -> String.equal (Func.name f) name) p.funcs

let main p = find_func p "main"

let iter_ops fn p = List.iter (Func.iter_ops fn) p.funcs
let fold_ops fn acc p = List.fold_left (fun acc f -> Func.fold_ops fn acc f) acc p.funcs
let num_ops p = List.fold_left (fun n f -> n + Func.num_ops f) 0 p.funcs

(** Map from op id to its operation, function and block. *)
let op_index p =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun op -> Hashtbl.replace tbl (Op.id op) (op, f, b))
            (Block.ops b))
        (Func.blocks f))
    p.funcs;
  tbl

(** All static malloc sites in the program. *)
let alloc_sites p =
  fold_ops
    (fun acc op ->
      match Op.kind op with Op.Alloc { site; _ } -> site :: acc | _ -> acc)
    [] p
  |> List.sort_uniq Int.compare

let pp ppf p =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (g : Data.global) ->
      Fmt.pf ppf "global @%s[%d]%s@," g.Data.g_name g.Data.g_elems
        (match g.Data.g_init with Data.Zero -> "" | Data.Words _ -> " = {...}"))
    p.globals;
  List.iter (fun f -> Fmt.pf ppf "@,%a" Func.pp f) p.funcs;
  Fmt.pf ppf "@]"
