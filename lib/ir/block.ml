(** Basic blocks: a label, a straight-line body and a single terminator.

    The body never contains terminators; the terminator is a conditional
    branch, jump or return.  The computation partitioner treats each block
    as a region (see DESIGN.md). *)

type t = { label : Label.t; body : Op.t list; term : Op.t }

let v ~label ~body ~term =
  if not (Op.is_terminator term) then
    invalid_arg "Block.v: terminator operation expected";
  if List.exists Op.is_terminator body then
    invalid_arg "Block.v: terminator in block body";
  { label; body; term }

let label b = b.label
let body b = b.body
let term b = b.term

(** All operations including the terminator, in program order. *)
let ops b = b.body @ [ b.term ]

let num_ops b = List.length b.body + 1
let successors b = Op.successors b.term

let with_body b body = v ~label:b.label ~body ~term:b.term

(** Registers defined / used anywhere in the block. *)
let defs b = List.concat_map Op.defs (ops b)
let uses b = List.concat_map Op.uses (ops b)

let pp ppf b =
  Fmt.pf ppf "@[<v>%a:@," Label.pp b.label;
  List.iter (fun op -> Fmt.pf ppf "  %a@," Op.pp op) b.body;
  Fmt.pf ppf "  %a@]" Op.pp b.term
