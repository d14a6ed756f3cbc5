(** MiniC: frontend facade.

    [compile src] runs the full pipeline — lex, parse, typecheck, lower,
    validate — and returns a well-formed IR program.  All frontend errors
    are reported as [Compile_error] with a source position. *)

module Token = Token
module Lexer = Lexer
module Ast = Ast
module Parser = Parser
module Sema = Sema
module Lower = Lower
module Unroll = Unroll

exception Compile_error of { line : int; col : int; message : string }

let compile_error (pos : Token.pos) message =
  raise (Compile_error { line = pos.Token.line; col = pos.Token.col; message })

(** Parse only (for tooling and tests). *)
let parse src =
  try Parser.parse_program src with
  | Lexer.Error (pos, m) -> compile_error pos ("lexical error: " ^ m)
  | Parser.Error (pos, m) -> compile_error pos ("syntax error: " ^ m)

(** Typecheck a parsed program. *)
let typecheck ast =
  try Sema.check_program ast
  with Sema.Error (pos, m) -> compile_error pos ("type error: " ^ m)

(** Compile MiniC source to a validated IR program.  [unroll] (default
    on) fully unrolls small constant-trip loops first. *)
let compile ?(unroll = true) src =
  let ast = parse src in
  let ast = if unroll then Unroll.run ast else ast in
  let tp = typecheck ast in
  let prog = Lower.lower_program tp in
  (try Vliw_ir.Validate.check prog
   with Vliw_ir.Validate.Invalid m ->
     invalid_arg ("Minic.compile produced invalid IR (frontend bug): " ^ m));
  prog

let pp_error ppf = function
  | Compile_error { line; col; message } ->
      Fmt.pf ppf "%d:%d: %s" line col message
  | exn -> Fmt.pf ppf "%s" (Printexc.to_string exn)
