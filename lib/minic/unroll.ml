(** Source-level full unrolling of constant-trip [for] loops.

    The paper's compiler (Trimaran/IMPACT) exposes instruction-level
    parallelism by unrolling small counted loops before region formation;
    without it, inner loops like the 8-point DCT products or FIR tap
    loops are 5-10 operation blocks with no ILP for the cluster
    partitioner to distribute.

    A loop is fully unrolled when:
    - it has the shape
      [for (int i = c0; i </<= c1; i = i +/- c2) body] with integer
      literal bounds and step;
    - the body neither reassigns nor redeclares [i];
    - the trip count and unrolled size are within the limits.

    Each copy substitutes the literal induction value for [i] and is
    wrapped in its own scope. *)

(* do not unroll loops longer than this *)
let max_trips = 16

(* bound on body statements x trips *)
let max_total_stmts = 160

(* ------------------------------------------------------------------ *)
(* Shape recognition                                                   *)

type counted_loop = {
  var : string;
  start : int;
  stop : int;
  inclusive : bool;
  step : int;  (** non-zero; negative for downward loops *)
}

let recognize (init : Ast.stmt option) (cond : Ast.expr option)
    (step : Ast.stmt option) : counted_loop option =
  match (init, cond, step) with
  | ( Some { Ast.sdesc = Ast.Sdecl (Ast.Tint, var, Some { Ast.edesc = Ast.Eint start; _ }); _ },
      Some { Ast.edesc = Ast.Ebin (op, { Ast.edesc = Ast.Eident v1; _ }, { Ast.edesc = Ast.Eint stop; _ }); _ },
      Some { Ast.sdesc = Ast.Sassign (Ast.Lident v2, { Ast.edesc = Ast.Ebin (sop, { Ast.edesc = Ast.Eident v3; _ }, { Ast.edesc = Ast.Eint c2; _ }); _ }); _ } )
    when String.equal var v1 && String.equal var v2 && String.equal var v3 ->
      let step_val =
        match sop with
        | Ast.Badd -> Some c2
        | Ast.Bsub -> Some (-c2)
        | _ -> None
      in
      let cmp =
        match op with
        | Ast.Blt -> Some false
        | Ast.Ble -> Some true
        | Ast.Bgt -> Some false
        | Ast.Bge -> Some true
        | _ -> None
      in
      let upward = match op with Ast.Blt | Ast.Ble -> true | _ -> false in
      (match (step_val, cmp) with
      | Some s, Some inclusive
        when s <> 0 && (if upward then s > 0 else s < 0) ->
          Some { var; start; stop; inclusive; step = s }
      | _ -> None)
  | _ -> None

let trip_values (l : counted_loop) : int list =
  let cont i =
    if l.step > 0 then if l.inclusive then i <= l.stop else i < l.stop
    else if l.inclusive then i >= l.stop
    else i > l.stop
  in
  let rec go i acc n =
    if n > 4096 then [] (* runaway guard; caller re-checks length *)
    else if cont i then go (i + l.step) (i :: acc) (n + 1)
    else List.rev acc
  in
  go l.start [] 0

(* ------------------------------------------------------------------ *)
(* Substitution and body checks                                        *)

let rec subst_expr var value (e : Ast.expr) : Ast.expr =
  let d =
    match e.Ast.edesc with
    | Ast.Eident v when String.equal v var -> Ast.Eint value
    | Ast.Eident _ | Ast.Eint _ | Ast.Efloat _ | Ast.Eaddr _ -> e.Ast.edesc
    | Ast.Ebin (op, a, b) ->
        Ast.Ebin (op, subst_expr var value a, subst_expr var value b)
    | Ast.Eun (op, a) -> Ast.Eun (op, subst_expr var value a)
    | Ast.Eindex (a, i) ->
        Ast.Eindex (subst_expr var value a, subst_expr var value i)
    | Ast.Ecall (f, args) -> Ast.Ecall (f, List.map (subst_expr var value) args)
  in
  { e with Ast.edesc = d }

(** [true] when the body neither assigns nor shadows [var]. *)
let rec var_safe var (s : Ast.stmt) : bool =
  match s.Ast.sdesc with
  | Ast.Sdecl (_, v, _) -> not (String.equal v var)
  | Ast.Sassign (Ast.Lident v, _) -> not (String.equal v var)
  | Ast.Sassign (Ast.Lindex _, _) | Ast.Sexpr _ | Ast.Sreturn _ -> true
  | Ast.Sif (_, t, e) ->
      var_safe var t && (match e with None -> true | Some e -> var_safe var e)
  | Ast.Swhile (_, b) -> var_safe var b
  | Ast.Sfor (i, _, st, b) ->
      let opt = function None -> true | Some s -> var_safe var s in
      opt i && opt st && var_safe var b
  | Ast.Sblock ss -> List.for_all (var_safe var) ss

let rec subst_stmt var value (s : Ast.stmt) : Ast.stmt =
  let d =
    match s.Ast.sdesc with
    | Ast.Sdecl (t, v, e) -> Ast.Sdecl (t, v, Option.map (subst_expr var value) e)
    | Ast.Sassign (lv, e) ->
        let lv =
          match lv with
          | Ast.Lident v -> Ast.Lident v
          | Ast.Lindex (a, i) ->
              Ast.Lindex (subst_expr var value a, subst_expr var value i)
        in
        Ast.Sassign (lv, subst_expr var value e)
    | Ast.Sexpr e -> Ast.Sexpr (subst_expr var value e)
    | Ast.Sif (c, t, e) ->
        Ast.Sif
          ( subst_expr var value c,
            subst_stmt var value t,
            Option.map (subst_stmt var value) e )
    | Ast.Swhile (c, b) ->
        Ast.Swhile (subst_expr var value c, subst_stmt var value b)
    | Ast.Sfor (i, c, st, b) ->
        Ast.Sfor
          ( Option.map (subst_stmt var value) i,
            Option.map (subst_expr var value) c,
            Option.map (subst_stmt var value) st,
            subst_stmt var value b )
    | Ast.Sreturn e -> Ast.Sreturn (Option.map (subst_expr var value) e)
    | Ast.Sblock ss -> Ast.Sblock (List.map (subst_stmt var value) ss)
  in
  { s with Ast.sdesc = d }

let rec stmt_size (s : Ast.stmt) : int =
  match s.Ast.sdesc with
  | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sexpr _ | Ast.Sreturn _ -> 1
  | Ast.Sif (_, t, e) ->
      1 + stmt_size t + (match e with None -> 0 | Some e -> stmt_size e)
  | Ast.Swhile (_, b) -> 1 + stmt_size b
  | Ast.Sfor (_, _, _, b) -> 2 + stmt_size b
  | Ast.Sblock ss -> List.fold_left (fun a s -> a + stmt_size s) 0 ss

(* ------------------------------------------------------------------ *)
(* The transformation (bottom-up)                                      *)

let rec unroll_stmt (s : Ast.stmt) : Ast.stmt =
  let d =
    match s.Ast.sdesc with
    | Ast.Sfor (init, cond, step, body) -> (
        let body = unroll_stmt body in
        match recognize init cond step with
        | Some l when var_safe l.var body -> (
            let values = trip_values l in
            let trips = List.length values in
            if
              trips > 0 && trips <= max_trips
              && trips * stmt_size body <= max_total_stmts
            then
              Ast.Sblock
                (List.map
                   (fun v ->
                     { Ast.sdesc = Ast.Sblock [ subst_stmt l.var v body ];
                       spos = s.Ast.spos })
                   values)
            else
              match (init, cond, step) with
              | _ ->
                  Ast.Sfor
                    ( Option.map unroll_stmt init,
                      cond,
                      Option.map unroll_stmt step,
                      body ))
        | _ ->
            Ast.Sfor
              ( Option.map unroll_stmt init,
                cond,
                Option.map unroll_stmt step,
                body ))
    | Ast.Swhile (c, b) -> Ast.Swhile (c, unroll_stmt b)
    | Ast.Sif (c, t, e) ->
        Ast.Sif (c, unroll_stmt t, Option.map unroll_stmt e)
    | Ast.Sblock ss -> Ast.Sblock (List.map unroll_stmt ss)
    | Ast.Sdecl _ | Ast.Sassign _ | Ast.Sexpr _ | Ast.Sreturn _ -> s.Ast.sdesc
  in
  { s with Ast.sdesc = d }

let run (prog : Ast.program) : Ast.program =
  List.map
    (function
      | Ast.Dglobal _ as d -> d
      | Ast.Dfunc f ->
          Ast.Dfunc
            { f with Ast.fd_body = List.map unroll_stmt f.Ast.fd_body })
    prog
