(** Minimal recursive-descent JSON reader and compact writer (see
    minijson.mli). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | 'r' -> Buffer.add_char b '\r'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with Failure _ -> fail "bad \\u escape"
                  in
                  (* our emitters only escape control chars; keep the
                     common Latin-1 range and replace the rest *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else Buffer.add_char b '?'
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              go ())
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          elements ();
          List (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

let parse_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> parse s
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Writer: compact single-line output, the reader's exact inverse.     *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_number b f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Minijson.encode: non-finite number"
  else if Float.is_integer f && Float.abs f < 0x1p53 then
    (* exact as an int: the digits %.0f prints, without its format
       interpreter; only the sign of -0 needs saying *)
    Buffer.add_string b
      (if Float.sign_bit f && f = 0. then "-0" else string_of_int (int_of_float f))
  else
    (* the shortest of %.15g..%.17g that reads back exactly; %.17g
       round-trips every finite double through float_of_string *)
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    Buffer.add_string b (shortest 15)

let encode (v : t) : string =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_number b f
    | Str s -> add_escaped b s
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_escaped b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (encode v)

let encode_rows = function
  | Obj fields ->
      let b = Buffer.create 4096 in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string b (if i = 0 then "\n  " else ",\n  ");
          add_escaped b k;
          Buffer.add_string b ": ";
          match v with
          | List (_ :: _ as items) ->
              Buffer.add_char b '[';
              List.iteri
                (fun j x ->
                  Buffer.add_string b (if j = 0 then "\n    " else ",\n    ");
                  Buffer.add_string b (encode x))
                items;
              Buffer.add_string b "\n  ]"
          | v -> Buffer.add_string b (encode v))
        fields;
      Buffer.add_string b "\n}";
      Buffer.contents b
  | v -> encode v

let write_with render path v =
  let oc = open_out path in
  output_string oc (render v);
  output_char oc '\n';
  close_out oc

let write_file = write_with encode
let write_rows = write_with encode_rows

let str s = Str s
let int n = Num (float_of_int n)
let float f = Num f
let bool b = Bool b
let obj fields = Obj fields
let list items = List items
let option f = function None -> Null | Some x -> f x

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
