(* Minimal JSON reader for the exporter's self-check.  The repo
   deliberately has no JSON dependency; this recursive-descent parser is
   enough to validate what Export writes (and what CI feeds back in).
   It accepts standard JSON only — raw control characters inside strings
   and [\u] escapes that are not four hex digits are rejected — and
   parses numbers as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail "expected '%c' at %d, got '%c'" c st.pos c'
  | None -> fail "expected '%c' at %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then (
    st.pos <- st.pos + n;
    v)
  else fail "invalid literal at %d" st.pos

let is_hex = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let escape () =
    st.pos <- st.pos + 1;
    match peek st with
    | None -> fail "unterminated escape at %d" st.pos
    | Some c ->
      st.pos <- st.pos + 1;
      (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then
            fail "truncated \\u escape at %d" st.pos;
          let hex = String.sub st.src st.pos 4 in
          (* Exactly four hex digits: [int_of_string] alone would also
             take OCaml's digit separators ("1_23"). *)
          if not (String.for_all is_hex hex) then
            fail "bad \\u escape at %d" st.pos;
          let code = int_of_string ("0x" ^ hex) in
          st.pos <- st.pos + 4;
          (* Encode the code point as UTF-8; surrogates are kept as-is
             bytes-wise, which is fine for validation purposes. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then (
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
          else (
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
      | c -> fail "bad escape '\\%c' at %d" c st.pos)
  in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      escape ();
      go ()
    | Some c when Char.code c < 0x20 ->
      fail "raw control character 0x%02x in string at %d" (Char.code c) st.pos
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "bad number %S at %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at %d" st.pos
  | Some '{' -> parse_obj st
  | Some '[' -> parse_arr st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail "unexpected '%c' at %d" c st.pos

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then (
    st.pos <- st.pos + 1;
    Obj [])
  else
    let rec members acc =
      skip_ws st;
      let k = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        st.pos <- st.pos + 1;
        members ((k, v) :: acc)
      | Some '}' ->
        st.pos <- st.pos + 1;
        Obj (List.rev ((k, v) :: acc))
      | _ -> fail "expected ',' or '}' at %d" st.pos
    in
    members []

and parse_arr st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then (
    st.pos <- st.pos + 1;
    Arr [])
  else
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        st.pos <- st.pos + 1;
        elements (v :: acc)
      | Some ']' ->
        st.pos <- st.pos + 1;
        Arr (List.rev (v :: acc))
      | _ -> fail "expected ',' or ']' at %d" st.pos
    in
    elements []

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then
    fail "trailing garbage at %d" st.pos;
  v

let of_string src =
  match parse src with v -> Ok v | exception Parse_error m -> Error m

(* Accessors used by the validator. *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None
