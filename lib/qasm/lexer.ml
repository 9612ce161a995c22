type dialect = Paper | Openqasm

type token =
  | Ident of string
  | Int of int
  | Real of string
  | Str of string
  | Comma
  | Semi
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Arrow

type t = { token : token; line : int; col : int }

type error = { line : int; col : int; message : string }

let error_to_string (e : error) = Printf.sprintf "line %d:%d: %s" e.line e.col e.message

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'

(* The paper's mnemonics contain '-' (C-X) and its names may index with
   brackets; OpenQASM brackets are tokens of their own. *)
let is_ident_char dialect c =
  is_ident_start c || is_digit c
  || match dialect with Paper -> c = '-' || c = '[' || c = ']' | Openqasm -> c = '.'

let is_number_char dialect c = is_digit c || (dialect = Openqasm && c = '.')

let openqasm_keywords = [ "openqasm"; "include"; "qreg"; "creg"; "gate" ]

let skip_line src i =
  match String.index_from_opt src i '\n' with Some j -> j | None -> String.length src

(* Index just past the blanks and comments starting at [i]. *)
let rec skip_blanks src i =
  let n = String.length src in
  if i >= n then i
  else
    match src.[i] with
    | ' ' | '\t' | '\r' | '\n' -> skip_blanks src (i + 1)
    | '#' -> skip_blanks src (skip_line src i)
    | '/' when i + 1 < n && src.[i + 1] = '/' -> skip_blanks src (skip_line src i)
    | _ -> i

let detect src =
  let n = String.length src in
  let i = skip_blanks src 0 in
  let j = ref i in
  while !j < n && is_ident_char Openqasm src.[!j] do
    incr j
  done;
  if List.mem (String.lowercase_ascii (String.sub src i (!j - i))) openqasm_keywords then Openqasm
  else Paper

let tokenize dialect src =
  let n = String.length src in
  let span i p =
    let j = ref i in
    while !j < n && p src.[!j] do
      incr j
    done;
    !j
  in
  (* [line] is the current 1-based line, [bol] the index where it starts *)
  let rec go i line bol acc =
    if i >= n then Ok (List.rev acc)
    else
      let col = i - bol + 1 in
      let emit token j = go j line bol ({ token; line; col } :: acc) in
      let fail message = Error { line; col; message } in
      match src.[i] with
      | '\n' -> go (i + 1) (line + 1) (i + 1) acc
      | ' ' | '\t' | '\r' -> go (i + 1) line bol acc
      | '#' -> go (skip_line src i) line bol acc
      | '/' when i + 1 < n && src.[i + 1] = '/' -> go (skip_line src i) line bol acc
      | ',' -> emit Comma (i + 1)
      | c when is_digit c ->
          let j = span i (is_number_char dialect) in
          let text = String.sub src i (j - i) in
          emit (match int_of_string_opt text with Some v -> Int v | None -> Real text) j
      | c when is_ident_start c ->
          let j = span i (is_ident_char dialect) in
          emit (Ident (String.sub src i (j - i))) j
      | c when dialect = Paper -> fail (Printf.sprintf "unexpected character %C" c)
      | ';' -> emit Semi (i + 1)
      | '[' -> emit Lbracket (i + 1)
      | ']' -> emit Rbracket (i + 1)
      | '{' -> emit Lbrace (i + 1)
      | '}' -> emit Rbrace (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '>' -> emit Arrow (i + 2)
      | '"' -> (
          match String.index_from_opt src (i + 1) '"' with
          | None -> fail "unterminated string"
          | Some j ->
              let tok = { token = Str (String.sub src (i + 1) (j - i - 1)); line; col } in
              (* a string may span lines: keep counting them *)
              let line' = ref line and bol' = ref bol in
              for k = i + 1 to j - 1 do
                if src.[k] = '\n' then begin
                  incr line';
                  bol' := k + 1
                end
              done;
              go (j + 1) !line' !bol' (tok :: acc))
      | '(' | ')' -> fail "parameterized gates are not supported by this subset"
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  go 0 1 0 []
