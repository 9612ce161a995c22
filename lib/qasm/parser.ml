module L = Lexer

type error = { file : string option; line : int; col : int; message : string }

let error_to_string e =
  if e.line = 0 then e.message
  else
    match e.file with
    | Some f -> Printf.sprintf "%s:%d:%d: %s" f e.line e.col e.message
    | None -> Printf.sprintf "line %d:%d: %s" e.line e.col e.message

let error_of_string message = { file = None; line = 0; col = 0; message }

let err (t : L.t) fmt =
  Printf.ksprintf (fun message -> Error { file = None; line = t.line; col = t.col; message }) fmt

let ( let* ) = Result.bind

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_result f rest

(* The program under construction, shared by both grammars. *)
type acc = {
  index : (string, int) Hashtbl.t;  (* qubit name -> index *)
  mutable names_rev : string list;
  mutable instrs_rev : Instr.t list;
  mutable qubits : int;
}

let acc () = { index = Hashtbl.create 16; names_rev = []; instrs_rev = []; qubits = 0 }
let emit a instr = a.instrs_rev <- instr :: a.instrs_rev

let declare a name init =
  let q = a.qubits in
  Hashtbl.replace a.index name q;
  a.names_rev <- name :: a.names_rev;
  a.qubits <- q + 1;
  emit a (Instr.Qubit_decl { qubit = q; init });
  q

let finish ~name a =
  Result.map_error error_of_string
    (Program.make ~name
       ~qubit_names:(Array.of_list (List.rev a.names_rev))
       ~instrs:(List.rev a.instrs_rev))

(* ------------------------------------------------------- paper dialect *)

(* One instruction per line:
     QUBIT name [, 0|1]  |  mnemonic1 name  |  mnemonic2 name , name *)
let paper_instruction a (toks : L.t list) =
  let head = List.hd toks in
  let lookup (t : L.t) name =
    match Hashtbl.find_opt a.index name with
    | Some q -> Ok q
    | None -> err t "undeclared qubit %s" name
  in
  let qubit_decl (t : L.t) name init =
    if Hashtbl.mem a.index name then err t "qubit %s declared twice" name
    else Ok (ignore (declare a name init))
  in
  match toks with
  | { L.token = L.Ident kw; _ } :: rest when String.uppercase_ascii kw = "QUBIT" -> (
      match rest with
      | [ ({ L.token = L.Ident name; _ } as n) ] -> qubit_decl n name None
      | [
       ({ L.token = L.Ident name; _ } as n); { L.token = L.Comma; _ }; ({ L.token = L.Int v; _ } as i);
      ] ->
          if v <> 0 && v <> 1 then err i "qubit initializer must be 0 or 1, got %d" v
          else qubit_decl n name (Some v)
      | [ { L.token = L.Ident _; _ }; { L.token = L.Comma; _ }; ({ L.token = L.Real s; _ } as i) ] ->
          err i "qubit initializer must be 0 or 1, got %s" s
      | _ -> err head "malformed QUBIT declaration")
  | [ { L.token = L.Ident mnemonic; _ }; ({ L.token = L.Ident q; _ } as qt) ] -> (
      match Gate.g1_of_name mnemonic with
      | Some g ->
          let* qi = lookup qt q in
          Ok (emit a (Instr.Gate1 (g, qi)))
      | None ->
          if Gate.g2_of_name mnemonic <> None then err head "%s expects two operands" mnemonic
          else err head "unknown gate %s" mnemonic)
  | [
   { L.token = L.Ident mnemonic; _ };
   ({ L.token = L.Ident qa; _ } as at);
   { L.token = L.Comma; _ };
   ({ L.token = L.Ident qb; _ } as bt);
  ] -> (
      match Gate.g2_of_name mnemonic with
      | Some g ->
          let* ia = lookup at qa in
          let* ib = lookup bt qb in
          if ia = ib then err bt "two-qubit gate with identical operands %s" qa
          else Ok (emit a (Instr.Gate2 (g, ia, ib)))
      | None ->
          if Gate.g1_of_name mnemonic <> None then err head "%s expects one operand" mnemonic
          else err head "unknown gate %s" mnemonic)
  | _ -> err head "malformed instruction"

let parse_paper ~name tokens =
  let a = acc () in
  (* the tokens of one source line, and the rest *)
  let split_line (first : L.t) toks =
    let rec go line = function
      | (t : L.t) :: rest when t.line = first.line -> go (t :: line) rest
      | rest -> (List.rev line, rest)
    in
    go [] toks
  in
  let rec go = function
    | [] -> finish ~name a
    | first :: _ as toks ->
        let line, rest = split_line first toks in
        let* () = paper_instruction a line in
        go rest
  in
  go tokens

(* ---------------------------------------------------- OpenQASM 2.0 subset *)

type macro = { params : string list; body : L.t list list (* statements *) }

type registers = {
  prog : acc;
  qregs : (string, int array) Hashtbl.t;  (* register -> qubit indices *)
  cregs : (string, int) Hashtbl.t;  (* register -> size *)
  macros : (string, macro) Hashtbl.t;  (* lower-cased name -> definition *)
  mutable steps : int;  (* statements run, macro bodies included *)
}

(* Bounds on what a short source may ask for: register sizes and nested
   macro expansion would otherwise grow a program, or the work of
   expanding it, without limit.  Steps bound the work, so macros that
   emit nothing are stopped too. *)
let max_qubits = 1 lsl 16
let max_steps = 1 lsl 20
let max_macro_depth = 16

(* the tokens before the first [tok], and those after it *)
let break_at tok toks =
  let rec go before = function
    | (t : L.t) :: rest when t.token = tok -> Some (List.rev before, rest)
    | t :: rest -> go (t :: before) rest
    | [] -> None
  in
  go [] toks

let split_on tok toks =
  let rec go parts toks =
    match break_at tok toks with
    | Some (x, rest) -> go (x :: parts) rest
    | None -> List.rev (toks :: parts)
  in
  go [] toks

(* ';'-terminated statements, empty ones dropped *)
let statements toks = List.filter (fun s -> s <> []) (split_on L.Semi toks)

let operands = function [] -> [] | toks -> split_on L.Comma toks

(* hoist `gate name a,b { ... }` definitions out of the token stream *)
let extract_macros tokens =
  let macros = Hashtbl.create 4 in
  let rec go kept = function
    | [] -> Ok (List.rev kept, macros)
    | ({ L.token = L.Ident kw; _ } as gate) :: rest when String.lowercase_ascii kw = "gate" -> (
        let rec header params = function
          | { L.token = L.Ident p; _ } :: more -> header (p :: params) more
          | { L.token = L.Comma; _ } :: more -> header params more
          | { L.token = L.Lbrace; _ } :: more -> Ok (List.rev params, more)
          | t :: _ -> err t "malformed gate definition header"
          | [] -> err gate "gate definition missing '{'"
        in
        match rest with
        | { L.token = L.Ident name; _ } :: more -> (
            let* params, more = header [] more in
            match break_at L.Rbrace more with
            | None -> err gate "gate definition missing '}'"
            | Some _ when params = [] -> err gate "gate %s takes no qubits" name
            | Some (body, tail) ->
                Hashtbl.replace macros (String.lowercase_ascii name)
                  { params; body = statements body };
                go kept tail)
        | _ -> err gate "gate definition needs a name")
    | t :: rest -> go (t :: kept) rest
  in
  go [] tokens

(* [head] locates an empty reference *)
let qubit_ref r (head : L.t) = function
  | [
      ({ L.token = L.Ident reg; _ } as rt);
      { L.token = L.Lbracket; _ };
      ({ L.token = L.Int idx; _ } as it);
      { L.token = L.Rbracket; _ };
    ] -> (
      match Hashtbl.find_opt r.qregs reg with
      | None -> err rt "unknown quantum register %s" reg
      | Some qubits ->
          if idx >= Array.length qubits then err it "index %d out of range for %s" idx reg
          else Ok qubits.(idx))
  | [ ({ L.token = L.Ident reg; _ } as rt) ] ->
      if Hashtbl.mem r.qregs reg then
        err rt "whole-register gate broadcast on %s is outside the supported subset" reg
      else err rt "unknown quantum register %s" reg
  | t :: _ -> err t "expected a qubit reference like q[0]"
  | [] -> err head "expected a qubit reference like q[0]"

let rec openqasm_statement r depth = function
  | [] -> Ok ()
  | head :: _ when r.steps >= max_steps ->
      err head "expansion takes the program past %d statements" max_steps
  | ({ L.token = L.Ident kw; _ } as head) :: rest -> (
      r.steps <- r.steps + 1;
      let gate1 g operand =
        let* q = qubit_ref r head operand in
        Ok (emit r.prog (Instr.Gate1 (g, q)))
      in
      match String.lowercase_ascii kw with
      | "openqasm" -> (
          (* version header: OPENQASM 2.0; *)
          match rest with
          | [ { L.token = L.Real _ | L.Int _; _ } ] | [] -> Ok ()
          | _ -> err head "malformed OPENQASM header")
      | "include" | "barrier" -> Ok () (* ordering comes from data dependence *)
      | ("qreg" | "creg") as kind -> (
          match rest with
          | [
           ({ L.token = L.Ident reg; _ } as rt);
           { L.token = L.Lbracket; _ };
           ({ L.token = L.Int size; _ } as st);
           { L.token = L.Rbracket; _ };
          ] ->
              if size <= 0 then err st "register %s must have positive size" reg
              else if Hashtbl.mem r.qregs reg || Hashtbl.mem r.cregs reg then
                err rt "register %s declared twice" reg
              else if kind = "creg" then Ok (Hashtbl.replace r.cregs reg size)
              else if size > max_qubits - r.prog.qubits then
                err st "register %s takes the program past %d qubits" reg max_qubits
              else begin
                let qubits =
                  Array.init size (fun i -> declare r.prog (Printf.sprintf "%s[%d]" reg i) (Some 0))
                in
                Ok (Hashtbl.replace r.qregs reg qubits)
              end
          | _ -> err head "malformed register declaration")
      | "measure" -> (
          (* measure q[i] -> c[j] *)
          match break_at L.Arrow rest with
          | None -> err head "measure needs '->'"
          | Some (qtoks, ctoks) -> (
              let* q = qubit_ref r head qtoks in
              match ctoks with
              | [
               { L.token = L.Ident creg; _ };
               { L.token = L.Lbracket; _ };
               { L.token = L.Int _; _ };
               { L.token = L.Rbracket; _ };
              ]
                when Hashtbl.mem r.cregs creg ->
                  Ok (emit r.prog (Instr.Gate1 (Gate.Meas_z, q)))
              | t :: _ -> err t "measure target must be a declared classical bit"
              | [] -> err head "measure target must be a declared classical bit"))
      | "reset" -> gate1 Gate.Prep_z rest
      | name -> (
          match (Gate.g1_of_name name, Gate.g2_of_name name) with
          | Some g, _ -> gate1 g rest
          | None, Some g -> (
              match operands rest with
              | [ a; b ] ->
                  let* qa = qubit_ref r head a in
                  let* qb = qubit_ref r head b in
                  if qa = qb then err (List.hd b) "%s with identical operands" name
                  else Ok (emit r.prog (Instr.Gate2 (g, qa, qb)))
              | _ -> err head "%s expects two operands" name)
          | None, None -> (
              match Hashtbl.find_opt r.macros name with
              | None -> err head "unsupported statement or gate %S" name
              | Some { params; body } ->
                  let operands = operands rest in
                  if depth >= max_macro_depth then
                    err head "gate %s: expansion too deep (recursive?)" name
                  else if List.length operands <> List.length params then
                    err head "gate %s expects %d operand(s)" name (List.length params)
                  else
                    let binding = List.combine params operands in
                    (* an actual operand takes the position of the formal
                       it replaces *)
                    let substitute =
                      List.concat_map (fun (t : L.t) ->
                          match t.token with
                          | L.Ident p -> (
                              match List.assoc_opt p binding with
                              | Some actual ->
                                  List.map (fun (x : L.t) -> { x with line = t.line; col = t.col }) actual
                              | None -> [ t ])
                          | _ -> [ t ])
                    in
                    iter_result (fun stmt -> openqasm_statement r (depth + 1) (substitute stmt)) body)))
  | ({ L.token = L.Real _; _ } as t) :: _ ->
      err t "real literals are not supported (parameterized gates are outside the subset)"
  | t :: _ -> err t "malformed statement"

let parse_openqasm ~name tokens =
  let* tokens, macros = extract_macros tokens in
  let r = { prog = acc (); qregs = Hashtbl.create 4; cregs = Hashtbl.create 4; macros; steps = 0 } in
  let* () = iter_result (openqasm_statement r 0) (statements tokens) in
  finish ~name r.prog

(* ------------------------------------------------------------ front end *)

let parse_located ?file ?(name = "qasm") src =
  let dialect = L.detect src in
  let result =
    match L.tokenize dialect src with
    | Error { L.line; col; message } -> Error { file = None; line; col; message }
    | Ok tokens -> (
        match dialect with
        | L.Paper -> parse_paper ~name tokens
        | L.Openqasm -> parse_openqasm ~name tokens)
  in
  Result.map_error (fun e -> { e with file }) result

let parse ?name src = Result.map_error error_to_string (parse_located ?name src)

let parse_file_located path =
  match Ion_util.File.read path with
  | Error message -> Error { file = Some path; line = 0; col = 0; message }
  | Ok src -> parse_located ~file:path ~name:(Filename.remove_extension (Filename.basename path)) src

let parse_file path = Result.map_error error_to_string (parse_file_located path)
