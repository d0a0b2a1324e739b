(** Hand-written lexer for MJava.

    Produces a token array in one pass; the parser indexes into it. Comments
    ([//] and [/* ... */]) and whitespace are skipped. Errors carry positions.
*)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | CHAR of char
  | KW of string          (* reserved word, kept as its spelling *)
  | PUNCT of string       (* operator or delimiter, kept as its spelling *)
  | EOF

type 'a located = { tok : 'a; pos : Ast.pos }

exception Lex_error of string * Ast.pos

let keywords =
  [ "class"; "interface"; "extends"; "implements"; "public"; "private";
    "protected"; "static"; "native"; "abstract"; "final"; "synchronized";
    "void"; "int"; "boolean"; "char"; "if"; "else"; "while"; "for"; "return";
    "new"; "this"; "super"; "null"; "true"; "false"; "try"; "catch"; "throw";
    "throws"; "break"; "continue"; "instanceof"; "switch"; "case"; "default";
    "do" ]

(* spelling -> the spelling itself, so a keyword token shares one string *)
let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k k) keywords;
  t

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* Operators and delimiters, spelled once each. A two-character operator
   is recognized from its two characters; [""] means "not one". *)
let punct2 c d =
  match c, d with
  | '=', '=' -> "==" | '!', '=' -> "!=" | '<', '=' -> "<=" | '>', '=' -> ">="
  | '&', '&' -> "&&" | '|', '|' -> "||" | '+', '+' -> "++" | '-', '-' -> "--"
  | '+', '=' -> "+=" | '-', '=' -> "-=" | '*', '=' -> "*=" | '/', '=' -> "/="
  | _ -> ""

let punct1 = function
  | '{' -> "{" | '}' -> "}" | '(' -> "(" | ')' -> ")" | '[' -> "["
  | ']' -> "]" | ';' -> ";" | ',' -> "," | '.' -> "." | '=' -> "="
  | '+' -> "+" | '-' -> "-" | '*' -> "*" | '/' -> "/" | '%' -> "%"
  | '<' -> "<" | '>' -> ">" | '!' -> "!" | '?' -> "?" | ':' -> ":"
  | '&' -> "&" | '|' -> "|"
  | _ -> ""

let tokenize (src : string) : token located list =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = { Ast.line = !line; col = i - !bol + 1 } in
  let toks = ref [] in
  let emit t p = toks := { tok = t; pos = p } :: !toks in
  let i = ref 0 in
  let newline at = incr line; bol := at + 1 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (newline !i; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let p = pos !i in
      i := !i + 2;
      let closed = ref false in
      while not !closed do
        if !i + 1 >= n then raise (Lex_error ("unterminated comment", p));
        if src.[!i] = '\n' then newline !i;
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true; i := !i + 2
        end else incr i
      done
    end
    else if is_ident_start c then begin
      let p = pos !i in
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      emit
        (match Hashtbl.find_opt keyword_table s with
         | Some k -> KW k
         | None -> IDENT s)
        p
    end
    else if is_digit c then begin
      let p = pos !i in
      let start = !i in
      (* the value as [int_of_string] reads the digits: at most [max_int] *)
      let v = ref 0 and overflow = ref false in
      while !i < n && is_digit src.[!i] do
        let d = Char.code src.[!i] - Char.code '0' in
        if !v > (max_int - d) / 10 then overflow := true
        else v := (!v * 10) + d;
        incr i
      done;
      if !overflow then begin
        let s = String.sub src start (!i - start) in
        raise (Lex_error ("integer literal too large: " ^ s, p))
      end;
      emit (INT !v) p
    end
    else if c = '"' then begin
      let p = pos !i in
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then raise (Lex_error ("unterminated string", p));
        (match src.[!i] with
         | '"' -> closed := true; incr i
         | '\\' ->
           if !i + 1 >= n then raise (Lex_error ("bad escape", p));
           (match src.[!i + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | '\'' -> Buffer.add_char buf '\''
            | '0' -> Buffer.add_char buf '\000'
            | e -> raise (Lex_error (Printf.sprintf "bad escape \\%c" e, p)));
           i := !i + 2
         | '\n' -> raise (Lex_error ("newline in string literal", p))
         | ch -> Buffer.add_char buf ch; incr i)
      done;
      emit (STRING (Buffer.contents buf)) p
    end
    else if c = '\'' then begin
      let p = pos !i in
      if !i + 2 >= n then raise (Lex_error ("unterminated char literal", p));
      let ch, len =
        if src.[!i + 1] = '\\' then
          (match src.[!i + 2] with
           | 'n' -> '\n', 4 | 't' -> '\t', 4 | 'r' -> '\r', 4
           | '\\' -> '\\', 4 | '\'' -> '\'', 4 | '0' -> '\000', 4
           | e -> raise (Lex_error (Printf.sprintf "bad escape \\%c" e, p)))
        else src.[!i + 1], 3
      in
      if !i + len - 1 >= n || src.[!i + len - 1] <> '\'' then
        raise (Lex_error ("unterminated char literal", p));
      emit (CHAR ch) p;
      i := !i + len
    end
    else begin
      let p = pos !i in
      let two = if !i + 1 < n then punct2 c src.[!i + 1] else "" in
      if two <> "" then (emit (PUNCT two) p; i := !i + 2)
      else
        match punct1 c with
        | "" ->
          raise (Lex_error (Printf.sprintf "unexpected character %C" c, p))
        | one -> emit (PUNCT one) p; incr i
    end
  done;
  emit EOF (pos n);
  List.rev !toks

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %s" s
  | INT v -> Fmt.pf ppf "integer %d" v
  | STRING s -> Fmt.pf ppf "string %S" s
  | CHAR c -> Fmt.pf ppf "char %C" c
  | KW s -> Fmt.pf ppf "keyword '%s'" s
  | PUNCT s -> Fmt.pf ppf "'%s'" s
  | EOF -> Fmt.string ppf "end of input"
