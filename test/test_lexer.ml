(* Lexer unit tests. *)

open Jir

(* The list-scanning lexer the table-driven one replaced, kept verbatim
   as the reference the differential property compares against. *)
module Reference = struct
  open Lexer

  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

  let is_digit c = c >= '0' && c <= '9'

  let puncts2 =
    [ "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/=" ]

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
        emit (if List.mem s keywords then KW s else IDENT s) p
      end
      else if is_digit c then begin
        let p = pos !i in
        let start = !i in
        while !i < n && is_digit src.[!i] do incr i done;
        let s = String.sub src start (!i - start) in
        (match int_of_string_opt s with
         | Some v -> emit (INT v) p
         | None -> raise (Lex_error ("integer literal too large: " ^ s, p)))
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
        let two =
          if !i + 1 < n then Some (String.sub src !i 2) else None
        in
        match two with
        | Some s when List.mem s puncts2 -> emit (PUNCT s) p; i := !i + 2
        | _ ->
          (match c with
           | '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | '.' | '='
           | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '?' | ':'
           | '&' | '|' ->
             emit (PUNCT (String.make 1 c)) p; incr i
           | _ ->
             raise (Lex_error (Printf.sprintf "unexpected character %C" c, p)))
      end
    done;
    emit EOF (pos n);
    List.rev !toks
end

let toks src =
  List.map (fun l -> l.Lexer.tok) (Lexer.tokenize src)

let tok = Alcotest.testable Lexer.pp_token ( = )

let check_toks msg src expected =
  Alcotest.(check (list tok)) msg expected (toks src)

let test_idents_keywords () =
  check_toks "mix" "class Foo extends bar"
    [ KW "class"; IDENT "Foo"; KW "extends"; IDENT "bar"; EOF ]

let test_numbers () =
  check_toks "ints" "0 42 1234"
    [ INT 0; INT 42; INT 1234; EOF ]

let test_strings () =
  check_toks "plain" {|"hello"|} [ STRING "hello"; EOF ];
  check_toks "escapes" {|"a\nb\t\"q\""|} [ STRING "a\nb\t\"q\""; EOF ];
  check_toks "empty" {|""|} [ STRING ""; EOF ]

let test_chars () =
  check_toks "char" "'x'" [ CHAR 'x'; EOF ];
  check_toks "escaped" {|'\n'|} [ CHAR '\n'; EOF ]

let test_puncts () =
  check_toks "ops" "== != <= >= && || + - * / % = < > ! . , ; ( ) { } [ ]"
    [ PUNCT "=="; PUNCT "!="; PUNCT "<="; PUNCT ">="; PUNCT "&&"; PUNCT "||";
      PUNCT "+"; PUNCT "-"; PUNCT "*"; PUNCT "/"; PUNCT "%"; PUNCT "=";
      PUNCT "<"; PUNCT ">"; PUNCT "!"; PUNCT "."; PUNCT ","; PUNCT ";";
      PUNCT "("; PUNCT ")"; PUNCT "{"; PUNCT "}"; PUNCT "["; PUNCT "]"; EOF ]

let test_comments () =
  check_toks "line" "a // comment\nb" [ IDENT "a"; IDENT "b"; EOF ];
  check_toks "block" "a /* x\ny */ b" [ IDENT "a"; IDENT "b"; EOF ];
  check_toks "block with stars" "a /* ** */ b" [ IDENT "a"; IDENT "b"; EOF ]

let test_positions () =
  let located = Lexer.tokenize "a\n  b" in
  match located with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.pos.Ast.line;
    Alcotest.(check int) "b line" 2 b.Lexer.pos.Ast.line;
    Alcotest.(check int) "b col" 3 b.Lexer.pos.Ast.col
  | _ -> Alcotest.fail "expected three tokens"

let test_errors () =
  let lex_fails src =
    match Lexer.tokenize src with
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected lex error on %S" src
  in
  lex_fails "\"unterminated";
  lex_fails "/* unterminated";
  lex_fails "#"

(* ------------------------------------------------------------------ *)
(* Differential: the table-driven lexer against the reference          *)
(* ------------------------------------------------------------------ *)

(* tokens with positions, or the error message and position *)
let outcome tokenize src =
  match tokenize src with
  | toks ->
    Ok (List.map (fun (l : Lexer.token Lexer.located) -> (l.tok, l.pos)) toks)
  | exception Lexer.Lex_error (msg, pos) -> Error (msg, pos)

let same_as_reference src =
  outcome Lexer.tokenize src = outcome Reference.tokenize src

let operators1 =
  [ "{"; "}"; "("; ")"; "["; "]"; ";"; ","; "."; "="; "+"; "-"; "*"; "/";
    "%"; "<"; ">"; "!"; "?"; ":"; "&"; "|" ]

let operators2 =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/=" ]

(* one fragment of a token soup; fragments are glued with or without
   white space, so operators also meet and fuse across fragments *)
let fragment_gen =
  let open QCheck.Gen in
  let ident =
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (oneofl [ 'a'; 'z'; 'A'; 'Q'; '_'; '$' ])
      (string_size ~gen:(oneofl [ 'a'; 'k'; 'Z'; '0'; '9'; '_'; '$' ])
         (int_range 0 4))
  in
  let extended_keyword =
    map2 ( ^ ) (oneofl Lexer.keywords) (oneofl [ "y"; "_"; "2"; "X"; "$" ])
  in
  let string_lit =
    map
      (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
      (list_size (int_range 0 4)
         (oneofl
            [ "a"; " "; "\\n"; "\\t"; "\\r"; "\\\\"; "\\\""; "\\'"; "\\0";
              "\\q"; "'" ]))
  in
  frequency
    [ (4, oneofl Lexer.keywords);
      (3, extended_keyword);
      (1, oneofl [ "classy"; "do_"; "int2"; "newX" ]);
      (3, ident);
      (4, oneofl operators1);
      (4, oneofl operators2);
      (2, map string_of_int small_nat);
      (1,
       oneofl
         [ "007"; "4611686018427387903"; "4611686018427387904";
           "99999999999999999999" ]);
      (2, string_lit);
      (1, oneofl [ "\"open"; "\"line\nbreak\""; "\"\\" ]);
      (2,
       oneofl [ "'x'"; "'\\n'"; "'\\''"; "'\\0'"; "'\\\\'"; "' '"; "'\"'" ]);
      (1, oneofl [ "'\\q'"; "'ab'"; "'"; "'x"; "'\\" ]);
      (2,
       oneofl
         [ "// note\n"; "// to the end"; "/* c */"; "/* a\nb */";
           "/* ** */"; "/**/"; "/*/"; "/* open" ]);
      (1, oneofl [ "#"; "@"; "`"; "~"; "\\" ]) ]

let soup_gen =
  let open QCheck.Gen in
  let sep = oneofl [ ""; ""; " "; "\n"; "\t"; "\r\n" ] in
  map2
    (fun parts last -> String.concat "" (List.concat parts) ^ last)
    (list_size (int_range 0 24) (map2 (fun f s -> [ f; s ]) fragment_gen sep))
    (* end on an operator often: two-character lookahead at end of input *)
    (frequency [ (1, return ""); (1, oneofl (operators1 @ operators2)) ])

let prop_same_as_reference =
  QCheck.Test.make ~name:"table-driven lexer matches the reference"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") soup_gen)
    same_as_reference

let test_every_operator_and_keyword () =
  List.iter
    (fun src ->
       Alcotest.(check bool) (Printf.sprintf "%S" src) true
         (same_as_reference src))
    (Lexer.keywords @ operators1 @ operators2
     @ List.map (fun k -> k ^ "x") Lexer.keywords
     @ List.map (fun o -> "a" ^ o) (operators1 @ operators2))

(* the model JDK and every generated unit of the 25 apps *)
let test_generated_sources () =
  let apps = Workloads.Apps.table2 @ Workloads.Apps.contexts_apps in
  let sources =
    Models.Jdklib.sources
    @ List.concat_map
        (fun a ->
           (Workloads.Codegen.to_input (Workloads.Apps.generate a))
             .Core.Taj.app_sources)
        apps
  in
  List.iteri
    (fun i src ->
       if not (same_as_reference src) then
         Alcotest.failf "source %d lexes differently from the reference" i)
    sources

let suite =
  [ Alcotest.test_case "idents and keywords" `Quick test_idents_keywords;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "chars" `Quick test_chars;
    Alcotest.test_case "punctuation" `Quick test_puncts;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "every operator and keyword" `Quick
      test_every_operator_and_keyword;
    QCheck_alcotest.to_alcotest prop_same_as_reference;
    Alcotest.test_case "generated sources match the reference" `Quick
      test_generated_sources ]
