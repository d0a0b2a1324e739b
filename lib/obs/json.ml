(** The one JSON codec: every document the system writes or reads.

    The repository deliberately avoids new dependencies, so reports, the
    service's wire records, the cluster's frames and the metrics exports
    are built from this small self-contained parser and printer. It
    covers the full JSON value grammar (objects, arrays, strings with
    escapes, numbers, booleans, null); numbers are finite floats, which
    is exact for every count the system carries. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type cursor = { s : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') -> advance c; skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c; Buffer.contents buf
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> Buffer.add_char buf '"'; advance c
       | Some '\\' -> Buffer.add_char buf '\\'; advance c
       | Some '/' -> Buffer.add_char buf '/'; advance c
       | Some 'n' -> Buffer.add_char buf '\n'; advance c
       | Some 't' -> Buffer.add_char buf '\t'; advance c
       | Some 'r' -> Buffer.add_char buf '\r'; advance c
       | Some 'b' -> Buffer.add_char buf '\b'; advance c
       | Some 'f' -> Buffer.add_char buf '\012'; advance c
       | Some 'u' ->
         advance c;
         let hex4 () =
           if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
           match int_of_string_opt ("0x" ^ String.sub c.s c.pos 4) with
           | None -> fail c "bad \\u escape"
           | Some code -> c.pos <- c.pos + 4; code
         in
         let code = hex4 () in
         let code =
           (* surrogate pairs: a high surrogate must be followed by an
              escaped low surrogate, together encoding one supplementary
              code point; lone surrogates have no valid UTF-8 form *)
           if code >= 0xD800 && code <= 0xDBFF then begin
             if
               not
                 (c.pos + 2 <= String.length c.s
                  && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u')
             then fail c "lone high surrogate";
             c.pos <- c.pos + 2;
             let lo = hex4 () in
             if lo < 0xDC00 || lo > 0xDFFF then fail c "lone high surrogate";
             0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
           end
           else if code >= 0xDC00 && code <= 0xDFFF then
             fail c "lone low surrogate"
           else code
         in
         (* decode as UTF-8; the protocol only round-trips ASCII but
            arbitrary escapes must not corrupt the stream *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else if code < 0x10000 then begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf
             (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
           Buffer.add_char buf
             (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
           Buffer.add_char buf
             (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail c "bad escape");
      go ()
    | Some ch -> Buffer.add_char buf ch; advance c; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.s start (c.pos - start) in
  match float_of_string_opt s with
  (* a literal past the float range reads as an infinity, which no JSON
     document can carry back: reject it here rather than print [inf] *)
  | Some f when Float.is_finite f -> Num f
  | Some _ -> fail c "number out of range"
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; members ((k, v) :: acc)
        | Some '}' -> advance c; Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; Arr [] end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; elements (v :: acc)
        | Some ']' -> advance c; Arr (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' -> advance c; Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | ch when Char.code ch < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
       | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

(* The shortest of 15 and 17 significant digits that reads back to [f]:
   a number with at most six prints as ["%g"] would print it. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v)
           kvs)
    ^ "}"

let int n = Num (float_of_int n)

let seconds x = Num (Float.round (x *. 1000.) /. 1000.)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_str_opt = function Some (Str s) -> Some s | _ -> None
let to_num_opt = function Some (Num f) -> Some f | _ -> None

let to_int_opt v =
  match to_num_opt v with Some f -> Some (int_of_float f) | None -> None

let str_member k v = to_str_opt (member k v)
let num_member k v = to_num_opt (member k v)
let int_member k v = to_int_opt (member k v)
