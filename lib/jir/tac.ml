(** Three-address code: the register-transfer IR the analyses consume.

    Every method body is a CFG of basic blocks over an unbounded register
    file. Registers are integers; register 0..k-1 hold the formal parameters
    (register 0 is [this] for instance methods). After {!Ssa.convert} each
    register has a single static assignment and blocks carry phi functions.

    String values are "string carriers" (§4.2.1 of the paper): produced and
    combined only by [Const], [Move], [Strcat] and calls, never stored into
    the heap by the string library itself — the model JDK guarantees this by
    construction, which is what lets the analysis treat strings as primitive
    values. *)

type var = int

type const =
  | Cint of int
  | Cbool of bool
  | Cstr of string
  | Cchar of char
  | Cnull

(** A field reference, resolved to its declaring class. *)
type field = { fclass : string; fname : string }

(** An unresolved method reference as it appears at a call site. *)
type mref = { rclass : string; rname : string; rarity : int }

type call_kind =
  | Virtual   (** receiver-dispatched; args.(0) is the receiver *)
  | Special   (** constructor or super call; args.(0) is the receiver *)
  | Static

type call = {
  ret : var option;
  kind : call_kind;
  target : mref;
  args : var list;
  site : int;            (** globally unique call-site id *)
}

type instr =
  | Const of var * const
  | Move of var * var
  | Binop of var * Ast.binop * var * var
  | Unop of var * Ast.unop * var
  | New of var * string * int              (** v = new C; alloc-site id *)
  | New_array of var * Ast.typ * var * int (** v = new T[n]; alloc-site id *)
  | Load of var * var * field              (** v = o.f *)
  | Store of var * field * var             (** o.f = v *)
  | Sload of var * field                   (** v = C.f *)
  | Sstore of field * var                  (** C.f = v *)
  | Aload of var * var * var               (** v = a[i] *)
  | Astore of var * var * var              (** a[i] = v *)
  | Array_len of var * var
  | Call of call
  | Cast of var * Ast.typ * var
  | Instance_of of var * string * var
  | Strcat of var * var * var              (** v = a ++ b, taint-transparent *)
  | Catch_entry of var * string            (** v = caught exception of class *)
  | Nop

type terminator =
  | Goto of int
  | If of var * int * int                  (** cond, then-block, else-block *)
  | Return of var option
  | Throw of var
  | Unreachable                            (** filler for malformed tails *)

type phi = { phi_lhs : var; phi_args : (int * var) list }
(** [phi_args] pairs a predecessor block index with the incoming register. *)

type block = {
  mutable phis : phi list;
  mutable instrs : instr array;
  mutable term : terminator;
  mutable handlers : int list;
  (** exceptional successors: handler blocks covering this block *)
}

type meth = {
  m_id : string;                (** [id m_class m_name m_arity], built once *)
  m_class : string;
  m_name : string;
  m_arity : int;                (** number of formals incl. receiver *)
  m_static : bool;
  m_ret : Ast.typ;
  m_param_types : Ast.typ list;
  mutable m_blocks : block array;
  mutable m_nvars : int;
  m_synthetic : bool;           (** true for model/framework-generated code *)
  m_library : bool;             (** true for model-JDK code (LCP boundary) *)
  m_has_body : bool;            (** false for native/abstract declarations *)
}

(** The id of method [name] with [arity] formals in class [cls]:
    ["cls.name/arity"]. Every method and call-target id is built here. *)
let id cls name arity =
  String.concat "" [ cls; "."; name; "/"; string_of_int arity ]

let method_id (m : meth) = m.m_id

let mref_id (r : mref) = id r.rclass r.rname r.rarity

let pp_const ppf = function
  | Cint v -> Fmt.int ppf v
  | Cbool b -> Fmt.bool ppf b
  | Cstr s -> Fmt.pf ppf "%S" s
  | Cchar c -> Fmt.pf ppf "%C" c
  | Cnull -> Fmt.string ppf "null"

let pp_var ppf v = Fmt.pf ppf "%%%d" v

let pp_field ppf f = Fmt.pf ppf "%s.%s" f.fclass f.fname

let pp_instr ppf = function
  | Const (v, c) -> Fmt.pf ppf "%a = %a" pp_var v pp_const c
  | Move (d, s) -> Fmt.pf ppf "%a = %a" pp_var d pp_var s
  | Binop (d, op, a, b) ->
    Fmt.pf ppf "%a = %a %a %a" pp_var d pp_var a Ast.pp_binop op pp_var b
  | Unop (d, Ast.Neg, a) -> Fmt.pf ppf "%a = -%a" pp_var d pp_var a
  | Unop (d, Ast.Not, a) -> Fmt.pf ppf "%a = !%a" pp_var d pp_var a
  | New (d, c, site) -> Fmt.pf ppf "%a = new %s @%d" pp_var d c site
  | New_array (d, t, n, site) ->
    Fmt.pf ppf "%a = new %a[%a] @%d" pp_var d Ast.pp_typ t pp_var n site
  | Load (d, o, f) -> Fmt.pf ppf "%a = %a.%a" pp_var d pp_var o pp_field f
  | Store (o, f, v) -> Fmt.pf ppf "%a.%a = %a" pp_var o pp_field f pp_var v
  | Sload (d, f) -> Fmt.pf ppf "%a = static %a" pp_var d pp_field f
  | Sstore (f, v) -> Fmt.pf ppf "static %a = %a" pp_field f pp_var v
  | Aload (d, a, i) -> Fmt.pf ppf "%a = %a[%a]" pp_var d pp_var a pp_var i
  | Astore (a, i, v) -> Fmt.pf ppf "%a[%a] = %a" pp_var a pp_var i pp_var v
  | Array_len (d, a) -> Fmt.pf ppf "%a = %a.length" pp_var d pp_var a
  | Call c ->
    let pp_ret ppf = function
      | Some v -> Fmt.pf ppf "%a = " pp_var v
      | None -> ()
    in
    let kind = match c.kind with
      | Virtual -> "virtual" | Special -> "special" | Static -> "static"
    in
    Fmt.pf ppf "%a%s %s(%a) @%d" pp_ret c.ret kind (mref_id c.target)
      Fmt.(list ~sep:(any ", ") pp_var) c.args c.site
  | Cast (d, t, s) -> Fmt.pf ppf "%a = (%a) %a" pp_var d Ast.pp_typ t pp_var s
  | Instance_of (d, c, s) ->
    Fmt.pf ppf "%a = %a instanceof %s" pp_var d pp_var s c
  | Strcat (d, a, b) -> Fmt.pf ppf "%a = %a ++ %a" pp_var d pp_var a pp_var b
  | Catch_entry (v, c) -> Fmt.pf ppf "%a = catch %s" pp_var v c
  | Nop -> Fmt.string ppf "nop"

let pp_terminator ppf = function
  | Goto b -> Fmt.pf ppf "goto B%d" b
  | If (c, t, e) -> Fmt.pf ppf "if %a then B%d else B%d" pp_var c t e
  | Return None -> Fmt.string ppf "return"
  | Return (Some v) -> Fmt.pf ppf "return %a" pp_var v
  | Throw v -> Fmt.pf ppf "throw %a" pp_var v
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_meth ppf (m : meth) =
  Fmt.pf ppf "@[<v>method %s (%d vars)%s%s@," (method_id m) m.m_nvars
    (if m.m_static then " static" else "")
    (if m.m_library then " [lib]" else "");
  Array.iteri
    (fun i b ->
       Fmt.pf ppf "@[<v2>B%d:%s@," i
         (match b.handlers with
          | [] -> ""
          | hs ->
            Printf.sprintf " (handlers %s)"
              (String.concat "," (List.map string_of_int hs)));
       List.iter
         (fun p ->
            Fmt.pf ppf "%a = phi(%a)@," pp_var p.phi_lhs
              Fmt.(list ~sep:(any ", ")
                     (fun ppf (blk, v) -> pf ppf "B%d:%a" blk pp_var v))
              p.phi_args)
         b.phis;
       Array.iter (fun ins -> Fmt.pf ppf "%a@," pp_instr ins) b.instrs;
       Fmt.pf ppf "%a@]@," pp_terminator b.term)
    m.m_blocks;
  Fmt.pf ppf "@]"

(** Successor block indices on normal control flow (not exception edges). *)
let successors (b : block) =
  match b.term with
  | Goto t -> [ t ]
  | If (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Return _ | Throw _ | Unreachable -> []

(** All successors including exceptional edges to handlers. *)
let all_successors (b : block) =
  successors b @ b.handlers

(** Registers defined by an instruction. *)
let defs = function
  | Const (v, _) | Move (v, _) | Binop (v, _, _, _) | Unop (v, _, _)
  | New (v, _, _) | New_array (v, _, _, _) | Load (v, _, _) | Sload (v, _)
  | Aload (v, _, _) | Array_len (v, _) | Cast (v, _, _)
  | Instance_of (v, _, _) | Strcat (v, _, _) | Catch_entry (v, _) -> [ v ]
  | Call { ret = Some v; _ } -> [ v ]
  | Call { ret = None; _ } | Store _ | Sstore _ | Astore _ | Nop -> []

(** Registers used by an instruction. *)
let uses = function
  | Const _ | New _ | Sload _ | Catch_entry _ | Nop -> []
  | Move (_, s) | Unop (_, _, s) | Cast (_, _, s) | Instance_of (_, _, s)
  | Array_len (_, s) | New_array (_, _, s, _) -> [ s ]
  | Binop (_, _, a, b) | Strcat (_, a, b) -> [ a; b ]
  | Load (_, o, _) -> [ o ]
  | Store (o, _, v) -> [ o; v ]
  | Sstore (_, v) -> [ v ]
  | Aload (_, a, i) -> [ a; i ]
  | Astore (a, i, v) -> [ a; i; v ]
  | Call c -> c.args

let term_uses = function
  | If (c, _, _) -> [ c ]
  | Return (Some v) | Throw v -> [ v ]
  | Goto _ | Return None | Unreachable -> []
