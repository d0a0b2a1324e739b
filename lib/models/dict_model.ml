(** Constant-key modeling of hash dictionaries (§4.2.1).

    Calls like [m.put("k", v)] / [m.get("k")] on dictionary classes are
    interpreted as field stores/loads on the receiver, using one synthetic
    field per statically resolvable key. The encoding is both sound and
    precise for mixed constant/unknown keys:

    - a put with constant key [K] writes fields [$key_K] and [$all];
    - a put with an unknown key writes field [$any];
    - a get with constant key [K] reads [$key_K] and [$any];
    - a get with an unknown key reads [$any] and [$all].

    A constant-key get therefore sees every value that could have been stored
    under its key (constant put of the same key, or any unknown-key put) and
    nothing else — in particular not constant puts of a *different* key,
    which is the precision win of the paper's example. An unknown-key get
    conservatively sees everything. *)

open Jir

type key = Const_key of string | Unknown_key

type op =
  | Dict_put of { recv : Tac.var; key : key; value : Tac.var }
  | Dict_get of { dst : Tac.var; recv : Tac.var; key : key }

(* Matches, not list scans: every call the solver, the SDG builder and
   triage classify asks these. [is_dict_class] accepts exactly
   {!Jdklib.dictionary_classes}. *)
let is_dict_class = function
  | "HashMap" | "Hashtable" | "Map" | "Properties" | "HttpSession"
  | "HttpServletRequest" | "ServletContext" -> true
  | _ -> false

let is_put_name = function
  | "put" | "setAttribute" | "setProperty" -> true
  | _ -> false

let is_get_name = function
  | "get" | "getAttribute" | "getProperty" -> true
  | _ -> false

(** [classify ~const_of call] interprets a dictionary access. [const_of v]
    must return the string constant that register [v] is bound to, if any
    (callers derive it from SSA def sites). *)
let classify ~(const_of : Tac.var -> string option) (c : Tac.call) : op option =
  if not (is_dict_class c.Tac.target.Tac.rclass) then None
  else
    let key_of v =
      match const_of v with Some s -> Const_key s | None -> Unknown_key
    in
    match c.Tac.args with
    | [ recv; k; v ]
      when is_put_name c.Tac.target.Tac.rname && c.Tac.target.Tac.rarity = 3 ->
      Some (Dict_put { recv; key = key_of k; value = v })
    | [ recv; k ]
      when is_get_name c.Tac.target.Tac.rname && c.Tac.target.Tac.rarity = 2 ->
      (match c.Tac.ret with
       | Some dst -> Some (Dict_get { dst; recv; key = key_of k })
       | None -> None)
    | _ -> None

(** Fields written by a put with the given key. *)
let put_fields = function
  | Const_key k ->
    [ { Tac.fclass = "$Dict"; fname = "$key_" ^ k };
      { Tac.fclass = "$Dict"; fname = "$all" } ]
  | Unknown_key -> [ { Tac.fclass = "$Dict"; fname = "$any" } ]

(** Fields read by a get with the given key. *)
let get_fields = function
  | Const_key k ->
    [ { Tac.fclass = "$Dict"; fname = "$key_" ^ k };
      { Tac.fclass = "$Dict"; fname = "$any" } ]
  | Unknown_key ->
    [ { Tac.fclass = "$Dict"; fname = "$any" };
      { Tac.fclass = "$Dict"; fname = "$all" } ]

(** A [const_of] function for a method in SSA form. *)
let const_of_meth (m : Tac.meth) : Tac.var -> string option =
  let defs = Ssa.def_sites m in
  fun v ->
    if v < 0 || v >= Array.length defs then None
    else
      match defs.(v) with
      | Some (Ssa.Def_instr (b, i)) ->
        (match m.Tac.m_blocks.(b).Tac.instrs.(i) with
         | Tac.Const (_, Tac.Cstr s) -> Some s
         | _ -> None)
      | _ -> None
