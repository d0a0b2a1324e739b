(** Class hierarchy: registration, subtyping, field and method resolution.

    The table is built from parsed declarations before lowering. Virtual
    dispatch during call-graph construction asks {!dispatch} for the concrete
    implementation reached from a runtime receiver class. *)

type kind = Class_kind | Interface_kind

type minfo = {
  mi_class : string;       (* declaring class *)
  mi_name : string;
  mi_arity : int;          (* formals incl. receiver for instance methods *)
  mi_static : bool;
  mi_abstract : bool;
  mi_native : bool;
  mi_ret : Ast.typ;
  mi_params : Ast.typ list; (* declared parameter types, excl. receiver *)
}

type finfo = {
  fi_class : string;
  fi_name : string;
  fi_typ : Ast.typ;
  fi_static : bool;
}

type cls = {
  cl_name : string;
  cl_kind : kind;
  cl_super : string option;
  cl_ifaces : string list;
  cl_abstract : bool;
  cl_library : bool;
  cl_fields : (string, finfo) Hashtbl.t;
  cl_methods : (string * int, minfo) Hashtbl.t;
  mutable cl_ctor_arities : int list;
}

type t = {
  classes : (string, cls) Hashtbl.t;
  mutable subclass_cache : (string * string, bool) Hashtbl.t;
}

exception Hierarchy_error of string

let create () =
  { classes = Hashtbl.create 256; subclass_cache = Hashtbl.create 1024 }

let mem t name = Hashtbl.mem t.classes name

let find_opt t name = Hashtbl.find_opt t.classes name

let iter t f = Hashtbl.iter (fun _ c -> f c) t.classes

let all_classes t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []
  |> List.sort (fun a b -> String.compare a.cl_name b.cl_name)

(* [Hashtbl.copy] keeps the bucket layout, so the copy iterates in the
   source's order; the class records are shared, the memo is not. *)
let copy t =
  { classes = Hashtbl.copy t.classes; subclass_cache = Hashtbl.create 1024 }

(* The classes [base] lacks, oldest first within each bucket (see
   {!Program.delta}): re-adding them in this order to a copy of [base]
   rebuilds [t]'s layout. *)
let delta ~base t =
  Hashtbl.fold
    (fun name c acc -> if Hashtbl.mem base.classes name then acc else c :: acc)
    t.classes []

let extend t added =
  List.iter (fun c -> Hashtbl.add t.classes c.cl_name c) added;
  Hashtbl.reset t.subclass_cache

(* ------------------------------------------------------------------ *)
(* Registration                                                       *)
(* ------------------------------------------------------------------ *)

let arity_of_decl (m : Ast.method_decl) =
  let static = Ast.has_mod Ast.Static m.md_mods in
  List.length m.md_params + if static then 0 else 1

let add_decl t ~library (d : Ast.decl) =
  let name = Ast.decl_name d in
  if Hashtbl.mem t.classes name then
    raise (Hierarchy_error ("duplicate class " ^ name));
  let cls =
    match d with
    | Ast.Class c ->
      let fields = Hashtbl.create 8 in
      List.iter
        (fun (f : Ast.field_decl) ->
           Hashtbl.replace fields f.f_name
             { fi_class = name; fi_name = f.f_name; fi_typ = f.f_typ;
               fi_static = Ast.has_mod Ast.Static f.f_mods })
        c.c_fields;
      let methods = Hashtbl.create 8 in
      List.iter
        (fun (m : Ast.method_decl) ->
           let static = Ast.has_mod Ast.Static m.md_mods in
           let arity = arity_of_decl m in
           Hashtbl.replace methods (m.md_name, arity)
             { mi_class = name; mi_name = m.md_name; mi_arity = arity;
               mi_static = static;
               mi_abstract = Ast.has_mod Ast.Abstract m.md_mods
                             || m.md_body = None
                                && not (Ast.has_mod Ast.Native m.md_mods);
               mi_native = Ast.has_mod Ast.Native m.md_mods;
               mi_ret = m.md_ret;
               mi_params = List.map fst m.md_params })
        c.c_methods;
      let ctor_arities =
        match c.c_ctors with
        | [] -> [ 1 ]                       (* synthesized default ctor *)
        | ks -> List.map (fun (k : Ast.ctor_decl) -> List.length k.cd_params + 1) ks
      in
      List.iter
        (fun arity ->
           Hashtbl.replace methods ("<init>", arity)
             { mi_class = name; mi_name = "<init>"; mi_arity = arity;
               mi_static = false; mi_abstract = false; mi_native = false;
               mi_ret = Ast.Tvoid;
               mi_params = List.init (arity - 1) (fun _ -> Ast.Tclass "Object") })
        ctor_arities;
      { cl_name = name; cl_kind = Class_kind; cl_super = c.c_super;
        cl_ifaces = c.c_ifaces; cl_abstract = c.c_abstract;
        cl_library = library; cl_fields = fields; cl_methods = methods;
        cl_ctor_arities = ctor_arities }
    | Ast.Interface i ->
      let methods = Hashtbl.create 8 in
      List.iter
        (fun (m : Ast.method_decl) ->
           let arity = List.length m.md_params + 1 in
           Hashtbl.replace methods (m.md_name, arity)
             { mi_class = name; mi_name = m.md_name; mi_arity = arity;
               mi_static = false; mi_abstract = true; mi_native = false;
               mi_ret = m.md_ret; mi_params = List.map fst m.md_params })
        i.i_methods;
      { cl_name = name; cl_kind = Interface_kind; cl_super = None;
        cl_ifaces = i.i_supers; cl_abstract = true; cl_library = library;
        cl_fields = Hashtbl.create 1; cl_methods = methods;
        cl_ctor_arities = [] }
  in
  Hashtbl.replace t.classes name cls;
  Hashtbl.reset t.subclass_cache

(* ------------------------------------------------------------------ *)
(* Subtyping                                                          *)
(* ------------------------------------------------------------------ *)

(** [is_subclass t c d]: is class/interface [c] a subtype of [d]?
    Reflexive. Unknown classes are subtypes only of themselves and of
    "Object", keeping the analysis robust to partial programs. *)
let rec is_subclass t c d =
  if String.equal c d then true
  else if String.equal d "Object" then true
  else
    match Hashtbl.find_opt t.subclass_cache (c, d) with
    | Some r -> r
    | None ->
      let r =
        match Hashtbl.find_opt t.classes c with
        | None -> false
        | Some cls ->
          (match cls.cl_super with
           | Some s when is_subclass t s d -> true
           | _ -> List.exists (fun i -> is_subclass t i d) cls.cl_ifaces)
      in
      Hashtbl.replace t.subclass_cache (c, d) r;
      r

(** Concrete (non-abstract, non-interface) subtypes of [d], including [d]
    itself if concrete, sorted: exactly the classes [c] with
    [is_subclass t c d]. Used for framework modeling ("all compatible
    subtypes of ActionForm", §4.2.2) and CHA dispatch in the triage.

    Staged: [subtype_index t] indexes each supertype to its direct
    subtypes (over [cl_super] and [cl_ifaces]) in one pass over the
    table; each query then walks the descendants of [d] and is memoized.
    A supertype missing from the table still links its subtypes. The
    index is a snapshot of the table when it was built. *)
let subtype_index t : string -> string list =
  let children = Hashtbl.create (Hashtbl.length t.classes) in
  let concrete = ref [] in
  Hashtbl.iter
    (fun name c ->
       if c.cl_kind = Class_kind && not c.cl_abstract then
         concrete := name :: !concrete;
       Option.iter (fun s -> Hashtbl.add children s name) c.cl_super;
       List.iter (fun i -> Hashtbl.add children i name) c.cl_ifaces)
    t.classes;
  let all_concrete = List.sort String.compare !concrete in
  let memo = Hashtbl.create 64 in
  fun d ->
    if String.equal d "Object" then all_concrete
    else
      match Hashtbl.find_opt memo d with
      | Some subs -> subs
      | None ->
        let seen = Hashtbl.create 16 in
        let acc = ref [] in
        let rec walk c =
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            (match Hashtbl.find_opt t.classes c with
             | Some cls when cls.cl_kind = Class_kind && not cls.cl_abstract ->
               acc := c :: !acc
             | _ -> ());
            List.iter walk (Hashtbl.find_all children c)
          end
        in
        walk d;
        let subs = List.sort String.compare !acc in
        Hashtbl.add memo d subs;
        subs

(* ------------------------------------------------------------------ *)
(* Resolution                                                         *)
(* ------------------------------------------------------------------ *)

(** Resolve a field access [recv_class.name] to its declaring class. *)
let rec resolve_field t cls_name fname : finfo option =
  match Hashtbl.find_opt t.classes cls_name with
  | None -> None
  | Some c ->
    (match Hashtbl.find_opt c.cl_fields fname with
     | Some f -> Some f
     | None ->
       (match c.cl_super with
        | Some s -> resolve_field t s fname
        | None -> None))

(** Find the method declaration visible from [cls_name] (walking up the
    superclass chain, then interfaces). *)
let rec lookup_method t cls_name name arity : minfo option =
  match Hashtbl.find_opt t.classes cls_name with
  | None -> None
  | Some c ->
    (match Hashtbl.find_opt c.cl_methods (name, arity) with
     | Some m -> Some m
     | None ->
       let from_super =
         match c.cl_super with
         | Some s -> lookup_method t s name arity
         | None -> None
       in
       (match from_super with
        | Some _ as r -> r
        | None ->
          List.fold_left
            (fun acc i ->
               match acc with
               | Some _ -> acc
               | None -> lookup_method t i name arity)
            None c.cl_ifaces))

(** Virtual dispatch: the concrete implementation a receiver of runtime class
    [runtime_cls] executes for a call to [name/arity]. Walks only the
    superclass chain (interfaces carry no bodies). Returns the declaring
    class of the implementation. *)
let rec dispatch t runtime_cls name arity : minfo option =
  match Hashtbl.find_opt t.classes runtime_cls with
  | None -> None
  | Some c ->
    (match Hashtbl.find_opt c.cl_methods (name, arity) with
     | Some m when not m.mi_abstract -> Some m
     | _ ->
       (match c.cl_super with
        | Some s -> dispatch t s name arity
        | None -> None))

(** Static-call resolution: like dispatch but accepts abstract hits (the
    caller decides what to do with natives/abstract methods). *)
let resolve_static t cls_name name arity = lookup_method t cls_name name arity

(** All fields (own and inherited) of a class, outermost last. *)
let all_fields t cls_name =
  let rec go acc name =
    match Hashtbl.find_opt t.classes name with
    | None -> acc
    | Some c ->
      let own = Hashtbl.fold (fun _ f l -> f :: l) c.cl_fields [] in
      let acc = acc @ List.sort (fun a b -> String.compare a.fi_name b.fi_name) own in
      (match c.cl_super with Some s -> go acc s | None -> acc)
  in
  go [] cls_name
