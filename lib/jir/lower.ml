(** Lowering from MJava AST to three-address code.

    Beyond the routine translation, this phase implements the paper's
    string-carrier treatment (§4.2.1): calls on receivers of static type
    [String] are replaced by primitive [Strcat]/[Move]/[Const] operations, so
    strings never need to be tracked through the heap by the pointer
    analysis. [StringBuffer]/[StringBuilder] are ordinary model-JDK classes
    whose bodies bottom out in [String] intrinsics.

    Implicit constructor chaining, default constructors, instance field
    initializers and per-class [<clinit>] methods are synthesized here. *)

open Ast

exception Lower_error of string * pos

let errorf pos fmt = Fmt.kstr (fun s -> raise (Lower_error (s, pos))) fmt

(* ------------------------------------------------------------------ *)
(* Block builders                                                     *)
(* ------------------------------------------------------------------ *)

type bbuilder = {
  mutable rinstrs : Tac.instr list;        (* reversed *)
  mutable term : Tac.terminator option;
  mutable bhandlers : int list;
}

type env = {
  prog : Program.t;
  cls : string;
  meth_id : string;
  is_static : bool;
  library : bool;
  synthetic : bool;
  mutable nvars : int;
  locals : (string, Tac.var * typ) Hashtbl.t;
  mutable blocks : bbuilder array;
  mutable nblocks : int;
  mutable cur : int;
  mutable loop_stack : (int * int) list;   (* (break target, continue target) *)
  mutable handlers : int list list;        (* stack of active handler groups *)
}

let fresh_var env =
  let v = env.nvars in
  env.nvars <- v + 1;
  v

let new_block env =
  if env.nblocks = Array.length env.blocks then begin
    let bigger =
      Array.init (2 * env.nblocks + 4) (fun i ->
          if i < env.nblocks then env.blocks.(i)
          else { rinstrs = []; term = None; bhandlers = [] })
    in
    env.blocks <- bigger
  end;
  let idx = env.nblocks in
  env.blocks.(idx) <-
    { rinstrs = []; term = None;
      bhandlers = List.concat env.handlers };
  env.nblocks <- idx + 1;
  idx

let emit env ins =
  let b = env.blocks.(env.cur) in
  if b.term = None then b.rinstrs <- ins :: b.rinstrs

let set_term env t =
  let b = env.blocks.(env.cur) in
  if b.term = None then b.term <- Some t

let terminated env = env.blocks.(env.cur).term <> None

(* Jump to a fresh block and make it current. *)
let start_block env idx =
  env.cur <- idx

(* ------------------------------------------------------------------ *)
(* Best-effort expression typing                                      *)
(* ------------------------------------------------------------------ *)

let rec typeof env (e : expr) : typ option =
  match e.e with
  | Int_lit _ -> Some Tint
  | Bool_lit _ -> Some Tbool
  | Char_lit _ -> Some Tchar
  | Str_lit _ -> Some (Tclass "String")
  | Null_lit -> Some (Tclass "Object")
  | This -> Some (Tclass env.cls)
  | Var name ->
    (match Hashtbl.find_opt env.locals name with
     | Some (_, t) -> Some t
     | None ->
       (match Classtable.resolve_field env.prog.Program.table env.cls name with
        | Some f -> Some f.fi_typ
        | None -> None))
  | Field_access (o, f) ->
    (match typeof env o with
     | Some (Tarray _) when String.equal f "length" -> Some Tint
     | Some (Tclass c) ->
       (match Classtable.resolve_field env.prog.Program.table c f with
        | Some fi -> Some fi.fi_typ
        | None -> None)
     | _ -> None)
  | Static_field (c, f) ->
    (match Classtable.resolve_field env.prog.Program.table c f with
     | Some fi -> Some fi.fi_typ
     | None -> None)
  | Array_index (a, _) ->
    (match typeof env a with
     | Some (Tarray t) -> Some t
     | _ -> None)
  | Array_length _ -> Some Tint
  | Call c -> typeof_call env c
  | New (c, _) -> Some (Tclass c)
  | New_array (t, _) | New_array_init (t, _) -> Some (Tarray t)
  | Class_lit _ -> Some (Tclass "Class")
  | Binary ((Add | Sub | Mul | Div | Mod), a, b) ->
    if is_stringy env a || is_stringy env b then Some (Tclass "String")
    else Some Tint
  | Binary ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) -> Some Tbool
  | Unary (Neg, _) -> Some Tint
  | Unary (Not, _) -> Some Tbool
  | Cast (t, _) -> Some t
  | Instance_of _ -> Some Tbool
  | Assign (_, rhs) -> typeof env rhs
  | Cond (_, a, b) ->
    (match typeof env a with Some _ as r -> r | None -> typeof env b)

and is_stringy env e =
  match e.e with
  | Str_lit _ -> true
  | _ -> (match typeof env e with
          | Some (Tclass "String") -> true
          | _ -> false)

and typeof_call env (c : call) : typ option =
  let table = env.prog.Program.table in
  let lookup cls arity =
    Classtable.lookup_method table cls c.mname arity
  in
  let nargs = List.length c.args in
  match c.recv with
  | Implicit ->
    (match lookup env.cls (nargs + 1) with
     | Some mi -> Some mi.mi_ret
     | None ->
       (match lookup env.cls nargs with
        | Some mi -> Some mi.mi_ret
        | None -> None))
  | Super ->
    (match Classtable.find_opt table env.cls with
     | Some { cl_super = Some s; _ } ->
       (match lookup s (nargs + 1) with
        | Some mi -> Some mi.mi_ret
        | None -> None)
     | _ -> None)
  | Cls cls ->
    (match lookup cls nargs with
     | Some mi -> Some mi.mi_ret
     | None ->
       (match lookup cls (nargs + 1) with
        | Some mi -> Some mi.mi_ret
        | None -> None))
  | On o ->
    (match typeof env o with
     | Some (Tclass cls) ->
       (match lookup cls (nargs + 1) with
        | Some mi -> Some mi.mi_ret
        | None -> None)
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* String-carrier intrinsics (§4.2.1)                                 *)
(* ------------------------------------------------------------------ *)

let default_const_for = function
  | Tint -> Tac.Cint 0
  | Tbool -> Tac.Cbool true
  | Tchar -> Tac.Cchar ' '
  | _ -> Tac.Cnull

(* [lower_string_intrinsic env ret_typ recv args] models a call on a
   receiver of static type String: a String-returning method yields a value
   derived from the receiver and every String-typed argument; any other
   return type yields an opaque constant. Returns the result register. *)
let lower_string_intrinsic env ~(ret : typ) ~recv ~(string_args : Tac.var list) =
  match ret with
  | Tclass "String" | Tclass "Object" ->
    let folded =
      List.fold_left
        (fun acc a ->
           let d = fresh_var env in
           emit env (Tac.Strcat (d, acc, a));
           d)
        recv string_args
    in
    let d = fresh_var env in
    emit env (Tac.Move (d, folded));
    d
  | t ->
    let d = fresh_var env in
    emit env (Tac.Const (d, default_const_for t));
    d

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                *)
(* ------------------------------------------------------------------ *)

let resolve_field_or env pos cls fname =
  match Classtable.resolve_field env.prog.Program.table cls fname with
  | Some fi -> { Tac.fclass = fi.fi_class; fname = fi.fi_name }
  | None ->
    if Classtable.mem env.prog.Program.table cls then
      errorf pos "unknown field %s.%s" cls fname
    else { Tac.fclass = "Object"; fname }

let rec lower_expr env (e : expr) : Tac.var =
  match e.e with
  | Int_lit v ->
    let d = fresh_var env in emit env (Tac.Const (d, Tac.Cint v)); d
  | Bool_lit b ->
    let d = fresh_var env in emit env (Tac.Const (d, Tac.Cbool b)); d
  | Char_lit c ->
    let d = fresh_var env in emit env (Tac.Const (d, Tac.Cchar c)); d
  | Str_lit s ->
    let d = fresh_var env in emit env (Tac.Const (d, Tac.Cstr s)); d
  | Null_lit ->
    let d = fresh_var env in emit env (Tac.Const (d, Tac.Cnull)); d
  | This ->
    if env.is_static then errorf e.epos "'this' in static context";
    0
  | Var name -> lower_var_read env e.epos name
  | Field_access (o, f) ->
    (match typeof env o, f with
     | Some (Tarray _), "length" ->
       let a = lower_expr env o in
       let d = fresh_var env in
       emit env (Tac.Array_len (d, a));
       d
     | ot, _ ->
       let cls = match ot with Some (Tclass c) -> c | _ -> "Object" in
       let ov = lower_expr env o in
       let fld = resolve_field_or env e.epos cls f in
       let d = fresh_var env in
       emit env (Tac.Load (d, ov, fld));
       d)
  | Static_field (c, f) ->
    let fld = resolve_field_or env e.epos c f in
    let d = fresh_var env in
    emit env (Tac.Sload (d, fld));
    d
  | Array_index (a, i) ->
    let av = lower_expr env a in
    let iv = lower_expr env i in
    let d = fresh_var env in
    emit env (Tac.Aload (d, av, iv));
    d
  | Array_length a ->
    let av = lower_expr env a in
    let d = fresh_var env in
    emit env (Tac.Array_len (d, av));
    d
  | Call c -> lower_call env e.epos c
  | New (c, args) -> lower_new env e.epos c args
  | New_array (t, len) ->
    let lv = lower_expr env len in
    let d = fresh_var env in
    let site =
      Program.fresh_site env.prog ~meth:env.meth_id
        ~kind:(Program.Alloc_site (Fmt.str "%a[]" pp_typ t))
    in
    emit env (Tac.New_array (d, t, lv, site));
    d
  | New_array_init (t, elems) ->
    let lv = fresh_var env in
    emit env (Tac.Const (lv, Tac.Cint (List.length elems)));
    let d = fresh_var env in
    let site =
      Program.fresh_site env.prog ~meth:env.meth_id
        ~kind:(Program.Alloc_site (Fmt.str "%a[]" pp_typ t))
    in
    emit env (Tac.New_array (d, t, lv, site));
    List.iteri
      (fun i elem ->
         let iv = fresh_var env in
         emit env (Tac.Const (iv, Tac.Cint i));
         let ev = lower_expr env elem in
         emit env (Tac.Astore (d, iv, ev)))
      elems;
    d
  | Class_lit name ->
    (* Foo.class lowers to Class.forName("Foo"): the reflection pass then
       resolves it like any constant forName *)
    let sv = fresh_var env in
    emit env (Tac.Const (sv, Tac.Cstr name));
    let target = { Tac.rclass = "Class"; rname = "forName"; rarity = 1 } in
    let site =
      Program.fresh_site env.prog ~meth:env.meth_id
        ~kind:(Program.Call_site target)
    in
    let d = fresh_var env in
    emit env
      (Tac.Call { ret = Some d; kind = Tac.Static; target; args = [ sv ]; site });
    d
  | Binary (Add, a, b) when is_stringy env a || is_stringy env b ->
    let av = lower_expr env a in
    let bv = lower_expr env b in
    let d = fresh_var env in
    emit env (Tac.Strcat (d, av, bv));
    d
  | Binary (op, a, b) ->
    let av = lower_expr env a in
    let bv = lower_expr env b in
    let d = fresh_var env in
    emit env (Tac.Binop (d, op, av, bv));
    d
  | Unary (op, a) ->
    let av = lower_expr env a in
    let d = fresh_var env in
    emit env (Tac.Unop (d, op, av));
    d
  | Cast (t, a) ->
    let av = lower_expr env a in
    let d = fresh_var env in
    emit env (Tac.Cast (d, t, av));
    d
  | Instance_of (a, c) ->
    let av = lower_expr env a in
    let d = fresh_var env in
    emit env (Tac.Instance_of (d, c, av));
    d
  | Assign (lhs, rhs) -> lower_assign env e.epos lhs rhs
  | Cond (c, a, b) ->
    let cv = lower_expr env c in
    let d = fresh_var env in
    let tb = new_block env and eb = new_block env and join = new_block env in
    set_term env (Tac.If (cv, tb, eb));
    start_block env tb;
    let av = lower_expr env a in
    emit env (Tac.Move (d, av));
    set_term env (Tac.Goto join);
    start_block env eb;
    let bv = lower_expr env b in
    emit env (Tac.Move (d, bv));
    set_term env (Tac.Goto join);
    start_block env join;
    d

and lower_var_read env pos name =
  match Hashtbl.find_opt env.locals name with
  | Some (v, _) -> v
  | None ->
    (match Classtable.resolve_field env.prog.Program.table env.cls name with
     | Some fi when fi.fi_static ->
       let d = fresh_var env in
       emit env (Tac.Sload (d, { Tac.fclass = fi.fi_class; fname = name }));
       d
     | Some fi ->
       if env.is_static then errorf pos "instance field %s in static context" name;
       let d = fresh_var env in
       emit env (Tac.Load (d, 0, { Tac.fclass = fi.fi_class; fname = name }));
       d
     | None -> errorf pos "unknown variable %s" name)

and lower_assign env pos lhs rhs =
  match lhs.e with
  | Var name ->
    (match Hashtbl.find_opt env.locals name with
     | Some (v, _) ->
       let rv = lower_expr env rhs in
       emit env (Tac.Move (v, rv));
       v
     | None ->
       (match Classtable.resolve_field env.prog.Program.table env.cls name with
        | Some fi when fi.fi_static ->
          let rv = lower_expr env rhs in
          emit env (Tac.Sstore ({ Tac.fclass = fi.fi_class; fname = name }, rv));
          rv
        | Some fi ->
          if env.is_static then
            errorf pos "instance field %s in static context" name;
          let rv = lower_expr env rhs in
          emit env (Tac.Store (0, { Tac.fclass = fi.fi_class; fname = name }, rv));
          rv
        | None -> errorf pos "unknown variable %s" name))
  | Field_access (o, f) ->
    let cls = match typeof env o with Some (Tclass c) -> c | _ -> "Object" in
    let ov = lower_expr env o in
    let fld = resolve_field_or env pos cls f in
    let rv = lower_expr env rhs in
    emit env (Tac.Store (ov, fld, rv));
    rv
  | Static_field (c, f) ->
    let fld = resolve_field_or env pos c f in
    let rv = lower_expr env rhs in
    emit env (Tac.Sstore (fld, rv));
    rv
  | Array_index (a, i) ->
    let av = lower_expr env a in
    let iv = lower_expr env i in
    let rv = lower_expr env rhs in
    emit env (Tac.Astore (av, iv, rv));
    rv
  | _ -> errorf pos "invalid assignment target"

and lower_new env pos c args =
  let table = env.prog.Program.table in
  if not (Classtable.mem table c) then errorf pos "unknown class %s" c;
  let d = fresh_var env in
  let asite =
    Program.fresh_site env.prog ~meth:env.meth_id ~kind:(Program.Alloc_site c)
  in
  emit env (Tac.New (d, c, asite));
  let argvs = List.map (lower_expr env) args in
  let arity = List.length args + 1 in
  let target = { Tac.rclass = c; rname = "<init>"; rarity = arity } in
  let csite =
    Program.fresh_site env.prog ~meth:env.meth_id
      ~kind:(Program.Call_site target)
  in
  emit env
    (Tac.Call { ret = None; kind = Tac.Special; target; args = d :: argvs;
                site = csite });
  d

and lower_call env pos (c : call) : Tac.var =
  let table = env.prog.Program.table in
  let argvs () = List.map (lower_expr env) c.args in
  let nargs = List.length c.args in
  let emit_call ~kind ~target ~args ~ret_typ =
    let site =
      Program.fresh_site env.prog ~meth:env.meth_id
        ~kind:(Program.Call_site target)
    in
    let ret = fresh_var env in
    emit env (Tac.Call { ret = Some ret; kind; target; args; site });
    ignore ret_typ;
    ret
  in
  let virtual_call recv_cls recv_var =
    (* String receivers are string carriers: replace the call with primitive
       data-flow operations instead of a Call instruction. *)
    if String.equal recv_cls "String" then begin
      let args = argvs () in
      let string_args =
        List.filteri
          (fun i _ ->
             match List.nth_opt c.args i with
             | Some a -> is_stringy env a
             | None -> false)
          args
      in
      let ret =
        match Classtable.lookup_method table "String" c.mname (nargs + 1) with
        | Some mi -> mi.mi_ret
        | None -> Tclass "String"
      in
      lower_string_intrinsic env ~ret ~recv:recv_var ~string_args
    end
    else begin
      let target =
        match Classtable.lookup_method table recv_cls c.mname (nargs + 1) with
        | Some mi ->
          { Tac.rclass = mi.mi_class; rname = c.mname; rarity = nargs + 1 }
        | None ->
          { Tac.rclass = recv_cls; rname = c.mname; rarity = nargs + 1 }
      in
      let args = recv_var :: argvs () in
      emit_call ~kind:Tac.Virtual ~target ~args ~ret_typ:()
    end
  in
  match c.recv with
  | On o ->
    let recv_cls =
      match typeof env o with
      | Some (Tclass cls) -> cls
      | Some (Tarray _) -> "Object"
      | _ -> "Object"
    in
    let recv_var = lower_expr env o in
    virtual_call recv_cls recv_var
  | Implicit ->
    (* instance method of this class (or supers) first, then static *)
    (match Classtable.lookup_method table env.cls c.mname (nargs + 1) with
     | Some mi when not mi.mi_static ->
       if env.is_static then
         errorf pos "instance method %s called from static context" c.mname;
       virtual_call env.cls 0
     | _ ->
       (match Classtable.lookup_method table env.cls c.mname nargs with
        | Some mi when mi.mi_static ->
          let target =
            { Tac.rclass = mi.mi_class; rname = c.mname; rarity = nargs }
          in
          emit_call ~kind:Tac.Static ~target ~args:(argvs ()) ~ret_typ:()
        | _ -> errorf pos "unknown method %s in class %s" c.mname env.cls))
  | Cls cls ->
    (match Classtable.lookup_method table cls c.mname nargs with
     | Some mi when mi.mi_static ->
       let target =
         { Tac.rclass = mi.mi_class; rname = c.mname; rarity = nargs }
       in
       emit_call ~kind:Tac.Static ~target ~args:(argvs ()) ~ret_typ:()
     | _ ->
       if Classtable.mem table cls then
         errorf pos "unknown static method %s" (Tac.id cls c.mname nargs)
       else
         (* call on an unknown class: synthesize an opaque static target *)
         let target = { Tac.rclass = cls; rname = c.mname; rarity = nargs } in
         emit_call ~kind:Tac.Static ~target ~args:(argvs ()) ~ret_typ:())
  | Super ->
    if env.is_static then errorf pos "'super' in static context";
    let super =
      match Classtable.find_opt table env.cls with
      | Some { cl_super = Some s; _ } -> s
      | _ -> errorf pos "class %s has no superclass" env.cls
    in
    if String.equal c.mname "<init>" then begin
      let target =
        { Tac.rclass = super; rname = "<init>"; rarity = nargs + 1 }
      in
      let args = 0 :: argvs () in
      let site =
        Program.fresh_site env.prog ~meth:env.meth_id
          ~kind:(Program.Call_site target)
      in
      emit env (Tac.Call { ret = None; kind = Tac.Special; target; args; site });
      0
    end
    else begin
      let target =
        match Classtable.lookup_method table super c.mname (nargs + 1) with
        | Some mi ->
          { Tac.rclass = mi.mi_class; rname = c.mname; rarity = nargs + 1 }
        | None ->
          { Tac.rclass = super; rname = c.mname; rarity = nargs + 1 }
      in
      emit_call ~kind:Tac.Special ~target ~args:(0 :: argvs ()) ~ret_typ:()
    end

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                 *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt env (s : stmt) : unit =
  if terminated env then begin
    (* dead code after return/throw/break: lower into a fresh unreachable
       block so the registers stay well-formed *)
    let b = new_block env in
    start_block env b
  end;
  match s.s with
  | Block stmts -> List.iter (lower_stmt env) stmts
  | Empty -> ()
  | Var_decl (t, name, init) ->
    let v = fresh_var env in
    Hashtbl.replace env.locals name (v, t);
    (match init with
     | Some e ->
       let rv = lower_expr env e in
       emit env (Tac.Move (v, rv))
     | None -> emit env (Tac.Const (v, default_const_for t)))
  | Expr e -> ignore (lower_expr env e)
  | If (cond, then_, else_) ->
    let cv = lower_expr env cond in
    let tb = new_block env in
    let eb = new_block env in
    let join = new_block env in
    set_term env (Tac.If (cv, tb, eb));
    start_block env tb;
    lower_stmt env then_;
    set_term env (Tac.Goto join);
    start_block env eb;
    (match else_ with Some s -> lower_stmt env s | None -> ());
    set_term env (Tac.Goto join);
    start_block env join
  | While (cond, body) ->
    let header = new_block env in
    set_term env (Tac.Goto header);
    start_block env header;
    let cv = lower_expr env cond in
    let bodyb = new_block env in
    let exit = new_block env in
    set_term env (Tac.If (cv, bodyb, exit));
    start_block env bodyb;
    env.loop_stack <- (exit, header) :: env.loop_stack;
    lower_stmt env body;
    env.loop_stack <- List.tl env.loop_stack;
    set_term env (Tac.Goto header);
    start_block env exit
  | For (init, cond, step, body) ->
    (match init with Some s -> lower_stmt env s | None -> ());
    let header = new_block env in
    set_term env (Tac.Goto header);
    start_block env header;
    let cv =
      match cond with
      | Some c -> lower_expr env c
      | None ->
        let d = fresh_var env in
        emit env (Tac.Const (d, Tac.Cbool true));
        d
    in
    let bodyb = new_block env in
    let stepb = new_block env in
    let exit = new_block env in
    set_term env (Tac.If (cv, bodyb, exit));
    start_block env bodyb;
    env.loop_stack <- (exit, stepb) :: env.loop_stack;
    lower_stmt env body;
    env.loop_stack <- List.tl env.loop_stack;
    set_term env (Tac.Goto stepb);
    start_block env stepb;
    (match step with Some e -> ignore (lower_expr env e) | None -> ());
    set_term env (Tac.Goto header);
    start_block env exit
  | Return None -> set_term env (Tac.Return None)
  | Return (Some e) ->
    let v = lower_expr env e in
    set_term env (Tac.Return (Some v))
  | Throw e ->
    let v = lower_expr env e in
    set_term env (Tac.Throw v)
  | Switch (scrutinee, cases, default) ->
    (* no-fall-through switch lowers to an if/else chain on equality *)
    let v = lower_expr env scrutinee in
    let exit = new_block env in
    let lower_body stmts =
      (* break inside a switch exits the switch; continue still targets the
         enclosing loop *)
      let cont =
        match env.loop_stack with (_, c) :: _ -> c | [] -> exit
      in
      env.loop_stack <- (exit, cont) :: env.loop_stack;
      List.iter (lower_stmt env) stmts;
      env.loop_stack <- List.tl env.loop_stack;
      set_term env (Tac.Goto exit)
    in
    let rec chain = function
      | (labels, body) :: rest ->
        (* cond = v == l1 || v == l2 || ... *)
        let cond =
          List.fold_left
            (fun acc label ->
               let lv = lower_expr env label in
               let eq = fresh_var env in
               emit env (Tac.Binop (eq, Ast.Eq, v, lv));
               match acc with
               | None -> Some eq
               | Some prev ->
                 let both = fresh_var env in
                 emit env (Tac.Binop (both, Ast.Or, prev, eq));
                 Some both)
            None labels
        in
        let body_blk = new_block env in
        let next_blk = new_block env in
        (match cond with
         | Some c -> set_term env (Tac.If (c, body_blk, next_blk))
         | None -> set_term env (Tac.Goto next_blk));
        start_block env body_blk;
        lower_body body;
        start_block env next_blk;
        chain rest
      | [] ->
        (match default with
         | Some body -> lower_body body
         | None -> set_term env (Tac.Goto exit))
    in
    chain cases;
    start_block env exit
  | Do_while (body, cond) ->
    let body_blk = new_block env in
    let cond_blk = new_block env in
    let exit = new_block env in
    set_term env (Tac.Goto body_blk);
    start_block env body_blk;
    env.loop_stack <- (exit, cond_blk) :: env.loop_stack;
    lower_stmt env body;
    env.loop_stack <- List.tl env.loop_stack;
    set_term env (Tac.Goto cond_blk);
    start_block env cond_blk;
    let cv = lower_expr env cond in
    set_term env (Tac.If (cv, body_blk, exit));
    start_block env exit
  | Break ->
    (match env.loop_stack with
     | (brk, _) :: _ -> set_term env (Tac.Goto brk)
     | [] -> errorf s.spos "break outside loop")
  | Continue ->
    (match env.loop_stack with
     | (_, cont) :: _ -> set_term env (Tac.Goto cont)
     | [] -> errorf s.spos "continue outside loop")
  | Try (body, clauses) ->
    let handler_blocks = List.map (fun _ -> new_block env) clauses in
    let join = new_block env in
    let try_start = new_block env in
    set_term env (Tac.Goto try_start);
    env.handlers <- handler_blocks :: env.handlers;
    start_block env try_start;
    (* the entry block of the region was created under the handler scope
       above, so it carries the exceptional edges *)
    env.blocks.(try_start).bhandlers <- List.concat env.handlers;
    List.iter (lower_stmt env) body;
    set_term env (Tac.Goto join);
    env.handlers <- List.tl env.handlers;
    List.iter2
      (fun hb (exn_cls, name, cbody) ->
         start_block env hb;
         let v = fresh_var env in
         Hashtbl.replace env.locals name (v, Tclass exn_cls);
         emit env (Tac.Catch_entry (v, exn_cls));
         List.iter (lower_stmt env) cbody;
         set_term env (Tac.Goto join))
      handler_blocks clauses;
    start_block env join

(* ------------------------------------------------------------------ *)
(* Method/class lowering                                              *)
(* ------------------------------------------------------------------ *)

let finish_blocks env : Tac.block array =
  Array.init env.nblocks (fun i ->
      let b = env.blocks.(i) in
      { Tac.phis = [];
        instrs = Array.of_list (List.rev b.rinstrs);
        term = (match b.term with Some t -> t | None -> Tac.Return None);
        handlers = b.bhandlers })

let make_env prog ~cls ~meth_id ~is_static ~library ~synthetic =
  { prog; cls; meth_id; is_static; library; synthetic;
    nvars = 0;
    locals = Hashtbl.create 16;
    blocks = Array.init 8 (fun _ -> { rinstrs = []; term = None; bhandlers = [] });
    nblocks = 0;
    cur = 0;
    loop_stack = [];
    handlers = [] }

let bind_params env ~is_static ~cls params =
  if not is_static then begin
    let v = fresh_var env in
    Hashtbl.replace env.locals "this" (v, Tclass cls)
  end;
  List.iter
    (fun (t, name) ->
       let v = fresh_var env in
       Hashtbl.replace env.locals name (v, t))
    params

let lower_method prog ~library ~synthetic ~cls (md : method_decl) : Tac.meth =
  let is_static = has_mod Static md.md_mods in
  let arity = List.length md.md_params + if is_static then 0 else 1 in
  let meth_id = Tac.id cls md.md_name arity in
  let env = make_env prog ~cls ~meth_id ~is_static ~library ~synthetic in
  bind_params env ~is_static ~cls md.md_params;
  let entry = new_block env in
  start_block env entry;
  (match md.md_body with
   | Some body -> List.iter (lower_stmt env) body
   | None -> ());
  set_term env (Tac.Return None);
  { Tac.m_id = meth_id;
    m_class = cls;
    m_name = md.md_name;
    m_arity = arity;
    m_static = is_static;
    m_ret = md.md_ret;
    m_param_types = List.map fst md.md_params;
    m_blocks = finish_blocks env;
    m_nvars = env.nvars;
    m_synthetic = synthetic;
    m_library = library;
    m_has_body = md.md_body <> None }

let lower_ctor prog ~library ~synthetic ~cls ~(fields : field_decl list)
    (cd : ctor_decl) : Tac.meth =
  let arity = List.length cd.cd_params + 1 in
  let meth_id = Tac.id cls "<init>" arity in
  let env = make_env prog ~cls ~meth_id ~is_static:false ~library ~synthetic in
  bind_params env ~is_static:false ~cls cd.cd_params;
  let entry = new_block env in
  start_block env entry;
  (* implicit super() unless the body begins with an explicit super(...) *)
  let explicit_super =
    match cd.cd_body with
    | { s = Expr { e = Call { recv = Super; mname = "<init>"; _ }; _ }; _ } :: _ ->
      true
    | _ -> false
  in
  let table = prog.Program.table in
  (if not explicit_super then
     match Classtable.find_opt table cls with
     | Some { cl_super = Some s; _ } when Classtable.mem table s ->
       let target = { Tac.rclass = s; rname = "<init>"; rarity = 1 } in
       let site =
         Program.fresh_site prog ~meth:meth_id ~kind:(Program.Call_site target)
       in
       emit env
         (Tac.Call { ret = None; kind = Tac.Special; target; args = [ 0 ];
                     site })
     | _ -> ());
  (* instance field initializers *)
  List.iter
    (fun (f : field_decl) ->
       if not (has_mod Static f.f_mods) then
         match f.f_init with
         | Some e ->
           let v = lower_expr env e in
           emit env (Tac.Store (0, { Tac.fclass = cls; fname = f.f_name }, v))
         | None -> ())
    fields;
  List.iter (lower_stmt env) cd.cd_body;
  set_term env (Tac.Return None);
  { Tac.m_id = meth_id;
    m_class = cls;
    m_name = "<init>";
    m_arity = arity;
    m_static = false;
    m_ret = Tvoid;
    m_param_types = List.map fst cd.cd_params;
    m_blocks = finish_blocks env;
    m_nvars = env.nvars;
    m_synthetic = synthetic;
    m_library = library;
    m_has_body = true }

let lower_clinit prog ~library ~cls (fields : field_decl list) : Tac.meth option =
  let static_inits =
    List.filter
      (fun (f : field_decl) -> has_mod Static f.f_mods && f.f_init <> None)
      fields
  in
  if static_inits = [] then None
  else begin
    let meth_id = Tac.id cls "<clinit>" 0 in
    let env =
      make_env prog ~cls ~meth_id ~is_static:true ~library ~synthetic:true
    in
    let entry = new_block env in
    start_block env entry;
    List.iter
      (fun (f : field_decl) ->
         match f.f_init with
         | Some e ->
           let v = lower_expr env e in
           emit env (Tac.Sstore ({ Tac.fclass = cls; fname = f.f_name }, v))
         | None -> ())
      static_inits;
    set_term env (Tac.Return None);
    Some
      { Tac.m_id = meth_id;
        m_class = cls;
        m_name = "<clinit>";
        m_arity = 0;
        m_static = true;
        m_ret = Tvoid;
        m_param_types = [];
        m_blocks = finish_blocks env;
        m_nvars = env.nvars;
        m_synthetic = true;
        m_library = library;
        m_has_body = true }
  end

let default_ctor pos : ctor_decl =
  { cd_mods = [ Public ]; cd_params = []; cd_body = []; cd_pos = pos }

let lower_class prog ~library (c : class_decl) : unit =
  let ctors = if c.c_ctors = [] then [ default_ctor c.c_pos ] else c.c_ctors in
  List.iter
    (fun cd ->
       let m =
         lower_ctor prog ~library ~synthetic:false ~cls:c.c_name
           ~fields:c.c_fields cd
       in
       Program.add_method prog m)
    ctors;
  List.iter
    (fun md ->
       let m = lower_method prog ~library ~synthetic:false ~cls:c.c_name md in
       Program.add_method prog m)
    c.c_methods;
  (match lower_clinit prog ~library ~cls:c.c_name c.c_fields with
   | Some m ->
     Program.add_method prog m;
     prog.Program.clinits <- prog.Program.clinits @ [ Tac.method_id m ]
   | None -> ());
  (* register the synthesized default ctor in the class table *)
  if c.c_ctors = [] then
    match Classtable.find_opt prog.Program.table c.c_name with
    | Some cl -> cl.cl_ctor_arities <- [ 1 ]
    | None -> ()

(** Register declarations in the class table without lowering bodies.
    Two-phase loading lets mutually recursive classes across files resolve. *)
let declare prog ~library (cu : compilation_unit) =
  List.iter (Classtable.add_decl prog.Program.table ~library) cu

(** Lower all class bodies of a previously declared compilation unit. *)
let define prog ~library (cu : compilation_unit) =
  List.iter
    (function
      | Class c -> lower_class prog ~library c
      | Interface _ -> ())
    cu

(** Convenience: declare then define a batch of compilation units.
    All units are declared before any body is lowered. *)
let load prog units =
  List.iter (fun (library, cu) -> declare prog ~library cu) units;
  List.iter (fun (library, cu) -> define prog ~library cu) units
