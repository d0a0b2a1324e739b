(** Reflection modeling (§4.2.3) and EJB lookup bypass (§4.2.2).

    A per-method abstract interpretation over SSA def-use chains tracks
    string constants, [Class] objects, [Method] values and [Object[]]
    argument-array literals. Where a reflective call's operands can be
    inferred, the call is replaced by a synthesized direct abstraction:

    - [Method.invoke(m, recv, args)] becomes a direct virtual call when [m]
      resolves to a single named method, or a call to a synthesized
      [$Reflect.dispatch$N] method that fans out to every candidate when [m]
      is only known to be "some method of class C" (the conservative
      resolution the paper accepts for [getMethods] loops);
    - [Class.newInstance(k)] becomes an allocation plus constructor call;
    - [Context.lookup("jndi:...")] consults the deployment descriptor's
      registry and becomes an allocation of the mapped home implementation,
      which is what lets EJB remote calls dispatch to the bean class without
      analyzing any container code.

    Unresolvable reflective calls are left in place and fall back to the
    default native transfer, mirroring TAJ's behaviour. *)

open Jir

type absval =
  | Null                          (* null constant: bottom for joins *)
  | Str of string
  | Class_obj of string
  | Methods_of of string          (* Method[] of all methods of a class *)
  | Method_any of string          (* some method of a class *)
  | Method_named of string * string
  | Obj_array of Tac.var list     (* Object[]{v0, v1, ...} *)
  | Top

(* [Null] is below everything: a variable initialized to null and then
   assigned a method object (the Figure 1 idiom) keeps the method value. *)
let join a b =
  match a, b with
  | Null, x | x, Null -> x
  | _ -> if a = b then a else Top

(* ------------------------------------------------------------------ *)
(* Abstract evaluation over SSA                                       *)
(* ------------------------------------------------------------------ *)

type evaluator = {
  m : Tac.meth;
  defs : Ssa.def_site option array;
  memo : (int, absval) Hashtbl.t;
  mutable visiting : int list;
  array_stores : (int, Tac.var list) Hashtbl.t;  (* base var -> stored vars *)
}

let make_evaluator (m : Tac.meth) : evaluator =
  let array_stores = Hashtbl.create 8 in
  Array.iter
    (fun (b : Tac.block) ->
       Array.iter
         (fun ins ->
            match ins with
            | Tac.Astore (base, _, v) ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt array_stores base)
              in
              Hashtbl.replace array_stores base (prev @ [ v ])
            | _ -> ())
         b.Tac.instrs)
    m.Tac.m_blocks;
  { m; defs = Ssa.def_sites m; memo = Hashtbl.create 16; visiting = [];
    array_stores }

let rec eval (ev : evaluator) (v : Tac.var) : absval =
  match Hashtbl.find_opt ev.memo v with
  | Some a -> a
  | None ->
    if List.mem v ev.visiting then Top
    else begin
      ev.visiting <- v :: ev.visiting;
      let result = eval_uncached ev v in
      ev.visiting <- List.tl ev.visiting;
      Hashtbl.replace ev.memo v result;
      result
    end

and eval_uncached ev v =
  if v < 0 || v >= Array.length ev.defs then Top
  else
    match ev.defs.(v) with
    | None | Some (Ssa.Def_param _) -> Top
    | Some (Ssa.Def_phi (b, i)) ->
      let phi = List.nth ev.m.Tac.m_blocks.(b).Tac.phis i in
      (match phi.Tac.phi_args with
       | [] -> Top
       | (_, first) :: rest ->
         List.fold_left
           (fun acc (_, arg) -> join acc (eval ev arg))
           (eval ev first) rest)
    | Some (Ssa.Def_instr (b, i)) ->
      (match ev.m.Tac.m_blocks.(b).Tac.instrs.(i) with
       | Tac.Const (_, Tac.Cstr s) -> Str s
       | Tac.Const (_, Tac.Cnull) -> Null
       | Tac.Move (_, s) | Tac.Cast (_, _, s) -> eval ev s
       | Tac.Strcat (_, x, y) ->
         (* constant folding: "com." + "Foo" resolves reflective names *)
         (match eval ev x, eval ev y with
          | Str a, Str b -> Str (a ^ b)
          | _ -> Top)
       | Tac.New_array (d, Ast.Tclass "Object", _, _) ->
         Obj_array
           (Option.value ~default:[] (Hashtbl.find_opt ev.array_stores d))
       | Tac.Aload (_, arr, _) ->
         (match eval ev arr with
          | Methods_of c -> Method_any c
          | _ -> Top)
       | Tac.Call { target = { Tac.rclass = "Class"; rname = "forName"; rarity = 1 }; args = [ a ]; _ } ->
         (match eval ev a with Str s -> Class_obj s | _ -> Top)
       | Tac.Call { target = { Tac.rname = "getMethods"; rarity = 1; _ }; args = [ k ]; _ } ->
         (match eval ev k with Class_obj c -> Methods_of c | _ -> Top)
       | Tac.Call { target = { Tac.rname = "getMethod"; rarity = 2; _ }; args = [ k; n ]; _ } ->
         (match eval ev k, eval ev n with
          | Class_obj c, Str name -> Method_named (c, name)
          | _ -> Top)
       | _ -> Top)

(* ------------------------------------------------------------------ *)
(* Dispatcher synthesis                                               *)
(* ------------------------------------------------------------------ *)

(** Build [$Reflect.dispatch$N(recv, a1..ak)]: a synthetic static method
    virtual-calling every candidate and returning the merged result. The
    body is emitted directly in SSA form. [idx] is the per-program
    dispatcher ordinal (threaded from {!rewrite_program} rather than a
    process-global counter, so that names are deterministic per load and
    concurrent loads on sibling domains never share state). *)
let make_dispatcher (prog : Program.t) ~idx ~arity
    ~(candidates : (string * string) list) : Tac.meth =
  let n = List.length candidates in
  assert (n >= 1);
  let name = Printf.sprintf "dispatch$%d" idx in
  let meth_id = Tac.id "$Reflect" name arity in
  let nv = ref arity in
  let fresh () = let v = !nv in incr nv; v in
  let args = List.init arity (fun i -> i) in
  (* block layout: decisions 0..n-2 | calls n-1..2n-2 | exit 2n-1 *)
  let call_block j = (n - 1) + j in
  let exit_block = 2 * n - 1 in
  let decision i =
    let cond = fresh () in
    let next = if i + 1 <= n - 2 then i + 1 else call_block (n - 1) in
    { Tac.phis = [];
      instrs = [| Tac.Const (cond, Tac.Cbool true) |];
      term = Tac.If (cond, call_block i, next);
      handlers = [] }
  in
  let rets = List.map (fun _ -> fresh ()) candidates in
  let call j (cls, mname) rj =
    let target = { Tac.rclass = cls; rname = mname; rarity = arity } in
    let site =
      Program.fresh_site prog ~meth:meth_id ~kind:(Program.Call_site target)
    in
    ignore j;
    { Tac.phis = [];
      instrs =
        [| Tac.Call { ret = Some rj; kind = Tac.Virtual; target; args; site } |];
      term = Tac.Goto exit_block;
      handlers = [] }
  in
  let merged = fresh () in
  let exit =
    { Tac.phis =
        [ { Tac.phi_lhs = merged;
            phi_args = List.mapi (fun j rj -> (call_block j, rj)) rets } ];
      instrs = [||];
      term = Tac.Return (Some merged);
      handlers = [] }
  in
  let blocks =
    Array.concat
      [ Array.init (n - 1) decision;
        Array.of_list
          (List.mapi (fun j (c, rj) -> call j c rj)
             (List.combine candidates rets));
        [| exit |] ]
  in
  { Tac.m_id = meth_id;
    m_class = "$Reflect";
    m_name = name;
    m_arity = arity;
    m_static = true;
    m_ret = Ast.Tclass "Object";
    m_param_types = List.init arity (fun _ -> Ast.Tclass "Object");
    m_blocks = blocks;
    m_nvars = !nv;
    m_synthetic = true;
    m_library = false;
    m_has_body = true }

(* ------------------------------------------------------------------ *)
(* Rewriting                                                          *)
(* ------------------------------------------------------------------ *)

(** Candidate (class, method-name) pairs for an abstract [Method] value
    invoked with [k] explicit arguments. *)
let invoke_candidates table mv ~arity : (string * string) list =
  match mv with
  | Method_named (c, n) ->
    (match Classtable.lookup_method table c n arity with
     | Some mi when not mi.Classtable.mi_static -> [ (mi.Classtable.mi_class, n) ]
     | _ -> [])
  | Method_any c ->
    (match Classtable.find_opt table c with
     | None -> []
     | Some cls ->
       Hashtbl.fold
         (fun (name, a) (mi : Classtable.minfo) acc ->
            if a = arity && not mi.Classtable.mi_static
               && not (String.equal name "<init>")
            then (c, name) :: acc
            else acc)
         cls.Classtable.cl_methods []
       |> List.sort_uniq compare)
  | _ -> []

type stats = {
  mutable invokes_resolved : int;
  mutable invokes_unresolved : int;
  mutable new_instances : int;
  mutable lookups : int;
}

(* The calls the rewrite may replace, with the operands it evaluates.
   An instruction that is none of these is never touched, and a method
   holding none is never visited. *)
type candidate =
  | Invoke of { ret : Tac.var option; mvar : Tac.var; recv : Tac.var;
                arr : Tac.var }
  | New_instance of { dst : Tac.var; k : Tac.var }
  | Lookup of { dst : Tac.var; namev : Tac.var }

let candidate : Tac.instr -> candidate option = function
  | Tac.Call { ret;
               target = { Tac.rclass = "Method"; rname = "invoke"; rarity = 3 };
               args = [ mvar; recv; arr ]; _ } ->
    Some (Invoke { ret; mvar; recv; arr })
  | Tac.Call { ret = Some dst;
               target = { Tac.rclass = "Class"; rname = "newInstance"; rarity = 1 };
               args = [ k ]; _ } ->
    Some (New_instance { dst; k })
  | Tac.Call { ret = Some dst;
               target = { Tac.rclass = "Context" | "InitialContext";
                          rname = "lookup"; rarity = 2 };
               args = [ _ctx; namev ]; _ } ->
    Some (Lookup { dst; namev })
  | _ -> None

let has_candidate (b : Tac.block) =
  Array.exists (fun ins -> Option.is_some (candidate ins)) b.Tac.instrs

let rewrite_method (prog : Program.t) ~(ejb_registry : (string * string) list)
    ~(dispatch_idx : int ref) (m : Tac.meth) (st : stats) : unit =
  let table = prog.Program.table in
  let ev = make_evaluator m in
  let meth_id = Tac.method_id m in
  let rewrite_one ins : Tac.instr list option =
    match candidate ins with
    | None -> None
    | Some (Invoke { ret; mvar; recv; arr }) ->
      let mv = eval ev mvar in
      (match eval ev arr with
       | Obj_array elems ->
         let arity = List.length elems + 1 in
         (match invoke_candidates table mv ~arity with
          | [] -> st.invokes_unresolved <- st.invokes_unresolved + 1; None
          | [ (cls, name) ] ->
            st.invokes_resolved <- st.invokes_resolved + 1;
            let target = { Tac.rclass = cls; rname = name; rarity = arity } in
            let site =
              Program.fresh_site prog ~meth:meth_id
                ~kind:(Program.Call_site target)
            in
            Some
              [ Tac.Call
                  { ret; kind = Tac.Virtual; target; args = recv :: elems;
                    site } ]
          | candidates ->
            st.invokes_resolved <- st.invokes_resolved + 1;
            let idx = !dispatch_idx in
            incr dispatch_idx;
            let d = make_dispatcher prog ~idx ~arity ~candidates in
            Program.add_method prog d;
            let target =
              { Tac.rclass = "$Reflect"; rname = d.Tac.m_name; rarity = arity }
            in
            let site =
              Program.fresh_site prog ~meth:meth_id
                ~kind:(Program.Call_site target)
            in
            Some
              [ Tac.Call
                  { ret; kind = Tac.Static; target; args = recv :: elems;
                    site } ])
       | _ -> st.invokes_unresolved <- st.invokes_unresolved + 1; None)
    | Some (New_instance { dst = d; k }) ->
      (match eval ev k with
       | Class_obj c when Classtable.mem table c ->
         st.new_instances <- st.new_instances + 1;
         let asite =
           Program.fresh_site prog ~meth:meth_id ~kind:(Program.Alloc_site c)
         in
         let target = { Tac.rclass = c; rname = "<init>"; rarity = 1 } in
         let csite =
           Program.fresh_site prog ~meth:meth_id ~kind:(Program.Call_site target)
         in
         Some
           [ Tac.New (d, c, asite);
             Tac.Call
               { ret = None; kind = Tac.Special; target; args = [ d ];
                 site = csite } ]
       | _ -> None)
    | Some (Lookup { dst = d; namev }) ->
      (match eval ev namev with
       | Str jndi ->
         (match List.assoc_opt jndi ejb_registry with
          | Some impl when Classtable.mem table impl ->
            st.lookups <- st.lookups + 1;
            let asite =
              Program.fresh_site prog ~meth:meth_id
                ~kind:(Program.Alloc_site impl)
            in
            let target = { Tac.rclass = impl; rname = "<init>"; rarity = 1 } in
            let csite =
              Program.fresh_site prog ~meth:meth_id
                ~kind:(Program.Call_site target)
            in
            Some
              [ Tac.New (d, impl, asite);
                Tac.Call
                  { ret = None; kind = Tac.Special; target; args = [ d ];
                    site = csite } ]
          | _ -> None)
       | _ -> None)
  in
  (* a block without a candidate is never written: the model-JDK image,
     shared by every load, relies on it *)
  Array.iter
    (fun (b : Tac.block) ->
       if has_candidate b then begin
         let out = ref [] in
         let changed = ref false in
         Array.iter
           (fun ins ->
              match rewrite_one ins with
              | Some replacement ->
                changed := true;
                List.iter (fun r -> out := r :: !out) replacement
              | None -> out := ins :: !out)
           b.Tac.instrs;
         if !changed then b.Tac.instrs <- Array.of_list (List.rev !out)
       end)
    m.Tac.m_blocks

(** Run the reflection/lookup rewrite over every method that holds a
    candidate call, in method-id order. Returns statistics about resolved
    and unresolved reflective calls. *)
let rewrite_program ?(ejb_registry = []) (prog : Program.t) : stats =
  let st =
    { invokes_resolved = 0; invokes_unresolved = 0; new_instances = 0;
      lookups = 0 }
  in
  (* collect first: dispatcher synthesis adds methods, which hold no
     candidate anyway *)
  let targets = ref [] in
  Program.iter_methods prog (fun m ->
      if Array.exists has_candidate m.Tac.m_blocks then
        targets := m :: !targets);
  let targets =
    List.sort
      (fun a b -> String.compare (Tac.method_id a) (Tac.method_id b))
      !targets
  in
  let dispatch_idx = ref 0 in
  List.iter
    (fun m -> rewrite_method prog ~ejb_registry ~dispatch_idx m st)
    targets;
  st
