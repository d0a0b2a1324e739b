(** Type-based taint triage (see the interface for the soundness
    contract: triage must taint at least as much as the tabulation
    engine ever propagates, so the pre-filter can never change a
    report). *)

open Jir

module Telemetry = Obs.Telemetry

let m_sweeps = Telemetry.counter "triage.sweeps"
let m_findings = Telemetry.counter "triage.findings"

type qual = Untainted | Unknown | Tainted

let rank = function Untainted -> 0 | Unknown -> 1 | Tainted -> 2
let join a b = if rank a >= rank b then a else b

let qual_name = function
  | Untainted -> "untainted"
  | Unknown -> "unknown"
  | Tainted -> "tainted"

type call_rules = {
  cr_source_ret : string list;
  cr_source_params : (int * string) list;
  cr_sanitizer : bool;
  cr_sanitizes_all : bool;
  cr_sinks : (string * int list) list;
}

let no_rules =
  { cr_source_ret = [];
    cr_source_params = [];
    cr_sanitizer = false;
    cr_sanitizes_all = false;
    cr_sinks = [] }

let is_plain cr =
  cr.cr_source_ret = [] && cr.cr_source_params = []
  && (not cr.cr_sanitizer) && cr.cr_sinks = []

type finding = {
  f_rule : string;
  f_issue : string;
  f_class : string;
  f_meth : string;
  f_method_id : string;
  f_sink : string;
  f_site : int;
  f_qual : qual;
}

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %s -> %s in %s (%s)" f.f_rule f.f_issue f.f_sink
    f.f_method_id (qual_name f.f_qual)

type stats = {
  s_methods : int;
  s_skippable : int;
  s_tainted_methods : int;
  s_findings : int;
  s_passes : int;
  s_seconds : float;
}

type verdict = {
  v_findings : finding list;
  v_keep : (string, unit) Hashtbl.t;
  v_rules_with_sources : (string, unit) Hashtbl.t;
  v_stats : stats;
}

let findings v = v.v_findings
let stats v = v.v_stats
let keep_id v id = Hashtbl.mem v.v_keep id
let keep v (m : Tac.meth) = keep_id v (Tac.method_id m)
let rule_has_source v rule = Hashtbl.mem v.v_rules_with_sources rule

(* ------------------------------------------------------------------ *)
(* Compiled form                                                      *)
(* ------------------------------------------------------------------ *)

(* [infer] first lowers the program into an int-indexed form, once:
   methods are numbered in sorted-id order, field names are interned,
   and every call site carries its rules, dictionary operation, CHA
   callees and native transfer summaries. The fixpoint passes then run
   over arrays, with no string formatting or string-keyed lookups.
   Inside the solver a qualifier is its rank (0 untainted, 1 unknown,
   2 tainted), so a join is [max]. *)

let untainted = 0
let unknown = 1
let tainted = 2

let qual_of_rank = function 0 -> Untainted | 1 -> Unknown | _ -> Tainted

(* a dictionary access, as a store to or a load from interned fields *)
type dict_op =
  | No_dict
  | Put of { value : int; fields : int array }
  | Get of { dst : int; fields : int array }

type site = {
  call : Tac.call;
  args : int array;
  ret : int;                               (* -1: no result register *)
  rules : call_rules;
  dict : dict_op;
  bodies : int array;          (* CHA targets with bodies, as method indices *)
  natives : Models.Natives.transfer array;
      (* summaries of the body-less (native/abstract) CHA targets, in order *)
  unresolved : bool;           (* receiver class missing, or no target *)
  reflective : bool;           (* an unresolved reflective invoke *)
}

(* one flow-insensitive constraint, in code order *)
type op =
  | Copy of int * int                      (* d ⊒ s *)
  | Join of int * int * int                (* d ⊒ a ⊔ b *)
  | Load of int * int                      (* d ⊒ field f ⊔ content *)
  | Store of int * int                     (* field f ⊒ v *)
  | Aload of int                           (* d ⊒ arrays ⊔ content *)
  | Astore of int                          (* arrays ⊒ v *)
  | Catch of int                           (* d ⊒ thrown *)
  | Call of site
  | Throw of int                           (* thrown ⊒ v *)
  | Return of int                          (* return ⊒ v *)

type cmeth = {
  meth : Tac.meth;
  id : string;
  ops : op array;
  sites : site array;                      (* the call sites, in code order *)
}

let is_reflective_invoke (t : Tac.mref) =
  String.equal t.Tac.rclass "Method"
  && String.equal t.Tac.rname "invoke"
  && t.Tac.rarity = 3

(* Lower every method. [classify] runs once per distinct call target
   and CHA resolution once per (dispatch kind, target); the subtype
   index is built once for the whole program. *)
let compile ~(classify : Tac.mref -> call_rules) (prog : Program.t) =
  let table = prog.Program.table in
  let ids = Array.of_list (Program.all_method_ids prog) in
  let meths =
    Array.map (fun id -> Option.get (Program.find_method prog id)) ids
  in
  let index = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let field_ids = Hashtbl.create 256 in
  let field f =
    match Hashtbl.find_opt field_ids f with
    | Some i -> i
    | None ->
      let i = Hashtbl.length field_ids in
      Hashtbl.add field_ids f i;
      i
  in
  let rules_memo = Hashtbl.create 256 in
  let rules_of target =
    match Hashtbl.find_opt rules_memo target with
    | Some cr -> cr
    | None ->
      let cr = classify target in
      Hashtbl.add rules_memo target cr;
      cr
  in
  let subtypes = Classtable.subtype_index table in
  (* CHA targets — a superset of the pointer call graph's edges, which
     is what makes propagating through every one of them sound for the
     filter: (method indices with bodies, body-less method ids,
     unresolved) *)
  let targets_memo = Hashtbl.create 256 in
  let targets_of (c : Tac.call) =
    let virtual_ = c.Tac.kind = Tac.Virtual in
    let key = (virtual_, c.Tac.target) in
    match Hashtbl.find_opt targets_memo key with
    | Some r -> r
    | None ->
      let { Tac.rclass; rname; rarity } = c.Tac.target in
      let known = Classtable.mem table rclass in
      let minfos =
        if not known then []
        else if virtual_ then
          Option.to_list (Classtable.lookup_method table rclass rname rarity)
          @ List.filter_map
              (fun sub -> Classtable.dispatch table sub rname rarity)
              (subtypes rclass)
        else Option.to_list (Classtable.resolve_static table rclass rname rarity)
      in
      let seen = Hashtbl.create 8 in
      let bodies = ref [] and bodyless = ref [] in
      List.iter
        (fun (mi : Classtable.minfo) ->
           let id =
             Tac.id mi.Classtable.mi_class mi.Classtable.mi_name
               mi.Classtable.mi_arity
           in
           if not (Hashtbl.mem seen id) then begin
             Hashtbl.add seen id ();
             match Hashtbl.find_opt index id with
             | Some i when meths.(i).Tac.m_has_body -> bodies := i :: !bodies
             | _ -> bodyless := id :: !bodyless
           end)
        minfos;
      let r =
        ( Array.of_list (List.rev !bodies),
          List.rev !bodyless,
          (not known) || minfos = [] )
      in
      Hashtbl.add targets_memo key r;
      r
  in
  let compile_site const_of (c : Tac.call) =
    let has_ret = c.Tac.ret <> None in
    let nargs = List.length c.Tac.args in
    let bodies, bodyless, unresolved = targets_of c in
    let fields fs =
      Array.of_list (List.map (fun (f : Tac.field) -> field f.Tac.fname) fs)
    in
    let dict =
      match Models.Dict_model.classify ~const_of c with
      | Some (Models.Dict_model.Dict_put { key; value; _ }) ->
        Put { value; fields = fields (Models.Dict_model.put_fields key) }
      | Some (Models.Dict_model.Dict_get { dst; key; _ }) ->
        Get { dst; fields = fields (Models.Dict_model.get_fields key) }
      | None -> No_dict
    in
    { call = c;
      args = Array.of_list c.Tac.args;
      ret = Option.value c.Tac.ret ~default:(-1);
      rules = rules_of c.Tac.target;
      dict;
      bodies;
      natives =
        Array.of_list
          (List.concat_map
             (fun meth_id ->
                Models.Natives.summary ~meth_id ~arity:nargs ~has_ret)
             bodyless);
      unresolved;
      reflective = is_reflective_invoke c.Tac.target }
  in
  let compile_meth id (m : Tac.meth) =
    (* built at most once, and only for a method with a dictionary call *)
    let const_of = lazy (Models.Dict_model.const_of_meth m) in
    let const_of v = Lazy.force const_of v in
    let ops = ref [] and sites = ref [] in
    let emit op = ops := op :: !ops in
    Array.iter
      (fun (b : Tac.block) ->
         List.iter
           (fun (p : Tac.phi) ->
              List.iter
                (fun (_, v) -> emit (Copy (p.Tac.phi_lhs, v)))
                p.Tac.phi_args)
           b.Tac.phis;
         Array.iter
           (function
             | Tac.Const _ | Tac.New _ | Tac.New_array _ | Tac.Nop -> ()
             | Tac.Move (d, s)
             | Tac.Unop (d, _, s)
             | Tac.Cast (d, _, s)
             | Tac.Instance_of (d, _, s)
             | Tac.Array_len (d, s) -> emit (Copy (d, s))
             | Tac.Binop (d, _, a, b') | Tac.Strcat (d, a, b') ->
               emit (Join (d, a, b'))
             | Tac.Load (d, _, f) | Tac.Sload (d, f) ->
               emit (Load (d, field f.Tac.fname))
             | Tac.Store (_, f, v) | Tac.Sstore (f, v) ->
               emit (Store (field f.Tac.fname, v))
             | Tac.Aload (d, _, _) -> emit (Aload d)
             | Tac.Astore (_, _, v) -> emit (Astore v)
             | Tac.Catch_entry (v, _) -> emit (Catch v)
             | Tac.Call c ->
               let s = compile_site const_of c in
               sites := s :: !sites;
               emit (Call s))
           b.Tac.instrs;
         match b.Tac.term with
         | Tac.Throw v -> emit (Throw v)
         | Tac.Return (Some v) -> emit (Return v)
         | _ -> ())
      m.Tac.m_blocks;
    { meth = m;
      id;
      ops = Array.of_list (List.rev !ops);
      sites = Array.of_list (List.rev !sites) }
  in
  let cmeths = Array.map2 compile_meth ids meths in
  (* every call target of the program is classified by now *)
  let rules_with_sources = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ cr ->
       List.iter (fun r -> Hashtbl.replace rules_with_sources r ())
         cr.cr_source_ret;
       List.iter (fun (_, r) -> Hashtbl.replace rules_with_sources r ())
         cr.cr_source_params)
    rules_memo;
  (cmeths, Hashtbl.length field_ids, rules_with_sources)

(* ------------------------------------------------------------------ *)
(* Inference                                                          *)
(* ------------------------------------------------------------------ *)

let infer ?(tick = fun () -> ()) ?(issue_of_rule = fun r -> r)
    ~(classify : Tac.mref -> call_rules) (prog : Program.t) : verdict =
  Telemetry.with_span "triage.infer" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let cmeths, n_fields, rules_with_sources = compile ~classify prog in
  let n = Array.length cmeths in
  (* per-method register qualifiers *)
  let vars =
    Array.map (fun c -> Array.make (max c.meth.Tac.m_nvars 1) untainted) cmeths
  in
  (* per-method formal-parameter qualifiers, fed by call arguments (a
     callee is resolved by the call's arity, so each site passes exactly
     its formals) *)
  let params =
    Array.map (fun c -> Array.make (max c.meth.Tac.m_arity 1) untainted) cmeths
  in
  (* per-method return qualifier *)
  let rets = Array.make n untainted in
  (* field bits, keyed by field name only: coarser than the engine's
     per-instance-key heap edges, hence sound. The dictionary model's
     synthetic $key/$all/$any fields land here too. *)
  let fields = Array.make n_fields untainted in
  (* "content coupling" of a method that has no tainted register of its
     own but performs an operation the engine treats as a heap load at a
     call statement (native by-reference transfers, reflective invoke) *)
  let extras = Array.make n untainted in
  (* global channels *)
  let content = ref untainted in   (* contents of source-returned objects *)
  let arrays = ref untainted in    (* array-element channel *)
  let thrown = ref untainted in    (* throw -> catch channel *)
  let changed = ref false in
  let raise_cell cell q = if q > !cell then (changed := true; cell := q) in
  let raise_at a i q = if q > a.(i) then (changed := true; a.(i) <- q) in
  let sweep i =
    tick ();
    Telemetry.incr m_sweeps;
    let vq = vars.(i) in
    let nv = Array.length vq in
    let getv v = if v >= 0 && v < nv then vq.(v) else untainted in
    let setv v q = if v >= 0 && v < nv then raise_at vq v q in
    (* formals receive what call sites passed in *)
    Array.iteri setv params.(i);
    let do_call s =
      let argq = Array.map getv s.args in
      let nargs = Array.length argq in
      let jargs = Array.fold_left max untainted argq in
      let cr = s.rules in
      (* sources: the return value is tainted and, because the engine
         additionally seeds every load of the returned object's pointees
         (and, for by-reference sources, of the argument's pointees),
         the global content channels go tainted too *)
      if cr.cr_source_ret <> [] then begin
        raise_cell content tainted;
        setv s.ret tainted
      end;
      List.iter
        (fun (a, _) ->
           raise_cell content tainted;
           raise_cell arrays tainted;
           if a >= 0 && a < nargs then setv s.args.(a) tainted)
        cr.cr_source_params;
      (* dictionary model: puts/gets are field stores/loads under the
         model's synthetic key fields — reuse the field-name bits *)
      (match s.dict with
       | Put { value; fields = fs } ->
         Array.iter (fun f -> raise_at fields f (getv value)) fs
       | Get { dst; fields = fs } ->
         setv dst (Array.fold_left (fun q f -> max q fields.(f)) !content fs)
       | No_dict -> ());
      (* interprocedural propagation over the CHA targets *)
      let ret_join = ref jargs in
      Array.iter
        (fun callee ->
           let cpq = params.(callee) in
           Array.iteri
             (fun a q -> if a < Array.length cpq then raise_at cpq a q)
             argq;
           ret_join := max !ret_join rets.(callee))
        s.bodies;
      Array.iter
        (fun (tr : Models.Natives.transfer) ->
           let q =
             let a = tr.Models.Natives.t_from in
             if a >= 0 && a < nargs then argq.(a) else untainted
           in
           match tr.Models.Natives.t_to with
           | Models.Natives.Ret ->
             (* by-reference natives read the contents of the source
                argument at the call statement *)
             ret_join := max !ret_join (max q (max !content !arrays))
           | Models.Natives.Param _ ->
             (* the engine models the write as a load of the source
                contents plus a store into the target's elements: couple
                both global channels and remember that this method
                touches them even without a tainted register *)
             raise_cell content q;
             raise_cell arrays q;
             raise_at extras i (max !content !arrays))
        s.natives;
      if s.unresolved then ret_join := max !ret_join (max unknown jargs);
      (* an unresolved reflective invoke consumes the contents of its
         argument array (the builder models it as an element load) *)
      if s.reflective then begin
        raise_at extras i (max !content !arrays);
        ret_join := max !ret_join (max !content !arrays)
      end;
      (* the rule-insensitive taint bit may only honour a sanitizer that
         endorses for every rule; otherwise the engine still propagates
         for the rules the method does not sanitize *)
      if not cr.cr_sanitizes_all then setv s.ret !ret_join
    in
    Array.iter
      (function
        | Copy (d, s) -> setv d (getv s)
        | Join (d, a, b) -> setv d (max (getv a) (getv b))
        | Load (d, f) -> setv d (max fields.(f) !content)
        | Store (f, v) -> raise_at fields f (getv v)
        | Aload d -> setv d (max !arrays !content)
        | Astore v -> raise_cell arrays (getv v)
        | Catch d -> setv d !thrown
        | Call s -> do_call s
        | Throw v -> raise_cell thrown (getv v)
        | Return v -> raise_at rets i (getv v))
      cmeths.(i).ops
  in
  (* round-robin passes: sweep every method, in sorted-id order, until a
     pass changes nothing. The lattice has height 2 per cell, so the pass
     count is bounded by the longest dependency chain; the cap is a
     safety net only. *)
  let passes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !passes < 1000 do
    incr passes;
    changed := false;
    for i = 0 to n - 1 do sweep i done;
    continue_ := !changed
  done;
  (* findings: sink call sites whose sensitive arguments are not provably
     untainted *)
  let findings = ref [] in
  (* carrier channel: the engine's §4.1.1 carrier detector fires at a sink
     when a Tainted fact was stored into the heap reachable from a sink
     argument — a constructor storing a parameter into [this], taint parked
     several dereferences deep, the synthesized [e.msg] store at catch
     entries. With no pointer information the reachable-heap test collapses
     to one global bit: some instance field or array element holds a
     Tainted fact. It is joined into every sink argument that can be a heap
     reference; registers defined by [Const], arithmetic, or string
     concatenation never point into the heap and stay exempt, which keeps
     taint-free sink arguments silent. Like the engine's detector it fires
     only on actual taint facts, never on Unknown. *)
  let heap_carrier =
    if Array.fold_left max !arrays fields = tainted then tainted else untainted
  in
  Array.iteri
    (fun i c ->
       if Array.exists (fun s -> s.rules.cr_sinks <> []) c.sites then begin
         let vq = vars.(i) in
         let nv = Array.length vq in
         let value_only = Array.make nv false in
         Array.iter
           (fun (b : Tac.block) ->
              Array.iter
                (function
                  | Tac.Const (d, _)
                  | Tac.Binop (d, _, _, _)
                  | Tac.Unop (d, _, _)
                  | Tac.Array_len (d, _)
                  | Tac.Instance_of (d, _, _)
                  | Tac.Strcat (d, _, _) ->
                    if d >= 0 && d < nv then value_only.(d) <- true
                  | _ -> ())
                b.Tac.instrs)
           c.meth.Tac.m_blocks;
         let arg_qual a =
           if a >= 0 && a < nv then
             if value_only.(a) then vq.(a) else max vq.(a) heap_carrier
           else heap_carrier
         in
         Array.iter
           (fun s ->
              List.iter
                (fun (rule, idxs) ->
                   let q =
                     List.fold_left
                       (fun acc a ->
                          if a >= 0 && a < Array.length s.args then
                            max acc (arg_qual s.args.(a))
                          else acc)
                       untainted idxs
                   in
                   if q <> untainted then
                     findings :=
                       { f_rule = rule;
                         f_issue = issue_of_rule rule;
                         f_class = c.meth.Tac.m_class;
                         f_meth = c.meth.Tac.m_name;
                         f_method_id = c.id;
                         f_sink = Tac.mref_id s.call.Tac.target;
                         f_site = s.call.Tac.site;
                         f_qual = qual_of_rank q }
                       :: !findings)
                s.rules.cr_sinks)
           c.sites
       end)
    cmeths;
  let findings =
    List.sort
      (fun a b ->
         match compare a.f_rule b.f_rule with
         | 0 ->
           (match compare a.f_method_id b.f_method_id with
            | 0 -> compare a.f_site b.f_site
            | c -> c)
         | c -> c)
      !findings
  in
  Telemetry.add m_findings (List.length findings);
  (* retention: a method stays in the full pipeline when any register
     (or its content coupling) may carry taint, or when it contains a
     call the rules care about (sources seed, sinks anchor carrier
     sets, sanitizers endorse — all three are consulted positionally
     by the engine and must stay indexed) *)
  let kept : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let tainted_methods = ref 0 in
  Array.iteri
    (fun i c ->
       let tainted =
         Array.exists (fun q -> q <> untainted) vars.(i)
         || extras.(i) <> untainted
       in
       if tainted then incr tainted_methods;
       if tainted || Array.exists (fun s -> not (is_plain s.rules)) c.sites
       then Hashtbl.replace kept c.id ())
    cmeths;
  let skippable = n - Hashtbl.length kept in
  { v_findings = findings;
    v_keep = kept;
    v_rules_with_sources = rules_with_sources;
    v_stats =
      { s_methods = n;
        s_skippable = skippable;
        s_tainted_methods = !tainted_methods;
        s_findings = List.length findings;
        s_passes = !passes;
        s_seconds = Unix.gettimeofday () -. t0 } }
