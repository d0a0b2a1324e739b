(** Dependence-graph construction over the pointer-analysis result.

    This module materializes the navigation structure that the slicers
    traverse: per-node def/use indexes over SSA registers (local data
    dependence, excluding base-pointer uses — the defining property of thin
    slicing), interprocedural call-site maps, and the global heap-access
    indexes that realize the HSDG's direct store→load edges. *)

module Int_set = Set.Make (Int)
module Keys = Pointer.Keys
module Telemetry = Obs.Telemetry
open Jir

let m_nodes_scanned = Telemetry.counter "sdg.nodes_scanned"
let m_memo_hits = Telemetry.counter "sdg.defuse_memo_hits"
let m_memo_misses = Telemetry.counter "sdg.defuse_memo_misses"

(** How a register is used at a statement. Base-pointer and array-index uses
    are deliberately absent: thin slices ignore them (§3.2). *)
type use =
  | U_plain of Stmt.t                  (** operand of a value-producing instr *)
  | U_stored of Stmt.t                 (** the stored value at a store stmt *)
  | U_arg of Stmt.t * int              (** call argument (position) *)
  | U_returned
  | U_thrown of Stmt.t

(** How a register is used as a base pointer: exactly the uses the
    def/use index omits, for the refinement replay. *)
type base_use =
  | B_field of Stmt.t * Keys.field     (** load/aload: stmt consumes the field *)
  | B_dict of Stmt.t * Keys.field list (** dict get: any of these fields *)

type node_index = {
  ni_def : (Tac.var, Stmt.t) Hashtbl.t;
  ni_uses : (Tac.var, use list) Hashtbl.t;
  mutable ni_base : base_use list array option;
      (* base-pointer uses per register, built on first use *)
}

(** A node index in node-relative coordinates ({!Stmt.kind} instead of
    {!Stmt.t}): a pure function of the method body alone — parameter
    defs, SSA def/use chains and the per-method dictionary-operation
    classification ([Dict_model.const_of_meth] is body-local) — so the
    incremental cache can persist it keyed by a body digest and rebind
    it to whatever call-graph node the method lands on next run. The
    entry lists are kept in a canonical order so the marshaled bytes are
    deterministic across hashtable layouts. *)
type rel_use =
  | RU_plain of Stmt.kind
  | RU_stored of Stmt.kind
  | RU_arg of Stmt.kind * int
  | RU_returned
  | RU_thrown of Stmt.kind

type defuse_summary = {
  ds_defs : (Tac.var * Stmt.kind) list;
  ds_uses : (Tac.var * rel_use list) list;
      (** per-var use lists verbatim, preserving the order
          [build_node_index] produced — traversal order downstream
          depends on it *)
}

type defuse_cache = {
  dc_lookup : Tac.meth -> defuse_summary option;
      (** validated lookup: the cache implementation compares its stored
          body digest against the current method and returns [None] on
          any mismatch (counting the invalidation) *)
  dc_store : Tac.meth -> defuse_summary -> unit;
}

type t = {
  prog : Program.t;
  a : Pointer.Andersen.t;
  cg : Pointer.Callgraph.t;
  node_indexes : (int, node_index) Hashtbl.t;
  (* global heap indexes *)
  inst_loads : (int * Keys.field, Stmt.t list ref) Hashtbl.t;
  static_loads : (Keys.field, Stmt.t list ref) Hashtbl.t;
  loads_by_ik : (int, Stmt.t list ref) Hashtbl.t;   (* any-field loads *)
  inst_stores : (int * Keys.field, Stmt.t list ref) Hashtbl.t;
  static_stores : (Keys.field, Stmt.t list ref) Hashtbl.t;
  throws : (Stmt.t * Int_set.t) list ref;           (* throw stmt, thrown pts *)
  catches : (Stmt.t * string) list ref;
  call_stmt_of_site : (int * int, Stmt.t) Hashtbl.t;  (* (node, site) *)
  caller_stmts : (int, Stmt.t list ref) Hashtbl.t;    (* callee -> call stmts *)
  all_calls : (Stmt.t * Tac.call) list ref;
  dict_ops : (Stmt.t, Models.Dict_model.op) Hashtbl.t;
  thread_of : (int, Int_set.t) Hashtbl.t;             (* node -> thread ids *)
  defuse_cache : defuse_cache option;
  mutable interrupted : bool;        (* build stopped before every node *)
}

let node_meth t n = (Pointer.Callgraph.node t.cg n).Pointer.Callgraph.n_method

let instr_of t (s : Stmt.t) : Tac.instr option =
  match s.Stmt.kind with
  | Stmt.K_instr (b, i) ->
    let m = node_meth t s.Stmt.node in
    let instrs = m.Tac.m_blocks.(b).Tac.instrs in
    if i < Array.length instrs then Some instrs.(i)
    else None    (* synthetic throw statement at block end *)
  | Stmt.K_phi _ | Stmt.K_param _ | Stmt.K_ret -> None

let call_of t s =
  match instr_of t s with
  | Some (Tac.Call c) -> Some c
  | Some _ | None -> None

let dict_op_of t s = Hashtbl.find_opt t.dict_ops s

(* ------------------------------------------------------------------ *)
(* Index construction                                                 *)
(* ------------------------------------------------------------------ *)

let add_use tbl v u =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
  Hashtbl.replace tbl v (u :: prev)

let push tbl key s =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := s :: !l
  | None -> Hashtbl.replace tbl key (ref [ s ])

let build_node_index t (n : int) : node_index =
  let m = node_meth t n in
  let ni_def = Hashtbl.create 64 and ni_uses = Hashtbl.create 64 in
  for p = 0 to m.Tac.m_arity - 1 do
    Hashtbl.replace ni_def p (Stmt.param ~node:n ~index:p)
  done;
  Array.iteri
    (fun bi (b : Tac.block) ->
       List.iteri
         (fun pi (phi : Tac.phi) ->
            let s = Stmt.phi ~node:n ~block:bi ~index:pi in
            Hashtbl.replace ni_def phi.Tac.phi_lhs s;
            List.iter (fun (_, a) -> add_use ni_uses a (U_plain s))
              phi.Tac.phi_args)
         b.Tac.phis;
       Array.iteri
         (fun ii ins ->
            let s = Stmt.instr ~node:n ~block:bi ~index:ii in
            List.iter (fun v -> Hashtbl.replace ni_def v s) (Tac.defs ins);
            match ins with
            | Tac.Move (_, a) | Tac.Cast (_, _, a) | Tac.Unop (_, _, a) ->
              add_use ni_uses a (U_plain s)
            | Tac.Binop (_, _, a, b) | Tac.Strcat (_, a, b) ->
              add_use ni_uses a (U_plain s);
              add_use ni_uses b (U_plain s)
            | Tac.Store (_, _, v) | Tac.Sstore (_, v) | Tac.Astore (_, _, v) ->
              add_use ni_uses v (U_stored s)
            | Tac.Call c ->
              (match Hashtbl.find_opt t.dict_ops s with
               | Some (Models.Dict_model.Dict_put { value; _ }) ->
                 add_use ni_uses value (U_stored s)
               | Some (Models.Dict_model.Dict_get _) -> ()
               | None ->
                 List.iteri
                   (fun i a -> add_use ni_uses a (U_arg (s, i)))
                   c.Tac.args)
            | Tac.Const _ | Tac.New _ | Tac.New_array _ | Tac.Load _
            | Tac.Sload _ | Tac.Aload _ | Tac.Array_len _
            | Tac.Instance_of _ | Tac.Catch_entry _ | Tac.Nop -> ())
         b.Tac.instrs;
       (match b.Tac.term with
        | Tac.Return (Some v) -> add_use ni_uses v U_returned
        | Tac.Throw v ->
          (* the throw "statement" is identified with the block's last
             position; we use a synthetic instr index one past the end *)
          let s =
            Stmt.instr ~node:n ~block:bi ~index:(Array.length b.Tac.instrs)
          in
          add_use ni_uses v (U_thrown s)
        | Tac.Return None | Tac.Goto _ | Tac.If _ | Tac.Unreachable -> ()))
    m.Tac.m_blocks;
  { ni_def; ni_uses; ni_base = None }

(* Node-relative strip/rebind for the persistent def/use cache. A
   round trip ([materialize ~node (strip ni)]) reproduces the exact
   hashtable content [build_node_index] would have produced for that
   node: single-binding defs are order-insensitive under [replace], and
   the per-var use lists are carried verbatim. *)
let strip_use (u : use) : rel_use =
  match u with
  | U_plain s -> RU_plain s.Stmt.kind
  | U_stored s -> RU_stored s.Stmt.kind
  | U_arg (s, i) -> RU_arg (s.Stmt.kind, i)
  | U_returned -> RU_returned
  | U_thrown s -> RU_thrown s.Stmt.kind

let strip_index (ni : node_index) : defuse_summary =
  let defs =
    Hashtbl.fold (fun v s acc -> (v, s.Stmt.kind) :: acc) ni.ni_def []
  in
  let uses =
    Hashtbl.fold
      (fun v us acc -> (v, List.map strip_use us) :: acc)
      ni.ni_uses []
  in
  { ds_defs = List.sort compare defs; ds_uses = List.sort compare uses }

let materialize_summary ~node (s : defuse_summary) : node_index =
  let abs kind = { Stmt.node; kind } in
  let abs_use = function
    | RU_plain k -> U_plain (abs k)
    | RU_stored k -> U_stored (abs k)
    | RU_arg (k, i) -> U_arg (abs k, i)
    | RU_returned -> U_returned
    | RU_thrown k -> U_thrown (abs k)
  in
  let ni_def = Hashtbl.create 64 and ni_uses = Hashtbl.create 64 in
  List.iter (fun (v, k) -> Hashtbl.replace ni_def v (abs k)) s.ds_defs;
  List.iter
    (fun (v, us) -> Hashtbl.replace ni_uses v (List.map abs_use us))
    s.ds_uses;
  { ni_def; ni_uses; ni_base = None }

(* The def/use indexes are memoized per node, on demand: most nodes are
   never touched by a slice, so forcing them all up front costs more
   than the slicing itself. *)
let node_index t n =
  match Hashtbl.find_opt t.node_indexes n with
  | Some ni ->
    Telemetry.incr m_memo_hits;
    ni
  | None ->
    Telemetry.incr m_memo_misses;
    let ni =
      match t.defuse_cache with
      | None -> build_node_index t n
      | Some dc ->
        (* persistent tier: a validated summary rebinds to this node;
           a miss rebuilds and refreshes the cache entry *)
        let m = node_meth t n in
        (match dc.dc_lookup m with
         | Some s -> materialize_summary ~node:n s
         | None ->
           let ni = build_node_index t n in
           dc.dc_store m (strip_index ni);
           ni)
    in
    Hashtbl.replace t.node_indexes n ni;
    ni

(** The statement defining register [v] in node [n], if any. *)
let def_of t ~node v = Hashtbl.find_opt (node_index t node).ni_def v

(** All uses of register [v] in node [n]. *)
let uses_of t ~node v =
  Option.value ~default:[] (Hashtbl.find_opt (node_index t node).ni_uses v)

(* One scan of the node for loads, array loads and dictionary gets, each
   register's uses in program order. *)
let build_base_uses t n =
  let m = node_meth t n in
  let acc = Array.make m.Tac.m_nvars [] in
  let record base u =
    if base >= 0 && base < Array.length acc then acc.(base) <- u :: acc.(base)
  in
  Array.iteri
    (fun bi (blk : Tac.block) ->
       Array.iteri
         (fun i instr ->
            match instr with
            | Tac.Load (_, o, f) ->
              record o
                (B_field (Stmt.instr ~node:n ~block:bi ~index:i,
                          Keys.field_of_tac f))
            | Tac.Aload (_, a, _) ->
              record a
                (B_field (Stmt.instr ~node:n ~block:bi ~index:i,
                          Keys.elem_field))
            | Tac.Call _ ->
              let stmt = Stmt.instr ~node:n ~block:bi ~index:i in
              (match Hashtbl.find_opt t.dict_ops stmt with
               | Some (Models.Dict_model.Dict_get { recv; key; _ }) ->
                 record recv
                   (B_dict
                      (stmt,
                       List.map Keys.field_of_tac
                         (Models.Dict_model.get_fields key)))
               | Some (Models.Dict_model.Dict_put _) | None -> ())
            | _ -> ())
         blk.Tac.instrs)
    m.Tac.m_blocks;
  Array.map List.rev acc

(** The base-pointer uses of register [v] in node [n], in program order.
    Built per node on the first call, in the node's def/use index. *)
let base_uses_of t ~node v =
  let ni = node_index t node in
  let base =
    match ni.ni_base with
    | Some base -> base
    | None ->
      let base = build_base_uses t node in
      ni.ni_base <- Some base;
      base
  in
  if v >= 0 && v < Array.length base then base.(v) else []

(** The register whose value a statement defines. *)
let def_var t (s : Stmt.t) : Tac.var option =
  match s.Stmt.kind with
  | Stmt.K_param i -> Some i
  | Stmt.K_ret -> None
  | Stmt.K_phi (b, i) ->
    let m = node_meth t s.Stmt.node in
    Some (List.nth m.Tac.m_blocks.(b).Tac.phis i).Tac.phi_lhs
  | Stmt.K_instr (b, i) ->
    let m = node_meth t s.Stmt.node in
    let instrs = m.Tac.m_blocks.(b).Tac.instrs in
    if i >= Array.length instrs then None    (* synthetic throw stmt *)
    else
      (match instrs.(i) with
       | Tac.Call c ->
         (match Hashtbl.find_opt t.dict_ops s with
          | Some (Models.Dict_model.Dict_put _) -> None
          | _ -> c.Tac.ret)
       | ins -> (match Tac.defs ins with [ v ] -> Some v | _ -> None))

(* ------------------------------------------------------------------ *)
(* Heap access classification                                         *)
(* ------------------------------------------------------------------ *)

let callees_of_call t (s : Stmt.t) (c : Tac.call) : int list =
  Pointer.Callgraph.callees t.cg ~caller:s.Stmt.node ~site:c.Tac.site

let native_targets_of_call t (s : Stmt.t) (c : Tac.call) : Tac.mref list =
  Pointer.Callgraph.native_targets t.cg ~caller:s.Stmt.node ~site:c.Tac.site

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)

type writes =
  | W_instance of (Int_set.t * Keys.field list)  (* base pts, fields *)
  | W_static of Keys.field
  | W_none

let pts_of_var t ~node v = Pointer.Andersen.pts_var t.a ~node v

(** What heap locations a store-like statement writes. *)
let writes_of t (s : Stmt.t) : writes =
  match instr_of t s with
  | Some (Tac.Store (o, f, _)) ->
    W_instance (pts_of_var t ~node:s.Stmt.node o, [ Keys.field_of_tac f ])
  | Some (Tac.Astore (a, _, _)) ->
    W_instance (pts_of_var t ~node:s.Stmt.node a, [ Keys.elem_field ])
  | Some (Tac.Sstore (f, _)) -> W_static (Keys.field_of_tac f)
  | Some (Tac.Call c) ->
    (match Hashtbl.find_opt t.dict_ops s with
     | Some (Models.Dict_model.Dict_put { recv; key; _ }) ->
       W_instance
         (pts_of_var t ~node:s.Stmt.node recv,
          List.map Keys.field_of_tac (Models.Dict_model.put_fields key))
     | _ ->
       (* natives with by-reference transfers write their target argument's
          contents *)
       let targets =
         List.concat_map
           (fun (native : Tac.mref) ->
              List.filter_map
                (fun (tr : Models.Natives.transfer) ->
                   match tr.Models.Natives.t_to with
                   | Models.Natives.Param j -> List.nth_opt c.Tac.args j
                   | Models.Natives.Ret -> None)
                (Models.Natives.summary ~meth_id:(Tac.mref_id native)
                   ~arity:(List.length c.Tac.args)
                   ~has_ret:(c.Tac.ret <> None)))
           (native_targets_of_call t s c)
       in
       (match targets with
        | [] -> W_none
        | vs ->
          let pts =
            List.fold_left
              (fun acc v ->
                 Int_set.union acc (pts_of_var t ~node:s.Stmt.node v))
              Int_set.empty vs
          in
          W_instance (pts, [ Keys.elem_field ])))
  | _ -> W_none

(** Load statements that may read an instance-key/field pair. *)
let loads_reading t ~ik ~field =
  match Hashtbl.find_opt t.inst_loads (ik, field) with
  | Some l -> !l
  | None -> []

(** Store statements that may write an instance-key/field pair (the reverse
    direct edges, for backward slicing). *)
let stores_writing t ~ik ~field =
  match Hashtbl.find_opt t.inst_stores (ik, field) with
  | Some l -> !l
  | None -> []

let static_stores_of t field =
  match Hashtbl.find_opt t.static_stores field with
  | Some l -> !l
  | None -> []

(** Throw statements whose thrown keys may reach a handler of class [cls]. *)
let throws_for t ~(table : Classtable.t) (cls : string) : Stmt.t list =
  let u = Pointer.Andersen.universe t.a in
  List.filter_map
    (fun (s, pts) ->
       if Int_set.exists
           (fun ik ->
              Classtable.is_subclass table
                (Keys.inst_class (Keys.ik_of u ik)) cls)
           pts
       then Some s
       else None)
    !(t.throws)

let static_loads_of t field =
  match Hashtbl.find_opt t.static_loads field with
  | Some l -> !l
  | None -> []

(** Load statements reading any field of an instance key (for by-reference
    sources). *)
let loads_of_ik t ~ik =
  match Hashtbl.find_opt t.loads_by_ik ik with
  | Some l -> !l
  | None -> []

(** Catch statements whose declared class admits one of the thrown keys. *)
let catches_for t (thrown : Int_set.t) : Stmt.t list =
  let table = t.prog.Program.table in
  let u = Pointer.Andersen.universe t.a in
  List.filter_map
    (fun (s, cls) ->
       let compatible =
         Int_set.exists
           (fun ikid ->
              Classtable.is_subclass table
                (Keys.inst_class (Keys.ik_of u ikid)) cls)
           thrown
       in
       if compatible then Some s else None)
    !(t.catches)

(* ------------------------------------------------------------------ *)
(* Calls                                                              *)
(* ------------------------------------------------------------------ *)

(** Call statements in any node that invoke [callee]. *)
let callers_of_node t ~callee =
  match Hashtbl.find_opt t.caller_stmts callee with
  | Some l -> !l
  | None -> []

let all_call_stmts t = !(t.all_calls)

let thread_ids_of t node =
  Option.value ~default:Int_set.empty (Hashtbl.find_opt t.thread_of node)

(* ------------------------------------------------------------------ *)
(* Global scan                                                        *)
(* ------------------------------------------------------------------ *)

let scan_node t n =
  let m = node_meth t n in
  let const_of = Pointer.Andersen.const_of t.a m in
  Array.iteri
    (fun bi (b : Tac.block) ->
       Array.iteri
         (fun ii ins ->
            let s = Stmt.instr ~node:n ~block:bi ~index:ii in
            match ins with
            | Tac.Load (_, o, f) ->
              let f = Keys.field_of_tac f in
              Int_set.iter
                (fun ik ->
                   push t.inst_loads (ik, f) s;
                   push t.loads_by_ik ik s)
                (pts_of_var t ~node:n o)
            | Tac.Aload (_, a, _) ->
              Int_set.iter
                (fun ik ->
                   push t.inst_loads (ik, Keys.elem_field) s;
                   push t.loads_by_ik ik s)
                (pts_of_var t ~node:n a)
            | Tac.Sload (_, f) -> push t.static_loads (Keys.field_of_tac f) s
            | Tac.Store (o, f, _) ->
              let f = Keys.field_of_tac f in
              Int_set.iter
                (fun ik -> push t.inst_stores (ik, f) s)
                (pts_of_var t ~node:n o)
            | Tac.Astore (a, _, _) ->
              Int_set.iter
                (fun ik -> push t.inst_stores (ik, Keys.elem_field) s)
                (pts_of_var t ~node:n a)
            | Tac.Sstore (f, _) ->
              push t.static_stores (Keys.field_of_tac f) s
            | Tac.Catch_entry (_, cls) -> t.catches := (s, cls) :: !(t.catches)
            | Tac.Call c ->
              Hashtbl.replace t.call_stmt_of_site (n, c.Tac.site) s;
              t.all_calls := (s, c) :: !(t.all_calls);
              (match Models.Dict_model.classify ~const_of c with
               | Some op ->
                 Hashtbl.replace t.dict_ops s op;
                 (match op with
                  | Models.Dict_model.Dict_get { recv; key; _ } ->
                    let fields =
                      List.map Keys.field_of_tac
                        (Models.Dict_model.get_fields key)
                    in
                    Int_set.iter
                      (fun ik ->
                         List.iter (fun f -> push t.inst_loads (ik, f) s) fields;
                         push t.loads_by_ik ik s)
                      (pts_of_var t ~node:n recv)
                  | Models.Dict_model.Dict_put { recv; key; _ } ->
                    let fields =
                      List.map Keys.field_of_tac
                        (Models.Dict_model.put_fields key)
                    in
                    Int_set.iter
                      (fun ik ->
                         List.iter
                           (fun f -> push t.inst_stores (ik, f) s)
                           fields)
                      (pts_of_var t ~node:n recv))
               | None ->
                 List.iter
                   (fun callee -> push t.caller_stmts callee s)
                   (callees_of_call t s c);
                 (* an unresolved reflective invoke consumes the contents of
                    its argument array: model it as a load of the array's
                    element field so tainted arguments still reach it *)
                 (match c.Tac.target, List.rev c.Tac.args with
                  | { Tac.rclass = "Method"; rname = "invoke"; rarity = 3 },
                    arr :: _ ->
                    Int_set.iter
                      (fun ik ->
                         push t.inst_loads (ik, Keys.elem_field) s;
                         push t.loads_by_ik ik s)
                      (pts_of_var t ~node:n arr)
                  | _ -> ());
                 (* natives with by-reference transfers (e.g. arraycopy)
                    read the contents of their source argument *)
                 List.iter
                   (fun (native : Tac.mref) ->
                      List.iter
                        (fun (tr : Models.Natives.transfer) ->
                           match tr.Models.Natives.t_to with
                           | Models.Natives.Param _ ->
                             (match List.nth_opt c.Tac.args
                                      tr.Models.Natives.t_from with
                              | Some src ->
                                Int_set.iter
                                  (fun ik ->
                                     push t.inst_loads (ik, Keys.elem_field) s;
                                     push t.loads_by_ik ik s)
                                  (pts_of_var t ~node:n src)
                              | None -> ())
                           | Models.Natives.Ret -> ())
                        (Models.Natives.summary
                           ~meth_id:(Tac.mref_id native)
                           ~arity:(List.length c.Tac.args)
                           ~has_ret:(c.Tac.ret <> None)))
                   (native_targets_of_call t s c))
            | _ -> ())
         b.Tac.instrs;
       (match b.Tac.term with
        | Tac.Throw v ->
          let s =
            Stmt.instr ~node:n ~block:bi ~index:(Array.length b.Tac.instrs)
          in
          t.throws := (s, pts_of_var t ~node:n v) :: !(t.throws)
        | _ -> ()))
    m.Tac.m_blocks

(* Thread partitioning: flows that cross a Thread.start -> run dispatch run
   on a different thread. Used by the CS configuration's (unsound) heap
   treatment. *)
let compute_threads t =
  let next_tid = ref 1 in
  let set_tid node tid =
    let prev =
      Option.value ~default:Int_set.empty (Hashtbl.find_opt t.thread_of node)
    in
    if Int_set.mem tid prev then false
    else begin
      Hashtbl.replace t.thread_of node (Int_set.add tid prev);
      true
    end
  in
  let queue = Queue.create () in
  Pointer.Callgraph.iter_nodes t.cg (fun n ->
      let id = Tac.method_id n.Pointer.Callgraph.n_method in
      if List.mem id t.prog.Program.entrypoints
         || List.mem id t.prog.Program.clinits
      then
        if set_tid n.Pointer.Callgraph.n_id 0 then
          Queue.add (n.Pointer.Callgraph.n_id, 0) queue);
  while not (Queue.is_empty queue) do
    let node, tid = Queue.pop queue in
    let caller_meth = Tac.method_id (node_meth t node) in
    List.iter
      (fun callee ->
         let callee_meth = node_meth t callee in
         let crossing =
           String.equal caller_meth "Thread.start/1"
           && String.equal callee_meth.Tac.m_name "run"
         in
         let tid' =
           if crossing then begin
             let fresh = !next_tid in
             next_tid := fresh + 1;
             fresh
           end
           else tid
         in
         if set_tid callee tid' then Queue.add (callee, tid') queue)
      (Pointer.Callgraph.successors t.cg node)
  done

let build ?(interrupt = fun () -> false) ?(scan_filter = fun _ -> true)
    ?defuse_cache (prog : Program.t) (a : Pointer.Andersen.t) : t =
  Telemetry.with_span "sdg.build" @@ fun () ->
  let t =
    { prog; a;
      cg = Pointer.Andersen.call_graph a;
      node_indexes = Hashtbl.create 256;
      inst_loads = Hashtbl.create 1024;
      static_loads = Hashtbl.create 64;
      loads_by_ik = Hashtbl.create 1024;
      inst_stores = Hashtbl.create 1024;
      static_stores = Hashtbl.create 64;
      throws = ref [];
      catches = ref [];
      call_stmt_of_site = Hashtbl.create 1024;
      caller_stmts = Hashtbl.create 256;
      all_calls = ref [];
      dict_ops = Hashtbl.create 64;
      thread_of = Hashtbl.create 256;
      defuse_cache;
      interrupted = false }
  in
  let n_nodes = Pointer.Callgraph.node_count t.cg in
  let n = ref 0 in
  while !n < n_nodes && not t.interrupted do
    if interrupt () then t.interrupted <- true
    else begin
      (* the triage pre-filter: a node proven untaint-reachable (and free
         of rule-relevant calls) contributes nothing any slice can reach,
         so its heap/call/throw indexing is skipped wholesale. The lazy
         per-node def/use memo is unaffected — it only materializes for
         nodes a slice actually visits. *)
      if scan_filter (node_meth t !n) then begin
        scan_node t !n;
        Telemetry.incr m_nodes_scanned
      end;
      incr n
    end
  done;
  compute_threads t;
  t

let interrupted t = t.interrupted

