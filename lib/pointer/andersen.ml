(** Context-sensitive Andersen pointer analysis with on-the-fly call-graph
    construction (§3.1) and priority-driven constraint adding (§6.1).

    The solver iterates between two phases, exactly as the paper describes:

    - {e constraint adding}: a pending method clone (call-graph node) is
      dequeued and the constraints of its body are registered;
    - {e constraint solving}: subset edges are propagated to a fixed point;
      newly discovered virtual-call targets create new call-graph nodes,
      which enter the pending queue.

    Under a node budget the pending queue is either FIFO ("chaotic
    iteration") or a priority queue driven by the locality-of-taint
    heuristic; when the budget runs out the result is an underapproximation,
    which the taint stage can still mine for bugs. *)

module Int_set = Set.Make (Int)
module Telemetry = Obs.Telemetry
open Jir

(* Telemetry: the quantities the §6.1 bounded-analysis argument is about.
   All updates are no-ops (one atomic load) unless telemetry is enabled. *)
let m_propagations = Telemetry.counter "pointer.propagations"
let m_dispatches = Telemetry.counter "pointer.dispatches"
let m_nodes_processed = Telemetry.counter "pointer.nodes_processed"
let m_dropped_calls = Telemetry.counter "pointer.dropped_calls"
let m_fixpoint_rounds = Telemetry.counter "pointer.fixpoint_rounds"
let h_worklist = Telemetry.histogram "pointer.worklist_len"
let g_cg_nodes = Telemetry.gauge "pointer.cg_nodes"
let g_cg_edges = Telemetry.gauge "pointer.cg_edges"
let g_cg_budget = Telemetry.gauge "pointer.cg_node_budget"

type config = {
  policy : Policy.t;
  max_nodes : int option;              (** §6.1 call-graph node budget *)
  prioritized : bool;                  (** priority-driven vs chaotic *)
  is_source_method : string -> bool;   (** taint sources, for priorities *)
  excluded_class : string -> bool;     (** whitelisted library code (§4.2.1) *)
  max_work : int option;
      (** hard budget on propagation steps; exceeding it aborts the analysis
          (models the memory exhaustion of the CS configuration) *)
  interrupt : unit -> bool;
      (** cooperative cancellation/deadline poll: when it returns [true] the
          solver stops cleanly and the partial result (an
          underapproximation, like a tripped node budget) is returned *)
}

exception Out_of_budget

let default_config ?(policy = Policy.default ()) () =
  { policy;
    max_nodes = None;
    prioritized = false;
    is_source_method = (fun _ -> false);
    excluded_class = (fun _ -> false);
    max_work = None;
    interrupt = (fun () -> false) }

(* A virtual (or special) call waiting for receiver points-to facts. *)
type vcall = {
  vc_caller : int;
  vc_site : int;
  vc_target : Tac.mref;
  vc_dispatch_class : string option;   (* Some c: dispatch fixed (Special) *)
  vc_args : Tac.var list;
  vc_ret : Tac.var option;
  mutable vc_seen : Int_set.t;         (* instance keys already dispatched *)
  mutable vc_native_done : bool;
}

(* Subset edges already added: (src, dst, filter class). *)
module Edge_tbl = Hashtbl.Make (struct
    type t = int * int * string option
    let equal (s, d, f) (s', d', f') =
      s = s' && d = d' && Option.equal String.equal f f'
    let hash (s, d, _) = Keys.mix s d
  end)

type base_constraint =
  | Cb_load of { fields : Keys.field list; dst : int; mutable seen : Int_set.t }
  | Cb_store of { fields : Keys.field list; src : int; mutable seen : Int_set.t }

type stats = {
  mutable nodes_processed : int;
  mutable dropped_calls : int;         (* calls lost to the node budget *)
  mutable propagations : int;
  mutable dispatches : int;
}

type t = {
  prog : Program.t;
  u : Keys.universe;
  cg : Callgraph.t;
  cfg : config;
  mutable interrupted : bool;                          (* stopped by cfg.interrupt *)
  mutable pts : Int_set.t array;                       (* pk -> iks *)
  mutable succ : (int * string option) list array;     (* pk -> edges *)
  edge_seen : unit Edge_tbl.t;
  base_cs : (int, base_constraint list ref) Hashtbl.t; (* pk -> constraints *)
  vcalls : (int, vcall list ref) Hashtbl.t;            (* recv pk -> calls *)
  mutable dirty : bool array;                          (* pk in worklist? *)
  work : int Queue.t;
  pending_fifo : int Queue.t;
  pending_prio : Pq.t;
  prio : (int, int) Hashtbl.t;                         (* node -> priority *)
  processed : (int, unit) Hashtbl.t;
  field_writers : (Keys.field, Int_set.t ref) Hashtbl.t;
  field_readers : (Keys.field, Int_set.t ref) Hashtbl.t;
  const_cache : (string, Tac.var -> string option) Hashtbl.t;
  source_meths : (string, bool) Hashtbl.t;     (* method id -> calls a source *)
  stats : stats;
  default_prio : int;
}

(* ------------------------------------------------------------------ *)
(* Storage helpers                                                    *)
(* ------------------------------------------------------------------ *)

let ensure_capacity t n =
  let cap = Array.length t.pts in
  if n >= cap then begin
    let newcap = max (2 * cap) (n + 64) in
    let pts = Array.make newcap Int_set.empty in
    Array.blit t.pts 0 pts 0 cap;
    t.pts <- pts;
    let succ = Array.make newcap [] in
    Array.blit t.succ 0 succ 0 cap;
    t.succ <- succ;
    let dirty = Array.make newcap false in
    Array.blit t.dirty 0 dirty 0 cap;
    t.dirty <- dirty
  end

let pk t key =
  let id = Keys.pk t.u key in
  ensure_capacity t id;
  id

let pk_var t node v =
  let id = Keys.pk_var t.u node v in
  ensure_capacity t id;
  id

let pts t p = t.pts.(p)

let mark_dirty t p =
  if not t.dirty.(p) then begin
    t.dirty.(p) <- true;
    Queue.add p t.work
  end

let add_ik t p ikid =
  if not (Int_set.mem ikid t.pts.(p)) then begin
    t.pts.(p) <- Int_set.add ikid t.pts.(p);
    mark_dirty t p
  end

let class_passes_filter t cls = function
  | None -> true
  | Some f -> Classtable.is_subclass t.prog.Program.table cls f

let add_edge t ?filter src dst =
  let key = (src, dst, filter) in
  if not (Edge_tbl.mem t.edge_seen key) then begin
    Edge_tbl.replace t.edge_seen key ();
    t.succ.(src) <- (dst, filter) :: t.succ.(src);
    (* flow existing facts immediately *)
    if not (Int_set.is_empty t.pts.(src)) then begin
      let moved = ref false in
      Int_set.iter
        (fun ikid ->
           let cls = Keys.inst_class (Keys.ik_of t.u ikid) in
           if class_passes_filter t cls filter
              && not (Int_set.mem ikid t.pts.(dst))
           then begin
             t.pts.(dst) <- Int_set.add ikid t.pts.(dst);
             moved := true
           end)
        t.pts.(src);
      if !moved then mark_dirty t dst
    end
  end

(* ------------------------------------------------------------------ *)
(* Priorities (§6.1)                                                  *)
(* ------------------------------------------------------------------ *)

(* asked once per method, not once per clone *)
let method_contains_source t (m : Tac.meth) =
  let id = Tac.method_id m in
  match Hashtbl.find_opt t.source_meths id with
  | Some b -> b
  | None ->
    let b =
      Array.exists
        (fun (b : Tac.block) ->
           Array.exists
             (fun ins ->
                match ins with
                | Tac.Call { target; _ } ->
                  t.cfg.is_source_method (Tac.mref_id target)
                | _ -> false)
             b.Tac.instrs)
        m.Tac.m_blocks
    in
    Hashtbl.add t.source_meths id b;
    b

let priority_of t node =
  match Hashtbl.find_opt t.prio node with
  | Some p -> p
  | None -> t.default_prio

let set_priority t node p = Hashtbl.replace t.prio node p

(* initial-assignment rule: source nodes get priority 0 *)
let assign_initial_priority t node =
  if not (Hashtbl.mem t.prio node) then begin
    let m = (Callgraph.node t.cg node).Callgraph.n_method in
    let p = if method_contains_source t m then 0 else t.default_prio in
    set_priority t node p
  end

let enqueue_pending t node =
  assign_initial_priority t node;
  if t.cfg.prioritized then Pq.push t.pending_prio (priority_of t node) node
  else Queue.add node t.pending_fifo

(* neighborhood of a node: call-graph preds and succs, plus nodes whose
   loads match fields stored by this node *)
let neighbors t node =
  let m = (Callgraph.node t.cg node).Callgraph.n_method in
  let base =
    Int_set.union
      (Int_set.of_list (Callgraph.callers t.cg ~callee:node))
      (Int_set.of_list (Callgraph.successors t.cg node))
  in
  let stored_fields = ref [] in
  Array.iter
    (fun (b : Tac.block) ->
       Array.iter
         (fun ins ->
            match ins with
            | Tac.Store (_, f, _) | Tac.Sstore (f, _) ->
              stored_fields := Keys.field_of_tac f :: !stored_fields
            | Tac.Astore _ -> stored_fields := Keys.elem_field :: !stored_fields
            | _ -> ())
         b.Tac.instrs)
    m.Tac.m_blocks;
  List.fold_left
    (fun acc f ->
       match Hashtbl.find_opt t.field_readers f with
       | Some readers -> Int_set.union !readers acc
       | None -> acc)
    base !stored_fields
  |> Int_set.remove node

(* steps 2-5: pull neighborhood priorities toward the dequeued node *)
let update_priorities t node =
  if t.cfg.prioritized then begin
    let queue = Queue.create () in
    Queue.add node queue;
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      let pn = priority_of t n in
      Int_set.iter
        (fun nb ->
           assign_initial_priority t nb;
           let pt = priority_of t nb in
           if pn + 1 < pt then begin
             set_priority t nb (pn + 1);
             if not (Hashtbl.mem t.processed nb) then
               Pq.push t.pending_prio (pn + 1) nb;
             Queue.add nb queue
           end)
        (neighbors t n)
    done
  end

(* ------------------------------------------------------------------ *)
(* Call handling                                                      *)
(* ------------------------------------------------------------------ *)

let node_budget_ok t =
  match t.cfg.max_nodes with
  | Some m -> Callgraph.node_count t.cg < m
  | None -> true

let find_impl t (mref : Tac.mref) ~runtime_class : Tac.meth option =
  let direct id = Program.find_method t.prog id in
  match runtime_class with
  | Some cls ->
    (match Classtable.dispatch t.prog.Program.table cls mref.Tac.rname
             mref.Tac.rarity with
     | Some mi ->
       direct (Tac.id mi.Classtable.mi_class mref.Tac.rname mref.Tac.rarity)
     | None -> None)
  | None ->
    (* static or fixed-class special: program registry first (synthetic
       methods like $Reflect.dispatch$N have no class-table entry) *)
    (match direct (Tac.mref_id mref) with
     | Some m -> Some m
     | None ->
       (match Classtable.resolve_static t.prog.Program.table mref.Tac.rclass
                mref.Tac.rname mref.Tac.rarity with
        | Some mi ->
          direct
            (Tac.id mi.Classtable.mi_class mref.Tac.rname mref.Tac.rarity)
        | None -> None))

let ret_type_of t (mref : Tac.mref) : Ast.typ option =
  match Classtable.lookup_method t.prog.Program.table mref.Tac.rclass
          mref.Tac.rname mref.Tac.rarity with
  | Some mi -> Some mi.Classtable.mi_ret
  | None -> None

(* Apply the native transfer summary for an unresolvable callee. *)
let apply_native_summary t ~caller ~site ~(target : Tac.mref) ~args ~ret =
  Callgraph.add_native_call t.cg ~caller ~site ~target;
  (match ret with
   | Some r ->
     let rp = pk_var t caller r in
     let transfers =
       Models.Natives.summary ~meth_id:(Tac.mref_id target)
         ~arity:(List.length args) ~has_ret:true
     in
     let rt = ret_type_of t target in
     let filter =
       match rt with
       | Some (Ast.Tclass c) -> Some c
       | _ -> None
     in
     List.iter
       (fun (tr : Models.Natives.transfer) ->
          match tr.Models.Natives.t_to with
          | Models.Natives.Ret ->
            (match List.nth_opt args tr.Models.Natives.t_from with
             | Some a -> add_edge t ?filter (pk_var t caller a) rp
             | None -> ())
          | Models.Natives.Param _ -> ())
       transfers;
     (* a native declared to return String produces a string value; one
        declared to return an array produces a per-call-site array object,
        so loads of its contents resolve (e.g. getParameterValues) *)
     (match rt with
      | Some (Ast.Tclass "String") -> add_ik t rp (Keys.ik t.u Keys.Ik_string)
      | Some (Ast.Tarray elem) ->
        let cls = Fmt.str "%a[]" Ast.pp_typ elem in
        add_ik t rp
          (Keys.ik t.u (Keys.Ik_alloc { site; cls; hctx = Keys.Cx_empty }))
      | _ -> ())
   | None -> ())

let connect_call t ~caller ~callee_node ~args ~ret =
  let callee = Callgraph.node t.cg callee_node in
  let formal_filter i =
    (* receivers are filtered by the implementing class for precision *)
    if i = 0 && not callee.Callgraph.n_method.Tac.m_static then
      Some callee.Callgraph.n_method.Tac.m_class
    else None
  in
  List.iteri
    (fun i a ->
       add_edge t ?filter:(formal_filter i) (pk_var t caller a)
         (pk_var t callee_node i))
    args;
  (match ret with
   | Some r -> add_edge t (pk t (Keys.Pk_ret callee_node)) (pk_var t caller r)
   | None -> ())

let resolve_to_node t ~caller ~site ~(impl : Tac.meth) ~receiver =
  let callee_id = Tac.method_id impl in
  let ctx =
    Policy.callee_context t.cfg.policy ~site ~callee_id ~receiver
  in
  if node_budget_ok t
     || Callgraph.find_node t.cg callee_id ctx <> None then begin
    let nid =
      Callgraph.ensure_node t.cg impl ctx ~fresh:(fun id -> enqueue_pending t id)
    in
    ignore (Callgraph.add_edge t.cg ~caller ~site ~callee:nid);
    Some nid
  end
  else begin
    t.stats.dropped_calls <- t.stats.dropped_calls + 1;
    Telemetry.incr m_dropped_calls;
    None
  end

let dispatch_one t (vc : vcall) ikid =
  t.stats.dispatches <- t.stats.dispatches + 1;
  Telemetry.incr m_dispatches;
  let ikey = Keys.ik_of t.u ikid in
  let runtime_class = Keys.inst_class ikey in
  (* receiver must be compatible with the call's declared class unless the
     declared class is unknown (interfaces, Object, ...) *)
  let impl =
    match vc.vc_dispatch_class with
    | Some c ->
      (match Classtable.lookup_method t.prog.Program.table c
               vc.vc_target.Tac.rname vc.vc_target.Tac.rarity with
       | Some mi ->
         Program.find_method t.prog
           (Tac.id mi.Classtable.mi_class vc.vc_target.Tac.rname
              vc.vc_target.Tac.rarity)
       | None -> None)
    | None -> find_impl t vc.vc_target ~runtime_class:(Some runtime_class)
  in
  match impl with
  | Some m when m.Tac.m_has_body && not (t.cfg.excluded_class m.Tac.m_class) ->
    (match
       resolve_to_node t ~caller:vc.vc_caller ~site:vc.vc_site ~impl:m
         ~receiver:(Some ikey)
     with
     | Some nid ->
       connect_call t ~caller:vc.vc_caller ~callee_node:nid
         ~args:vc.vc_args ~ret:vc.vc_ret
     | None -> ())
  | Some _ | None ->
    if not vc.vc_native_done then begin
      vc.vc_native_done <- true;
      apply_native_summary t ~caller:vc.vc_caller ~site:vc.vc_site
        ~target:vc.vc_target ~args:vc.vc_args ~ret:vc.vc_ret
    end

let process_vcall t (vc : vcall) recv_pk =
  let current = pts t recv_pk in
  let fresh = Int_set.diff current vc.vc_seen in
  vc.vc_seen <- Int_set.union vc.vc_seen fresh;
  Int_set.iter (fun ikid -> dispatch_one t vc ikid) fresh

let process_base_constraint t (c : base_constraint) base_pk =
  let current = pts t base_pk in
  match c with
  | Cb_load lc ->
    let fresh = Int_set.diff current lc.seen in
    lc.seen <- Int_set.union lc.seen fresh;
    Int_set.iter
      (fun ikid ->
         List.iter
           (fun f -> add_edge t (pk t (Keys.Pk_field (ikid, f))) lc.dst)
           lc.fields)
      fresh
  | Cb_store sc ->
    let fresh = Int_set.diff current sc.seen in
    sc.seen <- Int_set.union sc.seen fresh;
    Int_set.iter
      (fun ikid ->
         List.iter
           (fun f -> add_edge t sc.src (pk t (Keys.Pk_field (ikid, f))))
           sc.fields)
      fresh

let add_base_constraint t base_pk (c : base_constraint) =
  let lst =
    match Hashtbl.find_opt t.base_cs base_pk with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.base_cs base_pk l;
      l
  in
  lst := c :: !lst;
  process_base_constraint t c base_pk

let add_vcall t recv_pk (vc : vcall) =
  let lst =
    match Hashtbl.find_opt t.vcalls recv_pk with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.vcalls recv_pk l;
      l
  in
  lst := vc :: !lst;
  process_vcall t vc recv_pk

(* ------------------------------------------------------------------ *)
(* Constraint generation per node                                     *)
(* ------------------------------------------------------------------ *)

(* The string constant a register of [m] is bound to: one def-sites pass
   per method, forced by the first dictionary access that asks. *)
let const_of t (m : Tac.meth) v =
  let id = Tac.method_id m in
  let f =
    match Hashtbl.find_opt t.const_cache id with
    | Some f -> f
    | None ->
      let f = Models.Dict_model.const_of_meth m in
      Hashtbl.replace t.const_cache id f;
      f
  in
  f v

let note_field_access t node f ~write =
  let table = if write then t.field_writers else t.field_readers in
  let set =
    match Hashtbl.find_opt table f with
    | Some s -> s
    | None ->
      let s = ref Int_set.empty in
      Hashtbl.replace table f s;
      s
  in
  set := Int_set.add node !set

let add_call_constraints t node (m : Tac.meth) (c : Tac.call) =
  let caller = node in
  match Models.Dict_model.classify ~const_of:(const_of t m) c with
  | Some (Models.Dict_model.Dict_put { recv; key; value }) ->
    let fields =
      List.map Keys.field_of_tac (Models.Dict_model.put_fields key)
    in
    List.iter (fun f -> note_field_access t node f ~write:true) fields;
    add_base_constraint t (pk_var t caller recv)
      (Cb_store { fields; src = pk_var t caller value; seen = Int_set.empty })
  | Some (Models.Dict_model.Dict_get { dst; recv; key }) ->
    let fields =
      List.map Keys.field_of_tac (Models.Dict_model.get_fields key)
    in
    List.iter (fun f -> note_field_access t node f ~write:false) fields;
    add_base_constraint t (pk_var t caller recv)
      (Cb_load { fields; dst = pk_var t caller dst; seen = Int_set.empty })
  | None ->
    (match c.Tac.kind with
     | Tac.Static ->
       (match find_impl t c.Tac.target ~runtime_class:None with
        | Some m when m.Tac.m_has_body
                   && not (t.cfg.excluded_class m.Tac.m_class) ->
          (match
             resolve_to_node t ~caller ~site:c.Tac.site ~impl:m ~receiver:None
           with
           | Some nid ->
             connect_call t ~caller ~callee_node:nid
               ~args:c.Tac.args ~ret:c.Tac.ret
           | None -> ())
        | Some _ | None ->
          apply_native_summary t ~caller ~site:c.Tac.site ~target:c.Tac.target
            ~args:c.Tac.args ~ret:c.Tac.ret)
     | Tac.Virtual | Tac.Special ->
       (match c.Tac.args with
        | recv :: _ ->
          let vc =
            { vc_caller = caller;
              vc_site = c.Tac.site;
              vc_target = c.Tac.target;
              vc_dispatch_class =
                (match c.Tac.kind with
                 | Tac.Special -> Some c.Tac.target.Tac.rclass
                 | Tac.Virtual | Tac.Static -> None);
              vc_args = c.Tac.args;
              vc_ret = c.Tac.ret;
              vc_seen = Int_set.empty;
              vc_native_done = false }
          in
          add_vcall t (pk_var t caller recv) vc
        | [] -> ()))

let add_node_constraints t node =
  let n = Callgraph.node t.cg node in
  let m = n.Callgraph.n_method in
  let ctx = n.Callgraph.n_ctx in
  let cvar = pk_var t node in
  let string_ik = Keys.ik t.u Keys.Ik_string in
  Array.iter
    (fun (b : Tac.block) ->
       List.iter
         (fun (p : Tac.phi) ->
            List.iter
              (fun (_, a) -> add_edge t (cvar a) (cvar p.Tac.phi_lhs))
              p.Tac.phi_args)
         b.Tac.phis;
       Array.iter
         (fun ins ->
            match ins with
            | Tac.Const (d, Tac.Cstr _) -> add_ik t (cvar d) string_ik
            | Tac.Strcat (d, _, _) -> add_ik t (cvar d) string_ik
            | Tac.Const _ | Tac.Binop _ | Tac.Unop _ | Tac.Array_len _
            | Tac.Instance_of _ | Tac.Nop -> ()
            | Tac.Move (d, s) -> add_edge t (cvar s) (cvar d)
            | Tac.Cast (d, ty, s) ->
              let filter =
                match ty with Ast.Tclass c -> Some c | _ -> None
              in
              add_edge t ?filter (cvar s) (cvar d)
            | Tac.New (d, cls, site) ->
              let hctx =
                Policy.heap_context t.cfg.policy ~cls ~alloc_ctx:ctx
              in
              add_ik t (cvar d)
                (Keys.ik t.u (Keys.Ik_alloc { site; cls; hctx }))
            | Tac.New_array (d, ty, _, site) ->
              let cls = Fmt.str "%a[]" Ast.pp_typ ty in
              add_ik t (cvar d)
                (Keys.ik t.u (Keys.Ik_alloc { site; cls; hctx = Keys.Cx_empty }))
            | Tac.Load (d, o, f) ->
              let f = Keys.field_of_tac f in
              note_field_access t node f ~write:false;
              add_base_constraint t (cvar o)
                (Cb_load { fields = [ f ]; dst = cvar d; seen = Int_set.empty })
            | Tac.Store (o, f, v) ->
              let f = Keys.field_of_tac f in
              note_field_access t node f ~write:true;
              add_base_constraint t (cvar o)
                (Cb_store { fields = [ f ]; src = cvar v; seen = Int_set.empty })
            | Tac.Sload (d, f) ->
              add_edge t (pk t (Keys.Pk_static (Keys.field_of_tac f))) (cvar d)
            | Tac.Sstore (f, v) ->
              add_edge t (cvar v) (pk t (Keys.Pk_static (Keys.field_of_tac f)))
            | Tac.Aload (d, a, _) ->
              note_field_access t node Keys.elem_field ~write:false;
              add_base_constraint t (cvar a)
                (Cb_load { fields = [ Keys.elem_field ]; dst = cvar d;
                           seen = Int_set.empty })
            | Tac.Astore (a, _, v) ->
              note_field_access t node Keys.elem_field ~write:true;
              add_base_constraint t (cvar a)
                (Cb_store { fields = [ Keys.elem_field ]; src = cvar v;
                            seen = Int_set.empty })
            | Tac.Catch_entry (v, exn_cls) ->
              add_edge t ~filter:exn_cls (pk t Keys.Pk_exn) (cvar v);
              (* the runtime can always throw, independent of application
                 throw statements (§4.1.2 leak modeling) *)
              add_ik t (cvar v) (Keys.ik t.u (Keys.Ik_exn exn_cls))
            | Tac.Call c -> add_call_constraints t node m c)
         b.Tac.instrs;
       (match b.Tac.term with
        | Tac.Return (Some v) ->
          add_edge t (cvar v) (pk t (Keys.Pk_ret node))
        | Tac.Throw v -> add_edge t (cvar v) (pk t Keys.Pk_exn)
        | Tac.Return None | Tac.Goto _ | Tac.If _ | Tac.Unreachable -> ()))
    m.Tac.m_blocks

(* ------------------------------------------------------------------ *)
(* Solving                                                            *)
(* ------------------------------------------------------------------ *)

(* Poll the cooperative interrupt; once true it latches, so a tripped
   deadline stops every later loop too. *)
let interrupted_now t =
  t.interrupted
  ||
  if t.cfg.interrupt () then begin
    t.interrupted <- true;
    true
  end
  else false

let solve t =
  Telemetry.incr m_fixpoint_rounds;
  while not (Queue.is_empty t.work) && not (interrupted_now t) do
    Telemetry.observe h_worklist (Queue.length t.work);
    let p = Queue.pop t.work in
    t.dirty.(p) <- false;
    t.stats.propagations <- t.stats.propagations + 1;
    Telemetry.incr m_propagations;
    (match t.cfg.max_work with
     | Some m when t.stats.propagations > m -> raise Out_of_budget
     | _ -> ());
    let facts = t.pts.(p) in
    (* subset edges *)
    List.iter
      (fun (dst, filter) ->
         let moved = ref false in
         Int_set.iter
           (fun ikid ->
              if not (Int_set.mem ikid t.pts.(dst)) then begin
                let cls = Keys.inst_class (Keys.ik_of t.u ikid) in
                if class_passes_filter t cls filter then begin
                  t.pts.(dst) <- Int_set.add ikid t.pts.(dst);
                  moved := true
                end
              end)
           facts;
         if !moved then mark_dirty t dst)
      t.succ.(p);
    (* complex constraints keyed on this pointer *)
    (match Hashtbl.find_opt t.base_cs p with
     | Some cs -> List.iter (fun c -> process_base_constraint t c p) !cs
     | None -> ());
    (match Hashtbl.find_opt t.vcalls p with
     | Some vcs -> List.iter (fun vc -> process_vcall t vc p) !vcs
     | None -> ())
  done

let next_pending t : int option =
  if t.cfg.prioritized then begin
    let rec loop () =
      match Pq.pop t.pending_prio with
      | None -> None
      | Some (p, node) ->
        if Hashtbl.mem t.processed node then loop ()
        else if p > priority_of t node then begin
          (* stale entry; a better one is in the heap *)
          loop ()
        end
        else Some node
    in
    loop ()
  end
  else
    let rec loop () =
      if Queue.is_empty t.pending_fifo then None
      else
        let node = Queue.pop t.pending_fifo in
        if Hashtbl.mem t.processed node then loop () else Some node
    in
    loop ()

(* An id predicate answered once per id. *)
let memo_by_id (f : string -> bool) =
  let answers = Hashtbl.create 256 in
  fun id ->
    match Hashtbl.find_opt answers id with
    | Some b -> b
    | None ->
      let b = f id in
      Hashtbl.add answers id b;
      b

let create ?(config : config option) (prog : Program.t) : t =
  let cfg = match config with Some c -> c | None -> default_config () in
  (* both predicates are pure functions of the id (andersen.mli): each
     is asked once per id per run *)
  let cfg =
    { cfg with
      is_source_method = memo_by_id cfg.is_source_method;
      policy =
        { cfg.policy with
          Policy.taint_api = memo_by_id cfg.policy.Policy.taint_api } }
  in
  let default_prio =
    match cfg.max_nodes with Some m -> m | None -> max_int / 2
  in
  { prog;
    u = Keys.create_universe ();
    cg = Callgraph.create ();
    cfg;
    interrupted = false;
    pts = Array.make 1024 Int_set.empty;
    succ = Array.make 1024 [];
    edge_seen = Edge_tbl.create 4096;
    base_cs = Hashtbl.create 1024;
    vcalls = Hashtbl.create 1024;
    dirty = Array.make 1024 false;
    work = Queue.create ();
    pending_fifo = Queue.create ();
    pending_prio = Pq.create ();
    prio = Hashtbl.create 256;
    processed = Hashtbl.create 256;
    field_writers = Hashtbl.create 256;
    field_readers = Hashtbl.create 256;
    const_cache = Hashtbl.create 256;
    source_meths = Hashtbl.create 256;
    stats =
      { nodes_processed = 0; dropped_calls = 0; propagations = 0;
        dispatches = 0 };
    default_prio }

(** Run pointer analysis and call-graph construction from the program's
    entrypoints (plus all class initializers). *)
let run ?config (prog : Program.t) : t =
  let t = create ?config prog in
  let seed id =
    match Program.find_method prog id with
    | Some m when m.Tac.m_has_body ->
      ignore
        (Callgraph.ensure_node t.cg m Keys.Cx_empty
           ~fresh:(fun nid -> enqueue_pending t nid))
    | Some _ | None -> ()
  in
  List.iter seed prog.Program.clinits;
  List.iter seed prog.Program.entrypoints;
  Telemetry.with_span "pointer.fixpoint" (fun () ->
      let continue = ref true in
      while !continue do
        if interrupted_now t then continue := false
        else
          match next_pending t with
          | None -> continue := false
          | Some node ->
            Hashtbl.replace t.processed node ();
            t.stats.nodes_processed <- t.stats.nodes_processed + 1;
            Telemetry.incr m_nodes_processed;
            update_priorities t node;
            Telemetry.with_span "pointer.cg_growth" (fun () ->
                add_node_constraints t node);
            Telemetry.with_span "pointer.solve" (fun () -> solve t)
      done);
  Telemetry.set g_cg_nodes (Callgraph.node_count t.cg);
  Telemetry.set g_cg_edges (Callgraph.edge_count t.cg);
  Telemetry.set g_cg_budget
    (match t.cfg.max_nodes with Some m -> m | None -> -1);
  t

(* ------------------------------------------------------------------ *)
(* Results API                                                        *)
(* ------------------------------------------------------------------ *)

(** Points-to set of a register in a method clone (instance-key ids). *)
let pts_var t ~node v =
  let p = Keys.find_var t.u node v in
  if p >= 0 then pts t p else Int_set.empty

let pts_key t key =
  match Keys.find_pk t.u key with
  | Some p -> pts t p
  | None -> Int_set.empty

let pts_id t p = pts t p

let inst_key t ikid = Keys.ik_of t.u ikid

let call_graph t = t.cg
let universe t = t.u
let statistics t = t.stats
let interrupted t = t.interrupted
