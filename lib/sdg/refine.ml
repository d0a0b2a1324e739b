(** Field-sensitive flow refinement: an IFDS-style replay that re-traces a
    candidate flow reported by the hybrid thin slicer, tracking k-limited
    access paths (Allen et al., "IFDS Taint Analysis with Access Paths").

    The slicer's heap model is flow-insensitive direct store→load edges
    (§3.2) — its deliberate over-approximation and the main false-positive
    source classified in Figure 4. The replay replaces that shortcut with
    register-rooted facts ⟨defining statement, access path π, bounded call
    stack⟩: a store [o.f = v] of a tainted value does not jump to every
    aliased load, it roots the taint at the *base* register's definition
    with [f] pushed onto π, and only a later load of [f] from that base (or
    from an alias, as a budgeted fallback) consumes it. Call/return edges
    are matched against a bounded stack of call statements, so a value
    returned out of a factory reaches only the call site it actually came
    from.

    Verdicts are asymmetric by design: [Confirmed] requires a complete
    field-sensitive witness to the flow's own sink statement; *any* failure
    — no path, k-limit widening, step/heap budget exhaustion, interruption,
    even an internal fault — yields [Plausible], and the flow is kept
    either way. Demote, never drop: recall is untouched by construction. *)

module Int_set = Builder.Int_set
module Keys = Pointer.Keys
module Telemetry = Obs.Telemetry
open Jir

let m_replays = Telemetry.counter "refine.replays"
let m_steps = Telemetry.counter "refine.steps"
let m_heap_transitions = Telemetry.counter "refine.heap_transitions"
let m_confirmed = Telemetry.counter "refine.confirmed"
let m_plausible = Telemetry.counter "refine.plausible"

type reason =
  | No_path         (** replay exhausted the state space without a witness *)
  | Widened         (** a path exceeded k and was dropped along the way *)
  | Budget          (** step or heap-transition budget ran out *)
  | Interrupted     (** the supervisor's deadline/cancel poll fired *)
  | Fault of string (** replay raised; the flow is kept, never errored *)

type verdict = Confirmed | Plausible of reason

let rank = function Confirmed -> 0 | Plausible _ -> 1

let verdict_name = function Confirmed -> "confirmed" | Plausible _ -> "plausible"

let reason_name = function
  | No_path -> "no-path"
  | Widened -> "widened"
  | Budget -> "budget"
  | Interrupted -> "interrupted"
  | Fault _ -> "fault"

let pp_verdict ppf = function
  | Confirmed -> Fmt.string ppf "confirmed"
  | Plausible (Fault msg) -> Fmt.pf ppf "plausible (fault: %s)" msg
  | Plausible r -> Fmt.pf ppf "plausible (%s)" (reason_name r)

type limits = {
  k : int;                    (** access-path depth bound *)
  max_steps : int;            (** replay step budget (per flow) *)
  max_heap_transitions : int; (** aliasing-fallback budget (per flow) *)
  max_call_depth : int;       (** call-stack bound; deeper → unbalanced *)
}

let default_limits =
  { k = 3; max_steps = 4096; max_heap_transitions = 512; max_call_depth = 32 }

type callbacks = {
  is_sink_arg : Tac.mref -> int -> bool;
  is_sanitizer : Tac.mref -> bool;
  sanitizer_passthrough : bool;
      (** mirror of [Tabulation.callbacks.sanitizer_passthrough]: replay
          through sanitizers instead of killing, for record-and-judge *)
  sink_reach : Int_set.t;
      (** instance keys reachable from the sink's sensitive arguments —
          the carrier-hit criterion (§4.1.1), precomputed by the engine *)
}

type stats = {
  st_steps : int;
  st_heap_transitions : int;
  st_widened : bool;
}

(* A replay fact: the value defined at [r_stmt], viewed through the field
   suffix [r_path] (ε = the value itself is tainted), under the bounded
   call stack [r_stack] (innermost call statement first; [] = unknown
   context, returns become unbalanced). *)
type fact = {
  r_stmt : Stmt.t;
  r_path : Access_path.t;
  r_stack : Stmt.t list;
}

exception Stop_confirmed
exception Out_of_budget
exception Interrupted_exn

type state = {
  b : Builder.t;
  lim : limits;
  cb : callbacks;
  sink : Stmt.t;
  sink_kind : Tabulation.hit_kind;
  interrupt : unit -> bool;
  queue : fact Queue.t;
  seen : (fact, unit) Hashtbl.t;
  mutable steps : int;
  mutable heap_transitions : int;
  mutable widened : bool;
}

let check_step st =
  st.steps <- st.steps + 1;
  if st.interrupt () then raise Interrupted_exn;
  if st.steps > st.lim.max_steps then raise Out_of_budget

let charge_heap st =
  st.heap_transitions <- st.heap_transitions + 1;
  if st.heap_transitions > st.lim.max_heap_transitions then raise Out_of_budget

let enqueue st fact =
  if not (Hashtbl.mem st.seen fact) then begin
    Hashtbl.replace st.seen fact ();
    Queue.add fact st.queue
  end

let push_stack st call_stmt stack =
  if List.length stack < st.lim.max_call_depth then call_stmt :: stack else []

(* Push [f] onto π; on overflow record the widening and return None — the
   suffix is lost, so this branch of the replay silently ends (and the
   final verdict can be at best [Plausible Widened]). *)
let push_field st f path =
  match Access_path.push ~k:st.lim.k f path with
  | Some p -> Some p
  | None ->
    st.widened <- true;
    None

(* ------------------------------------------------------------------ *)
(* Transitions                                                         *)
(* ------------------------------------------------------------------ *)

(* The tainted value (suffix π) is stored somewhere: re-root the fact at
   the base register's definition with the written field pushed onto π.
   When the base has no SSA definition, fall back to the slicer's direct
   store→load jump for that field (budgeted — this is where the replay
   deliberately re-admits aliasing, e.g. for container internals). *)
let root_at_base st ~(store : Stmt.t) ~base ~fields ~path ~stack =
  let node = store.Stmt.node in
  List.iter
    (fun f ->
       match push_field st f path with
       | None -> ()
       | Some path' ->
         (match Builder.def_of st.b ~node base with
          | Some d -> enqueue st { r_stmt = d; r_path = path'; r_stack = stack }
          | None ->
            Int_set.iter
              (fun ik ->
                 List.iter
                   (fun (l : Stmt.t) ->
                      charge_heap st;
                      enqueue st { r_stmt = l; r_path = path; r_stack = [] })
                   (Builder.loads_reading st.b ~ik ~field:f))
              (Builder.pts_of_var st.b ~node base)))
    fields

let handle_store st (fact : fact) (store : Stmt.t) =
  (* carrier confirmation: the flow was reported because this slice stores
     a tainted value inside an object reachable from the sink's sensitive
     arguments — field-sensitively re-established iff the stored *value*
     itself is tainted here (π = ε) *)
  (if Access_path.is_empty fact.r_path && st.sink_kind = Tabulation.Carrier
   then
     match Builder.writes_of st.b store with
     | Builder.W_instance (base_pts, _) ->
       if not (Int_set.is_empty (Int_set.inter base_pts st.cb.sink_reach))
       then raise Stop_confirmed
     | Builder.W_static _ | Builder.W_none -> ());
  match Builder.instr_of st.b store with
  | Some (Tac.Store (o, f, _)) ->
    root_at_base st ~store ~base:o ~fields:[ Keys.field_of_tac f ]
      ~path:fact.r_path ~stack:fact.r_stack
  | Some (Tac.Astore (a, _, _)) ->
    root_at_base st ~store ~base:a ~fields:[ Keys.elem_field ]
      ~path:fact.r_path ~stack:fact.r_stack
  | Some (Tac.Sstore (f, _)) ->
    (* a static cell is its own root: loads read the stored value with its
       suffix unchanged, in arbitrary context *)
    List.iter
      (fun (l : Stmt.t) ->
         charge_heap st;
         enqueue st { r_stmt = l; r_path = fact.r_path; r_stack = [] })
      (Builder.static_loads_of st.b (Keys.field_of_tac f))
  | Some (Tac.Call _) ->
    (match Builder.dict_op_of st.b store with
     | Some (Models.Dict_model.Dict_put { recv; key; _ }) ->
       root_at_base st ~store ~base:recv
         ~fields:(List.map Keys.field_of_tac (Models.Dict_model.put_fields key))
         ~path:fact.r_path ~stack:fact.r_stack
     | _ -> ())
  | _ -> ()

let handle_arg st (fact : fact) (call_stmt : Stmt.t) index =
  match Builder.call_of st.b call_stmt with
  | None -> false
  | Some c ->
    let target = c.Tac.target in
    if st.cb.is_sanitizer target then begin
      (* classic mode kills the replay here; record-and-judge carries the
         fact through into the sanitizer's result, suffix unchanged *)
      if st.cb.sanitizer_passthrough && c.Tac.ret <> None then begin
        enqueue st { fact with r_stmt = call_stmt };
        true
      end
      else false
    end
    else begin
      (* direct confirmation: the tainted value itself (π = ε) reaches a
         sensitive argument position of exactly this flow's sink call *)
      if
        Access_path.is_empty fact.r_path
        && st.sink_kind = Tabulation.Direct
        && Stmt.equal call_stmt st.sink
        && st.cb.is_sink_arg target index
      then raise Stop_confirmed;
      let produced = ref false in
      List.iter
        (fun callee ->
           produced := true;
           enqueue st
             { r_stmt = Stmt.param ~node:callee ~index;
               r_path = fact.r_path;
               r_stack = push_stack st call_stmt fact.r_stack })
        (Builder.callees_of_call st.b call_stmt c);
      List.iter
        (fun (native : Tac.mref) ->
           let transfers =
             Models.Natives.summary ~meth_id:(Tac.mref_id native)
               ~arity:(List.length c.Tac.args) ~has_ret:(c.Tac.ret <> None)
           in
           List.iter
             (fun (tr : Models.Natives.transfer) ->
                if tr.Models.Natives.t_from = index then
                  match tr.Models.Natives.t_to with
                  | Models.Natives.Ret ->
                    produced := true;
                    enqueue st { fact with r_stmt = call_stmt }
                  | Models.Natives.Param j ->
                    (match List.nth_opt c.Tac.args j with
                     | Some dst ->
                       produced := true;
                       root_at_base st ~store:call_stmt ~base:dst
                         ~fields:[ Keys.elem_field ] ~path:fact.r_path
                         ~stack:fact.r_stack
                     | None -> ()))
             transfers)
        (Builder.native_targets_of_call st.b call_stmt c);
      !produced
    end

let handle_return st (fact : fact) =
  match fact.r_stack with
  | c :: rest ->
    (* context-exact: resume only at the recorded call site *)
    enqueue st { r_stmt = c; r_path = fact.r_path; r_stack = rest }
  | [] ->
    (* unknown context (seed node, stack overflowed, or heap re-entry):
       unbalanced return to every caller *)
    List.iter
      (fun call_stmt ->
         enqueue st { r_stmt = call_stmt; r_path = fact.r_path; r_stack = [] })
      (Builder.callers_of_node st.b ~callee:fact.r_stmt.Stmt.node)

let process_fact st (fact : fact) =
  check_step st;
  let s = fact.r_stmt in
  match Builder.def_var st.b s with
  | None -> ()
  | Some v ->
    let node = s.Stmt.node in
    let path = fact.r_path in
    let rooted = not (Access_path.is_empty path) in
    (* [produced]: did this fact propagate anywhere? A rooted fact that
       dead-ends gets the aliasing fallback below — without it, container
       flows whose base register never syntactically reaches the matching
       load would all demote. *)
    let produced = ref false in
    List.iter
      (fun (u : Builder.use) ->
         match u with
         | Builder.U_plain s' ->
           (match Builder.instr_of st.b s' with
            | None | Some (Tac.Move _) | Some (Tac.Cast _) ->
              (* phi / copy / cast: the same value, suffix preserved *)
              produced := true;
              enqueue st { fact with r_stmt = s' }
            | Some _ ->
              (* value computation (strcat, binop, …): propagates the value
                 itself, not fields of it *)
              if not rooted then begin
                produced := true;
                enqueue st { fact with r_stmt = s' }
              end)
         | Builder.U_stored store ->
           produced := true;
           handle_store st fact store
         | Builder.U_arg (call_stmt, index) ->
           if handle_arg st fact call_stmt index then produced := true
         | Builder.U_returned ->
           produced := true;
           handle_return st fact
         | Builder.U_thrown _ ->
           let pts = Builder.pts_of_var st.b ~node v in
           List.iter
             (fun (catch : Stmt.t) ->
                produced := true;
                charge_heap st;
                enqueue st { r_stmt = catch; r_path = path; r_stack = [] })
             (Builder.catches_for st.b pts))
      (Builder.uses_of st.b ~node v);
    if rooted then begin
      (* base-pointer uses: loads/dict-gets through this register consume
         the outermost field of π *)
      List.iter
        (fun (u : Builder.base_use) ->
           match u with
           | Builder.B_field (stmt, f) ->
             (match Access_path.project f path with
              | Some rest ->
                produced := true;
                enqueue st { r_stmt = stmt; r_path = rest; r_stack = fact.r_stack }
              | None -> ())
           | Builder.B_dict (stmt, fields) ->
             (match Access_path.head path with
              | Some h when List.exists (fun f -> f = h) fields ->
                produced := true;
                enqueue st
                  { r_stmt = stmt;
                    r_path = Access_path.tail path;
                    r_stack = fact.r_stack }
              | _ -> ()))
        (Builder.base_uses_of st.b ~node v);
      (* aliasing fallback: the rooted fact found no propagation target at
         all — jump to aliased loads of the outermost field, charging the
         heap budget. This re-admits exactly the slicer's direct edge, but
         only on dead ends, so a base that *is* visibly consumed (e.g. the
         heap_merge factory result, which is returned) never takes it. *)
      if not !produced then
        match Access_path.head path with
        | None -> ()
        | Some h ->
          Int_set.iter
            (fun ik ->
               List.iter
                 (fun (l : Stmt.t) ->
                    charge_heap st;
                    enqueue st
                      { r_stmt = l;
                        r_path = Access_path.tail path;
                        r_stack = [] })
                 (Builder.loads_reading st.b ~ik ~field:h))
            (Builder.pts_of_var st.b ~node v)
    end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Replay one reported flow. Deterministic for a fixed builder: the
    exploration order depends only on the builder's construction-ordered
    indexes and the FIFO queue. Never raises — every failure mode maps to
    [Plausible]. *)
let replay ?(interrupt = fun () -> false) (b : Builder.t)
    ~(limits : limits) ~(callbacks : callbacks) ~(source : Stmt.t)
    ~(sink : Stmt.t) ~(sink_kind : Tabulation.hit_kind) : verdict * stats =
  let st =
    { b; lim = limits; cb = callbacks; sink; sink_kind; interrupt;
      queue = Queue.create ();
      (* a typical replay visits a handful of facts *)
      seen = Hashtbl.create 16;
      steps = 0;
      heap_transitions = 0;
      widened = false }
  in
  let verdict =
    try
      enqueue st { r_stmt = source; r_path = Access_path.empty; r_stack = [] };
      while not (Queue.is_empty st.queue) do
        process_fact st (Queue.pop st.queue)
      done;
      Plausible (if st.widened then Widened else No_path)
    with
    | Stop_confirmed -> Confirmed
    | Out_of_budget -> Plausible Budget
    | Interrupted_exn -> Plausible Interrupted
    | Stack_overflow -> Plausible (Fault "stack overflow")
    | exn -> Plausible (Fault (Printexc.to_string exn))
  in
  if Telemetry.enabled () then begin
    Telemetry.incr m_replays;
    Telemetry.add m_steps st.steps;
    Telemetry.add m_heap_transitions st.heap_transitions;
    (match verdict with
     | Confirmed -> Telemetry.incr m_confirmed
     | Plausible _ -> Telemetry.incr m_plausible)
  end;
  ( verdict,
    { st_steps = st.steps;
      st_heap_transitions = st.heap_transitions;
      st_widened = st.widened } )
