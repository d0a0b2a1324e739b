(** Demand-driven reachability over the (no-heap) SDG with on-demand HSDG
    edges — the engine behind hybrid, CS and CI thin slicing (§3.2).

    Flow through locals is followed along SSA def-use chains and
    interprocedural parameter/return edges. In context-sensitive mode the
    engine runs RHS-style tabulation: entering a callee records the calling
    statement; flow that reaches the callee's return is summarized as
    "param i reaches return" and resumed only at matching call sites
    (unbalanced-left returns are allowed for flows originating inside the
    callee, as a taint source's context is arbitrary). In
    context-insensitive mode returns resume at every caller.

    Flow through the heap uses the HSDG's direct edges: a tainted store
    expands to every load whose base may alias the store's base (from the
    preliminary pointer analysis). Each expansion counts as a heap
    transition toward the §6.2.1 bound. The CS configuration restricts heap
    edges to statements on the same thread, reproducing that algorithm's
    documented unsoundness for multi-threaded code.

    The engine is rule-agnostic: sink, sanitizer and carrier checks are
    injected as callbacks. *)

module Int_set = Set.Make (Int)
module Keys = Pointer.Keys
module Telemetry = Obs.Telemetry
open Jir

(* Telemetry: per-slice consumption of the §6.2 budgets, accumulated into
   process-wide counters at slice end (order-independent sums, so runs
   on concurrent serve workers add up to the same totals as sequential
   ones). *)
let m_steps = Telemetry.counter "taint.steps"
let m_heap_transitions = Telemetry.counter "taint.heap_transitions"
let m_visited = Telemetry.counter "taint.visited"
let m_hits = Telemetry.counter "taint.hits"
let m_slices = Telemetry.counter "taint.slices"
let h_heap_per_slice = Telemetry.histogram "taint.heap_transitions_per_slice"
let h_depth = Telemetry.histogram "taint.slice_depth"

type mode = {
  context_sensitive : bool;
  thread_restrict : bool;
  max_heap_transitions : int option;      (* §6.2.1 *)
  max_steps : int option;                 (* memory/time budget *)
}

let hybrid_mode =
  { context_sensitive = true; thread_restrict = false;
    max_heap_transitions = None; max_steps = None }

let ci_mode = { hybrid_mode with context_sensitive = false }

let cs_mode = { hybrid_mode with thread_restrict = true }

type origin = O_internal | O_param of int

type fact = { f_stmt : Stmt.t; f_origin : origin }

type hit_kind = Direct | Carrier

type hit = {
  h_sink : Stmt.t;                        (* the sink call statement *)
  h_sink_target : Tac.mref;
  h_via : Stmt.t;                         (* last slice stmt before the sink *)
  h_kind : hit_kind;
}

type callbacks = {
  is_sink_arg : Tac.mref -> int -> bool;
      (** is argument position [i] of a call to this method sensitive? *)
  is_sanitizer : Tac.mref -> bool;
  sanitizer_passthrough : bool;
      (** [false]: a sanitizer call endorses the flow and stops it (the
          classic kill). [true]: taint propagates through the sanitizer
          into its result — the call statement lands on the witness path,
          and a later judging pass compares the sanitizer's effect against
          the sink context (record-and-judge). *)
  carrier_sets : (Stmt.t * Tac.mref * Int_set.t) list;
      (** sink call stmt, target, instance keys reachable from its sensitive
          arguments (precomputed by the taint engine per §4.1.1) *)
}

type result = {
  hits : hit list;
  visited : int;
  heap_transitions : int;
  steps : int;
  exhausted : bool;
  interrupted : bool;                     (* stopped by the interrupt poll *)
  parents : Stmt.t Stmt.Table.t;          (* discovery tree for reports *)
  depth : int Stmt.Table.t;               (* hop count from the seed *)
}

exception Budget of string

(* Hits already recorded: (sink, via, kind). *)
module Hit_tbl = Hashtbl.Make (struct
    type t = Stmt.t * Stmt.t * hit_kind
    let equal (s, v, k) (s', v', k') =
      k = k' && Stmt.equal s s' && Stmt.equal v v'
    let hash = Hashtbl.hash
  end)

(* The rule's carrier sets indexed by instance key: the positions in
   [carrier_sets] of the sets holding each key. *)
type carrier_index = {
  ci_sets : (Stmt.t * Tac.mref) array;
  ci_by_ik : (int, int list) Hashtbl.t;
}

let index_carriers (sets : (Stmt.t * Tac.mref * Int_set.t) list) =
  let sets = Array.of_list sets in
  let by_ik = Hashtbl.create 256 in
  for i = 0 to Array.length sets - 1 do
    let _, _, reach = sets.(i) in
    Int_set.iter
      (fun ik ->
         let prev = Option.value ~default:[] (Hashtbl.find_opt by_ik ik) in
         Hashtbl.replace by_ik ik (i :: prev))
      reach
  done;
  { ci_sets = Array.map (fun (sink, target, _) -> (sink, target)) sets;
    ci_by_ik = by_ik }

type state = {
  b : Builder.t;
  mode : mode;
  cb : callbacks;
  interrupt : unit -> bool;
  on_heap_transition : unit -> unit;
  queue : fact Queue.t;
  seen : (fact, unit) Hashtbl.t;
  parents : Stmt.t Stmt.Table.t;
  depth : int Stmt.Table.t;
  (* CS bookkeeping *)
  incoming : (int * int, (Stmt.t * origin) list ref) Hashtbl.t;
      (* (callee node, param) -> resumption points *)
  summaries : (int * int, unit) Hashtbl.t; (* (node, param) reaches return *)
  internal_ret : (int, unit) Hashtbl.t;    (* nodes whose internal flow
                                              reached their return *)
  tainted_stores : unit Stmt.Table.t;
  carriers : carrier_index Lazy.t;
  mutable hits : hit list;
  hit_seen : unit Hit_tbl.t;
  mutable heap_transitions : int;
  mutable steps : int;
  mutable exhausted : bool;
  mutable interrupted : bool;
}

let record_parent st ~child ~parent =
  if not (Stmt.Table.mem st.parents child) then begin
    Stmt.Table.replace st.parents child parent;
    let d =
      match Stmt.Table.find_opt st.depth parent with
      | Some d -> d + 1
      | None -> 1
    in
    Stmt.Table.replace st.depth child d
  end

let enqueue st ~parent fact =
  if not (Hashtbl.mem st.seen fact) then begin
    Hashtbl.replace st.seen fact ();
    (match parent with
     | Some p -> record_parent st ~child:fact.f_stmt ~parent:p
     | None -> Stmt.Table.replace st.depth fact.f_stmt 0);
    Queue.add fact st.queue
  end

let add_hit st ~sink ~target ~via ~kind =
  let key = (sink, via, kind) in
  if not (Hit_tbl.mem st.hit_seen key) then begin
    Hit_tbl.replace st.hit_seen key ();
    st.hits <-
      { h_sink = sink; h_sink_target = target; h_via = via; h_kind = kind }
      :: st.hits
  end

let check_step st =
  st.steps <- st.steps + 1;
  if st.interrupt () then begin
    st.interrupted <- true;
    raise (Budget "interrupted")
  end;
  match st.mode.max_steps with
  | Some m when st.steps > m -> raise (Budget "step budget exceeded")
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Heap expansion                                                     *)
(* ------------------------------------------------------------------ *)

let threads_compatible st a b =
  (not st.mode.thread_restrict)
  || not
       (Int_set.is_empty
          (Int_set.inter
             (Builder.thread_ids_of st.b a)
             (Builder.thread_ids_of st.b b)))

let charge_heap_transition st =
  st.on_heap_transition ();
  st.heap_transitions <- st.heap_transitions + 1;
  match st.mode.max_heap_transitions with
  | Some m -> st.heap_transitions <= m
  | None -> true

let expand_store st (store : Stmt.t) =
  if not (Stmt.Table.mem st.tainted_stores store) then begin
    Stmt.Table.replace st.tainted_stores store ();
    (* taint carriers: does this store write into an object nested inside a
       sensitive sink argument? (§4.1.1, step 3) *)
    (match Builder.writes_of st.b store with
     | Builder.W_instance (base_pts, _) when st.cb.carrier_sets <> [] ->
       (* the carrier sets sharing a key with the base, in list order *)
       let ci = Lazy.force st.carriers in
       let shared =
         Int_set.fold
           (fun ik acc ->
              match Hashtbl.find_opt ci.ci_by_ik ik with
              | Some positions ->
                List.fold_left (fun acc i -> Int_set.add i acc) acc positions
              | None -> acc)
           base_pts Int_set.empty
       in
       Int_set.iter
         (fun i ->
            let sink, target = ci.ci_sets.(i) in
            add_hit st ~sink ~target ~via:store ~kind:Carrier)
         shared
     | Builder.W_instance _ | Builder.W_static _ | Builder.W_none -> ());
    (* direct store -> load edges *)
    let continue_to_loads loads =
      List.iter
        (fun (l : Stmt.t) ->
           if threads_compatible st store.Stmt.node l.Stmt.node then
             if charge_heap_transition st then
               enqueue st ~parent:(Some store)
                 { f_stmt = l; f_origin = O_internal })
        loads
    in
    match Builder.writes_of st.b store with
    | Builder.W_instance (base_pts, fields) ->
      Int_set.iter
        (fun ik ->
           List.iter
             (fun f -> continue_to_loads (Builder.loads_reading st.b ~ik ~field:f))
             fields)
        base_pts
    | Builder.W_static f -> continue_to_loads (Builder.static_loads_of st.b f)
    | Builder.W_none -> ()
  end

(* ------------------------------------------------------------------ *)
(* Return handling                                                    *)
(* ------------------------------------------------------------------ *)

let resume_at_call st ~parent (call_stmt : Stmt.t) (origin : origin) =
  (* the call statement defines the callee's returned value in the caller *)
  enqueue st ~parent:(Some parent) { f_stmt = call_stmt; f_origin = origin }

let reached_return st (fact : fact) =
  let node = fact.f_stmt.Stmt.node in
  let ret_marker = Stmt.ret ~node in
  record_parent st ~child:ret_marker ~parent:fact.f_stmt;
  if st.mode.context_sensitive then begin
    match fact.f_origin with
    | O_param i ->
      if not (Hashtbl.mem st.summaries (node, i)) then begin
        Hashtbl.replace st.summaries (node, i) ();
        (* resume every recorded caller of this summary *)
        match Hashtbl.find_opt st.incoming (node, i) with
        | Some resumptions ->
          List.iter
            (fun (call_stmt, o) -> resume_at_call st ~parent:ret_marker call_stmt o)
            !resumptions
        | None -> ()
      end
    | O_internal ->
      if not (Hashtbl.mem st.internal_ret node) then begin
        Hashtbl.replace st.internal_ret node ();
        (* source escapes upward: any caller context is realizable *)
        List.iter
          (fun call_stmt ->
             resume_at_call st ~parent:ret_marker call_stmt O_internal)
          (Builder.callers_of_node st.b ~callee:node)
      end
  end
  else if not (Hashtbl.mem st.internal_ret node) then begin
    Hashtbl.replace st.internal_ret node ();
    List.iter
      (fun call_stmt -> resume_at_call st ~parent:ret_marker call_stmt O_internal)
      (Builder.callers_of_node st.b ~callee:node)
  end

(* ------------------------------------------------------------------ *)
(* Call-argument handling                                             *)
(* ------------------------------------------------------------------ *)

let enter_callee st ~parent ~(call_stmt : Stmt.t) ~origin_at_caller ~callee ~index =
  let param_stmt = Stmt.param ~node:callee ~index in
  let origin = if st.mode.context_sensitive then O_param index else O_internal in
  (if st.mode.context_sensitive then begin
     let key = (callee, index) in
     let resumptions =
       match Hashtbl.find_opt st.incoming key with
       | Some r -> r
       | None ->
         let r = ref [] in
         Hashtbl.replace st.incoming key r;
         r
     in
     if not (List.mem (call_stmt, origin_at_caller) !resumptions) then
       resumptions := (call_stmt, origin_at_caller) :: !resumptions;
     (* a summary may already exist *)
     if Hashtbl.mem st.summaries key then
       resume_at_call st ~parent call_stmt origin_at_caller
   end);
  enqueue st ~parent:(Some parent) { f_stmt = param_stmt; f_origin = origin }

let flow_into_call st ~parent ~(fact : fact) (call_stmt : Stmt.t) index =
  match Builder.call_of st.b call_stmt with
  | None -> ()
  | Some c ->
    let target = c.Tac.target in
    if st.cb.is_sanitizer target then begin
      (* flow endorsed. Classic mode stops here (kill); record-and-judge
         propagates the tainted argument into the sanitizer's result so
         the call lands on the witness path — native transfer summaries
         for sanitizers are deliberately empty, so this is direct *)
      if st.cb.sanitizer_passthrough && c.Tac.ret <> None then
        enqueue st ~parent:(Some parent)
          { f_stmt = call_stmt; f_origin = fact.f_origin }
    end
    else begin
      if st.cb.is_sink_arg target index then
        add_hit st ~sink:call_stmt ~target ~via:parent ~kind:Direct;
      (* resolved callees *)
      List.iter
        (fun callee ->
           enter_callee st ~parent ~call_stmt
             ~origin_at_caller:fact.f_origin ~callee ~index)
        (Builder.callees_of_call st.b call_stmt c);
      (* native targets: apply transfer summaries *)
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
                    enqueue st ~parent:(Some parent)
                      { f_stmt = call_stmt; f_origin = fact.f_origin }
                  | Models.Natives.Param j ->
                    (* by-reference write into argument j's contents *)
                    (match List.nth_opt c.Tac.args j with
                     | Some dst ->
                       let pts =
                         Builder.pts_of_var st.b ~node:call_stmt.Stmt.node dst
                       in
                       Int_set.iter
                         (fun ik ->
                            if charge_heap_transition st then
                              List.iter
                                (fun l ->
                                   enqueue st ~parent:(Some call_stmt)
                                     { f_stmt = l; f_origin = O_internal })
                                (Builder.loads_of_ik st.b ~ik))
                         pts
                     | None -> ()))
             transfers)
        (Builder.native_targets_of_call st.b call_stmt c)
    end

(* ------------------------------------------------------------------ *)
(* Main loop                                                          *)
(* ------------------------------------------------------------------ *)

let process_fact st (fact : fact) =
  check_step st;
  let s = fact.f_stmt in
  (* a reached call can write the heap by reference (System.arraycopy reads
     src contents — which is why it was enqueued — and writes dst contents) *)
  (match Builder.instr_of st.b s with
   | Some (Tac.Call _) ->
     (match Builder.writes_of st.b s with
      | Builder.W_none -> ()
      | Builder.W_instance _ | Builder.W_static _ -> expand_store st s)
   | _ -> ());
  match Builder.def_var st.b s with
  | None -> ()
  | Some v ->
    List.iter
      (fun (u : Builder.use) ->
         match u with
         | Builder.U_plain s' ->
           enqueue st ~parent:(Some s) { fact with f_stmt = s' }
         | Builder.U_stored store ->
           record_parent st ~child:store ~parent:s;
           expand_store st store
         | Builder.U_arg (call_stmt, index) ->
           record_parent st ~child:call_stmt ~parent:s;
           flow_into_call st ~parent:s ~fact call_stmt index
         | Builder.U_returned -> reached_return st fact
         | Builder.U_thrown throw_stmt ->
           record_parent st ~child:throw_stmt ~parent:s;
           let pts = Builder.pts_of_var st.b ~node:s.Stmt.node v in
           List.iter
             (fun catch ->
                if threads_compatible st s.Stmt.node catch.Stmt.node then
                  if charge_heap_transition st then
                    enqueue st ~parent:(Some throw_stmt)
                      { f_stmt = catch; f_origin = O_internal })
             (Builder.catches_for st.b pts))
      (Builder.uses_of st.b ~node:s.Stmt.node v)

(** Run a slice from the given seed statements (typically source calls). *)
let run ?(interrupt = fun () -> false) ?(on_heap_transition = fun () -> ())
    (b : Builder.t) ~(mode : mode) ~(callbacks : callbacks)
    ~(seeds : Stmt.t list) : result =
  let st =
    { b; mode; cb = callbacks;
      interrupt; on_heap_transition;
      queue = Queue.create ();
      seen = Hashtbl.create 256;
      parents = Stmt.Table.create 256;
      depth = Stmt.Table.create 256;
      incoming = Hashtbl.create 256;
      summaries = Hashtbl.create 256;
      internal_ret = Hashtbl.create 256;
      tainted_stores = Stmt.Table.create 256;
      carriers = lazy (index_carriers callbacks.carrier_sets);
      hits = [];
      hit_seen = Hit_tbl.create 64;
      heap_transitions = 0;
      steps = 0;
      exhausted = false;
      interrupted = false }
  in
  List.iter
    (fun seed -> enqueue st ~parent:None { f_stmt = seed; f_origin = O_internal })
    seeds;
  (try
     while not (Queue.is_empty st.queue) do
       process_fact st (Queue.pop st.queue)
     done
   with Budget _ -> st.exhausted <- true);
  if Telemetry.enabled () then begin
    Telemetry.incr m_slices;
    Telemetry.add m_steps st.steps;
    Telemetry.add m_heap_transitions st.heap_transitions;
    Telemetry.add m_visited (Hashtbl.length st.seen);
    Telemetry.add m_hits (List.length st.hits);
    Telemetry.observe h_heap_per_slice st.heap_transitions;
    Stmt.Table.iter (fun _ d -> Telemetry.observe h_depth d) st.depth
  end;
  { hits = List.rev st.hits;
    visited = Hashtbl.length st.seen;
    heap_transitions = st.heap_transitions;
    steps = st.steps;
    exhausted = st.exhausted;
    interrupted = st.interrupted;
    parents = st.parents;
    depth = st.depth }

(** Reconstruct the witness path for a hit by walking discovery parents. *)
let path_of (r : result) (s : Stmt.t) : Stmt.t list =
  let rec go acc s fuel =
    if fuel = 0 then acc
    else
      match Stmt.Table.find_opt r.parents s with
      | Some p -> go (p :: acc) p (fuel - 1)
      | None -> acc
  in
  go [ s ] s 10_000

