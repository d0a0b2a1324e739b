(** The taint engine: per security rule, seed the slicer at source calls and
    collect the flows that reach sinks, including taint-carrier flows
    (§4.1.1). *)

module Int_set = Set.Make (Int)
module Keys = Pointer.Keys
open Jir

module Telemetry = Obs.Telemetry

let m_seeds = Telemetry.counter "taint.seeds"
let m_flows = Telemetry.counter "taint.flows"
let m_rules = Telemetry.counter "taint.rules"

type rule_stats = {
  rs_rule : string;
  rs_seeds : int;
  rs_visited : int;
  rs_heap_transitions : int;
  rs_exhausted : bool;
}

type refine_summary = {
  rf_confirmed : int;
  rf_plausible : int;
  rf_steps : int;                 (* replay steps, summed over flows *)
  rf_heap_transitions : int;
  rf_widened : int;               (* flows that hit the k-limit *)
  rf_budget : int;                (* flows demoted by budget exhaustion *)
}

type outcome = {
  flows : Flows.t list;
  filtered_by_length : int;       (* flows dropped by the §6.2.2 bound *)
  rule_stats : rule_stats list;
  exhausted : bool;               (* some rule hit the step budget *)
  interrupted : bool;             (* some rule was cut off by the deadline *)
  rule_faults : Diagnostics.degradation list;
      (* Rule_failed entries: rules whose slice raised; their flows are
         missing but the other rules still ran (fault isolation) *)
  refined : refine_summary option;
      (* present iff the access-path refinement stage ran *)
}

let mode_of (config : Config.t) : Sdg.Tabulation.mode =
  match config.Config.algorithm with
  | Config.Ci_thin_slicing -> Sdg.Tabulation.ci_mode
  | Config.Cs_thin_slicing ->
    { Sdg.Tabulation.cs_mode with
      Sdg.Tabulation.max_steps = config.Config.cs_budget }
  | Config.Hybrid_unbounded | Config.Hybrid_prioritized
  | Config.Hybrid_optimized
  (* Type_triage never reaches the slicer (the supervisor intercepts
     it); an arm here keeps the match total for direct callers *)
  | Config.Type_triage ->
    { Sdg.Tabulation.hybrid_mode with
      Sdg.Tabulation.max_heap_transitions = config.Config.max_heap_transitions;
      max_steps = config.Config.max_slice_steps }

(* The run's one call-target resolution: every call statement of the SDG
   with the canonical id of its target, each distinct target resolved
   once through [m]. Rules filter this one list instead of resolving the
   call statements again. *)
let resolve_calls (m : Rules.matcher) (b : Sdg.Builder.t) :
  (Sdg.Stmt.t * Tac.call * string) list =
  List.map
    (fun (s, (c : Tac.call)) -> (s, c, Rules.canonical m c.Tac.target))
    (Sdg.Builder.all_call_stmts b)

(* The loads of the objects register [v] of call statement [s] points to. *)
let pointee_loads (b : Sdg.Builder.t) (s : Sdg.Stmt.t) v =
  Int_set.fold
    (fun ik acc -> Sdg.Builder.loads_of_ik b ~ik @ acc)
    (Sdg.Builder.pts_of_var b ~node:s.Sdg.Stmt.node v)
    []

(* Seeds for one rule: source call statements (return taint) and, for
   by-reference sources, the loads reading the tainted parameter's object. *)
let seeds_of (b : Sdg.Builder.t) calls (rule : Rules.rule) : Sdg.Stmt.t list =
  List.concat_map
    (fun (s, (c : Tac.call), id) ->
       match Rules.source_of_id rule id with
       | Some { Rules.src_kind = Rules.Tainted_return; _ } ->
         (* when the source returns a container (e.g. a parameter array),
            its contents are tainted too: seed the loads of its pointees *)
         s :: (match c.Tac.ret with Some r -> pointee_loads b s r | None -> [])
       | Some { Rules.src_kind = Rules.Taints_param i; _ } ->
         (match List.nth_opt c.Tac.args i with
          | Some arg -> pointee_loads b s arg
          | None -> [])
       | None -> [])
    calls

(* Instance keys reachable from the sensitive arguments of sink call [c]
   at [s] (§4.1.1 steps 1-2), bounded by the nested-taint depth
   (§6.2.3); [None] when those arguments point nowhere. *)
let sink_reach (b : Sdg.Builder.t) (hg : Pointer.Heapgraph.t)
    (s : Sdg.Stmt.t) (c : Tac.call) (sink : Rules.sink) ~depth =
  let roots =
    List.fold_left
      (fun acc i ->
         match List.nth_opt c.Tac.args i with
         | Some arg ->
           Int_set.union acc
             (Sdg.Builder.pts_of_var b ~node:s.Sdg.Stmt.node arg)
         | None -> acc)
      Int_set.empty sink.Rules.snk_params
  in
  if Int_set.is_empty roots then None
  else Some (Pointer.Heapgraph.reachable hg ~depth roots)

(* Sink call statements with the instance keys reachable from their
   sensitive arguments. *)
let carrier_sets_of (b : Sdg.Builder.t) (hg : Pointer.Heapgraph.t) calls
    (rule : Rules.rule) ~depth : (Sdg.Stmt.t * Tac.mref * Int_set.t) list =
  if depth = 0 then []
  else
    List.filter_map
      (fun (s, (c : Tac.call), id) ->
         match Rules.sink_of_id rule id with
         | None -> None
         | Some sink ->
           Option.map
             (fun reach -> (s, c.Tac.target, reach))
             (sink_reach b hg s c sink ~depth))
      calls

let dedup_path (path : Sdg.Stmt.t list) =
  let rec go = function
    | a :: b :: rest when Sdg.Stmt.equal a b -> go (b :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go path

(* ------------------------------------------------------------------ *)
(* Flow refinement (second pass)                                      *)
(* ------------------------------------------------------------------ *)

(* Replay each reported flow with the field-sensitive access-path engine
   and attach a verdict, in flow order. Never drops a flow. *)
let refine_flows ~interrupt ~(id_of : Tac.mref -> string)
    ~(builder : Sdg.Builder.t) ~(heapgraph : Pointer.Heapgraph.t)
    ~(config : Config.t) (flows : Flows.t list) :
  Flows.t list * refine_summary * bool =
  let limits =
    { Sdg.Refine.default_limits with
      Sdg.Refine.k = config.Config.refine_k;
      max_steps = config.Config.refine_steps }
  in
  let depth = config.Config.nested_taint_depth in
  let refine_one (fl : Flows.t) =
    let rule = fl.Flows.fl_rule in
    let reach =
      if depth = 0 then None
      else
        Option.bind (Sdg.Builder.call_of builder fl.Flows.fl_sink) (fun c ->
          Option.bind (Rules.sink_of_id rule (id_of c.Tac.target)) (fun sink ->
            sink_reach builder heapgraph fl.Flows.fl_sink c sink ~depth))
    in
    let callbacks =
      { Sdg.Refine.is_sink_arg =
          (fun target i -> Rules.is_sink_arg_id rule (id_of target) i);
        is_sanitizer =
          (fun target -> Rules.is_sanitizer_id rule (id_of target));
        sanitizer_passthrough = config.Config.contexts;
        sink_reach = Option.value reach ~default:Int_set.empty }
    in
    let verdict, stats =
      Sdg.Refine.replay ~interrupt builder ~limits ~callbacks
        ~source:fl.Flows.fl_source ~sink:fl.Flows.fl_sink
        ~sink_kind:fl.Flows.fl_kind
    in
    ({ fl with Flows.fl_verdict = Some verdict }, stats, verdict)
  in
  let results =
    Telemetry.with_span "phase.refine"
      ~args:[ ("flows", string_of_int (List.length flows)) ]
    @@ fun () -> List.map refine_one flows
  in
  let summary =
    List.fold_left
      (fun (acc : refine_summary) (_, (st : Sdg.Refine.stats), v) ->
         { rf_confirmed =
             (acc.rf_confirmed
              + match v with Sdg.Refine.Confirmed -> 1 | _ -> 0);
           rf_plausible =
             (acc.rf_plausible
              + match v with Sdg.Refine.Plausible _ -> 1 | _ -> 0);
           rf_steps = acc.rf_steps + st.Sdg.Refine.st_steps;
           rf_heap_transitions =
             acc.rf_heap_transitions + st.Sdg.Refine.st_heap_transitions;
           rf_widened =
             (acc.rf_widened + if st.Sdg.Refine.st_widened then 1 else 0);
           rf_budget =
             (acc.rf_budget
              + match v with
                | Sdg.Refine.Plausible Sdg.Refine.Budget -> 1
                | _ -> 0) })
      { rf_confirmed = 0; rf_plausible = 0; rf_steps = 0;
        rf_heap_transitions = 0; rf_widened = 0; rf_budget = 0 }
      results
  in
  let interrupted =
    List.exists
      (fun (_, _, v) ->
         v = Sdg.Refine.Plausible Sdg.Refine.Interrupted)
      results
  in
  (List.map (fun (fl, _, _) -> fl) results, summary, interrupted)

(* Everything one rule's slice produced; the outcome merges them in rule
   order. *)
type per_rule = {
  pr_flows : Flows.t list;
  pr_filtered : int;
  pr_stats : rule_stats;
  pr_exhausted : bool;
  pr_interrupted : bool;
  pr_fault : Diagnostics.degradation option;
}

let run ?(interrupt = fun () -> false)
    ?(on_heap_transition = fun () -> ())
    ?(skip_rule = fun (_ : Rules.rule) -> false)
    ~(prog : Program.t) ~(builder : Sdg.Builder.t)
    ~(heapgraph : Pointer.Heapgraph.t) ~(rules : Rules.rule list)
    ~(config : Config.t) () : outcome =
  let mode = mode_of config in
  (* [skip_rule rule] means the triage verdict proved no call in the
     program matches any of the rule's sources, so [seeds_of] would
     return [] and the tabulation would visit nothing. The synthesized
     per-rule record below is exactly what [run_rule] builds from an
     empty-seed run, so the merged outcome stays byte-identical. *)
  let skipped_rule rule =
    Telemetry.incr m_rules;
    { pr_flows = [];
      pr_filtered = 0;
      pr_stats =
        { rs_rule = rule.Rules.rule_name;
          rs_seeds = 0;
          rs_visited = 0;
          rs_heap_transitions = 0;
          rs_exhausted = false };
      pr_exhausted = false;
      pr_interrupted = false;
      pr_fault = None }
  in
  (* The run's one call-target resolution, built on first use; the
     tabulation and refinement callbacks read the same matcher. *)
  let m = Rules.matcher prog.Program.table in
  let resolution = lazy (resolve_calls m builder) in
  let id_of = Rules.canonical m in
  let run_rule rule =
    Telemetry.with_span "taint.rule"
      ~args:[ ("rule", rule.Rules.rule_name) ]
    @@ fun () ->
    let filtered = ref 0 in
    let calls = Lazy.force resolution in
    let seeds = seeds_of builder calls rule in
    let carrier_sets =
      carrier_sets_of builder heapgraph calls rule
        ~depth:config.Config.nested_taint_depth
    in
    let callbacks =
      { Sdg.Tabulation.is_sink_arg =
          (fun target i -> Rules.is_sink_arg_id rule (id_of target) i);
        is_sanitizer =
          (fun target -> Rules.is_sanitizer_id rule (id_of target));
        sanitizer_passthrough = config.Config.contexts;
        carrier_sets }
    in
    let res =
      Sdg.Tabulation.run ~interrupt ~on_heap_transition builder ~mode
        ~callbacks ~seeds
    in
    let flows =
      List.filter_map
        (fun (h : Sdg.Tabulation.hit) ->
           let path =
             dedup_path
               (Sdg.Tabulation.path_of res h.Sdg.Tabulation.h_via
                @ [ h.Sdg.Tabulation.h_sink ])
           in
           let fl =
             { Flows.fl_rule = rule;
               fl_source =
                 (match path with s :: _ -> s | [] -> h.Sdg.Tabulation.h_via);
               fl_sink = h.Sdg.Tabulation.h_sink;
               fl_sink_target = h.Sdg.Tabulation.h_sink_target;
               fl_kind = h.Sdg.Tabulation.h_kind;
               fl_path = path;
               fl_length = List.length path;
               fl_verdict = None;
               fl_template = None;
               fl_sanitization = None }
           in
           match config.Config.max_flow_length with
           | Some cap when fl.Flows.fl_length > cap ->
             incr filtered;
             None
           | _ -> Some fl)
        res.Sdg.Tabulation.hits
    in
    Telemetry.incr m_rules;
    Telemetry.add m_seeds (List.length seeds);
    Telemetry.add m_flows (List.length flows);
    { pr_flows = flows;
      pr_filtered = !filtered;
      pr_stats =
        { rs_rule = rule.Rules.rule_name;
          rs_seeds = List.length seeds;
          rs_visited = res.Sdg.Tabulation.visited;
          rs_heap_transitions = res.Sdg.Tabulation.heap_transitions;
          rs_exhausted = res.Sdg.Tabulation.exhausted };
      pr_exhausted = res.Sdg.Tabulation.exhausted;
      pr_interrupted = res.Sdg.Tabulation.interrupted;
      pr_fault = None }
  in
  (* fault isolation: a raising rule contributes no flows and a diagnostic;
     the remaining rules still run *)
  let guarded rule =
    try if skip_rule rule then skipped_rule rule else run_rule rule with
    | e ->
      { pr_flows = [];
        pr_filtered = 0;
        pr_stats =
          { rs_rule = rule.Rules.rule_name;
            rs_seeds = 0;
            rs_visited = 0;
            rs_heap_transitions = 0;
            rs_exhausted = true };
        pr_exhausted = false;
        pr_interrupted = false;
        pr_fault =
          Some
            (Diagnostics.Rule_failed
               { rule = rule.Rules.rule_name;
                 error = Printexc.to_string e }) }
  in
  let results = List.map guarded rules in
  let flows = List.concat_map (fun r -> r.pr_flows) results in
  let interrupted = List.exists (fun r -> r.pr_interrupted) results in
  let flows, refined, interrupted =
    if config.Config.refine && flows <> [] then begin
      let flows, summary, refine_interrupted =
        refine_flows ~interrupt ~id_of ~builder ~heapgraph ~config flows
      in
      (* an interrupt mid-refinement demotes the remaining flows to
         Plausible and surfaces through the normal partial-result path —
         the report is honest about it, but it is never an error *)
      (flows, Some summary, interrupted || refine_interrupted)
    end
    else (flows, None, interrupted)
  in
  { flows;
    filtered_by_length =
      List.fold_left (fun acc r -> acc + r.pr_filtered) 0 results;
    rule_stats = List.map (fun r -> r.pr_stats) results;
    exhausted = List.exists (fun r -> r.pr_exhausted) results;
    interrupted;
    rule_faults = List.filter_map (fun r -> r.pr_fault) results;
    refined }
