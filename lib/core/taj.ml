(** TAJ: the end-to-end taint analysis pipeline.

    {[
      let loaded = Taj.load { name; app_sources; descriptor } in
      let analysis = Taj.run loaded (Config.preset Config.Hybrid_optimized) in
      match analysis.result with
      | Completed c -> Report.pp c.builder Fmt.stdout c.report
      | Did_not_complete reason -> ...
    ]}

    [load] adds the application to a copy of the model-JDK image,
    synthesizes framework entrypoints from the deployment descriptor
    (§4.2.2), converts the application to SSA and
    applies the reflection (§4.2.3) and exception (§4.1.2) rewrites — all
    configuration-independent work that can be shared across algorithm runs.
    [run] executes pointer analysis, dependence-graph construction, slicing
    and reporting under one {!Config.t}. *)

open Jir

type input = {
  name : string;
  app_sources : string list;        (** MJava source texts *)
  descriptor : string;              (** deployment descriptor, may be "" *)
}

type loaded = {
  input : input;
  program : Program.t;
  reflection_stats : Models.Reflection.stats;
  synthesized_sources : int;        (** getMessage sources from catch blocks *)
  skipped_units : (int * string) list;
      (** units dropped by the lenient frontend (index, error) *)
  frontend_seconds : float;
}

type phase_times = {
  t_frontend : float;               (** parse/SSA/rewrites, from [load] *)
  t_pointer : float;
  t_sdg : float;
  t_taint : float;
  t_total : float;                  (** frontend + analysis wall clock *)
}

type completed = {
  report : Report.t;
  outcome : Engine.outcome;
  andersen : Pointer.Andersen.t;
  builder : Sdg.Builder.t;
  heapgraph : Pointer.Heapgraph.t;
  cg_nodes : int;
  cg_edges : int;
  times : phase_times;
  diagnostics : Diagnostics.degradation list;
      (** degradations recorded during this run (also in the report) *)
}

type result =
  | Completed of completed
  | Did_not_complete of string

type analysis = {
  loaded : loaded;
  config : Config.t;
  rules : Rules.rule list;
  result : result;
}

exception Load_error of string

let wrap_frontend_errors name f =
  try f () with
  | Lexer.Lex_error (msg, pos) ->
    raise (Load_error (Fmt.str "%s: lex error at %a: %s" name Ast.pp_pos pos msg))
  | Parser.Parse_error (msg, pos) ->
    raise
      (Load_error (Fmt.str "%s: parse error at %a: %s" name Ast.pp_pos pos msg))
  | Lower.Lower_error (msg, pos) ->
    raise
      (Load_error (Fmt.str "%s: lowering error at %a: %s" name Ast.pp_pos pos msg))
  | Classtable.Unknown_class c ->
    raise (Load_error (Fmt.str "%s: unknown class %s" name c))
  | Classtable.Hierarchy_error msg -> raise (Load_error (name ^ ": " ^ msg))

(* Phase timing and span tracing both come from the telemetry layer:
   [Telemetry.phase] measures wall clock unconditionally (CPU time is
   meaningless under deadlines, which are wall-clock by definition) and
   additionally records a span when tracing is enabled. *)
module Telemetry = Obs.Telemetry

let now = Unix.gettimeofday

(** Parse, lower, synthesize and rewrite. Configuration-independent.
    With [lenient] (the supervisor's mode), a unit that fails to lex/parse
    is skipped and recorded in [skipped_units] instead of failing the whole
    load — frontend fault isolation. *)
let load ?(lenient = false) ?(cache = Cache_iface.none)
    (input : input) : loaded =
  wrap_frontend_errors input.name @@ fun () ->
  let (prog, reflection_stats, synthesized_sources, skipped), frontend_seconds =
    Telemetry.phase "phase.frontend" ~args:[ ("app", input.name) ]
    @@ fun () ->
    let parse_unit i src =
      Telemetry.with_span "frontend.parse_unit"
        ~args:[ ("unit", string_of_int i) ]
      @@ fun () ->
      match
        cache.Cache_iface.unit_ast ~src ~parse:(fun () ->
          Fault.tick Fault.site_parse;
          Parser.parse src)
      with
      | u -> Either.Left u
      | exception
          ((Lexer.Lex_error _ | Parser.Parse_error _ | Fault.Injected _) as e)
        when lenient ->
        Either.Right (i, Printexc.to_string e)
    in
    let parsed =
      Telemetry.with_span "frontend.parse" @@ fun () ->
      List.mapi parse_unit input.app_sources
    in
    let app_units =
      List.filter_map (function Either.Left u -> Some u | _ -> None) parsed
    in
    let skipped =
      List.filter_map (function Either.Right s -> Some s | _ -> None) parsed
    in
    let prog, reflection_stats, synthesized_sources =
      (* everything below the parse is a pure function of the surviving
         unit ASTs and the descriptor text, which is exactly what the
         frontend cache tier keys on *)
      cache.Cache_iface.frontend ~descriptor:input.descriptor
        ~asts:app_units
        ~build:(fun () ->
          (* the model JDK comes declared, lowered and in SSA form from
             the process's image, first in every table as if this load
             had built it *)
          let image = Models.Jdklib.image () in
          let prog = Program.copy image in
          let descriptor =
            Models.Frameworks.parse_descriptor input.descriptor
          in
          let synth_units =
            Telemetry.with_span "frontend.synthesize" @@ fun () ->
            List.iter (Lower.declare prog ~library:false) app_units;
            (* framework synthesis needs declarations but not bodies *)
            let cast_constraints =
              Models.Frameworks.form_cast_constraints app_units
            in
            let synth_src =
              Models.Frameworks.synthesize ~cast_constraints
                prog.Program.table descriptor
            in
            [ Parser.parse synth_src ]
          in
          Telemetry.with_span "frontend.lower" (fun () ->
            List.iter (Lower.declare prog ~library:false) synth_units;
            List.iter (Lower.define prog ~library:false) app_units;
            List.iter (Lower.define prog ~library:false) synth_units;
            Program.add_entrypoint prog Models.Frameworks.entry_method);
          Telemetry.with_span "frontend.ssa" (fun () ->
            Program.iter_methods prog (fun m ->
              if not (Program.mem_method image (Tac.method_id m)) then
                Ssa.convert m));
          Telemetry.with_span "frontend.rewrites" @@ fun () ->
          let ejb_registry = Models.Frameworks.ejb_registry descriptor in
          let reflection_stats =
            Models.Reflection.rewrite_program ~ejb_registry prog
          in
          let synthesized_sources =
            Models.Exceptions.rewrite_program prog
          in
          (prog, reflection_stats, synthesized_sources))
    in
    (prog, reflection_stats, synthesized_sources, skipped)
  in
  { input;
    program = prog;
    reflection_stats;
    synthesized_sources;
    skipped_units = skipped;
    frontend_seconds }

(* ------------------------------------------------------------------ *)
(* Type-based triage (rung zero / pre-filter)                         *)
(* ------------------------------------------------------------------ *)

(* Bridge the security-rule set to the triage classifier: each call
   target is resolved once, and every rule is asked by its canonical id. *)
let triage ?tick ~(rules : Rules.rule list) (loaded : loaded) :
  Triage.verdict =
  let m = Rules.matcher loaded.program.Program.table in
  let classify (target : Tac.mref) =
    let id = Rules.canonical m target in
    let source_ret = ref [] and source_params = ref [] in
    let sinks = ref [] in
    let san_any = ref false and san_all = ref true in
    List.iter
      (fun (rule : Rules.rule) ->
         (match Rules.source_of_id rule id with
          | Some { Rules.src_kind = Rules.Tainted_return; _ } ->
            source_ret := rule.Rules.rule_name :: !source_ret
          | Some { Rules.src_kind = Rules.Taints_param i; _ } ->
            source_params := (i, rule.Rules.rule_name) :: !source_params
          | None -> ());
         (match Rules.sink_of_id rule id with
          | Some snk ->
            sinks := (rule.Rules.rule_name, snk.Rules.snk_params) :: !sinks
          | None -> ());
         if Rules.is_sanitizer_id rule id then san_any := true
         else san_all := false)
      rules;
    { Triage.cr_source_ret = List.rev !source_ret;
      cr_source_params = List.rev !source_params;
      cr_sanitizer = !san_any;
      (* endorsing a return value is only sound when the call sanitizes
         for every rule: the triage taint bit is rule-insensitive *)
      cr_sanitizes_all = !san_any && !san_all;
      cr_sinks = List.rev !sinks }
  in
  let issue_of_rule name =
    match List.find_opt (fun r -> r.Rules.rule_name = name) rules with
    | Some r -> Rules.issue_name r.Rules.issue
    | None -> name
  in
  Triage.infer ?tick ~issue_of_rule ~classify loaded.program

let pointer_config ~interrupt (loaded : loaded) (config : Config.t)
    (rules : Rules.rule list) : Pointer.Andersen.config =
  let m = Rules.matcher loaded.program.Program.table in
  let taint_api id = Rules.is_source_method_id rules m id in
  let policy =
    (* CS/CI/hybrid share the same preliminary pointer analysis family
       (§3.1); they differ in the slicing stage. The CS emulation
       additionally context-qualifies the heap (its heap-as-parameters
       treatment), which is where its cost and precision come from. *)
    match config.Config.algorithm with
    | Config.Cs_thin_slicing -> Pointer.Policy.deep ~taint_api ()
    | Config.Ci_thin_slicing | Config.Hybrid_unbounded
    | Config.Hybrid_prioritized | Config.Hybrid_optimized
    | Config.Type_triage ->
      Pointer.Policy.default ~taint_api ()
  in
  { Pointer.Andersen.policy;
    max_nodes = config.Config.max_cg_nodes;
    prioritized = config.Config.prioritized;
    is_source_method = taint_api;
    excluded_class =
      (fun cls -> List.mem cls config.Config.excluded_classes);
    max_work =
      (match config.Config.algorithm with
       | Config.Cs_thin_slicing -> config.Config.cs_budget
       | _ -> None);
    interrupt }

(* Why did the shared budget stop a phase? Record the matching event. *)
let record_budget_stop (diagnostics : Diagnostics.t) (budget : Budget.t)
    (phase : Diagnostics.phase) =
  match Budget.status budget with
  | Budget.Cancelled -> Diagnostics.record diagnostics (Cancelled { phase })
  | Budget.Steps ->
    Diagnostics.record diagnostics
      (Budget_exhausted { phase; what = "global step" })
  | Budget.Deadline | Budget.Ok ->
    Diagnostics.record diagnostics
      (Deadline_expired { phase; elapsed = Budget.elapsed budget })

(** Run the configured analysis over a loaded program.

    [budget] supplies the wall-clock deadline / cancellation token; it is
    polled cooperatively in every long-running loop, and an expiry
    mid-phase yields whatever flows were already found as a [Partial]
    report rather than an exception. A phase that raises is converted to
    [Did_not_complete] with a recorded [Phase_fault], so the supervisor can
    walk the degradation ladder. New degradations are appended to
    [diagnostics] (shared across supervisor attempts). *)
let run ?(rules = Rules.default_rules) ?budget ?diagnostics
    ?(cache = Cache_iface.none) (loaded : loaded) (config : Config.t) :
  analysis =
  let budget =
    match budget with Some b -> b | None -> Budget.unlimited ()
  in
  let diagnostics =
    match diagnostics with Some d -> d | None -> Diagnostics.create ()
  in
  let mark = Diagnostics.count diagnostics in
  let events_since_mark () =
    List.filteri (fun i _ -> i >= mark) (Diagnostics.events diagnostics)
  in
  let fail reason = { loaded; config; rules; result = Did_not_complete reason } in
  let fault phase e =
    Diagnostics.record diagnostics
      (Phase_fault { phase; error = Printexc.to_string e });
    fail
      (Fmt.str "%s phase fault: %s" (Diagnostics.phase_name phase)
         (Printexc.to_string e))
  in
  List.iter
    (fun (index, error) ->
       Diagnostics.record diagnostics (Unit_skipped { index; error }))
    loaded.skipped_units;
  let interrupt () = Budget.exceeded budget in
  let t_start = now () in
  if config.Config.algorithm = Config.Type_triage then
    (* rung zero is not a slicing configuration: the supervisor runs the
       triage pass directly (see {!Supervisor}); asking the full
       pipeline for it is answered, never crashed *)
    fail "type-triage has no slicing pipeline (run it via the supervisor)"
  else
  (* The triage pre-filter: a flow-insensitive qualifier pass whose
     verdict lets the SDG scan and the per-rule engine skip provably
     irrelevant work. Disabled under refinement (the replay walks
     unfiltered store indexes). A fault anywhere in the pass degrades
     this run to an unfiltered full analysis — recorded, never fatal. *)
  let filter =
    if not (config.Config.triage_filter && not config.Config.refine) then
      None
    else
      match
        Telemetry.phase "phase.triage" @@ fun () ->
        triage
          ~tick:(fun () -> Fault.tick Fault.site_triage_infer)
          ~rules loaded
      with
      | v, _ -> Some v
      | exception e ->
        Diagnostics.record diagnostics
          (Phase_fault { phase = Triage; error = Printexc.to_string e });
        None
  in
  let scan_filter =
    match filter with
    | None -> fun _ -> true
    | Some v ->
      (* after a filter-site fault, keep everything for the rest of the
         scan: already-skipped methods were decided by the intact
         verdict, so the indexes stay sound *)
      let broken = ref false in
      fun meth ->
        !broken
        ||
        (try
           Fault.tick Fault.site_triage_filter;
           Triage.keep v meth
         with e ->
           broken := true;
           Diagnostics.record diagnostics
             (Phase_fault { phase = Triage; error = Printexc.to_string e });
           true)
  in
  let skip_rule =
    match filter with
    | None -> fun _ -> false
    | Some v ->
      fun (rule : Rules.rule) ->
        (try
           Fault.tick Fault.site_triage_filter;
           not (Triage.rule_has_source v rule.Rules.rule_name)
         with _ -> false)
  in
  match
    Telemetry.phase "phase.pointer" @@ fun () ->
    Pointer.Andersen.run
      ~config:
        (pointer_config
           ~interrupt:(fun () ->
             Fault.tick Fault.site_andersen;
             interrupt ())
           loaded config rules)
      loaded.program
  with
  | exception Pointer.Andersen.Out_of_budget ->
    Diagnostics.record diagnostics
      (Budget_exhausted { phase = Pointer; what = "propagation" });
    fail "pointer analysis exceeded its budget"
  | exception e -> fault Pointer e
  | andersen, t_pointer ->
    if Pointer.Andersen.interrupted andersen then
      record_budget_stop diagnostics budget Pointer;
    (match
       Telemetry.phase "phase.sdg" @@ fun () ->
       let builder =
         Sdg.Builder.build
           ~interrupt:(fun () ->
             Fault.tick Fault.site_sdg;
             interrupt ())
           ~scan_filter
           ?defuse_cache:cache.Cache_iface.defuse loaded.program andersen
       in
       (builder, Pointer.Heapgraph.build andersen)
     with
     | exception e -> fault Sdg e
     | (builder, heapgraph), t_sdg ->
       if Sdg.Builder.interrupted builder then
         record_budget_stop diagnostics budget Sdg;
       (match
          Telemetry.phase "phase.taint" @@ fun () ->
          Engine.run
            ~interrupt:(fun () ->
              Fault.tick Fault.site_tabulation;
              interrupt ())
            ~on_heap_transition:(fun () -> Fault.tick Fault.site_heap)
            ~skip_rule
            ~prog:loaded.program ~builder ~heapgraph ~rules ~config ()
        with
        | exception e -> fault Taint e
        | outcome, t_taint ->
          if outcome.Engine.interrupted then
            record_budget_stop diagnostics budget Taint;
          List.iter
            (Diagnostics.record diagnostics)
            outcome.Engine.rule_faults;
          if outcome.Engine.exhausted
             && (not outcome.Engine.interrupted)
             && config.Config.algorithm = Config.Cs_thin_slicing
          then begin
            Diagnostics.record diagnostics
              (Budget_exhausted { phase = Taint; what = "CS memory" });
            fail "slicing exceeded the CS memory budget"
          end
          else begin
            match
              (* the sanitization judge: with contexts on, flows carried
                 their sanitizers through the engine; judge each against
                 the computed sink context, dropping [Sanitized] ones.
                 With contexts off this is the identity — reports stay
                 byte-identical to the kill-on-sanitizer behaviour *)
              let outcome =
                if not config.Config.contexts then outcome
                else
                  let judged, _ =
                    Telemetry.phase "phase.strings" @@ fun () ->
                    Sanitize.judge ?cache:cache.Cache_iface.strings
                      ~prog:loaded.program ~builder ~rules
                      outcome.Engine.flows
                  in
                  { outcome with Engine.flows = judged }
              in
              let run_events = events_since_mark () in
              let completeness =
                if run_events = [] then Report.Complete
                else Report.Partial run_events
              in
              ( Report.make ~completeness builder outcome.Engine.flows,
                run_events )
            with
            | exception e -> fault Taint e
            | report, run_events ->
              let cg = Pointer.Andersen.call_graph andersen in
              { loaded; config; rules;
                result =
                  Completed
                    { report; outcome; andersen; builder; heapgraph;
                      cg_nodes = Pointer.Callgraph.node_count cg;
                      cg_edges = Pointer.Callgraph.edge_count cg;
                      times =
                        { t_frontend = loaded.frontend_seconds;
                          t_pointer; t_sdg; t_taint;
                          t_total =
                            loaded.frontend_seconds +. (now () -. t_start) };
                      diagnostics = run_events } }
          end))

(** Convenience: load and analyze in one call. *)
let analyze ?rules ?(config = Config.preset Config.Hybrid_unbounded) ?cache
    (input : input) : analysis =
  run ?rules ?cache (load ?cache input) config
