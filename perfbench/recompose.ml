(** The analysis pipeline re-composed from the layers' public functions,
    with one span around each layer call — the same sequence
    [Core.Taj.run] performs for a hybrid or CI configuration with no
    cache, deadline or fault injection. *)

open Core

(* [Taj.pointer_config] is not exported; this is its hybrid/CI branch. *)
let pointer_config (loaded : Taj.loaded) (config : Config.t) rules =
  let m = Rules.matcher loaded.Taj.program.Jir.Program.table in
  let taint_api id = Rules.is_source_method_id rules m id in
  { Pointer.Andersen.policy = Pointer.Policy.default ~taint_api ();
    max_nodes = config.Config.max_cg_nodes;
    prioritized = config.Config.prioritized;
    is_source_method = taint_api;
    excluded_class = (fun cls -> List.mem cls config.Config.excluded_classes);
    max_work = None;
    interrupt = (fun () -> false) }

type result = {
  loaded : Taj.loaded;
  verdict : Triage.verdict option;
  andersen : Pointer.Andersen.t;
  builder : Sdg.Builder.t;
  tabulated : Engine.outcome;       (** refinement off *)
  outcome : Engine.outcome;         (** the one reported *)
  report : Report.t;
}

let sum_rules f (o : Engine.outcome) =
  float_of_int (List.fold_left (fun acc rs -> acc + f rs) 0 o.Engine.rule_stats)

(** Run one op under [spans]. With [config.refine] the engine runs
    twice, refinement off then on, so tabulation and refinement can be
    told apart; the refine-on outcome is the one reported. *)
let run spans ~(config : Config.t) ~rules (input : Taj.input) : result =
  let span name f = Spans.with_span spans name f in
  let loaded = span "frontend" (fun () -> Taj.load ~lenient:true input) in
  let prog = loaded.Taj.program in
  let verdict =
    if config.Config.triage_filter && not config.Config.refine then
      Some (span "triage" (fun () -> Taj.triage ~rules loaded))
    else None
  in
  let scan_filter, skip_rule =
    match verdict with
    | None -> ((fun _ -> true), fun _ -> false)
    | Some v ->
      ( Triage.keep v,
        fun (r : Rules.rule) -> not (Triage.rule_has_source v r.Rules.rule_name) )
  in
  let andersen =
    span "pointer" (fun () ->
      Pointer.Andersen.run ~config:(pointer_config loaded config rules) prog)
  in
  let builder, heapgraph =
    span "sdg" (fun () ->
      let builder = Sdg.Builder.build ~scan_filter prog andersen in
      (builder, Pointer.Heapgraph.build andersen))
  in
  let engine config =
    Engine.run ~skip_rule ~prog ~builder ~heapgraph ~rules ~config ()
  in
  let tabulated =
    span "taint" (fun () -> engine { config with Config.refine = false })
  in
  let outcome =
    if config.Config.refine then span "taint+refine" (fun () -> engine config)
    else tabulated
  in
  let flows =
    if config.Config.contexts then
      span "strings" (fun () ->
        Sanitize.judge ~prog ~builder ~rules outcome.Engine.flows)
    else outcome.Engine.flows
  in
  let report = span "report" (fun () -> Report.make builder flows) in
  { loaded; verdict; andersen; builder; tabulated; outcome; report }

(** The report as the result tier would store it. *)
let rendered r = Cache.Incr.render_report r.builder r.report

(** The op's deterministic work counts. *)
let counts r =
  let cg = Pointer.Andersen.call_graph r.andersen in
  let pstats = Pointer.Andersen.statistics r.andersen in
  let triage f =
    match r.verdict with
    | Some v -> float_of_int (f (Triage.stats v))
    | None -> 0.
  in
  let refined f =
    match r.outcome.Engine.refined with
    | Some s -> float_of_int (f s)
    | None -> 0.
  in
  let i = float_of_int in
  [ ( "frontend.instrs",
      i (Jir.Program.stats r.loaded.Taj.program).Jir.Program.st_instrs );
    ("triage.passes", triage (fun s -> s.Triage.s_passes));
    ("triage.swept", triage (fun s -> s.Triage.s_methods));
    ("triage.skippable", triage (fun s -> s.Triage.s_skippable));
    ("pointer.propagations", i pstats.Pointer.Andersen.propagations);
    ("pointer.dispatches", i pstats.Pointer.Andersen.dispatches);
    ("pointer.cg_nodes", i (Pointer.Callgraph.node_count cg));
    ("taint.visited", sum_rules (fun rs -> rs.Engine.rs_visited) r.tabulated);
    ( "taint.heap_transitions",
      sum_rules (fun rs -> rs.Engine.rs_heap_transitions) r.tabulated );
    ("taint.flows", i (List.length r.tabulated.Engine.flows));
    ("refine.steps", refined (fun s -> s.Engine.rf_steps));
    ("refine.confirmed", refined (fun s -> s.Engine.rf_confirmed));
    ("refine.plausible", refined (fun s -> s.Engine.rf_plausible));
    ( "strings.mismatched",
      match Report.sanitization_counts r.report with
      | Some (m, _) -> i m
      | None -> 0. );
    ("report.issues", i (Report.issue_count r.report)) ]
