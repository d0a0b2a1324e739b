(** Scoring: run a configuration on a generated app and classify the reported
    issues against the generator's ground truth — the mechanized counterpart
    of the paper's manual true/false-positive evaluation (Figure 4, §7.2). *)

open Core

type classification = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;      (* planted real flows with no report *)
  unattributed : int;         (* reports whose sink matches no pattern *)
}

let accuracy c =
  let reported = c.true_positives + c.false_positives in
  if reported = 0 then 0.0
  else float_of_int c.true_positives /. float_of_int reported

type refined = {
  confirmed_issues : int;
  plausible_issues : int;
  confirmed_tp : int;
  confirmed_fp : int;
      (* the headline precision metric: false positives *among the
         Confirmed subset* vs. the overall false-positive count *)
}

type sanitization = {
  sz_mismatched : int;        (* issues judged mismatched-sanitizer *)
  sz_unsanitized : int;
  sz_expected : int;          (* planted patterns carrying an expected pair *)
  sz_matched : int;
      (* of those, reported as mismatched with exactly the expected
         (applied sanitizer, required context). The acceptance gate is
         [sz_matched = sz_expected]: no planted mismatch may be missed. *)
}

type run = {
  r_app : string;
  r_algorithm : Config.algorithm;
  r_completed : bool;
  r_issues : int;
  r_seconds : float;
  r_cg_nodes : int;
  r_classification : classification option;  (* None if did not complete *)
  r_phases : Taj.phase_times option;         (* None if did not complete *)
  r_refined : refined option;                (* None unless refine ran *)
  r_sanitization : sanitization option;      (* None unless contexts ran *)
}

(** Attribute each reported issue to its planted pattern and classify. *)
let classify_issues (truth : Ground_truth.t) (builder : Sdg.Builder.t)
    (issues : Report.issue_report list) : classification =
  let tp = ref 0 and fp = ref 0 and unattributed = ref 0 in
  let hit_patterns = Hashtbl.create 32 in
  List.iter
    (fun (ir : Report.issue_report) ->
       let sink = ir.Report.ir_representative.Flows.fl_sink in
       let m = Sdg.Builder.node_meth builder sink.Sdg.Stmt.node in
       match
         Ground_truth.attribute truth ~cls:m.Jir.Tac.m_class
           ~meth:m.Jir.Tac.m_name
       with
       | Some p ->
         Hashtbl.replace hit_patterns (p.Ground_truth.p_id, p.Ground_truth.p_sink_method) ();
         if p.Ground_truth.p_real then incr tp else incr fp
       | None -> incr unattributed)
    issues;
  let fn =
    List.length
      (List.filter
         (fun (p : Ground_truth.planted) ->
            p.Ground_truth.p_real
            && not
                 (Hashtbl.mem hit_patterns
                    (p.Ground_truth.p_id, p.Ground_truth.p_sink_method)))
         truth)
  in
  { true_positives = !tp;
    false_positives = !fp;
    false_negatives = fn;
    unattributed = !unattributed }

let classify (truth : Ground_truth.t) (builder : Sdg.Builder.t)
    (report : Report.t) : classification =
  classify_issues truth builder report.Report.issues

(* Per-verdict classification: score the Confirmed subset on its own. *)
let refined_of (truth : Ground_truth.t) (builder : Sdg.Builder.t)
    (report : Report.t) : refined option =
  match Report.verdict_counts report with
  | None -> None
  | Some (confirmed_issues, plausible_issues) ->
    let confirmed =
      List.filter
        (fun (ir : Report.issue_report) ->
           ir.Report.ir_verdict = Some Sdg.Refine.Confirmed)
        report.Report.issues
    in
    let c = classify_issues truth builder confirmed in
    Some
      { confirmed_issues;
        plausible_issues;
        confirmed_tp = c.true_positives;
        confirmed_fp = c.false_positives }

(* Per-sanitization-verdict scoring: check every planted expected
   (applied, required) pair against the judged reports. *)
let sanitization_of (truth : Ground_truth.t) (builder : Sdg.Builder.t)
    (report : Report.t) : sanitization option =
  match Report.sanitization_counts report with
  | None -> None
  | Some (sz_mismatched, sz_unsanitized) ->
    let expected =
      List.filter
        (fun (p : Ground_truth.planted) -> p.Ground_truth.p_expect <> None)
        truth
    in
    let reported_pair (p : Ground_truth.planted) =
      List.exists
        (fun (ir : Report.issue_report) ->
           let sink = ir.Report.ir_representative.Flows.fl_sink in
           let m = Sdg.Builder.node_meth builder sink.Sdg.Stmt.node in
           String.equal m.Jir.Tac.m_class p.Ground_truth.p_class
           && String.equal m.Jir.Tac.m_name p.Ground_truth.p_sink_method
           &&
           match ir.Report.ir_sanitization, p.Ground_truth.p_expect with
           | ( Some (Strings.Context.Mismatched_sanitizer
                       { applied; required }),
               Some (exp_applied, exp_required) ) ->
             List.mem exp_applied applied
             && String.equal (Strings.Context.name required) exp_required
           | _ -> false)
        report.Report.issues
    in
    Some
      { sz_mismatched;
        sz_unsanitized;
        sz_expected = List.length expected;
        sz_matched = List.length (List.filter reported_pair expected) }

(** Run one algorithm over a loaded app and score it. [refine] switches on
    the access-path second pass; [refine_k]/[refine_steps] tune it;
    [contexts] switches on the sanitization judge. *)
let run_config ?(refine = false) ?(refine_k = 3)
    ?(refine_steps = 4096) ?(triage_filter = true) ?(contexts = false)
    ~(loaded : Taj.loaded) ~(truth : Ground_truth.t) ~(app : string)
    ~(scale : float) (algorithm : Config.algorithm) : run =
  let config =
    { (Config.preset ~scale algorithm) with
      Config.refine; refine_k; refine_steps; triage_filter; contexts }
  in
  (* wall clock, not CPU time: Table 3 reports elapsed analysis time *)
  let analysis, seconds =
    Obs.Telemetry.timed (fun () -> Taj.run loaded config)
  in
  match analysis.Taj.result with
  | Taj.Did_not_complete _ ->
    { r_app = app; r_algorithm = algorithm; r_completed = false;
      r_issues = 0; r_seconds = seconds; r_cg_nodes = 0;
      r_classification = None; r_phases = None; r_refined = None;
      r_sanitization = None }
  | Taj.Completed c ->
    { r_app = app;
      r_algorithm = algorithm;
      r_completed = true;
      r_issues = Report.issue_count c.Taj.report;
      r_seconds = seconds;
      r_cg_nodes = c.Taj.cg_nodes;
      r_classification = Some (classify truth c.Taj.builder c.Taj.report);
      r_phases = Some c.Taj.times;
      r_refined = refined_of truth c.Taj.builder c.Taj.report;
      r_sanitization = sanitization_of truth c.Taj.builder c.Taj.report }

(** Run all five Table 1 configurations over one app. *)
let run_app ?(scale = 0.05) ?(refine = false) ?(refine_k = 3)
    ?(refine_steps = 4096) ?(triage_filter = true) ?(contexts = false)
    ?(algorithms = Config.all_algorithms) (a : Apps.app) : run list =
  let g = Apps.generate ~scale a in
  let loaded = Taj.load (Codegen.to_input g) in
  List.map
    (run_config ~refine ~refine_k ~refine_steps ~triage_filter
       ~contexts ~loaded ~truth:g.Codegen.g_truth ~app:a.Apps.name ~scale)
    algorithms

(** {!run_app}, but a failure is returned as [(phase, error)] instead of
    raised — the machine-readable form the bench harness needs to emit
    failure rows with phase attribution. *)
let run_app_result ?(scale = 0.05) ?(refine = false)
    ?(refine_k = 3) ?(refine_steps = 4096) ?(triage_filter = true)
    ?(contexts = false) ?(algorithms = Config.all_algorithms)
    (a : Apps.app) : (run list, string * string) result =
  match Apps.generate ~scale a with
  | exception e -> Error ("generate", Printexc.to_string e)
  | g ->
    (match Taj.load (Codegen.to_input g) with
     | exception e -> Error ("frontend", Printexc.to_string e)
     | loaded ->
       (match
          List.map
            (run_config ~refine ~refine_k ~refine_steps ~triage_filter
               ~contexts ~loaded ~truth:g.Codegen.g_truth ~app:a.Apps.name
               ~scale)
            algorithms
        with
        | runs -> Ok runs
        | exception e -> Error ("analysis", Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Per-rung scoring: walk the degradation ladder                      *)
(* ------------------------------------------------------------------ *)

type rung_run = {
  rr_rung : string;
  rr_completed : bool;
  rr_seconds : float;
  rr_issues : int;
  rr_classification : classification option;
}

(** Attribute triage sink findings by the (class, method) they live in —
    the same attribution key {!classify_issues} derives from the sink
    statement's SDG node, but read straight off the finding so no
    builder is needed. A pattern hit by several findings counts once
    toward the false-negative complement, like the issue-level path. *)
let classify_triage (truth : Ground_truth.t)
    (findings : Triage.finding list) : classification =
  let tp = ref 0 and fp = ref 0 and unattributed = ref 0 in
  let hit_patterns = Hashtbl.create 32 in
  List.iter
    (fun (f : Triage.finding) ->
       match
         Ground_truth.attribute truth ~cls:f.Triage.f_class
           ~meth:f.Triage.f_meth
       with
       | Some p ->
         Hashtbl.replace hit_patterns
           (p.Ground_truth.p_id, p.Ground_truth.p_sink_method) ();
         if p.Ground_truth.p_real then incr tp else incr fp
       | None -> incr unattributed)
    findings;
  let fn =
    List.length
      (List.filter
         (fun (p : Ground_truth.planted) ->
            p.Ground_truth.p_real
            && not
                 (Hashtbl.mem hit_patterns
                    (p.Ground_truth.p_id, p.Ground_truth.p_sink_method)))
         truth)
  in
  { true_positives = !tp;
    false_positives = !fp;
    false_negatives = fn;
    unattributed = !unattributed }

(** Score every rung of [algorithm]'s degradation ladder over one app:
    the requested configuration first, then each fallback the supervisor
    would try, ending at the type-triage rung zero. The rung-zero row is
    scored from the triage findings directly — recall there must not lose
    a planted true positive (over-approximation), only precision may. *)
let run_rungs ?(scale = 0.05) ?(algorithm = Config.Hybrid_optimized)
    (a : Apps.app) : rung_run list =
  let g = Apps.generate ~scale a in
  let loaded = Taj.load (Codegen.to_input g) in
  let truth = g.Codegen.g_truth in
  let base = Config.preset ~scale algorithm in
  let rungs = (scale, base) :: Config.degradation_ladder ~scale base in
  List.map
    (fun ((_, cfg) as rung) ->
       let label = Config.rung_label rung in
       if cfg.Config.algorithm = Config.Type_triage then begin
         let verdict, seconds =
           Obs.Telemetry.timed (fun () ->
               Taj.triage ~rules:Rules.default_rules loaded)
         in
         let findings = Triage.findings verdict in
         { rr_rung = label;
           rr_completed = true;
           rr_seconds = seconds;
           rr_issues = List.length findings;
           rr_classification = Some (classify_triage truth findings) }
       end
       else
         let analysis, seconds =
           Obs.Telemetry.timed (fun () -> Taj.run loaded cfg)
         in
         match analysis.Taj.result with
         | Taj.Did_not_complete _ ->
           { rr_rung = label; rr_completed = false; rr_seconds = seconds;
             rr_issues = 0; rr_classification = None }
         | Taj.Completed c ->
           { rr_rung = label;
             rr_completed = true;
             rr_seconds = seconds;
             rr_issues = Report.issue_count c.Taj.report;
             rr_classification =
               Some (classify truth c.Taj.builder c.Taj.report) })
    rungs
