(** Resilient analysis supervisor: deadlines, the degradation ladder, and
    total fault containment.

    The paper's tool never "just dies" on a large application — it trades
    precision for termination (§6). [run] enforces that contract for the
    whole pipeline: an analysis executes under a {!Budget.t} (wall-clock
    deadline, cancellation token); when an attempt exhausts a budget or a
    phase faults, the supervisor retries with progressively stricter
    bounded presets ({!Config.degradation_ladder}), recording each
    downgrade in the shared diagnostics. A deadline expiring mid-phase is
    not retried — the interrupted attempt already carries whatever flows
    were found, as a clearly-marked partial report. Whatever happens, [run]
    returns a value: at worst an empty partial report whose diagnostics say
    why. *)

type options = {
  deadline : float option;    (** wall-clock seconds for the whole run *)
  degrade : bool;             (** walk the ladder on budget exhaustion *)
  scale : float;              (** scale the ladder's presets were built at *)
  cancel : bool Atomic.t;     (** shared cooperative cancellation token *)
  jobs : int;                 (** ignored; see supervisor.mli *)
  cache : Cache_iface.t;      (** incremental-cache hooks; [none] = off *)
}

let default_options =
  { deadline = None; degrade = true; scale = 1.0;
    cancel = Atomic.make false; jobs = 1; cache = Cache_iface.none }

type attempt = {
  at_algorithm : Config.algorithm;
  at_scale : float;
  at_outcome : string;        (* "completed" | the failure reason *)
  at_seconds : float;
}

type outcome = {
  sv_analysis : Taj.analysis option;
      (** the successful (possibly partial) analysis, if any rung ran *)
  sv_report : Report.t;       (** always present; possibly empty partial *)
  sv_triage : Triage.verdict option;
      (** rung zero's answer, when the run ended there: type-qualifier
          sink findings without flow paths ([TYPE_ONLY]) *)
  sv_diagnostics : Diagnostics.degradation list;
      (** every event across all attempts, including downgrades *)
  sv_attempts : attempt list; (** in execution order *)
  sv_elapsed : float;         (** wall-clock seconds for the whole run *)
}

let completed_report (outcome : outcome) =
  match outcome.sv_analysis with
  | Some { Taj.result = Taj.Completed c; _ } -> Some c.Taj.report
  | _ -> None

let degraded outcome = outcome.sv_diagnostics <> []

(** Did the run end on rung zero (a triage-only answer)? *)
let type_only outcome = outcome.sv_triage <> None

(** Supervise one analysis end to end: load leniently, then walk the
    degradation ladder from [config] until an attempt completes, the
    deadline expires, or the ladder is exhausted. Never raises. *)
let run ?(rules = Rules.default_rules) ?(options = default_options)
    ?(config = Config.preset Config.Hybrid_unbounded) ?loaded
    (input : Taj.input) : outcome =
  let budget =
    Budget.create ?deadline:options.deadline ~cancel:options.cancel ()
  in
  let diagnostics = Diagnostics.create () in
  let attempts = ref [] in
  let note_attempt (cfg : Config.t) scale t0 outcome_str =
    attempts :=
      { at_algorithm = cfg.Config.algorithm;
        at_scale = scale;
        at_outcome = outcome_str;
        at_seconds = Budget.elapsed budget -. t0 }
      :: !attempts
  in
  let finish ?triage analysis =
    { sv_analysis = analysis;
      sv_report =
        (match (triage, analysis) with
         | Some _, _ ->
           (* rung zero answered: an empty-issue report whose completeness
              says why, with the findings on [sv_triage] *)
           Report.empty
             ~completeness:(Report.Type_only (Diagnostics.events diagnostics))
         | None, Some { Taj.result = Taj.Completed c; _ } -> c.Taj.report
         | None, (Some { Taj.result = Taj.Did_not_complete _; _ } | None) ->
           Report.empty
             ~completeness:(Report.Partial (Diagnostics.events diagnostics)));
      sv_triage = triage;
      sv_diagnostics = Diagnostics.events diagnostics;
      sv_attempts = List.rev !attempts;
      sv_elapsed = Budget.elapsed budget }
  in
  match
    match loaded with
    | Some l -> l
    | None -> Taj.load ~lenient:true ~cache:options.cache input
  with
  | exception e ->
    (* total frontend failure: still a value, never an exception *)
    Diagnostics.record diagnostics
      (Phase_fault { phase = Frontend; error = Printexc.to_string e });
    finish None
  | loaded ->
    let rec attempt scale (cfg : Config.t)
        (rungs : (float * Config.t) list) (last : Taj.analysis option) =
      let t0 = Budget.elapsed budget in
      if cfg.Config.algorithm = Config.Type_triage then begin
        (* rung zero: no pointer analysis, no SDG — the type-qualifier
           pass always answers unless a fault is injected into it, in
           which case the run finishes with what it has (rung zero is
           the floor; there is nothing below to descend to) *)
        match
          Obs.Telemetry.with_span "supervisor.attempt"
            ~args:
              [ ("algorithm", Config.algorithm_name cfg.Config.algorithm);
                ("scale", Printf.sprintf "%.3f" scale) ]
            (fun () ->
               Taj.triage
                 ~tick:(fun () -> Fault.tick Fault.site_triage_infer)
                 ~rules loaded)
        with
        | exception e ->
          Diagnostics.record diagnostics
            (Phase_fault { phase = Triage; error = Printexc.to_string e });
          note_attempt cfg scale t0 (Printexc.to_string e);
          descend scale cfg rungs last (Printexc.to_string e)
        | verdict ->
          let reason =
            if !attempts = [] then "requested"
            else "every slicing rung failed"
          in
          Diagnostics.record diagnostics
            (Triage_fallback
               { reason;
                 findings = List.length (Triage.findings verdict) });
          note_attempt cfg scale t0 "type_only";
          finish ~triage:verdict last
      end
      else
      match
        (* one span per ladder rung, so retries are visible as sibling
           attempts on the trace; Fun.protect inside [with_span] closes the
           span even when the attempt raises *)
        Obs.Telemetry.with_span "supervisor.attempt"
          ~args:
            [ ("algorithm", Config.algorithm_name cfg.Config.algorithm);
              ("scale", Printf.sprintf "%.3f" scale) ]
          (fun () ->
             Taj.run ~rules ~budget ~diagnostics
               ~cache:options.cache loaded cfg)
      with
      | exception e ->
        (* Taj.run contains phase faults itself; this is a belt for truly
           unexpected escapes (e.g. allocation failure in glue code) *)
        Diagnostics.record diagnostics
          (Phase_fault { phase = Taint; error = Printexc.to_string e });
        note_attempt cfg scale t0 (Printexc.to_string e);
        descend scale cfg rungs last (Printexc.to_string e)
      | { Taj.result = Taj.Completed _; _ } as analysis ->
        note_attempt cfg scale t0 "completed";
        finish (Some analysis)
      | { Taj.result = Taj.Did_not_complete reason; _ } as analysis ->
        note_attempt cfg scale t0 reason;
        descend scale cfg rungs (Some analysis) reason
    and descend _scale (cfg : Config.t) rungs last reason =
      (* no point retrying once the global budget is gone: the stricter
         rung would be interrupted immediately *)
      if (not options.degrade) || Budget.tripped budget then finish last
      else
        match rungs with
        | [] -> finish last
        | (scale', cfg') :: rest ->
          Diagnostics.record diagnostics
            (Downgraded
               { from_alg = cfg.Config.algorithm;
                 to_alg = cfg'.Config.algorithm;
                 to_scale = scale';
                 reason });
          attempt scale' cfg' rest last
    in
    attempt options.scale config
      (Config.degradation_ladder ~scale:options.scale config)
      None
