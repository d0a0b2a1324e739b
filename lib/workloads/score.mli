(** Scoring: run a configuration on a generated app and classify the
    reported issues against the generator's ground truth — the mechanized
    counterpart of the paper's manual evaluation (Figure 4, §7.2). *)

type classification = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;      (** planted real flows with no report *)
  unattributed : int;         (** reports whose sink matches no pattern *)
}

val accuracy : classification -> float

type refined = {
  confirmed_issues : int;
  plausible_issues : int;
  confirmed_tp : int;
  confirmed_fp : int;
      (** the headline precision metric: false positives among the
          Confirmed subset vs. the overall false-positive count *)
}

type sanitization = {
  sz_mismatched : int;     (** issues judged mismatched-sanitizer *)
  sz_unsanitized : int;
  sz_expected : int;       (** planted patterns carrying an expected pair *)
  sz_matched : int;
      (** of those, reported as mismatched with exactly the expected
          (applied sanitizer, required context); the acceptance gate is
          [sz_matched = sz_expected] *)
}

type run = {
  r_app : string;
  r_algorithm : Core.Config.algorithm;
  r_completed : bool;
  r_issues : int;
  r_seconds : float;
  r_cg_nodes : int;
  r_classification : classification option;  (** None = did not complete *)
  r_phases : Core.Taj.phase_times option;    (** None = did not complete *)
  r_refined : refined option;                (** None unless refine ran *)
  r_sanitization : sanitization option;      (** None unless contexts ran *)
}

(** Attribute each reported issue to its planted pattern and classify. *)
val classify :
  Ground_truth.t -> Sdg.Builder.t -> Core.Report.t -> classification

(** Classify a subset of a report's issues (used for per-verdict rates). *)
val classify_issues :
  Ground_truth.t -> Sdg.Builder.t -> Core.Report.issue_report list ->
  classification

val run_config :
  ?refine:bool -> ?refine_k:int -> ?refine_steps:int ->
  ?triage_filter:bool -> ?contexts:bool ->
  loaded:Core.Taj.loaded -> truth:Ground_truth.t ->
  app:string -> scale:float -> Core.Config.algorithm -> run

(** Run the given configurations (default: all five) over one app.
    [triage_filter] (default on) lets the metamorphic CI check score with the pre-filter disabled —
    the reports must not change. *)
val run_app :
  ?scale:float -> ?refine:bool -> ?refine_k:int ->
  ?refine_steps:int -> ?triage_filter:bool -> ?contexts:bool ->
  ?algorithms:Core.Config.algorithm list ->
  Apps.app -> run list

(** {!run_app}, but a failure comes back as [Error (phase, error)] with
    [phase] one of ["generate"], ["frontend"], ["analysis"] — so partial
    bench runs stay machine-readable. *)
val run_app_result :
  ?scale:float -> ?refine:bool -> ?refine_k:int ->
  ?refine_steps:int -> ?triage_filter:bool -> ?contexts:bool ->
  ?algorithms:Core.Config.algorithm list ->
  Apps.app -> (run list, string * string) result

(** One row of the per-rung score table ({!run_rungs}). *)
type rung_run = {
  rr_rung : string;               (** {!Core.Config.rung_label} *)
  rr_completed : bool;
  rr_seconds : float;
  rr_issues : int;                (** issues, or triage findings at rung 0 *)
  rr_classification : classification option;  (** None = did not complete *)
}

(** Classify triage sink findings against the planted ground truth by the
    (class, method) carried on each finding — no SDG builder required. *)
val classify_triage :
  Ground_truth.t -> Triage.finding list -> classification

(** Score every rung of [algorithm]'s degradation ladder (default:
    Hybrid_optimized) over one app: the requested configuration first,
    then each supervisor fallback, ending at the type-triage rung zero.
    Rung zero must not lose a planted true positive — it over-approximates
    — so only its precision column is allowed to drop. *)
val run_rungs :
  ?scale:float -> ?algorithm:Core.Config.algorithm -> Apps.app ->
  rung_run list
