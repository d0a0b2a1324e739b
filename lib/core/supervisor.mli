(** Resilient analysis supervisor (§6): run the pipeline under a wall-clock
    deadline, degrade precision instead of dying, and contain every fault.

    {!run} never raises. Its outcome always carries a report — at worst an
    empty [Partial] one whose diagnostics explain what went wrong. *)

type options = {
  deadline : float option;    (** wall-clock seconds for the whole run *)
  degrade : bool;             (** walk the ladder on budget exhaustion *)
  scale : float;              (** scale the ladder's presets are built at *)
  cancel : bool Atomic.t;     (** shared cooperative cancellation token *)
  jobs : int;                 (** ignored: every run is sequential.
                                  The field stays only because the
                                  benchmark's record literals set it;
                                  the next change to the benchmark
                                  deletes it *)
  cache : Cache_iface.t;      (** incremental-cache hooks threaded into
                                  every rung's load and run;
                                  {!Cache_iface.none} = caching off *)
}

(** No deadline, degradation enabled, scale 1.0, fresh token, no
    cache. *)
val default_options : options

(** One rung of the ladder that actually executed. *)
type attempt = {
  at_algorithm : Config.algorithm;
  at_scale : float;
  at_outcome : string;        (** ["completed"] or the failure reason *)
  at_seconds : float;
}

type outcome = {
  sv_analysis : Taj.analysis option;
      (** the last attempt's analysis ([None] only if loading itself
          faulted); [Completed] here may still hold a [Partial] report *)
  sv_report : Report.t;
      (** always present: the completed attempt's report, an empty
          [Partial] one carrying the diagnostics, or an empty
          [Type_only] one when rung zero answered *)
  sv_triage : Triage.verdict option;
      (** rung zero's answer, when the run ended there — type-qualifier
          sink findings ({!Triage.findings}) without flow paths *)
  sv_diagnostics : Diagnostics.degradation list;
      (** every event across all attempts, downgrades included *)
  sv_attempts : attempt list; (** in execution order *)
  sv_elapsed : float;         (** wall-clock seconds for the whole run *)
}

(** The completed attempt's report, if any rung completed. *)
val completed_report : outcome -> Report.t option

(** [true] iff anything at all went wrong (= diagnostics are non-empty). *)
val degraded : outcome -> bool

(** Did the run end on rung zero (a triage-only answer)? *)
val type_only : outcome -> bool

(** Load leniently, then walk the degradation ladder from [config]
    (default: unbounded hybrid) until an attempt completes, the deadline
    expires, or the ladder is exhausted. The ladder always ends in the
    [Type_triage] rung zero, so "exhausted" normally means a type-only
    answer rather than an empty one; a [Type_triage] base configuration
    runs rung zero directly. Never raises. [loaded] skips the
    load when the caller already has one for this input (the cache layer
    loads first to compute its result key). *)
val run :
  ?rules:Rules.rule list ->
  ?options:options ->
  ?config:Config.t ->
  ?loaded:Taj.loaded ->
  Taj.input ->
  outcome
