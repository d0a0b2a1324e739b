(** Consumable reports: LCP-deduplicated issues with witness paths. *)

type issue_report = {
  ir_issue : Rules.issue;
  ir_lcp : Sdg.Stmt.t option;
  ir_representative : Flows.t;
  ir_flow_count : int;
  ir_verdict : Sdg.Refine.verdict option;
      (** the best verdict in the group (the representative's, as members
          sort confirmed-first); [None] when refinement did not run *)
  ir_sanitization : Strings.Context.verdict option;
      (** the representative's sanitization judgement; [None] when
          contexts were off *)
  ir_template : Strings.Template.t option;
      (** the representative's reconstructed sink template, if any *)
}

(** Whether the flows in this report reflect a run to fixed point or a run
    the supervisor had to cut short / degrade (§6 bounded analysis). *)
type completeness =
  | Complete
  | Partial of Diagnostics.degradation list
  | Type_only of Diagnostics.degradation list
      (** rung zero answered: the issues list is empty and the findings
          live on the supervisor outcome's triage verdict — sink
          classifications without witness paths *)

type t = {
  issues : issue_report list;
  raw_flows : Flows.t list;
  completeness : completeness;
}

val make : ?completeness:completeness -> Sdg.Builder.t -> Flows.t list -> t

(** A report with no flows at all (total degradation). *)
val empty : completeness:completeness -> t

val issue_count : t -> int
val flow_count : t -> int

(** [true] for [Partial] and [Type_only] reports alike. *)
val is_partial : t -> bool

(** (confirmed, plausible) issue counts; [None] when refinement did not
    run. *)
val verdict_counts : t -> (int * int) option

(** (mismatched-sanitizer, unsanitized) issue counts; [None] when the
    sanitization judge did not run. *)
val sanitization_counts : t -> (int * int) option

val pp_stmt : Sdg.Builder.t -> Format.formatter -> Sdg.Stmt.t -> unit
val pp_issue_report : Sdg.Builder.t -> Format.formatter -> issue_report -> unit
val pp : Sdg.Builder.t -> Format.formatter -> t -> unit

(** One issue as an entry of [taj analyze --json]'s [issues] array:
    issue, flows, sink, verdict, sanitization, remediation and witness,
    statements printed by {!pp_stmt}. *)
val issue_json : Sdg.Builder.t -> issue_report -> Obs.Json.t

(** {!sanitization_counts} read back from the header line {!pp} writes
    first: the result tier keeps the rendering, not the report. *)
val read_sanitization_counts : string -> (int * int) option
