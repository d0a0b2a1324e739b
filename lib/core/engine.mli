(** The taint engine: per security rule, seed the slicer at source calls
    and collect flows that reach sinks, including taint-carrier flows
    (§4.1.1). *)

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
  rf_steps : int;                 (** replay steps, summed over flows *)
  rf_heap_transitions : int;
  rf_widened : int;               (** flows that hit the k-limit *)
  rf_budget : int;                (** flows demoted by budget exhaustion *)
}

type outcome = {
  flows : Flows.t list;
  filtered_by_length : int;       (** flows dropped by the §6.2.2 bound *)
  rule_stats : rule_stats list;
  exhausted : bool;               (** some rule hit the step budget *)
  interrupted : bool;             (** some rule was cut off by the deadline *)
  rule_faults : Diagnostics.degradation list;
      (** [Rule_failed] entries: rules whose slice raised contribute no
          flows, but the remaining rules still run (fault isolation) *)
  refined : refine_summary option;
      (** present iff the access-path refinement stage ran
          ([Config.refine]); it attaches verdicts and never drops flows *)
}

(** Slicing mode implied by a configuration. *)
val mode_of : Config.t -> Sdg.Tabulation.mode

(** The call-target resolution {!run} builds once per run: every call
    statement of the SDG with the canonical id of its target, each
    distinct target resolved once through the matcher
    ({!Rules.canonical}). Every rule's seeds and carrier sets filter this
    list, and the tabulation and refinement callbacks read the matcher it
    filled. *)
val resolve_calls :
  Rules.matcher -> Sdg.Builder.t -> (Sdg.Stmt.t * Jir.Tac.call * string) list

(** Run every rule. [interrupt]/[on_heap_transition] are threaded into the
    slicer (deadline polling and fault injection). A rule that raises is
    isolated: it contributes no flows plus a [Rule_failed] diagnostic.
    [skip_rule] is the triage pre-filter hook: a rule it accepts is
    answered with the synthesized zero record an empty-seed run would
    produce — sound only when the caller has proven the rule matches no
    source call in the program (see [Triage.rule_has_source]).
    Rules run one after another, in list order. *)
val run :
  ?interrupt:(unit -> bool) ->
  ?on_heap_transition:(unit -> unit) ->
  ?skip_rule:(Rules.rule -> bool) ->
  prog:Jir.Program.t ->
  builder:Sdg.Builder.t ->
  heapgraph:Pointer.Heapgraph.t ->
  rules:Rules.rule list ->
  config:Config.t ->
  unit ->
  outcome
