(** Type-based taint triage: a flow-insensitive type-qualifier inference
    over the class table and the JIR, in the spirit of practical
    [@Tainted]/[@Untainted] checkers. No pointer analysis, no SDG —
    round-robin passes over per-method register qualifiers plus a handful
    of coarse global channels (field bits by name, one array-contents
    bit, one thrown-value bit, one tainted-source-contents bit), until a
    pass changes nothing.

    The solver first compiles the program once into an int-indexed form:
    methods numbered in sorted-id order, field names interned, and each
    call site carrying its rule classification, its dictionary operation
    as field ids, its CHA callees as method indices and its native
    transfer summaries. CHA dispatch asks {!Jir.Classtable.subtype_index},
    built once per run. Each distinct call target is classified once.
    Cost: one compile pass over the instructions, plus, per distinct
    virtual receiver class, its descendants in the hierarchy; then
    passes × instructions, with the pass count bounded by the longest
    dependency chain (three on every Table-2 app).

    The inference deliberately {e over}-approximates the propagation of
    the full tabulation engine: every channel the engine can move taint
    through (SSA def/use, call arguments and returns over a CHA call
    graph that contains the pointer call graph, field store→load,
    array-element flow, dictionary-model field encodings, throw→catch,
    native by-reference transfers and the reflective-invoke rewrite) has
    a triage counterpart that taints at least as much. Over-tainting
    only weakens the pre-filter; under-tainting would break the
    byte-identity contract, so when in doubt this module taints.

    Two consumers:
    - the {b pre-filter}: methods whose registers stay [Untainted] and
      that contain no rule-relevant call can be skipped by the SDG scan
      and the per-rule engine without changing any report;
    - {b rung zero} of the degradation ladder: the sink findings are a
      sound-but-coarse answer a pressured service can return instead of
      shedding the job. *)

(** The qualifier lattice [Tainted ⊑ Unknown ⊑ Untainted] ([Tainted] is
    the most informative verdict for a may-taint analysis; joins move
    toward it). *)
type qual = Untainted | Unknown | Tainted

val join : qual -> qual -> qual
val qual_name : qual -> string

(** How one call site interacts with the security-rule set. The rule
    tables live above this library (they need the matcher's class-table
    canonicalization), so the caller supplies the classification. *)
type call_rules = {
  cr_source_ret : string list;
      (** rules for which the call's return value is a tainted source *)
  cr_source_params : (int * string) list;
      (** by-reference sources: (argument index, rule) whose contents
          the call taints *)
  cr_sanitizer : bool;       (** a sanitizer for at least one rule *)
  cr_sanitizes_all : bool;
      (** a sanitizer for {e every} rule — only then may triage endorse
          the return value (the single taint bit is rule-insensitive) *)
  cr_sinks : (string * int list) list;
      (** (rule, sensitive argument positions) sink matches *)
}

(** One sink call site reached by taint (or by [Unknown] data). Carries
    the containing method's class and name so ground-truth attribution
    works without an SDG builder. *)
type finding = {
  f_rule : string;
  f_issue : string;          (** issue name, as given by the classifier *)
  f_class : string;          (** class of the containing method *)
  f_meth : string;           (** name of the containing method *)
  f_method_id : string;      (** full id of the containing method *)
  f_sink : string;           (** sink target method reference *)
  f_site : int;              (** call-site id *)
  f_qual : qual;             (** [Tainted] or [Unknown] *)
}

val pp_finding : Format.formatter -> finding -> unit

type stats = {
  s_methods : int;           (** methods swept *)
  s_skippable : int;         (** methods the pre-filter may skip *)
  s_tainted_methods : int;   (** methods holding a non-[Untainted] register *)
  s_findings : int;
  s_passes : int;            (** round-robin passes over the program *)
  s_seconds : float;
}

type verdict

(** Run the inference to fixpoint. [classify] maps a call target to its
    rule interactions (see {!call_rules}) and is asked once per distinct
    target; [issue_of_rule] names the issue a rule reports (for
    findings). [tick] is a fault-injection hook invoked once per method
    sweep — an exception it raises escapes [infer] and is the caller's
    to contain. *)
val infer :
  ?tick:(unit -> unit) ->
  ?issue_of_rule:(string -> string) ->
  classify:(Jir.Tac.mref -> call_rules) ->
  Jir.Program.t ->
  verdict

(** Sink findings, deterministically ordered (rule, method id, site). *)
val findings : verdict -> finding list

val stats : verdict -> stats

(** Pre-filter decision: [false] means the method was proven
    untaint-reachable and rule-irrelevant, so the SDG scan may skip it
    without changing any report. *)
val keep : verdict -> Jir.Tac.meth -> bool

(** Same decision by method id. *)
val keep_id : verdict -> string -> bool

(** Did any call in the program match one of this rule's sources? When
    [false], the full engine cannot derive a single seed for the rule
    and may skip it wholesale. *)
val rule_has_source : verdict -> string -> bool
