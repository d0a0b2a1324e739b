(** The sanitization judge (record-and-judge's second half): compare the
    sanitizers recorded on each witness path against the sink's computed
    syntactic context. [Sanitized] flows are dropped — reproducing the
    classic kill's output — while [Unsanitized] and
    [Mismatched_sanitizer] flows are kept and annotated. *)

(** The effect table of a rule set (exposed for tests and reporting). *)
val effect_table : Rules.rule list -> Strings.Effects.table

(** Sanitizer calls on a witness path: canonical ids, deduplicated, in
    path order. *)
val applied_on_path :
  Rules.matcher ->
  Rules.rule list ->
  Sdg.Builder.t ->
  Sdg.Stmt.t list ->
  string list

(** The context a sink demands, from the rule's issue type plus the
    reconstructed template. *)
val required_context :
  Rules.issue -> Strings.Template.t option -> Strings.Context.t

(** One-line diagnostic of the sink's syntactic context for a reported
    flow, from {!required_context} (the [context [...]] lines of
    [taj analyze]); [None] when no template is recoverable. *)
val diagnose : Sdg.Builder.t -> Flows.t -> string option

(** Judge one (applied, required) pair against an effect table. *)
val verdict :
  Strings.Effects.table ->
  applied:string list ->
  required:Strings.Context.t ->
  Strings.Context.verdict

(** Judge every flow: annotate kept flows with template and verdict,
    drop [Sanitized] ones. *)
val judge :
  ?cache:Strings.Summary.cache ->
  prog:Jir.Program.t ->
  builder:Sdg.Builder.t ->
  rules:Rules.rule list ->
  Flows.t list ->
  Flows.t list
