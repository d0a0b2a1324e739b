(** Security rules: triples (sources, sanitizers, sinks) per issue type
    (§3). Method references are matched through the class hierarchy. *)

type issue =
  | Xss
  | Sqli
  | Command_injection
  | Malicious_file
  | Info_leak

val issue_name : issue -> string
val pp_issue : Format.formatter -> issue -> unit

type source_kind = Tainted_return | Taints_param of int

type source = {
  src_method : string;          (** canonical method id *)
  src_kind : source_kind;
}

type sink = {
  snk_method : string;
  snk_params : int list;        (** sensitive argument positions *)
}

type rule = {
  rule_name : string;
  issue : issue;
  sources : source list;
  sanitizers : string list;
  sinks : sink list;
}

val xss : rule
val sqli : rule
val command_injection : rule
val malicious_file : rule
val info_leak : rule

(** The rule set covering the four OWASP vectors the paper targets. *)
val default_rules : rule list

(** {1 Queries by canonical id}

    A call target's role in one rule, asked by its canonical id
    ({!canonical}). A caller that resolved a target once asks every rule
    through these; the per-target queries below are the same questions
    behind one {!canonical} call each. *)

val source_of_id : rule -> string -> source option
val sink_of_id : rule -> string -> sink option
val is_sink_arg_id : rule -> string -> int -> bool
val is_sanitizer_id : rule -> string -> bool

(** {1 Queries by call target} *)

(** A matcher canonicalizes call targets through the class hierarchy and
    answers rule-membership queries (memoized per target). *)
type matcher

val matcher : Jir.Classtable.t -> matcher

(** Canonical method id of a call target: the declaring class of the method
    the static target resolves to. A memo hit formats nothing. *)
val canonical : matcher -> Jir.Tac.mref -> string

val source_of : matcher -> rule -> Jir.Tac.mref -> source option
val is_sink_arg : matcher -> rule -> Jir.Tac.mref -> int -> bool
val sink_of : matcher -> rule -> Jir.Tac.mref -> sink option
val is_sanitizer : matcher -> rule -> Jir.Tac.mref -> bool

(** The canonical id of the target if {e any} rule lists it as a
    sanitizer, [None] otherwise. The single sanitizer-identity question
    all consumers (tabulation, refinement, triage, the sanitization
    judge) agree on: a subclass inheriting a sanitizer matches, a
    subclass overriding it with its own body does not. *)
val sanitizer_of : matcher -> rule list -> Jir.Tac.mref -> string option

(** Does any rule regard this method id as a source? Seeds the §6.1
    priority scheme. *)
val is_source_method_id : rule list -> matcher -> string -> bool
