(** The sanitization judge: record-and-judge's second half.

    With [Config.contexts] on, the engine propagates {e through}
    sanitizers instead of killing at them, so every sanitizer a flow
    traverses sits on its witness path. This pass then judges each flow:

    - {e applied} — the canonical ids of the sanitizer calls on the path
      (matcher-canonical, all rules, deduplicated in path order);
    - {e required} — the syntactic context of the sink, computed from the
      rule's issue type plus the sink value's string template
      reconstructed interprocedurally by {!Strings.Summary};
    - {e verdict} — [Unsanitized] when nothing was applied,
      [Sanitized] when some applied sanitizer's effect set covers the
      required context, and [Mismatched_sanitizer {applied; required}]
      otherwise — the wrong-sanitizer-for-this-sink finding class.

    [Sanitized] flows are dropped before reporting, reproducing the
    classic kill's output discipline; [Unsanitized] flows are exactly
    the classic findings, now annotated with the sink context; and
    [Mismatched_sanitizer] flows are the new reports this analysis
    exists for. A flow the classic engine reports is therefore never
    dropped: a path with no sanitizer on it judges [Unsanitized]. *)

module Context = Strings.Context
module Template = Strings.Template
module Effects = Strings.Effects
module Telemetry = Obs.Telemetry

let m_judged = Telemetry.counter "strings.judged"
let m_sanitized = Telemetry.counter "strings.sanitized"
let m_mismatched = Telemetry.counter "strings.mismatched"
let m_unsanitized = Telemetry.counter "strings.unsanitized"

(** The effect table of a rule set: each sanitizer id paired with the
    issue names of the rules listing it (the inference's fallback
    signal). Sanitizer ids in rules are already canonical. *)
let effect_table (rules : Rules.rule list) : Effects.table =
  let by_id : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Rules.rule) ->
       List.iter
         (fun id ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_id id) in
            Hashtbl.replace by_id id
              (Rules.issue_name r.Rules.issue :: prev))
         r.Rules.sanitizers)
    rules;
  Effects.infer
    ~sanitizers:
      (Hashtbl.fold
         (fun id issues acc -> (id, List.sort_uniq compare issues) :: acc)
         by_id [])

(** Sanitizer calls on the witness path, canonical ids deduplicated in
    path order. *)
let applied_on_path (m : Rules.matcher) (rules : Rules.rule list)
    (b : Sdg.Builder.t) (path : Sdg.Stmt.t list) : string list =
  List.rev
    (List.fold_left
       (fun acc stmt ->
          match Sdg.Builder.call_of b stmt with
          | None -> acc
          | Some c ->
            (match Rules.sanitizer_of m rules c.Jir.Tac.target with
             | Some id when not (List.mem id acc) -> id :: acc
             | _ -> acc))
       [] path)

(** The context the sink demands, given the rule's issue type and the
    reconstructed template (if any). *)
let required_context (issue : Rules.issue) (tpl : Template.t option) :
  Context.t =
  match issue with
  | Rules.Xss ->
    (match tpl with Some t -> Template.html_context t | None -> Context.Unknown)
  | Rules.Sqli ->
    (match tpl with Some t -> Template.sql_context t | None -> Context.Unknown)
  | Rules.Malicious_file -> Context.Path
  | Rules.Command_injection -> Context.Shell
  | Rules.Info_leak -> Context.Unknown

(** One-line diagnostic of the sink's syntactic context for a reported
    flow (the [context [...]] lines of [taj analyze]), or [None] when no
    template is recoverable. The template is the judge's when it ran,
    else reconstructed by {!Strings.Summary}. *)
let diagnose (b : Sdg.Builder.t) (fl : Flows.t) : string option =
  let tpl =
    match fl.Flows.fl_template with
    | Some t -> Some t
    | None ->
      Strings.Summary.sink_template (Strings.Summary.make b)
        ~path:fl.Flows.fl_path ~sink:fl.Flows.fl_sink
  in
  Option.map
    (fun t ->
       let issue = fl.Flows.fl_rule.Rules.issue in
       let value = Fmt.str "sink value: %a" Template.pp t in
       match required_context issue (Some t), issue with
       | Context.Html_text, _ -> "HTML text context; " ^ value
       | Context.Html_attribute, _ -> "HTML attribute context; " ^ value
       | Context.Sql_quoted, _ -> "quoted SQL string position; " ^ value
       | Context.Sql_raw, _ ->
         "raw SQL position (numeric/keyword injection); " ^ value
       | _, Rules.Xss -> "unknown HTML context; " ^ value
       | _, Rules.Sqli -> "unknown SQL position; " ^ value
       | _ -> value)
    tpl

let verdict (effects : Effects.table) ~(applied : string list)
    ~(required : Context.t) : Context.verdict =
  if applied = [] then Context.Unsanitized
  else if
    List.exists (fun id -> Effects.covers (Effects.effects effects id) required)
      applied
  then Context.Sanitized
  else Context.Mismatched_sanitizer { applied; required }

(** Judge every flow; annotate kept flows, drop [Sanitized] ones. *)
let judge ?cache ~(prog : Jir.Program.t) ~(builder : Sdg.Builder.t)
    ~(rules : Rules.rule list) (flows : Flows.t list) : Flows.t list =
  let effects = effect_table rules in
  let m = Rules.matcher prog.Jir.Program.table in
  let env = Strings.Summary.make ?cache ~prog builder in
  List.filter_map
    (fun (fl : Flows.t) ->
       Telemetry.incr m_judged;
       let applied = applied_on_path m rules builder fl.Flows.fl_path in
       let tpl =
         Strings.Summary.sink_template env ~path:fl.Flows.fl_path
           ~sink:fl.Flows.fl_sink
       in
       let required = required_context fl.Flows.fl_rule.Rules.issue tpl in
       match verdict effects ~applied ~required with
       | Context.Sanitized ->
         Telemetry.incr m_sanitized;
         None
       | v ->
         Telemetry.incr
           (match v with
            | Context.Mismatched_sanitizer _ -> m_mismatched
            | _ -> m_unsanitized);
         Some
           { fl with
             Flows.fl_template = tpl;
             fl_sanitization = Some v })
    flows
