(** Consumable reports: LCP-deduplicated issues with witness paths. *)

open Jir
module Json = Obs.Json

type issue_report = {
  ir_issue : Rules.issue;
  ir_lcp : Sdg.Stmt.t option;
  ir_representative : Flows.t;
  ir_flow_count : int;
  ir_verdict : Sdg.Refine.verdict option;
      (* the best verdict in the group (the representative's, as members
         sort confirmed-first); None when refinement did not run *)
  ir_sanitization : Strings.Context.verdict option;
      (* the representative's sanitization judgement; None when contexts
         were off ([Sanitized] flows never reach the report) *)
  ir_template : Strings.Template.t option;
      (* the representative's reconstructed sink template, when the
         judge recovered one *)
}

type completeness =
  | Complete
  | Partial of Diagnostics.degradation list
  | Type_only of Diagnostics.degradation list

type t = {
  issues : issue_report list;
  raw_flows : Flows.t list;
  completeness : completeness;
}

let make ?(completeness = Complete) (b : Sdg.Builder.t)
    (flows : Flows.t list) : t =
  let groups =
    Obs.Telemetry.with_span "report.lcp" @@ fun () -> Lcp.dedup b flows
  in
  { issues =
      List.map
        (fun (g : Lcp.group) ->
           { ir_issue = g.Lcp.g_issue;
             ir_lcp = g.Lcp.g_lcp;
             ir_representative = g.Lcp.g_representative;
             ir_flow_count = List.length g.Lcp.g_members;
             ir_verdict = g.Lcp.g_representative.Flows.fl_verdict;
             ir_sanitization = g.Lcp.g_representative.Flows.fl_sanitization;
             ir_template = g.Lcp.g_representative.Flows.fl_template })
        groups;
    raw_flows = flows;
    completeness }

(* A report with no flows at all — what the supervisor returns when every
   rung of the degradation ladder failed: still a value, never an
   exception. *)
let empty ~completeness = { issues = []; raw_flows = []; completeness }

let issue_count t = List.length t.issues
let flow_count t = List.length t.raw_flows

let is_partial t =
  match t.completeness with
  | Complete -> false
  | Partial _ | Type_only _ -> true

(** (confirmed, plausible) issue counts; [None] when refinement did not
    run (no issue carries a verdict). *)
let verdict_counts t =
  let refined = List.filter (fun ir -> ir.ir_verdict <> None) t.issues in
  if refined = [] then None
  else
    Some
      (List.fold_left
         (fun (c, p) ir ->
            match ir.ir_verdict with
            | Some Sdg.Refine.Confirmed -> (c + 1, p)
            | Some (Sdg.Refine.Plausible _) -> (c, p + 1)
            | None -> (c, p))
         (0, 0) refined)

(** (mismatched, unsanitized) issue counts; [None] when the sanitization
    judge did not run (no issue carries a sanitization verdict). *)
let sanitization_counts t =
  let judged = List.filter (fun ir -> ir.ir_sanitization <> None) t.issues in
  if judged = [] then None
  else
    Some
      (List.fold_left
         (fun (m, u) ir ->
            match ir.ir_sanitization with
            | Some (Strings.Context.Mismatched_sanitizer _) -> (m + 1, u)
            | Some Strings.Context.Unsanitized -> (m, u + 1)
            | Some Strings.Context.Sanitized | None -> (m, u))
         (0, 0) judged)

let pp_stmt (b : Sdg.Builder.t) ppf (s : Sdg.Stmt.t) =
  let m = Sdg.Builder.node_meth b s.Sdg.Stmt.node in
  match Sdg.Builder.instr_of b s with
  | Some ins -> Fmt.pf ppf "%s: %a" (Tac.method_id m) Tac.pp_instr ins
  | None ->
    (match s.Sdg.Stmt.kind with
     | Sdg.Stmt.K_param i -> Fmt.pf ppf "%s: param %d" (Tac.method_id m) i
     | Sdg.Stmt.K_ret -> Fmt.pf ppf "%s: return" (Tac.method_id m)
     | Sdg.Stmt.K_phi (blk, i) ->
       Fmt.pf ppf "%s: B%d.phi%d" (Tac.method_id m) blk i
     | Sdg.Stmt.K_instr (blk, _) ->
       Fmt.pf ppf "%s: B%d.<throw>" (Tac.method_id m) blk)

let pp_issue_report (b : Sdg.Builder.t) ppf (ir : issue_report) =
  Fmt.pf ppf "@[<v2>[%a]%a%a %d flow(s); sink %a@,"
    Rules.pp_issue ir.ir_issue
    (fun ppf -> function
       | None -> ()
       | Some v -> Fmt.pf ppf " %s" (String.uppercase_ascii
                                       (Sdg.Refine.verdict_name v)))
    ir.ir_verdict
    (fun ppf -> function
       | Some (Strings.Context.Mismatched_sanitizer _) ->
         Fmt.string ppf " MISMATCHED-SANITIZER"
       | Some _ | None -> ())
    ir.ir_sanitization ir.ir_flow_count
    (pp_stmt b) ir.ir_representative.Flows.fl_sink;
  (match ir.ir_sanitization with
   | None -> ()
   | Some v ->
     Fmt.pf ppf "sanitization: %a@," Strings.Context.pp_verdict v;
     (match ir.ir_template with
      | Some tpl -> Fmt.pf ppf "sink template: %a@," Strings.Template.pp tpl
      | None -> ()));
  (match ir.ir_lcp with
   | Some lcp -> Fmt.pf ppf "remediate at: %a@," (pp_stmt b) lcp
   | None -> ());
  Fmt.pf ppf "@[<v2>witness:@,%a@]@]"
    (Fmt.list ~sep:Fmt.cut (pp_stmt b))
    ir.ir_representative.Flows.fl_path

(** One issue as an entry of [taj analyze --json]'s [issues]: the
    statements as {!pp_stmt} prints them, [null] where the text report
    prints nothing. *)
let issue_json (b : Sdg.Builder.t) (ir : issue_report) =
  let stmt s = Json.Str (Fmt.str "%a" (pp_stmt b) s) in
  let or_null f = function Some v -> f v | None -> Json.Null in
  let classed name fields = Json.Obj (("class", Json.Str name) :: fields) in
  Json.Obj
    [ ("issue", Json.Str (Rules.issue_name ir.ir_issue));
      ("flows", Json.int ir.ir_flow_count);
      ("sink", stmt ir.ir_representative.Flows.fl_sink);
      ("verdict",
       or_null
         (fun v ->
            classed (Sdg.Refine.verdict_name v)
              (match v with
               | Sdg.Refine.Confirmed -> []
               | Sdg.Refine.Plausible r ->
                 [ ("reason", Json.Str (Sdg.Refine.reason_name r)) ]))
         ir.ir_verdict);
      ("sanitization",
       or_null
         (fun v ->
            classed (Strings.Context.verdict_name v)
              ((match v with
                | Strings.Context.Mismatched_sanitizer { applied; required } ->
                  [ ("applied",
                     Json.Arr (List.map (fun id -> Json.Str id) applied));
                    ("required", Json.Str (Strings.Context.name required)) ]
                | Strings.Context.Sanitized | Strings.Context.Unsanitized -> [])
               @ [ ("template",
                    or_null
                      (fun t -> Json.Str (Fmt.str "%a" Strings.Template.pp t))
                      ir.ir_template) ]))
         ir.ir_sanitization);
      ("remediation", or_null stmt ir.ir_lcp);
      ("witness",
       Json.Arr (List.map stmt ir.ir_representative.Flows.fl_path)) ]

(** The (mismatched-sanitizer, unsanitized) counts read back from a
    rendering's first line, the header {!pp} writes; [None] when the
    header carries none. A stored rendering then answers what
    {!sanitization_counts} answers for the live report. *)
let read_sanitization_counts rendered =
  let eol =
    Option.value (String.index_opt rendered '\n')
      ~default:(String.length rendered)
  in
  match String.rindex_from_opt rendered (eol - 1) '(' with
  | None -> None
  | Some i ->
    (match
       String.split_on_char ' ' (String.sub rendered (i + 1) (eol - i - 1))
     with
     | [ m; "mismatched-sanitizer,"; u; "unsanitized)" ] ->
       (match int_of_string_opt m, int_of_string_opt u with
        | Some m, Some u -> Some (m, u)
        | _ -> None)
     | _ -> None)

let pp (b : Sdg.Builder.t) ppf (t : t) =
  Fmt.pf ppf "@[<v>%d issue(s) from %d flow(s)%a%a@,%a@]"
    (issue_count t) (flow_count t)
    (fun ppf -> function
       | None -> ()
       | Some (c, p) -> Fmt.pf ppf " (%d confirmed, %d plausible)" c p)
    (verdict_counts t)
    (fun ppf -> function
       | None -> ()
       | Some (m, u) ->
         Fmt.pf ppf " (%d mismatched-sanitizer, %d unsanitized)" m u)
    (sanitization_counts t)
    (Fmt.list ~sep:Fmt.cut (pp_issue_report b))
    t.issues;
  match t.completeness with
  | Complete -> ()
  | Partial ds ->
    Fmt.pf ppf "@,@[<v2>PARTIAL RESULT — %d degradation(s):@,%a@]"
      (List.length ds)
      (Fmt.list ~sep:Fmt.cut Diagnostics.pp_degradation)
      ds
  | Type_only ds ->
    Fmt.pf ppf
      "@,@[<v2>TYPE_ONLY RESULT — type-qualifier triage, no flow paths        (%d degradation(s)):@,%a@]"
      (List.length ds)
      (Fmt.list ~sep:Fmt.cut Diagnostics.pp_degradation)
      ds
