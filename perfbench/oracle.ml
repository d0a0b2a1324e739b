(** Answer checks. Every op's answer is judged here; a rejected answer,
    an op that did not complete, degraded, was rejected or raised counts
    as a failed op. *)

open Core
module Gt = Workloads.Ground_truth

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;       (* newest first, capped *)
}

let tally () = { attempted = 0; failed = 0; errors = [] }

(** Count one op with its verdict. *)
let record t ~what (r : (unit, string) result) =
  t.attempted <- t.attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
    t.failed <- t.failed + 1;
    if List.length t.errors < 5 then t.errors <- (what ^ ": " ^ e) :: t.errors

let ( let* ) = Result.bind

(** Planted mismatched-sanitizer patterns: (expected, reported with
    exactly the expected (applied sanitizer, required context) pair). *)
let mismatch_pairs (truth : Gt.t) builder (report : Report.t) =
  let expected =
    List.filter (fun (p : Gt.planted) -> p.Gt.p_expect <> None) truth
  in
  let reported (p : Gt.planted) =
    List.exists
      (fun (ir : Report.issue_report) ->
         let sink = ir.Report.ir_representative.Flows.fl_sink in
         let m = Sdg.Builder.node_meth builder sink.Sdg.Stmt.node in
         String.equal m.Jir.Tac.m_class p.Gt.p_class
         && String.equal m.Jir.Tac.m_name p.Gt.p_sink_method
         &&
         match ir.Report.ir_sanitization, p.Gt.p_expect with
         | ( Some (Strings.Context.Mismatched_sanitizer { applied; required }),
             Some (exp_applied, exp_required) ) ->
           List.mem exp_applied applied
           && String.equal (Strings.Context.name required) exp_required
         | _ -> false)
      report.Report.issues
  in
  (List.length expected, List.length (List.filter reported expected))

(** A report against the generator's ground truth: no planted real flow
    missing and, with the sanitization judge on, every planted mismatch
    reported with its expected pair. *)
let check_report ~contexts (truth : Gt.t) builder (report : Report.t) =
  let c = Workloads.Score.classify truth builder report in
  if c.Workloads.Score.false_negatives > 0 then
    Error
      (Printf.sprintf "%d planted real flow(s) not reported"
         c.Workloads.Score.false_negatives)
  else if not contexts then Ok ()
  else
    let expected, matched = mismatch_pairs truth builder report in
    if matched < expected then
      Error
        (Printf.sprintf "%d of %d planted mismatch pairs reported" matched
           expected)
    else Ok ()

(** The completed, undegraded analysis of a supervised run. *)
let completed (o : Supervisor.outcome) =
  match o.Supervisor.sv_triage, o.Supervisor.sv_analysis with
  | Some _, _ -> Error "answered by the triage rung"
  | None, Some { Taj.result = Taj.Completed c; _ } ->
    if o.Supervisor.sv_diagnostics <> [] || Report.is_partial c.Taj.report
    then Error "degraded"
    else Ok c
  | None, Some { Taj.result = Taj.Did_not_complete why; _ } ->
    Error ("did not complete: " ^ why)
  | None, None -> Error "frontend failed"

(** One batch op: a supervised run judged against ground truth. *)
let check_batch ~contexts truth (o : Supervisor.outcome) =
  let* c = completed o in
  check_report ~contexts truth c.Taj.builder c.Taj.report

(** One serve response against the uncached reference issue count. *)
let check_response ~status ~issues ~reference =
  if status <> "completed" then Error ("status " ^ status)
  else if issues <> reference then
    Error
      (Printf.sprintf "%d issues where an uncached run reports %d" issues
         reference)
  else Ok ()

(** A traced op's rendered report against the untraced path's. *)
let check_identical ~untraced ~traced =
  if String.equal untraced traced then Ok ()
  else Error "traced report differs from the untraced path's"

(** Deterministic counts of two runs of the same op. *)
let check_counts (a : (string * float) list) (b : (string * float) list) =
  match
    List.find_opt
      (fun (name, v) -> List.assoc_opt name b <> Some v)
      a
  with
  | None when List.length a = List.length b -> Ok ()
  | None -> Error "count sets differ"
  | Some (name, v) ->
    Error
      (Printf.sprintf "%s was %g, then %g" name v
         (Option.value ~default:nan (List.assoc_opt name b)))
