(* The oracle's own test: a wrong answer must count as a failed op. *)

open Core
open Perfbench

let app name =
  match Workloads.Apps.find name with
  | Some a ->
    Inputs.of_generated name (Workloads.Apps.generate ~scale:Inputs.scale a)
  | None -> invalid_arg name

let completed o =
  match Oracle.completed o with
  | Ok c -> c
  | Error e -> Alcotest.failf "reference run: %s" e

(* the outcome with its report replaced *)
let with_report (o : Supervisor.outcome) report =
  match o.Supervisor.sv_analysis with
  | Some ({ Taj.result = Taj.Completed c; _ } as a) ->
    { o with
      Supervisor.sv_analysis =
        Some { a with Taj.result = Taj.Completed { c with Taj.report } } }
  | _ -> Alcotest.fail "not completed"

let is_error = function Ok () -> false | Error _ -> true

let tally_of verdicts =
  let t = Oracle.tally () in
  List.iter (Oracle.record t ~what:"op") verdicts;
  (t.Oracle.attempted, t.Oracle.failed)

let missing_flow_fails () =
  let a = app "BlueBlog" in
  let o = Batch.op Batch.table2_batch a in
  let right = Oracle.check_batch ~contexts:false a.Inputs.a_truth o in
  let report = (completed o).Taj.report in
  let wrong =
    Oracle.check_batch ~contexts:false a.Inputs.a_truth
      (with_report o { report with Report.issues = [] })
  in
  Alcotest.(check bool) "right answer accepted" false (is_error right);
  Alcotest.(check (pair int int)) "one of two failed" (2, 1)
    (tally_of [ right; wrong ])

let degraded_fails () =
  let a = app "BlueBlog" in
  let o = Batch.op Batch.table2_batch a in
  let event =
    Diagnostics.Unit_skipped { index = 0; error = "injected" }
  in
  Alcotest.(check bool) "degraded run rejected" true
    (is_error
       (Oracle.check_batch ~contexts:false a.Inputs.a_truth
          { o with Supervisor.sv_diagnostics = [ event ] }))

let wrong_mismatch_pair_fails () =
  let a = (Inputs.dense ~seed:3 ~count:1).(0) in
  let o = Batch.op Batch.dense_refine a in
  let report = (completed o).Taj.report in
  let unjudged =
    List.map
      (fun (ir : Report.issue_report) -> { ir with Report.ir_sanitization = None })
      report.Report.issues
  in
  Alcotest.(check bool) "right answer accepted" false
    (is_error (Oracle.check_batch ~contexts:true a.Inputs.a_truth o));
  Alcotest.(check bool) "lost sanitization verdicts rejected" true
    (is_error
       (Oracle.check_batch ~contexts:true a.Inputs.a_truth
          (with_report o { report with Report.issues = unjudged })))

let serve_and_trace_checks () =
  let bad =
    [ Oracle.check_response ~status:"completed" ~issues:4 ~reference:5;
      Oracle.check_response ~status:"degraded" ~issues:5 ~reference:5;
      Oracle.check_identical ~untraced:"a\n" ~traced:"a \n";
      Oracle.check_counts [ ("x", 1.) ] [ ("x", 2.) ] ]
  in
  let good = Oracle.check_response ~status:"completed" ~issues:5 ~reference:5 in
  Alcotest.(check (pair int int)) "every wrong answer failed" (5, 4)
    (tally_of (good :: bad))

let () =
  Alcotest.run "perfbench"
    [ ( "oracle",
        [ Alcotest.test_case "missing planted flow fails" `Quick
            missing_flow_fails;
          Alcotest.test_case "degraded run fails" `Quick degraded_fails;
          Alcotest.test_case "lost mismatch pair fails" `Quick
            wrong_mismatch_pair_fails;
          Alcotest.test_case "serve and trace checks" `Quick
            serve_and_trace_checks ] ) ]
