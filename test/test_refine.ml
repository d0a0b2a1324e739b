(* Tests for the access-path flow-refinement pass: replay units, the
   heap-merge demotion that motivates it, k-limit widening and budget
   demotion. *)

open Core

(* ------------------------------------------------------------------ *)
(* Access-path domain units                                           *)
(* ------------------------------------------------------------------ *)

let f name = { Pointer.Keys.fclass = "C"; fname = name }

let test_access_path_push () =
  let open Sdg.Access_path in
  Alcotest.(check bool) "empty is empty" true (is_empty empty);
  (match push ~k:2 (f "a") empty with
   | None -> Alcotest.fail "push within k returned None"
   | Some p ->
     Alcotest.(check int) "length 1" 1 (length p);
     (match push ~k:2 (f "b") p with
      | None -> Alcotest.fail "push at k returned None"
      | Some p2 ->
        Alcotest.(check int) "length 2" 2 (length p2);
        (* the k-limit: a third push must overflow *)
        Alcotest.(check bool) "overflow at k" true
          (push ~k:2 (f "c") p2 = None)))

let test_access_path_project () =
  let open Sdg.Access_path in
  let p =
    match push ~k:3 (f "v") empty with
    | Some p -> (match push ~k:3 (f "a") p with
        | Some p -> p
        | None -> Alcotest.fail "push")
    | None -> Alcotest.fail "push"
  in
  (* outermost-first: head is the last-pushed (outer) field *)
  (match head p with
   | Some h -> Alcotest.(check string) "head" "a" h.Pointer.Keys.fname
   | None -> Alcotest.fail "no head");
  (match project (f "a") p with
   | Some rest ->
     Alcotest.(check int) "projected length" 1 (length rest);
     (match head rest with
      | Some h -> Alcotest.(check string) "inner" "v" h.Pointer.Keys.fname
      | None -> Alcotest.fail "no inner head")
   | None -> Alcotest.fail "project on matching field failed");
  Alcotest.(check bool) "project mismatch" true (project (f "x") p = None);
  Alcotest.(check string) "pp empty" "\xce\xb5"
    (Fmt.str "%a" pp empty)

(* ------------------------------------------------------------------ *)
(* Pipeline helpers                                                   *)
(* ------------------------------------------------------------------ *)

let analyze ?(refine = true) ?(refine_k = 3) ?(refine_steps = 4096) srcs =
  let loaded =
    Taj.load { Taj.name = "refine"; app_sources = srcs; descriptor = "" }
  in
  let config =
    { (Config.preset Config.Hybrid_unbounded) with
      Config.refine; refine_k; refine_steps }
  in
  match (Taj.run loaded config).Taj.result with
  | Taj.Completed c -> c
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r

let verdict_of (c : Taj.completed) (ir : Report.issue_report) =
  ignore c;
  ir.Report.ir_verdict

let sink_method (c : Taj.completed) (ir : Report.issue_report) =
  let stmt = ir.Report.ir_representative.Flows.fl_sink in
  (Sdg.Builder.node_meth c.Taj.builder stmt.Sdg.Stmt.node).Jir.Tac.m_name

let is_confirmed = function Some Sdg.Refine.Confirmed -> true | _ -> false

let is_plausible = function
  | Some (Sdg.Refine.Plausible _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Replay verdicts                                                    *)
(* ------------------------------------------------------------------ *)

let test_direct_flow_confirmed () =
  let c =
    analyze
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("x"));
            }
          }|} ]
  in
  match c.Taj.report.Report.issues with
  | [ ir ] ->
    Alcotest.(check bool) "direct flow is Confirmed" true
      (is_confirmed (verdict_of c ir))
  | irs -> Alcotest.failf "expected 1 issue, got %d" (List.length irs)

(* The paper's motivating false positive: two Box allocations share one
   allocation site through a factory, so the flow-insensitive heap model
   merges them and reports the untainted read too. Replay through access
   paths keeps the real flow (Confirmed) and demotes the fake (Plausible),
   so the Confirmed subset has strictly fewer FPs than the full report. *)
let heap_merge_src =
  {|class Box1 {
      String v;
    }
    class BoxMaker1 {
      static Box1 make(String s) {
        Box1 b = new Box1();
        b.v = s;
        return b;
      }
    }
    class HM extends HttpServlet {
      void emitR(PrintWriter w, String x) { w.println(x); }
      void emitF(PrintWriter w, String x) { w.println(x); }
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        PrintWriter w = resp.getWriter();
        Box1 a = BoxMaker1.make(req.getParameter("h1"));
        Box1 b = BoxMaker1.make("fixed");
        this.emitR(w, a.v);
        this.emitF(w, b.v);
      }
    }|}

let test_heap_merge_demoted () =
  let c = analyze [ heap_merge_src ] in
  let issues = c.Taj.report.Report.issues in
  Alcotest.(check int) "both flows still reported" 2 (List.length issues);
  let find name =
    match List.find_opt (fun ir -> sink_method c ir = name) issues with
    | Some ir -> ir
    | None -> Alcotest.failf "no issue with sink in %s" name
  in
  Alcotest.(check bool) "real flow Confirmed" true
    (is_confirmed (verdict_of c (find "emitR")));
  Alcotest.(check bool) "merged FP demoted to Plausible" true
    (is_plausible (verdict_of c (find "emitF")))

let test_demote_never_drop () =
  (* same source, refinement off vs on: identical issue count *)
  let off = analyze ~refine:false [ heap_merge_src ] in
  let on = analyze [ heap_merge_src ] in
  Alcotest.(check int) "no issue lost to refinement"
    (Report.issue_count off.Taj.report)
    (Report.issue_count on.Taj.report)

let test_carrier_flow_confirmed () =
  (* taint travels through a collection: the sink receives the carrier,
     and the replay confirms via the carrier-store witness *)
  let c =
    analyze
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              Vector v = new Vector();
              v.add(req.getParameter("x"));
              String s = (String) v.get(0);
              resp.getWriter().println(s);
            }
          }|} ]
  in
  match c.Taj.report.Report.issues with
  | [] -> Alcotest.fail "no issues"
  | irs ->
    Alcotest.(check bool) "container flow Confirmed" true
      (List.exists (fun ir -> is_confirmed (verdict_of c ir)) irs)

(* ------------------------------------------------------------------ *)
(* k-limit widening and budgets                                       *)
(* ------------------------------------------------------------------ *)

let deep_src =
  {|class N1 { String v; }
    class N2 { N1 a; }
    class N3 { N2 b; }
    class N4 { N3 c; }
    class Deep extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        N1 n1 = new N1();
        N2 n2 = new N2();
        N3 n3 = new N3();
        N4 n4 = new N4();
        n1.v = req.getParameter("x");
        n2.a = n1;
        n3.b = n2;
        n4.c = n3;
        N3 c3 = n4.c;
        N2 c2 = c3.b;
        N1 c1 = c2.a;
        resp.getWriter().println(c1.v);
      }
    }|}

let test_k_limit_widening () =
  (* the chain needs 4 access-path fields; k=2 must widen (Plausible),
     k=8 replays it exactly (Confirmed) — either way the issue is kept *)
  let small = analyze ~refine_k:2 [ deep_src ] in
  let large = analyze ~refine_k:8 [ deep_src ] in
  (match small.Taj.report.Report.issues with
   | [ ir ] ->
     Alcotest.(check bool) "k=2 demotes" true
       (is_plausible (verdict_of small ir))
   | irs -> Alcotest.failf "k=2: expected 1 issue, got %d" (List.length irs));
  (match large.Taj.report.Report.issues with
   | [ ir ] ->
     Alcotest.(check bool) "k=8 confirms" true
       (is_confirmed (verdict_of large ir))
   | irs -> Alcotest.failf "k=8: expected 1 issue, got %d" (List.length irs));
  match small.Taj.outcome.Engine.refined with
  | Some rf ->
    Alcotest.(check bool) "widening counted" true (rf.Engine.rf_widened > 0)
  | None -> Alcotest.fail "refine summary missing"

let test_budget_exhaustion_demotes () =
  (* a one-step budget cannot reach any sink: every flow must come back
     Plausible, and none may be dropped *)
  let c = analyze ~refine_steps:1 [ heap_merge_src ] in
  let issues = c.Taj.report.Report.issues in
  Alcotest.(check int) "issues kept under exhaustion" 2 (List.length issues);
  List.iter
    (fun ir ->
       Alcotest.(check bool) "exhausted replay demotes" true
         (is_plausible (verdict_of c ir)))
    issues;
  match c.Taj.outcome.Engine.refined with
  | Some rf ->
    Alcotest.(check int) "nothing confirmed" 0 rf.Engine.rf_confirmed;
    Alcotest.(check bool) "budget trips recorded" true
      (rf.Engine.rf_budget > 0)
  | None -> Alcotest.fail "refine summary missing"

let suite =
  [ Alcotest.test_case "access-path push/k-limit" `Quick
      test_access_path_push;
    Alcotest.test_case "access-path project" `Quick test_access_path_project;
    Alcotest.test_case "direct flow confirmed" `Quick
      test_direct_flow_confirmed;
    Alcotest.test_case "heap-merge FP demoted" `Quick test_heap_merge_demoted;
    Alcotest.test_case "demote never drop" `Quick test_demote_never_drop;
    Alcotest.test_case "carrier flow confirmed" `Quick
      test_carrier_flow_confirmed;
    Alcotest.test_case "k-limit widening" `Quick test_k_limit_widening;
    Alcotest.test_case "budget exhaustion demotes" `Quick
      test_budget_exhaustion_demotes ]
