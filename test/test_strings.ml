(* End-to-end tests for the context-sensitive sanitization analysis:
   record-and-judge verdicts, the overriding-subclass regression across
   tabulation / refinement / triage, and that switching the judge on
   loses no issue. *)

open Core

let load srcs =
  Taj.load { Taj.name = "strings-test"; app_sources = srcs; descriptor = "" }

let analyze ?(contexts = false) ?(refine = false) srcs =
  let config =
    { (Config.preset Config.Hybrid_unbounded) with Config.contexts; refine }
  in
  Taj.run (load srcs) config

let completed a =
  match a.Taj.result with
  | Taj.Completed c -> c
  | Taj.Did_not_complete reason -> Alcotest.failf "did not complete: %s" reason

let issues_of ?contexts ?refine srcs =
  (completed (analyze ?contexts ?refine srcs)).Taj.report.Report.issues

let count_issues issue reports =
  List.length (List.filter (fun ir -> ir.Report.ir_issue = issue) reports)

(* ------------------------------------------------------------------ *)
(* Record-and-judge verdicts                                           *)
(* ------------------------------------------------------------------ *)

(* An HTML-entity encoder guarding a quoted SQL position: useless against
   SQLi, so the judge must flag the applied/required mismatch. *)
let html_encoder_on_sql =
  {|class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        String name = Sanitizer.encodeHtml(req.getParameter("name"));
        String q = "SELECT v FROM users WHERE name='" + name + "'";
        Connection c = DriverManager.getConnection("jdbc:app");
        Statement st = c.createStatement();
        st.executeQuery(q);
      }
    }|}

let test_mismatched_verdict () =
  let issues = issues_of ~contexts:true [ html_encoder_on_sql ] in
  Alcotest.(check int) "sqli reported despite sanitizer" 1
    (count_issues Rules.Sqli issues);
  let ir = List.find (fun ir -> ir.Report.ir_issue = Rules.Sqli) issues in
  match ir.Report.ir_sanitization with
  | Some (Strings.Context.Mismatched_sanitizer { applied; required }) ->
    Alcotest.(check bool) "encodeHtml is the applied sanitizer" true
      (List.mem "Sanitizer.encodeHtml/1" applied);
    Alcotest.(check string) "required context is sql-quoted" "sql-quoted"
      (Strings.Context.name required)
  | other ->
    Alcotest.failf "expected a mismatched-sanitizer verdict, got %s"
      (match other with
       | None -> "no verdict"
       | Some v -> Strings.Context.verdict_name v)

let test_contexts_off_no_verdict () =
  let issues = issues_of ~contexts:false [ html_encoder_on_sql ] in
  Alcotest.(check int) "same issue reported with contexts off" 1
    (count_issues Rules.Sqli issues);
  List.iter
    (fun ir ->
       Alcotest.(check bool) "no sanitization verdict attached" true
         (ir.Report.ir_sanitization = None))
    issues

(* The right sanitizer in the right context: the judge must drop the
   flow exactly like the classic kill does. *)
let matched_sanitizer =
  {|class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        String name = Sanitizer.escapeSql(req.getParameter("name"));
        String q = "SELECT v FROM users WHERE name='" + name + "'";
        Connection c = DriverManager.getConnection("jdbc:app");
        Statement st = c.createStatement();
        st.executeQuery(q);
      }
    }|}

let test_matched_sanitizer_dropped () =
  Alcotest.(check int) "judge drops the sanitized flow" 0
    (count_issues Rules.Sqli (issues_of ~contexts:true [ matched_sanitizer ]));
  Alcotest.(check int) "classic kill agrees" 0
    (count_issues Rules.Sqli (issues_of ~contexts:false [ matched_sanitizer ]))

let test_unsanitized_verdict () =
  let issues =
    issues_of ~contexts:true
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("name"));
            }
          }|} ]
  in
  Alcotest.(check int) "one xss" 1 (count_issues Rules.Xss issues);
  let ir = List.find (fun ir -> ir.Report.ir_issue = Rules.Xss) issues in
  Alcotest.(check bool) "verdict is unsanitized" true
    (ir.Report.ir_sanitization = Some Strings.Context.Unsanitized)

(* ------------------------------------------------------------------ *)
(* Overriding-subclass regression (satellite of the matcher unification) *)
(* ------------------------------------------------------------------ *)

let override_app =
  [ {|class OverrideSan extends Sanitizer {
        public static String encodeHtml(String s) { return s; }
      }|};
    {|class Page extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          String name = OverrideSan.encodeHtml(req.getParameter("name"));
          resp.getWriter().println(name);
        }
      }|} ]

let inherit_app =
  [ "class InheritSan extends Sanitizer { }";
    {|class Page extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          String name = InheritSan.encodeHtml(req.getParameter("name"));
          resp.getWriter().println(name);
        }
      }|} ]

let test_override_tabulation () =
  Alcotest.(check int) "override is not a sanitizer" 1
    (count_issues Rules.Xss (issues_of override_app));
  Alcotest.(check int) "inherited sanitizer still kills" 0
    (count_issues Rules.Xss (issues_of inherit_app))

let test_override_refine () =
  Alcotest.(check int) "refinement keeps the override flow" 1
    (count_issues Rules.Xss (issues_of ~refine:true override_app));
  Alcotest.(check int) "refinement keeps the inherited kill" 0
    (count_issues Rules.Xss (issues_of ~refine:true inherit_app))

let test_override_judge () =
  (* With contexts on the override flow must survive the judge as plain
     Unsanitized: OverrideSan.encodeHtml resolves to the subclass's own
     body, so it is not an applied sanitizer. *)
  let issues = issues_of ~contexts:true override_app in
  Alcotest.(check int) "judge keeps the override flow" 1
    (count_issues Rules.Xss issues);
  let ir = List.find (fun ir -> ir.Report.ir_issue = Rules.Xss) issues in
  Alcotest.(check bool) "override is not recorded as applied" true
    (ir.Report.ir_sanitization = Some Strings.Context.Unsanitized);
  Alcotest.(check int) "judge keeps the inherited kill" 0
    (count_issues Rules.Xss (issues_of ~contexts:true inherit_app))

let test_override_triage () =
  (* The type-qualifier triage consults the same canonical matcher: the
     overridden sanitizer must not endorse, so the flow stays a finding. *)
  let verdict =
    Taj.triage ~rules:Rules.default_rules (load override_app)
  in
  let findings = Triage.findings verdict in
  Alcotest.(check bool) "triage keeps a finding in Page" true
    (List.exists
       (fun (f : Triage.finding) -> String.equal f.Triage.f_class "Page")
       findings)

(* ------------------------------------------------------------------ *)
(* Contexts on versus off                                            *)
(* ------------------------------------------------------------------ *)

let multi_app =
  [ html_encoder_on_sql;
    {|class Other extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          resp.getWriter().println(req.getParameter("q"));
        }
      }|} ]

let test_contexts_on_loses_no_issue () =
  let off = issues_of ~contexts:false multi_app in
  let on = issues_of ~contexts:true multi_app in
  Alcotest.(check int) "same xss count" (count_issues Rules.Xss off)
    (count_issues Rules.Xss on);
  Alcotest.(check int) "same sqli count" (count_issues Rules.Sqli off)
    (count_issues Rules.Sqli on)

let suite =
  [ Alcotest.test_case "mismatched verdict" `Quick test_mismatched_verdict;
    Alcotest.test_case "contexts off: no verdict" `Quick
      test_contexts_off_no_verdict;
    Alcotest.test_case "matched sanitizer dropped" `Quick
      test_matched_sanitizer_dropped;
    Alcotest.test_case "unsanitized verdict" `Quick test_unsanitized_verdict;
    Alcotest.test_case "override: tabulation" `Quick test_override_tabulation;
    Alcotest.test_case "override: refinement" `Quick test_override_refine;
    Alcotest.test_case "override: judge" `Quick test_override_judge;
    Alcotest.test_case "override: triage" `Quick test_override_triage;
    Alcotest.test_case "contexts on loses no issue" `Quick
      test_contexts_on_loses_no_issue ]
