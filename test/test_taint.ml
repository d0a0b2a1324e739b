(* End-to-end taint analysis tests over small MJava programs, covering each
   code-modeling feature of the paper: direct flows, sanitizers, taint
   carriers, container flows with constant keys, reflection, exceptions-as-
   sources, Struts forms, EJB dispatch. *)

open Core

let analyze ?(algorithm = Config.Hybrid_unbounded) ?(descriptor = "") srcs =
  Taj.run
    (Taj.load { Taj.name = "test"; app_sources = srcs; descriptor })
    (Config.preset algorithm)

let completed a =
  match a.Taj.result with
  | Taj.Completed c -> c
  | Taj.Did_not_complete reason -> Alcotest.failf "did not complete: %s" reason

let issues_of ?algorithm ?descriptor srcs =
  let c = completed (analyze ?algorithm ?descriptor srcs) in
  c.Taj.report.Report.issues

let count_issues issue reports =
  List.length (List.filter (fun ir -> ir.Report.ir_issue = issue) reports)

(* ------------------------------------------------------------------ *)

let direct_xss =
  {|class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        String name = req.getParameter("name");
        PrintWriter w = resp.getWriter();
        w.println(name);
      }
    }|}

let test_direct_xss () =
  let issues = issues_of [ direct_xss ] in
  Alcotest.(check int) "one xss" 1 (count_issues Rules.Xss issues)

let test_sanitized_flow () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String name = req.getParameter("name");
              PrintWriter w = resp.getWriter();
              w.println(URLEncoder.encode(name));
            }
          }|} ]
  in
  Alcotest.(check int) "no xss" 0 (count_issues Rules.Xss issues)

let test_untainted_flow () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              PrintWriter w = resp.getWriter();
              w.println("static content");
            }
          }|} ]
  in
  Alcotest.(check int) "no issues at all" 0 (List.length issues)

let test_flow_through_strcat () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String name = req.getParameter("name");
              String greeting = "hello, " + name + "!";
              resp.getWriter().println(greeting);
            }
          }|} ]
  in
  Alcotest.(check int) "xss through concat" 1 (count_issues Rules.Xss issues)

let test_flow_through_helper_method () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            String decorate(String s) { return "[" + s + "]"; }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String name = req.getParameter("name");
              resp.getWriter().println(this.decorate(name));
            }
          }|} ]
  in
  Alcotest.(check int) "xss through helper" 1 (count_issues Rules.Xss issues)

let test_sqli () =
  let issues =
    issues_of
      [ {|class Login extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String user = req.getParameter("user");
              Connection conn = DriverManager.getConnection("jdbc:db");
              Statement st = conn.createStatement();
              st.executeQuery("SELECT * FROM users WHERE name='" + user + "'");
            }
          }|} ]
  in
  Alcotest.(check int) "one sqli" 1 (count_issues Rules.Sqli issues)

let test_sqli_escaped () =
  let issues =
    issues_of
      [ {|class Login extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String user = Sanitizer.escapeSql(req.getParameter("user"));
              Connection conn = DriverManager.getConnection("jdbc:db");
              Statement st = conn.createStatement();
              st.executeQuery("SELECT * FROM users WHERE name='" + user + "'");
            }
          }|} ]
  in
  Alcotest.(check int) "sql escaped" 0 (count_issues Rules.Sqli issues)

(* taint carrier: tainted data inside an object passed to a sink (§4.1.1) *)
let test_taint_carrier () =
  let issues =
    issues_of
      [ {|class Wrapper {
            String s;
            public Wrapper(String s) { this.s = s; }
            public String toString() { return this.s; }
          }
          class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              Wrapper w = new Wrapper(req.getParameter("name"));
              resp.getWriter().println(w);
            }
          }|} ]
  in
  Alcotest.(check bool) "carrier flagged" true
    (count_issues Rules.Xss issues >= 1)

let test_container_flow () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              ArrayList l = new ArrayList();
              l.add(req.getParameter("name"));
              String s = (String) l.get(0);
              resp.getWriter().println(s);
            }
          }|} ]
  in
  Alcotest.(check int) "xss through list" 1 (count_issues Rules.Xss issues)

(* constant-key dictionary precision (§4.2.1): o1 must not flow to o2 *)
let test_dict_constant_keys_precise () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              HashMap m = new HashMap();
              m.put("tainted", req.getParameter("name"));
              m.put("clean", "safe");
              String s = (String) m.get("clean");
              resp.getWriter().println(s);
            }
          }|} ]
  in
  Alcotest.(check int) "no xss via distinct constant key" 0
    (count_issues Rules.Xss issues)

let test_dict_constant_keys_flow () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              HashMap m = new HashMap();
              m.put("tainted", req.getParameter("name"));
              String s = (String) m.get("tainted");
              resp.getWriter().println(s);
            }
          }|} ]
  in
  Alcotest.(check int) "xss via same constant key" 1
    (count_issues Rules.Xss issues)

(* each method reads its own constants: a put under "a" in one method
   and a get under "b" in another of the same class do not meet. The
   triage filter is off, so the pointer analysis and the SDG builder
   alone must keep the keys apart. *)
let test_dict_constant_keys_per_method () =
  let loaded =
    Taj.load
      { Taj.name = "test";
        descriptor = "";
        app_sources =
      [ {|class Page extends HttpServlet {
            void stash(HashMap m, String v) { m.put("a", v); }
            String fetch(HashMap m) { return (String) m.get("b"); }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              HashMap m = new HashMap();
              this.stash(m, req.getParameter("name"));
              resp.getWriter().println(this.fetch(m));
            }
          }|} ] }
  in
  let config =
    { (Config.preset Config.Hybrid_unbounded) with Config.triage_filter = false }
  in
  let c = completed (Taj.run loaded config) in
  Alcotest.(check int) "no xss across distinct keys in two methods" 0
    (count_issues Rules.Xss c.Taj.report.Report.issues)

let test_dict_unknown_key_conservative () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              HashMap m = new HashMap();
              m.put("tainted", req.getParameter("name"));
              String k = req.getQueryString();
              String s = (String) m.get(k);
              resp.getWriter().println(s);
            }
          }|} ]
  in
  Alcotest.(check bool) "unknown key sees constant puts" true
    (count_issues Rules.Xss issues >= 1)

(* exceptions as information-leak sources (§4.1.2) *)
let test_exception_leak () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            void risky() { throw new Exception("internal state"); }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              try { this.risky(); }
              catch (Exception e) {
                resp.getWriter().println(e);
              }
            }
          }|} ]
  in
  Alcotest.(check bool) "info leak" true
    (count_issues Rules.Info_leak issues >= 1)

let test_info_leak_via_getmessage () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            void risky() { throw new Exception("internal state"); }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              try { this.risky(); }
              catch (Exception e) {
                resp.getWriter().println(e.getMessage());
              }
            }
          }|} ]
  in
  Alcotest.(check bool) "getMessage leak" true
    (count_issues Rules.Info_leak issues >= 1)

let test_command_injection () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String cmd = req.getParameter("cmd");
              Runtime.getRuntime().exec(cmd);
            }
          }|} ]
  in
  Alcotest.(check int) "cmd injection" 1
    (count_issues Rules.Command_injection issues)

let test_malicious_file () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String path = req.getParameter("path");
              FileInputStream in = new FileInputStream(path);
            }
          }|} ]
  in
  Alcotest.(check int) "malicious file" 1
    (count_issues Rules.Malicious_file issues)

let test_nested_containers () =
  (* a list stored inside a map: two layers of container modeling *)
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              ArrayList l = new ArrayList();
              l.add(req.getParameter("x"));
              HashMap m = new HashMap();
              m.put("items", l);
              ArrayList back = (ArrayList) m.get("items");
              resp.getWriter().println((String) back.get(0));
            }
          }|} ]
  in
  Alcotest.(check int) "taint through nested containers" 1
    (count_issues Rules.Xss issues)

let test_parameter_values_array () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String[] vs = req.getParameterValues("x");
              resp.getWriter().println(vs[0]);
            }
          }|} ]
  in
  Alcotest.(check bool) "array-returning source" true
    (count_issues Rules.Xss issues >= 1)

let test_sanitize_after_sink_is_too_late () =
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String x = req.getParameter("x");
              PrintWriter w = resp.getWriter();
              w.println(x);
              String clean = URLEncoder.encode(x);
              w.println(clean);
            }
          }|} ]
  in
  (* the first println is vulnerable; sanitizing afterwards doesn't help *)
  Alcotest.(check int) "early sink still flagged" 1
    (count_issues Rules.Xss issues)

let test_two_rules_one_flow () =
  (* the same tainted value reaches an XSS sink and a SQLi sink: one issue
     per rule, not merged across issue types *)
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String x = req.getParameter("x");
              resp.getWriter().println(x);
              Connection c = DriverManager.getConnection("jdbc:d");
              c.createStatement().executeQuery(x);
            }
          }|} ]
  in
  Alcotest.(check int) "xss" 1 (count_issues Rules.Xss issues);
  Alcotest.(check int) "sqli" 1 (count_issues Rules.Sqli issues)

let test_stringbuffer_shared_between_flows () =
  (* two appends into one buffer: the clean prefix doesn't mask the
     tainted suffix *)
  let issues =
    issues_of
      [ {|class Page extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              StringBuffer sb = new StringBuffer();
              sb.append("prefix");
              sb.append(req.getParameter("x"));
              resp.getWriter().println(sb.toString());
            }
          }|} ]
  in
  Alcotest.(check int) "buffer flow" 1 (count_issues Rules.Xss issues)

let suite =
  [ Alcotest.test_case "direct xss" `Quick test_direct_xss;
    Alcotest.test_case "nested containers" `Quick test_nested_containers;
    Alcotest.test_case "parameter values array" `Quick
      test_parameter_values_array;
    Alcotest.test_case "sanitize after sink" `Quick
      test_sanitize_after_sink_is_too_late;
    Alcotest.test_case "two rules one flow" `Quick test_two_rules_one_flow;
    Alcotest.test_case "stringbuffer shared" `Quick
      test_stringbuffer_shared_between_flows;
    Alcotest.test_case "sanitized flow" `Quick test_sanitized_flow;
    Alcotest.test_case "untainted flow" `Quick test_untainted_flow;
    Alcotest.test_case "flow through strcat" `Quick test_flow_through_strcat;
    Alcotest.test_case "flow through helper" `Quick test_flow_through_helper_method;
    Alcotest.test_case "sqli" `Quick test_sqli;
    Alcotest.test_case "sqli escaped" `Quick test_sqli_escaped;
    Alcotest.test_case "taint carrier" `Quick test_taint_carrier;
    Alcotest.test_case "container flow" `Quick test_container_flow;
    Alcotest.test_case "dict constant keys precise" `Quick test_dict_constant_keys_precise;
    Alcotest.test_case "dict constant keys flow" `Quick test_dict_constant_keys_flow;
    Alcotest.test_case "dict constant keys per method" `Quick
      test_dict_constant_keys_per_method;
    Alcotest.test_case "dict unknown key" `Quick test_dict_unknown_key_conservative;
    Alcotest.test_case "exception leak" `Quick test_exception_leak;
    Alcotest.test_case "getMessage leak" `Quick test_info_leak_via_getmessage;
    Alcotest.test_case "command injection" `Quick test_command_injection;
    Alcotest.test_case "malicious file" `Quick test_malicious_file ]
