(* Metamorphic properties of the whole analysis:
   - inserting a sanitizer on a flow never increases the issue count;
   - duplicating a servlet under a fresh name exactly doubles its issues;
   - adding unreachable code changes nothing;
   - permuting compilation units never changes which issues are reported;
   - DOT export is well-formed for arbitrary generated apps. *)

open Core

let issues_of srcs =
  let loaded =
    Taj.load { Taj.name = "meta"; app_sources = srcs; descriptor = "" }
  in
  match (Taj.run loaded (Config.preset Config.Hybrid_unbounded)).Taj.result with
  | Taj.Completed c -> Report.issue_count c.Taj.report
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r

(* a template servlet with a numbered name and a raw/sanitized slot *)
let servlet ~name ~sanitized =
  Printf.sprintf
    {|class %s extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          String x = req.getParameter("q");
          resp.getWriter().println(%s);
        }
      }|}
    name
    (if sanitized then "URLEncoder.encode(x)" else "x")

let test_sanitizer_monotone () =
  let raw = issues_of [ servlet ~name:"M1" ~sanitized:false ] in
  let clean = issues_of [ servlet ~name:"M1" ~sanitized:true ] in
  Alcotest.(check bool) "sanitizer never increases issues" true (clean <= raw);
  Alcotest.(check int) "raw flow found" 1 raw;
  Alcotest.(check int) "sanitized flow silent" 0 clean

let test_duplication_doubles () =
  let one = issues_of [ servlet ~name:"D1" ~sanitized:false ] in
  let two =
    issues_of
      [ servlet ~name:"D1" ~sanitized:false;
        servlet ~name:"D2" ~sanitized:false ]
  in
  Alcotest.(check int) "duplication doubles issues" (2 * one) two

let test_unreachable_code_is_inert () =
  let base = issues_of [ servlet ~name:"U1" ~sanitized:false ] in
  let with_dead =
    issues_of
      [ servlet ~name:"U1" ~sanitized:false;
        {|class NeverCalled {
            void leak(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("ghost"));
            }
          }|} ]
  in
  Alcotest.(check int) "dead code adds nothing" base with_dead

(* random sanitizer placement over a pool of servlets: count equals the
   number of unsanitized ones *)
let prop_counts_match_unsanitized =
  QCheck.Test.make ~name:"issue count equals unsanitized servlet count"
    ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) bool)
    (fun flags ->
       let srcs =
         List.mapi
           (fun i sanitized ->
              servlet ~name:(Printf.sprintf "Q%d" i) ~sanitized)
           flags
       in
       let expected =
         List.length (List.filter (fun sanitized -> not sanitized) flags)
       in
       issues_of srcs = expected)

(* Permuting compilation-unit order changes node ids and witness paths,
   but never which issues are reported. *)
let unit_cell = {|class Cell { String v; }|}

let unit_helper = {|class Helper { String pass(String s) { return s; } }|}

let unit_page =
  {|class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        Helper h = new Helper();
        c.v = h.pass(req.getParameter("x"));
        resp.getWriter().println(c.v);
        Connection conn = DriverManager.getConnection("jdbc:db");
        Statement st = conn.createStatement();
        String s = h.pass(c.v);
        st.executeQuery(s);
      }
    }|}

(* node-id-independent view of a completed run: sorted
   (issue, sink, group size) strings plus the totals.  Witness paths and
   LCPs are deliberately excluded — they may legitimately differ when
   unit order (hence worklist order) changes. *)
let canonical srcs =
  match
    (Taj.analyze { Taj.name = "meta"; app_sources = srcs; descriptor = "" })
      .Taj.result
  with
  | Taj.Did_not_complete reason -> Alcotest.failf "did not complete: %s" reason
  | Taj.Completed c ->
    let issues =
      List.map
        (fun (ir : Report.issue_report) ->
           Fmt.str "%s | sink %a | %d flow(s)"
             (Rules.issue_name ir.Report.ir_issue)
             (Report.pp_stmt c.Taj.builder)
             ir.Report.ir_representative.Flows.fl_sink
             ir.Report.ir_flow_count)
        c.Taj.report.Report.issues
    in
    (List.sort compare issues, Report.flow_count c.Taj.report)

let test_unit_permutation () =
  let base = canonical [ unit_cell; unit_helper; unit_page ] in
  Alcotest.(check bool) "fixture reports at least two issues" true
    (List.length (fst base) >= 2);
  List.iteri
    (fun i perm ->
       Alcotest.(check (pair (list string) int))
         (Printf.sprintf "permutation %d" i)
         base (canonical perm))
    [ [ unit_page; unit_cell; unit_helper ];
      [ unit_helper; unit_page; unit_cell ] ]

let test_dot_wellformed () =
  let g =
    Workloads.Apps.generate ~scale:0.02
      (Option.get (Workloads.Apps.find "Friki"))
  in
  let loaded = Taj.load (Workloads.Codegen.to_input g) in
  match (Taj.run loaded (Config.preset Config.Hybrid_unbounded)).Taj.result with
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
  | Taj.Completed c ->
    let cg_dot = Dot.callgraph c.Taj.andersen in
    let report_dot = Dot.report c.Taj.builder c.Taj.report in
    let balanced s =
      let opens = ref 0 and closes = ref 0 in
      String.iter
        (fun ch ->
           if ch = '{' then incr opens else if ch = '}' then incr closes)
        s;
      !opens = !closes
    in
    Alcotest.(check bool) "callgraph braces balanced" true (balanced cg_dot);
    Alcotest.(check bool) "report braces balanced" true (balanced report_dot);
    Alcotest.(check bool) "callgraph nonempty" true (String.length cg_dot > 100);
    (* no raw newlines inside quoted labels *)
    Alcotest.(check bool) "labels escaped" true
      (not
         (List.exists
            (fun line ->
               String.length line > 0
               && String.contains line '"'
               && (let quotes =
                     String.fold_left
                       (fun n ch -> if ch = '"' then n + 1 else n)
                       0 line
                   in
                   quotes mod 2 <> 0))
            (String.split_on_char '\n' cg_dot)))

(* total robustness: every random control-flow program analyzes under every
   configuration without raising *)
let prop_analysis_total =
  QCheck.Test.make ~name:"analysis is total on random programs" ~count:40
    Test_ssa.arb_program
    (fun src ->
       let wrapped =
         src
         ^ {| class Drv extends HttpServlet {
                public void doGet(HttpServletRequest req, HttpServletResponse resp) {
                  G g = new G();
                  resp.getWriter().println("r:" + g.f(Integer.parseInt(req.getParameter("n"))));
                }
              }|}
       in
       let loaded =
         Taj.load { Taj.name = "rnd"; app_sources = [ wrapped ]; descriptor = "" }
       in
       List.for_all
         (fun alg ->
            match (Taj.run loaded (Config.preset alg)).Taj.result with
            | Taj.Completed _ | Taj.Did_not_complete _ -> true)
         Config.all_algorithms)

let suite =
  [ Alcotest.test_case "sanitizer monotone" `Quick test_sanitizer_monotone;
    QCheck_alcotest.to_alcotest prop_analysis_total;
    Alcotest.test_case "duplication doubles" `Quick test_duplication_doubles;
    Alcotest.test_case "unreachable code inert" `Quick
      test_unreachable_code_is_inert;
    Alcotest.test_case "unit permutation" `Quick test_unit_permutation;
    Alcotest.test_case "dot well-formed" `Quick test_dot_wellformed;
    QCheck_alcotest.to_alcotest prop_counts_match_unsanitized ]
