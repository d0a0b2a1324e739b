(* Tests for the string-context diagnostics (§9 future-work extension):
   sink templates, their syntactic contexts, and [Sanitize.diagnose]. *)

open Core

let flows_of srcs =
  let loaded =
    Taj.load { Taj.name = "sc"; app_sources = srcs; descriptor = "" }
  in
  match (Taj.run loaded (Config.preset Config.Hybrid_unbounded)).Taj.result with
  | Taj.Completed c -> (c.Taj.builder, c.Taj.report.Report.raw_flows)
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r

let the_template b flows =
  match flows with
  | fl :: _ ->
    (match
       Strings.Summary.sink_template (Strings.Summary.make b)
         ~path:fl.Flows.fl_path ~sink:fl.Flows.fl_sink
     with
     | Some t -> (fl, t)
     | None -> Alcotest.fail "no template")
  | [] -> Alcotest.fail "no flows"

let test_template_reconstruction () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String s = req.getParameter("name");
              resp.getWriter().println("<b>" + s + "</b>");
            }
          }|} ]
  in
  let _, t = the_template b flows in
  (match t with
   | [ Strings.Template.Lit "<b>"; Strings.Template.Tainted;
       Strings.Template.Lit "</b>" ] -> ()
   | _ ->
     Alcotest.failf "unexpected template: %a" Strings.Template.pp t)

let test_html_text_context () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println("Hello, " + req.getParameter("n") + "!");
            }
          }|} ]
  in
  let _, t = the_template b flows in
  Alcotest.(check bool) "text context" true
    (Strings.Template.html_context t = Strings.Context.Html_text)

let test_html_attribute_context () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String u = req.getParameter("u");
              resp.getWriter().println("<a href=\"" + u + "\">link</a>");
            }
          }|} ]
  in
  let _, t = the_template b flows in
  Alcotest.(check bool) "attribute context" true
    (Strings.Template.html_context t = Strings.Context.Html_attribute)

let test_sql_quoted_context () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String u = req.getParameter("u");
              Connection c = DriverManager.getConnection("jdbc:x");
              Statement st = c.createStatement();
              st.executeQuery("SELECT * FROM t WHERE name='" + u + "'");
            }
          }|} ]
  in
  let fl, t =
    the_template b
      (List.filter (fun f -> f.Flows.fl_rule.Rules.issue = Rules.Sqli) flows)
  in
  ignore fl;
  Alcotest.(check bool) "quoted sql" true
    (Strings.Template.sql_context t = Strings.Context.Sql_quoted)

let test_sql_raw_context () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String u = req.getParameter("id");
              Connection c = DriverManager.getConnection("jdbc:x");
              Statement st = c.createStatement();
              st.executeQuery("SELECT * FROM t WHERE id=" + u);
            }
          }|} ]
  in
  let _, t =
    the_template b
      (List.filter (fun f -> f.Flows.fl_rule.Rules.issue = Rules.Sqli) flows)
  in
  Alcotest.(check bool) "raw sql" true
    (Strings.Template.sql_context t = Strings.Context.Sql_raw)

let test_hole_for_opaque_fragments () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            String now() { return Date.getDate(); }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String s = req.getParameter("n");
              resp.getWriter().println(this.now() + ": " + s);
            }
          }|} ]
  in
  let _, t = the_template b flows in
  Alcotest.(check bool) "has a hole" true
    (List.exists (fun p -> p = Strings.Template.Hole) t);
  Alcotest.(check bool) "still finds taint" true
    (List.exists (fun p -> p = Strings.Template.Tainted) t)

(* Classification edges on directly-constructed templates: what happens
   when a Hole sits next to the Tainted piece, and the quote/bracket
   states at the taint boundary. *)
let test_classify_hole_adjacent () =
  let open Strings.Template in
  let open Strings.Context in
  (* a Hole before the taint hides the syntactic context entirely *)
  Alcotest.(check bool) "hole-before-taint html" true
    (html_context [ Hole; Tainted ] = Unknown);
  Alcotest.(check bool) "hole-before-taint sql" true
    (sql_context [ Hole; Tainted ] = Unknown);
  Alcotest.(check bool) "hole mid-prefix html" true
    (html_context [ Lit "<b>"; Hole; Tainted ] = Unknown);
  (* a Hole after the taint does not: the prefix is still known *)
  Alcotest.(check bool) "hole-after-taint html" true
    (html_context [ Lit "<b>"; Tainted; Hole ] = Html_text);
  Alcotest.(check bool) "hole-after-taint sql" true
    (sql_context [ Lit "WHERE n='"; Tainted; Hole ] = Sql_quoted)

let test_classify_quote_edges () =
  let open Strings.Template in
  let open Strings.Context in
  (* open tag + open quote: attribute injection *)
  Alcotest.(check bool) "attr" true
    (html_context [ Lit "<a href=\""; Tainted; Lit "\">" ] = Html_attribute);
  (* open tag but no quote: neither text nor a quoted attribute *)
  Alcotest.(check bool) "unquoted in-tag" true
    (html_context [ Lit "<img src="; Tainted ] = Unknown);
  (* quote closed again before the taint: back to raw/text *)
  Alcotest.(check bool) "quote closed html" true
    (html_context [ Lit "<a href=\"x\">"; Tainted ] = Html_text);
  Alcotest.(check bool) "quote closed sql" true
    (sql_context [ Lit "SELECT 'x' WHERE id="; Tainted ] = Sql_raw)

(* template reconstruction must also survive a flow whose taint travels
   through a carrier collection, not just straight concatenation *)
let test_template_through_carrier () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              Vector v = new Vector();
              v.add(req.getParameter("n"));
              String s = (String) v.get(0);
              resp.getWriter().println("<i>" + s + "</i>");
            }
          }|} ]
  in
  let _, t = the_template b flows in
  Alcotest.(check bool) "taint survives the carrier" true
    (List.exists (fun p -> p = Strings.Template.Tainted) t)

let test_diagnose_strings () =
  let b, flows =
    flows_of
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println("<i>" + req.getParameter("n") + "</i>");
            }
          }|} ]
  in
  match flows with
  | fl :: _ ->
    (match Sanitize.diagnose b fl with
     | Some d ->
       Alcotest.(check bool) "mentions html context" true
         (String.length d > 0
          && String.sub d 0 4 = "HTML")
     | None -> Alcotest.fail "no diagnosis")
  | [] -> Alcotest.fail "no flows"

(* ------------------------------------------------------------------ *)
(* Template-algebra properties (QCheck)                               *)
(* ------------------------------------------------------------------ *)

let piece_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun s -> Strings.Template.Lit s)
             (string_size ~gen:(oneofl [ '<'; '>'; '\''; '"'; '='; 'a'; ' ' ])
                (int_range 0 4)));
        (1, return Strings.Template.Tainted);
        (1, return Strings.Template.Hole) ])

let template_arb =
  QCheck.make
    ~print:(Fmt.str "%a" Strings.Template.pp)
    QCheck.Gen.(list_size (int_range 0 8) piece_gen)

let prop_concat_assoc =
  QCheck.Test.make ~name:"concat is associative up to normalize" ~count:500
    (QCheck.triple template_arb template_arb template_arb)
    (fun (a, b, c) ->
       Strings.Template.(concat (concat a b) c = concat a (concat b c)))

let prop_hole_absorption =
  QCheck.Test.make
    ~name:"classification invariant under hole absorption" ~count:500
    template_arb
    (fun t ->
       let c = Strings.Template.compact t in
       Strings.Template.html_context c = Strings.Template.html_context t
       && Strings.Template.sql_context c = Strings.Template.sql_context t)

(* splitting any literal into two adjacent literals is a no-op for the
   classifiers: they read the concatenated constant prefix *)
let prop_literal_split_stable =
  QCheck.Test.make
    ~name:"classification stable under literal splitting" ~count:500
    (QCheck.pair template_arb QCheck.small_nat)
    (fun (t, k) ->
       let split =
         List.concat_map
           (function
             | Strings.Template.Lit s when String.length s > 1 ->
               let i = 1 + (k mod (String.length s - 1)) in
               [ Strings.Template.Lit (String.sub s 0 i);
                 Strings.Template.Lit
                   (String.sub s i (String.length s - i)) ]
             | p -> [ p ])
           t
       in
       Strings.Template.html_context split = Strings.Template.html_context t
       && Strings.Template.sql_context split = Strings.Template.sql_context t)

(* ------------------------------------------------------------------ *)
(* Classification edges: nested quotes, numeric SQL                   *)
(* ------------------------------------------------------------------ *)

let test_nested_attribute_quotes () =
  let open Strings.Template in
  let open Strings.Context in
  (* double-quoted attribute containing single quotes: still inside the
     outer double quote at the taint *)
  Alcotest.(check bool) "single quotes nested in double" true
    (html_context
       [ Lit "<a title=\"it's called '"; Tainted; Lit "'\">" ]
     = Html_attribute);
  (* the inner quote of the opposite kind does not close the outer one *)
  Alcotest.(check bool) "double nested in single" true
    (html_context [ Lit "<a title='say \""; Tainted; Lit "\"'>" ]
     = Html_attribute);
  (* matching quote closes: by the taint we are back in the tag, unquoted *)
  Alcotest.(check bool) "closed attribute then taint in tag" true
    (html_context [ Lit "<a title=\"x\" href="; Tainted ] = Unknown)

let test_numeric_sql_positions () =
  let open Strings.Template in
  let open Strings.Context in
  Alcotest.(check bool) "numeric comparison" true
    (sql_context [ Lit "SELECT v FROM t WHERE id = "; Tainted ] = Sql_raw);
  Alcotest.(check bool) "LIMIT clause" true
    (sql_context [ Lit "SELECT v FROM t LIMIT "; Tainted ] = Sql_raw);
  (* a closed literal earlier in the query does not quote the taint *)
  Alcotest.(check bool) "closed literal before numeric position" true
    (sql_context [ Lit "SELECT v FROM t WHERE k='x' AND n="; Tainted ]
     = Sql_raw);
  (* the satellite fix: attacker controls the statement head *)
  Alcotest.(check bool) "leading taint is raw" true
    (sql_context [ Tainted; Lit " WHERE 1=1" ] = Sql_raw)

let suite =
  [ Alcotest.test_case "template reconstruction" `Quick
      test_template_reconstruction;
    Alcotest.test_case "html text context" `Quick test_html_text_context;
    Alcotest.test_case "html attribute context" `Quick
      test_html_attribute_context;
    Alcotest.test_case "sql quoted context" `Quick test_sql_quoted_context;
    Alcotest.test_case "sql raw context" `Quick test_sql_raw_context;
    Alcotest.test_case "holes for opaque fragments" `Quick
      test_hole_for_opaque_fragments;
    Alcotest.test_case "hole adjacent to taint" `Quick
      test_classify_hole_adjacent;
    Alcotest.test_case "quote/bracket edges" `Quick test_classify_quote_edges;
    Alcotest.test_case "template through carrier" `Quick
      test_template_through_carrier;
    Alcotest.test_case "diagnose" `Quick test_diagnose_strings;
    QCheck_alcotest.to_alcotest prop_concat_assoc;
    QCheck_alcotest.to_alcotest prop_hole_absorption;
    QCheck_alcotest.to_alcotest prop_literal_split_stable;
    Alcotest.test_case "nested attribute quotes" `Quick
      test_nested_attribute_quotes;
    Alcotest.test_case "numeric sql positions" `Quick
      test_numeric_sql_positions ]
