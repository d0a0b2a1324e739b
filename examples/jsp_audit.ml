(* Auditing JSP pages: containers compile JSP to servlets, and TAJ analyzes
   the generated code (§1). This example translates three small pages and
   runs the analysis over them together, showing the classic reflected-XSS
   surface of expression tags plus the string-context diagnostics.

   Run with: dune exec examples/jsp_audit.exe *)

open Core

let pages =
  [ ( "Greeting",
      {|<html><body>
<h1>Hello, <%= request.getParameter("name") %>!</h1>
</body></html>|} );
    ( "Profile",
      {|<% String nick = request.getParameter("nick"); %>
<% session.setAttribute("nick", nick); %>
<div class="profile">
  <a href="/u/<%= (String) session.getAttribute("nick") %>">me</a>
</div>|} );
    ( "Safe",
      {|<p>Search results for <%= URLEncoder.encode(request.getParameter("q")) %></p>|}
    ) ]

let () =
  print_endline "=== TAJ JSP audit ===\n";
  let sources =
    List.map (fun (name, page) -> Models.Jsp.translate ~name page) pages
  in
  List.iter2
    (fun (name, _) src ->
       Printf.printf "--- generated servlet for %s.jsp ---\n%s\n" name src)
    pages sources;
  let input = { Taj.name = "jsp-audit"; app_sources = sources; descriptor = "" } in
  let loaded = Taj.load input in
  match (Taj.run loaded (Config.preset Config.Hybrid_optimized)).Taj.result with
  | Taj.Did_not_complete reason -> Printf.printf "did not complete: %s\n" reason
  | Taj.Completed c ->
    Fmt.pr "%a@.@." (Report.pp c.Taj.builder) c.Taj.report;
    List.iter
      (fun ir ->
         match
           Sanitize.diagnose c.Taj.builder ir.Report.ir_representative
         with
         | Some d ->
           Fmt.pr "context [%s]: %s@." (Rules.issue_name ir.Report.ir_issue) d
         | None -> ())
      c.Taj.report.Report.issues;
    Printf.printf
      "\nExpected: the Greeting page's expression tag and the Profile\n\
       page's session readback are flagged; the Safe page's encoded\n\
       expression is not. (Each JSP chunk compiles to its own out.print,\n\
       so the context diagnostics see the tainted expression alone.)\n"
