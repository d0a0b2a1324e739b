(* Dependence-graph and report-layer tests: builder indexes, thin-slicing
   base-pointer exclusion, LCP computation and report deduplication (§5). *)

open Core

let completed srcs algorithm =
  let loaded =
    Taj.load { Taj.name = "sdg"; app_sources = srcs; descriptor = "" }
  in
  match (Taj.run loaded (Config.preset algorithm)).Taj.result with
  | Taj.Completed c -> c
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r

let test_base_pointer_excluded () =
  (* tainting the BASE of a load must not taint the loaded value: x.f where
     x is tainted-as-a-pointer does not make f's content tainted (thin
     slicing ignores base-pointer dependence) *)
  let c =
    completed
      [ {|class BPBox { String f; }
          class P extends HttpServlet {
            BPBox lookup(String key) { BPBox b = new BPBox(); b.f = "safe"; return b; }
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String k = req.getParameter("k");
              BPBox box = this.lookup(k);
              resp.getWriter().println(box.f);
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  Alcotest.(check int) "no issue through base pointer" 0
    (Report.issue_count c.Taj.report)

let test_lcp_groups_flows_to_same_sink_region () =
  (* two parameters flowing into the same library call point with the same
     issue type collapse into one report (§5) *)
  let c =
    completed
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String a = req.getParameter("a");
              String b = req.getParameter("b");
              resp.getWriter().println(a + b);
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  Alcotest.(check bool) "at least one flow" true
    (Report.flow_count c.Taj.report >= 1);
  Alcotest.(check int) "one deduplicated issue" 1
    (Report.issue_count c.Taj.report)

let test_lcp_distinct_issue_types_not_merged () =
  (* same source, same LCP region, different issue types: both reported *)
  let c =
    completed
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String s = req.getParameter("q");
              resp.getWriter().println(s);
              Connection conn = DriverManager.getConnection("jdbc:x");
              Statement st = conn.createStatement();
              st.executeQuery(s);
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  let issues =
    List.map (fun ir -> ir.Report.ir_issue) c.Taj.report.Report.issues
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "two issue types" 2 (List.length issues)

let test_lcp_is_application_statement () =
  let c = completed
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("x"));
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  List.iter
    (fun ir ->
       match ir.Report.ir_lcp with
       | Some lcp ->
         let m = Sdg.Builder.node_meth c.Taj.builder lcp.Sdg.Stmt.node in
         Alcotest.(check bool) "LCP lies in application code" false
           m.Jir.Tac.m_library
       | None -> Alcotest.fail "no LCP computed")
    c.Taj.report.Report.issues

let test_distinct_sinks_distinct_issues () =
  (* distinct LCPs stay separate even with one source (p3 vs p4 of Fig. 3) *)
  let c =
    completed
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              String s = req.getParameter("q");
              PrintWriter w = resp.getWriter();
              w.println("header: " + s);
              w.println("footer: " + s);
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  Alcotest.(check int) "two issues for two sink stmts" 2
    (Report.issue_count c.Taj.report)

let test_flow_path_endpoints () =
  let c = completed
      [ {|class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("x"));
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  List.iter
    (fun fl ->
       (match Sdg.Builder.call_of c.Taj.builder fl.Flows.fl_source with
        | Some call ->
          Alcotest.(check string) "path starts at the source call"
            "HttpServletRequest.getParameter/2"
            (Jir.Tac.mref_id call.Jir.Tac.target)
        | None -> Alcotest.fail "source is not a call");
       (match Sdg.Builder.call_of c.Taj.builder fl.Flows.fl_sink with
        | Some call ->
          Alcotest.(check string) "path ends at the sink call"
            "PrintWriter.println/2"
            (Jir.Tac.mref_id call.Jir.Tac.target)
        | None -> Alcotest.fail "sink is not a call"))
    c.Taj.report.Report.raw_flows

let test_heap_transition_budget_respected () =
  let cells =
    String.concat "\n"
      (List.init 10 (fun i ->
           Printf.sprintf "Cell c%d = new Cell(); c%d.v = c%d.v;" (i + 1)
             (i + 1) i))
  in
  let src =
    Printf.sprintf
      {|class Cell { String v; }
        class P extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Cell c0 = new Cell();
            c0.v = req.getParameter("x");
            %s
            resp.getWriter().println(c10.v);
          }
        }|}
      cells
  in
  (* with a tiny heap-transition cap the flow cannot complete *)
  let loaded =
    Taj.load { Taj.name = "sdg"; app_sources = [ src ]; descriptor = "" }
  in
  let config =
    { (Config.preset Config.Hybrid_optimized) with
      Config.max_heap_transitions = Some 3;
      Config.max_flow_length = None;
      Config.max_cg_nodes = None }
  in
  match (Taj.run loaded config).Taj.result with
  | Taj.Completed c ->
    Alcotest.(check int) "flow cut by heap budget" 0
      (Report.issue_count c.Taj.report)
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r

let test_stmt_identity () =
  let s1 = Sdg.Stmt.instr ~node:1 ~block:2 ~index:3 in
  let s2 = Sdg.Stmt.instr ~node:1 ~block:2 ~index:3 in
  let s3 = Sdg.Stmt.instr ~node:1 ~block:2 ~index:4 in
  Alcotest.(check bool) "equal" true (Sdg.Stmt.equal s1 s2);
  Alcotest.(check bool) "distinct" false (Sdg.Stmt.equal s1 s3);
  Alcotest.(check int) "set semantics" 2
    (Sdg.Stmt.Set.cardinal (Sdg.Stmt.Set.of_list [ s1; s2; s3 ]))

(* the call statements of [b] whose target method is named [name], in
   program order *)
let calls_named b name =
  List.filter
    (fun (_, (c : Jir.Tac.call)) -> String.equal c.Jir.Tac.target.Jir.Tac.rname name)
    (Sdg.Builder.all_call_stmts b)
  |> List.sort (fun (s, _) (s', _) -> Sdg.Stmt.compare s s')

let test_carrier_hits_in_list_order () =
  (* one tainted store into an object two sinks print: its carrier hits
     come in carrier-set order, and a set sharing no key is skipped *)
  let c =
    completed
      [ {|class CBox { String f; }
          class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              CBox box = new CBox();
              PrintWriter w = resp.getWriter();
              w.println(box);
              w.print(box);
              box.f = req.getParameter("x");
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  let b = c.Taj.builder in
  let u = Pointer.Andersen.universe c.Taj.andersen in
  let boxes =
    List.filter
      (fun ik -> Pointer.Keys.inst_class (Pointer.Keys.ik_of u ik) = "CBox")
      (List.init (Pointer.Keys.ik_count u) Fun.id)
    |> Sdg.Builder.Int_set.of_list
  in
  let sink name =
    match calls_named b name with
    | [ (s, c) ] -> (s, c.Jir.Tac.target)
    | l -> Alcotest.failf "%d calls to %s" (List.length l) name
  in
  let seeds = List.map fst (calls_named b "getParameter") in
  let s_println, t_println = sink "println" and s_print, t_print = sink "print" in
  let hit_sinks carrier_sets =
    let callbacks =
      { Sdg.Tabulation.is_sink_arg = (fun _ _ -> false);
        is_sanitizer = (fun _ -> false);
        sanitizer_passthrough = false;
        carrier_sets }
    in
    let r =
      Sdg.Tabulation.run b ~mode:Sdg.Tabulation.hybrid_mode ~callbacks ~seeds
    in
    List.map (fun (h : Sdg.Tabulation.hit) -> h.Sdg.Tabulation.h_sink)
      r.Sdg.Tabulation.hits
  in
  let unrelated = Sdg.Builder.Int_set.singleton (-1) in
  let check what expected sets =
    Alcotest.(check (list string)) what
      (List.map (Fmt.str "%a" Sdg.Stmt.pp) expected)
      (List.map (Fmt.str "%a" Sdg.Stmt.pp) (hit_sinks sets))
  in
  Alcotest.(check bool) "box allocated" false (Sdg.Builder.Int_set.is_empty boxes);
  check "println first"
    [ s_println; s_print ]
    [ (s_println, t_println, boxes); (s_print, t_print, unrelated);
      (s_print, t_print, boxes) ];
  check "print first"
    [ s_print; s_println ]
    [ (s_print, t_print, boxes); (s_println, t_println, boxes) ]

let test_base_uses_in_program_order () =
  let c =
    completed
      [ {|class BU { String f; String g; }
          class P extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              BU x = new BU();
              String a = x.f;
              String b = x.g;
              HashMap m = new HashMap();
              String v = (String) m.get("k");
              resp.getWriter().println(a + b + v);
            }
          }|} ]
      Config.Hybrid_unbounded
  in
  let b = c.Taj.builder in
  let node, _ = List.hd (calls_named b "get") in
  let node = node.Sdg.Stmt.node in
  let m = Sdg.Builder.node_meth b node in
  let loads = ref [] and dict_recv = ref None in
  Array.iteri
    (fun bi (blk : Jir.Tac.block) ->
       Array.iteri
         (fun i ins ->
            match ins with
            | Jir.Tac.Load (_, o, f) ->
              loads := (o, Sdg.Stmt.instr ~node ~block:bi ~index:i, f) :: !loads
            | Jir.Tac.Call { target = { rname = "get"; _ }; args = recv :: _; _ } ->
              dict_recv := Some (recv, Sdg.Stmt.instr ~node ~block:bi ~index:i)
            | _ -> ())
         blk.Jir.Tac.instrs)
    m.Jir.Tac.m_blocks;
  let show = function
    | Sdg.Builder.B_field (s, f) ->
      Fmt.str "%a %a" Sdg.Stmt.pp s Pointer.Keys.pp_field f
    | Sdg.Builder.B_dict (s, fs) ->
      Fmt.str "%a %a" Sdg.Stmt.pp s
        Fmt.(list ~sep:(any ",") Pointer.Keys.pp_field) fs
  in
  let uses v = List.map show (Sdg.Builder.base_uses_of b ~node v) in
  (match List.rev !loads with
   | [ (x, s_f, f); (x', s_g, g) ] ->
     Alcotest.(check int) "one base" x x';
     Alcotest.(check (list string)) "loads in program order"
       [ show (Sdg.Builder.B_field (s_f, Pointer.Keys.field_of_tac f));
         show (Sdg.Builder.B_field (s_g, Pointer.Keys.field_of_tac g)) ]
       (uses x)
   | l -> Alcotest.failf "%d loads" (List.length l));
  (match !dict_recv with
   | Some (recv, s) ->
     Alcotest.(check (list string)) "dictionary get"
       [ Fmt.str "%a $Dict.$key_k,$Dict.$any" Sdg.Stmt.pp s ]
       (uses recv)
   | None -> Alcotest.fail "no dictionary get");
  Alcotest.(check (list string)) "register out of range" []
    (uses (m.Jir.Tac.m_nvars + 5))

let suite =
  [ Alcotest.test_case "base pointer excluded" `Quick test_base_pointer_excluded;
    Alcotest.test_case "lcp groups same region" `Quick
      test_lcp_groups_flows_to_same_sink_region;
    Alcotest.test_case "lcp keeps issue types apart" `Quick
      test_lcp_distinct_issue_types_not_merged;
    Alcotest.test_case "lcp in application code" `Quick
      test_lcp_is_application_statement;
    Alcotest.test_case "distinct sinks distinct issues" `Quick
      test_distinct_sinks_distinct_issues;
    Alcotest.test_case "flow path endpoints" `Quick test_flow_path_endpoints;
    Alcotest.test_case "heap transition budget" `Quick
      test_heap_transition_budget_respected;
    Alcotest.test_case "stmt identity" `Quick test_stmt_identity;
    Alcotest.test_case "carrier hits in list order" `Quick
      test_carrier_hits_in_list_order;
    Alcotest.test_case "base uses in program order" `Quick
      test_base_uses_in_program_order ]
