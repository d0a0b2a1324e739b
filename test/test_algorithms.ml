(* Comparative behaviour of the five Table 1 configurations on programs
   engineered to separate them:
   - CI merges return flows across call sites (false positive);
   - hybrid merges heap flows across contexts (false positive) that the CS
     configuration's context-qualified heap avoids;
   - CS misses cross-thread heap flows (the paper's documented unsoundness);
   - hybrid and CS agree with hybrid on plain flows. *)

open Core

let run_with algorithm srcs =
  Taj.run
    (Taj.load { Taj.name = "alg"; app_sources = srcs; descriptor = "" })
    (Config.preset algorithm)

let xss_count a =
  match a.Taj.result with
  | Taj.Completed c ->
    List.length
      (List.filter
         (fun ir -> ir.Report.ir_issue = Rules.Xss)
         c.Taj.report.Report.issues)
  | Taj.Did_not_complete reason -> Alcotest.failf "did not complete: %s" reason

(* shared helper method: CI merges the two rets, hybrid does not *)
let local_context_trap =
  {|class Page extends HttpServlet {
      String pass(String s) { return s; }
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        String t = this.pass(req.getParameter("x"));
        String c = this.pass("clean");
        PrintWriter w = resp.getWriter();
        w.println(t);
        w.println(c);
      }
    }|}

let test_ci_context_confusion () =
  Alcotest.(check int) "hybrid: one true flow" 1
    (xss_count (run_with Config.Hybrid_unbounded [ local_context_trap ]));
  Alcotest.(check int) "ci: true flow + context-confusion FP" 2
    (xss_count (run_with Config.Ci_thin_slicing [ local_context_trap ]))

(* one allocation site used from two call sites: the hybrid heap merges the
   two Holder objects, the CS configuration's context-qualified heap keeps
   them apart *)
let heap_context_trap =
  {|class Holder {
      String v;
    }
    class Maker {
      static Holder make(String s) {
        Holder h = new Holder();
        h.v = s;
        return h;
      }
    }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Holder a = Maker.make(req.getParameter("x"));
        Holder b = Maker.make("clean");
        PrintWriter w = resp.getWriter();
        w.println(a.v);
        w.println(b.v);
      }
    }|}

let test_hybrid_heap_confusion_vs_cs () =
  Alcotest.(check int) "hybrid: true flow + heap-merge FP" 2
    (xss_count (run_with Config.Hybrid_unbounded [ heap_context_trap ]));
  Alcotest.(check int) "cs: exactly the true flow" 1
    (xss_count (run_with Config.Cs_thin_slicing [ heap_context_trap ]))

(* a tainted value crosses threads through a static field: hybrid (flow-
   insensitive heap) reports it, CS (partially flow-sensitive heap) misses
   it — matching §3.2's soundness discussion *)
let cross_thread_flow =
  {|class Shared {
      static String data;
    }
    class Producer extends Thread {
      HttpServletRequest req;
      public Producer(HttpServletRequest r) { this.req = r; }
      public void run() {
        Shared.data = this.req.getParameter("x");
      }
    }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Producer p = new Producer(req);
        p.start();
        resp.getWriter().println(Shared.data);
      }
    }|}

let test_cs_unsound_for_threads () =
  Alcotest.(check int) "hybrid: catches cross-thread flow" 1
    (xss_count (run_with Config.Hybrid_unbounded [ cross_thread_flow ]));
  Alcotest.(check int) "cs: misses cross-thread flow (false negative)" 0
    (xss_count (run_with Config.Cs_thin_slicing [ cross_thread_flow ]))

let plain_flow =
  {|class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        resp.getWriter().println(req.getParameter("x"));
      }
    }|}

let test_all_configurations_agree_on_plain_flow () =
  List.iter
    (fun alg ->
       Alcotest.(check int)
         (Config.algorithm_name alg ^ " finds the plain flow") 1
         (xss_count (run_with alg [ plain_flow ])))
    Config.all_algorithms

let test_algorithm_names_parse () =
  List.iter
    (fun alg ->
       Alcotest.(check bool) (Config.algorithm_name alg ^ " parses back") true
         (Config.algorithm_of_name (Config.algorithm_name alg) = Some alg))
    (Config.Type_triage :: Config.all_algorithms);
  List.iter
    (fun (name, alg) ->
       Alcotest.(check bool) (name ^ " parses") true
         (Config.algorithm_of_name name = Some alg))
    [ ("hybrid", Config.Hybrid_unbounded);
      ("prioritized", Config.Hybrid_prioritized);
      ("optimized", Config.Hybrid_optimized) ];
  Alcotest.(check bool) "an unknown name does not" true
    (Config.algorithm_of_name "magic" = None)

let test_prioritized_matches_unbounded_when_budget_suffices () =
  Alcotest.(check int) "prioritized finds the same issues"
    (xss_count (run_with Config.Hybrid_unbounded [ local_context_trap ]))
    (xss_count (run_with Config.Hybrid_prioritized [ local_context_trap ]))

let test_local_chains_are_summarized () =
  (* flow through locals is collapsed into summary edges, so a long chain of
     helper calls does NOT lengthen the reported flow (§3.2) *)
  let hops = List.init 20 (fun i ->
      Printf.sprintf "String h%d(String s) { return this.h%d(s); }" i (i + 1))
  in
  let src =
    Printf.sprintf
      {|class Page extends HttpServlet {
          %s
          String h20(String s) { return s; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.h0(req.getParameter("x")));
          }
        }|}
      (String.concat "\n" hops)
  in
  Alcotest.(check int) "optimized keeps the summarized flow" 1
    (xss_count (run_with Config.Hybrid_optimized [ src ]))

let test_flow_length_filter () =
  (* heap hops DO lengthen a flow: a bucket brigade of 12 cells pushes the
     HSDG path past the optimized configuration's length cap of 14 *)
  let cells =
    List.init 12 (fun i ->
        Printf.sprintf
          "Cell c%d = new Cell(); c%d.v = c%d.v;" (i + 1) (i + 1) i)
  in
  let src =
    Printf.sprintf
      {|class Cell { String v; }
        class Page extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Cell c0 = new Cell();
            c0.v = req.getParameter("x");
            %s
            resp.getWriter().println(c12.v);
          }
        }|}
      (String.concat "\n" cells)
  in
  Alcotest.(check int) "unbounded keeps the long flow" 1
    (xss_count (run_with Config.Hybrid_unbounded [ src ]));
  Alcotest.(check int) "optimized filters the long flow" 0
    (xss_count (run_with Config.Hybrid_optimized [ src ]))

let test_whitelist_excludes_classes () =
  (* excluding the helper's class from analysis turns its call into a
     native-like default transfer: the flow is still (conservatively)
     reported, but the class's body contributes no call-graph nodes *)
  let src =
    {|class Helper {
        String pass(String s) { Helper h = new Helper(); return s; }
      }
      class Page extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          Helper h = new Helper();
          resp.getWriter().println(h.pass(req.getParameter("x")));
        }
      }|}
  in
  let loaded =
    Core.Taj.load { Taj.name = "wl"; app_sources = [ src ]; descriptor = "" }
  in
  let base = Config.preset Config.Hybrid_unbounded in
  let with_wl =
    { base with Config.excluded_classes = "Helper" :: base.Config.excluded_classes }
  in
  let nodes_of config =
    match (Taj.run loaded config).Taj.result with
    | Taj.Completed c ->
      let cg = Pointer.Andersen.call_graph c.Taj.andersen in
      ( List.length (Pointer.Callgraph.clones_of cg "Helper.pass/2"),
        Report.issue_count c.Taj.report )
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
  in
  let clones_plain, issues_plain = nodes_of base in
  let clones_wl, issues_wl = nodes_of with_wl in
  Alcotest.(check bool) "helper analyzed normally" true (clones_plain > 0);
  Alcotest.(check int) "helper excluded under whitelist" 0 clones_wl;
  Alcotest.(check int) "flow found normally" 1 issues_plain;
  Alcotest.(check int) "flow kept by default transfer" 1 issues_wl

let suite =
  [ Alcotest.test_case "ci context confusion" `Quick test_ci_context_confusion;
    Alcotest.test_case "whitelist excludes classes" `Quick
      test_whitelist_excludes_classes;
    Alcotest.test_case "hybrid heap confusion vs cs" `Quick
      test_hybrid_heap_confusion_vs_cs;
    Alcotest.test_case "cs unsound for threads" `Quick test_cs_unsound_for_threads;
    Alcotest.test_case "all agree on plain flow" `Quick
      test_all_configurations_agree_on_plain_flow;
    Alcotest.test_case "algorithm names parse" `Quick
      test_algorithm_names_parse;
    Alcotest.test_case "prioritized matches unbounded" `Quick
      test_prioritized_matches_unbounded_when_budget_suffices;
    Alcotest.test_case "local chains summarized" `Quick test_local_chains_are_summarized;
    Alcotest.test_case "flow length filter" `Quick test_flow_length_filter ]
