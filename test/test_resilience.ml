(* Resilience of the supervised pipeline: injected faults in every phase
   are contained as structured diagnostics (never exceptions), the
   degradation ladder retries in the documented order, and an expired
   deadline yields a clearly-marked partial report whose flows are a
   subset of the unbounded run's. *)

open Core

let input srcs =
  { Taj.name = "resilience"; app_sources = srcs; descriptor = "" }

(* two flows (xss + sqli) and a heap hop, so every injection site —
   parse, pointer solver, SDG scan, tabulation step, heap transition —
   is guaranteed to tick at least once *)
let two_flows =
  {|class Cell { String v; }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        c.v = req.getParameter("x");
        resp.getWriter().println(c.v);
        Connection conn = DriverManager.getConnection("jdbc:db");
        Statement st = conn.createStatement();
        st.executeQuery(c.v);
      }
    }|}

let supervise ?(options = Supervisor.default_options) () =
  Supervisor.run ~options (input [ two_flows ])

let issue_count (outcome : Supervisor.outcome) =
  Report.issue_count outcome.Supervisor.sv_report

(* ------------------------------------------------------------------ *)
(* Budget                                                             *)
(* ------------------------------------------------------------------ *)

let poll_n budget n =
  let hit = ref false in
  for _ = 1 to n do
    if Budget.exceeded budget then hit := true
  done;
  !hit

let test_budget_deadline () =
  let b = Budget.create ~deadline:0.0 () in
  Alcotest.(check bool) "an expired deadline trips within 64 polls" true
    (poll_n b 64);
  Alcotest.(check bool) "tripped latches" true (Budget.tripped b);
  let b = Budget.create ~deadline:3600.0 () in
  Alcotest.(check bool) "a distant deadline does not trip" false
    (poll_n b 1000)

let test_budget_cancel () =
  let token = Atomic.make false in
  let b = Budget.create ~cancel:token () in
  Alcotest.(check bool) "not cancelled yet" false (Budget.exceeded b);
  Atomic.set token true;
  Alcotest.(check bool) "cancellation is seen on the next poll" true
    (Budget.exceeded b);
  Alcotest.(check bool) "status reports cancellation" true
    (Budget.status b = Budget.Cancelled)

let test_budget_steps () =
  let b = Budget.create ~max_steps:10 () in
  Alcotest.(check bool) "within the step budget" false (poll_n b 10);
  Alcotest.(check bool) "exceeding the step budget trips" true (poll_n b 5)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  Alcotest.(check bool) "an unlimited budget never trips" false
    (poll_n b 1000)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                 *)
(* ------------------------------------------------------------------ *)

let test_ladder_order () =
  let rungs =
    Config.degradation_ladder (Config.preset Config.Hybrid_unbounded)
  in
  Alcotest.(check (list string))
    "prioritized, then shrinking optimized, then triage"
    [ "hybrid-prioritized"; "hybrid-optimized"; "hybrid-optimized";
      "hybrid-optimized"; "triage" ]
    (List.map (fun (_, c) -> Config.algorithm_name c.Config.algorithm) rungs);
  let scales = List.map fst rungs in
  Alcotest.(check bool) "scales shrink monotonically" true
    (List.for_all2 ( >= ) scales (List.tl scales @ [ 0.0 ]))

(* ------------------------------------------------------------------ *)
(* Fault injection, one site per pipeline phase                       *)
(* ------------------------------------------------------------------ *)

(* the acceptance contract: with a fault in any phase the supervisor never
   raises, and yields either a degraded complete run or a partial report —
   in both cases with at least one recorded degradation *)
let check_contained site =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm site ~after:1;
  let outcome = supervise () in
  Alcotest.(check bool) (site ^ ": fault fired") true (Fault.fired site > 0);
  Alcotest.(check bool) (site ^ ": degradation recorded") true
    (outcome.Supervisor.sv_diagnostics <> []);
  match outcome.Supervisor.sv_analysis with
  | Some { Taj.result = Taj.Completed _; _ } -> ()
  | Some { Taj.result = Taj.Did_not_complete _; _ } | None ->
    Alcotest.failf "%s: no rung completed: %s" site
      (Fmt.str "%a"
         (Fmt.list ~sep:Fmt.comma Diagnostics.pp_degradation)
         outcome.Supervisor.sv_diagnostics)

let test_fault_parse () = check_contained Fault.site_parse
let test_fault_andersen () = check_contained Fault.site_andersen
let test_fault_sdg () = check_contained Fault.site_sdg
let test_fault_tabulation () = check_contained Fault.site_tabulation
let test_fault_heap () = check_contained Fault.site_heap

let test_oneshot_fault_recovers_via_ladder () =
  (* a one-shot pointer-phase fault kills the first rung; the supervisor
     downgrades and the next rung completes with the flows intact *)
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm Fault.site_andersen ~after:1;
  let outcome = supervise () in
  Alcotest.(check bool) "a later rung completed" true
    (Supervisor.completed_report outcome <> None);
  Alcotest.(check bool) "the downgrade was recorded" true
    (List.exists
       (function Diagnostics.Downgraded _ -> true | _ -> false)
       outcome.Supervisor.sv_diagnostics);
  Alcotest.(check bool) "the phase fault was recorded" true
    (List.exists
       (function Diagnostics.Phase_fault _ -> true | _ -> false)
       outcome.Supervisor.sv_diagnostics);
  Alcotest.(check int) "both flows survive the downgrade" 2
    (issue_count outcome)

let test_persistent_fault_exhausts_ladder () =
  (* a fault that fires on every rung walks the whole ladder in order and
     still ends in a value: an empty, explicitly partial report *)
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm ~once:false Fault.site_andersen ~after:1;
  let outcome = supervise () in
  Alcotest.(check (list string)) "every rung was attempted, in order"
    [ "hybrid-unbounded"; "hybrid-prioritized"; "hybrid-optimized";
      "hybrid-optimized"; "hybrid-optimized"; "triage" ]
    (List.map
       (fun (a : Supervisor.attempt) ->
          Config.algorithm_name a.Supervisor.at_algorithm)
       outcome.Supervisor.sv_attempts);
  Alcotest.(check int) "five downgrades recorded" 5
    (List.length
       (List.filter
          (function Diagnostics.Downgraded _ -> true | _ -> false)
          outcome.Supervisor.sv_diagnostics));
  (* the pointer fault cannot touch rung zero, which needs no pointer
     analysis: the floor still answers, as an explicitly type-only report *)
  Alcotest.(check bool) "the final report is partial" true
    (Report.is_partial outcome.Supervisor.sv_report);
  Alcotest.(check bool) "and type-only" true
    (Supervisor.type_only outcome);
  Alcotest.(check int) "and empty of flow-path issues" 0
    (issue_count outcome)

let test_no_degrade_fails_fast () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm ~once:false Fault.site_andersen ~after:1;
  let options = { Supervisor.default_options with Supervisor.degrade = false } in
  let outcome = supervise ~options () in
  Alcotest.(check int) "exactly one attempt" 1
    (List.length outcome.Supervisor.sv_attempts)

let test_rule_fault_is_isolated () =
  (* a fault inside the first rule's tabulation is charged to that rule
     only; the remaining rules still run and report their flows *)
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm Fault.site_tabulation ~after:1;
  let outcome = supervise () in
  Alcotest.(check bool) "one rule failed" true
    (List.exists
       (function Diagnostics.Rule_failed _ -> true | _ -> false)
       outcome.Supervisor.sv_diagnostics);
  Alcotest.(check bool) "the other rules still found flows" true
    (issue_count outcome >= 1);
  Alcotest.(check bool) "the report is marked partial" true
    (Report.is_partial outcome.Supervisor.sv_report)

(* ------------------------------------------------------------------ *)
(* Deadlines and partial results                                      *)
(* ------------------------------------------------------------------ *)

let flow_keys (r : Report.t) =
  List.map
    (fun (fl : Flows.t) ->
       (fl.Flows.fl_rule.Rules.rule_name, fl.Flows.fl_length))
    r.Report.raw_flows

let test_expired_deadline_yields_partial_report () =
  (* deadline 0: already expired when the first phase starts polling; on a
     real workload this must interrupt mid-phase and surface as a partial
     report, never as an exception or an empty Did_not_complete *)
  let app = Option.get (Workloads.Apps.find "GridSphere") in
  let gen = Workloads.Apps.generate ~scale:0.02 app in
  let options =
    { Supervisor.default_options with Supervisor.deadline = Some 0.0 }
  in
  let outcome =
    Supervisor.run ~options (Workloads.Codegen.to_input gen)
  in
  let report =
    match Supervisor.completed_report outcome with
    | Some r -> r
    | None -> Alcotest.fail "deadline must yield a report, not a failure"
  in
  Alcotest.(check bool) "the report is partial" true
    (Report.is_partial report);
  Alcotest.(check bool) "a deadline event was recorded" true
    (List.exists
       (function Diagnostics.Deadline_expired _ -> true | _ -> false)
       outcome.Supervisor.sv_diagnostics);
  (* and the partial flows are a subset of the unbounded run's flows *)
  let full = Supervisor.run (Workloads.Codegen.to_input gen) in
  let full_keys = flow_keys full.Supervisor.sv_report in
  Alcotest.(check bool) "the unbounded run is complete" false
    (Report.is_partial full.Supervisor.sv_report);
  Alcotest.(check bool) "partial flows are a subset of the full run's" true
    (List.for_all
       (fun k -> List.mem k full_keys)
       (flow_keys report))

let test_cancellation_yields_partial_report () =
  let token = Atomic.make true in (* cancelled before the analysis starts *)
  let options =
    { Supervisor.default_options with Supervisor.cancel = token }
  in
  let outcome = supervise ~options () in
  Alcotest.(check bool) "a cancellation event was recorded" true
    (List.exists
       (function Diagnostics.Cancelled _ -> true | _ -> false)
       outcome.Supervisor.sv_diagnostics);
  Alcotest.(check bool) "the report is partial" true
    (Report.is_partial outcome.Supervisor.sv_report)

(* a stall is a delay, not a fault: it must leave the run as complete as
   an unfaulted one *)
let test_unfaulted_run_is_complete () =
  List.iter
    (fun (what, arm, stalls) ->
       Fault.reset ();
       Fun.protect ~finally:Fault.reset @@ fun () ->
       arm ();
       let outcome = supervise () in
       Alcotest.(check int) (what ^ ": stalls fired") stalls
         (Fault.fired Fault.site_tabulation);
       Alcotest.(check bool) (what ^ ": no diagnostics") true
         (outcome.Supervisor.sv_diagnostics = []);
       Alcotest.(check bool) (what ^ ": complete report") false
         (Report.is_partial outcome.Supervisor.sv_report);
       Alcotest.(check int) (what ^ ": both flows found") 2
         (issue_count outcome))
    [ ("unfaulted", ignore, 0);
      ( "stalled tabulation",
        (fun () ->
           Fault.arm ~action:(Fault.Stall 0.05) Fault.site_tabulation
             ~after:1),
        1 ) ]

let suite =
  [ Alcotest.test_case "budget deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget cancel" `Quick test_budget_cancel;
    Alcotest.test_case "budget steps" `Quick test_budget_steps;
    Alcotest.test_case "budget unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "ladder order" `Quick test_ladder_order;
    Alcotest.test_case "fault in parse contained" `Quick test_fault_parse;
    Alcotest.test_case "fault in pointer contained" `Quick test_fault_andersen;
    Alcotest.test_case "fault in sdg contained" `Quick test_fault_sdg;
    Alcotest.test_case "fault in tabulation contained" `Quick
      test_fault_tabulation;
    Alcotest.test_case "fault in heap transition contained" `Quick
      test_fault_heap;
    Alcotest.test_case "one-shot fault recovers via ladder" `Quick
      test_oneshot_fault_recovers_via_ladder;
    Alcotest.test_case "persistent fault exhausts ladder" `Quick
      test_persistent_fault_exhausts_ladder;
    Alcotest.test_case "no-degrade fails fast" `Quick test_no_degrade_fails_fast;
    Alcotest.test_case "rule fault is isolated" `Quick
      test_rule_fault_is_isolated;
    Alcotest.test_case "expired deadline yields partial report" `Quick
      test_expired_deadline_yields_partial_report;
    Alcotest.test_case "cancellation yields partial report" `Quick
      test_cancellation_yields_partial_report;
    Alcotest.test_case "unfaulted run is complete" `Quick
      test_unfaulted_run_is_complete ]
