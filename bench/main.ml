(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) over the synthetic benchmark suite, plus the ablation
   studies for the bounded-analysis techniques of §6.

   Subcommands:
     table1         settings matrix of the five configurations
     table2         application statistics (paper vs generated)
     table3         issues & running time per configuration per app
     figure4        true/false-positive classification on the scored apps
     summary        the §7.2 aggregate claims (accuracy, ratios, FNs)
     ablate-flowlen flow length vs truth (§6.2.2)
     ablate-depth   nested-taint depth sweep (§6.2.3)
     ablate-budget  priority-driven vs chaotic under a CG budget (§6.1)
     ablate-bound-kind  heap-transition vs no-heap-SDG step bound (§6.2.1)
     scaling        analysis cost vs application size
     securibench    the micro-benchmark suite per configuration
     inventory      per-app analysis statistics
     csv            export table3.csv / figure4.csv
     all            everything above (default)

   Options: --scale <float> (default 0.05) scales workload sizes and the
   published bounds together; --jobs <int> (default 1) runs the per-app
   table rows on that many domains, with output identical to --jobs 1
   (each analysis itself runs sequentially); --refine switches on the
   access-path flow-refinement pass, so table3/csv rows carry
   confirmed/plausible verdict counts; --trace <file> writes a Chrome
   trace-event JSON of the whole bench run; --metrics prints the
   telemetry metrics table on stderr. *)

open Core
open Workloads

let scale = ref 0.05
let jobs = ref 1
let refine = ref false
let trace = ref None
let metrics = ref false

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let algorithms = Config.all_algorithms

let alg_label = function
  | Config.Hybrid_unbounded -> "Hybrid/Unbounded"
  | Config.Hybrid_prioritized -> "Hybrid/Prioritized"
  | Config.Hybrid_optimized -> "Hybrid/Optimized"
  | Config.Cs_thin_slicing -> "CS"
  | Config.Ci_thin_slicing -> "CI"
  | Config.Type_triage -> "Triage"

(* Phase attribution for failure rows: wrap each pipeline step so a failed
   app's row can say *which* phase raised, not just that something did. *)
exception Phase_failure of string * exn

let run_phase phase f =
  try f () with
  | Phase_failure _ as pf -> raise pf
  | e -> raise (Phase_failure (phase, e))

let failure_row name ~phase err =
  Printf.sprintf "%-13s (failed during %s: %s)" name phase err

(* per-app fault isolation: one app whose generation or analysis raises
   becomes a failure row (naming the failed phase) instead of killing the
   whole table. Rows are computed on worker domains, which must not
   interleave prints, so the row is returned as a string and the main
   domain prints everything in app order. *)
let protected_row name f =
  try f () with
  | Phase_failure (phase, e) ->
    failure_row name ~phase (Printexc.to_string e)
  | e -> failure_row name ~phase:"analysis" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Settings Used for the Evaluated Algorithms";
  Printf.printf "%-20s %8s %9s %10s %9s %7s %7s\n" "configuration" "models"
    "priority" "cg-bound" "heap-cap" "len<=" "depth";
  List.iter
    (fun alg ->
       let c = Config.preset ~scale:!scale alg in
       let opt = function Some v -> string_of_int v | None -> "-" in
       Printf.printf "%-20s %8s %9s %10s %9s %7s %7s\n" (alg_label alg) "yes"
         (if c.Config.prioritized then "yes" else "-")
         (opt c.Config.max_cg_nodes)
         (opt c.Config.max_heap_transitions)
         (opt c.Config.max_flow_length)
         (if c.Config.nested_taint_depth < 0 then "inf"
          else string_of_int c.Config.nested_taint_depth))
    algorithms;
  Printf.printf
    "(bounds scaled by %.2f from the paper's 20000/20000/14/2; all\n\
    \ configurations use the synthetic library models of Section 4)\n"
    !scale

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: Statistics on the Applications (paper -> generated)";
  Printf.printf "%-14s %-12s | %21s | %31s\n" "" ""
    "paper (app scope)" "generated stand-in";
  Printf.printf "%-14s %-12s | %6s %6s %7s | %7s %7s %7s %7s\n" "application"
    "version" "files" "class" "methods" "classes" "methods" "instrs" "lines";
  let row (a : Apps.app) =
    protected_row a.Apps.name @@ fun () ->
    let g = run_phase "generate" (fun () -> Apps.generate ~scale:!scale a) in
    let loaded =
      run_phase "frontend" (fun () -> Taj.load (Codegen.to_input g))
    in
    let st = Jir.Program.stats loaded.Taj.program in
    Printf.sprintf "%-14s %-12s | %6d %6d %7d | %7d %7d %7d %7d"
      a.Apps.name a.Apps.version a.Apps.files a.Apps.classes_app
      a.Apps.methods_app st.Jir.Program.st_app_classes
      st.Jir.Program.st_app_methods st.Jir.Program.st_instrs
      (Codegen.line_count g)
  in
  List.iter print_endline (Parallel.map ~jobs:!jobs row Apps.table2)

(* ------------------------------------------------------------------ *)
(* Table 3                                                            *)
(* ------------------------------------------------------------------ *)

let paper_cell (p : Apps.paper_result) =
  match p.Apps.pr_issues, p.Apps.pr_seconds with
  | Some i, Some s -> Printf.sprintf "%d/%ds" i s
  | _ -> "-"

let run_cell (r : Score.run) =
  if not r.Score.r_completed then "-"
  else
    match r.Score.r_refined with
    | Some rf ->
      (* refinement ran: show how many of the issues were Confirmed *)
      Printf.sprintf "%d(%dc)/%.2fs" r.Score.r_issues
        rf.Score.confirmed_issues r.Score.r_seconds
    | None -> Printf.sprintf "%d/%.2fs" r.Score.r_issues r.Score.r_seconds

let table3 () =
  header "Table 3: Issues and Time per Configuration (ours [paper])";
  Printf.printf "%-13s %s\n\n" ""
    "cells: issues/time [paper-issues/paper-time]; '-' = did not complete";
  Printf.printf "%-13s %-20s %-20s %-20s %-17s %-17s\n" "application"
    "Hybrid/Unb" "Hybrid/Prio" "Hybrid/Opt" "CS" "CI";
  let totals = Hashtbl.create 8 in
  let add alg v =
    let prev = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals alg) in
    Hashtbl.replace totals alg (fst prev +. v, snd prev + 1)
  in
  (* the expensive part (five analyses per app) runs one app per worker;
     printing and the totals fold stay on the main domain, in app order *)
  let results =
    Parallel.map ~jobs:!jobs
      (fun a -> (a, Score.run_app_result ~scale:!scale ~refine:!refine a))
      Apps.table2
  in
  List.iter
    (fun ((a : Apps.app), res) ->
       match res with
       | Error (phase, err) ->
         print_endline (failure_row a.Apps.name ~phase err)
       | Ok runs ->
         let cell alg paper =
           match List.find_opt (fun r -> r.Score.r_algorithm = alg) runs with
           | Some r ->
             if r.Score.r_completed then add alg r.Score.r_seconds;
             Printf.sprintf "%s [%s]" (run_cell r) (paper_cell paper)
           | None -> "?"
         in
         Printf.printf "%-13s %-20s %-20s %-20s %-17s %-17s\n" a.Apps.name
           (cell Config.Hybrid_unbounded a.Apps.paper.Apps.unbounded)
           (cell Config.Hybrid_prioritized a.Apps.paper.Apps.prioritized)
           (cell Config.Hybrid_optimized a.Apps.paper.Apps.optimized)
           (cell Config.Cs_thin_slicing a.Apps.paper.Apps.cs)
           (cell Config.Ci_thin_slicing a.Apps.paper.Apps.ci))
    results;
  Printf.printf "\naverage completed-run time:\n";
  List.iter
    (fun alg ->
       match Hashtbl.find_opt totals alg with
       | Some (total, n) when n > 0 ->
         Printf.printf "  %-20s %.3fs over %d apps\n" (alg_label alg)
           (total /. float_of_int n) n
       | _ -> Printf.printf "  %-20s (no completed runs)\n" (alg_label alg))
    algorithms

(* ------------------------------------------------------------------ *)
(* Figure 4                                                           *)
(* ------------------------------------------------------------------ *)

let bar ch n = String.make (min 60 n) ch

let figure4 () =
  header "Figure 4: True/False Positives on the Scored Benchmarks";
  let results =
    Parallel.map ~jobs:!jobs
      (fun a -> (a, Score.run_app_result ~scale:!scale a))
      Apps.scored_apps
  in
  List.iter
    (fun ((a : Apps.app), res) ->
       Printf.printf "\n--- %s ---\n" a.Apps.name;
       match res with
       | Error (phase, err) ->
         print_endline (failure_row a.Apps.name ~phase err)
       | Ok runs ->
         List.iter
           (fun (r : Score.run) ->
              match r.Score.r_classification with
              | None ->
                Printf.printf "  %-20s (did not complete)\n"
                  (alg_label r.Score.r_algorithm)
              | Some c ->
                Printf.printf "  %-20s TP %3d %s\n"
                  (alg_label r.Score.r_algorithm)
                  c.Score.true_positives (bar '#' c.Score.true_positives);
                Printf.printf "  %-20s FP %3d %s\n" ""
                  c.Score.false_positives (bar '.' c.Score.false_positives))
           runs)
    results

(* ------------------------------------------------------------------ *)
(* Summary of the 7.2 claims                                          *)
(* ------------------------------------------------------------------ *)

let summary () =
  header "Section 7.2 aggregate claims (measured on the scored apps)";
  let all_runs =
    Parallel.map ~jobs:!jobs
      (fun a -> (a, Score.run_app ~scale:!scale a))
      Apps.scored_apps
  in
  let agg alg =
    List.fold_left
      (fun (tp, fp, fn, time, n, dnc) (_, runs) ->
         match List.find_opt (fun r -> r.Score.r_algorithm = alg) runs with
         | Some r ->
           (match r.Score.r_classification with
            | Some c ->
              ( tp + c.Score.true_positives,
                fp + c.Score.false_positives,
                fn + c.Score.false_negatives,
                time +. r.Score.r_seconds, n + 1, dnc )
            | None -> (tp, fp, fn, time, n, dnc + 1))
         | None -> (tp, fp, fn, time, n, dnc))
      (0, 0, 0, 0.0, 0, 0) all_runs
  in
  Printf.printf "%-20s %5s %5s %5s %9s %10s %5s\n" "configuration" "TP" "FP"
    "FN" "accuracy" "avg-time" "DNC";
  List.iter
    (fun alg ->
       let tp, fp, fn, time, n, dnc = agg alg in
       let acc =
         if tp + fp = 0 then 0.0
         else float_of_int tp /. float_of_int (tp + fp)
       in
       Printf.printf "%-20s %5d %5d %5d %9.2f %9.3fs %5d\n" (alg_label alg)
         tp fp fn acc
         (if n = 0 then 0.0 else time /. float_of_int n)
         dnc)
    algorithms;
  Printf.printf
    "\npaper's accuracy scores: hybrid-unbounded 0.35, CS 0.54, CI 0.22\n";
  Printf.printf
    "paper's CS false negatives: BlueBlog 2, I 1, SBM 2 (thread flows)\n";
  List.iter
    (fun (a, runs) ->
       match
         List.find_opt
           (fun r -> r.Score.r_algorithm = Config.Cs_thin_slicing)
           runs
       with
       | Some { Score.r_classification = Some c; _ }
         when c.Score.false_negatives > 0 ->
         Printf.printf "measured CS false negatives on %-10s %d\n"
           a.Apps.name c.Score.false_negatives
       | _ -> ())
    all_runs

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let attribute_flow truth builder (fl : Flows.t) =
  let m = Sdg.Builder.node_meth builder fl.Flows.fl_sink.Sdg.Stmt.node in
  Ground_truth.attribute truth ~cls:m.Jir.Tac.m_class ~meth:m.Jir.Tac.m_name

let ablate_flowlen () =
  header "Ablation (6.2.2): flow length vs probability of a true positive";
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (a : Apps.app) ->
       let g = Apps.generate ~scale:!scale a in
       let loaded = Taj.load (Codegen.to_input g) in
       match
         (Taj.run loaded (Config.preset ~scale:!scale Config.Hybrid_unbounded))
           .Taj.result
       with
       | Taj.Completed c ->
         List.iter
           (fun fl ->
              match attribute_flow g.Codegen.g_truth c.Taj.builder fl with
              | Some p ->
                let bucket = min 5 ((fl.Flows.fl_length - 1) / 4) in
                let t, f =
                  Option.value ~default:(0, 0) (Hashtbl.find_opt buckets bucket)
                in
                if p.Ground_truth.p_real then
                  Hashtbl.replace buckets bucket (t + 1, f)
                else Hashtbl.replace buckets bucket (t, f + 1)
              | None -> ())
           c.Taj.report.Report.raw_flows
       | Taj.Did_not_complete _ -> ())
    Apps.scored_apps;
  Printf.printf "%-14s %6s %6s %14s\n" "length bucket" "true" "false"
    "TP likelihood";
  List.iter
    (fun bucket ->
       match Hashtbl.find_opt buckets bucket with
       | Some (t, f) ->
         let label =
           if bucket >= 5 then ">20"
           else Printf.sprintf "%d-%d" (bucket * 4 + 1) (bucket * 4 + 4)
         in
         Printf.printf "%-14s %6d %6d %13.0f%%\n" label t f
           (100.0 *. float_of_int t /. float_of_int (max 1 (t + f)))
       | None -> ())
    [ 0; 1; 2; 3; 4; 5 ]

let ablate_depth () =
  header "Ablation (6.2.3): nested-taint depth bound";
  let sources =
    List.concat
      (List.init 3 (fun i ->
           let rng = Rng.create (i + 77) in
           [ (Patterns.carrier ~id:(100 + i) ~rng).Patterns.source;
             (Patterns.deep_carrier ~id:(200 + i) ~rng).Patterns.source ]))
  in
  let loaded =
    Taj.load { Taj.name = "depth-sweep"; app_sources = sources; descriptor = "" }
  in
  Printf.printf "%-7s %7s\n" "depth" "issues";
  List.iter
    (fun depth ->
       let config =
         { (Config.preset Config.Hybrid_unbounded) with
           Config.nested_taint_depth = depth }
       in
       match (Taj.run loaded config).Taj.result with
       | Taj.Completed c ->
         Printf.printf "%-7s %7d\n"
           (if depth < 0 then "inf" else string_of_int depth)
           (Report.issue_count c.Taj.report)
       | Taj.Did_not_complete _ -> Printf.printf "%-7d (dnc)\n" depth)
    [ 0; 1; 2; 3; 4; -1 ];
  Printf.printf
    "(shallow carriers are caught from depth 1; the 4-deep ones need >= 4;\n\
    \ the paper found depth 2 sufficient on real apps)\n"

let ablate_budget () =
  header "Ablation (6.1): priority-driven vs chaotic under a CG node budget";
  let a = Option.get (Apps.find "GridSphere") in
  let g = Apps.generate ~scale:!scale a in
  let loaded = Taj.load (Codegen.to_input g) in
  let truth = g.Codegen.g_truth in
  Printf.printf "%-9s %18s %18s\n" "budget" "prioritized TP/FN" "chaotic TP/FN";
  let tp_fn config =
    match (Taj.run loaded config).Taj.result with
    | Taj.Completed c ->
      let cl = Score.classify truth c.Taj.builder c.Taj.report in
      Printf.sprintf "%d/%d" cl.Score.true_positives cl.Score.false_negatives
    | Taj.Did_not_complete _ -> "-"
  in
  List.iter
    (fun budget ->
       let base = Config.preset ~scale:!scale Config.Hybrid_prioritized in
       let prio = { base with Config.max_cg_nodes = Some budget } in
       let fifo = { prio with Config.prioritized = false } in
       Printf.printf "%-9d %18s %18s\n" budget (tp_fn prio) (tp_fn fifo))
    [ 200; 400; 600; 800; 1000; 1500; 2000; 3000 ]

let inventory () =
  header "Analysis inventory per app (hybrid unbounded)";
  Printf.printf "%-14s %8s %8s %8s %9s %8s %9s\n" "application" "classes"
    "methods" "nodes" "edges" "sources" "flows";
  let row (a : Apps.app) =
    protected_row a.Apps.name @@ fun () ->
    let g = run_phase "generate" (fun () -> Apps.generate ~scale:!scale a) in
    let loaded =
      run_phase "frontend" (fun () -> Taj.load (Codegen.to_input g))
    in
    match
      (Taj.run loaded (Config.preset ~scale:!scale Config.Hybrid_unbounded))
        .Taj.result
    with
    | Taj.Completed c ->
      let st = Jir.Program.stats loaded.Taj.program in
      let seeds =
        List.fold_left
          (fun acc (rs : Engine.rule_stats) -> acc + rs.Engine.rs_seeds)
          0 c.Taj.outcome.Engine.rule_stats
      in
      Printf.sprintf "%-14s %8d %8d %8d %9d %8d %9d" a.Apps.name
        st.Jir.Program.st_app_classes st.Jir.Program.st_app_methods
        c.Taj.cg_nodes c.Taj.cg_edges seeds
        (Report.flow_count c.Taj.report)
    | Taj.Did_not_complete r ->
      Printf.sprintf "%-14s (did not complete: %s)" a.Apps.name r
  in
  List.iter print_endline (Parallel.map ~jobs:!jobs row Apps.table2)

(* RFC-4180 quoting: failure rows carry exception messages, which can
   contain commas, quotes or newlines and would otherwise shift every
   column after them. Clean fields pass through unquoted. *)
let csv_field = Obs.Csv.field

let csv () =
  header "CSV export: table3.csv and figure4.csv";
  let oc3 = open_out "table3.csv" in
  output_string oc3
    "app,algorithm,completed,issues,confirmed,plausible,seconds,t_frontend,\
     t_pointer,t_sdg,t_taint,cg_nodes,paper_issues,paper_seconds,\
     failed_phase,error\n";
  let oc4 = open_out "figure4.csv" in
  output_string oc4 "app,algorithm,tp,fp,fn,accuracy\n";
  let results =
    Parallel.map ~jobs:!jobs
      (fun a -> (a, Score.run_app_result ~scale:!scale ~refine:!refine a))
      Apps.table2
  in
  List.iter
    (fun ((a : Apps.app), res) ->
       match res with
       | Error (phase, err) ->
         (* a failed app still gets a machine-readable row: every
            per-algorithm field is empty/false, failed_phase says where
            the pipeline died and error carries the (quoted) message *)
         Printf.fprintf oc3 "%s,,false,0,,,0,,,,,0,,,%s,%s\n"
           (csv_field a.Apps.name) (csv_field phase) (csv_field err)
       | Ok runs ->
         List.iter
           (fun (r : Score.run) ->
              let paper =
                match r.Score.r_algorithm with
                | Config.Hybrid_unbounded -> a.Apps.paper.Apps.unbounded
                | Config.Hybrid_prioritized -> a.Apps.paper.Apps.prioritized
                | Config.Hybrid_optimized -> a.Apps.paper.Apps.optimized
                | Config.Cs_thin_slicing -> a.Apps.paper.Apps.cs
                | Config.Ci_thin_slicing -> a.Apps.paper.Apps.ci
                | Config.Type_triage -> a.Apps.paper.Apps.ci
              in
              let popt = function Some v -> string_of_int v | None -> "" in
              (* per-phase telemetry times; empty on did-not-complete rows *)
              let phases =
                match r.Score.r_phases with
                | Some t ->
                  Printf.sprintf "%.4f,%.4f,%.4f,%.4f" t.Taj.t_frontend
                    t.Taj.t_pointer t.Taj.t_sdg t.Taj.t_taint
                | None -> ",,,"
              in
              (* verdict columns stay empty unless --refine ran *)
              let confirmed, plausible =
                match r.Score.r_refined with
                | Some rf ->
                  ( string_of_int rf.Score.confirmed_issues,
                    string_of_int rf.Score.plausible_issues )
                | None -> ("", "")
              in
              Printf.fprintf oc3 "%s,%s,%b,%d,%s,%s,%.4f,%s,%d,%s,%s,,\n"
                (csv_field a.Apps.name)
                (Config.algorithm_name r.Score.r_algorithm)
                r.Score.r_completed r.Score.r_issues (csv_field confirmed)
                (csv_field plausible) r.Score.r_seconds phases
                r.Score.r_cg_nodes
                (popt paper.Apps.pr_issues)
                (popt paper.Apps.pr_seconds);
              if a.Apps.scored then
                match r.Score.r_classification with
                | Some c ->
                  Printf.fprintf oc4 "%s,%s,%d,%d,%d,%.3f\n"
                    (csv_field a.Apps.name)
                    (Config.algorithm_name r.Score.r_algorithm)
                    c.Score.true_positives c.Score.false_positives
                    c.Score.false_negatives (Score.accuracy c)
                | None -> ())
           runs)
    results;
  close_out oc3;
  close_out oc4;
  Printf.printf "wrote table3.csv and figure4.csv (scale %.2f)\n" !scale

let securibench () =
  header "SecuriBench-Micro-style suite: reported issues per configuration";
  Printf.printf "%-18s %5s | %4s %4s %4s %4s %4s\n" "case" "vuln" "Unb"
    "Prio" "Opt" "CS" "CI";
  let totals = Hashtbl.create 8 in
  let per_case =
    Parallel.map ~jobs:!jobs
      (fun (c : Securibench.case) ->
         List.map (fun alg -> Securibench.run_case ~algorithm:alg c) algorithms)
      Securibench.cases
  in
  List.iter2
    (fun (c : Securibench.case) results ->
       List.iter2
         (fun alg got ->
            let exp, match_ =
              Option.value ~default:(0, 0) (Hashtbl.find_opt totals alg)
            in
            Hashtbl.replace totals alg
              (exp + 1, match_ + if got = c.Securibench.sb_expected then 1 else 0))
         algorithms results;
       Printf.printf "%-18s %5d | %4s\n" c.Securibench.sb_name
         c.Securibench.sb_vulnerable
         (String.concat "  "
            (List.map (fun r -> if r < 0 then "-" else string_of_int r) results)))
    Securibench.cases per_case;
  Printf.printf "\nagreement with the hybrid-expected counts:\n";
  List.iter
    (fun alg ->
       match Hashtbl.find_opt totals alg with
       | Some (n, m) ->
         Printf.printf "  %-20s %d/%d cases\n" (alg_label alg) m n
       | None -> ())
    algorithms

let scaling () =
  header "Scaling: hybrid analysis cost vs application size";
  Printf.printf
    "(the paper's scalability claim: TAJ analyzes applications of\n\
    \ virtually any size; hybrid cost should grow near-linearly)\n\n";
  Printf.printf "%-8s %9s %9s %10s %10s %10s %10s\n" "scale" "methods"
    "cg-nodes" "frontend" "triage" "hybrid" "ci";
  let a = Option.get (Apps.find "GridSphere") in
  (* rows stay sequential so each row's timing is uncontended *)
  List.iter
    (fun s ->
       let g = Apps.generate ~scale:s a in
       let loaded, t_frontend =
         Obs.Telemetry.timed (fun () -> Taj.load (Codegen.to_input g))
       in
       let st = Jir.Program.stats loaded.Taj.program in
       let _, t_triage =
         Obs.Telemetry.timed (fun () ->
           Taj.triage ~rules:Rules.default_rules loaded)
       in
       let time_of alg =
         match
           Obs.Telemetry.timed (fun () ->
             (Taj.run loaded (Config.preset ~scale:s alg)).Taj.result)
         with
         | Taj.Completed c, t -> (t, c.Taj.cg_nodes)
         | Taj.Did_not_complete _, _ -> (nan, 0)
       in
       let t_hybrid, nodes = time_of Config.Hybrid_unbounded in
       let t_ci, _ = time_of Config.Ci_thin_slicing in
       Printf.printf "%-8.3f %9d %9d %9.3fs %9.3fs %9.3fs %9.3fs\n" s
         st.Jir.Program.st_app_methods nodes t_frontend t_triage t_hybrid t_ci)
    [ 0.02; 0.05; 0.1; 0.2; 0.4 ]

let ablate_bound_kind () =
  header
    "Ablation (6.2.1): heap-transition bound vs no-heap-SDG step bound";
  Printf.printf
    "(the paper: \"limiting the number of heap transitions yields better\n\
    \ overall results\" — both bounds at equal fractions of the unbounded\n\
    \ run's consumption, on the GridSphere stand-in)\n\n";
  let a = Option.get (Apps.find "GridSphere") in
  let g = Apps.generate ~scale:!scale a in
  let loaded = Taj.load (Codegen.to_input g) in
  let truth = g.Codegen.g_truth in
  let base = Config.preset ~scale:!scale Config.Hybrid_unbounded in
  (* measure the unbounded run's consumption *)
  match (Taj.run loaded base).Taj.result with
  | Taj.Did_not_complete _ -> print_endline "(unbounded run failed)"
  | Taj.Completed c0 ->
    let heap_total, step_total =
      List.fold_left
        (fun (h, s) (rs : Engine.rule_stats) ->
           (h + rs.Engine.rs_heap_transitions, s + rs.Engine.rs_visited))
        (0, 0) c0.Taj.outcome.Engine.rule_stats
    in
    Printf.printf "unbounded consumption: %d heap transitions, ~%d steps\n\n"
      heap_total step_total;
    Printf.printf "%-10s %20s %20s\n" "fraction" "heap-bound TP/FN"
      "step-bound TP/FN";
    let tp_fn config =
      match (Taj.run loaded config).Taj.result with
      | Taj.Completed c ->
        let cl = Score.classify truth c.Taj.builder c.Taj.report in
        Printf.sprintf "%d/%d" cl.Score.true_positives
          cl.Score.false_negatives
      | Taj.Did_not_complete _ -> "-"
    in
    List.iter
      (fun pct ->
         let frac v = max 1 (v * pct / 100) in
         let heap_cfg =
           { base with
             Config.max_heap_transitions = Some (frac heap_total) }
         in
         let step_cfg =
           { base with Config.max_slice_steps = Some (frac step_total) }
         in
         Printf.printf "%9d%% %20s %20s\n" pct (tp_fn heap_cfg)
           (tp_fn step_cfg))
      [ 10; 25; 50; 75; 100 ]

let () =
  let args = Array.to_list Sys.argv in
  let rec parse cmds = function
    | [] -> cmds
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse cmds rest
    | "--jobs" :: v :: rest ->
      jobs := max 1 (int_of_string v);
      parse cmds rest
    | "--refine" :: rest ->
      refine := true;
      parse cmds rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse cmds rest
    | "--metrics" :: rest ->
      metrics := true;
      parse cmds rest
    | cmd :: rest -> parse (cmd :: cmds) rest
  in
  let cmds = List.rev (parse [] (List.tl args)) in
  let cmds = if cmds = [] then [ "all" ] else cmds in
  if !trace <> None || !metrics then Obs.Telemetry.enable ();
  let dispatch = function
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "table3" -> table3 ()
    | "figure4" -> figure4 ()
    | "summary" -> summary ()
    | "ablate-flowlen" -> ablate_flowlen ()
    | "ablate-depth" -> ablate_depth ()
    | "ablate-budget" -> ablate_budget ()
    | "ablate-bound-kind" -> ablate_bound_kind ()
    | "scaling" -> scaling ()
    | "securibench" -> securibench ()
    | "csv" -> csv ()
    | "inventory" -> inventory ()
    | "all" ->
      table1 (); table2 (); table3 (); figure4 (); summary ();
      ablate_flowlen (); ablate_depth (); ablate_budget ();
      ablate_bound_kind (); scaling (); inventory ();
      securibench ()
    | other ->
      Printf.eprintf "unknown subcommand %s\n" other;
      exit 2
  in
  List.iter dispatch cmds;
  (match !trace with
   | Some path ->
     Obs.Telemetry.write_trace path;
     Printf.eprintf "trace written to %s\n" path
   | None -> ());
  if !metrics then Fmt.epr "%a@." Obs.Telemetry.pp_metrics ()
