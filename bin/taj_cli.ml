(* taj — command-line front end for the TAJ taint analysis.

   Subcommands:
     analyze   run taint analysis over .mjava source files
     dump-ir   print the SSA IR of a compiled program
     generate  emit one of the 22 synthetic benchmark applications
     apps      list the benchmark applications
     score     generate an app, analyze it and score against ground truth *)

open Cmdliner
open Core

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let algorithm_conv =
  let parse s =
    match Config.algorithm_of_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
           "expected one of: hybrid, prioritized, optimized, cs, ci, \
            triage")
  in
  let print ppf a = Fmt.string ppf (Config.algorithm_name a) in
  Arg.conv (parse, print)

let algorithm =
  let doc =
    "Analysis configuration: hybrid (unbounded), prioritized, optimized, \
     cs, ci, or triage (the type-qualifier rung zero: findings without \
     flow paths)."
  in
  Arg.(value & opt algorithm_conv Config.Hybrid_optimized
       & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let scale =
  let doc = "Scale factor for workload sizes and analysis bounds." in
  Arg.(value & opt float 0.05 & info [ "scale" ] ~docv:"FLOAT" ~doc)

let descriptor_file =
  let doc = "Deployment descriptor file (servlet/action/ejb lines)." in
  Arg.(value & opt (some file) None & info [ "d"; "descriptor" ] ~docv:"FILE" ~doc)

let trace_file =
  let doc =
    "Record a span trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (loadable at chrome://tracing or ui.perfetto.dev). \
     Under taj serve, each worker domain gets its own track."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_flag =
  let doc =
    "Collect telemetry metrics (pointer propagations, SDG memo hit rates, \
     tabulation steps, ...) and print them as a table on stderr after the \
     run. With --json the metrics are also embedded in the JSON output."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let refine_flag =
  let doc =
    "Replay each reported flow with the field-sensitive access-path \
     refinement and classify it: $(b,confirmed) (the replay found a \
     complete field-sensitive witness) or $(b,plausible) (it did not, or \
     ran out of budget). Flows are demoted, never dropped."
  in
  Arg.(value & flag & info [ "refine" ] ~doc)

let refine_k =
  let doc = "Access-path depth bound for --refine." in
  Arg.(value & opt int 3 & info [ "refine-k" ] ~docv:"K" ~doc)

let refine_steps =
  let doc =
    "Per-flow replay step budget for --refine; exhaustion demotes the \
     flow to plausible."
  in
  Arg.(value & opt int 4096 & info [ "refine-steps" ] ~docv:"N" ~doc)

let with_refine cfg ~refine ~refine_k ~refine_steps =
  { cfg with Config.refine; refine_k; refine_steps }

let contexts_flag =
  let doc =
    "Context-sensitive sanitization (record-and-judge): propagate taint \
     through sanitizers instead of stopping at them, reconstruct the \
     string template of each sink value interprocedurally, and judge \
     every sanitizer on the path against the sink's syntactic context \
     (html-text, html-attribute, sql-quoted, sql-raw, path, shell). \
     Correctly-sanitized flows are dropped as before; flows whose \
     sanitizer does not protect the computed context are reported as \
     $(b,mismatched-sanitizer) with the applied/required pair."
  in
  Arg.(value & flag & info [ "contexts" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist and reuse the incremental analysis cache in $(docv): parsed \
     units, the frontend product, per-method def/use summaries and the \
     final report of each clean run, each keyed by content digests. A \
     re-run reuses every product whose inputs are unchanged; a comment or \
     whitespace edit still hits everything past the parser. $(b,analyze) \
     never answers from a stored report, while $(b,serve) answers a \
     request whose report is stored without analyzing. A corrupted store \
     file is discarded with a diagnostic and the run proceeds cold."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

(* the session (when caching is on) carries the open store and the hooks
   threaded into the supervisor; the caller commits it after the run *)
let cache_session ~cache_dir ~app =
  match cache_dir with
  | None -> None
  | Some dir ->
    let s = Cache.Incr.start (Cache.Incr.create ~dir) ~app in
    (match Cache.Incr.corruption s with
     | Some d -> Fmt.epr "%a@." Diagnostics.pp_degradation d
     | None -> ());
    Some s

(* Telemetry stays off (single-atomic-load probes) unless one of the
   observability flags asks for it. *)
let telemetry_setup ~trace ~metrics =
  if trace <> None || metrics then Obs.Telemetry.enable ()

let telemetry_export ~trace ~metrics =
  (match trace with
   | Some path ->
     Obs.Telemetry.write_trace path;
     Printf.eprintf "trace written to %s\n" path
   | None -> ());
  if metrics then Fmt.epr "%a@." Obs.Telemetry.pp_metrics ()

let sources =
  let doc = "MJava source files to analyze." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)

let app_name =
  let doc = "Benchmark application name (see 'taj apps')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* EINTR-safe whole-file read: a drain signal arriving mid-read must not
   surface as a load failure. *)
let read_file = Io.read_file

let load_input ~name ~srcs ~descriptor_file =
  { Taj.name;
    app_sources = List.map read_file srcs;
    descriptor =
      (match descriptor_file with Some f -> read_file f | None -> "") }

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)
(* ------------------------------------------------------------------ *)

(* The report as one JSON line; its metrics block is admin
   metrics.json's object. *)
let emit_json outcome =
  let metrics =
    if Obs.Telemetry.enabled () then
      Some (Obs.Export.json_of (Obs.Telemetry.metrics ()))
    else None
  in
  print_endline (Obs.Json.to_string (Supervisor.json ?metrics outcome))

let analyze_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print analysis statistics to stderr.")
  in
  let csrf =
    Arg.(value & flag
         & info [ "csrf" ]
             ~doc:"Also run the CSRF reachability check on GET handlers.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Wall-clock deadline for the whole analysis. On expiry \
                mid-phase the flows found so far are reported as a partial \
                result (exit status 4).")
  in
  let no_degrade =
    Arg.(value & flag
         & info [ "no-degrade" ]
             ~doc:
               "Fail fast when a budget is exhausted instead of retrying \
                with progressively stricter bounded configurations.")
  in
  let verify_ir =
    Arg.(value & flag
         & info [ "verify-ir" ]
             ~doc:
               "Verify IR well-formedness (branch/register ranges, SSA \
                single assignment and def-before-use) after loading — \
                i.e. after the reflection and exception rewrites. Any \
                violation is printed, emitted in the JSON diagnostics \
                block, and exits with status 6.")
  in
  let no_triage_filter =
    Arg.(value & flag
         & info [ "no-triage-filter" ]
             ~doc:
               "Disable the triage pre-filter that skips \
                provably-untaint-reachable methods during dependence-graph \
                construction and rules with no matched source. The report \
                is byte-identical either way; this exists for \
                cross-checking and for timing the filter's effect.")
  in
  let run algorithm scale descriptor_file srcs json stats csrf deadline
      no_degrade verify_ir no_triage_filter refine refine_k refine_steps
      contexts trace metrics cache_dir =
    let input = load_input ~name:"cli" ~srcs ~descriptor_file in
    let session = cache_session ~cache_dir ~app:input.Taj.name in
    let options =
      { Supervisor.default_options with
        deadline;
        degrade = not no_degrade;
        scale;
        cache =
          (match session with
           | Some s -> Cache.Incr.hooks s
           | None -> Cache_iface.none) }
    in
    telemetry_setup ~trace ~metrics;
    (* --stats percentiles come from the telemetry histograms, so stats
       implies recording *)
    if stats then Obs.Telemetry.enable ();
    if verify_ir then begin
      let loaded =
        match Taj.load ~lenient:true input with
        | loaded -> loaded
        | exception Taj.Load_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      in
      match Jir.Verify.check_program loaded.Taj.program with
      | [] -> Printf.eprintf "IR verification passed\n"
      | violations ->
        Printf.eprintf "IR verification failed (%d violation(s)):\n"
          (List.length violations);
        List.iter
          (fun v -> Fmt.epr "  %a@." Jir.Verify.pp_violation v)
          violations;
        if json then begin
          let events =
            List.map
              (fun (v : Jir.Verify.violation) ->
                 Diagnostics.Ir_violation
                   { meth = v.Jir.Verify.v_method;
                     where = v.Jir.Verify.v_where;
                     message = v.Jir.Verify.v_message })
              violations
          in
          let outcome =
            { Supervisor.sv_analysis = None;
              sv_report = Report.empty ~completeness:(Report.Partial events);
              sv_triage = None;
              sv_diagnostics = events;
              sv_attempts = [];
              sv_elapsed = 0.0 }
          in
          emit_json outcome
        end;
        telemetry_export ~trace ~metrics;
        exit 6
    end;
    let config =
      { (with_refine (Config.preset ~scale algorithm) ~refine ~refine_k
           ~refine_steps)
        with
        Config.contexts = contexts;
        triage_filter = not no_triage_filter }
    in
    let outcome = Supervisor.run ~options ~config input in
    (* persist the content-keyed tiers only: [analyze] never answers from
       the result tier, so a stored report would never be read *)
    Option.iter (fun s -> Cache.Incr.commit s) session;
    (* export before the exit-code branches so a partial or failed run
       still yields its trace and metrics *)
    telemetry_export ~trace ~metrics;
    let degradations = outcome.Supervisor.sv_diagnostics in
    match outcome.Supervisor.sv_triage with
    | Some v ->
      (* the run answered at rung zero — requested (-a triage) or after
         every slicing rung failed: type-level findings, no flow paths *)
      let findings = Triage.findings v in
      if json then emit_json outcome
      else begin
        Printf.printf
          "TYPE_ONLY RESULT — type-qualifier triage, no flow paths (%d \
           finding(s))\n"
          (List.length findings);
        List.iter (fun f -> Fmt.pr "  %a@." Triage.pp_finding f) findings
      end;
      if degradations <> [] then begin
        Printf.eprintf "analysis degraded (%d event(s)):\n"
          (List.length degradations);
        List.iter
          (fun d -> Fmt.epr "  %a@." Diagnostics.pp_degradation d)
          degradations
      end;
      exit 5
    | None ->
    match outcome.Supervisor.sv_analysis with
    | None ->
      (* even the lenient frontend could not produce a program *)
      Printf.eprintf "error: analysis could not start\n";
      List.iter
        (fun d -> Fmt.epr "  %a@." Diagnostics.pp_degradation d)
        degradations;
      if json then emit_json outcome;
      exit 1
    | Some { Taj.result = Taj.Did_not_complete reason; _ } ->
      Printf.eprintf "analysis did not complete: %s\n" reason;
      List.iter
        (fun d -> Fmt.epr "  %a@." Diagnostics.pp_degradation d)
        degradations;
      if json then emit_json outcome;
      exit 3
    | Some ({ Taj.result = Taj.Completed c; _ } as analysis) ->
      if stats then begin
        Printf.eprintf
          "call-graph: %d nodes, %d edges; frontend %.3fs, pointer %.3fs, \
           sdg %.3fs, taint %.3fs, total %.3fs\n"
          c.Taj.cg_nodes c.Taj.cg_edges
          c.Taj.times.Taj.t_frontend c.Taj.times.Taj.t_pointer
          c.Taj.times.Taj.t_sdg c.Taj.times.Taj.t_taint
          c.Taj.times.Taj.t_total;
        (* distribution shape of every histogram the run populated *)
        List.iter
          (fun (name, v) ->
             match v with
             | Obs.Telemetry.V_histogram h
               when h.Obs.Telemetry.hs_count > 0 ->
               Printf.eprintf
                 "  %s: n %d, max %d, p50 %d, p95 %d, p99 %d\n" name
                 h.Obs.Telemetry.hs_count h.Obs.Telemetry.hs_max
                 (Obs.Telemetry.snapshot_quantile h 0.50)
                 (Obs.Telemetry.snapshot_quantile h 0.95)
                 (Obs.Telemetry.snapshot_quantile h 0.99)
             | _ -> ())
          (Obs.Telemetry.metrics ())
      end;
      (* supervisor-level events (downgrades etc.) that are not already
         part of the report's partial block go to stderr *)
      if degradations <> [] && not (Report.is_partial c.Taj.report) then begin
        Printf.eprintf "analysis degraded (%d event(s)):\n"
          (List.length degradations);
        List.iter
          (fun d -> Fmt.epr "  %a@." Diagnostics.pp_degradation d)
          degradations
      end;
      if json then
        emit_json outcome
      else begin
        Fmt.pr "%a@." (Report.pp c.Taj.builder) c.Taj.report;
        (* string-context diagnostics where a template is recoverable *)
        List.iter
          (fun ir ->
             match
               Sanitize.diagnose c.Taj.builder ir.Report.ir_representative
             with
             | Some d ->
               Fmt.pr "  context [%s]: %s@."
                 (Rules.issue_name ir.Report.ir_issue) d
             | None -> ())
          c.Taj.report.Report.issues
      end;
      let csrf_findings =
        if csrf then begin
          let fs =
            Csrf.detect ~prog:analysis.Taj.loaded.Taj.program
              ~builder:c.Taj.builder c.Taj.andersen
          in
          List.iter
            (fun f -> Fmt.pr "%a@." (Csrf.pp_finding c.Taj.builder) f)
            fs;
          List.length fs
        end
        else 0
      in
      if Report.is_partial c.Taj.report then exit 4;
      if Report.issue_count c.Taj.report > 0 || csrf_findings > 0 then exit 2
  in
  let doc = "Run taint analysis over MJava sources." in
  let man =
    [ `S Manpage.s_exit_status;
      `P "0 on a clean, complete analysis with no findings.";
      `P "1 if the sources could not be loaded at all.";
      `P "2 if the analysis completed and reported issues.";
      `P
        "3 if no configuration on the degradation ladder completed \
         (the CS fate on large applications).";
      `P
        "4 if the deadline expired mid-phase: the report holds the flows \
         found so far and is explicitly partial.";
      `P
        "5 if the run answered at the type-triage rung zero — requested \
         with -a triage, or because every slicing rung failed: the \
         findings are type-level, with no flow paths.";
      `P "6 if --verify-ir found IR well-formedness violations." ]
  in
  Cmd.v (Cmd.info "analyze" ~doc ~man)
    Term.(const run $ algorithm $ scale $ descriptor_file $ sources
          $ json $ stats $ csrf $ deadline $ no_degrade $ verify_ir
          $ no_triage_filter $ refine_flag $ refine_k $ refine_steps
          $ contexts_flag $ trace_file $ metrics_flag $ cache_dir_arg)

(* ------------------------------------------------------------------ *)
(* dump-ir                                                            *)
(* ------------------------------------------------------------------ *)

let dump_ir_cmd =
  let meth_filter =
    Arg.(value & opt (some string) None
         & info [ "m"; "method" ] ~docv:"ID"
             ~doc:"Only print the method with this id (Class.name/arity).")
  in
  let run descriptor_file srcs meth_filter =
    let input = load_input ~name:"cli" ~srcs ~descriptor_file in
    match Taj.load input with
    | exception Taj.Load_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | loaded ->
      let prog = loaded.Taj.program in
      let ids =
        match meth_filter with
        | Some id -> [ id ]
        | None ->
          List.filter
            (fun id ->
               match Jir.Program.find_method prog id with
               | Some m -> not m.Jir.Tac.m_library
               | None -> false)
            (Jir.Program.all_method_ids prog)
      in
      List.iter
        (fun id ->
           match Jir.Program.find_method prog id with
           | Some m -> Fmt.pr "%a@." Jir.Tac.pp_meth m
           | None -> Printf.eprintf "no such method: %s\n" id)
        ids
  in
  let doc = "Print the SSA IR of the compiled program." in
  Cmd.v (Cmd.info "dump-ir" ~doc)
    Term.(const run $ descriptor_file $ sources $ meth_filter)

(* ------------------------------------------------------------------ *)
(* explain                                                            *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run scale descriptor_file srcs =
    let input = load_input ~name:"cli" ~srcs ~descriptor_file in
    let loaded =
      match Taj.load input with
      | loaded -> loaded
      | exception Taj.Load_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    match Taj.run loaded (Config.preset ~scale Config.Hybrid_unbounded) with
    | { Taj.result = Taj.Did_not_complete reason; _ } ->
      Printf.eprintf "analysis did not complete: %s\n" reason;
      exit 3
    | { Taj.result = Taj.Completed c; _ } ->
      let b = c.Taj.builder in
      let table = loaded.Taj.program.Jir.Program.table in
      let m = Rules.matcher table in
      let explain_issue i (ir : Report.issue_report) =
        let fl = ir.Report.ir_representative in
        Fmt.pr "@.== issue %d [%a] sink %a@." (i + 1) Rules.pp_issue
          ir.Report.ir_issue (Report.pp_stmt b) fl.Flows.fl_sink;
        (* backward-slice every sensitive argument of the sink *)
        (match Sdg.Builder.call_of b fl.Flows.fl_sink with
         | Some call ->
           let sensitive =
             match Rules.sink_of m fl.Flows.fl_rule call.Jir.Tac.target with
             | Some sink -> sink.Rules.snk_params
             | None -> [ List.length call.Jir.Tac.args - 1 ]
           in
           List.iter
             (fun arg ->
                let r =
                  Sdg.Backward.slice b ~table ~from:fl.Flows.fl_sink ~arg
                    ~max_stmts:2000 ()
                in
                let producers =
                  Sdg.Backward.source_endpoints b r ~is_source:(fun t ->
                      List.exists
                        (fun rule -> Rules.source_of m rule t <> None)
                        Rules.default_rules)
                in
                Fmt.pr "  argument %d: %d producer statement(s), %d \
                        untrusted source(s)@."
                  arg
                  (Sdg.Stmt.Set.cardinal r.Sdg.Backward.slice)
                  (List.length producers);
                List.iter
                  (fun s -> Fmt.pr "    source: %a@." (Report.pp_stmt b) s)
                  producers)
             sensitive
         | None -> ())
      in
      List.iteri explain_issue c.Taj.report.Report.issues;
      if c.Taj.report.Report.issues = [] then
        print_endline "no issues to explain"
  in
  let doc =
    "Explain reported issues: backward thin slices from each sink showing \
     every contributing untrusted source."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ scale $ descriptor_file $ sources)

(* ------------------------------------------------------------------ *)
(* jsp                                                                *)
(* ------------------------------------------------------------------ *)

let jsp_cmd =
  let pages =
    let doc = "JSP files to translate (the class name is the basename)." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PAGE" ~doc)
  in
  let analyze_flag =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Analyze the translated pages instead of printing them.")
  in
  let class_name_of path =
    let base = Filename.remove_extension (Filename.basename path) in
    String.mapi
      (fun i c ->
         if i = 0 then Char.uppercase_ascii c
         else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                 || (c >= '0' && c <= '9')
         then c
         else '_')
      base
  in
  let run algorithm scale pages analyze_flag =
    let sources =
      List.map
        (fun path ->
           match
             Models.Jsp.translate ~name:(class_name_of path) (read_file path)
           with
           | src -> src
           | exception Models.Jsp.Jsp_error msg ->
             Printf.eprintf "%s: %s\n" path msg;
             exit 1)
        pages
    in
    if not analyze_flag then List.iter print_string sources
    else begin
      let input = { Taj.name = "jsp"; app_sources = sources; descriptor = "" } in
      match
        Taj.analyze ~config:(Config.preset ~scale algorithm) input
      with
      | exception Taj.Load_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
      | { Taj.result = Taj.Did_not_complete reason; _ } ->
        Printf.eprintf "analysis did not complete: %s\n" reason;
        exit 3
      | { Taj.result = Taj.Completed c; _ } ->
        Fmt.pr "%a@." (Report.pp c.Taj.builder) c.Taj.report;
        if Report.issue_count c.Taj.report > 0 then exit 2
    end
  in
  let doc = "Translate JSP pages to servlets (and optionally analyze them)." in
  Cmd.v (Cmd.info "jsp" ~doc)
    Term.(const run $ algorithm $ scale $ pages $ analyze_flag)

(* ------------------------------------------------------------------ *)
(* graph                                                              *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let what =
    Arg.(value & opt (enum [ ("callgraph", `Callgraph); ("flows", `Flows) ])
           `Flows
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"What to render: 'callgraph' or 'flows' (default).")
  in
  let run scale descriptor_file srcs what =
    let input = load_input ~name:"cli" ~srcs ~descriptor_file in
    let loaded =
      match Taj.load input with
      | loaded -> loaded
      | exception Taj.Load_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    match Taj.run loaded (Config.preset ~scale Config.Hybrid_unbounded) with
    | { Taj.result = Taj.Did_not_complete reason; _ } ->
      Printf.eprintf "analysis did not complete: %s\n" reason;
      exit 3
    | { Taj.result = Taj.Completed c; _ } ->
      (match what with
       | `Callgraph -> print_string (Dot.callgraph c.Taj.andersen)
       | `Flows -> print_string (Dot.report c.Taj.builder c.Taj.report))
  in
  let doc = "Emit Graphviz DOT for the call graph or the reported flows." in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(const run $ scale $ descriptor_file $ sources $ what)

(* ------------------------------------------------------------------ *)
(* generate / apps / score                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let out_dir =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"DIR"
             ~doc:
               "Write the units as $(docv)/unit_NNN.mjava (plus \
                $(docv)/web.xml for the deployment descriptor) instead of \
                printing to stdout — the form 'taj analyze' consumes \
                directly.")
  in
  let run name scale out_dir =
    match Workloads.Apps.find name with
    | None ->
      Printf.eprintf "unknown app %s (see 'taj apps')\n" name;
      exit 1
    | Some app ->
      let g = Workloads.Apps.generate ~scale app in
      (match out_dir with
       | Some dir ->
         (* mkdir -p: the target is typically nested (e.g. gen/AppName) *)
         let rec mkdirs d =
           if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d)
           then begin
             mkdirs (Filename.dirname d);
             Unix.mkdir d 0o755
           end
         in
         mkdirs dir;
         let write = Io.write_file in
         List.iteri
           (fun i src ->
              write (Filename.concat dir (Printf.sprintf "unit_%03d.mjava" i))
                src)
           g.Workloads.Codegen.g_sources;
         if g.Workloads.Codegen.g_descriptor <> "" then
           write (Filename.concat dir "web.xml")
             g.Workloads.Codegen.g_descriptor;
         Printf.eprintf "wrote %d unit(s)%s to %s\n"
           (List.length g.Workloads.Codegen.g_sources)
           (if g.Workloads.Codegen.g_descriptor <> "" then " + web.xml"
            else "")
           dir
       | None ->
         List.iteri
           (fun i src -> Printf.printf "// ---- unit %d ----\n%s\n" i src)
           g.Workloads.Codegen.g_sources;
         if g.Workloads.Codegen.g_descriptor <> "" then
           Printf.printf "// ---- deployment descriptor ----\n%s"
             g.Workloads.Codegen.g_descriptor);
      Printf.eprintf "planted ground truth:\n";
      List.iter
        (fun p -> Fmt.epr "  %a@." Workloads.Ground_truth.pp_planted p)
        g.Workloads.Codegen.g_truth
  in
  let doc = "Emit the MJava source of a synthetic benchmark application." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run $ app_name $ scale $ out_dir)

let apps_cmd =
  let run () =
    Printf.printf "%-14s %-12s %8s %8s %7s\n" "name" "version" "classes"
      "methods" "scored";
    List.iter
      (fun (a : Workloads.Apps.app) ->
         Printf.printf "%-14s %-12s %8d %8d %7s\n" a.Workloads.Apps.name
           a.Workloads.Apps.version a.Workloads.Apps.classes_app
           a.Workloads.Apps.methods_app
           (if a.Workloads.Apps.scored then "yes" else "-"))
      Workloads.Apps.table2
  in
  let doc = "List the 22 benchmark applications of Table 2." in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const run $ const ())

let score_cmd =
  let rung_flag =
    Arg.(value & flag
         & info [ "rung" ]
             ~doc:
               "Score every rung of the degradation ladder instead of the \
                five configurations: the requested algorithm first, then \
                each supervisor fallback, ending at the type-triage rung \
                zero. Rung zero over-approximates, so it must keep every \
                planted true positive; only precision may drop.")
  in
  let rung_csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"With --rung, also write the per-rung table to $(docv).")
  in
  let score_no_filter =
    Arg.(value & flag
         & info [ "no-triage-filter" ]
             ~doc:
               "Score with the triage pre-filter disabled. The filter is \
                metamorphic — it may only skip provably taint-free work — \
                so the scored reports must be identical either way; this \
                flag exists for CI to check exactly that.")
  in
  let run_rungs app ~scale ~algorithm ~csv =
    let rows = Workloads.Score.run_rungs ~scale ~algorithm app in
    Printf.printf "%-20s %7s %5s %5s %5s %9s %8s\n" "rung" "issues" "TP"
      "FP" "FN" "accuracy" "time";
    List.iter
      (fun (r : Workloads.Score.rung_run) ->
         match r.Workloads.Score.rr_classification with
         | None ->
           Printf.printf "%-20s (did not complete)\n"
             r.Workloads.Score.rr_rung
         | Some c ->
           Printf.printf "%-20s %7d %5d %5d %5d %9.2f %7.2fs\n"
             r.Workloads.Score.rr_rung r.Workloads.Score.rr_issues
             c.Workloads.Score.true_positives
             c.Workloads.Score.false_positives
             c.Workloads.Score.false_negatives
             (Workloads.Score.accuracy c) r.Workloads.Score.rr_seconds)
      rows;
    match csv with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      Obs.Csv.write_row oc
        [ "rung"; "completed"; "issues"; "tp"; "fp"; "fn"; "accuracy";
          "seconds" ];
      List.iter
        (fun (r : Workloads.Score.rung_run) ->
           let c, tp, fp, fn, acc =
             match r.Workloads.Score.rr_classification with
             | None -> (false, "", "", "", "")
             | Some c ->
               ( true,
                 string_of_int c.Workloads.Score.true_positives,
                 string_of_int c.Workloads.Score.false_positives,
                 string_of_int c.Workloads.Score.false_negatives,
                 Printf.sprintf "%.3f" (Workloads.Score.accuracy c) )
           in
           Obs.Csv.write_row oc
             [ r.Workloads.Score.rr_rung; string_of_bool c;
               string_of_int r.Workloads.Score.rr_issues; tp; fp; fn; acc;
               Printf.sprintf "%.4f" r.Workloads.Score.rr_seconds ])
        rows;
      close_out oc;
      Printf.printf "wrote %s\n" file
  in
  let run name algorithm rung csv no_filter scale refine refine_k
      refine_steps contexts trace metrics =
    match Workloads.Apps.find name with
    | None ->
      Printf.eprintf "unknown app %s\n" name;
      exit 1
    | Some app when rung ->
      telemetry_setup ~trace ~metrics;
      run_rungs app ~scale ~algorithm ~csv;
      telemetry_export ~trace ~metrics
    | Some app ->
      telemetry_setup ~trace ~metrics;
      let runs =
        Workloads.Score.run_app ~scale ~refine ~refine_k ~refine_steps
          ~triage_filter:(not no_filter) ~contexts app
      in
      telemetry_export ~trace ~metrics;
      if refine then
        Printf.printf "%-20s %7s %5s %5s %5s %9s %5s %5s %8s %8s\n"
          "configuration" "issues" "TP" "FP" "FN" "accuracy" "conf" "plaus"
          "conf-FP" "time"
      else if contexts then
        Printf.printf "%-20s %7s %5s %5s %5s %9s %6s %7s %8s %8s\n"
          "configuration" "issues" "TP" "FP" "FN" "accuracy" "mism"
          "unsanit" "expected" "time"
      else
        Printf.printf "%-20s %7s %5s %5s %5s %9s %8s\n" "configuration"
          "issues" "TP" "FP" "FN" "accuracy" "time";
      let missed = ref 0 in
      List.iter
        (fun (r : Workloads.Score.run) ->
           match r.Workloads.Score.r_classification with
           | None ->
             Printf.printf "%-20s (did not complete)\n"
               (Config.algorithm_name r.Workloads.Score.r_algorithm)
           | Some c ->
             (match r.Workloads.Score.r_refined with
              | Some rf when refine ->
                Printf.printf
                  "%-20s %7d %5d %5d %5d %9.2f %5d %5d %8d %7.2fs\n"
                  (Config.algorithm_name r.Workloads.Score.r_algorithm)
                  r.Workloads.Score.r_issues c.Workloads.Score.true_positives
                  c.Workloads.Score.false_positives
                  c.Workloads.Score.false_negatives
                  (Workloads.Score.accuracy c)
                  rf.Workloads.Score.confirmed_issues
                  rf.Workloads.Score.plausible_issues
                  rf.Workloads.Score.confirmed_fp
                  r.Workloads.Score.r_seconds
              | _ when contexts ->
                let mism, unsan, expected =
                  match r.Workloads.Score.r_sanitization with
                  | Some s ->
                    missed :=
                      !missed
                      + (s.Workloads.Score.sz_expected
                         - s.Workloads.Score.sz_matched);
                    ( string_of_int s.Workloads.Score.sz_mismatched,
                      string_of_int s.Workloads.Score.sz_unsanitized,
                      Printf.sprintf "%d/%d" s.Workloads.Score.sz_matched
                        s.Workloads.Score.sz_expected )
                  | None -> ("-", "-", "-")
                in
                Printf.printf "%-20s %7d %5d %5d %5d %9.2f %6s %7s %8s %7.2fs\n"
                  (Config.algorithm_name r.Workloads.Score.r_algorithm)
                  r.Workloads.Score.r_issues c.Workloads.Score.true_positives
                  c.Workloads.Score.false_positives
                  c.Workloads.Score.false_negatives
                  (Workloads.Score.accuracy c) mism unsan expected
                  r.Workloads.Score.r_seconds
              | _ ->
                Printf.printf "%-20s %7d %5d %5d %5d %9.2f %7.2fs\n"
                  (Config.algorithm_name r.Workloads.Score.r_algorithm)
                  r.Workloads.Score.r_issues c.Workloads.Score.true_positives
                  c.Workloads.Score.false_positives
                  c.Workloads.Score.false_negatives
                  (Workloads.Score.accuracy c) r.Workloads.Score.r_seconds))
        runs;
      (* the acceptance gate: every planted mismatched-sanitizer pattern
         must be reported with its expected (applied, required) pair *)
      if contexts && !missed > 0 then begin
        Printf.eprintf "%d planted sanitizer mismatch(es) missed\n" !missed;
        exit 1
      end
  in
  let doc =
    "Generate a benchmark app, run all five configurations (or, with \
     --rung, every degradation-ladder rung) and score them against the \
     ground truth."
  in
  Cmd.v (Cmd.info "score" ~doc)
    Term.(const run $ app_name $ algorithm $ rung_flag $ rung_csv
          $ score_no_filter $ scale $ refine_flag $ refine_k
          $ refine_steps $ contexts_flag $ trace_file $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

(* --arm SPEC: site@after@action[@every], action = fail | transient |
   stall:SECONDS. Lets the end-to-end service scenario (and local chaos
   experiments) arm Core.Fault sites from outside the process. *)
let arm_conv =
  let parse s =
    match String.split_on_char '@' s with
    | site :: after :: action :: rest ->
      let once =
        match rest with
        | [] | [ "once" ] -> Ok true
        | [ "every" ] -> Ok false
        | _ -> Error (`Msg ("bad arm repeat in " ^ s))
      in
      let act =
        match String.split_on_char ':' action with
        | [ "fail" ] -> Ok Fault.Fail
        | [ "transient" ] -> Ok Fault.Fail_transient
        | [ "stall"; secs ] ->
          (match float_of_string_opt secs with
           | Some f -> Ok (Fault.Stall f)
           | None -> Error (`Msg ("bad stall duration in " ^ s)))
        | _ -> Error (`Msg ("bad arm action in " ^ s))
      in
      (match int_of_string_opt after, act, once with
       | Some n, Ok action, Ok once -> Ok (site, n, action, once)
       | None, _, _ -> Error (`Msg ("bad arm tick count in " ^ s))
       | _, (Error _ as e), _ | _, _, (Error _ as e) -> e)
    | _ ->
      Error
        (`Msg
           "expected SITE@AFTER@ACTION[@once|every], e.g. \
            job:crash-1@1@fail or serve-worker@5@stall:0.1@every")
  in
  let print ppf (site, n, _, _) = Fmt.pf ppf "%s@%d" site n in
  Arg.conv (parse, print)

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:
               "Listen on a Unix domain socket at $(docv) instead of \
                serving stdin/stdout.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains executing jobs concurrently.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:
               "Admission queue bound. At capacity a new job sheds the \
                oldest strictly-lower-priority queued job, or is rejected \
                with reason queue_full.")
  in
  let max_retries =
    Arg.(value & opt int 2
         & info [ "max-retries" ] ~docv:"N"
             ~doc:
               "Re-executions granted to a job that fails transiently. \
                Permanent failures never retry.")
  in
  let retry_base =
    Arg.(value & opt float 0.05
         & info [ "retry-base" ] ~docv:"SECONDS"
             ~doc:
               "First retry backoff; doubles per attempt with \
                deterministic seeded jitter.")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:
               "Jitter seed. A fixed seed makes the whole retry schedule \
                reproducible.")
  in
  let breaker_threshold =
    Arg.(value & opt int 5
         & info [ "breaker-threshold" ] ~docv:"N"
             ~doc:
               "Consecutive terminal failures per application that open \
                its circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 30.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:
               "Open-breaker cooldown before one half-open probe is \
                admitted.")
  in
  let mem_soft_mb =
    Arg.(value & opt (some int) None
         & info [ "mem-soft-mb" ] ~docv:"MB"
             ~doc:
               "Soft major-heap limit for the memory watchdog; above it \
                new jobs run progressively further down their degradation \
                ladder.")
  in
  let drain_grace =
    Arg.(value & opt (some float) (Some 30.0)
         & info [ "drain-grace" ] ~docv:"SECONDS"
             ~doc:
               "Per-job deadline cap applied during drain so shutdown \
                cannot be held hostage by a pathological job.")
  in
  let arms =
    Arg.(value & opt_all arm_conv []
         & info [ "arm" ] ~docv:"SPEC"
             ~doc:
               "Arm a fault-injection site (repeatable): \
                SITE@AFTER@ACTION[@once|every] with ACTION one of fail, \
                transient, stall:SECONDS. For chaos testing only.")
  in
  let cluster =
    Arg.(value & opt int 0
         & info [ "cluster" ] ~docv:"N"
             ~doc:
               "Shard the service over $(docv) worker processes, each a \
                full single-process engine, under a supervising \
                coordinator: jobs route by consistent hash of the \
                application, a crashed worker's in-flight jobs are \
                retried on peers, and the worker is respawned with \
                exponential backoff behind a per-worker circuit breaker. \
                0 (the default) serves single-process.")
  in
  let crash_retries =
    Arg.(value & opt int 2
         & info [ "crash-retries" ] ~docv:"N"
             ~doc:
               "Worker crashes a single job may survive before it is \
                answered failed:worker_crashed (cluster mode).")
  in
  let respawn_base =
    Arg.(value & opt float 0.2
         & info [ "respawn-base" ] ~docv:"SECONDS"
             ~doc:
               "First respawn backoff for a crashed worker; doubles per \
                consecutive crash (cluster mode).")
  in
  let respawn_max =
    Arg.(value & opt float 5.0
         & info [ "respawn-max" ] ~docv:"SECONDS"
             ~doc:"Respawn backoff cap (cluster mode).")
  in
  let ring_replicas =
    Arg.(value & opt int 32
         & info [ "ring-replicas" ] ~docv:"N"
             ~doc:
               "Virtual nodes per worker on the consistent-hash routing \
                ring (cluster mode).")
  in
  let worker_breaker_threshold =
    Arg.(value & opt int 3
         & info [ "worker-breaker-threshold" ] ~docv:"N"
             ~doc:
               "Consecutive crashes that open a worker's circuit breaker \
                and take it out of the routing ring (cluster mode).")
  in
  let worker_breaker_cooldown =
    Arg.(value & opt float 5.0
         & info [ "worker-breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:
               "Open worker-breaker cooldown before one probe job is \
                routed to it again (cluster mode).")
  in
  let admin_socket =
    Arg.(value & opt (some string) None
         & info [ "admin-socket" ] ~docv:"PATH"
             ~doc:
               "Serve the admin channel on a second Unix domain socket \
                at $(docv): one command line in (health, metrics, \
                metrics.json, dump), one reply out. In cluster mode \
                replies aggregate the coordinator and every live worker. \
                taj top renders from this endpoint.")
  in
  let log_file =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:
               "Append the structured NDJSON event log to $(docv). In \
                cluster mode worker lines are forwarded over the \
                supervised pipe so $(docv) carries one merged stream.")
  in
  let flight_recorder =
    Arg.(value & opt int 256
         & info [ "flight-recorder" ] ~docv:"N"
             ~doc:
               "Always-on flight recorder: keep the last $(docv) \
                telemetry events per domain in a bounded ring, dumped as \
                a Chrome trace on worker crash, SIGUSR1 or an admin dump \
                command — no --trace needed. 0 disables.")
  in
  let flight_dump_file =
    Arg.(value & opt string "taj-flight.json"
         & info [ "flight-dump" ] ~docv:"FILE"
             ~doc:"Where the flight-recorder dump is written.")
  in
  let run socket workers queue_cap max_retries retry_base seed
      breaker_threshold breaker_cooldown mem_soft_mb drain_grace arms
      cluster crash_retries respawn_base respawn_max ring_replicas
      worker_breaker_threshold worker_breaker_cooldown admin_socket
      log_file flight_recorder flight_dump_file trace metrics cache_dir =
    telemetry_setup ~trace ~metrics;
    (* armed (and logging configured) before the cluster forks so
       workers inherit both *)
    if flight_recorder > 0 then Obs.Telemetry.arm_flight flight_recorder;
    let flight_dump =
      if flight_recorder > 0 then Some flight_dump_file else None
    in
    (match log_file with
     | Some path ->
       Obs.Log.open_file path;
       Obs.Log.set_context
         [ ("proc", if cluster > 0 then "coordinator" else "serve") ]
     | None -> ());
    List.iter
      (fun (site, after, action, once) ->
         Fault.arm ~once ~action site ~after)
      arms;
    let config =
      { Serve.Service.default_config with
        workers; queue_cap; max_retries; retry_base; seed;
        breaker_threshold; breaker_cooldown;
        mem_soft_limit_mb = mem_soft_mb; drain_grace;
        cache_dir }
    in
    let jobs =
      match socket with
      | Some path -> Serve.Transport.Socket path
      | None -> Serve.Transport.stdio
    in
    (* either socket path, on either engine: the error names the path
       that failed, and nothing bound is left behind; an error that
       names neither path was raised while serving, not at startup *)
    let serving serve =
      try serve ()
      with Unix.Unix_error (e, fn, path)
        when Some path = socket || Some path = admin_socket ->
        Printf.eprintf "error: cannot serve on %s: %s (%s)\n" path
          (Unix.error_message e) fn;
        exit 1
    in
    if cluster > 0 then begin
      (* telemetry is enabled (or not) before the fork so workers
         inherit the flag; each writes its own trace file at drain and
         the coordinator merges them *)
      let ccfg =
        { Serve.Cluster.default_config with
          size = cluster; ring_replicas; crash_retries;
          respawn_base; respawn_max;
          worker_breaker_threshold; worker_breaker_cooldown;
          worker_trace_prefix = trace; flight_dump;
          forward_logs = log_file <> None; service = config }
      in
      let c = Serve.Cluster.create ~config:ccfg () in
      let h =
        serving (fun () -> Serve.Cluster.serve ?admin:admin_socket c jobs)
      in
      (match trace with
       | Some path ->
         Serve.Cluster.write_merged_trace c path;
         Printf.eprintf "merged trace written to %s\n" path
       | None -> ());
      if metrics then Fmt.epr "%a@." Obs.Telemetry.pp_metrics ();
      Printf.eprintf
        "drained: cluster %d: %d completed, %d degraded, %d failed, %d \
         rejected, %d shed; %d worker crash(es), %d respawn(s), %d \
         rerouted, %d crash-failed\n"
        h.Serve.Cluster.ch_size h.Serve.Cluster.ch_completed
        h.Serve.Cluster.ch_degraded h.Serve.Cluster.ch_failed
        h.Serve.Cluster.ch_rejected h.Serve.Cluster.ch_shed
        h.Serve.Cluster.ch_crashes h.Serve.Cluster.ch_respawns
        h.Serve.Cluster.ch_rerouted h.Serve.Cluster.ch_crash_failed;
      if Serve.Cluster.clean_drain h then exit 0 else exit 5
    end;
    let service =
      Serve.Service.create
        ~config:{ config with Serve.Service.flight_dump } ()
    in
    let h =
      serving (fun () -> Serve.Service.serve ?admin:admin_socket service jobs)
    in
    telemetry_export ~trace ~metrics;
    Printf.eprintf
      "drained: %d completed, %d degraded, %d failed, %d rejected, %d \
       shed, %d retries\n"
      h.Serve.Service.h_completed h.Serve.Service.h_degraded
      h.Serve.Service.h_failed
      (h.Serve.Service.h_rejected_full
       + h.Serve.Service.h_rejected_draining
       + h.Serve.Service.h_rejected_malformed)
      h.Serve.Service.h_shed h.Serve.Service.h_retries;
    if Serve.Service.clean_drain h then exit 0 else exit 5
  in
  let doc =
    "Run a long-lived analysis service over stdio or a Unix socket."
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Accepts newline-delimited JSON job requests and answers each \
         with exactly one terminal JSON response. A request names a \
         benchmark application ($(b,app)) or carries inline MJava source \
         ($(b,source)), plus optional $(b,id), $(b,algorithm), \
         $(b,scale), $(b,deadline), $(b,priority) and $(b,descriptor) \
         fields. Responses carry $(b,id), $(b,status) (completed, \
         degraded, rejected or failed), $(b,reason), $(b,issues), \
         $(b,attempts), $(b,degradations) and $(b,seconds).";
      `P
        "On SIGINT, SIGTERM or end of stdin the service drains: it stops \
         admitting, finishes every admitted job, and writes a final \
         health snapshot line ($(b,event)=health). A socket client's end \
         of input ends its requests, not its answers: the connection is \
         closed once every line it sent has been answered.";
      `P
        "With $(b,--cluster) N the same protocol is served by a \
         coordinator supervising N forked worker processes. Jobs route \
         by consistent hash of the application so repeated submissions \
         hit a warm worker; a worker killed mid-job (segfault, OOM, \
         kill -9) has its in-flight jobs retried on peers up to \
         $(b,--crash-retries) times (then answered \
         failed:worker_crashed) and is respawned with exponential \
         backoff behind a per-worker circuit breaker. The final health \
         line aggregates per-worker counters.";
      `P
        "With $(b,--admin-socket) a second Unix socket answers one-line \
         admin commands — $(b,health) (JSON), $(b,metrics) (Prometheus \
         text exposition ending in # EOF), $(b,metrics.json), $(b,dump) \
         — without touching the job stream; in cluster mode the answers \
         aggregate every live worker. $(b,taj top) renders a live \
         dashboard from this endpoint. SIGUSR1, a worker crash, or the \
         $(b,dump) command writes the always-on flight recorder \
         ($(b,--flight-recorder)) as a Chrome trace at \
         $(b,--flight-dump).";
      `S Manpage.s_exit_status;
      `P "0 on a clean drain: every admitted job ran to a terminal state \
          and none was shed or turned away by a full queue.";
      `P "1 if the service could not start (e.g. the $(b,--socket) or \
          $(b,--admin-socket) path is served by a live server, or its \
          directory does not exist).";
      `P
        "5 on a drain after load shedding: all jobs still reached \
         terminal states, but at least one was shed or rejected with \
         queue_full, so callers should treat the run as overloaded.";
      `P
        "The $(b,analyze) command's exit codes (0 clean, 1 load failure, \
         2 issues found, 3 did not complete, 4 partial result) apply per \
         job inside the service and are reported in each response's \
         $(b,status) instead of the process exit code." ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run $ socket $ workers $ queue_cap $ max_retries
          $ retry_base $ seed $ breaker_threshold $ breaker_cooldown
          $ mem_soft_mb $ drain_grace $ arms $ cluster $ crash_retries
          $ respawn_base $ respawn_max $ ring_replicas
          $ worker_breaker_threshold $ worker_breaker_cooldown
          $ admin_socket $ log_file $ flight_recorder $ flight_dump_file
          $ trace_file $ metrics_flag $ cache_dir_arg)

(* ------------------------------------------------------------------ *)
(* top                                                                *)
(* ------------------------------------------------------------------ *)

(* One admin transaction per poll: connect, send the command, half-close
   the write side, read the reply to EOF (the server answers the command
   line, then drops the half-closed peer). A fresh connection per poll
   keeps the dashboard stateless across server restarts. *)
let admin_query path cmd =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX path);
       let line = Bytes.of_string (cmd ^ "\n") in
       ignore (Unix.write fd line 0 (Bytes.length line));
       Unix.shutdown fd Unix.SHUTDOWN_SEND;
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let rec go () =
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes buf chunk 0 n;
           go ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
       in
       go ();
       Buffer.contents buf)

let top_cmd =
  let admin_path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADMIN_SOCKET"
             ~doc:"Path of the serve --admin-socket endpoint to poll.")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh interval between polls.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:
               "Render a single frame without clearing the screen and \
                exit; for scripts and CI.")
  in
  let module J = Obs.Json in
  let jint k j = Option.value ~default:0 (J.int_member k j) in
  let jnum k j = Option.value ~default:0.0 (J.num_member k j) in
  (* previous (time, completed) sample, for the throughput estimate; the
     first frame has none and shows the average over the uptime *)
  let prev = ref None in
  let render ~metrics h =
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    let completed = jint "completed" h in
    let tnow = Unix.gettimeofday () in
    let rate =
      match !prev with
      | Some (t0, c0) when tnow > t0 ->
        float_of_int (completed - c0) /. (tnow -. t0)
      | _ ->
        let uptime = jnum "uptime" h in
        if uptime > 0.0 then float_of_int completed /. uptime else 0.0
    in
    prev := Some (tnow, completed);
    (match J.int_member "cluster" h with
     | Some n -> line "taj top — cluster of %d — uptime %.1fs" n (jnum "uptime" h)
     | None -> line "taj top — uptime %.1fs" (jnum "uptime" h));
    line "jobs      submitted %d  completed %d  degraded %d  failed %d  \
          rejected %d  shed %d  (%.1f jobs/s)"
      (jint "submitted" h) completed (jint "degraded" h) (jint "failed" h)
      (jint "rejected" h + jint "rejected_full" h
       + jint "rejected_draining" h + jint "rejected_malformed" h)
      (jint "shed" h) rate;
    (* single-process health carries these inline; the cluster aggregate
       gets them from the merged metrics snapshot below, and only it
       prints them from there *)
    let inline = J.member "latency_ms_p50" h <> None in
    if inline then begin
      line "latency   p50 %dms  p95 %dms  p99 %dms"
        (jint "latency_ms_p50" h) (jint "latency_ms_p95" h)
        (jint "latency_ms_p99" h);
      line "state     queue %d  pressure %d  rung %s  breakers open %d  \
            cache %d/%d hit/miss"
        (jint "queue_depth" h) (jint "pressure" h)
        (match J.str_member "rung" h with
         | Some r when r <> "" -> r
         | _ -> "-")
        (match J.member "open_breakers" h with
         | Some (J.Arr l) -> List.length l
         | _ -> 0)
        (jint "cache_hits" h) (jint "cache_misses" h)
    end;
    (match metrics with
     | None -> ()
     | Some m ->
       let counter k = J.int_member k m in
       if not inline then begin
         (match J.member "serve.latency_ms" m with
          | Some lat ->
            line "latency   p50 %dms  p95 %dms  p99 %dms  (n=%d, cluster-wide)"
              (jint "p50" lat) (jint "p95" lat) (jint "p99" lat)
              (jint "count" lat)
          | None -> ());
         match counter "cache.hit", counter "cache.miss" with
         | None, None -> ()
         | hit, miss ->
           line "cache     %d hit  %d miss"
             (Option.value ~default:0 hit) (Option.value ~default:0 miss)
       end;
       (* per-rung response counters: one "serve.rung.<algorithm>"
          counter per ladder rung a job actually ran on *)
       (match m with
        | J.Obj kvs ->
          let prefix = "serve.rung." in
          let plen = String.length prefix in
          let rungs =
            List.filter_map
              (fun (k, _) ->
                 if String.length k > plen && String.sub k 0 plen = prefix
                 then
                   Option.map
                     (fun n ->
                        (String.sub k plen (String.length k - plen), n))
                     (counter k)
                 else None)
              kvs
          in
          if rungs <> [] then
            line "rungs     %s"
              (String.concat "  "
                 (List.map
                    (fun (k, n) -> Printf.sprintf "%s %d" k n)
                    rungs))
        | _ -> ()));
    (match J.member "workers" h with
     | Some (J.Arr ws) ->
       line "workers   %d/%d up  (%d crash(es), %d respawn(s), %d \
             rerouted, %d crash-failed)"
         (List.length
            (List.filter
               (fun w -> J.member "up" w = Some (J.Bool true))
               ws))
         (List.length ws)
         (jint "worker_crashes" h) (jint "worker_respawns" h)
         (jint "jobs_rerouted" h) (jint "jobs_crash_failed" h);
       List.iter
         (fun w ->
            let up =
              if J.member "up" w = Some (J.Bool true) then "up  " else "DOWN"
            in
            match J.member "health" w with
            | Some wh ->
              line "  worker %d  %s pid %-7d spawns %d  queue %d  \
                    completed %d  p99 %dms  rung %s"
                (jint "worker" w) up (jint "pid" w) (jint "spawns" w)
                (jint "queue_depth" wh) (jint "completed" wh)
                (jint "latency_ms_p99" wh)
                (match J.str_member "rung" wh with
                 | Some r when r <> "" -> r
                 | _ -> string_of_int (jint "pressure" wh))
            | None ->
              line "  worker %d  %s pid %-7d spawns %d"
                (jint "worker" w) up (jint "pid" w) (jint "spawns" w))
         ws
     | _ -> ());
    Buffer.contents b
  in
  let frame path =
    match admin_query path "health" with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "taj top: %s: %s\n" path (Unix.error_message e);
      false
    | reply ->
      let metrics =
        match admin_query path "metrics.json" with
        | m -> Result.to_option (J.parse (String.trim m))
        | exception Unix.Unix_error _ -> None
      in
      (match J.parse (String.trim reply) with
       | Error e ->
         Printf.eprintf "taj top: bad health reply: %s\n" e;
         false
       | Ok h ->
         print_string (render ~metrics h);
         true)
  in
  let run path interval once =
    if once then begin if not (frame path) then exit 1 end
    else begin
      let stop = ref false in
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle (fun _ -> stop := true));
      while not !stop do
        (* repaint in place: clear screen, home cursor *)
        print_string "\027[2J\027[H";
        ignore (frame path);
        flush stdout;
        Unix.sleepf interval
      done
    end
  in
  let doc = "Live terminal dashboard over a serve --admin-socket." in
  let man =
    [ `S Manpage.s_description;
      `P
        "Polls the admin endpoint of a running $(b,taj serve) \
         ($(b,--admin-socket)) and renders throughput, latency \
         percentiles, queue depth, degradation rung, breaker and cache \
         state, and — in cluster mode — per-worker liveness. One \
         connection per poll; the dashboard survives server restarts. \
         The first frame's throughput is the average since the server \
         started; each later one is the rate since the frame before.";
      `P
        "The latency percentiles, the cache hit and miss counts and the \
         per-rung job counts come from the server's telemetry registry, \
         which records only while the flight recorder (on by default), \
         $(b,--trace) or $(b,--metrics) is on: under \
         $(b,--flight-recorder 0) without either they read 0." ]
  in
  Cmd.v (Cmd.info "top" ~doc ~man)
    Term.(const run $ admin_path $ interval $ once)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "TAJ: taint analysis for (M)Java web applications" in
  let info = Cmd.info "taj" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; explain_cmd; graph_cmd; jsp_cmd; dump_ir_cmd;
            generate_cmd; apps_cmd; score_cmd; serve_cmd; top_cmd ]))
