let () =
  Alcotest.run "taj"
    [ ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("lower", Test_lower.suite);
      ("ssa", Test_ssa.suite);
      ("cfg", Test_cfg.suite);
      ("pretty", Test_pretty.suite);
      ("taint", Test_taint.suite);
      ("reflection", Test_reflection.suite);
      ("frameworks", Test_frameworks.suite);
      ("algorithms", Test_algorithms.suite);
      ("pointer", Test_pointer.suite);
      ("sdg", Test_sdg.suite);
      ("backward", Test_backward.suite);
      ("workloads", Test_workloads.suite);
      ("models", Test_models.suite);
      ("image", Test_image.suite);
      ("string-context", Test_string_context.suite);
      ("strings", Test_strings.suite);
      ("jsp", Test_jsp.suite);
      ("csrf", Test_csrf.suite);
      ("metamorphic", Test_metamorphic.suite);
      ("reproduction", Test_reproduction.suite);
      ("corpus", Test_corpus.suite);
      ("rules", Test_rules.suite);
      ("resilience", Test_resilience.suite);
      ("parallel", Test_parallel.suite);
      ("telemetry", Test_telemetry.suite);
      ("service", Test_service.suite);
      ("securibench", Test_securibench.suite);
      ("refine", Test_refine.suite);
      ("triage", Test_triage.suite);
      ("incremental", Test_incremental.suite) ]
