(* Living verification of the reproduction claims recorded in
   EXPERIMENTS.md: the paper's qualitative results must hold on the
   generated benchmark suite at test scale. *)

open Core
open Workloads

let scale = 0.05

let runs_for name =
  Score.run_app ~scale (Option.get (Apps.find name))

let result runs alg =
  match List.find_opt (fun r -> r.Score.r_algorithm = alg) runs with
  | Some r -> r
  | None -> Alcotest.fail "missing configuration run"

let classification r =
  match r.Score.r_classification with
  | Some c -> c
  | None -> Alcotest.fail "configuration did not complete"

(* §7.2: hybrid and CI agree on true positives (both sound); CI reports at
   least as many issues *)
let test_hybrid_ci_soundness_agreement () =
  List.iter
    (fun (a : Apps.app) ->
       let runs = Score.run_app ~scale a in
       let h = classification (result runs Config.Hybrid_unbounded) in
       let ci = classification (result runs Config.Ci_thin_slicing) in
       Alcotest.(check int)
         (a.Apps.name ^ ": same true positives")
         h.Score.true_positives ci.Score.true_positives;
       Alcotest.(check bool)
         (a.Apps.name ^ ": CI has at least as many false positives")
         true
         (ci.Score.false_positives >= h.Score.false_positives))
    Apps.scored_apps

(* §7.2: CS false negatives from cross-thread flows on BlueBlog (2), I (1) *)
let test_cs_false_negatives () =
  let blueblog = classification (result (runs_for "BlueBlog") Config.Cs_thin_slicing) in
  Alcotest.(check int) "BlueBlog CS FNs" 2 blueblog.Score.false_negatives;
  let i = classification (result (runs_for "I") Config.Cs_thin_slicing) in
  Alcotest.(check int) "I CS FNs" 1 i.Score.false_negatives

(* Table 3: CS fails on the large benchmarks, completes on the small ones *)
let test_cs_completion_set () =
  let completes name =
    (result (runs_for name) Config.Cs_thin_slicing).Score.r_completed
  in
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " completes") true (completes name))
    [ "A"; "BlueBlog"; "Friki"; "I" ];
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " does not complete") false
         (completes name))
    [ "GridSphere"; "ST"; "Webgoat"; "B" ]

(* §7.2: the optimized variant introduces exactly one new FN on BlueBlog
   (the over-long real flow) *)
let test_optimized_single_fn_on_blueblog () =
  let runs = runs_for "BlueBlog" in
  let prio = classification (result runs Config.Hybrid_prioritized) in
  let opt = classification (result runs Config.Hybrid_optimized) in
  Alcotest.(check int) "prioritized keeps all TPs" 0
    prio.Score.false_negatives;
  Alcotest.(check int) "optimized loses exactly one" 1
    opt.Score.false_negatives

(* accuracy ordering: CS >= optimized >= unbounded >= CI over the scored
   aggregate (the paper's 0.54 / 0.35 / 0.22 ordering) *)
let test_accuracy_ordering () =
  let agg alg =
    let tp, fp =
      List.fold_left
        (fun (tp, fp) (a : Apps.app) ->
           match
             (result (Score.run_app ~scale a) alg).Score.r_classification
           with
           | Some c ->
             (tp + c.Score.true_positives, fp + c.Score.false_positives)
           | None -> (tp, fp))
        (0, 0) Apps.scored_apps
    in
    if tp + fp = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fp)
  in
  let cs = agg Config.Cs_thin_slicing in
  let hybrid = agg Config.Hybrid_unbounded in
  let optimized = agg Config.Hybrid_optimized in
  let ci = agg Config.Ci_thin_slicing in
  Alcotest.(check bool) "cs >= optimized" true (cs >= optimized);
  Alcotest.(check bool) "optimized >= hybrid" true (optimized >= hybrid);
  Alcotest.(check bool) "hybrid > ci" true (hybrid > ci)

(* §6.1: under the scaled budget, priority-driven construction finds more
   true positives than chaotic iteration on the largest app *)
let test_priority_beats_chaotic () =
  let a = Option.get (Apps.find "GridSphere") in
  let g = Apps.generate ~scale a in
  let loaded = Taj.load (Codegen.to_input g) in
  let truth = g.Codegen.g_truth in
  let tp config =
    match (Taj.run loaded config).Taj.result with
    | Taj.Completed c ->
      (Score.classify truth c.Taj.builder c.Taj.report).Score.true_positives
    | Taj.Did_not_complete _ -> -1
  in
  let base = Config.preset ~scale Config.Hybrid_prioritized in
  let budget = { base with Config.max_cg_nodes = Some 1000 } in
  let tp_prio = tp budget in
  let tp_fifo = tp { budget with Config.prioritized = false } in
  Alcotest.(check bool)
    (Printf.sprintf "priority (%d TPs) > chaotic (%d TPs)" tp_prio tp_fifo)
    true (tp_prio > tp_fifo)

(* §6.2.2: long flows are disproportionately false positives *)
let test_flow_length_correlation () =
  let short_t = ref 0 and short_f = ref 0 in
  let long_t = ref 0 and long_f = ref 0 in
  List.iter
    (fun (a : Apps.app) ->
       let g = Apps.generate ~scale a in
       let loaded = Taj.load (Codegen.to_input g) in
       match (Taj.run loaded (Config.preset ~scale Config.Hybrid_unbounded)).Taj.result with
       | Taj.Completed c ->
         List.iter
           (fun fl ->
              let m =
                Sdg.Builder.node_meth c.Taj.builder
                  fl.Flows.fl_sink.Sdg.Stmt.node
              in
              match
                Ground_truth.attribute g.Codegen.g_truth
                  ~cls:m.Jir.Tac.m_class ~meth:m.Jir.Tac.m_name
              with
              | Some p ->
                let real = p.Ground_truth.p_real in
                if fl.Flows.fl_length <= 8 then
                  (if real then incr short_t else incr short_f)
                else if real then incr long_t
                else incr long_f
              | None -> ())
           c.Taj.report.Report.raw_flows
       | Taj.Did_not_complete _ -> ())
    Apps.scored_apps;
  let rate t f = float_of_int !t /. float_of_int (max 1 (!t + !f)) in
  Alcotest.(check bool)
    (Printf.sprintf "short TP rate (%.2f) > long TP rate (%.2f)"
       (rate short_t short_f) (rate long_t long_f))
    true
    (rate short_t short_f > rate long_t long_f)

(* ------------------------------------------------------------------ *)
(* Pinned reports                                                     *)
(* ------------------------------------------------------------------ *)

(* MD5 of each app's rendered report (the bytes the result tier stores),
   recorded before name resolution was shared across layers. The other
   harnesses compare one configuration with another; these pins catch a
   change that moves every configuration alike. *)
let pin_scale = 0.02

let pinned_hybrid =
  [ ("A", "955522d0ee2a0b75e887ab98cbec5e1b");
    ("B", "892776b22bb426f350b47718d4b0aca0");
    ("Blojsom", "5dc1870fd65adea540e963e4cbdf06af");
    ("BlueBlog", "73e3de0c4bd798cd6d5e0947e2b41ee0");
    ("Dlog", "45309b64ec5d38294d482adc7edc2c95");
    ("Friki", "f569a083af76f239ee061fb0dfa6a207");
    ("GestCV", "3b2f0ade659696afeb83ad7b3e7efc99");
    ("Ginp", "1837aeceb66c9ce6915bf9a03b91d099");
    ("GridSphere", "964727410ec2ce514c2af25c529f0fc9");
    ("I", "0865d248a536b4defe4094fcdf8cf220");
    ("JSPWiki", "6cee12c9490a0c0ff4ad72a6792da4ea");
    ("Lutece", "6ef797f932f72cda64232f8226bb7420");
    ("MVNForum", "f14d5a09b9746924bac5857b5782b194");
    ("PersonalBlog", "c9212101a7487330f536c6322ffa54d6");
    ("Roller", "1370896556fb555761b0ae9452626a32");
    ("S", "946c6672655b3aacf494ffc9dc602806");
    ("SBM", "3074eb6e42f644d1576fa048808ef4ee");
    ("SnipSnap", "29b03ee5efb7e862c993d53c82d15731");
    ("SPLC", "b9d50b64a32b46c2ae6de497780a4c75");
    ("ST", "a3aa4192d7281fec976410db190cf557");
    ("VQWiki", "4346b8842492e7d7339f526d955d8ef6");
    ("Webgoat", "f12d135139b3787f8477997262bd4134");
    ("CtxForum", "76c2cb8303830b3653ca6ca3e9a386fd");
    ("CtxGallery", "8e2e8509415aa297e9c0c4cdec71cbd4");
    ("CtxLedger", "f79e618358f6626d94dab0723a8152a6") ]

(* the three Ctx apps again with refinement and contexts on *)
let pinned_precise =
  [ ("CtxForum", "488aad5c2a5d1595f074fb78b2b585ba");
    ("CtxGallery", "2b36997637f8b97b942c047a935e4b79");
    ("CtxLedger", "cd921c9b12c4457543038c9341ff79f6") ]

let report_md5 config (a : Apps.app) =
  let g = Apps.generate ~scale:pin_scale a in
  match (Taj.analyze ~config (Codegen.to_input g)).Taj.result with
  | Taj.Completed c ->
    Digest.to_hex
      (Digest.string (Cache.Incr.render_report c.Taj.builder c.Taj.report))
  | Taj.Did_not_complete reason -> "did not complete: " ^ reason

let check_pins ~what config pins apps =
  Alcotest.(check (list string)) (what ^ ": every app pinned")
    (List.map fst pins)
    (List.map (fun (a : Apps.app) -> a.Apps.name) apps);
  List.iter
    (fun (a : Apps.app) ->
       Alcotest.(check string)
         (Printf.sprintf "%s %s: report digest" what a.Apps.name)
         (List.assoc a.Apps.name pins) (report_md5 config a))
    apps

let test_pinned_reports () =
  let hybrid = Config.preset ~scale:pin_scale Config.Hybrid_unbounded in
  check_pins ~what:"hybrid" hybrid pinned_hybrid
    (Apps.table2 @ Apps.contexts_apps);
  check_pins ~what:"refine+contexts"
    { hybrid with Config.refine = true; contexts = true }
    pinned_precise Apps.contexts_apps

(* MD5 of each [taj analyze --json] document, printed by [Obs.Json]
   with its wall-clock values ([phases.*] and [attempts[].seconds]) set
   to 0. Recorded from the output of the Printf emitter this rendering
   replaced, run on the files [taj generate -o] writes: "default" is
   [taj analyze --json]; "precise" adds [--refine --contexts]; "triage"
   is [--triage]; "cs" is [-a cs --no-degrade], which does not
   complete. *)
let pinned_json =
  [     ("default A", "e3a085dac07a613f4e40346c5c29b637");
    ("default B", "7dc71d05e0ed8b067401335eeb60e23b");
    ("default Blojsom", "988586275fd9bbffba704821f2b03d2e");
    ("default BlueBlog", "dc3522c7f8000775292b2202273ac054");
    ("default Dlog", "845502e6419f06904405be8d63b6fa7e");
    ("default Friki", "0759c00a221df6d766d2ce8ece7b517b");
    ("default GestCV", "56262442766a2ee47f4f0d6f2343be07");
    ("default Ginp", "0d7787d0891fda2f39a12c065f85b9fb");
    ("default GridSphere", "b9e8d5d05509315ddc61577664539e8b");
    ("default I", "775184672dfa3937f4094c4d1fd67044");
    ("default JSPWiki", "35bad20da3de19ca5c636cca0dbf25c6");
    ("default Lutece", "3402de3d21b0076854defa60bf6f6afa");
    ("default MVNForum", "493d6a9e957b954f27a59b6ee47c6059");
    ("default PersonalBlog", "9a6d1fc130740eb66ff436eb87f9fea3");
    ("default Roller", "69eef65a67bc0f7ee8f987edcc6b4041");
    ("default S", "a57bc2d25d7fcc9e70a464b4bd889d01");
    ("default SBM", "f1dae6a9ab06cf115c132dd11a394a04");
    ("default SnipSnap", "aa748ad753a37b1f1ae53bdcd4d96e18");
    ("default SPLC", "679fa2feaf0d894a915e9fc8e0b1df2a");
    ("default ST", "0f1c4fd8a4e389204756d941828c67c8");
    ("default VQWiki", "5ca2c911b61ea5111e8a5d96115e0823");
    ("default Webgoat", "a9fed1012b13034ce21e8e92a00468e5");
    ("default CtxForum", "5eaccc1fa1641ed0da4fd3d7b844c2bd");
    ("default CtxGallery", "9f74a0a73f3a2e7e2e19f67a2f68a88d");
    ("default CtxLedger", "4ec9f22bef3f3de450a1430566e15a96");
    ("precise CtxForum", "57199ba51e4f7492ed9ca6fe0604972b");
    ("precise CtxGallery", "bd1aa02dd637b72672e7d13912be9046");
    ("precise CtxLedger", "46aed30a41c55f4e35ef9dcdfc7024a9");
    ("triage Friki", "c73daa9976bf11124d302d4ed8dd62f6");
    ("cs GridSphere", "36443bcec56015a529e3fe900c70545c") ]

let json_md5 what (a : Apps.app) =
  let degrade, config =
    let preset = Config.preset ~scale:0.05 in
    match what with
    | "precise" ->
      (true, { (preset Config.Hybrid_optimized) with
               Config.refine = true; contexts = true })
    | "triage" -> (true, preset Config.Type_triage)
    | "cs" -> (false, preset Config.Cs_thin_slicing)
    | _ -> (true, preset Config.Hybrid_optimized)
  in
  let options =
    { Supervisor.default_options with Supervisor.scale = 0.05; degrade }
  in
  let input =
    { (Codegen.to_input (Apps.generate ~scale:pin_scale a)) with
      Taj.name = "cli" }
  in
  let zero_seconds = function
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) -> (k, if k = "seconds" then Obs.Json.Num 0.0 else v))
           kvs)
    | v -> v
  in
  let doc =
    match Supervisor.json (Supervisor.run ~options ~config input) with
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (function
             | "phases", Obs.Json.Obj ps ->
               ( "phases",
                 Obs.Json.Obj
                   (List.map (fun (k, _) -> (k, Obs.Json.Num 0.0)) ps) )
             | "attempts", Obs.Json.Arr xs ->
               ("attempts", Obs.Json.Arr (List.map zero_seconds xs))
             | kv -> kv)
           kvs)
    | v -> v
  in
  Digest.to_hex (Digest.string (Obs.Json.to_string doc))

let test_pinned_json () =
  List.iter
    (fun (run, pin) ->
       match String.split_on_char ' ' run with
       | [ what; name ] ->
         Alcotest.(check string) (run ^ ": --json digest") pin
           (json_md5 what (Option.get (Apps.find name)))
       | _ -> Alcotest.failf "bad pin name %s" run)
    pinned_json

(* MD5 of each app's id-ordered pointer-analysis result under
   hybrid-unbounded: every pointer key in id order with its points-to
   set, every instance key in id order, the call graph as [taj dot]
   prints it (node order, contexts, edge iteration order) and the
   solver's statistics. Recorded before the key tables were rebuilt on
   ints; a report pin cannot see ids handed out in a new order, or a
   changed [taj dot], when the report itself is unchanged. *)
let pinned_solver =
  [ ("A", "46f454eba059d5cedafd3a6bd2675772");
    ("B", "422de14e41b4425da17c9ddb98a34e02");
    ("Blojsom", "d1eea07571aa6840c619af35c55d75ad");
    ("BlueBlog", "8cc970e61d4461791bdc742960cdfdcc");
    ("Dlog", "ae3bf950eadb3cb1e2c8486517ecdf69");
    ("Friki", "d9597e1845ba33e971edf350a2a96169");
    ("GestCV", "0a181d856c92f6f84c339c17d7e6b41c");
    ("Ginp", "e60b75c681aa3bbf6257861bb83cebdd");
    ("GridSphere", "91fad3801f2341f253979bddbdd51cc5");
    ("I", "4a545fef982b7e5efe55808cf8aa3802");
    ("JSPWiki", "2a1e963234a717e4d060d7589e464c70");
    ("Lutece", "cbd784cdb42649c773f9fe9b387622b2");
    ("MVNForum", "718e67935a9bb263c8295fc33e78a0de");
    ("PersonalBlog", "7e9b5bdf9d2eedcda3f64cac07a9aa10");
    ("Roller", "b18e539b3ae1d72043e00458a197b06d");
    ("S", "74c376eaf246c57d135748f54eaff412");
    ("SBM", "61ad87ff0edfe039c49b396983949544");
    ("SnipSnap", "ba2647abe94f7d3c208753903d43abfa");
    ("SPLC", "1c495bfcfe157c068c3f5b58baf2dede");
    ("ST", "a0817058e0e928a44030b40584501daf");
    ("VQWiki", "12832b7acfbf3fc22f29e0044214d00b");
    ("Webgoat", "2b9166ee1987948fbea2ccf6b703e749");
    ("CtxForum", "7bd12538eb3d477f1df7ecbf23dd5fce");
    ("CtxGallery", "25b3f1385d1b829caa648e17f2fb6a67");
    ("CtxLedger", "93d4199ce1070a2896e64bf4641f661e") ]

(* The same digest under hybrid-optimized, the CLI and serve default:
   the only pin on a run that keeps §6.1's priorities (its node budget
   orders constraint adding), so it guards the code that only
   prioritized runs execute. Recorded before the FIFO runs stopped
   assigning priorities. *)
let pinned_solver_optimized =
  [ ("A", "cf7e2cce7b7d64a205d9d59dbb414149");
    ("B", "bcb743d1cf9e30afe3ece9f22a5f325a");
    ("Blojsom", "1b7bc511732ff45bb16ca23af7500507");
    ("BlueBlog", "f09dfd19b57177f1fa09f6bf6258e482");
    ("Dlog", "879a1fb71135b285f71c043da623e75c");
    ("Friki", "83d30d2b64caea1cbdcb5a59e0f5ab12");
    ("GestCV", "672ad1943bdfe6d9cf27dd691bc23925");
    ("Ginp", "8b58e1ea42b6563399ead3cbb028752e");
    ("GridSphere", "7e50c86a8471b6780af77014773a5d44");
    ("I", "19b2e20cb8daaeab2aa2787b4ba47312");
    ("JSPWiki", "1c235d92fe0f0d96ddf4c1ad3e649254");
    ("Lutece", "3ea60ca801fe636d8808d41f63d65c28");
    ("MVNForum", "d224c763d42721e92ad10ce1f130dbdc");
    ("PersonalBlog", "e282da883be3856e66ec60c4e59a74d5");
    ("Roller", "79d1a2b8d7308615619c0b7c50820c85");
    ("S", "a1e0a9a9ce1a38ffe6d8ca5458fd8275");
    ("SBM", "664150bce97ee6b89af932fb228064d4");
    ("SnipSnap", "7de3f596332ffa1a21485807d776c63a");
    ("SPLC", "947948256718caa3d5e0e15ebc8062e2");
    ("ST", "0a3e6236b7beade6f93b61a25237cd51");
    ("VQWiki", "f0eb8825405a8504549c8d6082a9d54c");
    ("Webgoat", "456dc418d745e3742540fa619f4e2ecf");
    ("CtxForum", "58deceb73aae32b72036b4a848d07cf2");
    ("CtxGallery", "ee8426e7433b2e9d52061557d607f05c");
    ("CtxLedger", "40e32b3c27dc10534eace902e15c815a") ]

let solver_md5 alg (a : Apps.app) =
  let open Pointer in
  let g = Apps.generate ~scale:pin_scale a in
  let config = Config.preset ~scale:pin_scale alg in
  match (Taj.analyze ~config (Codegen.to_input g)).Taj.result with
  | Taj.Completed c ->
    let an = c.Taj.andersen in
    let u = Andersen.universe an in
    let buf = Buffer.create 65536 in
    for p = 0 to Keys.pk_count u - 1 do
      let k = Keys.pk_of u p in
      Buffer.add_string buf (Fmt.str "pk%d %a:" p Keys.pp_ptr k);
      Andersen.Int_set.iter (Printf.bprintf buf " %d") (Andersen.pts_key an k);
      Buffer.add_char buf '\n'
    done;
    for i = 0 to Keys.ik_count u - 1 do
      Buffer.add_string buf
        (Fmt.str "ik%d %a\n" i Keys.pp_inst (Keys.ik_of u i))
    done;
    Buffer.add_string buf (Dot.callgraph an);
    let s = Andersen.statistics an in
    Printf.bprintf buf "nodes %d dropped %d propagations %d dispatches %d\n"
      s.Andersen.nodes_processed s.Andersen.dropped_calls
      s.Andersen.propagations s.Andersen.dispatches;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  | Taj.Did_not_complete reason -> "did not complete: " ^ reason

let check_solver_pins alg pins () =
  let apps = Apps.table2 @ Apps.contexts_apps in
  Alcotest.(check (list string)) "every app pinned"
    (List.map fst pins)
    (List.map (fun (a : Apps.app) -> a.Apps.name) apps);
  List.iter
    (fun (a : Apps.app) ->
       Alcotest.(check string)
         (Printf.sprintf "%s: solver digest" a.Apps.name)
         (List.assoc a.Apps.name pins) (solver_md5 alg a))
    apps

let suite =
  [ Alcotest.test_case "hybrid/CI soundness agreement" `Slow
      test_hybrid_ci_soundness_agreement;
    Alcotest.test_case "CS false negatives" `Slow test_cs_false_negatives;
    Alcotest.test_case "CS completion set" `Slow test_cs_completion_set;
    Alcotest.test_case "optimized FN on BlueBlog" `Slow
      test_optimized_single_fn_on_blueblog;
    Alcotest.test_case "accuracy ordering" `Slow test_accuracy_ordering;
    Alcotest.test_case "priority beats chaotic" `Slow
      test_priority_beats_chaotic;
    Alcotest.test_case "flow length correlation" `Slow
      test_flow_length_correlation;
    Alcotest.test_case "pinned report digests" `Slow test_pinned_reports;
    Alcotest.test_case "pinned --json digests" `Slow test_pinned_json;
    Alcotest.test_case "pinned solver digests" `Slow
      (check_solver_pins Config.Hybrid_unbounded pinned_solver);
    Alcotest.test_case "pinned solver digests (optimized)" `Slow
      (check_solver_pins Config.Hybrid_optimized pinned_solver_optimized) ]
