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

let solver_md5 (a : Apps.app) =
  let open Pointer in
  let g = Apps.generate ~scale:pin_scale a in
  let config = Config.preset ~scale:pin_scale Config.Hybrid_unbounded in
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

let test_pinned_solver () =
  let apps = Apps.table2 @ Apps.contexts_apps in
  Alcotest.(check (list string)) "every app pinned"
    (List.map fst pinned_solver)
    (List.map (fun (a : Apps.app) -> a.Apps.name) apps);
  List.iter
    (fun (a : Apps.app) ->
       Alcotest.(check string)
         (Printf.sprintf "%s: solver digest" a.Apps.name)
         (List.assoc a.Apps.name pinned_solver) (solver_md5 a))
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
    Alcotest.test_case "pinned solver digests" `Slow test_pinned_solver ]
