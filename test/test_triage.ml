(* The type-qualifier triage (rung zero) and its pre-filter contract:
   - the inference finds type-level taint witnesses with no slicing;
   - untaint-reachable helpers are skippable, rule-relevant code is not;
   - the verdict on every benchmark app is pinned, stats and all;
   - the subtype index behind CHA dispatch agrees with [is_subclass];
   - the pre-filter changes no report byte, at any worker-pool size,
     over the whole benchmark suite (the metamorphic contract);
   - an injected triage fault degrades to the unfiltered full analysis
     instead of failing the run;
   - the degradation ladder gets strictly cheaper rung to rung and
     always ends at the triage rung;
   - rung zero loses no planted true positive (it over-approximates);
   - the shared CSV writer quotes RFC-4180 edge cases. *)

open Core

let load srcs =
  Taj.load { Taj.name = "triage"; app_sources = srcs; descriptor = "" }

let servlet =
  {|class Cell { String v; }
    class Helper { int add(int a, int b) { return a + b; } }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        c.v = req.getParameter("x");
        resp.getWriter().println(c.v);
      }
    }|}

let clean_servlet =
  {|class Quiet extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        resp.getWriter().println("static text");
      }
    }|}

let triage_of srcs = Taj.triage ~rules:Rules.default_rules (load srcs)

(* ------------------------------------------------------------------ *)
(* inference                                                          *)
(* ------------------------------------------------------------------ *)

let test_finds_type_level_flow () =
  let v = triage_of [ servlet ] in
  let fs = Triage.findings v in
  Alcotest.(check bool) "some finding" true (fs <> []);
  Alcotest.(check bool) "xss found" true
    (List.exists (fun f -> f.Triage.f_rule = "xss") fs);
  List.iter
    (fun (f : Triage.finding) ->
       Alcotest.(check string) "in the servlet class" "Page" f.Triage.f_class;
       Alcotest.(check bool) "never an untainted finding" true
         (f.Triage.f_qual <> Triage.Untainted))
    fs;
  let s = Triage.stats v in
  Alcotest.(check bool) "methods swept" true (s.Triage.s_methods > 0);
  Alcotest.(check bool) "fixpoint took at least one pass" true
    (s.Triage.s_passes >= 1);
  Alcotest.(check int) "finding count matches stats"
    s.Triage.s_findings (List.length fs)

let test_clean_program_has_no_findings () =
  let v = triage_of [ clean_servlet ] in
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Triage.f_rule) (Triage.findings v))

let test_keep_skips_pure_helpers () =
  let loaded = load [ servlet ] in
  let v = Taj.triage ~rules:Rules.default_rules loaded in
  Alcotest.(check bool) "pure helper is skippable" false
    (Triage.keep_id v "Helper.add/3");
  (* the tainted servlet method must survive any filter *)
  Alcotest.(check bool) "tainted method kept" true
    (Triage.keep_id v "Page.doGet/3")

let test_rule_has_source () =
  let with_source = triage_of [ servlet ] in
  Alcotest.(check bool) "xss has a matched source" true
    (Triage.rule_has_source with_source "xss");
  let without = triage_of [ clean_servlet ] in
  Alcotest.(check bool) "no source, rule skippable" false
    (Triage.rule_has_source without "xss")

(* ------------------------------------------------------------------ *)
(* pinned verdicts                                                    *)
(* ------------------------------------------------------------------ *)

(* The verdict of every benchmark app, pinned: the stats (methods,
   skippable, tainted methods, findings, passes) and one digest of the
   sorted findings (rule, method id, site, qualifier), the sorted kept
   method ids and the rules with a matched source. The filter
   byte-identity test cannot see a solver that keeps more methods or
   drops an [Unknown] rung-zero finding; this one can. *)
let verdict_fingerprint (a : Workloads.Apps.app) =
  let loaded =
    Taj.load
      (Workloads.Codegen.to_input (Workloads.Apps.generate ~scale:0.02 a))
  in
  let v = Taj.triage ~rules:Rules.default_rules loaded in
  let s = Triage.stats v in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (rule, mid, site, qual) ->
       Printf.bprintf buf "F %s %s %d %s\n" rule mid site qual)
    (List.sort compare
       (List.map
          (fun (f : Triage.finding) ->
             ( f.Triage.f_rule, f.Triage.f_method_id, f.Triage.f_site,
               Triage.qual_name f.Triage.f_qual ))
          (Triage.findings v)));
  List.iter
    (fun id -> if Triage.keep_id v id then Printf.bprintf buf "K %s\n" id)
    (Jir.Program.all_method_ids loaded.Taj.program);
  List.iter
    (fun (r : Rules.rule) ->
       if Triage.rule_has_source v r.Rules.rule_name then
         Printf.bprintf buf "S %s\n" r.Rules.rule_name)
    Rules.default_rules;
  ( ( s.Triage.s_methods,
      s.Triage.s_skippable,
      s.Triage.s_tainted_methods,
      s.Triage.s_findings,
      s.Triage.s_passes ),
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

(* app -> ((methods, skippable, tainted methods, findings, passes),
   digest), recorded with the string-keyed solver this replaced *)
let pinned_verdicts =
  [ ("A", ((323, 264, 59, 21, 3), "06b09931c776da7a2e42c4abe700bec6"));
    ("B", ((481, 424, 57, 11, 3), "5b64e2acb1eb28b507724c53a608f425"));
    ("Blojsom", ((422, 300, 122, 86, 3), "50f0898e9682a3c4c89d31635d98fc72"));
    ("BlueBlog", ((320, 268, 52, 17, 3), "a3ec61a35fd28f0b0a55c8e6b341e4b3"));
    ("Dlog", ((564, 509, 55, 8, 3), "7ef06fb9e13bf8c662b6ec444d71cfdf"));
    ("Friki", ((317, 263, 54, 18, 3), "46dc69323a2e11df90fad12dcb114d1b"));
    ("GestCV", ((379, 332, 47, 10, 3), "586b89b3942c7396c1b652bb8455387e"));
    ("Ginp", ((324, 267, 57, 22, 3), "23dee9c22951cfa1daa642ee44bdc58a"));
    ("GridSphere", ((937, 574, 363, 292, 3), "9f0a3929abe06fd0f7d6add74a6cdefc"));
    ("I", ((310, 264, 46, 11, 3), "caa963d6b4c6c53c7a3d6925452c76b0"));
    ("JSPWiki", ((556, 481, 75, 26, 3), "efd89d7855db1aca527b5f3287f66051"));
    ("Lutece", ((545, 492, 53, 6, 3), "f0780b07bbfdccc70d612bb1d8d4a7ab"));
    ("MVNForum", ((690, 541, 149, 90, 3), "18f5ec2ad33a263ac4073b26133209de"));
    ("PersonalBlog", ((563, 341, 222, 165, 3), "222afcadfbf0a9e278e63730082cb790"));
    ("Roller", ((685, 393, 292, 238, 3), "17218ef81fbf04341e7518a7c7c489d8"));
    ("S", ((550, 346, 204, 157, 3), "ef74bc04cc521f1510bf23a32fd6d369"));
    ("SBM", ((393, 289, 104, 64, 3), "c71c8288cb1c0e5eef8fecc428afacac"));
    ("SnipSnap", ((674, 597, 77, 25, 3), "631d84d356634706c577c488a477ee90"));
    ("SPLC", ((338, 293, 45, 10, 3), "5fdc875370a6979e12c9b5a7b2b073a8"));
    ("ST", ((951, 599, 352, 281, 3), "a5628574dc6aac667c54c058cd0bd9e8"));
    ("VQWiki", ((833, 447, 386, 313, 3), "e108a586b4cecd40542a404514b3588d"));
    ("Webgoat", ((598, 529, 69, 19, 3), "249ed15d0fc798ce45948f70dc87933c"));
    ("CtxForum", ((305, 259, 46, 6, 3), "ec1230626e361a6f0edbaac4dc1a4771"));
    ("CtxGallery", ((311, 261, 50, 12, 3), "e531a4d9c1e2a21644831d7ff59b4357"));
    ("CtxLedger", ((301, 259, 42, 7, 3), "f89132108857659671bdf1a78c5854c5")) ]

let test_pinned_verdicts () =
  let apps = Workloads.Apps.table2 @ Workloads.Apps.contexts_apps in
  Alcotest.(check (list string)) "every app pinned"
    (List.map fst pinned_verdicts)
    (List.map (fun (a : Workloads.Apps.app) -> a.Workloads.Apps.name) apps);
  let show ((m, sk, tm, f, p), digest) =
    Printf.sprintf "methods %d skippable %d tainted %d findings %d passes %d \
                    digest %s" m sk tm f p digest
  in
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let name = a.Workloads.Apps.name in
       Alcotest.(check string) (name ^ ": pinned verdict")
         (show (List.assoc name pinned_verdicts))
         (show (verdict_fingerprint a)))
    apps

(* ------------------------------------------------------------------ *)
(* subtype index                                                      *)
(* ------------------------------------------------------------------ *)

(* Random acyclic hierarchies: declaration [i] is "T<i>", a concrete
   class, an abstract class or an interface ([kind] 0, 1, 2). Each pick
   names an earlier declaration, or else "Object", one of two supertypes
   missing from the table, or nothing. An optional declared "Object"
   roots the table. *)
let hierarchy_gen =
  QCheck.Gen.(
    pair bool
      (list_size (int_range 1 14)
         (triple (int_range 0 2) (int_range 0 20)
            (list_size (int_range 0 3) (int_range 0 20)))))

let build_hierarchy (with_object, decls) =
  let t = Jir.Classtable.create () in
  let cls ?(abstract = false) ?super ?(ifaces = []) name =
    Jir.Ast.Class
      { Jir.Ast.c_name = name; c_super = super; c_ifaces = ifaces;
        c_fields = []; c_methods = []; c_ctors = []; c_abstract = abstract;
        c_pos = Jir.Ast.dummy_pos }
  in
  if with_object then Jir.Classtable.add_decl t ~library:true (cls "Object");
  List.iteri
    (fun i (kind, super, ifaces) ->
       let pick p =
         if p < i then Some (Printf.sprintf "T%d" p)
         else
           match (p - i) mod 4 with
           | 0 -> Some "Object"
           | 1 -> Some "Ghost"
           | 2 -> Some "GhostIface"
           | _ -> None
       in
       let name = Printf.sprintf "T%d" i in
       let super = pick super and ifaces = List.filter_map pick ifaces in
       Jir.Classtable.add_decl t ~library:false
         (match kind with
          | 0 -> cls ?super ~ifaces name
          | 1 -> cls ~abstract:true ?super ~ifaces name
          | _ ->
            Jir.Ast.Interface
              { Jir.Ast.i_name = name; i_supers = Option.to_list super @ ifaces;
                i_methods = []; i_pos = Jir.Ast.dummy_pos }))
    decls;
  (t, List.length decls)

let prop_subtype_index_matches_is_subclass =
  QCheck.Test.make ~name:"subtype index agrees with is_subclass" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair bool (list (triple int int (list int))))
       hierarchy_gen)
    (fun h ->
       let t, n = build_hierarchy h in
       let module C = Jir.Classtable in
       let reference d =
         List.filter_map
           (fun (c : C.cls) ->
              if c.C.cl_kind = C.Class_kind && (not c.C.cl_abstract)
                 && C.is_subclass t c.C.cl_name d
              then Some c.C.cl_name
              else None)
           (C.all_classes t)
       in
       let index = C.subtype_index t in
       let queries =
         List.init n (Printf.sprintf "T%d")
         @ [ "Object"; "Ghost"; "GhostIface"; "Absent" ]
       in
       (* asked twice: the memoized answer must not drift *)
       List.for_all
         (fun d -> index d = reference d && index d = reference d)
         queries)

(* ------------------------------------------------------------------ *)
(* pre-filter metamorphic contract                                    *)
(* ------------------------------------------------------------------ *)

let rendered_report ~filter loaded =
  let config =
    { (Config.preset ~scale:0.02 Config.Hybrid_optimized) with
      Config.triage_filter = filter }
  in
  match (Taj.run loaded config).Taj.result with
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
  | Taj.Completed c -> Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report

(* The whole benchmark suite, filter on vs off: the filter may only skip
   work, never change a report byte. *)
let test_filter_byte_identity_all_apps () =
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let loaded =
         Taj.load
           (Workloads.Codegen.to_input
              (Workloads.Apps.generate ~scale:0.02 a))
       in
       Alcotest.(check string)
         (a.Workloads.Apps.name ^ ": filtered report identical")
         (rendered_report ~filter:false loaded)
         (rendered_report ~filter:true loaded))
    Workloads.Apps.table2

(* ------------------------------------------------------------------ *)
(* fault containment                                                  *)
(* ------------------------------------------------------------------ *)

let run_with_fault site =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm site ~after:1;
  let loaded = load [ servlet ] in
  let report =
    match
      (Taj.run loaded (Config.preset ~scale:0.02 Config.Hybrid_optimized))
        .Taj.result
    with
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
    | Taj.Completed c ->
      Alcotest.(check bool) (site ^ ": fault fired") true
        (Fault.fired site > 0);
      Alcotest.(check bool) (site ^ ": triage fault recorded") true
        (List.exists
           (function
             | Diagnostics.Phase_fault { phase = Diagnostics.Triage; _ } ->
               true
             | _ -> false)
           c.Taj.diagnostics);
      Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report
  in
  Fault.reset ();
  let clean =
    match
      (Taj.run loaded (Config.preset ~scale:0.02 Config.Hybrid_optimized))
        .Taj.result
    with
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
    | Taj.Completed c -> Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report
  in
  (* the faulted run keeps every flow of the clean run and appends the
     recorded triage fault as a partiality note — so the clean rendering
     must be a strict prefix of the faulted one *)
  Alcotest.(check bool) (site ^ ": all flows survive the fault") true
    (String.length report > String.length clean
     && String.sub report 0 (String.length clean) = clean)

let test_fault_in_infer_degrades_to_unfiltered () =
  run_with_fault Fault.site_triage_infer

let test_fault_in_filter_degrades_to_unfiltered () =
  run_with_fault Fault.site_triage_filter

(* ------------------------------------------------------------------ *)
(* ladder shape                                                       *)
(* ------------------------------------------------------------------ *)

(* Cost vector of a rung: every budget normalized to "max_int =
   unbounded". Cheaper-or-equal in every dimension and strictly cheaper
   in at least one is what "the ladder only descends" means. *)
let cost (_, (cfg : Config.t)) =
  if cfg.Config.algorithm = Config.Type_triage then [ 0; 0; 0; 0 ]
  else
    [ Option.value ~default:max_int cfg.Config.max_cg_nodes;
      Option.value ~default:max_int cfg.Config.max_heap_transitions;
      Option.value ~default:max_int cfg.Config.max_flow_length;
      (if cfg.Config.nested_taint_depth < 0 then max_int
       else cfg.Config.nested_taint_depth) ]

let strictly_cheaper a b =
  List.for_all2 (fun x y -> y <= x) (cost a) (cost b)
  && List.exists2 (fun x y -> y < x) (cost a) (cost b)

let prop_ladder_descends_to_triage =
  QCheck.Test.make ~name:"ladder rungs strictly cheaper, triage last"
    ~count:100
    QCheck.(
      pair (int_range 0 4) (float_range 0.02 1.0))
    (fun (alg_ix, scale) ->
       let algorithm = List.nth Config.all_algorithms alg_ix in
       let ladder =
         Config.degradation_ladder ~scale (Config.preset ~scale algorithm)
       in
       let rec descends = function
         | a :: (b :: _ as rest) -> strictly_cheaper a b && descends rest
         | [ _ ] | [] -> true
       in
       ladder <> []
       && (snd (List.nth ladder (List.length ladder - 1))).Config.algorithm
          = Config.Type_triage
       && List.length
            (List.filter
               (fun (_, c) -> c.Config.algorithm = Config.Type_triage)
               ladder)
          = 1
       && descends ladder)

let test_triage_ladder_is_empty () =
  Alcotest.(check int) "nothing below rung zero" 0
    (List.length (Config.degradation_ladder (Config.preset Config.Type_triage)))

(* ------------------------------------------------------------------ *)
(* rung-zero recall                                                   *)
(* ------------------------------------------------------------------ *)

let test_rung_zero_loses_no_planted_tp () =
  List.iter
    (fun name ->
       let app = Option.get (Workloads.Apps.find name) in
       let rows = Workloads.Score.run_rungs ~scale:0.02 app in
       match List.rev rows with
       | [] -> Alcotest.fail "empty ladder"
       | last :: _ ->
         Alcotest.(check string) (name ^ ": last rung is triage") "triage"
           last.Workloads.Score.rr_rung;
         (match last.Workloads.Score.rr_classification with
          | None -> Alcotest.fail (name ^ ": rung zero did not complete")
          | Some c ->
            Alcotest.(check int) (name ^ ": rung zero loses no planted TP")
              0 c.Workloads.Score.false_negatives))
    [ "BlueBlog"; "Friki"; "Webgoat" ]

(* ------------------------------------------------------------------ *)
(* CSV quoting                                                        *)
(* ------------------------------------------------------------------ *)

let test_csv_quoting () =
  Alcotest.(check string) "clean field passes through" "plain"
    (Obs.Csv.field "plain");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Obs.Csv.field "a,b");
  Alcotest.(check string) "embedded quote doubled" "\"a\"\"b\""
    (Obs.Csv.field "a\"b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Obs.Csv.field "a\nb");
  Alcotest.(check string) "carriage return quoted" "\"a\rb\""
    (Obs.Csv.field "a\rb");
  Alcotest.(check string) "row quotes per field and terminates"
    "x,\"a,\"\"b\"\"\n\",1\n"
    (Obs.Csv.row [ "x"; "a,\"b\"\n"; "1" ])

let suite =
  [ Alcotest.test_case "type-level flow found" `Quick
      test_finds_type_level_flow;
    Alcotest.test_case "clean program silent" `Quick
      test_clean_program_has_no_findings;
    Alcotest.test_case "pure helpers skippable" `Quick
      test_keep_skips_pure_helpers;
    Alcotest.test_case "rule-has-source" `Quick test_rule_has_source;
    Alcotest.test_case "pinned verdicts over all apps" `Quick
      test_pinned_verdicts;
    QCheck_alcotest.to_alcotest prop_subtype_index_matches_is_subclass;
    Alcotest.test_case "filter byte-identity over all apps" `Quick
      test_filter_byte_identity_all_apps;
    Alcotest.test_case "infer fault degrades to unfiltered" `Quick
      test_fault_in_infer_degrades_to_unfiltered;
    Alcotest.test_case "filter fault degrades to unfiltered" `Quick
      test_fault_in_filter_degrades_to_unfiltered;
    QCheck_alcotest.to_alcotest prop_ladder_descends_to_triage;
    Alcotest.test_case "nothing below rung zero" `Quick
      test_triage_ladder_is_empty;
    Alcotest.test_case "rung zero loses no planted TP" `Quick
      test_rung_zero_loses_no_planted_tp;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting ]
