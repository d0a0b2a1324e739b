(* Rule-matching unit tests: canonicalization through the hierarchy, sink
   argument positions, per-rule sanitizers, priority seeding. *)

open Core
open Jir

let table_of srcs =
  let prog = Program.create () in
  List.iter
    (Lower.declare prog ~library:true)
    (Models.Jdklib.units ());
  List.iter (fun s -> Lower.declare prog ~library:false (Parser.parse s)) srcs;
  prog.Program.table

let mref cls name arity = { Tac.rclass = cls; rname = name; rarity = arity }

let test_canonicalization_through_subclass () =
  let table =
    table_of
      [ "class MyRequest extends HttpServletRequest { }";
        "class Out { public String w(String a) { return a; } \
         public String w(String a, String b) { return b; } }";
        "class SubOut extends Out { }" ]
  in
  let m = Rules.matcher table in
  Alcotest.(check string) "subclass target resolves to declaring class"
    "HttpServletRequest.getParameter/2"
    (Rules.canonical m (mref "MyRequest" "getParameter" 2));
  Alcotest.(check string) "unknown class stays as written" "Ghost.spook/1"
    (Rules.canonical m (mref "Ghost" "spook" 1));
  (* the memo tells targets apart by class, name and arity *)
  List.iter
    (fun (cls, arity, expected) ->
       Alcotest.(check string)
         (Printf.sprintf "%s.w/%d" cls arity)
         expected
         (Rules.canonical m (mref cls "w" arity)))
    [ ("SubOut", 2, "Out.w/2"); ("SubOut", 3, "Out.w/3");
      ("Out", 3, "Out.w/3"); ("SubOut", 2, "Out.w/2") ]

let test_source_matching () =
  let table = table_of [] in
  let m = Rules.matcher table in
  Alcotest.(check bool) "getParameter is an xss source" true
    (Rules.source_of m Rules.xss (mref "HttpServletRequest" "getParameter" 2)
     <> None);
  Alcotest.(check bool) "getMessage is not an xss source" true
    (Rules.source_of m Rules.xss (mref "Throwable" "getMessage" 1) = None);
  Alcotest.(check bool) "getMessage is an info-leak source" true
    (Rules.source_of m Rules.info_leak (mref "Throwable" "getMessage" 1)
     <> None)

let test_sink_positions () =
  let table = table_of [] in
  let m = Rules.matcher table in
  Alcotest.(check bool) "println arg 1 is sensitive" true
    (Rules.is_sink_arg m Rules.xss (mref "PrintWriter" "println" 2) 1);
  Alcotest.(check bool) "println receiver is not" false
    (Rules.is_sink_arg m Rules.xss (mref "PrintWriter" "println" 2) 0);
  Alcotest.(check bool) "addHeader value is sensitive" true
    (Rules.is_sink_arg m Rules.xss (mref "HttpServletResponse" "addHeader" 3) 2);
  Alcotest.(check bool) "addHeader name is not" false
    (Rules.is_sink_arg m Rules.xss (mref "HttpServletResponse" "addHeader" 3) 1)

let test_sanitizers_per_rule () =
  let table = table_of [] in
  let m = Rules.matcher table in
  let encode = mref "URLEncoder" "encode" 1 in
  Alcotest.(check bool) "encode sanitizes xss" true
    (Rules.is_sanitizer m Rules.xss encode);
  Alcotest.(check bool) "encode does not sanitize sqli" false
    (Rules.is_sanitizer m Rules.sqli encode);
  let escape = mref "Sanitizer" "escapeSql" 1 in
  Alcotest.(check bool) "escapeSql sanitizes sqli" true
    (Rules.is_sanitizer m Rules.sqli escape);
  Alcotest.(check bool) "escapeSql does not sanitize xss" false
    (Rules.is_sanitizer m Rules.xss escape)

(* Regression: tabulation, refinement and triage all resolve sanitizer
   calls through [canonical], so a subclass that merely *inherits* a
   sanitizer matches, while one that *overrides* it with its own body
   does not — the override may not sanitize at all. *)
let test_overriding_subclass_sanitizer () =
  let table =
    table_of
      [ "class InheritSan extends Sanitizer { }";
        "class OverrideSan extends Sanitizer { public static String \
         encodeHtml(String s) { return s; } }" ]
  in
  let m = Rules.matcher table in
  Alcotest.(check (option string)) "inheriting subclass matches"
    (Some "Sanitizer.encodeHtml/1")
    (Rules.sanitizer_of m Rules.default_rules (mref "InheritSan" "encodeHtml" 1));
  Alcotest.(check (option string)) "overriding subclass does not match" None
    (Rules.sanitizer_of m Rules.default_rules
       (mref "OverrideSan" "encodeHtml" 1));
  Alcotest.(check bool) "xss rule agrees for the inheriting subclass" true
    (Rules.is_sanitizer m Rules.xss (mref "InheritSan" "encodeHtml" 1));
  Alcotest.(check bool) "xss rule agrees for the overriding subclass" false
    (Rules.is_sanitizer m Rules.xss (mref "OverrideSan" "encodeHtml" 1))

let test_priority_seed_predicate () =
  let table =
    table_of [ "class MyRequest extends HttpServletRequest { }" ]
  in
  let m = Rules.matcher table in
  let is_source = Rules.is_source_method_id Rules.default_rules m in
  Alcotest.(check bool) "direct id" true
    (is_source "HttpServletRequest.getParameter/2");
  Alcotest.(check bool) "subclass id" true
    (is_source "MyRequest.getParameter/2");
  Alcotest.(check bool) "sink is not a source" false
    (is_source "PrintWriter.println/2");
  Alcotest.(check bool) "garbage id" false (is_source "not-a-method-id")

(* The source test of the pointer priorities, as it was before it
   rejected ids by their member name: a parse of the id, its canonical
   form, and every rule's sources. *)
let reference_is_source rules m id =
  match String.rindex_opt id '/' with
  | None -> false
  | Some slash ->
    (match String.rindex_opt id '.' with
     | None -> false
     | Some dot ->
       let rclass = String.sub id 0 dot in
       let rname = String.sub id (dot + 1) (slash - dot - 1) in
       (match
          int_of_string_opt
            (String.sub id (slash + 1) (String.length id - slash - 1))
        with
        | None -> false
        | Some rarity ->
          let c = Rules.canonical m { Tac.rclass; rname; rarity } in
          List.exists (fun r -> Rules.source_of_id r c <> None) rules))

(* [is_source_method_id] answers as the reference does for every method
   id and every call target of the 25 apps, and for ids the apps do not
   have: an arity the canonical id spells otherwise, no member name, and
   a '.' after the last '/', where the reference raises. *)
let test_source_id_agrees_with_reference () =
  let scale = 0.02 in
  let rules = Rules.default_rules in
  let positives = ref 0 in
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let g = Workloads.Apps.generate ~scale a in
       let prog = (Taj.load (Workloads.Codegen.to_input g)).Taj.program in
       let m = Rules.matcher prog.Program.table in
       let reference = Rules.matcher prog.Program.table in
       let check id =
         let expected = reference_is_source rules reference id in
         if expected then incr positives;
         Alcotest.(check bool)
           (Printf.sprintf "%s: %s" a.Workloads.Apps.name id)
           expected
           (Rules.is_source_method_id rules m id)
       in
       Program.iter_methods prog (fun meth ->
           check (Tac.method_id meth);
           Array.iter
             (fun (b : Tac.block) ->
                Array.iter
                  (function
                    | Tac.Call c -> check (Tac.mref_id c.Tac.target)
                    | _ -> ())
                  b.Tac.instrs)
             meth.Tac.m_blocks))
    (Workloads.Apps.table2 @ Workloads.Apps.contexts_apps);
  Alcotest.(check bool) "the apps call sources" true (!positives > 0);
  let m = Rules.matcher (table_of []) in
  let is_source = Rules.is_source_method_id rules m in
  Alcotest.(check bool) "arity 02 parses to a source" true
    (is_source "HttpServletRequest.getParameter/02");
  Alcotest.(check bool) "the reference agrees" true
    (reference_is_source rules m "HttpServletRequest.getParameter/02");
  List.iter
    (fun id ->
       Alcotest.(check bool) id false (is_source id);
       Alcotest.(check bool) (id ^ ": reference") false
         (reference_is_source rules m id))
    [ "x"; "Foo.bar/x" ];
  Alcotest.check_raises "the reference's parse fails on a/b.c"
    (Invalid_argument "String.sub / Bytes.sub")
    (fun () -> ignore (reference_is_source rules m "a/b.c"));
  Alcotest.(check bool) "a/b.c has no member name" false (is_source "a/b.c")

(* The resolution [Engine.run] builds once per run gives every call
   statement of the 25 apps the answers the per-query functions give:
   source kind, sink parameters and sanitizer flag, for every default
   rule. The reference asks a fresh matcher per query, and the id is
   rebuilt with the format the one id builder replaced. *)
let test_resolution_agreement () =
  let scale = 0.02 in
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let name = a.Workloads.Apps.name in
       let g = Workloads.Apps.generate ~scale a in
       let prog = (Taj.load (Workloads.Codegen.to_input g)).Taj.program in
       let table = prog.Program.table in
       let builder = Sdg.Builder.build prog (Pointer.Andersen.run prog) in
       let m = Rules.matcher table in
       let calls = Engine.resolve_calls m builder in
       Alcotest.(check bool) (name ^ ": call statements resolved") true
         (calls <> []);
       List.iter
         (fun (_, (c : Tac.call), id) ->
            let t = c.Tac.target in
            let reference_id =
              match
                Classtable.lookup_method table t.Tac.rclass t.Tac.rname
                  t.Tac.rarity
              with
              | Some mi ->
                Printf.sprintf "%s.%s/%d" mi.Classtable.mi_class t.Tac.rname
                  t.Tac.rarity
              | None ->
                Printf.sprintf "%s.%s/%d" t.Tac.rclass t.Tac.rname t.Tac.rarity
            in
            let ctx = Printf.sprintf "%s: %s" name reference_id in
            Alcotest.(check string) (ctx ^ ": canonical id") reference_id id;
            Alcotest.(check string) (ctx ^ ": callbacks read the same id") id
              (Rules.canonical m t);
            List.iter
              (fun (rule : Rules.rule) ->
                 let reference = Rules.matcher table in
                 let ctx = ctx ^ " / " ^ rule.Rules.rule_name in
                 Alcotest.(check bool) (ctx ^ ": source kind") true
                   (Rules.source_of_id rule id
                    = Rules.source_of reference rule t);
                 Alcotest.(check (option (list int))) (ctx ^ ": sink params")
                   (Option.map
                      (fun s -> s.Rules.snk_params)
                      (Rules.sink_of reference rule t))
                   (Option.map
                      (fun s -> s.Rules.snk_params)
                      (Rules.sink_of_id rule id));
                 Alcotest.(check bool) (ctx ^ ": sanitizer flag")
                   (Rules.is_sanitizer reference rule t)
                   (Rules.is_sanitizer_id rule id))
              Rules.default_rules)
         calls)
    (Workloads.Apps.table2 @ Workloads.Apps.contexts_apps)

let suite =
  [ Alcotest.test_case "canonicalization" `Quick
      test_canonicalization_through_subclass;
    Alcotest.test_case "source matching" `Quick test_source_matching;
    Alcotest.test_case "sink positions" `Quick test_sink_positions;
    Alcotest.test_case "sanitizers per rule" `Quick test_sanitizers_per_rule;
    Alcotest.test_case "overriding subclass sanitizer" `Quick
      test_overriding_subclass_sanitizer;
    Alcotest.test_case "priority seed predicate" `Quick
      test_priority_seed_predicate;
    Alcotest.test_case "per-run resolution agrees with per-query" `Slow
      test_resolution_agreement;
    Alcotest.test_case "source id test agrees with its parse" `Slow
      test_source_id_agrees_with_reference ]
