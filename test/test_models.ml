(* Unit tests for the code-model layer: the model JDK itself, the
   constant-key dictionary encoding, native transfer summaries, the
   reflection evaluator, and IR well-formedness after all rewrites. *)

open Jir

let test_jdk_parses () =
  let units = Models.Jdklib.units () in
  Alcotest.(check int) "all units parse" (List.length Models.Jdklib.sources)
    (List.length units);
  (* the model JDK declares the essential classes *)
  let prog = Program.create () in
  List.iter (Lower.declare prog ~library:true) units;
  List.iter
    (fun cls ->
       Alcotest.(check bool) (cls ^ " declared") true
         (Classtable.mem prog.Program.table cls))
    [ "Object"; "String"; "StringBuffer"; "HashMap"; "ArrayList";
      "HttpServletRequest"; "HttpServletResponse"; "HttpServlet";
      "PrintWriter"; "Statement"; "Connection"; "Throwable"; "Exception";
      "Class"; "Method"; "Thread"; "Action"; "ActionForm"; "InitialContext";
      "Runtime"; "URLEncoder"; "Sanitizer" ]

let test_jdk_lowers_and_verifies () =
  let prog = Program.create () in
  let units = Models.Jdklib.units () in
  Lower.load prog (List.map (fun u -> (true, u)) units);
  Ssa.convert_program prog;
  Alcotest.(check (list string)) "no violations" []
    (List.map (Fmt.str "%a" Verify.pp_violation) (Verify.check_program prog))

(* ---- dictionary model ---- *)

let mk_call ?(cls = "HashMap") ?(name = "put") args ret =
  { Tac.ret;
    kind = Tac.Virtual;
    target = { Tac.rclass = cls; rname = name;
               rarity = List.length args };
    args;
    site = 0 }

let test_dict_classify () =
  let const_of v = if v = 5 then Some "key" else None in
  (match Models.Dict_model.classify ~const_of (mk_call [ 1; 5; 2 ] (Some 9)) with
   | Some (Models.Dict_model.Dict_put
             { recv = 1; key = Models.Dict_model.Const_key "key"; value = 2 }) ->
     ()
   | _ -> Alcotest.fail "constant put misclassified");
  (match
     Models.Dict_model.classify ~const_of
       (mk_call ~name:"get" [ 1; 7 ] (Some 9))
   with
   | Some (Models.Dict_model.Dict_get
             { dst = 9; recv = 1; key = Models.Dict_model.Unknown_key }) -> ()
   | _ -> Alcotest.fail "unknown get misclassified");
  (* non-dictionary class is left alone *)
  Alcotest.(check bool) "non-dict class ignored" true
    (Models.Dict_model.classify ~const_of
       (mk_call ~cls:"ArrayList" ~name:"get" [ 1; 5 ] (Some 9))
     = None)

(* The matches accept exactly the dictionary classes and the put/get
   verbs: every other class and method name of the model JDK, and near
   misses of each, are left alone. *)
let test_dict_matches_exactly () =
  let module D = Models.Dict_model in
  let table = (Models.Jdklib.image ()).Program.table in
  let jdk_classes =
    List.map (fun c -> c.Classtable.cl_name) (Classtable.all_classes table)
  in
  let near s = [ s; String.lowercase_ascii s; s ^ "s"; "$" ^ s ] in
  List.iter
    (fun cls ->
       let expected = List.mem cls Models.Jdklib.dictionary_classes in
       Alcotest.(check bool) ("class " ^ cls) expected (D.is_dict_class cls);
       Alcotest.(check bool) ("classify on " ^ cls) expected
         (D.classify ~const_of:(fun _ -> None)
            (mk_call ~cls [ 1; 5; 2 ] None)
          <> None))
    ("" :: List.concat_map near jdk_classes);
  let puts = [ "put"; "setAttribute"; "setProperty" ] in
  let gets = [ "get"; "getAttribute"; "getProperty" ] in
  let jdk_names =
    List.concat_map
      (fun c ->
         Hashtbl.fold (fun (n, _) _ acc -> n :: acc) c.Classtable.cl_methods [])
      (Classtable.all_classes table)
  in
  List.iter
    (fun name ->
       let is_put =
         match
           D.classify ~const_of:(fun _ -> None)
             (mk_call ~name [ 1; 5; 2 ] None)
         with
         | Some (D.Dict_put _) -> true
         | _ -> false
       in
       let is_get =
         match
           D.classify ~const_of:(fun _ -> None)
             (mk_call ~name [ 1; 5 ] (Some 9))
         with
         | Some (D.Dict_get _) -> true
         | _ -> false
       in
       Alcotest.(check bool) ("put " ^ name) (List.mem name puts) is_put;
       Alcotest.(check bool) ("get " ^ name) (List.mem name gets) is_get)
    ("" :: List.concat_map near (puts @ gets @ jdk_names))

let field_names fields = List.map (fun f -> f.Tac.fname) fields

let test_dict_field_encoding () =
  Alcotest.(check (list string)) "const put"
    [ "$key_k"; "$all" ]
    (field_names (Models.Dict_model.put_fields (Models.Dict_model.Const_key "k")));
  Alcotest.(check (list string)) "unknown put" [ "$any" ]
    (field_names (Models.Dict_model.put_fields Models.Dict_model.Unknown_key));
  Alcotest.(check (list string)) "const get"
    [ "$key_k"; "$any" ]
    (field_names (Models.Dict_model.get_fields (Models.Dict_model.Const_key "k")));
  Alcotest.(check (list string)) "unknown get" [ "$any"; "$all" ]
    (field_names (Models.Dict_model.get_fields Models.Dict_model.Unknown_key));
  (* soundness: any get must overlap any put *)
  let overlap g p =
    List.exists (fun f -> List.mem f (field_names p)) (field_names g)
  in
  List.iter
    (fun gk ->
       List.iter
         (fun pk ->
            let must_overlap =
              match gk, pk with
              | Models.Dict_model.Const_key a, Models.Dict_model.Const_key b ->
                String.equal a b
              | _ -> true
            in
            Alcotest.(check bool) "overlap iff may-alias" must_overlap
              (overlap (Models.Dict_model.get_fields gk)
                 (Models.Dict_model.put_fields pk)))
         [ Models.Dict_model.Const_key "a"; Models.Dict_model.Const_key "b";
           Models.Dict_model.Unknown_key ])
    [ Models.Dict_model.Const_key "a"; Models.Dict_model.Const_key "b";
      Models.Dict_model.Unknown_key ]

(* ---- natives ---- *)

let test_native_summaries () =
  let default = Models.Natives.summary ~meth_id:"X.y/2" ~arity:2 ~has_ret:true in
  Alcotest.(check int) "default arity" 2 (List.length default);
  Alcotest.(check bool) "default targets ret" true
    (List.for_all (fun t -> t.Models.Natives.t_to = Models.Natives.Ret) default);
  let arraycopy =
    Models.Natives.summary ~meth_id:"System.arraycopy/5" ~arity:5 ~has_ret:false
  in
  (match arraycopy with
   | [ { Models.Natives.t_from = 0; t_to = Models.Natives.Param 2 } ] -> ()
   | _ -> Alcotest.fail "arraycopy summary wrong");
  Alcotest.(check (list int)) "Math.abs transfers nothing" []
    (List.map (fun t -> t.Models.Natives.t_from)
       (Models.Natives.summary ~meth_id:"Math.abs/1" ~arity:1 ~has_ret:true));
  Alcotest.(check int) "void default empty" 0
    (List.length (Models.Natives.summary ~meth_id:"X.z/3" ~arity:3 ~has_ret:false))

(* ---- reflection evaluator ---- *)

let eval_in_method src meth_id f =
  let prog = Program.create () in
  let units =
    (true, Models.Jdklib.units () |> List.concat)
    :: [ (false, Parser.parse src) ]
  in
  Lower.load prog units;
  Ssa.convert_program prog;
  match Program.find_method prog meth_id with
  | Some m -> f (Models.Reflection.make_evaluator m) m
  | None -> Alcotest.failf "method %s not found" meth_id

let test_reflection_eval () =
  eval_in_method
    {|class R {
        void f() {
          Class k = Class.forName("R");
          Method[] ms = k.getMethods();
          Method m = ms[0];
          Method named = k.getMethod("f");
        }
      }|}
    "R.f/1"
    (fun ev m ->
       (* walk the registers and collect the abstract values we find *)
       let found = Hashtbl.create 8 in
       for v = 0 to m.Tac.m_nvars - 1 do
         match Models.Reflection.eval ev v with
         | Models.Reflection.Class_obj c -> Hashtbl.replace found ("class:" ^ c) ()
         | Models.Reflection.Methods_of c ->
           Hashtbl.replace found ("methods:" ^ c) ()
         | Models.Reflection.Method_any c ->
           Hashtbl.replace found ("any:" ^ c) ()
         | Models.Reflection.Method_named (c, n) ->
           Hashtbl.replace found ("named:" ^ c ^ "." ^ n) ()
         | _ -> ()
       done;
       List.iter
         (fun key ->
            Alcotest.(check bool) key true (Hashtbl.mem found key))
         [ "class:R"; "methods:R"; "any:R"; "named:R.f" ])

let test_reflection_join () =
  let open Models.Reflection in
  Alcotest.(check bool) "null is bottom" true (join Null (Str "x") = Str "x");
  Alcotest.(check bool) "join refl" true (join (Str "x") (Str "x") = Str "x");
  Alcotest.(check bool) "conflict is top" true (join (Str "x") (Str "y") = Top);
  Alcotest.(check bool) "top absorbs" true (join Top Null = Top)

(* ---- whole-pipeline IR validity after rewrites ---- *)

let test_rewrites_preserve_wellformedness () =
  let g = Workloads.Apps.generate ~scale:0.03 (Option.get (Workloads.Apps.find "SBM")) in
  let loaded = Core.Taj.load (Workloads.Codegen.to_input g) in
  Alcotest.(check (list string)) "no violations after all rewrites" []
    (List.map (Fmt.str "%a" Verify.pp_violation)
       (Verify.check_program loaded.Core.Taj.program))

let suite =
  [ Alcotest.test_case "jdk parses" `Quick test_jdk_parses;
    Alcotest.test_case "jdk lowers and verifies" `Quick test_jdk_lowers_and_verifies;
    Alcotest.test_case "dict classify" `Quick test_dict_classify;
    Alcotest.test_case "dict matches exactly" `Quick test_dict_matches_exactly;
    Alcotest.test_case "dict field encoding" `Quick test_dict_field_encoding;
    Alcotest.test_case "native summaries" `Quick test_native_summaries;
    Alcotest.test_case "reflection eval" `Quick test_reflection_eval;
    Alcotest.test_case "reflection join" `Quick test_reflection_join;
    Alcotest.test_case "rewrites preserve wellformedness" `Quick
      test_rewrites_preserve_wellformedness ]
