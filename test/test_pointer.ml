(* Pointer-analysis unit tests: points-to precision, the context policy of
   §3.1, call-graph construction, heap-graph reachability, and the priority
   queue. *)

module Int_set = Set.Make (Int)
open Pointer

let analyze srcs =
  let loaded =
    Core.Taj.load { Core.Taj.name = "pt"; app_sources = srcs; descriptor = "" }
  in
  let m = Core.Rules.matcher loaded.Core.Taj.program.Jir.Program.table in
  let taint_api id =
    Core.Rules.is_source_method_id Core.Rules.default_rules m id
  in
  let config =
    { (Andersen.default_config ~policy:(Policy.default ~taint_api ()) ()) with
      Andersen.is_source_method = taint_api }
  in
  (loaded.Core.Taj.program, Andersen.run ~config loaded.Core.Taj.program)

(* find the unique clone of a method and a register pointing to something *)
let clone_of a meth_id =
  match Callgraph.clones_of (Andersen.call_graph a) meth_id with
  | [ n ] -> n
  | [] -> Alcotest.failf "no clone of %s" meth_id
  | l -> List.hd (List.sort compare l)

let classes_of a ~node v =
  Andersen.pts_var a ~node v
  |> Int_set.elements
  |> List.map (fun ik -> Keys.inst_class (Andersen.inst_key a ik))
  |> List.sort_uniq String.compare

let test_new_flows_to_var () =
  let _, a =
    analyze
      [ "class P extends HttpServlet { \
         public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
           Object o = new Object(); o.toString(); } }" ]
  in
  let n = clone_of a "P.doGet/3" in
  (* some register in doGet points to an Object instance *)
  let found = ref false in
  for v = 0 to 40 do
    if List.mem "Object" (classes_of a ~node:n v) then found := true
  done;
  Alcotest.(check bool) "Object instance reached a register" true !found

let test_virtual_dispatch_edge () =
  let _, a =
    analyze
      [ "class Animal { String noise() { return \"...\"; } } \
         class Dog extends Animal { String noise() { return \"woof\"; } } \
         class P extends HttpServlet { \
           public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
             Animal x = new Dog(); String s = x.noise(); } }" ]
  in
  let cg = Andersen.call_graph a in
  Alcotest.(check bool) "Dog.noise reachable" true
    (Callgraph.clones_of cg "Dog.noise/1" <> []);
  Alcotest.(check (list int)) "Animal.noise not reachable" []
    (Callgraph.clones_of cg "Animal.noise/1")

let test_cast_filter () =
  let _, a =
    analyze
      [ "class CA { } class CB { } \
         class P extends HttpServlet { \
           Object pick(boolean b) { if (b) { return new CA(); } return new CB(); } \
           public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
             Object o = this.pick(true); \
             CA x = (CA) o; \
             int unused = 0; } }" ]
  in
  let n = clone_of a "P.doGet/3" in
  (* find the register holding the cast result: it must contain CA only *)
  let cast_ok = ref false in
  for v = 0 to 60 do
    match classes_of a ~node:n v with
    | [ "CA" ] -> cast_ok := true
    | _ -> ()
  done;
  Alcotest.(check bool) "cast filtered CB away" true !cast_ok

let test_collection_contexts_disambiguated () =
  (* two lists allocated at different sites must have distinct iterator
     objects (unlimited-depth object sensitivity for containers, §3.1) *)
  let _, a =
    analyze
      [ "class P extends HttpServlet { \
         public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
           ArrayList l1 = new ArrayList(); \
           ArrayList l2 = new ArrayList(); \
           l1.add(new Object()); \
           Iterator i1 = l1.iterator(); \
           Iterator i2 = l2.iterator(); \
           Object o = i1.next(); } }" ]
  in
  let cg = Andersen.call_graph a in
  (* iterator() of l1 and l2 run in different contexts: two clones *)
  let clones = Callgraph.clones_of cg "ArrayList.iterator/1" in
  Alcotest.(check int) "iterator clones" 2 (List.length clones)

let test_factory_call_site_contexts () =
  let _, a =
    analyze
      [ "class P extends HttpServlet { \
         public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
           Runtime r1 = Runtime.getRuntime(); \
           Runtime r2 = Runtime.getRuntime(); \
           r1.exec(\"a\"); } }" ]
  in
  let cg = Andersen.call_graph a in
  let clones = Callgraph.clones_of cg "Runtime.getRuntime/0" in
  Alcotest.(check int) "factory clones per call site" 2 (List.length clones)

let test_exception_channel () =
  let _, a =
    analyze
      [ "class MyErr extends Exception { public MyErr() {} } \
         class P extends HttpServlet { \
           void boom() { throw new MyErr(); } \
           public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
             try { this.boom(); } catch (Exception e) { e.getMessage(); } } }" ]
  in
  let n = clone_of a "P.doGet/3" in
  let found = ref false in
  for v = 0 to 60 do
    if List.mem "MyErr" (classes_of a ~node:n v) then found := true
  done;
  Alcotest.(check bool) "thrown object reaches catch var" true !found

let test_catch_filter_by_class () =
  let _, a =
    analyze
      [ "class P extends HttpServlet { \
         void boom() { throw new Error(); } \
         public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
           try { this.boom(); } catch (IOException e) { e.getMessage(); } } }" ]
  in
  let n = clone_of a "P.doGet/3" in
  let leaked = ref false in
  for v = 0 to 60 do
    if List.mem "Error" (classes_of a ~node:n v) then leaked := true
  done;
  Alcotest.(check bool) "Error filtered from IOException catch" false !leaked

let test_node_budget () =
  let loaded =
    Core.Taj.load
      { Core.Taj.name = "pt";
        app_sources =
          [ "class P extends HttpServlet { \
             void a() { this.b(); } void b() { this.c(); } void c() { } \
             public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
               this.a(); } }" ];
        descriptor = "" }
  in
  let config =
    { (Andersen.default_config ()) with Andersen.max_nodes = Some 5 }
  in
  let a = Andersen.run ~config loaded.Core.Taj.program in
  Alcotest.(check bool) "budget respected" true
    (Callgraph.node_count (Andersen.call_graph a) <= 5);
  Alcotest.(check bool) "calls were dropped" true
    ((Andersen.statistics a).Andersen.dropped_calls > 0)

(* §6.1's priorities order constraint adding only in a prioritized run:
   a FIFO run (hybrid-unbounded) never asks which methods call a source,
   while a prioritized one asks for the clones it enqueues. *)
let test_source_predicate_only_when_prioritized () =
  let loaded =
    Core.Taj.load
      { Core.Taj.name = "pt";
        app_sources =
          [ "class P extends HttpServlet { \
             String read(HttpServletRequest req) { return req.getParameter(\"q\"); } \
             public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
               resp.getWriter().println(this.read(req)); } }" ];
        descriptor = "" }
  in
  let m = Core.Rules.matcher loaded.Core.Taj.program.Jir.Program.table in
  let calls alg =
    let preset = Core.Config.preset alg in
    let asked = ref 0 in
    let config =
      { (Andersen.default_config ()) with
        Andersen.max_nodes = preset.Core.Config.max_cg_nodes;
        prioritized = preset.Core.Config.prioritized;
        is_source_method =
          (fun id ->
             incr asked;
             Core.Rules.is_source_method_id Core.Rules.default_rules m id) }
    in
    ignore (Andersen.run ~config loaded.Core.Taj.program);
    !asked
  in
  Alcotest.(check int) "hybrid-unbounded never asks" 0
    (calls Core.Config.Hybrid_unbounded);
  Alcotest.(check bool) "hybrid-prioritized asks" true
    (calls Core.Config.Hybrid_prioritized >= 1)

let test_heapgraph_reachability () =
  let _, a =
    analyze
      [ "class HG1 { HG2 f; } class HG2 { HG3 g; } class HG3 { } \
         class P extends HttpServlet { \
           public void doGet(HttpServletRequest req, HttpServletResponse resp) { \
             HG1 x = new HG1(); HG2 y = new HG2(); HG3 z = new HG3(); \
             x.f = y; y.g = z; \
             resp.getWriter().println(x); } }" ]
  in
  let hg = Heapgraph.build a in
  let n = clone_of a "P.doGet/3" in
  (* find the HG1 instance key *)
  let root = ref None in
  for v = 0 to 60 do
    List.iter
      (fun ik ->
         if Keys.inst_class (Andersen.inst_key a ik) = "HG1" then
           root := Some ik)
      (Int_set.elements (Andersen.pts_var a ~node:n v))
  done;
  match !root with
  | None -> Alcotest.fail "HG1 instance not found"
  | Some ik ->
    let classes_at depth =
      Heapgraph.reachable hg ~depth (Int_set.singleton ik)
      |> Int_set.elements
      |> List.map (fun i -> Keys.inst_class (Andersen.inst_key a i))
      |> List.sort_uniq String.compare
    in
    Alcotest.(check (list string)) "depth 0" [ "HG1" ] (classes_at 0);
    Alcotest.(check (list string)) "depth 1" [ "HG1"; "HG2" ] (classes_at 1);
    Alcotest.(check (list string)) "depth 2" [ "HG1"; "HG2"; "HG3" ]
      (classes_at 2);
    Alcotest.(check (list string)) "unbounded" [ "HG1"; "HG2"; "HG3" ]
      (classes_at (-1))

(* priority queue: qcheck heap-property test *)
let prop_pq_sorted =
  QCheck.Test.make ~name:"priority queue pops in priority order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
       let q = Pq.create () in
       List.iter (fun (p, v) -> Pq.push q p v) pairs;
       let rec drain acc =
         match Pq.pop q with
         | None -> List.rev acc
         | Some (p, _) -> drain (p :: acc)
       in
       let popped = drain [] in
       List.length popped = List.length pairs
       && popped = List.sort compare popped)

(* random nested contexts: truncation is idempotent and bounded *)
let prop_truncation_idempotent =
  let gen_ctx =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
               if n = 0 then return Keys.Cx_empty
               else
                 frequency
                   [ (1, return Keys.Cx_empty);
                     (1, map (fun s -> Keys.Cx_site s) (int_bound 100));
                     (3,
                      map2
                        (fun site inner ->
                           Keys.Cx_obj
                             (Keys.Ik_alloc
                                { site; cls = "C"; hctx = inner }))
                        (int_bound 100) (self (n - 1))) ])
            n))
  in
  QCheck.Test.make ~name:"context truncation is idempotent and bounded"
    ~count:200
    (QCheck.make gen_ctx)
    (fun cx ->
       let t1 = Keys.truncate_context ~limit:3 cx in
       let t2 = Keys.truncate_context ~limit:3 t1 in
       t1 = t2 && Keys.context_depth t1 <= 3)

let test_context_truncation () =
  let rec deep n =
    if n = 0 then Keys.Cx_empty
    else
      Keys.Cx_obj
        (Keys.Ik_alloc { site = n; cls = "C"; hctx = deep (n - 1) })
  in
  let truncated = Keys.truncate_context ~limit:3 (deep 10) in
  Alcotest.(check bool) "depth bounded" true
    (Keys.context_depth truncated <= 3)

let test_interner_roundtrip () =
  let u = Keys.create_universe () in
  let k1 = Keys.Ik_alloc { site = 1; cls = "A"; hctx = Keys.Cx_empty } in
  let k2 = Keys.Ik_alloc { site = 2; cls = "B"; hctx = Keys.Cx_empty } in
  let i1 = Keys.ik u k1 and i2 = Keys.ik u k2 in
  Alcotest.(check bool) "distinct ids" true (i1 <> i2);
  Alcotest.(check int) "stable id" i1 (Keys.ik u k1);
  Alcotest.(check bool) "roundtrip" true (Keys.ik_of u i1 = k1)

(* The pointer-key table against a reference interner over the stdlib
   polymorphic [Hashtbl]: the same ids in the same first-use order, and
   the same answer from [find_pk] for present and absent keys. *)
module Reference_interner = struct
  type t = { ids : (Keys.ptr_key, int) Hashtbl.t; mutable next : int }

  let create () = { ids = Hashtbl.create 16; next = 0 }

  let intern r k =
    match Hashtbl.find_opt r.ids k with
    | Some i -> i
    | None ->
      let i = r.next in
      Hashtbl.add r.ids k i;
      r.next <- i + 1;
      i

  let find r k = Hashtbl.find_opt r.ids k
end

type key_op = Intern of Keys.ptr_key | Find of Keys.ptr_key

let key_op_gen =
  let open QCheck.Gen in
  (* equal names under different classes: an equality that compares only
     what the hash reads merges these *)
  let field =
    oneofl
      [ { Keys.fclass = "A"; fname = "f" }; { Keys.fclass = "B"; fname = "f" };
        { Keys.fclass = "A"; fname = "g" }; Keys.elem_field;
        { Keys.fclass = "$Dict"; fname = "$key_x" } ]
  in
  (* small ints shared by nodes, registers, instance keys and returns,
     visited out of order, plus registers far beyond an array's bound *)
  let small = int_bound 6 in
  let node = frequency [ (6, small); (1, int_range 40 45) ] in
  let reg = frequency [ (6, small); (2, int_range 100 5000) ] in
  let key =
    frequency
      [ (5, map2 (fun n v -> Keys.Pk_var (n, v)) node reg);
        (3, map2 (fun ik f -> Keys.Pk_field (ik, f)) small field);
        (2, map (fun f -> Keys.Pk_static f) field);
        (2, map (fun n -> Keys.Pk_ret n) node);
        (1, return Keys.Pk_exn) ]
  in
  frequency [ (3, map (fun k -> Intern k) key); (1, map (fun k -> Find k) key) ]

let prop_keys_match_reference =
  let print_op = function
    | Intern k -> Fmt.str "intern %a" Keys.pp_ptr k
    | Find k -> Fmt.str "find %a" Keys.pp_ptr k
  in
  QCheck.Test.make ~name:"pointer-key ids match a reference interner"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 80) key_op_gen))
    (fun ops ->
       let u = Keys.create_universe () in
       let r = Reference_interner.create () in
       List.for_all
         (function
           | Intern k ->
             let id = Keys.pk u k in
             id = Reference_interner.intern r k
             && (match k with
                 | Keys.Pk_var (n, v) ->
                   Keys.pk_var u n v = id && Keys.find_var u n v = id
                 | _ -> true)
           | Find k -> Keys.find_pk u k = Reference_interner.find r k)
         ops
       && Keys.pk_count u = r.Reference_interner.next
       && Hashtbl.fold
            (fun k id ok -> ok && Keys.pk_of u id = k)
            r.Reference_interner.ids true)

let suite =
  [ Alcotest.test_case "new flows to var" `Quick test_new_flows_to_var;
    Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch_edge;
    Alcotest.test_case "cast filter" `Quick test_cast_filter;
    Alcotest.test_case "collection contexts" `Quick
      test_collection_contexts_disambiguated;
    Alcotest.test_case "factory call-site contexts" `Quick
      test_factory_call_site_contexts;
    Alcotest.test_case "exception channel" `Quick test_exception_channel;
    Alcotest.test_case "catch class filter" `Quick test_catch_filter_by_class;
    Alcotest.test_case "node budget" `Quick test_node_budget;
    Alcotest.test_case "source predicate only when prioritized" `Quick
      test_source_predicate_only_when_prioritized;
    Alcotest.test_case "heap graph reachability" `Quick
      test_heapgraph_reachability;
    Alcotest.test_case "context truncation" `Quick test_context_truncation;
    Alcotest.test_case "interner roundtrip" `Quick test_interner_roundtrip;
    QCheck_alcotest.to_alcotest prop_pq_sorted;
    QCheck_alcotest.to_alcotest prop_truncation_idempotent;
    QCheck_alcotest.to_alcotest prop_keys_match_reference ]
