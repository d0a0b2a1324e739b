(* [Parallel.map], the pool behind fan-out across independent analysis
   runs: it is observationally [List.map], and the runs it fans out give
   the same results as the same runs made one after another — every
   workload app under every algorithm configuration. A single run never
   uses the pool. *)

open Core

(* ------------------------------------------------------------------ *)
(* Parallel.map: property and unit tests                              *)
(* ------------------------------------------------------------------ *)

let f_probe x = (x * 31) + 7

let prop_matches_list_map =
  QCheck.Test.make ~count:60 ~name:"Parallel.map ~jobs equals List.map"
    QCheck.(pair (int_range 1 9) (list small_int))
    (fun (jobs, xs) ->
       Parallel.map ~jobs f_probe xs = List.map f_probe xs)

let test_map_sizes () =
  (* 0, 1, a prime, and well past any plausible pool size *)
  List.iter
    (fun n ->
       let xs = List.init n (fun i -> i - 3) in
       let expected = List.map f_probe xs in
       List.iter
         (fun jobs ->
            Alcotest.(check (list int))
              (Printf.sprintf "size %d at jobs %d" n jobs)
              expected
              (Parallel.map ~jobs f_probe xs))
         [ 1; 2; 3; 4; 7; 16 ])
    [ 0; 1; 2; 13; 97 ]

let test_map_order_preserved () =
  let xs = List.init 200 (fun i -> i) in
  Alcotest.(check (list int)) "index order survives work stealing" xs
    (Parallel.map ~jobs:8 Fun.id xs)

let test_map_first_exception () =
  (* two failing tasks; whichever worker reaches them first, the re-raised
     exception is the lowest-index one, and only after every task ran *)
  let ran = Atomic.make 0 in
  let f i =
    Atomic.incr ran;
    if i = 11 || i = 3 then failwith (string_of_int i) else i
  in
  (match Parallel.map ~jobs:4 f (List.init 50 Fun.id) with
   | _ -> Alcotest.fail "expected the injected exception to re-raise"
   | exception Failure msg ->
     Alcotest.(check string) "lowest-index task's exception wins" "3" msg);
  Alcotest.(check int) "all tasks ran before the re-raise (workers joined)"
    50 (Atomic.get ran)

let test_map_sequential_when_jobs_one () =
  (* jobs<=1 must not spawn: effects happen on the calling domain, in
     list order *)
  let trace = ref [] in
  let self = Domain.self () in
  let f x =
    trace := x :: !trace;
    assert (Domain.self () = self);
    x
  in
  ignore (Parallel.map ~jobs:1 f [ 1; 2; 3 ] : int list);
  Alcotest.(check (list int)) "left-to-right on the calling domain"
    [ 3; 2; 1 ] !trace

(* ------------------------------------------------------------------ *)
(* Determinism: runs fanned out over the pool match sequential runs   *)
(* ------------------------------------------------------------------ *)

let scale = 0.02

type digest = {
  d_result : string;               (* "completed" or the failure reason *)
  d_report : string;               (* fully rendered report *)
  d_stats : Engine.rule_stats list;
  d_filtered : int;
  d_flags : bool * bool;           (* exhausted, interrupted *)
  d_diags : string list;           (* degradation kinds, arrival order *)
  d_cg : int * int;
}

let digest (analysis : Taj.analysis) : digest =
  match analysis.Taj.result with
  | Taj.Did_not_complete reason ->
    { d_result = "did-not-complete: " ^ reason; d_report = ""; d_stats = [];
      d_filtered = 0; d_flags = (false, false); d_diags = []; d_cg = (0, 0) }
  | Taj.Completed c ->
    { d_result = "completed";
      d_report = Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report;
      d_stats = c.Taj.outcome.Engine.rule_stats;
      d_filtered = c.Taj.outcome.Engine.filtered_by_length;
      d_flags =
        (c.Taj.outcome.Engine.exhausted, c.Taj.outcome.Engine.interrupted);
      d_diags = List.map Diagnostics.kind_name c.Taj.diagnostics;
      d_cg = (c.Taj.cg_nodes, c.Taj.cg_edges) }

let check_digest ~ctx (seq : digest) (par : digest) =
  Alcotest.(check string) (ctx ^ ": result") seq.d_result par.d_result;
  Alcotest.(check string) (ctx ^ ": rendered report") seq.d_report
    par.d_report;
  Alcotest.(check bool) (ctx ^ ": per-rule stats") true
    (seq.d_stats = par.d_stats);
  Alcotest.(check int) (ctx ^ ": flows filtered by length bound")
    seq.d_filtered par.d_filtered;
  Alcotest.(check (pair bool bool)) (ctx ^ ": exhausted/interrupted")
    seq.d_flags par.d_flags;
  Alcotest.(check (list string)) (ctx ^ ": degradation kinds") seq.d_diags
    par.d_diags;
  Alcotest.(check (pair int int)) (ctx ^ ": callgraph size") seq.d_cg
    par.d_cg

(* each configuration loads the app afresh, as a bench row or a serve
   request does, so concurrent runs share only process-wide state (the
   model-JDK image, the fault registry, telemetry) *)
let check_app_determinism (a : Workloads.Apps.app) () =
  let input = Workloads.Codegen.to_input (Workloads.Apps.generate ~scale a) in
  let run alg =
    (alg, digest (Taj.run (Taj.load input) (Config.preset ~scale alg)))
  in
  List.iter2
    (fun (alg, d1) (_, dn) ->
       check_digest
         ~ctx:(a.Workloads.Apps.name ^ "/" ^ Config.algorithm_name alg)
         d1 dn)
    (List.map run Config.all_algorithms)
    (Parallel.map ~jobs:4 run Config.all_algorithms)

let suite =
  [ QCheck_alcotest.to_alcotest prop_matches_list_map;
    Alcotest.test_case "map sizes 0/1/prime/over-pool" `Quick test_map_sizes;
    Alcotest.test_case "map preserves order" `Quick test_map_order_preserved;
    Alcotest.test_case "map re-raises first exception after join" `Quick
      test_map_first_exception;
    Alcotest.test_case "map jobs=1 is sequential" `Quick
      test_map_sequential_when_jobs_one ]
  @ List.map
      (fun (a : Workloads.Apps.app) ->
         Alcotest.test_case
           ("determinism " ^ a.Workloads.Apps.name)
           `Slow
           (check_app_determinism a))
      Workloads.Apps.table2
