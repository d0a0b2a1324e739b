(** perfbench: one workload, one seed, one process.

    {v main.exe --workload NAME --seed N --seconds S --trace 0|1 v}

    With [--trace 0] it prints the end-to-end metrics; with [--trace 1]
    the per-layer metrics of a traced run. The last line of standard
    output is one JSON object:
    [{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}].
    Scratch files (span dumps, the serve cache) go under [.perfbench/] in
    the working directory. *)

open Perfbench

(* every per-layer metric, in output order; a layer a workload does not
   exercise reads 0 *)
let per_layer =
  [ ("frontend.s", "s/op"); ("frontend.alloc_mw", "Mword/op");
    ("frontend.instrs", "instr/op");
    ("triage.s", "s/op"); ("triage.passes", "pass/op");
    ("triage.skip_ratio", "ratio");
    ("pointer.s", "s/op"); ("pointer.alloc_mw", "Mword/op");
    ("pointer.propagations", "count/op"); ("pointer.dispatches", "count/op");
    ("pointer.cg_nodes", "node/op");
    ("sdg.s", "s/op"); ("sdg.alloc_mw", "Mword/op");
    ("taint.s", "s/op"); ("taint.visited", "count/op");
    ("taint.heap_transitions", "count/op"); ("taint.flows", "flow/op");
    ("refine.s", "s/op"); ("refine.steps", "step/op");
    ("refine.confirmed_ratio", "ratio");
    ("strings.s", "s/op"); ("strings.mismatched", "issue/op");
    ("report.s", "s/op"); ("report.issues", "issue/op");
    ("supervisor.attempts", "rung/op");
    ("cache.lookup_s", "s/lookup"); ("cache.commit_s", "s/commit");
    ("cache.hit_ratio", "ratio"); ("cache.store_mb", "MB");
    ("serve.rtt_s", "s/req"); ("serve.in_service_s", "s/req");
    ("serve.transport_s", "s/req");
    ("trace.op_s", "s/op"); ("trace.unattributed_s", "s/op");
    ("trace.overhead_ratio", "ratio") ]

let layer_metrics values =
  List.map
    (fun (name, unit_) ->
       Report_out.metric name unit_
         (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "table2_batch | dense_refine | serve_cached");
      ("--seed", Arg.Set_int seed, "N  seed of the workload's inputs");
      ("--seconds", Arg.Set_int seconds, "S  sizes the measured window");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workdir = ".perfbench" in
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let spans_path =
    Filename.concat workdir
      (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
  in
  let batch =
    List.find_opt
      (fun w -> w.Batch.name = !workload)
      [ Batch.table2_batch; Batch.dense_refine ]
  in
  if batch = None && !workload <> "serve_cached" then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  Printf.printf "perfbench %s seed %d seconds %d trace %d\n%!" !workload
    !seed !seconds !trace;
  let traced tally repeat_error values =
    (match repeat_error with
     | None -> print_endline "  counts repeat: yes"
     | Some e -> Printf.printf "  counts repeat: NO (%s)\n" e);
    Report_out.print
      ~correct:(tally.Oracle.failed = 0 && repeat_error = None)
      ~tally (layer_metrics values)
  in
  match batch, !trace with
  | Some w, 0 ->
    let tally, metrics = Batch.run w ~seed:!seed ~seconds:!seconds in
    Report_out.print ~correct:(tally.Oracle.failed = 0) ~tally metrics
  | Some w, _ ->
    let tally, repeat_error, values = Batch.trace w ~seed:!seed ~spans_path in
    traced tally repeat_error values
  | None, 0 ->
    let tally, metrics =
      Serve_load.run ~seed:!seed ~seconds:!seconds ~workdir
    in
    Report_out.print ~correct:(tally.Oracle.failed = 0) ~tally metrics
  | None, _ ->
    let tally, split_error, values =
      Serve_load.trace ~seed:!seed ~seconds:!seconds ~workdir ~spans_path
    in
    traced tally split_error values
