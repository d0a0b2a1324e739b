(** The batch workloads: one caller, each op one [Core.Supervisor.run]
    with jobs 1 and no cache, in a closed loop over seeded generated
    apps. *)

open Core

type t = {
  name : string;
  config : Config.t;
  apps : seed:int -> Inputs.app array;
  pass_s : float;
      (** nominal seconds of one untraced pass; sizes the run *)
}

let table2_batch =
  { name = "table2_batch";
    (* what [taj analyze -a hybrid] runs *)
    config = Config.preset ~scale:Inputs.scale Config.Hybrid_unbounded;
    apps = (fun ~seed -> Inputs.table2 ~seed);
    pass_s = 1.2 }

let dense_refine =
  { name = "dense_refine";
    config =
      { (Config.preset ~scale:Inputs.scale Config.Hybrid_unbounded) with
        Config.refine = true; contexts = true };
    apps = (fun ~seed -> Inputs.dense ~seed ~count:10);
    pass_s = 1.2 }

let options =
  { Supervisor.default_options with
    Supervisor.scale = Inputs.scale; jobs = 1 }

let op w (app : Inputs.app) =
  Supervisor.run ~options ~config:w.config app.Inputs.a_input

let contexts w = w.config.Config.contexts

(* Generate the inputs, then one untimed warm-up pass over them. *)
let set_up w ~seed =
  let t0 = Stats.now () in
  let apps = w.apps ~seed in
  Array.iter (fun a -> ignore (op w a)) apps;
  (apps, Stats.now () -. t0)

let set_ups = 5

(* Whole passes, a count fixed by [seconds] so that every run of one
   seed measures the same ops. *)
let passes w ~seconds =
  max 2 (int_of_float (Float.ceil (float_of_int seconds /. w.pass_s)))

let run w ~seed ~seconds =
  (* only the last set-up's inputs stay live, so every set-up runs on
     the same heap *)
  let earlier = List.init (set_ups - 1) (fun _ -> snd (set_up w ~seed)) in
  let apps, last = set_up w ~seed in
  let setup_times = earlier @ [ last ] in
  let tally = Oracle.tally () in
  let lat = ref [] and wall = ref 0. and cpu = ref 0. and words = ref 0. in
  for _ = 1 to passes w ~seconds do
    Array.iter
      (fun (a : Inputs.app) ->
         let w0 = Stats.words () and c0 = Stats.cpu () and t0 = Stats.now () in
         let verdict =
           match op w a with
           | o ->
             let dt = Stats.now () -. t0 in
             cpu := !cpu +. (Stats.cpu () -. c0);
             words := !words +. (Stats.words () -. w0);
             wall := !wall +. dt;
             lat := dt :: !lat;
             Oracle.check_batch ~contexts:(contexts w) a.Inputs.a_truth o
           | exception e -> Error (Printexc.to_string e)
         in
         Oracle.record tally ~what:a.Inputs.a_name verdict)
      apps
  done;
  let rss = Stats.peak_rss_mb () in
  ( tally,
    Report_out.end_to_end ~setup_times ~windows:[ (!lat, !wall) ] ~cpu:!cpu
      ~words:!words ~rss ~ops:"ops" )

let ( let* ) = Result.bind

(** Two passes; each op runs untraced through the supervisor, then
    traced through {!Recompose}. The traced report must render
    byte-identical to the untraced one, and every count — allocated
    words of the untraced op included — must repeat in the second pass. *)
let trace w ~seed ~spans_path =
  let apps, _ = set_up w ~seed in
  let spans = Spans.create () in
  let tally = Oracle.tally () in
  let first = Hashtbl.create 32 in
  let repeat_error = ref None in
  let counts = ref [] and untraced = ref 0. and attempts = ref 0 in
  let ops = ref 0 in
  for pass = 1 to 2 do
    Array.iteri
      (fun i (a : Inputs.app) ->
         let w0 = Stats.words () and t0 = Stats.now () in
         let o = op w a in
         untraced := !untraced +. (Stats.now () -. t0);
         let alloc = Stats.words () -. w0 in
         attempts := !attempts + List.length o.Supervisor.sv_attempts;
         let traced =
           try
             Ok
               (Spans.with_op spans !ops (fun () ->
                  Recompose.run spans ~config:w.config
                    ~rules:Rules.default_rules a.Inputs.a_input))
           with e -> Error ("traced op raised " ^ Printexc.to_string e)
         in
         incr ops;
         Result.iter
           (fun traced ->
              let c = ("alloc_words", alloc) :: Recompose.counts traced in
              counts := c :: !counts;
              if pass = 1 then Hashtbl.replace first i c
              else
                match Oracle.check_counts (Hashtbl.find first i) c with
                | Ok () -> ()
                | Error e ->
                  if !repeat_error = None then
                    repeat_error := Some (a.Inputs.a_name ^ ": " ^ e))
           traced;
         Oracle.record tally ~what:a.Inputs.a_name
           (let* traced = traced in
            let* c = Oracle.completed o in
            let* () =
              Oracle.check_report ~contexts:(contexts w) a.Inputs.a_truth
                c.Taj.builder c.Taj.report
            in
            Oracle.check_identical
              ~untraced:(Cache.Incr.render_report c.Taj.builder c.Taj.report)
              ~traced:(Recompose.rendered traced)))
      apps
  done;
  Spans.write spans spans_path;
  let n = float_of_int !ops in
  let self = Spans.self_times spans in
  let per_op name = fst (self name) /. n in
  let mw name = snd (self name) /. n /. 1e6 in
  let count name =
    Stats.sum
      (List.map (fun c -> Option.value ~default:0. (List.assoc_opt name c))
         !counts)
  in
  (* with refine on, the traced op also runs a refine-off engine call
     that the pipeline never runs; it is not tracing overhead *)
  let traced_total =
    Spans.total spans "op"
    -. if w.config.Config.refine then Spans.total spans "taint" else 0.
  in
  let refine_s =
    let on = Spans.total spans "taint+refine" in
    if on = 0. then 0. else (on -. Spans.total spans "taint") /. n
  in
  ( tally,
    !repeat_error,
    [ ("frontend.s", per_op "frontend");
      ("frontend.alloc_mw", mw "frontend");
      ("frontend.instrs", count "frontend.instrs" /. n);
      ("triage.s", per_op "triage");
      ("triage.passes", count "triage.passes" /. n);
      ( "triage.skip_ratio",
        Stats.ratio (count "triage.skippable") (count "triage.swept") );
      ("pointer.s", per_op "pointer");
      ("pointer.alloc_mw", mw "pointer");
      ("pointer.propagations", count "pointer.propagations" /. n);
      ("pointer.dispatches", count "pointer.dispatches" /. n);
      ("pointer.cg_nodes", count "pointer.cg_nodes" /. n);
      ("sdg.s", per_op "sdg");
      ("sdg.alloc_mw", mw "sdg");
      ("taint.s", per_op "taint");
      ("taint.visited", count "taint.visited" /. n);
      ("taint.heap_transitions", count "taint.heap_transitions" /. n);
      ("taint.flows", count "taint.flows" /. n);
      ("refine.s", refine_s);
      ("refine.steps", count "refine.steps" /. n);
      ( "refine.confirmed_ratio",
        Stats.ratio (count "refine.confirmed")
          (count "refine.confirmed" +. count "refine.plausible") );
      ("strings.s", per_op "strings");
      ("strings.mismatched", count "strings.mismatched" /. n);
      ("report.s", per_op "report");
      ("report.issues", count "report.issues" /. n);
      ("supervisor.attempts", float_of_int !attempts /. n);
      ("trace.op_s", traced_total /. n);
      ("trace.unattributed_s", per_op "op");
      ("trace.overhead_ratio", Stats.ratio traced_total !untraced) ] )
