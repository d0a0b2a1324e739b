(* The observability layer: span balance and nesting on a real pipeline
   run, per-domain tracks and Chrome-trace JSON well-formedness under
   fan-out across runs, counter determinism across fan-out pool sizes,
   resilience events (budget trips, injected faults, ladder steps) as
   instants on the trace, and the disabled-mode overhead guard. *)

open Core
module Telemetry = Obs.Telemetry

(* Every case runs with a clean slate and leaves one behind: telemetry
   off, metrics zeroed, events dropped, faults disarmed — regardless of
   how the case exits. *)
let isolated f () =
  Fault.reset ();
  Telemetry.arm_flight 0;
  Telemetry.disable ();
  Telemetry.reset ();
  Obs.Log.set_sink None;
  Obs.Log.set_context [];
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Telemetry.arm_flight 0;
      Telemetry.disable ();
      Telemetry.reset ();
      Obs.Log.set_sink None;
      Obs.Log.set_context [])
    f

let input srcs =
  { Taj.name = "telemetry"; app_sources = srcs; descriptor = "" }

(* two flows and a heap hop: ticks every fault site and exercises
   pointer, SDG, tabulation and LCP spans *)
let two_flows =
  {|class Cell { String v; }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        c.v = req.getParameter("x");
        resp.getWriter().println(c.v);
        Connection conn = DriverManager.getConnection("jdbc:db");
        Statement st = conn.createStatement();
        st.executeQuery(c.v);
      }
    }|}

(* a second unit, so the frontend parses more than one unit *)
let second_unit =
  {|class Other extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        resp.getWriter().println(req.getParameter("y"));
      }
    }|}

let analyze () = Taj.analyze (input [ two_flows; second_unit ])

(* four analyses fanned out over a four-domain pool, the fan-out the
   bench harness uses: each pool domain records on its own track *)
let analyze_fanned_out () =
  List.iter
    (fun a ->
       match a.Taj.result with
       | Taj.Completed _ -> ()
       | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r)
    (Parallel.map ~jobs:4 analyze [ (); (); (); () ])

(* ------------------------------------------------------------------ *)
(* Metric primitives                                                  *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge_histogram () =
  Telemetry.enable ();
  let c = Telemetry.counter "test.counter" in
  let g = Telemetry.gauge "test.gauge" in
  let h = Telemetry.histogram "test.histogram" in
  Telemetry.incr c;
  Telemetry.add c 4;
  Telemetry.set g 17;
  List.iter (Telemetry.observe h) [ 0; 1; 3; 8; 8 ];
  Alcotest.(check (option int)) "counter sums"
    (Some 5)
    (match Telemetry.find_value "test.counter" with
     | Some (Telemetry.V_counter n) -> Some n
     | _ -> None);
  Alcotest.(check (option int)) "gauge holds the last value"
    (Some 17)
    (match Telemetry.find_value "test.gauge" with
     | Some (Telemetry.V_gauge n) -> Some n
     | _ -> None);
  (match Telemetry.find_value "test.histogram" with
   | Some (Telemetry.V_histogram s) ->
     Alcotest.(check int) "histogram count" 5 s.Telemetry.hs_count;
     Alcotest.(check int) "histogram sum" 20 s.Telemetry.hs_sum;
     Alcotest.(check int) "histogram max" 8 s.Telemetry.hs_max;
     Alcotest.(check bool) "buckets total = count" true
       (List.fold_left (fun a (_, n) -> a + n) 0 s.Telemetry.hs_buckets = 5)
   | _ -> Alcotest.fail "histogram not registered");
  (* same name returns the same metric, not a fresh one *)
  let c' = Telemetry.counter "test.counter" in
  Telemetry.incr c';
  Alcotest.(check (option int)) "creation is memoized by name"
    (Some 6)
    (match Telemetry.find_value "test.counter" with
     | Some (Telemetry.V_counter n) -> Some n
     | _ -> None);
  (* a name registered as one kind cannot come back as another *)
  Alcotest.check_raises "kind mismatch is an error"
    (Invalid_argument
       "Telemetry: metric test.counter exists with another kind")
    (fun () -> ignore (Telemetry.gauge "test.counter"))

let test_disabled_no_ops () =
  let c = Telemetry.counter "test.disabled.counter" in
  let g = Telemetry.gauge "test.disabled.gauge" in
  let h = Telemetry.histogram "test.disabled.histogram" in
  Telemetry.incr c;
  Telemetry.add c 10;
  Telemetry.set g 5;
  Telemetry.observe h 3;
  Telemetry.instant "test.disabled.instant";
  let r = Telemetry.with_span "test.disabled.span" (fun () -> 42) in
  Alcotest.(check int) "with_span is transparent when disabled" 42 r;
  Alcotest.(check (option int)) "disabled counter stays zero"
    (Some 0)
    (match Telemetry.find_value "test.disabled.counter" with
     | Some (Telemetry.V_counter n) -> Some n
     | _ -> None);
  Alcotest.(check int) "no events recorded when disabled" 0
    (List.length (Telemetry.events ()))

let test_reset () =
  Telemetry.enable ();
  let c = Telemetry.counter "test.reset.counter" in
  Telemetry.add c 9;
  Telemetry.instant "test.reset.instant";
  Telemetry.reset ();
  Alcotest.(check (option int)) "reset zeroes metrics"
    (Some 0)
    (match Telemetry.find_value "test.reset.counter" with
     | Some (Telemetry.V_counter n) -> Some n
     | _ -> None);
  Alcotest.(check int) "reset drops events" 0
    (List.length (Telemetry.events ()));
  Alcotest.(check bool) "reset leaves the enabled flag alone" true
    (Telemetry.enabled ());
  (* the main domain's buffer survives a reset and keeps recording *)
  Telemetry.instant "test.reset.after";
  Alcotest.(check int) "recording continues after reset" 1
    (List.length (Telemetry.events ()))

(* ------------------------------------------------------------------ *)
(* Span balance and nesting                                           *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded as complete (ts, dur) intervals at close; balance
   means that on any one domain's track two spans never partially
   overlap — each pair is disjoint or properly nested, which is exactly
   what lets Chrome reconstruct the stack. *)
let check_nesting evs =
  let spans =
    List.filter (fun e -> e.Telemetry.ev_kind = Telemetry.Span) evs
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
       let prev =
         Option.value ~default:[] (Hashtbl.find_opt by_tid e.Telemetry.ev_tid)
       in
       Hashtbl.replace by_tid e.Telemetry.ev_tid (e :: prev))
    spans;
  Hashtbl.iter
    (fun _tid es ->
       List.iteri
         (fun i a ->
            List.iteri
              (fun j b ->
                 if i < j then begin
                   let a0 = a.Telemetry.ev_ts
                   and a1 = a.Telemetry.ev_ts +. a.Telemetry.ev_dur in
                   let b0 = b.Telemetry.ev_ts
                   and b1 = b.Telemetry.ev_ts +. b.Telemetry.ev_dur in
                   let disjoint = a1 <= b0 || b1 <= a0 in
                   let nested =
                     (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1)
                   in
                   if not (disjoint || nested) then
                     Alcotest.failf
                       "spans %s and %s partially overlap on one track"
                       a.Telemetry.ev_name b.Telemetry.ev_name
                 end)
              es)
         es)
    by_tid;
  spans

let test_span_nesting () =
  Telemetry.enable ();
  (match (analyze ()).Taj.result with
   | Taj.Completed _ -> ()
   | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r);
  let spans = check_nesting (Telemetry.events ()) in
  let names =
    List.sort_uniq compare (List.map (fun e -> e.Telemetry.ev_name) spans)
  in
  Alcotest.(check bool) "at least 6 distinct phase span names" true
    (List.length names >= 6);
  List.iter
    (fun required ->
       Alcotest.(check bool) (required ^ " span present") true
         (List.mem required names))
    [ "phase.frontend"; "frontend.parse"; "frontend.ssa"; "phase.pointer";
      "pointer.fixpoint"; "pointer.cg_growth"; "phase.sdg"; "sdg.build";
      "phase.taint"; "taint.rule"; "report.lcp" ]

let test_span_on_raise () =
  Telemetry.enable ();
  (try
     Telemetry.with_span "test.raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  let names = List.map (fun e -> e.Telemetry.ev_name) (Telemetry.events ()) in
  Alcotest.(check bool) "a raising span still records (balance)" true
    (List.mem "test.raising" names)

let test_domain_tracks () =
  Telemetry.enable ();
  analyze_fanned_out ();
  let spans = check_nesting (Telemetry.events ()) in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Telemetry.ev_tid) spans)
  in
  Alcotest.(check bool) "jobs=4 records spans on multiple domain tracks"
    true
    (List.length tids > 1);
  let workers =
    List.filter (fun e -> e.Telemetry.ev_name = "parallel.worker") spans
  in
  Alcotest.(check bool) "pool workers appear as parallel.worker spans" true
    (workers <> [])

(* ------------------------------------------------------------------ *)
(* Trace JSON well-formedness                                         *)
(* ------------------------------------------------------------------ *)

(* A minimal JSON reader — no JSON library ships with the test stack, and
   the point is precisely to validate the hand-emitted trace document.
   Parses the full value grammar; raises [Failure] on any malformation. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let string_body () =
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | Some '"' -> advance (); Buffer.contents buf
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some 'u' ->
             advance ();
             for _ = 1 to 4 do
               (match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape")
             done;
             Buffer.add_char buf '?'
           | Some c ->
             advance ();
             Buffer.add_char buf
               (match c with
                | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r'
                | 'b' -> '\b' | 'f' -> '\012' | '/' -> '/'
                | '"' -> '"' | '\\' -> '\\'
                | _ -> fail "bad escape")
           | None -> fail "eof in string");
          go ()
        | Some c -> advance (); Buffer.add_char buf c; go ()
        | None -> fail "eof in string"
      in
      go ()
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            expect '"';
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
        end
      | Some '"' -> advance (); Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "eof"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let mem k = function Obj fields -> List.assoc_opt k fields | _ -> None
end

let test_trace_json () =
  Telemetry.enable ();
  analyze_fanned_out ();
  let doc =
    match Json.parse (Telemetry.trace_json ()) with
    | doc -> doc
    | exception Failure msg -> Alcotest.failf "trace JSON malformed: %s" msg
  in
  let events =
    match Json.mem "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "trace has events" true (events <> []);
  let span_names = Hashtbl.create 16 and tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       (* every event carries the fields Chrome requires for its phase *)
       let str k =
         match Json.mem k ev with
         | Some (Json.Str s) -> s
         | _ -> Alcotest.failf "event missing string field %s" k
       in
       let num k =
         match Json.mem k ev with
         | Some (Json.Num f) -> f
         | _ -> Alcotest.failf "event missing numeric field %s" k
       in
       let name = str "name" in
       match str "ph" with
       | "X" ->
         Alcotest.(check bool) "span duration is non-negative" true
           (num "dur" >= 0.0);
         ignore (num "ts");
         Hashtbl.replace span_names name ();
         Hashtbl.replace tids (num "tid") ()
       | "i" -> ignore (num "ts")
       | "M" -> ()
       | ph -> Alcotest.failf "unexpected event phase %s" ph)
    events;
  Alcotest.(check bool) "at least 6 distinct span names in the JSON" true
    (Hashtbl.length span_names >= 6);
  Alcotest.(check bool) "multiple domain tracks in the JSON at jobs=4" true
    (Hashtbl.length tids > 1);
  (* thread-name metadata covers every track used by a span *)
  let named_tids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       match (Json.mem "ph" ev, Json.mem "name" ev, Json.mem "tid" ev) with
       | Some (Json.Str "M"), Some (Json.Str "thread_name"), Some (Json.Num t)
         ->
         Hashtbl.replace named_tids t ()
       | _ -> ())
    events;
  Hashtbl.iter
    (fun tid () ->
       Alcotest.(check bool) "span tid has thread_name metadata" true
         (Hashtbl.mem named_tids tid))
    tids

let test_metrics_json () =
  Telemetry.enable ();
  (match (analyze ()).Taj.result with
   | Taj.Completed _ -> ()
   | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r);
  match Json.parse (Telemetry.metrics_json ()) with
  | Json.Obj fields ->
    List.iter
      (fun key ->
         Alcotest.(check bool) (key ^ " in metrics JSON") true
           (List.mem_assoc key fields))
      [ "pointer.propagations"; "sdg.nodes_scanned"; "taint.steps";
        "pointer.worklist_len" ]
  | _ -> Alcotest.fail "metrics JSON is not an object"
  | exception Failure msg -> Alcotest.failf "metrics JSON malformed: %s" msg

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                      *)
(* ------------------------------------------------------------------ *)

(* Order-independent sums: identical however the runs are spread over
   the pool. parallel.tasks is absent: a one-domain pool is [List.map]
   and counts no task. *)
let deterministic_counters =
  [ "pointer.propagations"; "pointer.dispatches"; "pointer.fixpoint_rounds";
    "pointer.nodes_processed"; "pointer.dropped_calls";
    "pointer.cg_nodes_created"; "pointer.cg_edges_created";
    "sdg.nodes_scanned"; "sdg.defuse_memo_hits"; "sdg.defuse_memo_misses";
    "taint.steps"; "taint.heap_transitions";
    "taint.visited"; "taint.hits"; "taint.flows"; "taint.seeds";
    "taint.rules"; "taint.slices" ]

let snapshot_counters () =
  List.map
    (fun name ->
       ( name,
         match Telemetry.find_value name with
         | Some (Telemetry.V_counter n) -> n
         | _ -> Alcotest.failf "counter %s missing" name ))
    deterministic_counters

let test_metrics_determinism () =
  Telemetry.enable ();
  let g =
    Workloads.Apps.generate ~scale:0.02
      (Option.get (Workloads.Apps.find "Friki"))
  in
  let analyze () =
    match (Taj.analyze (Workloads.Codegen.to_input g)).Taj.result with
    | Taj.Completed _ -> ()
    | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r
  in
  let run jobs =
    Telemetry.reset ();
    ignore (Parallel.map ~jobs analyze [ (); (); (); () ] : unit list);
    snapshot_counters ()
  in
  let seq = run 1 and par = run 4 in
  List.iter2
    (fun (name, a) (_, b) ->
       Alcotest.(check int) (name ^ " identical at jobs=1 and jobs=4") a b)
    seq par;
  Alcotest.(check bool) "the run did real work" true
    (List.assoc "pointer.propagations" seq > 0
     && List.assoc "taint.steps" seq > 0)

(* ------------------------------------------------------------------ *)
(* Resilience events on the trace                                     *)
(* ------------------------------------------------------------------ *)

let instant_names () =
  List.filter_map
    (fun e ->
       if e.Telemetry.ev_kind = Telemetry.Instant then
         Some e.Telemetry.ev_name
       else None)
    (Telemetry.events ())

let test_budget_trip_instant () =
  Telemetry.enable ();
  let b = Budget.create ~deadline:0.0 () in
  for _ = 1 to 64 do
    ignore (Budget.exceeded b)
  done;
  ignore (Budget.status b);
  let trips =
    List.filter (fun n -> n = "budget.trip") (instant_names ())
  in
  Alcotest.(check int) "a budget trips exactly one instant event" 1
    (List.length trips)

let test_fault_and_ladder_instants () =
  Telemetry.enable ();
  (* fail the pointer phase once: the supervisor records the phase fault
     and walks one rung down the ladder, all visible as instants *)
  Fault.arm Fault.site_andersen ~after:1;
  let outcome = Supervisor.run (input [ two_flows ]) in
  Alcotest.(check bool) "supervised run still completed" true
    (Supervisor.completed_report outcome <> None);
  let names = instant_names () in
  Alcotest.(check bool) "injected fault marked on the trace" true
    (List.mem "fault.injected" names);
  Alcotest.(check bool) "ladder step marked on the trace" true
    (List.mem "diag.downgraded" names);
  Alcotest.(check bool) "phase fault marked on the trace" true
    (List.mem "diag.phase-fault" names)

(* ------------------------------------------------------------------ *)
(* Disabled-mode overhead guard                                       *)
(* ------------------------------------------------------------------ *)

(* The probes stay in the build; the contract is that with telemetry off
   the whole pipeline pays under 2% for them. Estimated as
   (probes the enabled run counted) x (measured disabled-probe cost)
   against the disabled run's wall time — each factor is measured, not
   assumed. *)
let test_disabled_overhead () =
  let g =
    Workloads.Apps.generate ~scale:0.02
      (Option.get (Workloads.Apps.find "Friki"))
  in
  let input = Workloads.Codegen.to_input g in
  (* probe volume, from an instrumented run *)
  Telemetry.enable ();
  Telemetry.reset ();
  (match (Taj.analyze input).Taj.result with
   | Taj.Completed _ -> ()
   | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r);
  let probes =
    List.fold_left
      (fun acc (_, v) ->
         acc
         + (match v with
            | Telemetry.V_counter n -> n
            | Telemetry.V_gauge _ -> 1
            | Telemetry.V_histogram h -> h.Telemetry.hs_count))
      (List.length (Telemetry.events ()))
      (Telemetry.metrics ())
  in
  Telemetry.disable ();
  Telemetry.reset ();
  (* cost of one disabled probe: a tight loop over the fast path *)
  let c = Telemetry.counter "test.overhead.counter" in
  let iters = 5_000_000 in
  let (), loop_seconds =
    Telemetry.timed (fun () ->
      for _ = 1 to iters do
        Telemetry.incr c
      done)
  in
  let per_probe = loop_seconds /. float_of_int iters in
  Alcotest.(check bool) "a disabled probe costs under 100ns" true
    (per_probe < 100e-9);
  (* the same analysis with telemetry off *)
  let result, disabled_seconds = Telemetry.timed (fun () -> Taj.analyze input) in
  (match result.Taj.result with
   | Taj.Completed _ -> ()
   | Taj.Did_not_complete r -> Alcotest.failf "analysis failed: %s" r);
  let overhead =
    float_of_int probes *. per_probe /. Float.max disabled_seconds 1e-9
  in
  if overhead >= 0.02 then
    Alcotest.failf
      "disabled telemetry overhead %.4f%% (%d probes x %.1fns / %.4fs) \
       exceeds the 2%% guard"
      (100.0 *. overhead) probes (per_probe *. 1e9) disabled_seconds

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Armed without enable: events keep recording into a bounded ring (so
   the last moments before a crash are always dumpable), metric updates
   go live, but [enabled] stays false — no unbounded buffers, no
   exit-time exports. *)
let test_flight_ring_bounding () =
  Telemetry.arm_flight 16;
  Alcotest.(check bool) "armed is not enabled" false (Telemetry.enabled ());
  Alcotest.(check bool) "but the recorder is armed" true
    (Telemetry.flight_armed ());
  for i = 1 to 1000 do
    Telemetry.instant (Printf.sprintf "test.flight.%d" i)
  done;
  let ring = Telemetry.flight_events () in
  Alcotest.(check bool)
    (Printf.sprintf "ring stays bounded (%d kept)" (List.length ring))
    true
    (List.length ring <= 16 && List.length ring > 0);
  Alcotest.(check bool) "the newest event is retained" true
    (List.exists
       (fun (e : Telemetry.event) -> e.Telemetry.ev_name = "test.flight.1000")
       ring);
  Alcotest.(check bool) "the oldest event was evicted" false
    (List.exists
       (fun (e : Telemetry.event) -> e.Telemetry.ev_name = "test.flight.1")
       ring);
  (* metric updates are live while armed *)
  let c = Telemetry.counter "test.flight.counter" in
  Telemetry.incr c;
  Alcotest.(check (option int)) "counters record while armed"
    (Some 1)
    (match Telemetry.find_value "test.flight.counter" with
     | Some (Telemetry.V_counter n) -> Some n
     | _ -> None);
  (* the dump document is a valid Chrome trace with the flight label *)
  let doc = Telemetry.flight_json () in
  (match Serve.Json.parse doc with
   | Error e -> Alcotest.fail ("flight_json unparsable: " ^ e)
   | Ok _ -> ());
  Alcotest.(check bool) "flight doc labels the process" true
    (contains ~needle:"taj flight" doc)

(* ------------------------------------------------------------------ *)
(* Exports                                                            *)
(* ------------------------------------------------------------------ *)

let test_export_prometheus () =
  Telemetry.enable ();
  let c = Telemetry.counter "test.export.counter" in
  let h = Telemetry.histogram "test.export.hist" in
  Telemetry.add c 5;
  List.iter (Telemetry.observe h) [ 0; 1; 3; 8; 8 ];
  let prom = Obs.Export.prometheus () in
  Alcotest.(check bool) "counter typed and valued" true
    (contains ~needle:"# TYPE taj_test_export_counter counter" prom
     && contains ~needle:"taj_test_export_counter 5" prom);
  Alcotest.(check bool) "histogram has cumulative buckets" true
    (contains ~needle:"# TYPE taj_test_export_hist histogram" prom
     && contains ~needle:"taj_test_export_hist_bucket{le=\"+Inf\"} 5" prom
     && contains ~needle:"taj_test_export_hist_count 5" prom
     && contains ~needle:"taj_test_export_hist_sum 20" prom);
  Alcotest.(check bool) "quantile companion gauges" true
    (contains ~needle:"taj_test_export_hist_p50" prom
     && contains ~needle:"taj_test_export_hist_p99" prom);
  Alcotest.(check bool) "exposition ends with the EOF marker" true
    (contains ~needle:"# EOF\n" prom);
  (* and the JSON form parses with the same numbers *)
  match Serve.Json.parse (Obs.Export.json ()) with
  | Error e -> Alcotest.fail ("metrics json unparsable: " ^ e)
  | Ok j ->
    Alcotest.(check (option int)) "json counter"
      (Some 5)
      (Serve.Json.int_member "test.export.counter" j);
    (match Serve.Json.member "test.export.hist" j with
     | Some hj ->
       Alcotest.(check (option int)) "json histogram count" (Some 5)
         (Serve.Json.int_member "count" hj)
     | None -> Alcotest.fail "histogram missing from json export")

let test_export_merge () =
  let hist count sum max_ buckets =
    Telemetry.V_histogram
      { Telemetry.hs_count = count; hs_sum = sum; hs_max = max_;
        hs_buckets = buckets }
  in
  let a =
    [ ("c", Telemetry.V_counter 2); ("g", Telemetry.V_gauge 1);
      ("h", hist 3 10 8 [ (1, 1); (8, 2) ]) ]
  in
  let b =
    [ ("c", Telemetry.V_counter 5); ("only_b", Telemetry.V_counter 1);
      ("h", hist 2 4 2 [ (2, 2) ]) ]
  in
  let m = Obs.Export.merge [ a; b ] in
  Alcotest.(check bool) "counters sum" true
    (List.assoc "c" m = Telemetry.V_counter 7);
  Alcotest.(check bool) "singletons survive" true
    (List.assoc "only_b" m = Telemetry.V_counter 1);
  (match List.assoc "h" m with
   | Telemetry.V_histogram s ->
     Alcotest.(check int) "histogram counts add" 5 s.Telemetry.hs_count;
     Alcotest.(check int) "histogram sums add" 14 s.Telemetry.hs_sum;
     Alcotest.(check int) "max of maxes" 8 s.Telemetry.hs_max;
     Alcotest.(check bool) "buckets merge sorted" true
       (s.Telemetry.hs_buckets = [ (1, 1); (2, 2); (8, 2) ])
   | _ -> Alcotest.fail "merged histogram lost its kind");
  (* exact nearest-rank percentiles, used by the bench harness *)
  let samples = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "p50 nearest-rank" 3.0
    (Obs.Export.percentile samples 0.5);
  Alcotest.(check (float 1e-9)) "p100 is the max" 5.0
    (Obs.Export.percentile samples 1.0);
  Alcotest.(check (float 1e-9)) "empty is zero" 0.0
    (Obs.Export.percentile [||] 0.99)

(* ------------------------------------------------------------------ *)
(* Structured log                                                     *)
(* ------------------------------------------------------------------ *)

let test_log_sink_levels_ndjson () =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.set_context [ ("proc", "test") ];
  Obs.Log.log ~level:Obs.Log.Debug "below.threshold";
  Obs.Log.log ~fields:[ ("job", "j1") ] "test.event";
  (* Telemetry.instant routes through the log even with telemetry off:
     diag.* infers warn, anything unprefixed infers debug (filtered) *)
  Telemetry.instant "diag.something" ~args:[ ("kind", "x") ];
  Telemetry.instant "quiet.event";
  let got = List.rev !lines in
  Alcotest.(check int) "debug lines filtered at info" 2 (List.length got);
  (match got with
   | [ first; second ] ->
     (match Serve.Json.parse first with
      | Error e -> Alcotest.fail ("log line unparsable: " ^ e)
      | Ok j ->
        Alcotest.(check (option string)) "event name" (Some "test.event")
          (Serve.Json.str_member "event" j);
        Alcotest.(check (option string)) "level" (Some "info")
          (Serve.Json.str_member "level" j);
        Alcotest.(check (option string)) "sticky context" (Some "test")
          (Serve.Json.str_member "proc" j);
        Alcotest.(check (option string)) "per-call field" (Some "j1")
          (Serve.Json.str_member "job" j);
        Alcotest.(check bool) "carries seq and ts" true
          (Serve.Json.member "seq" j <> None
           && Serve.Json.member "ts" j <> None));
     (match Serve.Json.parse second with
      | Error e -> Alcotest.fail ("instant line unparsable: " ^ e)
      | Ok j ->
        Alcotest.(check (option string)) "diag.* infers warn" (Some "warn")
          (Serve.Json.str_member "level" j);
        Alcotest.(check (option string)) "instant args become fields"
          (Some "x")
          (Serve.Json.str_member "kind" j))
   | _ -> Alcotest.fail "expected exactly the two passing lines");
  (* seq is monotonic across the stream *)
  let seqs =
    List.filter_map
      (fun l ->
         Result.to_option (Serve.Json.parse l)
         |> Fun.flip Option.bind (Serve.Json.int_member "seq"))
      got
  in
  Alcotest.(check bool) "seq strictly increases" true
    (match seqs with
     | [ a; b ] -> b > a
     | _ -> false);
  (* disabled fast path: no sink, emits are no-ops *)
  Obs.Log.set_sink None;
  Alcotest.(check bool) "no sink, not enabled" false (Obs.Log.enabled ());
  Obs.Log.log "dropped.silently";
  Alcotest.(check int) "nothing new arrived" 2 (List.length got)

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "counter/gauge/histogram" `Quick
      (isolated test_counter_gauge_histogram);
    Alcotest.test_case "disabled probes are no-ops" `Quick
      (isolated test_disabled_no_ops);
    Alcotest.test_case "reset" `Quick (isolated test_reset);
    Alcotest.test_case "span nesting over a pipeline run" `Quick
      (isolated test_span_nesting);
    Alcotest.test_case "raising spans still record" `Quick
      (isolated test_span_on_raise);
    Alcotest.test_case "per-domain tracks at jobs=4" `Quick
      (isolated test_domain_tracks);
    Alcotest.test_case "trace JSON well-formedness" `Quick
      (isolated test_trace_json);
    Alcotest.test_case "metrics JSON block" `Quick
      (isolated test_metrics_json);
    Alcotest.test_case "counter determinism jobs=1 vs jobs=4" `Slow
      (isolated test_metrics_determinism);
    Alcotest.test_case "budget trip instant" `Quick
      (isolated test_budget_trip_instant);
    Alcotest.test_case "fault and ladder instants" `Quick
      (isolated test_fault_and_ladder_instants);
    Alcotest.test_case "flight recorder: bounded ring while armed" `Quick
      (isolated test_flight_ring_bounding);
    Alcotest.test_case "export: prometheus exposition and json" `Quick
      (isolated test_export_prometheus);
    Alcotest.test_case "export: cross-process merge and percentiles"
      `Quick (isolated test_export_merge);
    Alcotest.test_case "log: levels, context, NDJSON shape" `Quick
      (isolated test_log_sink_levels_ndjson);
    Alcotest.test_case "disabled-mode overhead guard" `Slow
      (isolated test_disabled_overhead) ]
