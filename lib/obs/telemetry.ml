(** Pipeline-wide observability: span tracing, a metrics registry, and
    instant events for the resilience layer.

    The evaluation of the source paper (Tables 1-3, Figure 4) is an
    argument about *where* analysis time and budget go — call-graph
    growth under the node budget, hybrid-slice tabulation, heap-transition
    caps. This module gives every pipeline phase a first-class account of
    that: nested wall-clock {e spans} exported as Chrome trace-event JSON
    (load the file at chrome://tracing or ui.perfetto.dev), {e counters /
    gauges / histograms} for the quantities the bounded-analysis machinery
    reasons about, and {e instant events} marking budget trips,
    degradation-ladder steps and injected faults on the same timeline.

    {2 Cost model}

    Telemetry is globally off by default. Every probe — [with_span],
    [instant], [incr], [observe] — begins with a single [Atomic.get] of
    the enabled flag and returns immediately when it is false: no
    allocation, no syscall, no lock. The overhead guard in
    [test/test_telemetry.ml] measures this fast path against a real
    analysis run and fails if the estimated full-pipeline overhead of the
    disabled probes exceeds 2%.

    {2 Multicore safety}

    Analyses run concurrently on several domains: [taj serve] worker
    domains, and the bench harness's per-app fan-out. Span and instant
    events are recorded into a {e per-domain} buffer (domain-local
    storage), so those domains never contend or interleave; each
    domain's events form its own track in the trace ([tid] = domain
    id). Buffers register themselves in a global list at first use and
    survive their domain's death, so events from short-lived workers are
    still present when the main domain drains the trace after the joins.
    Metric updates are single atomic RMW operations on shared cells;
    sums are therefore order-independent, and runs fanned out over any
    number of domains produce the same counter values as the same runs
    made one after another.

    Draining ([events], [trace_json], [metrics]) and [reset] must not run
    concurrently with recording; callers drain only after the domains
    they started have joined. *)

(* ------------------------------------------------------------------ *)
(* Enabled flag                                                       *)
(* ------------------------------------------------------------------ *)

(* [on] is the recording fast-path flag probes test; it is true when
   either full tracing ([enable]) or the bounded flight recorder
   ([arm_flight]) is active. [full] distinguishes the two: only full
   tracing keeps unbounded buffers and triggers end-of-run trace files. *)
let on = Atomic.make false
let full = Atomic.make false
let flight_cap = Atomic.make 0

let enabled () = Atomic.get full

let enable () =
  Atomic.set full true;
  Atomic.set on true

let disable () =
  Atomic.set full false;
  Atomic.set on (Atomic.get flight_cap > 0)

(** Arm the always-on flight recorder: per-domain event buffers become
    rings keeping (roughly) the most recent [cap] events each, and
    metric updates go live, without the unbounded growth or exit-time
    exports of [enable]. [arm_flight 0] disarms. Full tracing takes
    precedence over the ring bound when both are on. *)
let arm_flight cap =
  let cap = max 0 cap in
  Atomic.set flight_cap cap;
  Atomic.set on (cap > 0 || Atomic.get full)

let flight_armed () = Atomic.get flight_cap > 0

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

(* Wall clock, as everywhere else in the pipeline: deadlines are
   wall-clock by definition and Table 3 reports elapsed time. The epoch
   makes trace timestamps small and stable within one process. *)
let now = Unix.gettimeofday
let epoch = now ()
let us_of t = (t -. epoch) *. 1e6

(** [timed f] is [(f (), wall-clock seconds f took)]. This is the one
    phase timer of the repository — the CLI, the bench harness and
    [Core.Taj] all report durations measured here, telemetry enabled or
    not. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Event buffers (one per domain)                                     *)
(* ------------------------------------------------------------------ *)

type phase_kind = Span | Instant

type event = {
  ev_name : string;
  ev_kind : phase_kind;
  ev_ts : float;                       (* µs since [epoch] *)
  ev_dur : float;                      (* µs; 0 for instants *)
  ev_tid : int;                        (* recording domain's id *)
  ev_args : (string * string) list;
}

type buffer = {
  bf_tid : int;
  mutable bf_events : event list;
  mutable bf_count : int;
}

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The DLS initializer runs in the recording domain on its first probe;
   the buffer outlives the domain via [registry], so worker events are
   still drainable after the pool joins. *)
let buf_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
    let b = { bf_tid = (Domain.self () :> int); bf_events = []; bf_count = 0 } in
    locked registry_lock (fun () -> registry := b :: !registry);
    b)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Flight-recorder bound: when armed without full tracing, trim the
   (newest-first) list back to [cap] once it doubles — amortized O(1)
   per event, and each domain always retains its last [cap..2*cap]
   events for post-incident dumps. *)
let record ev =
  let b = Domain.DLS.get buf_key in
  b.bf_events <- ev :: b.bf_events;
  b.bf_count <- b.bf_count + 1;
  if not (Atomic.get full) then begin
    let cap = Atomic.get flight_cap in
    if cap > 0 && b.bf_count > 2 * cap then begin
      b.bf_events <- take cap b.bf_events;
      b.bf_count <- cap
    end
  end

(** All recorded events, oldest first. *)
let events () =
  locked registry_lock (fun () ->
    List.concat_map (fun b -> b.bf_events) !registry)
  |> List.sort (fun a b -> compare (a.ev_ts, a.ev_dur) (b.ev_ts, b.ev_dur))

(* ------------------------------------------------------------------ *)
(* Spans and instants                                                 *)
(* ------------------------------------------------------------------ *)

(** [with_span name f] runs [f] and, when telemetry is enabled, records a
    complete span covering it on the current domain's track. The span is
    recorded even when [f] raises (the balance invariant the tests check:
    a fault mid-phase still leaves a well-formed trace). *)
let with_span ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        record
          { ev_name = name; ev_kind = Span; ev_ts = us_of t0;
            ev_dur = (t1 -. t0) *. 1e6;
            ev_tid = (Domain.self () :> int); ev_args = args })
      f
  end

(** [phase name f] is [timed] + [with_span]: the duration is always
    measured (phase breakdowns are reported even without [--trace]); the
    span is recorded only when enabled. Raising [f] still records. *)
let phase ?args name f =
  let dt = ref 0.0 in
  let r = with_span ?args name (fun () ->
      let r, d = timed f in
      dt := d;
      r)
  in
  (r, !dt)

(** Mark a point in time on the current domain's track (budget trip,
    ladder step, injected fault, ...). Instants also route through
    {!Log.emit_instant}, so a live NDJSON stream of them exists whenever
    a log sink is installed — independently of tracing being on. *)
let instant ?(args = []) name =
  if Atomic.get on then
    record
      { ev_name = name; ev_kind = Instant; ev_ts = us_of (now ());
        ev_dur = 0.0; ev_tid = (Domain.self () :> int); ev_args = args };
  Log.emit_instant name args

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : int Atomic.t }

(* log2 buckets: bucket i counts observations v with 2^(i-1) <= v < 2^i
   (bucket 0 counts v <= 0). 32 buckets cover every practical count. *)
let n_buckets = 32

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let metrics_tbl : (string, metric) Hashtbl.t = Hashtbl.create 64
let metrics_lock = Mutex.create ()

(* Metrics are created once, at module initialization of their
   instrumentation site; the lock only guards creation, never updates. *)
let register name make cast =
  locked metrics_lock (fun () ->
    match Hashtbl.find_opt metrics_tbl name with
    | Some m ->
      (match cast m with
       | Some v -> v
       | None ->
         invalid_arg
           (Printf.sprintf "Telemetry: metric %s exists with another kind"
              name))
    | None ->
      let v = make () in
      Hashtbl.replace metrics_tbl name v;
      match cast v with Some v -> v | None -> assert false)

let counter name =
  register name
    (fun () -> Counter { c_name = name; c_v = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> Gauge { g_name = name; g_v = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      Histogram
        { h_name = name;
          h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0 })
    (function Histogram h -> Some h | _ -> None)

(* All updates share the one-atomic-load disabled fast path. *)

let incr c = if Atomic.get on then Atomic.incr c.c_v
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c_v n)
let set g v = if Atomic.get on then Atomic.set g.g_v v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then
    atomic_max cell v

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr b;
      x := !x lsr 1
    done;
    min (n_buckets - 1) !b
  end

let observe h v =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum v);
    atomic_max h.h_max v
  end

let counter_value c = Atomic.get c.c_v
let gauge_value g = Atomic.get g.g_v

type histogram_snapshot = {
  hs_count : int;
  hs_sum : int;
  hs_max : int;
  hs_buckets : (int * int) list;       (* bucket lower bound, count *)
}

let histogram_snapshot h =
  { hs_count = Atomic.get h.h_count;
    hs_sum = Atomic.get h.h_sum;
    hs_max = Atomic.get h.h_max;
    hs_buckets =
      List.filter
        (fun (_, n) -> n > 0)
        (List.init n_buckets (fun i ->
             ((if i = 0 then 0 else 1 lsl (i - 1)), Atomic.get h.h_buckets.(i)))) }

(** [snapshot_quantile s q] estimates the [q]-quantile (0 <= q <= 1) of a
    log2-bucketed snapshot: the upper bound of the bucket holding the
    q-th observation, capped at the observed maximum. Good to within a
    factor of two — enough for the serving layer's latency percentiles. *)
let snapshot_quantile (s : histogram_snapshot) q =
  if s.hs_count = 0 then 0
  else begin
    let rank =
      max 1 (int_of_float (ceil (q *. float_of_int s.hs_count)))
    in
    let rec walk seen = function
      | [] -> s.hs_max
      | (lo, n) :: rest ->
        if seen + n >= rank then
          (if lo = 0 then 0 else min s.hs_max ((2 * lo) - 1))
        else walk (seen + n) rest
    in
    walk 0 s.hs_buckets
  end

type value =
  | V_counter of int
  | V_gauge of int
  | V_histogram of histogram_snapshot

(** Snapshot of every registered metric, sorted by name. *)
let metrics () =
  locked metrics_lock (fun () ->
    Hashtbl.fold (fun _ m acc -> m :: acc) metrics_tbl [])
  |> List.map (fun m ->
      ( metric_name m,
        match m with
        | Counter c -> V_counter (counter_value c)
        | Gauge g -> V_gauge (gauge_value g)
        | Histogram h -> V_histogram (histogram_snapshot h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Value of a metric by name, for tests and assertions. *)
let find_value name =
  List.assoc_opt name (metrics ())

(** Zero every metric and drop every recorded event. Buffers stay
    registered (live domains keep appending to theirs); the enabled flag
    is untouched. *)
let reset () =
  locked registry_lock (fun () ->
    List.iter
      (fun b ->
        b.bf_events <- [];
        b.bf_count <- 0)
      !registry);
  locked metrics_lock (fun () ->
    Hashtbl.iter
      (fun _ m ->
         match m with
         | Counter c -> Atomic.set c.c_v 0
         | Gauge g -> Atomic.set g.g_v 0
         | Histogram h ->
           Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
           Atomic.set h.h_count 0;
           Atomic.set h.h_sum 0;
           Atomic.set h.h_max 0)
      metrics_tbl)

(* ------------------------------------------------------------------ *)
(* Export: Chrome trace JSON                                          *)
(* ------------------------------------------------------------------ *)

(* Trace events are printed straight into their format, not built as
   [Json.t] values: a cluster worker writes a flight snapshot for every
   job, so this path runs per job. *)
let args_json args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
            Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
         args)
  ^ "}"

let event_json ev =
  match ev.ev_kind with
  | Span ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\
       \"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
      (Json.escape ev.ev_name) ev.ev_tid ev.ev_ts ev.ev_dur
      (args_json ev.ev_args)
  | Instant ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
       \"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
      (Json.escape ev.ev_name) ev.ev_tid ev.ev_ts (args_json ev.ev_args)

(* [evs] as a Chrome trace-event JSON document (the [chrome://tracing] /
   Perfetto format): one [pid] named [process], one [tid] track per
   domain, spans as complete ("X") events, instants as "i" events. The
   full trace and the flight ring differ only in the process name, so
   both open in the same viewers and the cluster's pid splicing applies
   to both. *)
let document ~process evs =
  let tids =
    List.sort_uniq compare (List.map (fun ev -> ev.ev_tid) evs)
  in
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
       \"args\":{\"name\":\"%s\"}}"
      process
    :: List.map
         (fun tid ->
            Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
               \"args\":{\"name\":\"domain-%d\"}}"
              tid tid)
         tids
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (meta @ List.map event_json evs)
  ^ "\n]}\n"

let trace_json () = document ~process:"taj" (events ())

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trace_json ()))

(* ------------------------------------------------------------------ *)
(* Flight recorder dump                                               *)
(* ------------------------------------------------------------------ *)

(* The most recent events, capped per domain at the flight cap. Unlike
   [events] this is meant to run while other domains are still
   recording: [bf_events] is read racily, which under the OCaml 5
   memory model yields some previously written (fully initialized,
   immutable) list — a valid, possibly slightly stale snapshot. The
   registry itself is read under its lock. *)
let flight_events () =
  let cap =
    match Atomic.get flight_cap with 0 -> max_int | c -> c
  in
  let bufs = locked registry_lock (fun () -> !registry) in
  List.concat_map (fun b -> take cap b.bf_events) bufs
  |> List.sort (fun a b -> compare (a.ev_ts, a.ev_dur) (b.ev_ts, b.ev_dur))

let flight_json () = document ~process:"taj flight" (flight_events ())

(* ------------------------------------------------------------------ *)
(* Export: metrics                                                    *)
(* ------------------------------------------------------------------ *)

(** Human-readable metrics table (the [--metrics] stderr report). *)
let pp_metrics ppf () =
  let pp_one (name, v) =
    match v with
    | V_counter n -> Format.fprintf ppf "%-38s %12d@," name n
    | V_gauge n -> Format.fprintf ppf "%-38s %12d  (gauge)@," name n
    | V_histogram h ->
      Format.fprintf ppf
        "%-38s %12d  (sum %d, max %d, mean %.1f, p50 %d, p95 %d, p99 %d)@,"
        name h.hs_count h.hs_sum h.hs_max
        (if h.hs_count = 0 then 0.0
         else float_of_int h.hs_sum /. float_of_int h.hs_count)
        (snapshot_quantile h 0.50) (snapshot_quantile h 0.95)
        (snapshot_quantile h 0.99)
  in
  Format.fprintf ppf "@[<v>";
  List.iter pp_one (metrics ());
  Format.fprintf ppf "@]"
