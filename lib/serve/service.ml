(** The resilient analysis service: a long-running engine that accepts a
    stream of analysis jobs and stays up no matter what individual jobs
    do.

    One job = one supervised analysis ({!Core.Supervisor.run}) of either a
    named synthetic benchmark application or inline MJava source. Around
    that single-run resilience the service composes the process-lifetime
    mechanics the ROADMAP's serving goal needs:

    - a {e bounded admission queue} ({!Queue}) with explicit backpressure
      and priority-aware load shedding — overload is answered, never
      silently dropped;
    - {e retry with exponential backoff and deterministic seeded jitter}
      for failures {!Core.Fault.classify}d transient; permanent failures
      fail fast;
    - a {e per-application circuit breaker} ({!Breaker}) so a repeatedly
      crashing app stops consuming worker slots;
    - a {e memory watchdog} ({!Watchdog}) that pushes jobs down the
      degradation ladder before the process OOMs;
    - {e graceful drain} on SIGINT/SIGTERM or end of input: stop
      admitting, finish every admitted job, emit a final health snapshot.

    The invariant every transport and test leans on: {e every submitted
    job reaches exactly one terminal state} — [completed], [degraded],
    [rejected] or [failed] — delivered through its response callback. *)

open Core

(* ------------------------------------------------------------------ *)
(* Protocol types                                                     *)
(* ------------------------------------------------------------------ *)

type request = {
  rq_id : string;
  rq_app : string option;          (** named benchmark application … *)
  rq_source : string option;       (** … or inline MJava unit source *)
  rq_descriptor : string;
  rq_algorithm : Config.algorithm;
  rq_scale : float;
  rq_deadline : float option;      (** per-job wall-clock seconds *)
  rq_priority : int;               (** higher survives shedding longer *)
  rq_contexts : bool;              (** sanitization-context judge on *)
}

let request ?app ?source ?(descriptor = "")
    ?(algorithm = Config.Hybrid_optimized) ?(scale = 0.05) ?deadline
    ?(priority = 1) ?(contexts = false) id =
  { rq_id = id; rq_app = app; rq_source = source;
    rq_descriptor = descriptor; rq_algorithm = algorithm; rq_scale = scale;
    rq_deadline = deadline; rq_priority = priority; rq_contexts = contexts }

type status = Completed | Degraded | Rejected | Failed

let status_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Rejected -> "rejected"
  | Failed -> "failed"

type response = {
  rp_id : string;
  rp_status : status;
  rp_reason : string;              (** "" | queue_full | shed | draining
                                       | breaker_open | … *)
  rp_verdict : string option;
      (** ["type_only"] when the answer came from rung zero (triage sink
          findings, no flow paths); [None] for full-analysis answers *)
  rp_issues : int;
  rp_attempts : int;               (** executions, incl. the final one *)
  rp_degradations : int;           (** supervisor events of the last run *)
  rp_seconds : float;              (** submit-to-terminal wall clock *)
  rp_mismatched : int option;
      (** mismatched-sanitizer issue count when the request asked for
          the sanitization judge; [None] otherwise *)
}

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;                   (** worker domains executing jobs *)
  queue_cap : int;
  max_retries : int;               (** transient re-executions per job *)
  retry_base : float;              (** first backoff, seconds *)
  retry_factor : float;
  retry_max_delay : float;
  seed : int;                      (** jitter seed *)
  breaker_threshold : int;
  breaker_cooldown : float;
  mem_soft_limit_mb : int option;
  drain_grace : float option;      (** deadline cap for runs during drain *)
  cache_dir : string option;
      (** incremental-cache store directory; a restarted service points
          at the same directory and starts warm *)
  flight_dump : string option;
      (** where the flight-recorder ring is dumped as a Chrome trace on
          SIGUSR1, an admin [dump] request, or a terminal job failure;
          [None] disables dumping (the ring itself is armed by the CLI
          via {!Obs.Telemetry.arm_flight}) *)
  now : unit -> float;
  sleep : float -> unit;
      (** the queue's poll wait for delayed retries; injectable for tests *)
}

let default_config =
  { workers = 2; queue_cap = 64; max_retries = 2;
    retry_base = 0.05; retry_factor = 2.0; retry_max_delay = 2.0;
    seed = 0; breaker_threshold = 5; breaker_cooldown = 30.0;
    mem_soft_limit_mb = None; drain_grace = Some 30.0; cache_dir = None;
    flight_dump = None; now = Unix.gettimeofday; sleep = Io.sleepf }

(** The retry schedule is a pure function of (seed, job id, attempt):
    byte-identical across runs and across worker-pool sizes. [attempt] is
    the execution that just failed (1-based). *)
let backoff_delay cfg ~id ~attempt =
  let h = Hashtbl.hash (cfg.seed, id, attempt) in
  let jitter = float_of_int (h land 0xFFFF) /. 65536.0 in
  let exp =
    cfg.retry_base *. (cfg.retry_factor ** float_of_int (attempt - 1))
  in
  Float.min cfg.retry_max_delay (exp *. (0.5 +. jitter))

(* ------------------------------------------------------------------ *)
(* Service state                                                      *)
(* ------------------------------------------------------------------ *)

type job = {
  j_req : request;
  j_submitted : float;
  mutable j_attempts : int;
  j_respond : response -> unit;
}

type t = {
  cfg : config;
  queue : job Queue.t;
  breaker : Breaker.t;
  watchdog : Watchdog.t;
  cache : Cache.Incr.t option;
  digests : (string, float * Cache.Incr.input_digest) Hashtbl.t;
      (* per catalog app: the last scale a cached lookup asked for, and
         the digest of the app generated at that scale *)
  digest_lock : Mutex.t;
  diagnostics : Diagnostics.t;     (* service-level events *)
  diag_lock : Mutex.t;
  (* terminal-state accounting; atomics because workers race *)
  n_submitted : int Atomic.t;
  n_admitted : int Atomic.t;
  n_completed : int Atomic.t;
  n_degraded : int Atomic.t;
  n_failed : int Atomic.t;
  n_rejected_full : int Atomic.t;
  n_rejected_draining : int Atomic.t;
  n_shed : int Atomic.t;
  n_retries : int Atomic.t;
  n_breaker_fast_fails : int Atomic.t;
  n_breaker_opens : int Atomic.t;
  started_at : float;
  sig_drain : bool Atomic.t;       (* set (only) by signal handlers *)
  sig_dump : bool Atomic.t;        (* SIGUSR1: flight dump requested *)
  dump_lock : Mutex.t;             (* one flight dump writes at a time *)
  drain_started : bool Atomic.t;
  joined : bool Atomic.t;
  mutable domains : unit Domain.t list;
  join_lock : Mutex.t;
}

let m_submitted = Obs.Telemetry.counter "serve.submitted"
let m_admitted = Obs.Telemetry.counter "serve.admitted"
let m_completed = Obs.Telemetry.counter "serve.completed"
let m_degraded = Obs.Telemetry.counter "serve.degraded"
let m_failed = Obs.Telemetry.counter "serve.failed"
let m_rejected = Obs.Telemetry.counter "serve.rejected"
let m_shed = Obs.Telemetry.counter "serve.shed"
let m_retries = Obs.Telemetry.counter "serve.retries"
let m_latency_ms = Obs.Telemetry.histogram "serve.latency_ms"
let m_queue_wait_ms = Obs.Telemetry.histogram "serve.queue_wait_ms"
let g_queue_depth = Obs.Telemetry.gauge "serve.queue_depth"

let record_diag t d =
  Mutex.lock t.diag_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.diag_lock)
    (fun () -> Diagnostics.record t.diagnostics d)

(* Inline jobs are keyed by a hash of their source, not their (unique)
   request id: a repeatedly crashing inline unit trips a breaker like a
   named app does, the breaker table stays bounded by distinct workloads
   rather than growing one dead cell per inline job, and a repeated
   source opens the cache store its first run committed. *)
let breaker_key (rq : request) =
  match rq.rq_app, rq.rq_source with
  | Some a, _ -> a
  | None, Some src -> Printf.sprintf "inline:%08x" (Hashtbl.hash src)
  | None, None -> "inline:invalid"

(* The same key doubles as the cluster's consistent-hash routing key, so
   repeated submissions of one workload land on one warm worker, and
   names the cache store a request opens. Two sources whose hashes
   collide share a store, which is harmless: every entry in it is keyed
   by a digest of its full content. *)
let job_key = breaker_key

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

(** Dump the flight-recorder ring (the bounded per-domain buffers of
    recent spans/instants) as a Chrome trace at [cfg.flight_dump].
    Safe from any domain — the ring is snapshotted racily — and
    serialized so concurrent triggers never interleave in the file.
    Returns the path written, or [None] when dumping is off. *)
let flight_dump t ~cause =
  match t.cfg.flight_dump with
  | None -> None
  | Some path ->
    Mutex.lock t.dump_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.dump_lock)
      (fun () ->
        (try Obs.Telemetry.write_flight path
         with Sys_error _ -> ());
        Obs.Telemetry.instant "obs.flight_dump"
          ~args:[ ("cause", cause); ("path", path) ];
        Some path)

(* SIGUSR1 handlers only set this flag; the serving loop turns it into a
   dump from a safe context. *)
let signal_dump_pending t =
  if Atomic.exchange t.sig_dump false then
    ignore (flight_dump t ~cause:"sigusr1")

(* ------------------------------------------------------------------ *)
(* Job execution                                                      *)
(* ------------------------------------------------------------------ *)

let respond ?verdict ?mismatched t (job : job) status reason ~issues
    ~degradations =
  (match status with
   | Completed -> Atomic.incr t.n_completed; Obs.Telemetry.incr m_completed
   | Degraded -> Atomic.incr t.n_degraded; Obs.Telemetry.incr m_degraded
   | Failed -> Atomic.incr t.n_failed; Obs.Telemetry.incr m_failed
   | Rejected -> Obs.Telemetry.incr m_rejected);
  let seconds = t.cfg.now () -. job.j_submitted in
  Obs.Telemetry.observe m_latency_ms (int_of_float (seconds *. 1000.0));
  Obs.Telemetry.instant "serve.terminal"
    ~args:
      [ ("job", job.j_req.rq_id); ("status", status_name status);
        ("reason", reason) ];
  let r =
    { rp_id = job.j_req.rq_id; rp_status = status; rp_reason = reason;
      rp_verdict = verdict; rp_issues = issues;
      rp_attempts = job.j_attempts;
      rp_degradations = degradations; rp_seconds = seconds;
      rp_mismatched = mismatched }
  in
  (* a failing response sink must not take down the worker *)
  try job.j_respond r with _ -> ()

(* What a request analyzes: a catalog app, generated only when its
   sources are read, or one inline unit. *)
type subject = Named of Workloads.Apps.app | Inline of Taj.input

let subject_of (rq : request) : (subject, string) result =
  match rq.rq_app, rq.rq_source with
  | Some app, _ ->
    (match Workloads.Apps.find app with
     | None -> Error "unknown_app"
     | Some a -> Ok (Named a))
  | None, Some src ->
    (* the name only labels telemetry and errors; the cache store is
       named by [job_key] *)
    Ok (Inline { Taj.name = rq.rq_id; app_sources = [ src ];
                 descriptor = rq.rq_descriptor })
  | None, None -> Error "empty_request"

let input_of (rq : request) = function
  | Named a ->
    Workloads.Codegen.to_input (Workloads.Apps.generate ~scale:rq.rq_scale a)
  | Inline input -> input

(* The digest of the request's input for the result tier. A named app's
   is kept for the last scale asked, so a repeated request is looked up
   without generating the app: [input] is forced only when the app's
   entry is missing or holds another scale. *)
let input_digest t (rq : request) subject input =
  match subject with
  | Inline i -> Cache.Incr.input_digest i
  | Named a ->
    let name = a.Workloads.Apps.name in
    match
      Mutex.protect t.digest_lock (fun () -> Hashtbl.find_opt t.digests name)
    with
    | Some (scale, d) when Float.equal scale rq.rq_scale -> d
    | _ ->
      let d = Cache.Incr.input_digest (Lazy.force input) in
      Mutex.protect t.digest_lock (fun () ->
        Hashtbl.replace t.digests name (rq.rq_scale, d));
      d

type exec_outcome =
  | Exec_ok of {
      st : status;
      why : string;
      issues : int;
      degradations : int;
      verdict : string option;      (* Some "type_only" for rung zero *)
      mismatched : int option;      (* judged sanitizer mismatches *)
    }
  | Exec_failed of {
      reason : string;
      severity : Fault.severity;
      breaker_counts : bool;
          (* a run that merely exhausted the client's own per-job deadline
             says nothing about the key — two clients with different
             deadlines must not poison each other's breaker — so it does
             not count toward opening it; crashes always do *)
    }

let failed e =
  Exec_failed
    { reason = Printexc.to_string e; severity = Fault.classify e;
      breaker_counts = true }

(* One execution of the job under the supervisor, under the current
   memory-pressure level. Supervisor.run never raises; anything that does
   escape here (injected worker faults, infrastructure errors, the app's
   generation) is classified for the retry policy. *)
let execute t (job : job) : exec_outcome =
  let rq = job.j_req in
  match
    Fault.tick Fault.site_worker;
    Fault.tick (Fault.site_job rq.rq_id);
    subject_of rq
  with
  | exception e -> failed e
  | Error reason ->
    Exec_failed { reason; severity = Fault.Permanent; breaker_counts = true }
  | Ok subject ->
    let pressure =
      Watchdog.sample ~on_event:(record_diag t) t.watchdog
    in
    let scale, config =
      Watchdog.degrade_config ~scale:rq.rq_scale
        { (Config.preset ~scale:rq.rq_scale rq.rq_algorithm) with
          Config.contexts = rq.rq_contexts }
        pressure
    in
    (* per-rung execution counters ("serve.rung.<algorithm>"): bounded
       cardinality, so the Prometheus exposition shows how much of the
       fleet's work runs degraded and how much hit the triage floor *)
    Obs.Telemetry.incr
      (Obs.Telemetry.counter
         ("serve.rung." ^ Config.algorithm_name config.Config.algorithm));
    let deadline =
      (* during drain, cap each run so a pathological job cannot hold the
         shutdown hostage; its flows so far become a degraded result *)
      if Atomic.get t.drain_started then
        match rq.rq_deadline, t.cfg.drain_grace with
        | Some d, Some g -> Some (Float.min d g)
        | Some d, None -> Some d
        | None, g -> g
      else rq.rq_deadline
    in
    let session =
      Option.map (fun c -> Cache.Incr.start c ~app:(job_key rq)) t.cache
    in
    (match Option.bind session Cache.Incr.corruption with
     | Some d -> record_diag t d
     | None -> ());
    (* built at most once, on this worker, and only when read: to digest
       an app at a new scale, on a result-tier miss, or when nothing is
       looked up *)
    let input = lazy (input_of rq subject) in
    (* a memory-pressure run answers Degraded even when complete, so it
       neither consults nor feeds the result tier *)
    match
      if pressure > 0 then None
      else
        Option.bind session (fun s ->
          Cache.Incr.lookup_result s
            ~key:
              (Cache.Incr.raw_key ~rules:Rules.default_rules ~config
                 (input_digest t rq subject input)))
    with
    | exception e -> failed e
    | Some cr ->
      Exec_ok
        { st = Completed; why = ""; issues = cr.Cache.Incr.cr_issues;
          degradations = 0; verdict = None;
          mismatched =
            Option.map fst
              (Report.read_sanitization_counts cr.Cache.Incr.cr_report) }
    | None ->
      let options =
        { Supervisor.default_options with
          deadline; scale;
          cache =
            (match session with
             | Some s -> Cache.Incr.hooks s
             | None -> Cache_iface.none) }
      in
      match Supervisor.run ~options ~config (Lazy.force input) with
      | exception e -> failed e
      | outcome ->
        Option.iter
          (fun s ->
             if pressure > 0 then Cache.Incr.commit s
             else
               Cache.Incr.finish s ~rules:Rules.default_rules ~config
                 (Lazy.force input) outcome)
          session;
        let degradations = List.length outcome.Supervisor.sv_diagnostics in
        (match outcome.Supervisor.sv_triage with
         | Some v ->
           (* rung zero answered: a terminal, degraded response carrying
              the triage sink findings — never a failure. This is the
              floor under "every admitted job gets an answer". *)
           Exec_ok
             { st = Degraded; why = "type_only";
               issues = List.length (Triage.findings v);
               degradations; verdict = Some "type_only";
               mismatched = None }
         | None ->
         match outcome.Supervisor.sv_analysis with
         | Some { Taj.result = Taj.Completed c; _ } ->
           let issues = Report.issue_count c.Taj.report in
           let mismatched =
             Option.map fst (Report.sanitization_counts c.Taj.report)
           in
           if
             Report.is_partial c.Taj.report
             || outcome.Supervisor.sv_diagnostics <> []
           then
             Exec_ok
               { st = Degraded; why = "supervisor_degraded"; issues;
                 degradations; verdict = None; mismatched }
           else if pressure > 0 then
             Exec_ok
               { st = Degraded; why = "memory_pressure"; issues;
                 degradations; verdict = None; mismatched }
           else
             Exec_ok
               { st = Completed; why = ""; issues; degradations;
                 verdict = None; mismatched }
         | Some { Taj.result = Taj.Did_not_complete reason; _ } ->
           Exec_failed
             { reason = "did_not_complete: " ^ reason;
               severity = Fault.Permanent;
               breaker_counts = rq.rq_deadline = None }
         | None ->
           Exec_failed
             { reason = "load_failed"; severity = Fault.Permanent;
               breaker_counts = true })

let process t (job : job) =
  let key = breaker_key job.j_req in
  match Breaker.acquire t.breaker ~job:job.j_req.rq_id key with
  | `Fast_fail ->
    Atomic.incr t.n_breaker_fast_fails;
    respond t job Failed "breaker_open" ~issues:0 ~degradations:0
  | (`Proceed | `Probe) as admission ->
    job.j_attempts <- job.j_attempts + 1;
    (match execute t job with
     | Exec_ok { st; why; issues; degradations; verdict; mismatched } ->
       Breaker.success t.breaker key;
       respond ?verdict ?mismatched t job st why ~issues ~degradations
     | Exec_failed { reason; severity; breaker_counts } ->
       let retryable =
         severity = Fault.Transient
         && job.j_attempts <= t.cfg.max_retries
         && not (Atomic.get t.drain_started)
       in
       if retryable then begin
         (* not a terminal state: the breaker is not consulted — a
            half-open probe keeps its slot and its re-execution is
            re-admitted as the probe — and the job re-enters the queue
            tagged due after its deterministic backoff, so the worker is
            free for other jobs instead of sleeping out the delay *)
         Atomic.incr t.n_retries;
         Obs.Telemetry.incr m_retries;
         let delay =
           backoff_delay t.cfg ~id:job.j_req.rq_id ~attempt:job.j_attempts
         in
         record_diag t
           (Diagnostics.Job_retried
              { job = job.j_req.rq_id; attempt = job.j_attempts;
                delay; reason });
         Obs.Telemetry.instant "serve.retry"
           ~args:
             [ ("job", job.j_req.rq_id);
               ("attempt", string_of_int job.j_attempts);
               ("delay", Printf.sprintf "%.4f" delay);
               ("reason", reason) ];
         Queue.push_forced t.queue ~priority:job.j_req.rq_priority ~delay
           job
       end
       else begin
         (* a held probe slot must always be resolved, even when the
            failure itself does not count (client-deadline expiry):
            leaving the cell half-open would wedge the key forever *)
         if breaker_counts || admission = `Probe then
           ignore (Breaker.failure t.breaker key);
         respond t job Failed reason ~issues:0 ~degradations:0;
         (* a terminal failure is exactly the moment the recent-event
            ring pays off: dump it while the evidence is still inside *)
         ignore (flight_dump t ~cause:("failed:" ^ job.j_req.rq_id))
       end)

let worker t () =
  Obs.Telemetry.with_span "serve.worker" @@ fun () ->
  let rec loop () =
    match Queue.pop t.queue with
    | None -> ()                       (* drained and empty *)
    | Some job ->
      Obs.Telemetry.observe m_queue_wait_ms
        (int_of_float ((t.cfg.now () -. job.j_submitted) *. 1000.0));
      process t job;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) () =
  let cfg =
    { config with
      workers = max 1 config.workers;
      max_retries = max 0 config.max_retries }
  in
  let diag_lock = Mutex.create () in
  let diagnostics = Diagnostics.create () in
  let n_breaker_opens = Atomic.make 0 in
  let record ~key st =
    (* breaker transitions land in the service diagnostics; the callback
       runs under the breaker lock, so only counters and the (separate)
       diagnostics lock are touched *)
    Mutex.lock diag_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock diag_lock)
      (fun () ->
         Diagnostics.record diagnostics
           (Diagnostics.Breaker_transition
              { key; state = Breaker.state_name st }));
    match st with
    | Breaker.Open _ -> Atomic.incr n_breaker_opens
    | Breaker.Closed | Breaker.Half_open -> ()
  in
  let t =
    { cfg;
      queue = Queue.create ~now:cfg.now ~sleep:cfg.sleep ~cap:cfg.queue_cap ();
      breaker =
        Breaker.create ~now:cfg.now ~on_transition:record
          ~threshold:cfg.breaker_threshold ~cooldown:cfg.breaker_cooldown ();
      watchdog = Watchdog.create ~soft_limit_mb:cfg.mem_soft_limit_mb ();
      cache = Option.map (fun dir -> Cache.Incr.create ~dir) cfg.cache_dir;
      digests = Hashtbl.create 8; digest_lock = Mutex.create ();
      diagnostics; diag_lock;
      n_submitted = Atomic.make 0; n_admitted = Atomic.make 0;
      n_completed = Atomic.make 0; n_degraded = Atomic.make 0;
      n_failed = Atomic.make 0; n_rejected_full = Atomic.make 0;
      n_rejected_draining = Atomic.make 0; n_shed = Atomic.make 0;
      n_retries = Atomic.make 0;
      n_breaker_fast_fails = Atomic.make 0; n_breaker_opens;
      started_at = cfg.now ();
      sig_drain = Atomic.make false;
      sig_dump = Atomic.make false; dump_lock = Mutex.create ();
      drain_started = Atomic.make false;
      joined = Atomic.make false; domains = []; join_lock = Mutex.create () }
  in
  t.domains <- List.init cfg.workers (fun _ -> Domain.spawn (worker t));
  t

(** Admission. The response callback fires exactly once, from an arbitrary
    domain, when the job reaches its terminal state — possibly before
    [submit] returns (immediate rejection). *)
let submit t (rq : request) ~(respond : response -> unit) =
  Atomic.incr t.n_submitted;
  Obs.Telemetry.incr m_submitted;
  let job =
    { j_req = rq; j_submitted = t.cfg.now (); j_attempts = 0;
      j_respond = respond }
  in
  let reject job reason counter =
    Atomic.incr counter;
    Obs.Telemetry.incr m_rejected;
    Obs.Telemetry.instant "serve.rejected"
      ~args:[ ("job", job.j_req.rq_id); ("reason", reason) ];
    let r =
      { rp_id = job.j_req.rq_id; rp_status = Rejected; rp_reason = reason;
        rp_verdict = None; rp_issues = 0; rp_attempts = job.j_attempts;
        rp_degradations = 0;
        rp_seconds = t.cfg.now () -. job.j_submitted;
        rp_mismatched = None }
    in
    try job.j_respond r with _ -> ()
  in
  if Atomic.get t.drain_started || Atomic.get t.sig_drain then
    reject job "draining" t.n_rejected_draining
  else begin
    match Queue.push t.queue ~priority:rq.rq_priority job with
    | Queue.Admitted ->
      Atomic.incr t.n_admitted;
      Obs.Telemetry.incr m_admitted;
      Obs.Telemetry.set g_queue_depth (Queue.length t.queue);
      Obs.Telemetry.instant "serve.admit" ~args:[ ("job", rq.rq_id) ]
    | Queue.Admitted_shedding victim ->
      Atomic.incr t.n_admitted;
      Obs.Telemetry.incr m_admitted;
      Obs.Telemetry.incr m_shed;
      Atomic.incr t.n_shed;
      record_diag t
        (Diagnostics.Job_shed
           { job = victim.j_req.rq_id;
             priority = victim.j_req.rq_priority });
      Obs.Telemetry.instant "serve.shed"
        ~args:[ ("job", victim.j_req.rq_id) ];
      reject victim "shed" (Atomic.make 0 (* shed counted above *));
      Obs.Telemetry.instant "serve.admit" ~args:[ ("job", rq.rq_id) ]
    | Queue.Rejected_full -> reject job "queue_full" t.n_rejected_full
  end

(** Stop admitting; admitted jobs keep running. Idempotent; safe from any
    domain (but not from a signal handler — handlers only set a flag). *)
let request_drain t =
  if not (Atomic.exchange t.drain_started true) then begin
    Obs.Telemetry.instant "serve.drain"
      ~args:[ ("queued", string_of_int (Queue.length t.queue)) ];
    Queue.set_draining t.queue
  end

(** Block until every worker has exited — i.e. every admitted job has
    reached its terminal state. Idempotent. *)
let await_drained t =
  request_drain t;
  Mutex.lock t.join_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.join_lock)
    (fun () ->
       if not (Atomic.get t.joined) then begin
         List.iter Domain.join t.domains;
         t.domains <- [];
         Atomic.set t.joined true;
         Obs.Telemetry.instant "serve.drained"
       end)

(* ------------------------------------------------------------------ *)
(* Signals                                                            *)
(* ------------------------------------------------------------------ *)

(** Handlers may run at any allocation point, so they only set an atomic
    flag. {!submit} refuses work once the drain flag is set, and the
    serving loop polls it and runs the drain from a safe context. *)
let install_signals t =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set t.sig_drain true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set t.sig_dump true))

let signal_pending t = Atomic.get t.sig_drain

(* ------------------------------------------------------------------ *)
(* Health                                                             *)
(* ------------------------------------------------------------------ *)

type health = {
  h_uptime : float;
  h_queue_depth : int;
  h_pressure : int;
  h_rung : string;
      (** name of the degradation-ladder rung jobs currently run at
          (the default ladder's rung for [h_pressure]; ["triage"] when
          pressure has pushed execution down to the type-only floor) *)
  h_submitted : int;
  h_admitted : int;
  h_completed : int;
  h_degraded : int;
  h_failed : int;
  h_rejected_full : int;
  h_rejected_draining : int;
  h_shed : int;
  h_retries : int;
  h_breaker_fast_fails : int;
  h_breaker_opens : int;
  h_open_breakers : string list;
  h_events : int;                  (** service-level diagnostics recorded *)
  h_latency_p50 : int;             (** submit-to-terminal ms (log2 est.) *)
  h_latency_p95 : int;
  h_latency_p99 : int;
  h_cache_hits : int;              (** incremental-cache tier hits … *)
  h_cache_misses : int;            (** … and misses *)
}

(* Latency percentiles and cache-tier counters come from the telemetry
   registry (zero when telemetry is off): the histogram is fed by
   [respond], the cache counters by [Cache.Incr]. In a cluster worker
   process this reads the worker's own post-fork registry, so the
   aggregated health sums per-worker cache behaviour. *)
let telemetry_counter name =
  match Obs.Telemetry.find_value name with
  | Some (Obs.Telemetry.V_counter n) -> n
  | _ -> 0

let latency_quantile q =
  match Obs.Telemetry.find_value "serve.latency_ms" with
  | Some (Obs.Telemetry.V_histogram s) -> Obs.Telemetry.snapshot_quantile s q
  | _ -> 0

let health t =
  { h_uptime = t.cfg.now () -. t.started_at;
    h_queue_depth = Queue.length t.queue;
    h_pressure = Watchdog.level t.watchdog;
    h_rung =
      Config.pressure_rung_name
        (Config.preset Config.Hybrid_optimized)
        (Watchdog.level t.watchdog);
    h_submitted = Atomic.get t.n_submitted;
    h_admitted = Atomic.get t.n_admitted;
    h_completed = Atomic.get t.n_completed;
    h_degraded = Atomic.get t.n_degraded;
    h_failed = Atomic.get t.n_failed;
    h_rejected_full = Atomic.get t.n_rejected_full;
    h_rejected_draining = Atomic.get t.n_rejected_draining;
    h_shed = Atomic.get t.n_shed;
    h_retries = Atomic.get t.n_retries;
    h_breaker_fast_fails = Atomic.get t.n_breaker_fast_fails;
    h_breaker_opens = Atomic.get t.n_breaker_opens;
    h_open_breakers = Breaker.open_keys t.breaker;
    h_events =
      (Mutex.lock t.diag_lock;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock t.diag_lock)
         (fun () -> Diagnostics.count t.diagnostics));
    h_latency_p50 = latency_quantile 0.50;
    h_latency_p95 = latency_quantile 0.95;
    h_latency_p99 = latency_quantile 0.99;
    h_cache_hits = telemetry_counter "cache.hit";
    h_cache_misses = telemetry_counter "cache.miss" }

(** A drain is clean when no admitted job was shed and no job was turned
    away by a full queue: the service kept every promise it made. Failed
    and degraded jobs are terminal answers, not lost work. *)
let clean_drain h = h.h_shed = 0 && h.h_rejected_full = 0

let events t =
  Mutex.lock t.diag_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.diag_lock)
    (fun () -> Diagnostics.events t.diagnostics)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                      *)
(* ------------------------------------------------------------------ *)

let algorithm_of_string = function
  | "hybrid" | "hybrid-unbounded" -> Ok Config.Hybrid_unbounded
  | "prioritized" | "hybrid-prioritized" -> Ok Config.Hybrid_prioritized
  | "optimized" | "hybrid-optimized" -> Ok Config.Hybrid_optimized
  | "cs" -> Ok Config.Cs_thin_slicing
  | "ci" -> Ok Config.Ci_thin_slicing
  | "triage" -> Ok Config.Type_triage
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

let request_of_json (j : Json.t) : (request, string) result =
  match Json.str_member "id" j with
  | None -> Error "missing id"
  | Some id ->
    let app = Json.str_member "app" j in
    let source = Json.str_member "source" j in
    if app = None && source = None then Error "missing app or source"
    else begin
      match
        match Json.str_member "algorithm" j with
        | None -> Ok Config.Hybrid_optimized
        | Some s -> algorithm_of_string s
      with
      | Error e -> Error e
      | Ok algorithm ->
        Ok
          (request id ?app ?source
             ?descriptor:(Json.str_member "descriptor" j)
             ~algorithm
             ?scale:(Json.num_member "scale" j)
             ?deadline:(Json.num_member "deadline" j)
             ?priority:(Json.int_member "priority" j)
             ?contexts:
               (match Json.member "contexts" j with
                | Some (Json.Bool b) -> Some b
                | _ -> None))
    end

let response_json (r : response) =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str r.rp_id);
          ("status", Json.Str (status_name r.rp_status));
          ("reason", Json.Str r.rp_reason) ]
        @ (match r.rp_verdict with
           | Some v -> [ ("verdict", Json.Str v) ]
           | None -> [])
        @ (match r.rp_mismatched with
           | Some n -> [ ("mismatched", Json.Num (float_of_int n)) ]
           | None -> [])
        @ [ ("issues", Json.Num (float_of_int r.rp_issues));
            ("attempts", Json.Num (float_of_int r.rp_attempts));
            ("degradations", Json.Num (float_of_int r.rp_degradations));
            ("seconds",
             Json.Num (Float.round (r.rp_seconds *. 1000.) /. 1000.)) ]))

let health_json (h : health) =
  let num n = Json.Num (float_of_int n) in
  Json.to_string
    (Json.Obj
       [ ("event", Json.Str "health");
         ("uptime", Json.Num (Float.round (h.h_uptime *. 1000.) /. 1000.));
         ("queue_depth", num h.h_queue_depth);
         ("pressure", num h.h_pressure);
         (* the watchdog pressure level selects the degradation-ladder
            rung jobs currently run at; the rung is surfaced by name so
            dashboards need no level-to-preset mapping *)
         ("rung", Json.Str h.h_rung);
         ("submitted", num h.h_submitted);
         ("admitted", num h.h_admitted);
         ("completed", num h.h_completed);
         ("degraded", num h.h_degraded);
         ("failed", num h.h_failed);
         ("rejected_full", num h.h_rejected_full);
         ("rejected_draining", num h.h_rejected_draining);
         ("shed", num h.h_shed);
         ("retries", num h.h_retries);
         ("breaker_fast_fails", num h.h_breaker_fast_fails);
         ("breaker_opens", num h.h_breaker_opens);
         ("open_breakers",
          Json.Arr (List.map (fun k -> Json.Str k) h.h_open_breakers));
         ("latency_ms_p50", num h.h_latency_p50);
         ("latency_ms_p95", num h.h_latency_p95);
         ("latency_ms_p99", num h.h_latency_p99);
         ("cache_hits", num h.h_cache_hits);
         ("cache_misses", num h.h_cache_misses);
         ("clean_drain", Json.Bool (clean_drain h)) ])

(** One request line → one answer, through [answer]: a line that does
    not parse as a request is answered [rejected] at once, with its id
    when it has one; a request goes to [submit] and is answered when it
    reaches its terminal state. The transport of both engines calls this
    for every non-empty line. *)
let handle_line submit line ~answer =
  let reject id reason =
    answer
      (Json.to_string
         (Json.Obj
            [ ("id", id); ("status", Json.Str "rejected");
              ("reason", Json.Str reason) ]))
  in
  match Json.parse line with
  | Error e -> reject Json.Null ("bad_json: " ^ e)
  | Ok j ->
    (match request_of_json j with
     | Ok rq -> submit rq ~respond:(fun r -> answer (response_json r))
     | Error reason ->
       reject
         (match Json.str_member "id" j with
          | Some id -> Json.Str id
          | None -> Json.Null)
         reason)

(* ------------------------------------------------------------------ *)
(* Serving                                                            *)
(* ------------------------------------------------------------------ *)

(** Serve [jobs] until end of input, a drain signal or {!request_drain}
    from another thread; the loop polls all three every 0.2 s. *)
let serve ?admin t jobs =
  install_signals t;
  Transport.serve ?admin
    { Transport.handle = handle_line (submit t);
      record = record_diag t;
      health = (fun () -> health t);
      health_json;
      metrics = Obs.Telemetry.metrics;
      dump = (fun () -> flight_dump t ~cause:"admin");
      stop = (fun () -> signal_pending t || Atomic.get t.drain_started);
      drain = (fun () -> await_drained t; health t);
      fds = (fun () -> []);
      step = (fun _ -> signal_dump_pending t);
      timeout = (fun () -> 0.2) }
    jobs

(* Kept under this name for the benchmark's serve_cached workload
   (perfbench/serve_load.ml), which drives it in-process. *)
let run_socket ?admin t path = serve ?admin t (Transport.Socket path)
