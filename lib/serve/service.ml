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

(* SIGUSR1 handlers only set this flag; transport pumps turn it into a
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

let build_input (rq : request) : (Taj.input, string) result =
  match rq.rq_app, rq.rq_source with
  | Some app, _ ->
    (match Workloads.Apps.find app with
     | None -> Error "unknown_app"
     | Some a ->
       Ok (Workloads.Codegen.to_input
             (Workloads.Apps.generate ~scale:rq.rq_scale a)))
  | None, Some src ->
    (* the name only labels telemetry and errors; the cache store is
       named by [job_key] *)
    Ok { Taj.name = rq.rq_id; app_sources = [ src ];
         descriptor = rq.rq_descriptor }
  | None, None -> Error "empty_request"

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

(* One execution of the job under the supervisor, under the current
   memory-pressure level. Supervisor.run never raises; anything that does
   escape here (injected worker faults, infrastructure errors) is
   classified for the retry policy. *)
let execute t (job : job) : exec_outcome =
  let rq = job.j_req in
  match
    Fault.tick Fault.site_worker;
    Fault.tick (Fault.site_job rq.rq_id);
    build_input rq
  with
  | exception e ->
    Exec_failed
      { reason = Printexc.to_string e; severity = Fault.classify e;
        breaker_counts = true }
  | Error reason ->
    Exec_failed { reason; severity = Fault.Permanent; breaker_counts = true }
  | Ok input ->
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
    (* a memory-pressure run answers Degraded even when complete, so it
       neither consults nor feeds the result tier *)
    let cached =
      if pressure > 0 then None
      else
        Option.bind session (fun s ->
          Cache.Incr.lookup_result s
            ~key:
              (Cache.Incr.result_key ~rules:Rules.default_rules ~config
                 input))
    in
    match cached with
    | Some cr ->
      Exec_ok
        { st = Completed; why = ""; issues = cr.Cache.Incr.cr_issues;
          degradations = 0; verdict = None; mismatched = None }
    | None ->
      let options =
        { Supervisor.default_options with
          deadline; scale;
          cache =
            (match session with
             | Some s -> Cache.Incr.hooks s
             | None -> Cache_iface.none) }
      in
      match Supervisor.run ~options ~config input with
      | exception e ->
        Exec_failed
          { reason = Printexc.to_string e; severity = Fault.classify e;
            breaker_counts = true }
      | outcome ->
        Option.iter
          (fun s ->
             if pressure > 0 then Cache.Incr.commit s
             else
               Cache.Incr.finish s ~rules:Rules.default_rules ~config input
                 outcome)
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

let draining t = Atomic.get t.drain_started

(** Block until every worker (and the signal watcher) has exited — i.e.
    every admitted job has reached its terminal state. Idempotent. *)
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
    flag; a watcher domain turns the flag into the drain protocol from a
    safe context. Transports also poll {!signal_pending} so a blocked
    read never delays the drain. *)
let install_signals t =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set t.sig_drain true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set t.sig_dump true));
  let watcher () =
    let rec loop () =
      if Atomic.get t.sig_drain then request_drain t
      else if not (Atomic.get t.drain_started) then begin
        Io.sleepf 0.02;
        loop ()
      end
    in
    loop ()
  in
  t.domains <- Domain.spawn watcher :: t.domains

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

(* ------------------------------------------------------------------ *)
(* Admin channel                                                      *)
(* ------------------------------------------------------------------ *)

(** One admin command line → one reply. Commands:
    - ["health"]: the live health snapshot as one JSON line;
    - ["metrics"]: the telemetry registry as Prometheus text exposition,
      terminated by a ["# EOF"] line;
    - ["metrics.json"]: the same registry as one JSON line;
    - ["dump"]: write the flight-recorder ring to the configured dump
      path and answer with a one-line receipt.
    Unknown commands get a one-line JSON error, never silence. *)
let admin_reply t line =
  match String.trim line with
  | "health" -> health_json (health t)
  | "metrics" -> Obs.Export.prometheus ()
  | "metrics.json" -> Obs.Export.json ()
  | "dump" ->
    (match flight_dump t ~cause:"admin" with
     | Some path ->
       Json.to_string
         (Json.Obj
            [ ("event", Json.Str "dump"); ("path", Json.Str path) ])
     | None ->
       Json.to_string
         (Json.Obj
            [ ("event", Json.Str "error");
              ("error", Json.Str "flight_dump_disabled") ]))
  | other ->
    Json.to_string
      (Json.Obj
         [ ("event", Json.Str "error");
           ("error", Json.Str "unknown_command");
           ("command", Json.Str other) ])

(* ------------------------------------------------------------------ *)
(* Transports                                                         *)
(* ------------------------------------------------------------------ *)

(* Submissions arrive on the transport domain; responses are written by
   worker domains. One lock serializes the NDJSON output stream. A peer
   that vanishes mid-response becomes a per-connection diagnostic, never
   a crash: SIGPIPE is ignored on every transport and the EPIPE shows up
   here exactly once. *)
let make_writer t ~peer fd =
  Io.make_writer fd
    ~on_error:(fun e ->
      record_diag t
        (Diagnostics.Client_disconnected
           { peer; error = Unix.error_message e }))

let handle_line t ~write line =
  let line = String.trim line in
  if line <> "" then begin
    match
      match Json.parse line with
      | Error e -> Error ("bad_json: " ^ e)
      | Ok j -> request_of_json j
    with
    | Error reason ->
      (* even an unparsable request gets a terminal answer *)
      let id =
        match Json.parse line with
        | Ok j ->
          (match Json.str_member "id" j with
           | Some id -> Json.Str id
           | None -> Json.Null)
        | Error _ -> Json.Null
      in
      write
        (Json.to_string
           (Json.Obj
              [ ("id", id);
                ("status", Json.Str "rejected");
                ("reason", Json.Str reason) ]))
    | Ok rq -> submit t rq ~respond:(fun r -> write (response_json r))
  end

(** Serve newline-delimited JSON over stdin/stdout until EOF or a drain
    signal; returns the final health snapshot (also written as the last
    output line). [admin] opens the admin socket next to the stream. *)
let run_stdio ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?admin t =
  Io.ignore_sigpipe ();
  install_signals t;
  let adm = Option.map Admin.create admin in
  let admin_fds () =
    match adm with Some a -> Admin.fds a | None -> []
  in
  let write = make_writer t ~peer:"stdout" stdout in
  let reader = Io.line_reader stdin in
  let rec pump () =
    if signal_pending t || draining t then ()
    else begin
      signal_dump_pending t;
      match Io.read_line_nonblock reader with
      | `Line l -> handle_line t ~write l; pump ()
      | `Eof -> ()
      | `Pending ->
        let ready, _, _ = Io.select (stdin :: admin_fds ()) [] [] 0.2 in
        (match adm with
         | Some a -> Admin.step a ~reply:(admin_reply t) ready
         | None -> ());
        pump ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Admin.close adm)
    (fun () ->
      pump ();
      request_drain t;
      await_drained t;
      let h = health t in
      write (health_json h);
      h)

(** Serve over a Unix domain socket, multiplexing any number of clients
    with [select]; each client gets its jobs' responses on its own
    connection. Returns the final health snapshot at drain. *)
let run_socket ?admin t path =
  (* a stale socket file from an unclean shutdown is probed and unlinked;
     a live server on the path is never stolen from *)
  let listen_fd =
    match Io.bind_unix_socket path with
    | Ok fd -> fd
    | Error `Live ->
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
  in
  Unix.listen listen_fd 16;
  Io.ignore_sigpipe ();
  install_signals t;
  let adm = Option.map Admin.create admin in
  let admin_fds () =
    match adm with Some a -> Admin.fds a | None -> []
  in
  let clients = ref [] in        (* (fd, reader, writer) *)
  let close_client (fd, _, _) =
    clients := List.filter (fun (f, _, _) -> f <> fd) !clients;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec pump () =
    if signal_pending t || draining t then ()
    else begin
      signal_dump_pending t;
      let fds =
        (listen_fd :: List.map (fun (fd, _, _) -> fd) !clients)
        @ admin_fds ()
      in
      let ready, _, _ = Io.select fds [] [] 0.2 in
      (match adm with
       | Some a -> Admin.step a ~reply:(admin_reply t) ready
       | None -> ());
      List.iter
        (fun fd ->
           if fd = listen_fd then begin
             let cfd, _ = Io.accept listen_fd in
             let peer =
               Printf.sprintf "client-%d" (List.length !clients)
             in
             clients :=
               (cfd, Io.line_reader cfd, make_writer t ~peer cfd)
               :: !clients
           end
           else
             match List.find_opt (fun (f, _, _) -> f = fd) !clients with
             | None -> ()
             | Some ((_, reader, write) as client) ->
               let rec drain_lines () =
                 match Io.read_line_nonblock reader with
                 | `Line l -> handle_line t ~write l; drain_lines ()
                 | `Eof -> close_client client
                 | `Pending -> ()
               in
               drain_lines ())
        ready;
      pump ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Admin.close adm;
      List.iter (fun (fd, _, _) -> try Unix.close fd with _ -> ())
        !clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
       pump ();
       request_drain t;
       await_drained t;
       let h = health t in
       let line = health_json h in
       List.iter (fun (_, _, write) -> write line) !clients;
       h)
