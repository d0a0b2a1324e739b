(** Structured degradation diagnostics for the resilient supervisor.

    TAJ's defining engineering property is that it never "just dies" on a
    large application: it trades precision for termination (§6). Every time
    the pipeline gives something up — a deadline interrupting a phase, a
    budget tripping, a rule failing, a downgrade to a stricter preset — the
    event is recorded here instead of being collapsed into a boolean or an
    exception, so partial results stay attributable. *)

type phase = Frontend | Pointer | Sdg | Taint | Triage | Serve

let phase_name = function
  | Frontend -> "frontend"
  | Pointer -> "pointer"
  | Sdg -> "sdg"
  | Taint -> "taint"
  | Triage -> "triage"
  | Serve -> "serve"

type degradation =
  | Deadline_expired of { phase : phase; elapsed : float }
  | Cancelled of { phase : phase }
  | Budget_exhausted of { phase : phase; what : string }
  | Rule_failed of { rule : string; error : string }
  | Unit_skipped of { index : int; error : string }
  | Phase_fault of { phase : phase; error : string }
  | Downgraded of {
      from_alg : Config.algorithm;
      to_alg : Config.algorithm;
      to_scale : float;
      reason : string;
    }
  | Job_retried of {
      job : string;
      attempt : int;
      delay : float;
      reason : string;
    }
  | Job_shed of { job : string; priority : int }
  | Breaker_transition of { key : string; state : string }
  | Resource_pressure of { pressure : int; heap_mb : int }
  | Ir_violation of { meth : string; where : string; message : string }
  | Worker_spawned of { worker : int; pid : int }
  | Worker_exited of {
      worker : int;
      pid : int;
      reason : string;
      in_flight : int;
    }
  | Worker_respawned of {
      worker : int;
      pid : int;
      crashes : int;
      backoff : float;
    }
  | Job_rerouted of {
      job : string;
      from_worker : int;
      crashes : int;
      delay : float;
    }
  | Client_disconnected of { peer : string; error : string }
  | Cache_corrupt of { app : string; reason : string }
  | Triage_fallback of { reason : string; findings : int }

let pp_degradation ppf = function
  | Deadline_expired { phase; elapsed } ->
    Fmt.pf ppf "deadline expired during %s phase after %.3fs"
      (phase_name phase) elapsed
  | Cancelled { phase } ->
    Fmt.pf ppf "cancelled during %s phase" (phase_name phase)
  | Budget_exhausted { phase; what } ->
    Fmt.pf ppf "%s budget exhausted during %s phase" what (phase_name phase)
  | Rule_failed { rule; error } ->
    Fmt.pf ppf "rule %s failed (%s); its flows are missing" rule error
  | Unit_skipped { index; error } ->
    Fmt.pf ppf "compilation unit %d skipped (%s)" index error
  | Phase_fault { phase; error } ->
    Fmt.pf ppf "fault during %s phase: %s" (phase_name phase) error
  | Downgraded { from_alg; to_alg; to_scale; reason } ->
    Fmt.pf ppf "downgraded %s -> %s (scale %.3f): %s"
      (Config.algorithm_name from_alg) (Config.algorithm_name to_alg)
      to_scale reason
  | Job_retried { job; attempt; delay; reason } ->
    Fmt.pf ppf "job %s retried (attempt %d, backoff %.3fs): %s" job attempt
      delay reason
  | Job_shed { job; priority } ->
    Fmt.pf ppf "job %s (priority %d) shed under admission pressure" job
      priority
  | Breaker_transition { key; state } ->
    Fmt.pf ppf "circuit breaker for %s is now %s" key state
  | Resource_pressure { pressure; heap_mb } ->
    Fmt.pf ppf "memory pressure level %d (heap %d MB)" pressure heap_mb
  | Ir_violation { meth; where; message } ->
    Fmt.pf ppf "IR verification failed in %s at %s: %s" meth where message
  | Worker_spawned { worker; pid } ->
    Fmt.pf ppf "worker %d spawned (pid %d)" worker pid
  | Worker_exited { worker; pid; reason; in_flight } ->
    Fmt.pf ppf "worker %d (pid %d) exited: %s (%d job(s) in flight)" worker
      pid reason in_flight
  | Worker_respawned { worker; pid; crashes; backoff } ->
    Fmt.pf ppf "worker %d respawned (pid %d) after %d crash(es), backoff %.3fs"
      worker pid crashes backoff
  | Job_rerouted { job; from_worker; crashes; delay } ->
    Fmt.pf ppf "job %s rerouted off crashed worker %d (crash %d, delay %.3fs)"
      job from_worker crashes delay
  | Client_disconnected { peer; error } ->
    Fmt.pf ppf "client %s disconnected mid-response (%s)" peer error
  | Cache_corrupt { app; reason } ->
    Fmt.pf ppf "cache store for %s unreadable (%s); falling back to cold"
      app reason
  | Triage_fallback { reason; findings } ->
    Fmt.pf ppf
      "degraded to type-only triage (%s): %d finding(s), no flow paths"
      reason findings

(* A stable machine-readable tag per constructor, for the CLI's JSON
   diagnostics block and the telemetry instant-event names. *)
let kind_name = function
  | Deadline_expired _ -> "deadline-expired"
  | Cancelled _ -> "cancelled"
  | Budget_exhausted _ -> "budget-exhausted"
  | Rule_failed _ -> "rule-failed"
  | Unit_skipped _ -> "unit-skipped"
  | Phase_fault _ -> "phase-fault"
  | Downgraded _ -> "downgraded"
  | Job_retried _ -> "job-retried"
  | Job_shed _ -> "job-shed"
  | Breaker_transition _ -> "breaker-transition"
  | Resource_pressure _ -> "resource-pressure"
  | Ir_violation _ -> "ir-violation"
  | Worker_spawned _ -> "worker-spawned"
  | Worker_exited _ -> "worker-exited"
  | Worker_respawned _ -> "worker-respawned"
  | Job_rerouted _ -> "job-rerouted"
  | Client_disconnected _ -> "client-disconnected"
  | Cache_corrupt _ -> "cache-corrupt"
  | Triage_fallback _ -> "triage-fallback"

(* The constructor's fields under their record names. A float prints as
   a JSON number does, the shortest text that reads back to it. *)
let fields d =
  let int = string_of_int and num x = Obs.Json.to_string (Obs.Json.Num x) in
  let phase p = ("phase", phase_name p) in
  match d with
  | Deadline_expired { phase = p; elapsed } ->
    [ phase p; ("elapsed", num elapsed) ]
  | Cancelled { phase = p } -> [ phase p ]
  | Budget_exhausted { phase = p; what } -> [ phase p; ("what", what) ]
  | Rule_failed { rule; error } -> [ ("rule", rule); ("error", error) ]
  | Unit_skipped { index; error } -> [ ("index", int index); ("error", error) ]
  | Phase_fault { phase = p; error } -> [ phase p; ("error", error) ]
  | Downgraded { from_alg; to_alg; to_scale; reason } ->
    [ ("from_alg", Config.algorithm_name from_alg);
      ("to_alg", Config.algorithm_name to_alg);
      ("to_scale", num to_scale); ("reason", reason) ]
  | Job_retried { job; attempt; delay; reason } ->
    [ ("job", job); ("attempt", int attempt); ("delay", num delay);
      ("reason", reason) ]
  | Job_shed { job; priority } -> [ ("job", job); ("priority", int priority) ]
  | Breaker_transition { key; state } -> [ ("key", key); ("state", state) ]
  | Resource_pressure { pressure; heap_mb } ->
    [ ("pressure", int pressure); ("heap_mb", int heap_mb) ]
  | Ir_violation { meth; where; message } ->
    [ ("meth", meth); ("where", where); ("message", message) ]
  | Worker_spawned { worker; pid } -> [ ("worker", int worker); ("pid", int pid) ]
  | Worker_exited { worker; pid; reason; in_flight } ->
    [ ("worker", int worker); ("pid", int pid); ("reason", reason);
      ("in_flight", int in_flight) ]
  | Worker_respawned { worker; pid; crashes; backoff } ->
    [ ("worker", int worker); ("pid", int pid); ("crashes", int crashes);
      ("backoff", num backoff) ]
  | Job_rerouted { job; from_worker; crashes; delay } ->
    [ ("job", job); ("from_worker", int from_worker);
      ("crashes", int crashes); ("delay", num delay) ]
  | Client_disconnected { peer; error } -> [ ("peer", peer); ("error", error) ]
  | Cache_corrupt { app; reason } -> [ ("app", app); ("reason", reason) ]
  | Triage_fallback { reason; findings } ->
    [ ("reason", reason); ("findings", int findings) ]

(* Every degradation is an instant on the telemetry trace, so budget
   trips, ladder steps and rule faults line up with the phase spans they
   interrupted; the instant is also the event's one log line. *)
let emit d =
  let kind = kind_name d in
  Obs.Telemetry.instant ("diag." ^ kind)
    ~args:
      (("kind", kind) :: ("detail", Fmt.str "%a" pp_degradation d) :: fields d)

type t = { mutable rev_events : degradation list }

let create () = { rev_events = [] }

let record t d =
  emit d;
  t.rev_events <- d :: t.rev_events

let events t = List.rev t.rev_events
let count t = List.length t.rev_events
