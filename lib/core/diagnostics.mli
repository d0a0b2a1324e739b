(** Structured degradation diagnostics for the resilient supervisor (§6):
    every precision-for-termination trade the pipeline makes is recorded as
    an event so partial results stay attributable. *)

type phase = Frontend | Pointer | Sdg | Taint | Triage | Serve

val phase_name : phase -> string

type degradation =
  | Deadline_expired of { phase : phase; elapsed : float }
  | Cancelled of { phase : phase }
  | Budget_exhausted of { phase : phase; what : string }
  | Rule_failed of { rule : string; error : string }
      (** the rule contributed no flows; the other rules still ran *)
  | Unit_skipped of { index : int; error : string }
      (** a compilation unit was dropped by the lenient frontend *)
  | Phase_fault of { phase : phase; error : string }
      (** an exception escaped a whole phase *)
  | Downgraded of {
      from_alg : Config.algorithm;
      to_alg : Config.algorithm;
      to_scale : float;
      reason : string;
    }  (** the supervisor retried one rung down the degradation ladder *)
  | Job_retried of {
      job : string;
      attempt : int;
      delay : float;
      reason : string;
    }  (** the service re-enqueued a job after a transient failure *)
  | Job_shed of { job : string; priority : int }
      (** a queued low-priority job was evicted under admission pressure *)
  | Breaker_transition of { key : string; state : string }
      (** a per-app circuit breaker changed state *)
  | Resource_pressure of { pressure : int; heap_mb : int }
      (** the memory watchdog raised (or lowered) its pressure level *)
  | Ir_violation of { meth : string; where : string; message : string }
      (** [--verify-ir]: the loaded program failed an IR well-formedness
          check *)
  | Worker_spawned of { worker : int; pid : int }
      (** the cluster coordinator forked a worker process *)
  | Worker_exited of {
      worker : int;
      pid : int;
      reason : string;
      in_flight : int;
    }  (** a worker process died (or drained); [in_flight] jobs were on it *)
  | Worker_respawned of {
      worker : int;
      pid : int;
      crashes : int;
      backoff : float;
    }  (** a crashed worker slot was refilled after its respawn backoff *)
  | Job_rerouted of {
      job : string;
      from_worker : int;
      crashes : int;
      delay : float;
    }  (** an in-flight job survived a worker crash and goes to a peer *)
  | Client_disconnected of { peer : string; error : string }
      (** a transport client vanished mid-response ([EPIPE]); responses to
          it are dropped, the jobs stay terminal on the server side *)
  | Cache_corrupt of { app : string; reason : string }
      (** a persisted cache store failed validation (torn write, bit
          flip, version bump); all its entries were discarded and the
          run proceeds cold — never a crash, never a stale answer *)
  | Triage_fallback of { reason : string; findings : int }
      (** rung zero: every slicing preset was exhausted, so the answer
          is the type-qualifier triage verdict — sink findings without
          flow paths (reported as [TYPE_ONLY]) *)

val pp_degradation : Format.formatter -> degradation -> unit

(** Stable machine-readable tag per constructor (for JSON output). *)
val kind_name : degradation -> string

(** The one way an event leaves the process: the telemetry instant
    [diag.<kind>], and with it one log line ({!Obs.Log}). Its fields are
    [kind], [detail] (the {!pp_degradation} text) and the constructor's
    own fields under their record names ([job], [attempt], [delay],
    [reason], [key], [state], [worker], [pid], ...); a float field
    prints as {!Obs.Json} prints a number, so it reads back exactly. *)
val emit : degradation -> unit

(** A run's event log, in arrival order: what its report carries. *)
type t

val create : unit -> t

(** {!emit} the event, then append it. *)
val record : t -> degradation -> unit

val events : t -> degradation list
val count : t -> int
