(** Sharded multi-process analysis cluster: a single-threaded coordinator
    forks [size] worker processes (each a full {!Service} engine), routes
    jobs to them by consistent hash of {!Service.job_key}, and supervises
    them — a worker lost to a segfault or [kill -9] has its in-flight
    jobs rerouted to peers (or answered [failed:worker_crashed] past the
    retry budget) and is respawned under exponential backoff behind a
    per-worker circuit breaker. Every submitted job still reaches exactly
    one terminal response; drain aggregates per-worker health and
    telemetry into one cluster snapshot. *)

type config = {
  size : int;                      (** worker processes *)
  ring_replicas : int;             (** virtual ring nodes per worker *)
  crash_retries : int;             (** worker crashes one job survives *)
  respawn_base : float;            (** first respawn backoff, seconds *)
  respawn_factor : float;
  respawn_max : float;
  worker_breaker_threshold : int;  (** consecutive crashes to open *)
  worker_breaker_cooldown : float;
  worker_trace_prefix : string option;
      (** [Some p]: worker [i] writes its trace to [p.worker-<i>.json]
          at drain, merged by {!write_merged_trace} *)
  flight_dump : string option;
      (** [Some p]: the merged flight-recorder dump is written to [p] on
          worker crash, SIGUSR1, or an admin [dump] command. Worker [i]
          keeps a ring snapshot current at [p.worker-<i>.json] (rewritten
          before each result frame is sent, so any observed result is
          covered) and a SIGKILLed worker's recent events still
          reach the merge. [None] disables dumping. *)
  forward_logs : bool;
      (** workers send their {!Obs.Log} lines over the supervised pipe
          (pre-rendered, with per-worker context) so the coordinator's
          sink carries one merged stream *)
  announce : bool;
      (** print each coordinator event on stderr, as [cluster: ] and its
          {!Core.Diagnostics.pp_degradation} text *)
  service : Service.config;        (** per-worker engine configuration *)
}

val default_config : config

(** Pure per-slot respawn schedule (capped exponential in consecutive
    crashes). *)
val respawn_delay : config -> crashes:int -> float

type t

(** Fork the initial worker set. The calling process must not have live
    domains of its own (the coordinator never spawns any, keeping every
    later respawn fork safe too). *)
val create : ?config:config -> unit -> t

(** Preferred worker for a routing key (ring lookup only — ignores
    liveness and breakers). Deterministic; exposed for tests. *)
val route : t -> string -> int

(** Pids of currently-live workers, in slot order. *)
val worker_pids : t -> int list

(** Route and dispatch one job. The respond callback fires exactly once,
    always from the coordinator thread (during a {!pump}, {!submit} or
    drain call). *)
val submit : t -> Service.request -> respond:(Service.response -> unit) -> unit

(** Select on the worker pipes for at most [timeout] (less when a
    reroute or respawn falls due first), then run one supervision step,
    the one {!serve}'s loop runs after each of its selects: read worker
    frames, detect crashes ([waitpid] / closed pipe), deliver due
    reroutes, respawn due slots. For callers that drive {!submit}
    directly. *)
val pump : t -> timeout:float -> unit

(** No job in flight and no reroute parked. *)
val idle : t -> bool

(** Stop admitting, flush parked reroutes, send every live worker a drain
    frame. Idempotent. *)
val request_drain : t -> unit

(** Pump until every worker has drained (final health frame) or crashed,
    every job is terminal, and all children are reaped. *)
val await_drained : t -> unit

(** {1 Health} *)

type worker_health = {
  wh_index : int;
  wh_pid : int;
  wh_up : bool;
  wh_crashes : int;                (** consecutive, at snapshot time *)
  wh_spawns : int;
  wh_health : Service.health option;
      (** the final drain snapshot, or the most recent interim answer to
          an admin health request *)
}

type health = {
  ch_uptime : float;
  ch_size : int;
  ch_submitted : int;
  ch_completed : int;
  ch_degraded : int;
  ch_failed : int;
  ch_rejected : int;
      (** rejected answers, and lines that are not requests *)
  ch_shed : int;
  ch_rejected_full : int;
  ch_crashes : int;                (** worker processes lost *)
  ch_respawns : int;
  ch_rerouted : int;               (** jobs moved off a dead worker *)
  ch_crash_failed : int;           (** jobs failed past the crash budget *)
  ch_workers : worker_health list;
}

val health : t -> health

(** Same promise as {!Service.clean_drain}: nothing shed, nothing turned
    away by a full queue. Crash recovery does not make a drain unclean. *)
val clean_drain : health -> bool

(** The cluster's health object; each worker's block carries its
    snapshot as {!Service.health_json} writes it. *)
val health_json : health -> Obs.Json.t

(** Merge the coordinator's telemetry with the per-worker trace files
    into one Chrome trace (one pid lane per process). *)
val write_merged_trace : t -> string -> unit

(** {1 Admin channel} *)

(** Aggregated health: each live worker is asked for a fresh interim
    snapshot over its pipe (bounded by [timeout] seconds, default 1.0); a
    worker that dies or stalls mid-collect keeps its last known one. *)
val admin_health : ?timeout:float -> t -> health

(** Coordinator registry merged with a fresh telemetry snapshot from
    every live worker: counters and gauges sum, histograms merge
    bucket-wise (see {!Obs.Export.merge}). *)
val admin_metrics :
  ?timeout:float -> t -> (string * Obs.Telemetry.value) list

(** Write the merged flight-recorder dump (coordinator ring on pid 1,
    worker rings on pid index+2 — fresh [Dump] replies where possible,
    on-disk ring snapshots for dead workers) to [config.flight_dump].
    Returns the path written, [None] when dumping is disabled. *)
val flight_dump : t -> cause:string -> string option

(** {1 Serving} *)

(** Serve newline-delimited JSON jobs on [jobs] with the same wire
    protocol and EOF rule as {!Service.serve}, until end of stdin or
    SIGINT/SIGTERM; then drain, write the aggregated health line and
    return it. The signal handlers only set flags (no domain is
    involved, so respawn forks stay legal); SIGUSR1 asks for the merged
    flight dump. The transport's select loop also waits on the worker
    pipes: it wakes every 0.05 s, or earlier when a respawn or reroute
    falls due, and each request line is followed by a [pump ~timeout:0.0]
    so worker answers are read while a large batch streams in. [admin]
    opens the admin socket, whose answers aggregate the coordinator and
    every live worker. *)
val serve : ?admin:string -> t -> Transport.jobs -> health
