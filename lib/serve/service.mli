(** The resilient analysis service: accepts a stream of analysis jobs and
    runs each under {!Core.Supervisor} on a pool of worker domains, with a
    bounded admission queue, transient-failure retries (exponential
    backoff, deterministic seeded jitter), per-application circuit
    breakers, a memory watchdog, and graceful drain.

    Invariant: every submitted job reaches {e exactly one} terminal state
    ([Completed | Degraded | Rejected | Failed]), delivered through its
    response callback. *)

(** {1 Protocol} *)

type request = {
  rq_id : string;
  rq_app : string option;          (** named benchmark application … *)
  rq_source : string option;       (** … or inline MJava unit source *)
  rq_descriptor : string;
  rq_algorithm : Core.Config.algorithm;
  rq_scale : float;
  rq_deadline : float option;      (** per-job wall-clock seconds *)
  rq_priority : int;               (** higher survives shedding longer *)
  rq_contexts : bool;
      (** run the sanitization-context judge and report the
          mismatched-sanitizer count on the response *)
}

val request :
  ?app:string ->
  ?source:string ->
  ?descriptor:string ->
  ?algorithm:Core.Config.algorithm ->
  ?scale:float ->
  ?deadline:float ->
  ?priority:int ->
  ?contexts:bool ->
  string ->
  request

type status = Completed | Degraded | Rejected | Failed

val status_name : status -> string

(** Stable key identifying the workload of a request: the application
    name, or a hash of the inline source. Used for the per-app circuit
    breakers, as the cluster's consistent-hash routing key, and as the
    name of the cache store the request opens, so a repeated inline
    source answers from the result tier under any request id. *)
val job_key : request -> string

type response = {
  rp_id : string;
  rp_status : status;
  rp_reason : string;
      (** "" | [queue_full] | [shed] | [draining] | [breaker_open] | … *)
  rp_verdict : string option;
      (** ["type_only"] when the answer came from the degradation
          ladder's triage floor (sink findings without flow paths);
          [None] for full-analysis answers *)
  rp_issues : int;
  rp_attempts : int;               (** executions, incl. the final one *)
  rp_degradations : int;
  rp_seconds : float;              (** submit-to-terminal wall clock *)
  rp_mismatched : int option;
      (** mismatched-sanitizer issue count when the request asked for
          the sanitization judge; [None] otherwise *)
}

(** {1 Configuration} *)

type config = {
  workers : int;                   (** worker domains executing jobs *)
  queue_cap : int;
  max_retries : int;
  retry_base : float;
  retry_factor : float;
  retry_max_delay : float;
  seed : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  mem_soft_limit_mb : int option;
  drain_grace : float option;      (** deadline cap for runs during drain *)
  cache_dir : string option;
      (** incremental-cache store directory ({!Cache.Incr}); [None]
          disables caching. A restarted service pointed at the same
          directory starts warm. *)
  flight_dump : string option;
      (** where the flight-recorder ring is written as a Chrome trace on
          SIGUSR1, an admin [dump] command, or a terminal job failure;
          [None] disables dumping *)
  now : unit -> float;
  sleep : float -> unit;
      (** the queue's poll wait for delayed retries; injectable for tests *)
}

val default_config : config

(** Pure function of [(seed, id, attempt)]: the backoff before re-running
    a job whose [attempt]-th execution failed transiently. Identical
    across runs and worker-pool sizes. *)
val backoff_delay : config -> id:string -> attempt:int -> float

(** {1 Lifecycle} *)

type t

val create : ?config:config -> unit -> t

(** Admission. The response callback fires exactly once, from an
    arbitrary domain, when the job reaches its terminal state — possibly
    before [submit] returns (immediate rejection). *)
val submit : t -> request -> respond:(response -> unit) -> unit

(** Stop admitting; admitted jobs keep running. Idempotent. *)
val request_drain : t -> unit

(** Block until every worker has exited — i.e. every admitted job has
    reached its terminal state. Implies {!request_drain}. Idempotent. *)
val await_drained : t -> unit

(** Install SIGINT/SIGTERM handlers that trigger the drain protocol, and
    a SIGUSR1 handler that requests a flight-recorder dump. Handlers only
    set atomic flags: {!submit} refuses work once the drain flag is set,
    and the serving loop ({!serve}) polls both flags and performs the
    drain and the dump. No domain is spawned. *)
val install_signals : t -> unit

val signal_pending : t -> bool

(** {1 Flight recorder} *)

(** Write the flight-recorder ring (recent spans/instants, bounded per
    domain — see {!Obs.Telemetry.arm_flight}) as a Chrome trace at
    [cfg.flight_dump]. Safe from any domain; serialized internally.
    Returns the path written, [None] when dumping is disabled. *)
val flight_dump : t -> cause:string -> string option

(** {1 Health} *)

type health = {
  h_uptime : float;
  h_queue_depth : int;
  h_pressure : int;
  h_rung : string;
      (** the degradation-ladder rung jobs currently run at, by name
          (["triage"] once pressure reaches the type-only floor) *)
  h_submitted : int;
  h_admitted : int;
  h_completed : int;
  h_degraded : int;
  h_failed : int;
  h_rejected_full : int;
  h_rejected_draining : int;
  h_rejected_malformed : int;
      (** lines answered [rejected] because they are not requests
          ({!handle_line}); never submitted *)
  h_shed : int;
  h_retries : int;
  h_breaker_fast_fails : int;
  h_breaker_opens : int;
  h_open_breakers : string list;
  h_events : int;
      (** service-level events emitted (retries, sheds, breaker
          transitions, pressure changes, corrupt cache stores, client
          disconnects); the service keeps a count, not the events *)
  h_latency_p50 : int;
      (** submit-to-terminal latency percentiles in ms, estimated from
          the log2 [serve.latency_ms] histogram (0 when telemetry off) *)
  h_latency_p95 : int;
  h_latency_p99 : int;
  h_cache_hits : int;
      (** incremental-cache tier counters ({!Cache.Incr}); in a cluster
          worker these are the worker's own post-fork counts *)
  h_cache_misses : int;
}

val health : t -> health

(** No admitted job was shed and none was turned away by a full queue. *)
val clean_drain : health -> bool

(** {1 Wire records}

    The one encoder and decoder of each record, for the NDJSON answers
    and, inside {!Proto}'s envelope, the cluster's frames. Wall-clock
    values ([seconds], [uptime]) are written rounded to the
    millisecond. *)

val request_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val response_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result

(** The health object: every field of {!health} ([h_latency_p50] as
    [latency_ms_p50], ...) plus ["event": "health"] and [clean_drain]. *)
val health_json : health -> Obs.Json.t
val health_of_json : Obs.Json.t -> (health, string) result

(** One request line → one answer through [answer]: an unparsable line
    or invalid request is answered [rejected] at once (with its id, or
    [null]) after one call of [malformed], the engine's count of such
    lines; a valid one is passed to the submit function and answered
    with its terminal response. The cluster reuses it over its own
    submit. *)
val handle_line :
  malformed:(unit -> unit) ->
  (request -> respond:(response -> unit) -> unit) ->
  string -> answer:(string -> unit) -> unit

(** {1 Serving} *)

(** Serve newline-delimited JSON requests on [jobs] (stdin/stdout, or a
    Unix socket with any number of clients) until end of stdin,
    SIGINT/SIGTERM, or {!request_drain} from another thread; then drain
    and return the health snapshot, also written as the last line to
    stdout or to every connected client. [admin] opens the admin socket
    at that path. Installs the signal handlers; see {!Transport.serve}
    for the EOF rule and for bind failures. *)
val serve : ?admin:string -> t -> Transport.jobs -> health

(** [serve ?admin t (Socket path)]; the benchmark's [serve_cached]
    workload drives the service through this name. *)
val run_socket : ?admin:string -> t -> string -> health
