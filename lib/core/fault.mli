(** Test-only fault-injection registry. Tests arm faults at named pipeline
    sites; the pipeline calls {!tick} at those sites and the fault fires on
    the Nth tick. Production runs never arm anything, so ticks are a single
    atomic load. The registry is domain-safe: ticks may arrive from
    concurrent serve workers, and a fault fires in (and stays contained
    to) the domain whose tick triggered it. Global state: call {!reset}
    between test cases. *)

exception Injected of string
exception Injected_transient of string

type action =
  | Fail                             (** raise {!Injected} *)
  | Fail_transient                   (** raise {!Injected_transient} *)
  | Stall of float                   (** sleep this many seconds *)

(** Pipeline site names: before parsing each unit, at each pointer-solver
    poll, each SDG node scan, each tabulation step, each heap transition,
    and before each analysis-service job execution. *)

val site_parse : string
val site_andersen : string
val site_sdg : string
val site_tabulation : string
val site_heap : string
val site_worker : string

(** The cache store's read/load and write/flush paths. An injected fault
    on either degrades the affected store to cold — it must never crash
    a run or change its report. *)
val site_cache_read : string
val site_cache_write : string

(** The type-triage fixpoint (ticked once per method per sweep) and the
    pre-filter's keep queries. A fault on either must degrade the run to
    an unfiltered full analysis (one rung up), never fail the job. *)
val site_triage_infer : string
val site_triage_filter : string

(** ["job:<id>"] — a per-job service site, so chaos tests can target one
    job deterministically regardless of worker scheduling. *)
val site_job : string -> string

(** Retry taxonomy: [Transient] failures (interrupted syscalls, broken
    pipes to a crashed peer process, transient resource exhaustion, faults
    injected as transient) are worth a retry; [Permanent] ones (anything
    the deterministic analysis raises) are not. *)
type severity =
  | Transient
  | Permanent

val severity_name : severity -> string
val classify : exn -> severity

(** [arm site ~after] fires the fault on the [after]-th tick of [site].
    [once] (default true) disarms after firing; otherwise the counter
    restarts and the fault fires every [after] ticks. *)
val arm : ?once:bool -> ?action:action -> string -> after:int -> unit

val disarm : string -> unit
val reset : unit -> unit

(** How many times the fault at [site] has fired since it was armed. *)
val fired : string -> int

(** Called by the pipeline at each injection point. *)
val tick : string -> unit
