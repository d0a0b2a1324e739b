(** Per-key (per-application) circuit breakers: after [threshold]
    consecutive terminal failures a key's jobs fail fast instead of
    consuming worker slots; after [cooldown] seconds one probe is admitted
    (half-open) and its outcome closes or re-opens the breaker. Transient,
    to-be-retried failures and fast-fails do not count. The half-open
    probe slot is owned by the probing job's id, so the probe's own retry
    is re-admitted instead of fast-failed (a wedged half-open state would
    otherwise be unrecoverable). Cells that return to a clean closed state
    are evicted, bounding the table. The clock is injectable for
    deterministic tests. *)

type state =
  | Closed
  | Open of float                      (** opened at (clock value) *)
  | Half_open                          (** one probe in flight *)

val state_name : state -> string

type t

(** [on_transition ~key st] runs on every state change, under the
    breaker's lock; both engines emit it as a typed
    [Breaker_transition] event. *)
val create :
  ?now:(unit -> float) ->
  ?on_transition:(key:string -> state -> unit) ->
  threshold:int -> cooldown:float -> unit -> t

(** Admission decision for one execution keyed [key]: run it, run it as
    the half-open probe, or fail fast. [job] identifies the execution so
    a retried probe can reclaim the probe slot it already holds. *)
val acquire : ?job:string -> t -> string -> [ `Proceed | `Probe | `Fast_fail ]

val success : t -> string -> unit

(** Record a terminal failure; [true] when it opened the breaker. *)
val failure : t -> string -> bool

val state : t -> string -> state
val consecutive_failures : t -> string -> int
val open_keys : t -> string list
