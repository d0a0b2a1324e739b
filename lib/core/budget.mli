(** Wall-clock deadlines, step budgets and cancellation for one analysis
    attempt. Long-running loops poll {!exceeded}; the [gettimeofday] probe
    is amortized over polls, so the check is cheap enough for inner loops.
    Counters and flags are [Atomic]: the cancellation token may be set
    from another domain while the run polls, and a trip or cancellation
    latches for every poller. *)

type t

type verdict = Ok | Deadline | Cancelled | Steps

(** [create ?deadline ?max_steps ?cancel ()] starts the clock now.
    [deadline] is in seconds from now; [cancel] is a shared token that any
    domain/context may set to stop the run cooperatively. *)
val create :
  ?deadline:float -> ?max_steps:int -> ?cancel:bool Atomic.t -> unit -> t

(** A budget that never trips (but still measures elapsed time). *)
val unlimited : unit -> t

val cancel : t -> unit
val cancelled : t -> bool

(** Wall-clock seconds since [create]. *)
val elapsed : t -> float

(** Amortized poll: counts a step, occasionally probes the clock. Returns
    [true] once the budget is exhausted — and keeps returning [true]
    (the state latches). *)
val exceeded : t -> bool

(** Why the budget tripped (unamortized full check; also latches). *)
val status : t -> verdict

(** Has any poll or status check tripped the budget? *)
val tripped : t -> bool
