(** Memory watchdog: samples [Gc.quick_stat] between jobs and maintains a
    pressure level; the service maps level [p] to the [p]-th rung of a
    job's degradation ladder so the process degrades before it OOMs.
    [soft_limit_mb = None] disables the watchdog (level stays 0). *)

type t

(** [heap] overrides the heap measurement (default: real [Gc.quick_stat])
    so level transitions can be driven deterministically in tests. *)
val create :
  ?max_level:int -> ?heap:(unit -> int) -> soft_limit_mb:int option ->
  unit -> t

(** Current pressure level (0 = none). *)
val level : t -> int

(** Major-heap size in MB, as the watchdog measures it. *)
val heap_mb : unit -> int

(** Take one sample, adjusting the level at most one step; a level change
    sets the [serve.pressure] gauge and is handed to [on_event] as a
    [Resource_pressure] diagnostic. *)
val sample : ?on_event:(Core.Diagnostics.degradation -> unit) -> t -> int

(** The configuration a job should run at under pressure level [p]: the
    [p]-th rung of its ladder, with the scale that rung was built at. *)
val degrade_config :
  scale:float -> Core.Config.t -> int -> float * Core.Config.t
