(** Leveled structured event log (NDJSON, one object per line).

    Each line carries a monotonic [seq] (atomic counter, so merged
    streams from several domains stay ordered per process), a wall-clock
    [ts], a [level], the [event] name, sticky context fields (see
    {!set_context}) and per-call fields. {!Core.Diagnostics.record} and
    {!Telemetry.instant} route through {!emit_instant}, so enabling a
    sink is enough to get a live event stream out of the serving stack.

    {b Disabled fast path}: with no sink installed every emit function
    is a single atomic load and return, so leaving log calls in hot
    paths is free. All functions are safe to call from any domain; line
    writes are serialized under an internal mutex. In cluster mode a
    worker process replaces the file sink with a pipe forwarder
    ({!set_sink}) and the coordinator writes forwarded lines verbatim
    with {!raw}, yielding one merged stream. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
val level_of_name : string -> level option

val set_level : level -> unit
(** Minimum level written to the sink; defaults to [Info]. *)

val set_sink : (string -> unit) option -> unit
(** Install a custom sink receiving rendered NDJSON lines (without the
    trailing newline). [None] disables logging. Closes any file sink
    previously installed with {!open_file}. *)

val open_file : string -> unit
(** Open [path] in append mode and install it as the sink. Each line is
    emitted as a single [write] so concurrent processes appending to the
    same file do not interleave within a line. *)

val close : unit -> unit
(** Close the current sink (if a file) and disable logging. *)

val set_context : (string * string) list -> unit
(** Sticky fields added to every subsequent line, e.g.
    [[("proc", "worker-1")]] in a cluster worker. *)

val enabled : unit -> bool
val active : level -> bool
(** [active l] is true when a sink is installed and [l] passes the
    level filter — use to skip expensive field construction. *)

val log : ?level:level -> ?fields:(string * string) list -> string -> unit
(** [log ~level ~fields event] renders and writes one NDJSON line.
    Default level is [Info]. Fields named [seq]/[ts]/[level]/[event]
    are reserved and skipped. *)

val raw : string -> unit
(** Write a pre-rendered line verbatim (cluster log forwarding). *)

val emit_instant : string -> (string * string) list -> unit
(** Hook used by {!Telemetry.instant}: level is inferred from the event
    name ([diag.*] → warn; [serve.*]/[cluster.*]/[obs.*] → info;
    otherwise debug). No-op (one atomic load) when no sink is set. *)

val level_of_event : string -> level
