(** Structured event log (NDJSON, one object per line).

    Each line carries a monotonic [seq] (atomic counter, so merged
    streams from several domains stay ordered per process), a wall-clock
    [ts], a [level], the [event] name, sticky context fields (see
    {!set_context}) and the event's own fields. A line has one source:
    {!Telemetry.instant} routes through {!emit_instant}, and every typed
    event ({!Core.Diagnostics.emit}) is an instant, so enabling a sink
    is enough to get a live event stream out of the serving stack. The
    other input, {!raw}, writes lines another process already rendered.

    {b Disabled fast path}: with no sink installed every emit function
    is a single atomic load and return, so leaving log calls in hot
    paths is free. All functions are safe to call from any domain; line
    writes are serialized under an internal mutex. In cluster mode a
    worker process replaces the file sink with a pipe forwarder
    ({!set_sink}) and the coordinator writes forwarded lines verbatim
    with {!raw}, yielding one merged stream. *)

val set_sink : (string -> unit) option -> unit
(** Install a custom sink receiving rendered NDJSON lines (without the
    trailing newline). [None] disables logging. Closes any file sink
    previously installed with {!open_file}. *)

val open_file : string -> unit
(** Open [path] in append mode and install it as the sink. Each line is
    emitted as a single [write] so concurrent processes appending to the
    same file do not interleave within a line. *)

val set_context : (string * string) list -> unit
(** Sticky fields added to every subsequent line, e.g.
    [[("proc", "worker-1")]] in a cluster worker. *)

val raw : string -> unit
(** Write a pre-rendered line verbatim (cluster log forwarding). *)

val emit_instant : string -> (string * string) list -> unit
(** Hook used by {!Telemetry.instant}. The level follows the event name:
    [diag.*] is warn, [serve.*]/[cluster.*]/[obs.*] is info, and any
    other name is debug, which is below the log's minimum level (info)
    and never written. The fields become the line's fields; [seq], [ts],
    [level] and [event] are reserved and skipped. No-op (one atomic
    load) when no sink is set. *)
