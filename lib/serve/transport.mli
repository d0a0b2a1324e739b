(** The one NDJSON transport both serve engines run on.

    It owns everything between a byte stream and an engine: the job
    stream (stdin/stdout as a single peer, or a Unix socket with any
    number of clients), the admin socket and its command set, the
    request-line reading, and one [select] loop over all of these plus
    the engine's own descriptors. An engine ({!Service}, {!Cluster})
    supplies only what differs between them as an {!engine} record.

    The admin socket answers one command per line: ["health"] (one JSON
    line), ["metrics"] (Prometheus text exposition ending in a
    ["# EOF"] line), ["metrics.json"] (one JSON line) and ["dump"]
    (write the flight recorder, answer a one-line receipt). Any other
    command gets a one-line JSON error; a blank line gets nothing.

    End of input ends a peer's requests, not its answers: a socket
    client's descriptor is closed, on the loop's own domain, once every
    non-empty line it sent has been answered. Until then the descriptor
    stays open, so an answer can never reach a later client that reuses
    its number. End of stdin ends serving; the drain then answers every
    admitted job before the health line. *)

type jobs =
  | Stdio of Unix.file_descr * Unix.file_descr
      (** requests read from the first descriptor, answers written to
          the second *)
  | Socket of string
      (** a Unix-domain socket at this path; each client gets the
          answers to its own lines on its own connection *)

(** [Stdio (Unix.stdin, Unix.stdout)]. *)
val stdio : jobs

type 'h engine = {
  handle : string -> answer:(string -> unit) -> unit;
      (** one non-empty, trimmed request line; [answer] is called
          exactly once, from any domain, with the line to write back *)
  record : Core.Diagnostics.degradation -> unit;
      (** the engine's event function, given a [Client_disconnected]: a
          job peer vanished before one of its answers could be written,
          and its later answers are dropped *)
  health : unit -> 'h;             (** the admin [health] snapshot *)
  health_json : 'h -> Obs.Json.t;
  metrics : unit -> (string * Obs.Telemetry.value) list;
      (** the registry behind admin [metrics] and [metrics.json] *)
  dump : unit -> string option;
      (** admin [dump]: the flight-recorder path written, or [None] when
          dumping is off *)
  stop : unit -> bool;             (** polled every turn: stop serving *)
  drain : unit -> 'h;
      (** stop admitting, finish every admitted job, and return the
          final snapshot *)
  fds : unit -> Unix.file_descr list;
      (** the engine's own descriptors, selected on with the peers *)
  step : Unix.file_descr list -> unit;
      (** runs after every select with all the descriptors that were
          ready, the engine's among them *)
  timeout : unit -> float;         (** the next select's wait, seconds *)
}

(** Bind the job socket (for [Socket]) and the [admin] socket, then
    serve until [stop ()] or the end of stdin; then [drain ()], write
    its health line to stdout or to every job client still connected,
    close everything, unlink both socket paths, and return the
    snapshot. A socket that cannot be bound raises
    [Unix_error (err, fn, path)] with the failing path as its argument
    ([EADDRINUSE] for a path held by a live server), after whatever
    this call had already bound is closed and unlinked. *)
val serve : ?admin:string -> 'h engine -> jobs -> 'h
