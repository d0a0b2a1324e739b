(** EINTR-safe Unix IO shared by the whole pipeline: with drain signal
    handlers installed, any blocking syscall may be interrupted; these
    wrappers make sure a signal reaches the drain protocol instead of
    surfacing as a spurious job, transport or cache failure. Source
    reads, the persistent cache store and the serving transports all go
    through this one path. *)

(** Retry [f] as long as it fails with [Unix_error (EINTR, _, _)]. *)
val retry_eintr : (unit -> 'a) -> 'a

(** Ignore SIGPIPE process-wide so a disconnected peer surfaces as
    [EPIPE] on the write instead of killing the process. Idempotent. *)
val ignore_sigpipe : unit -> unit

val read : Unix.file_descr -> bytes -> int -> int -> int
val write_all : Unix.file_descr -> string -> unit

(** Mutex-serialized newline-appending line writer. The first broken-pipe
    style failure ([EPIPE]/[ECONNRESET]/…) marks the writer dead and is
    reported through [on_error] once; subsequent writes are dropped. *)
val make_writer :
  ?on_error:(Unix.error -> unit) -> Unix.file_descr -> string -> unit

(** Bind a listening Unix-domain socket at [path]. A stale socket file
    (connect refused — its server died without unlinking) is removed and
    the bind retried; [Error `Live] when a running server still listens
    on the path, also one whose backlog is full: the probe never blocks.
    The returned descriptor is bound but not yet listening. *)
val bind_unix_socket :
  string -> (Unix.file_descr, [ `Live ]) result

(** Sleep at least this many wall-clock seconds, resuming after signals. *)
val sleepf : float -> unit

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr

val select :
  Unix.file_descr list -> Unix.file_descr list -> Unix.file_descr list ->
  float ->
  Unix.file_descr list * Unix.file_descr list * Unix.file_descr list

(** Whole-file read (the CLI's [read_file] goes through this). *)
val read_file : string -> string

(** Atomic whole-file write (temp sibling + rename), EINTR-safe. A
    crash mid-write leaves the previous file version intact, and writes
    of one path from two domains at once leave one whole version. *)
val write_file : string -> string -> unit

(** Buffered newline-delimited reading over a raw file descriptor. *)
type line_reader

val line_reader : Unix.file_descr -> line_reader

(** Next complete line without its newline, blocking; [None] at EOF. *)
val read_line : line_reader -> string option

(** Non-blocking variant: [`Line l] when a complete line is available,
    [`Eof] at end of stream, [`Pending] when more bytes are needed. *)
val read_line_nonblock : line_reader -> [ `Line of string | `Eof | `Pending ]
