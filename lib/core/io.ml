(** EINTR-safe wrappers for the Unix syscalls the pipeline lives on.

    The serving layer installs SIGINT/SIGTERM handlers for graceful
    drain, so every blocking syscall in the process can be interrupted
    and fail with [EINTR] at any moment. A signal must trigger the drain
    protocol, never surface as a spurious job, transport or cache
    failure — so all reads, writes, sleeps and accepts go through
    {!retry_eintr}. This module lives in [core] so that source reads,
    the persistent cache store and the transports all share one I/O
    path. *)

let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(** A client that disconnects mid-response must surface as [EPIPE] on our
    write, never as a process-killing signal. Idempotent; every serve /
    cluster entry point calls it (workers too — fork does not inherit the
    disposition set in an execed parent). *)
let ignore_sigpipe () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let read fd buf pos len =
  retry_eintr (fun () -> Unix.read fd buf pos len)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + retry_eintr (fun () -> Unix.write fd b !off (n - !off))
  done

(** Mutex-serialized newline-appending writer over [fd], shared by every
    transport (service stdio/socket, cluster coordinator, workers). A
    broken peer ([EPIPE] with SIGPIPE ignored, or a reset) marks the
    writer dead and reports the error through [on_error] exactly once;
    later writes are dropped silently — the peer is gone, the jobs whose
    responses we were carrying are already terminal on our side. *)
let make_writer ?(on_error = fun (_ : Unix.error) -> ()) fd =
  let lock = Mutex.create () in
  let dead = ref false in
  fun line ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
         if not !dead then
           try write_all fd (line ^ "\n")
           with
           | Unix.Unix_error
               ((EPIPE | ECONNRESET | ESHUTDOWN | EBADF) as e, _, _) ->
             dead := true;
             on_error e)

(** Bind a Unix-domain listening socket at [path], coping with the
    leftover socket file of an uncleanly killed predecessor: if the path
    exists we probe it with a connect — a refused connection proves the
    file is stale (no listener behind it), so it is unlinked and the bind
    retried; a successful connect proves a live server still owns the
    path and the caller must not steal it ([Error `Live]). *)
let bind_unix_socket path =
  let try_bind () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match e with
       | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> None
       | e -> raise e)
  in
  match try_bind () with
  | Some fd -> Ok fd
  | None ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match
            retry_eintr (fun () -> Unix.connect probe (Unix.ADDR_UNIX path))
          with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then Error `Live
    else begin
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      match try_bind () with
      | Some fd -> Ok fd
      | None -> Error `Live (* lost the race to another server *)
    end

(** [sleepf s] sleeps at least [s] seconds of wall clock, resuming after
    every interrupting signal with the remaining time. *)
let sleepf seconds =
  let until = Unix.gettimeofday () +. seconds in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    if left > 0.0 then begin
      (try Unix.sleepf left
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  if seconds > 0.0 then go ()

let accept fd = retry_eintr (fun () -> Unix.accept fd)

(** [select] with EINTR retry; the timeout is not re-armed on retry, which
    only makes polling loops poll slightly more often after a signal. *)
let select r w e t = retry_eintr (fun () -> Unix.select r w e t)

(** Whole-file read through Unix, EINTR-safe (the CLI's [read_file]). *)
let read_file path =
  let fd = retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDONLY ] 0) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 65536 in
       let rec go () =
         let n = read fd chunk 0 (Bytes.length chunk) in
         if n > 0 then begin
           Buffer.add_subbytes buf chunk 0 n;
           go ()
         end
       in
       go ();
       Buffer.contents buf)

(** Atomic whole-file write: the bytes land in a temporary sibling that
    is renamed over [path], so a reader never observes a half-written
    file and a crash mid-write leaves the previous version intact. The
    cache store depends on this to keep torn writes at frame, not file,
    granularity. *)
let write_file path data =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.%d.tmp" (Filename.basename path)
         (Unix.getpid ()))
  in
  let fd =
    retry_eintr (fun () ->
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  (match write_all fd data with
   | () -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | exception e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  retry_eintr (fun () -> Unix.rename tmp path)

(** Buffered newline-delimited reader over a file descriptor. *)
type line_reader = {
  lr_fd : Unix.file_descr;
  lr_buf : Buffer.t;
  lr_chunk : bytes;
  mutable lr_eof : bool;
}

let line_reader fd =
  { lr_fd = fd; lr_buf = Buffer.create 1024;
    lr_chunk = Bytes.create 8192; lr_eof = false }

let take_line r =
  let s = Buffer.contents r.lr_buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear r.lr_buf;
    Buffer.add_string r.lr_buf
      (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

(** [read_line r] returns the next complete line (without the newline),
    blocking as needed; [None] at end of stream. A trailing unterminated
    line before EOF is returned as a line. *)
let rec read_line r =
  match take_line r with
  | Some l -> Some l
  | None ->
    if r.lr_eof then begin
      if Buffer.length r.lr_buf = 0 then None
      else begin
        let s = Buffer.contents r.lr_buf in
        Buffer.clear r.lr_buf;
        Some s
      end
    end
    else begin
      let n = read r.lr_fd r.lr_chunk 0 (Bytes.length r.lr_chunk) in
      if n = 0 then r.lr_eof <- true
      else Buffer.add_subbytes r.lr_buf r.lr_chunk 0 n;
      read_line r
    end

(** [read_line_nonblock r] drains whatever is already buffered or readable
    without blocking: [`Line l], [`Eof], or [`Pending] when no complete
    line is available yet. Used by the select-driven transports so the
    drain flag stays responsive. *)
let rec read_line_nonblock r =
  match take_line r with
  | Some l -> `Line l
  | None ->
    if r.lr_eof then
      (if Buffer.length r.lr_buf = 0 then `Eof
       else begin
         let s = Buffer.contents r.lr_buf in
         Buffer.clear r.lr_buf;
         `Line s
       end)
    else begin
      match select [ r.lr_fd ] [] [] 0.0 with
      | [], _, _ -> `Pending
      | _ ->
        let n = read r.lr_fd r.lr_chunk 0 (Bytes.length r.lr_chunk) in
        if n = 0 then r.lr_eof <- true
        else Buffer.add_subbytes r.lr_buf r.lr_chunk 0 n;
        read_line_nonblock r
    end
