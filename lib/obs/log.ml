(* Leveled structured event log: NDJSON lines with monotonic sequence
   numbers, wall-clock timestamps, and sticky per-process context fields.
   The serving layer routes diagnostics and telemetry instants through
   here; cluster workers replace the sink with a pipe forwarder so the
   coordinator owns the single merged stream.

   Fast path: when no sink is installed, [log]/[emit_instant] cost one
   atomic load and return. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* [active_flag] mirrors "sink is installed" so the disabled path never
   touches the mutex-guarded state. *)
let active_flag = Atomic.make false
let min_rank = Atomic.make (level_rank Info)
let seq = Atomic.make 0
let lock = Mutex.create ()
let sink : (string -> unit) option ref = ref None
let sink_fd : Unix.file_descr option ref = ref None
let context : (string * string) list ref = ref []

let set_level l = Atomic.set min_rank (level_rank l)
let active l = Atomic.get active_flag && level_rank l >= Atomic.get min_rank
let enabled () = Atomic.get active_flag

let set_context fields =
  Mutex.protect lock (fun () -> context := fields)

let close_fd () =
  match !sink_fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    sink_fd := None

let set_sink s =
  Mutex.protect lock (fun () ->
      close_fd ();
      sink := s;
      Atomic.set active_flag (s <> None))

(* Append-mode file sink; each NDJSON line is a single [write] so that
   concurrent processes sharing the fd (O_APPEND) do not interleave. *)
let open_file path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let write line =
    let b = Bytes.of_string (line ^ "\n") in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    (try go 0 with Unix.Unix_error _ -> ())
  in
  Mutex.protect lock (fun () ->
      close_fd ();
      sink := Some write;
      sink_fd := Some fd;
      Atomic.set active_flag true)

let close () =
  Mutex.protect lock (fun () ->
      close_fd ();
      sink := None;
      Atomic.set active_flag false)

let render ~level ~fields event =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\":%d,\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\""
       (Atomic.fetch_and_add seq 1)
       (Unix.gettimeofday ())
       (level_name level) (Json.escape event));
  let add (k, v) =
    (* A field may shadow nothing structural: seq/ts/level/event are
       reserved and skipped to keep lines parseable. *)
    match k with
    | "seq" | "ts" | "level" | "event" -> ()
    | _ ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
  in
  List.iter add !context;
  List.iter add fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Emit a pre-rendered NDJSON line verbatim (cluster log forwarding:
   workers render locally, the coordinator writes their lines as-is). *)
let raw line =
  if Atomic.get active_flag then
    Mutex.protect lock (fun () ->
        match !sink with None -> () | Some write -> write line)

let log ?(level = Info) ?(fields = []) event =
  if active level then
    Mutex.protect lock (fun () ->
        match !sink with
        | None -> ()
        | Some write -> write (render ~level ~fields event))

(* Telemetry instants funnel through here. Level is inferred from the
   event-name prefix: diagnostics are warnings, serving/cluster
   lifecycle is info, everything else is debug chatter. *)
let level_of_event name =
  if String.length name >= 5 && String.sub name 0 5 = "diag." then Warn
  else if
    (String.length name >= 6 && String.sub name 0 6 = "serve.")
    || (String.length name >= 8 && String.sub name 0 8 = "cluster.")
    || (String.length name >= 4 && String.sub name 0 4 = "obs.")
  then Info
  else Debug

let emit_instant name args =
  if Atomic.get active_flag then begin
    let level = level_of_event name in
    if level_rank level >= Atomic.get min_rank then
      Mutex.protect lock (fun () ->
          match !sink with
          | None -> ()
          | Some write -> write (render ~level ~fields:args name))
  end
