(* Structured event log: NDJSON lines with monotonic sequence numbers,
   wall-clock timestamps, and sticky per-process context fields. Every
   line is a telemetry instant ([emit_instant]) or a line a cluster
   worker rendered and forwarded ([raw]); the coordinator owns the one
   merged stream.

   Fast path: when no sink is installed, [emit_instant] and [raw] cost
   one atomic load and return. *)

(* [active_flag] mirrors "sink is installed" so the disabled path never
   touches the mutex-guarded state. *)
let active_flag = Atomic.make false
let seq = Atomic.make 0
let lock = Mutex.create ()
let sink : (string -> unit) option ref = ref None
let sink_fd : Unix.file_descr option ref = ref None
let context : (string * string) list ref = ref []

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

(* Called under [lock], so [seq] orders lines as the sink receives them. *)
let render ~level ~fields event =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"seq\":%d,\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\""
       (Atomic.fetch_and_add seq 1)
       (Unix.gettimeofday ())
       level (Json.escape event));
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

let write line =
  Mutex.protect lock (fun () ->
      match !sink with None -> () | Some out -> out (line ()))

(* Emit a pre-rendered NDJSON line verbatim (cluster log forwarding:
   workers render locally, the coordinator writes their lines as-is). *)
let raw line = if Atomic.get active_flag then write (fun () -> line)

(* The level follows the event-name prefix: diagnostics are warnings,
   serving/cluster/recorder lifecycle is info, and everything else is
   debug chatter, below the minimum level (info): [None], not written. *)
let level_of_event name =
  let has prefix = String.starts_with ~prefix name in
  if has "diag." then Some "warn"
  else if has "serve." || has "cluster." || has "obs." then Some "info"
  else None

let emit_instant name args =
  if Atomic.get active_flag then
    match level_of_event name with
    | None -> ()
    | Some level -> write (fun () -> render ~level ~fields:args name)
