(* The NDJSON transport of [taj serve] and [taj serve --cluster]: the job
   stream, the admin socket and the engine's descriptors in one select
   loop. See the interface for the EOF rule. *)

open Core
module Json = Obs.Json

type jobs =
  | Stdio of Unix.file_descr * Unix.file_descr
  | Socket of string

let stdio = Stdio (Unix.stdin, Unix.stdout)

type 'h engine = {
  handle : string -> answer:(string -> unit) -> unit;
  record : Diagnostics.degradation -> unit;
  health : unit -> 'h;
  health_json : 'h -> Json.t;
  metrics : unit -> (string * Obs.Telemetry.value) list;
  dump : unit -> string option;
  stop : unit -> bool;
  drain : unit -> 'h;
  fds : unit -> Unix.file_descr list;
  step : Unix.file_descr list -> unit;
  timeout : unit -> float;
}

(* ------------------------------------------------------------------ *)
(* Admin commands                                                     *)
(* ------------------------------------------------------------------ *)

let admin_reply e line =
  let error fields = Json.Obj (("event", Json.Str "error") :: fields) in
  match line with
  | "metrics" -> Obs.Export.prometheus_of (e.metrics ())
  | line ->
    Json.to_string
      (match line with
       | "health" -> e.health_json (e.health ())
       | "metrics.json" -> Obs.Export.json_of (e.metrics ())
       | "dump" ->
         (match e.dump () with
          | Some path ->
            Json.Obj [ ("event", Json.Str "dump"); ("path", Json.Str path) ]
          | None -> error [ ("error", Json.Str "flight_dump_disabled") ])
       | other ->
         error
           [ ("error", Json.Str "unknown_command");
             ("command", Json.Str other) ])

(* The writer appends one newline per reply; a multi-line reply
   (Prometheus) already ends in one, so chomp it to keep the stream free
   of blank separator lines. *)
let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* ------------------------------------------------------------------ *)
(* Peers and listeners                                                *)
(* ------------------------------------------------------------------ *)

type peer = {
  p_fd : Unix.file_descr;
  p_reader : Io.line_reader;
  p_write : string -> unit;        (* locked: answers come from any domain *)
  p_handle : string -> answer:(string -> unit) -> unit;
  p_unanswered : int Atomic.t;     (* non-empty lines read, not yet answered *)
  mutable p_eof : bool;
}

let peer fd ~write ~handle =
  { p_fd = fd; p_reader = Io.line_reader fd; p_write = write;
    p_handle = handle; p_unanswered = Atomic.make 0; p_eof = false }

(* Every complete line the peer has sent so far. A reset connection is
   an end of input like any other. *)
let rec read_peer p =
  match Io.read_line_nonblock p.p_reader with
  | `Line l ->
    let l = String.trim l in
    if l <> "" then begin
      Atomic.incr p.p_unanswered;
      p.p_handle l ~answer:(fun s ->
        p.p_write s;
        Atomic.decr p.p_unanswered)
    end;
    read_peer p
  | `Pending -> ()
  | `Eof -> p.p_eof <- true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    p.p_eof <- true

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One listening socket and its connected peers: the job socket and the
   admin socket differ only in how an accepted peer is made. *)
type listener = {
  l_fd : Unix.file_descr;
  l_path : string;
  l_peer : Unix.file_descr -> peer;
  mutable l_peers : peer list;
}

let close_listener l =
  List.iter (fun p -> close_fd p.p_fd) l.l_peers;
  l.l_peers <- [];
  close_fd l.l_fd;
  try Unix.unlink l.l_path with Unix.Unix_error _ -> ()

(* Every failure is raised with [path] as its argument, which
   [Unix.bind] leaves empty, and leaves nothing bound. *)
let listen path make_peer =
  let failed e fn = Unix.Unix_error (e, fn, path) in
  match Io.bind_unix_socket path with
  | Error `Live -> raise (failed Unix.EADDRINUSE "bind")
  | exception Unix.Unix_error (e, fn, _) -> raise (failed e fn)
  | Ok fd ->
    let l = { l_fd = fd; l_path = path; l_peer = make_peer; l_peers = [] } in
    (try Unix.listen fd 16
     with Unix.Unix_error (e, fn, _) ->
       close_listener l;
       raise (failed e fn));
    l

let accept l =
  let fd, _ = Io.accept l.l_fd in
  l.l_peers <- l.l_peer fd :: l.l_peers

(* The EOF rule: a peer at end of input is closed once its last answer
   is written, never before. *)
let close_answered l =
  l.l_peers <-
    List.filter
      (fun p ->
         if p.p_eof && Atomic.get p.p_unanswered = 0 then begin
           close_fd p.p_fd;
           false
         end
         else true)
      l.l_peers

(* ------------------------------------------------------------------ *)
(* The loop                                                           *)
(* ------------------------------------------------------------------ *)

let serve ?admin e jobs =
  Io.ignore_sigpipe ();
  let disconnected peer err =
    e.record
      (Diagnostics.Client_disconnected
         { peer; error = Unix.error_message err })
  in
  let clients = ref 0 in
  let job_peer fd =
    let name = Printf.sprintf "client-%d" !clients in
    incr clients;
    peer fd ~handle:e.handle
      ~write:(Io.make_writer fd ~on_error:(disconnected name))
  in
  (* an admin peer that vanishes mid-reply is routine (a scraper timed
     out): its writer swallows the error *)
  let admin_peer fd =
    peer fd ~write:(Io.make_writer fd)
      ~handle:(fun line ~answer -> answer (chomp (admin_reply e line)))
  in
  let input, job_socket =
    match jobs with
    | Stdio (input, output) ->
      let write = Io.make_writer output ~on_error:(disconnected "stdout") in
      (Some (peer input ~handle:e.handle ~write), None)
    | Socket path -> (None, Some (listen path job_peer))
  in
  let admin_socket =
    match Option.map (fun path -> listen path admin_peer) admin with
    | l -> l
    | exception ex ->
      Option.iter close_listener job_socket;
      raise ex
  in
  let listeners = Option.to_list job_socket @ Option.to_list admin_socket in
  let all_peers () =
    Option.to_list input @ List.concat_map (fun l -> l.l_peers) listeners
  in
  let rec loop () =
    let input_ended = match input with Some p -> p.p_eof | None -> false in
    if not (input_ended || e.stop ()) then begin
      let fds =
        List.map (fun l -> l.l_fd) listeners
        @ List.filter_map
            (fun p -> if p.p_eof then None else Some p.p_fd)
            (all_peers ())
        @ e.fds ()
      in
      let ready, _, _ = Io.select fds [] [] (e.timeout ()) in
      let peers = all_peers () in
      List.iter (fun l -> if List.mem l.l_fd ready then accept l) listeners;
      List.iter (fun p -> if List.mem p.p_fd ready then read_peer p) peers;
      e.step ready;
      List.iter close_answered listeners;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () -> List.iter close_listener listeners)
    (fun () ->
      loop ();
      let h = e.drain () in
      let line = Json.to_string (e.health_json h) in
      (match input, job_socket with
       | Some p, _ -> p.p_write line
       | None, Some l -> List.iter (fun p -> p.p_write line) l.l_peers
       | None, None -> ());
      h)
