(* The admin Unix socket: a second, line-oriented listener every serve
   transport folds into its select loop. Clients send one command per
   line ("health", "metrics", "metrics.json", "dump") and get back a
   reply whose shape the command fixes — one JSON line, or a Prometheus
   exposition block ending in "# EOF". The reply function is supplied
   by the owner (Service answers locally; the cluster coordinator
   aggregates across workers), so this module only owns accept/read/
   write mechanics. *)

type client = {
  c_fd : Unix.file_descr;
  c_reader : Core.Io.line_reader;
  c_write : string -> unit;
}

type t = {
  a_listen : Unix.file_descr;
  a_path : string;
  mutable a_clients : client list;
}

let create path =
  let listen_fd =
    match Core.Io.bind_unix_socket path with
    | Ok fd -> fd
    | Error `Live ->
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
  in
  Unix.listen listen_fd 16;
  { a_listen = listen_fd; a_path = path; a_clients = [] }

let path t = t.a_path

let fds t = t.a_listen :: List.map (fun c -> c.c_fd) t.a_clients

let drop t client =
  t.a_clients <- List.filter (fun c -> c.c_fd <> client.c_fd) t.a_clients;
  try Unix.close client.c_fd with Unix.Unix_error _ -> ()

(* An admin peer that vanishes mid-reply is routine (a scraper timed
   out); the writer swallows the error and the next read sees EOF. *)
let accept t =
  let cfd, _ = Core.Io.accept t.a_listen in
  let write = Core.Io.make_writer cfd ~on_error:(fun _ -> ()) in
  t.a_clients <-
    { c_fd = cfd; c_reader = Core.Io.line_reader cfd; c_write = write }
    :: t.a_clients

(* The client writer appends one newline per reply; a multi-line reply
   (Prometheus) already ends in one, so chomp it to keep the stream
   free of blank separator lines. *)
let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(** Handle the subset of [ready] fds that belong to this listener:
    accept new admin clients, and answer every complete command line
    with [reply line ^ "\n"]. Empty lines are ignored. *)
let step t ~reply ready =
  let mine fd = List.memq fd (fds t) in
  List.iter
    (fun fd ->
      if fd = t.a_listen then accept t
      else if mine fd then
        match List.find_opt (fun c -> c.c_fd = fd) t.a_clients with
        | None -> ()
        | Some client ->
          let rec drain () =
            match Core.Io.read_line_nonblock client.c_reader with
            | `Line l ->
              if String.trim l <> "" then client.c_write (chomp (reply l));
              drain ()
            | `Eof -> drop t client
            | `Pending -> ()
          in
          drain ())
    ready

let close t =
  List.iter
    (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    t.a_clients;
  t.a_clients <- [];
  (try Unix.close t.a_listen with Unix.Unix_error _ -> ());
  try Unix.unlink t.a_path with Unix.Unix_error _ -> ()
