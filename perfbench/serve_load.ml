(** serve_cached: [taj serve]'s Unix-socket NDJSON transport driven
    in-process ({!Serve.Service.run_socket} with the default service
    config) by a client in a closed loop, with the incremental cache in a
    fresh directory. *)

open Core
module Service = Serve.Service
module Json = Serve.Json

(* Stream shape: 40% one-off inline units and 60% named-app requests,
   the split of the measurement this workload was specified from. The
   request count is fixed by --seconds and a nominal rate, so every run
   of one seed sends the same requests. *)
let nominal_rate = 200
let inline_pct = 40

(* The timed stream is cut into this many windows of consecutive
   requests; op_s_p50, op_s_tail and ops_per_s are the medians of the
   windows' own figures, so a slow stretch of the host that covers fewer
   than half of the windows does not move them. *)
let windows = 5

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec du path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0
      (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let request_id k = function
  | Inputs.Inline { id; _ } -> id
  | Inputs.Named _ -> Printf.sprintf "r%d" k

let request_line k (r : Inputs.request) =
  let fields =
    match r with
    | Inputs.Named { app; scale } ->
      [ ("app", Json.Str app); ("scale", Json.Num scale) ]
    | Inputs.Inline { source; descriptor; _ } ->
      [ ("source", Json.Str source); ("descriptor", Json.Str descriptor) ]
  in
  Json.to_string (Json.Obj (("id", Json.Str (request_id k r)) :: fields))
  ^ "\n"

type response = {
  status : string;
  issues : int;
  sent : float;              (** when the client sent the request *)
  rtt : float;               (** client send to response line *)
}

type client = { fd : Unix.file_descr; reader : Io.line_reader }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; reader = Io.line_reader fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 1000

(** Send [reqs] in order over one connection, one request in flight at a
    time, so which requests hit the result tier is a function of the
    stream alone. With a second connection in flight the service, its
    transport and the client saturated both CPUs of the reference host,
    and a CPU-bound process on one of them cut throughput by a third;
    with one in flight it changed nothing. *)
let round_trip c k r =
  let sent = Stats.now () in
  Io.write_all c.fd (request_line k r);
  match Io.read_line c.reader with
  | None -> failwith "the service closed the client connection"
  | Some line ->
    let rtt = Stats.now () -. sent in
    (match Json.parse line with
     | Ok j when Json.str_member "id" j = Some (request_id k r) ->
       { status = Option.value ~default:"?" (Json.str_member "status" j);
         issues = Option.value ~default:(-1) (Json.int_member "issues" j);
         sent;
         rtt }
     | _ -> failwith ("unexpected response: " ^ line))

let drive c (reqs : Inputs.request array) = Array.mapi (round_trip c) reqs

let service_config dir =
  { Service.default_config with
    Service.cache_dir = Some (Filename.concat dir "cache") }

type server = {
  svc : Service.t;
  loop : Thread.t;
  client : client;
  dir : string;
}

(** Start the service on a socket in [dir], connect the client and
    pre-fill the cache with the 22 base apps. *)
let start ~dir =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let svc = Service.create ~config:(service_config dir) () in
  let sock = Filename.concat dir "s.sock" in
  (* the transport loop runs on a thread of the main domain, as [taj
     serve] runs it on its main domain: the client then adds no domain of
     its own, and every minor collection synchronises the same domains as
     in [taj serve] (main, two workers, the signal watcher) *)
  let loop =
    Thread.create (fun () -> ignore (Service.run_socket svc sock)) ()
  in
  let client = connect sock in
  Array.iter
    (fun r ->
       if r.status <> "completed" then
         failwith ("cache pre-fill answered " ^ r.status))
    (drive client (Array.of_list (Inputs.base_requests ())));
  { svc; loop; client; dir }

let stop s =
  Service.request_drain s.svc;
  Thread.join s.loop;
  try Unix.close s.client.fd with Unix.Unix_error _ -> ()

let service_request k (r : Inputs.request) =
  match r with
  | Inputs.Named { app; scale } -> Service.request ~app ~scale (request_id k r)
  | Inputs.Inline { source; descriptor; _ } ->
    Service.request ~source ~descriptor (request_id k r)

(** A second service in [dir], driven through {!Service.submit} one
    request at a time after the same pre-fill: its responses carry the
    unrounded in-service seconds ([rp_seconds]), which the wire rounds to
    milliseconds. Returns the submit function and the one that drains
    the service. *)
let submitter ~dir =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let svc = Service.create ~config:(service_config dir) () in
  let m = Mutex.create () and answered = Condition.create () in
  let slot = ref None in
  let respond r =
    Mutex.protect m (fun () ->
      slot := Some r;
      Condition.signal answered)
  in
  let submit k r =
    Service.submit svc (service_request k r) ~respond;
    Mutex.protect m (fun () ->
      while !slot = None do Condition.wait answered m done;
      let r = Option.get !slot in
      slot := None;
      r)
  in
  List.iteri (fun k r -> ignore (submit (-1 - k) r)) (Inputs.base_requests ());
  let finish () =
    Service.await_drained svc;
    rm_rf dir
  in
  (submit, finish)

(* ------------------------------------------------------------------ *)
(* Uncached references and the re-composed cache path                 *)
(* ------------------------------------------------------------------ *)

let scale_of = function
  | Inputs.Named { scale; _ } -> scale
  | Inputs.Inline _ -> Inputs.scale

(* what the service runs for a request with default fields *)
let config_of scale = Config.preset ~scale Config.Hybrid_optimized

let input_of k (r : Inputs.request) : Taj.input =
  match r with
  | Inputs.Named { app; scale } ->
    (match Workloads.Apps.find app with
     | Some a -> Workloads.Codegen.to_input (Workloads.Apps.generate ~scale a)
     | None -> invalid_arg app)
  | Inputs.Inline { source; descriptor; _ } ->
    { Taj.name = request_id k r; app_sources = [ source ]; descriptor }

let options scale = { Supervisor.default_options with Supervisor.scale; jobs = 1 }

(** Issue counts of uncached supervised runs, one per distinct key; -1
    when the reference itself did not complete. *)
let references (reqs : Inputs.request array) =
  let refs = Hashtbl.create 256 in
  Array.iteri
    (fun k r ->
       let key = Inputs.key r in
       if not (Hashtbl.mem refs key) then begin
         let scale = scale_of r in
         let o =
           Supervisor.run ~options:(options scale) ~config:(config_of scale)
             (input_of k r)
         in
         Hashtbl.replace refs key
           (match Oracle.completed o with
            | Ok c -> Report.issue_count c.Taj.report
            | Error _ -> -1)
       end)
    reqs;
  fun r -> Hashtbl.find refs (Inputs.key r)

type served = {
  hit : bool;
  answer : (int, string) result;      (* issue count *)
  attempts : int;                     (* supervisor rungs run *)
}

(** One request through the cache exactly as the service's worker runs
    it at zero memory pressure, with spans around the cache calls. *)
let serve_one ?spans cache k (r : Inputs.request) =
  let span name f =
    match spans with Some s -> Spans.with_span s name f | None -> f ()
  in
  let scale = scale_of r in
  let config = config_of scale in
  let input = input_of k r in
  let rules = Rules.default_rules in
  let session, key, cached =
    span "cache.lookup" (fun () ->
      let s = Cache.Incr.start cache ~app:input.Taj.name in
      let key = Cache.Incr.result_key ~rules ~config input in
      (s, key, Cache.Incr.lookup_result s ~key))
  in
  match cached with
  | Some cr -> { hit = true; answer = Ok cr.Cache.Incr.cr_issues; attempts = 0 }
  | None ->
    let options =
      { (options scale) with Supervisor.cache = Cache.Incr.hooks session }
    in
    let o = span "supervisor" (fun () -> Supervisor.run ~options ~config input) in
    let attempts = List.length o.Supervisor.sv_attempts in
    (match Oracle.completed o with
     | Ok c ->
       let cr =
         { Cache.Incr.cr_report =
             Cache.Incr.render_report c.Taj.builder c.Taj.report;
           cr_issues = Report.issue_count c.Taj.report;
           cr_flows = Report.flow_count c.Taj.report }
       in
       (* a completed run always carries its analysis *)
       let loaded = (Option.get o.Supervisor.sv_analysis).Taj.loaded in
       let keys =
         key
         :: Option.to_list
              (Cache.Incr.ast_result_key ~rules ~config ~loaded session)
       in
       span "cache.commit" (fun () ->
         Cache.Incr.commit ~results:(List.map (fun k -> (k, cr)) keys)
           ~analysis:c session);
       { hit = false; answer = Ok cr.Cache.Incr.cr_issues; attempts }
     | Error e ->
       span "cache.commit" (fun () -> Cache.Incr.commit session);
       { hit = false; answer = Error e; attempts })

type pass = {
  cache : Cache.Incr.t;
  dir : string;
  what : string;                     (** appended to each op's name *)
  spans : Spans.t option;
  seen : (string, unit) Hashtbl.t;   (** keys asked for so far *)
  mutable hits : int;
  mutable commits : int;
  mutable attempts : int;
  mutable split_error : string option;
  mutable wall : float;              (** seconds inside the ops *)
}

(** The service's cache path re-composed in-process over a fresh cache
    in [dir], pre-filled like the service's. With [spans], each request
    is an op with spans around the cache calls. *)
let pass ?spans ~dir ~what () =
  rm_rf dir;
  let cache = Cache.Incr.create ~dir in
  let base = Inputs.base_requests () in
  List.iteri (fun k r -> ignore (serve_one cache (-1 - k) r)) base;
  let seen = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace seen (Inputs.key r) ()) base;
  { cache; dir; what; spans; seen; hits = 0; commits = 0; attempts = 0;
    split_error = None; wall = 0. }

(** Request [k] through [p], its answer judged into [tally]. It must hit
    exactly when the pre-fill or an earlier request asked for its key. *)
let step p tally reference k r =
  let t0 = Stats.now () in
  let served =
    try
      match p.spans with
      | Some s -> Spans.with_op s k (fun () -> serve_one ~spans:s p.cache k r)
      | None -> serve_one p.cache k r
    with e ->
      { hit = false; answer = Error ("raised " ^ Printexc.to_string e);
        attempts = 0 }
  in
  p.wall <- p.wall +. (Stats.now () -. t0);
  let expect_hit = Hashtbl.mem p.seen (Inputs.key r) in
  Hashtbl.replace p.seen (Inputs.key r) ();
  if served.hit then p.hits <- p.hits + 1
  else begin
    p.commits <- p.commits + 1;
    p.attempts <- p.attempts + served.attempts
  end;
  if served.hit <> expect_hit && p.split_error = None then
    p.split_error <-
      Some
        (Printf.sprintf "%s: %s where the stream predicts a %s"
           (request_id k r)
           (if served.hit then "hit" else "miss")
           (if expect_hit then "hit" else "miss"));
  Oracle.record tally ~what:(request_id k r ^ p.what)
    (Result.bind served.answer (fun issues ->
       Oracle.check_response ~status:"completed" ~issues
         ~reference:(reference r)))

(** The size of [p]'s cache directory in MB; removes the directory. *)
let close p =
  let mb = float_of_int (du p.dir) /. 1048576. in
  rm_rf p.dir;
  mb

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)
(* ------------------------------------------------------------------ *)

let stream ~seed ~seconds =
  Inputs.serve_stream ~seed ~count:(nominal_rate * seconds) ~inline_pct

(* three, not the batch workloads' five: a serve set-up takes ~2.5 s,
   and two more would lengthen every run by ~5 s *)
let set_ups = 3

let check_responses tally reqs reference (rs : response array) =
  Array.iteri
    (fun k r ->
       Oracle.record tally ~what:(request_id k reqs.(k))
         (Oracle.check_response ~status:r.status ~issues:r.issues
            ~reference:(reference reqs.(k))))
    rs

(* [windows] runs of consecutive responses: each window's latencies and
   its wall seconds, from its first send to the next window's (the last
   one ends at [t_end]) *)
let cut (rs : response array) ~t_end =
  let n = Array.length rs in
  List.init windows (fun w ->
    let lo = w * n / windows and hi = (w + 1) * n / windows in
    let stop = if hi < n then rs.(hi).sent else t_end in
    (List.init (hi - lo) (fun i -> rs.(lo + i).rtt), stop -. rs.(lo).sent))

let run ~seed ~seconds ~workdir =
  let set_up k =
    let t0 = Stats.now () in
    let reqs = stream ~seed ~seconds in
    let s = start ~dir:(Filename.concat workdir (Printf.sprintf "serve-%d" k)) in
    (reqs, s, Stats.now () -. t0)
  in
  (* an earlier set-up's service is stopped and dropped, so neither its
     cache nor its stream stays live into the timed window *)
  let earlier =
    List.init (set_ups - 1) (fun k ->
      let _, s, dt = set_up k in
      stop s;
      rm_rf s.dir;
      dt)
  in
  let reqs, s, last = set_up (set_ups - 1) in
  let setup_times = earlier @ [ last ] in
  let w0 = Stats.words_all_domains () in
  let c0 = Stats.cpu () in
  let rs = drive s.client reqs in
  let t_end = Stats.now () and cpu = Stats.cpu () -. c0 in
  stop s;
  (* the workers are joined: their words are all counted now *)
  let words = Stats.words_all_domains () -. w0 in
  let rss = Stats.peak_rss_mb () in
  rm_rf s.dir;
  let tally = Oracle.tally () in
  check_responses tally reqs (references reqs) rs;
  ( tally,
    Report_out.end_to_end ~setup_times ~windows:(cut rs ~t_end) ~cpu ~words
      ~rss ~ops:"requests" )

(** The stream over the socket for the round trips and, interleaved
    request by request so both see the host at the same moment, through
    {!Service.submit} on a second service for the unrounded in-service
    seconds; then through the re-composed cache path, untraced and
    traced, each over its own fresh cache and again interleaved. Both
    re-composed passes must hit exactly where the stream predicts. *)
let trace ~seed ~seconds ~workdir ~spans_path =
  let reqs = stream ~seed ~seconds in
  let s = start ~dir:(Filename.concat workdir "serve-0") in
  let submit, finish = submitter ~dir:(Filename.concat workdir "serve-1") in
  let both = Array.mapi (fun k r -> (round_trip s.client k r, submit k r)) reqs in
  stop s;
  rm_rf s.dir;
  finish ();
  let rs = Array.map fst both and submitted = Array.map snd both in
  let reference = references reqs in
  let tally = Oracle.tally () in
  check_responses tally reqs reference rs;
  Array.iteri
    (fun k (r : Service.response) ->
       Oracle.record tally ~what:(request_id k reqs.(k) ^ " (submitted)")
         (Oracle.check_response ~status:(Service.status_name r.Service.rp_status)
            ~issues:r.Service.rp_issues ~reference:(reference reqs.(k))))
    submitted;
  let spans = Spans.create () in
  let untraced =
    pass ~dir:(Filename.concat workdir "serve-2") ~what:" (re-composed)" ()
  in
  let traced =
    pass ~spans ~dir:(Filename.concat workdir "serve-3") ~what:" (traced)" ()
  in
  Array.iteri
    (fun k r ->
       step untraced tally reference k r;
       step traced tally reference k r)
    reqs;
  ignore (close untraced);
  let store_mb = close traced in
  Spans.write spans spans_path;
  let split_error =
    match untraced.split_error, traced.split_error with
    | Some e, _ | None, Some e -> Some e
    | None, None -> None
  in
  let n = float_of_int (Array.length reqs) in
  let rtt = Stats.sum (Array.to_list (Array.map (fun r -> r.rtt) rs)) /. n in
  let in_service =
    Stats.sum
      (Array.to_list
         (Array.map (fun (r : Service.response) -> r.Service.rp_seconds)
            submitted))
    /. n
  in
  let op_s = Spans.total spans "op" /. n in
  ( tally,
    split_error,
    [ ("cache.lookup_s", Spans.total spans "cache.lookup" /. n);
      ( "cache.commit_s",
        Stats.ratio (Spans.total spans "cache.commit")
          (float_of_int traced.commits) );
      ("cache.hit_ratio", float_of_int traced.hits /. n);
      ("cache.store_mb", store_mb);
      ("serve.rtt_s", rtt);
      ("serve.in_service_s", in_service);
      ("serve.transport_s", rtt -. in_service);
      ( "supervisor.attempts",
        Stats.ratio (float_of_int traced.attempts)
          (float_of_int traced.commits) );
      ("trace.op_s", op_s);
      ("trace.unattributed_s", fst (Spans.self_times spans "op") /. n);
      ("trace.overhead_ratio", Stats.ratio (op_s *. n) untraced.wall) ] )
