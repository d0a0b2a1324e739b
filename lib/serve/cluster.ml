(** Sharded multi-process analysis cluster: a coordinator that forks N
    worker processes, each running the single-process {!Service} engine,
    and supervises them so a hard worker crash (segfault, OOM kill,
    [kill -9]) is an ordinary recoverable event instead of the end of the
    service.

    Topology and responsibilities:

    - {e Routing}: jobs are routed by consistent hash of {!Service.job_key}
      (application name, or a hash of the inline source) over a ring of
      virtual nodes, so repeated submissions of one application land on the
      same warm worker and adding/removing a worker only moves the keys
      adjacent to it.
    - {e Supervision}: each worker talks to the coordinator over a
      socketpair carrying {!Proto} frames. A crash is detected by EOF on
      that socketpair (and confirmed by [waitpid]); the worker slot enters
      a down state and is respawned after an exponential per-slot backoff.
      A per-worker {!Breaker} (keys ["worker-<i>"]) takes a crash-looping
      worker out of the routing ring until its cooldown probe succeeds.
    - {e Zero lost jobs}: the coordinator keeps every dispatched job in an
      in-flight table until its [Result] frame arrives. Jobs in flight on
      a crashed worker are classified with {!Core.Fault.classify} (a dead
      peer is a transient infrastructure failure) and rerouted to a peer
      after the service's seeded backoff, up to [crash_retries] crashes;
      beyond that they are answered [failed:worker_crashed]. Every
      submitted job still reaches exactly one terminal response.
    - {e Drain}: on SIGTERM/SIGINT or end of input the coordinator stops
      admitting, flushes pending reroutes, sends each worker a [Drain]
      frame; workers drain their engines, emit a final [Health] frame and
      exit 0; the coordinator reaps them and aggregates a cluster health
      snapshot with per-worker counters.

    The coordinator deliberately runs no domains of its own — it is a
    single-threaded select pump — so [Unix.fork] stays safe not only at
    startup but at every respawn. *)

open Core
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  size : int;                      (** worker processes *)
  ring_replicas : int;             (** virtual nodes per worker *)
  crash_retries : int;             (** worker crashes one job survives *)
  respawn_base : float;            (** first respawn backoff, seconds *)
  respawn_factor : float;
  respawn_max : float;
  worker_breaker_threshold : int;  (** consecutive crashes to open *)
  worker_breaker_cooldown : float;
  worker_trace_prefix : string option;
      (** [Some p]: worker [i] writes its telemetry trace to
          [p ^ ".worker-<i>.json"] at drain, for {!merged_trace} *)
  flight_dump : string option;
      (** [Some p]: the merged flight-recorder dump is written to [p] on
          worker crash, SIGUSR1 or an admin [dump] request; worker [i]
          keeps its ring snapshot current at [p ^ ".worker-<i>.json"]
          after every result, so even a SIGKILLed worker's last events
          survive into the merge *)
  forward_logs : bool;
      (** workers replace their inherited {!Obs.Log} sink with a
          [Log_line] pipe forwarder, so the coordinator's sink carries
          one merged stream *)
  announce : bool;                 (** print each event on stderr *)
  service : Service.config;        (** per-worker engine configuration *)
}

let default_config =
  { size = 2; ring_replicas = 32; crash_retries = 2;
    respawn_base = 0.2; respawn_factor = 2.0; respawn_max = 5.0;
    worker_breaker_threshold = 3; worker_breaker_cooldown = 5.0;
    worker_trace_prefix = None; flight_dump = None; forward_logs = false;
    announce = true; service = Service.default_config }

(** Pure per-slot respawn schedule: exponential in the number of
    consecutive crashes, capped. *)
let respawn_delay cfg ~crashes =
  let exp =
    cfg.respawn_base *. (cfg.respawn_factor ** float_of_int (max 0 crashes - 1))
  in
  Float.min cfg.respawn_max exp

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

type cjob = {
  cj_req : Service.request;
  cj_respond : Service.response -> unit;
  cj_submitted : float;
  mutable cj_crashes : int;        (* worker crashes survived so far *)
}

type slot_state =
  | Up
  | Down of float                  (* respawn due at this clock value *)

type slot = {
  s_index : int;
  mutable s_pid : int;
  mutable s_fd : Unix.file_descr;
  mutable s_reader : Proto.reader;
  mutable s_state : slot_state;
  mutable s_crashes : int;         (* consecutive, reset on a result *)
  mutable s_spawns : int;
  mutable s_drain_sent : bool;
  mutable s_reaped : bool;
  mutable s_health : Service.health option;
      (* the final snapshot of an orderly drain — only ever set after
         the drain frame went out, so admin replies can't be mistaken
         for it *)
  mutable s_admin_health : Service.health option;   (* last Health_req reply *)
  mutable s_admin_metrics : (string * Obs.Telemetry.value) list option;
  mutable s_admin_dump : string option;             (* last Dump reply *)
  s_inflight : (string, cjob) Hashtbl.t;
}

type t = {
  cfg : config;
  started_at : float;
  slots : slot array;
  ring : (int * int) array;        (* (hash point, worker index), sorted *)
  breaker : Breaker.t;
  mutable pending : (float * cjob) list;  (* reroutes waiting on backoff *)
  mutable draining : bool;
  sig_drain : bool Atomic.t;
  sig_dump : bool Atomic.t;        (* SIGUSR1: flight dump requested *)
  (* terminal-response accounting, for the aggregated health snapshot *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_degraded : int;
  mutable n_failed : int;
  mutable n_rejected : int;        (* rejected answers and malformed lines *)
  mutable n_shed : int;            (* responses with reason "shed" *)
  mutable n_rejected_full : int;   (* responses with reason "queue_full" *)
  mutable n_crashes : int;
  mutable n_respawns : int;
  mutable n_rerouted : int;
  mutable n_crash_failed : int;
}

let now t = t.cfg.service.Service.now ()

(* A coordinator event is emitted once, as its trace instant and log
   line, and announced on stderr; the coordinator keeps none. *)
let emit (cfg : config) d =
  Diagnostics.emit d;
  if cfg.announce then Fmt.epr "cluster: %a@." Diagnostics.pp_degradation d

let event t d = emit t.cfg d

(* ------------------------------------------------------------------ *)
(* Worker process                                                     *)
(* ------------------------------------------------------------------ *)

let worker_trace_file cfg index =
  Option.map
    (fun p -> Printf.sprintf "%s.worker-%d.json" p index)
    cfg.worker_trace_prefix

(* The worker's flight-ring snapshot file: rewritten (atomically, via
   temp+rename) after every result, so when the process is SIGKILLed the
   coordinator can still merge the worker's recent events from disk. *)
let worker_flight_file cfg index =
  Option.map
    (fun p -> Printf.sprintf "%s.worker-%d.json" p index)
    cfg.flight_dump

(* Runs in the forked child; never returns. The engine (and its domains)
   is created only after the fork — the child starts single-domain. All
   communication with the coordinator is Proto frames on [fd]; stdio is
   inherited but never written to, so cluster stdout stays the
   coordinator's alone. *)
let worker_main cfg ~index fd : 'a =
  Io.ignore_sigpipe ();
  (* drain is driven by the coordinator (Drain frame / EOF), not by the
     terminal's signal broadcast: a ^C must not make workers race their
     coordinator's orderly drain *)
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (* a SIGUSR1 aimed at the process group must dump once, from the
     coordinator (whose merge includes the worker snapshots below) *)
  Sys.set_signal Sys.sigusr1 Sys.Signal_ignore;
  let exit_code = ref 0 in
  (try
     let wlock = Mutex.create () in
     let send m =
       Mutex.lock wlock;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock wlock)
         (fun () ->
            try Proto.write fd m
            with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
              (* coordinator gone: nothing left to report to *)
              ())
     in
     if cfg.forward_logs then begin
       (* the inherited file sink belongs to the coordinator; this
          worker's lines travel the supervised pipe instead, pre-rendered
          with the worker's sticky context *)
       Obs.Log.set_sink (Some (fun line -> send (Proto.Log_line line)));
       Obs.Log.set_context [ ("proc", Printf.sprintf "worker-%d" index) ]
     end;
     let flight_file = worker_flight_file cfg index in
     let flight_lock = Mutex.create () in
     let flight_snapshot () =
       match flight_file with
       | Some path
         when Obs.Telemetry.flight_armed () || Obs.Telemetry.enabled () ->
         Mutex.lock flight_lock;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock flight_lock)
           (fun () ->
             try Io.write_file path (Obs.Telemetry.flight_json ())
             with Unix.Unix_error _ | Sys_error _ -> ())
       | _ -> ()
     in
     let service = Service.create ~config:cfg.service () in
     let reader = Proto.reader fd in
     let rec pump () =
       match Proto.read_block reader with
       | `Msg (Proto.Job rq) ->
         Service.submit service rq ~respond:(fun r ->
           (* snapshot BEFORE the result frame: once the coordinator can
              observe the result, the ring covering it must already be on
              disk — a SIGKILL right after the send still leaves the
              worker's last spans for the crash dump *)
           flight_snapshot ();
           send (Proto.Result r));
         pump ()
       | `Msg Proto.Health_req ->
         send (Proto.Health (Service.health service));
         pump ()
       | `Msg Proto.Metrics_req ->
         send (Proto.Metrics (Obs.Telemetry.metrics ()));
         pump ()
       | `Msg Proto.Dump_req ->
         flight_snapshot ();
         send (Proto.Dump (Obs.Telemetry.flight_json ()));
         pump ()
       | `Msg Proto.Drain | `Eof | `Error _ -> ()
       | `Msg _ -> pump ()
     in
     pump ();
     Service.request_drain service;
     Service.await_drained service;
     (match worker_trace_file cfg index with
      | Some path when Obs.Telemetry.enabled () ->
        (try Obs.Telemetry.write_trace path with Sys_error _ -> ())
      | _ -> ());
     flight_snapshot ();
     send (Proto.Health (Service.health service));
     (try Unix.close fd with Unix.Unix_error _ -> ())
   with e ->
     Printf.eprintf "cluster: worker %d fatal: %s\n%!" index
       (Printexc.to_string e);
     exit_code := 1);
  (* _exit, not exit: at-exit handlers and stdio buffers inherited from
     the coordinator must not run/flush twice *)
  Unix._exit !exit_code

let spawn_slot t (s : slot) =
  flush stdout;
  flush stderr;
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.fork () with
  | 0 ->
    (try Unix.close parent_fd with Unix.Unix_error _ -> ());
    (* drop the other workers' pipe ends so their EOF semantics are owned
       by the coordinator alone *)
    Array.iter
      (fun (o : slot) ->
         if o.s_index <> s.s_index && o.s_state = Up then
           try Unix.close o.s_fd with Unix.Unix_error _ -> ())
      t.slots;
    worker_main t.cfg ~index:s.s_index child_fd
  | pid ->
    (try Unix.close child_fd with Unix.Unix_error _ -> ());
    s.s_pid <- pid;
    s.s_fd <- parent_fd;
    s.s_reader <- Proto.reader parent_fd;
    s.s_state <- Up;
    s.s_spawns <- s.s_spawns + 1;
    s.s_drain_sent <- false;
    s.s_reaped <- false;
    s.s_health <- None;
    s.s_admin_health <- None;
    s.s_admin_metrics <- None;
    s.s_admin_dump <- None

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring                                               *)
(* ------------------------------------------------------------------ *)

let build_ring ~size ~replicas =
  let points =
    Array.init (size * replicas) (fun i ->
      let w = i / replicas and r = i mod replicas in
      (Hashtbl.hash ("cluster-ring", w, r), w))
  in
  Array.sort compare points;
  points

(* First ring point at or after the key's hash (wrapping), then the ring
   order of distinct workers from there: the routing preference list. *)
let ring_order ring ~size key =
  let h = Hashtbl.hash key in
  let n = Array.length ring in
  let start =
    (* binary search: least index with point >= h, else 0 (wrap) *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo
  in
  let seen = Array.make size false in
  let order = ref [] in
  let found = ref 0 in
  let i = ref start in
  while !found < size do
    let _, w = ring.(!i mod n) in
    if not seen.(w) then begin
      seen.(w) <- true;
      order := w :: !order;
      incr found
    end;
    incr i
  done;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Creation                                                           *)
(* ------------------------------------------------------------------ *)

let worker_key i = Printf.sprintf "worker-%d" i

let create ?(config = default_config) () =
  let config = { config with size = max 1 config.size } in
  Io.ignore_sigpipe ();
  let t =
    { cfg = config;
      started_at = config.service.Service.now ();
      slots =
        Array.init config.size (fun i ->
          { s_index = i; s_pid = 0; s_fd = Unix.stdin;
            s_reader = Proto.reader Unix.stdin; s_state = Down 0.0;
            s_crashes = 0; s_spawns = 0; s_drain_sent = false;
            s_reaped = true; s_health = None;
            s_admin_health = None; s_admin_metrics = None;
            s_admin_dump = None;
            s_inflight = Hashtbl.create 16 });
      ring = build_ring ~size:config.size ~replicas:(max 1 config.ring_replicas);
      breaker =
        Breaker.create ~now:config.service.Service.now
          ~on_transition:(fun ~key st ->
            emit config
              (Diagnostics.Breaker_transition
                 { key; state = Breaker.state_name st }))
          ~threshold:config.worker_breaker_threshold
          ~cooldown:config.worker_breaker_cooldown ();
      pending = []; draining = false; sig_drain = Atomic.make false;
      sig_dump = Atomic.make false;
      n_submitted = 0; n_completed = 0; n_degraded = 0; n_failed = 0;
      n_rejected = 0; n_shed = 0; n_rejected_full = 0;
      n_crashes = 0; n_respawns = 0; n_rerouted = 0; n_crash_failed = 0 }
  in
  Array.iter
    (fun s ->
       spawn_slot t s;
       event t
         (Diagnostics.Worker_spawned { worker = s.s_index; pid = s.s_pid }))
    t.slots;
  t

let worker_pids t =
  Array.to_list t.slots
  |> List.filter_map (fun s ->
    if s.s_state = Up then Some s.s_pid else None)

let route t key =
  match ring_order t.ring ~size:t.cfg.size key with
  | w :: _ -> w
  | [] -> 0

(* ------------------------------------------------------------------ *)
(* Trace splicing and the merged flight dump                          *)
(* ------------------------------------------------------------------ *)

(* Each worker writes its own Chrome trace with ["pid":1]; splice their
   traceEvents into one document, rewriting the pid to [worker index + 2]
   (the coordinator keeps pid 1) so about://tracing shows one lane per
   process. String surgery is safe here because the trace format is ours
   ({!Obs.Telemetry.trace_json}) and the pid field is emitted verbatim. *)
let splice_events ~pid json =
  match String.index_opt json '[' with
  | None -> None
  | Some start ->
    let stop = String.rindex_opt json ']' in
    (match stop with
     | Some stop when stop > start ->
       let events = String.trim (String.sub json (start + 1) (stop - start - 1)) in
       if events = "" then None
       else begin
         let buf = Buffer.create (String.length events + 64) in
         let old = "\"pid\":1," in
         let replacement = Printf.sprintf "\"pid\":%d," pid in
         let n = String.length events and m = String.length old in
         let i = ref 0 in
         while !i < n do
           if !i + m <= n && String.sub events !i m = old then begin
             Buffer.add_string buf replacement;
             i := !i + m
           end
           else begin
             Buffer.add_char buf events.[!i];
             incr i
           end
         done;
         Some (Buffer.contents buf)
       end
     | _ -> None)

let splice_docs docs =
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.filter_map Fun.id docs)
  ^ "\n]}\n"

(* The merged flight-recorder document: the coordinator's own ring on
   pid 1 plus each worker's ring on pid [index + 2] — from a fresh
   [Dump] reply when one exists, otherwise from the snapshot file the
   worker keeps current after every result. The file is all that is
   left of a SIGKILLed worker, which is exactly the crash this dump is
   for. *)
let merged_flight t =
  let own = splice_events ~pid:1 (Obs.Telemetry.flight_json ()) in
  let workers =
    Array.to_list t.slots
    |> List.map (fun s ->
      let doc =
        match s.s_admin_dump with
        | Some d -> Some d
        | None ->
          Option.bind (worker_flight_file t.cfg s.s_index) (fun path ->
            match Io.read_file path with
            | json -> Some json
            | exception (Unix.Unix_error _ | Sys_error _) -> None)
      in
      Option.bind doc (fun d -> splice_events ~pid:(s.s_index + 2) d))
  in
  splice_docs (own :: workers)

(** Write the merged flight dump to [cfg.flight_dump]. Triggered by a
    worker crash, SIGUSR1, or an admin [dump] command; cheap enough to
    run inline in the supervision pump. Returns the path written, or
    [None] when dumping is off. *)
let flight_dump t ~cause =
  match t.cfg.flight_dump with
  | None -> None
  | Some path ->
    (try
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (merged_flight t))
     with Sys_error _ -> ());
    Obs.Telemetry.instant "obs.flight_dump"
      ~args:[ ("cause", cause); ("path", path) ];
    Some path

let signal_dump_pending t =
  if Atomic.exchange t.sig_dump false then
    ignore (flight_dump t ~cause:"sigusr1")

(* ------------------------------------------------------------------ *)
(* Terminal accounting                                                *)
(* ------------------------------------------------------------------ *)

let answer t (cj : cjob) (r : Service.response) =
  (match r.Service.rp_status with
   | Service.Completed -> t.n_completed <- t.n_completed + 1
   | Service.Degraded -> t.n_degraded <- t.n_degraded + 1
   | Service.Failed -> t.n_failed <- t.n_failed + 1
   | Service.Rejected ->
     t.n_rejected <- t.n_rejected + 1;
     (match r.Service.rp_reason with
      | "shed" -> t.n_shed <- t.n_shed + 1
      | "queue_full" -> t.n_rejected_full <- t.n_rejected_full + 1
      | _ -> ()));
  cj.cj_respond r

let synth_response t (cj : cjob) status reason =
  { Service.rp_id = cj.cj_req.Service.rq_id; rp_status = status;
    rp_reason = reason; rp_verdict = None; rp_issues = 0;
    rp_attempts = cj.cj_crashes;
    rp_degradations = 0; rp_seconds = now t -. cj.cj_submitted;
    rp_mismatched = None }

(* ------------------------------------------------------------------ *)
(* Dispatch and crash handling                                        *)
(* ------------------------------------------------------------------ *)

(* First worker in ring preference order that is up and whose breaker
   admits this job (a [`Probe] admission MUST be used — the acquire call
   seized the half-open probe slot for this job id). *)
let choose_slot t (cj : cjob) =
  let key = Service.job_key cj.cj_req in
  let job = cj.cj_req.Service.rq_id in
  List.find_map
    (fun w ->
       let s = t.slots.(w) in
       if s.s_state <> Up || s.s_drain_sent then None
       else
         match Breaker.acquire ~job t.breaker (worker_key w) with
         | `Proceed | `Probe -> Some s
         | `Fast_fail -> None)
    (ring_order t.ring ~size:t.cfg.size key)

let rec dispatch t (cj : cjob) =
  match choose_slot t cj with
  | None ->
    if t.draining then
      answer t cj (synth_response t cj Service.Failed "worker_crashed")
    else begin
      (* whole cluster momentarily unroutable (crash storm / breakers
         open): park the job and let the pump retry it shortly *)
      t.pending <- (now t +. 0.05, cj) :: t.pending
    end
  | Some s ->
    (* Hashtbl.add, not replace: duplicate client ids are two distinct
       jobs and each must keep its own terminal answer *)
    Hashtbl.add s.s_inflight cj.cj_req.Service.rq_id cj;
    (match Proto.write s.s_fd (Proto.Job cj.cj_req) with
     | () -> ()
     | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
       (* found dead before waitpid/EOF did; [slot_died] reroutes the
          in-flight jobs — including the one just added *)
       slot_died t s ~reason:"write failed")

(* A worker is gone: fail its breaker, reroute or fail its in-flight
   jobs, and schedule the respawn. [reason] is diagnostic text. *)
and slot_died t (s : slot) ~reason =
  if s.s_state = Up then begin
    let inflight = Hashtbl.fold (fun _ cj acc -> cj :: acc) s.s_inflight [] in
    Hashtbl.reset s.s_inflight;
    t.n_crashes <- t.n_crashes + 1;
    s.s_crashes <- s.s_crashes + 1;
    ignore (Breaker.failure t.breaker (worker_key s.s_index));
    (try Unix.close s.s_fd with Unix.Unix_error _ -> ());
    reap t s;
    let delay = respawn_delay t.cfg ~crashes:s.s_crashes in
    s.s_state <- Down (now t +. delay);
    event t
      (Diagnostics.Worker_exited
         { worker = s.s_index; pid = s.s_pid; reason;
           in_flight = List.length inflight });
    (* the worker's flight-ring snapshot file survives the SIGKILL; merge
       it into a dump now, while the crash context is fresh *)
    ignore
      (flight_dump t
         ~cause:(Printf.sprintf "worker_crash:%d:%s" s.s_index reason));
    List.iter
      (fun cj ->
         cj.cj_crashes <- cj.cj_crashes + 1;
         (* a dead peer is the moral equivalent of a reset connection:
            classify it with the shared taxonomy so cluster retry policy
            and single-process retry policy can never drift apart *)
         let severity =
           Fault.classify (Unix.Unix_error (Unix.EPIPE, "worker", reason))
         in
         if
           severity = Fault.Transient
           && cj.cj_crashes <= t.cfg.crash_retries
           && not t.draining
         then begin
           let delay =
             Service.backoff_delay t.cfg.service
               ~id:cj.cj_req.Service.rq_id ~attempt:cj.cj_crashes
           in
           t.n_rerouted <- t.n_rerouted + 1;
           event t
             (Diagnostics.Job_rerouted
                { job = cj.cj_req.Service.rq_id; from_worker = s.s_index;
                  crashes = cj.cj_crashes; delay });
           t.pending <- (now t +. delay, cj) :: t.pending
         end
         else begin
           t.n_crash_failed <- t.n_crash_failed + 1;
           answer t cj (synth_response t cj Service.Failed "worker_crashed")
         end)
      inflight
  end

and reap _t (s : slot) =
  if not s.s_reaped then begin
    (* the fd is closed (EOF seen or close forced), so the child is dead
       or moments from it; make sure, then wait without hanging *)
    (try Unix.kill s.s_pid Sys.sigkill
     with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    (try ignore (Io.retry_eintr (fun () -> Unix.waitpid [] s.s_pid))
     with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    s.s_reaped <- true
  end

(* ------------------------------------------------------------------ *)
(* Event pump                                                         *)
(* ------------------------------------------------------------------ *)

let handle_msg t (s : slot) = function
  | Proto.Result r ->
    (match Hashtbl.find_opt s.s_inflight r.Service.rp_id with
     | None -> () (* response for a job already answered elsewhere *)
     | Some cj ->
       Hashtbl.remove s.s_inflight r.Service.rp_id;
       s.s_crashes <- 0;
       Breaker.success t.breaker (worker_key s.s_index);
       answer t cj r)
  | Proto.Health h ->
    (* only a post-drain-frame snapshot is the worker's final word; any
       other Health frame answers an admin Health_req *)
    if s.s_drain_sent then s.s_health <- Some h;
    s.s_admin_health <- Some h
  | Proto.Metrics kvs -> s.s_admin_metrics <- Some kvs
  | Proto.Dump trace -> s.s_admin_dump <- Some trace
  | Proto.Log_line line ->
    (* forwarded worker log line, pre-rendered: append verbatim to the
       coordinator's sink so one merged stream exists *)
    Obs.Log.raw line
  | Proto.Job _ | Proto.Drain | Proto.Health_req | Proto.Metrics_req
  | Proto.Dump_req ->
    () (* coordinator-bound only *)

let drain_slot_frames t (s : slot) =
  let rec go () =
    match Proto.read_nonblock s.s_reader with
    | `Msg m -> handle_msg t s m; go ()
    | `Pending -> ()
    | `Eof | `Error _ ->
      if t.draining && s.s_health <> None then begin
        (* orderly exit after its final health frame *)
        (try Unix.close s.s_fd with Unix.Unix_error _ -> ());
        reap t s;
        if s.s_state = Up then s.s_state <- Down infinity;
        event t
          (Diagnostics.Worker_exited
             { worker = s.s_index; pid = s.s_pid; reason = "drained";
               in_flight = 0 })
      end
      else slot_died t s ~reason:"pipe closed"
  in
  if s.s_state = Up then go ()

let respawn_due t =
  if not t.draining then
    Array.iter
      (fun s ->
         match s.s_state with
         | Down due when now t >= due && due < infinity ->
           spawn_slot t s;
           t.n_respawns <- t.n_respawns + 1;
           event t
             (Diagnostics.Worker_respawned
                { worker = s.s_index; pid = s.s_pid;
                  crashes = s.s_crashes;
                  backoff = respawn_delay t.cfg ~crashes:s.s_crashes })
         | _ -> ())
      t.slots

let flush_pending t ~force =
  let tnow = now t in
  let due, later =
    List.partition (fun (d, _) -> force || tnow >= d) t.pending
  in
  t.pending <- later;
  List.iter (fun (_, cj) -> dispatch t cj) due

let worker_fds t =
  Array.to_list t.slots
  |> List.filter_map (fun s -> if s.s_state = Up then Some s.s_fd else None)

(* The select wait: [timeout], or less when a reroute or respawn falls
   due before it. *)
let wake t ~timeout =
  let next_due =
    List.fold_left
      (fun a (d, _) -> Float.min a d)
      (Array.fold_left
         (fun a s ->
            match s.s_state with
            | Down due when due < infinity -> Float.min a due
            | _ -> a)
         infinity t.slots)
      t.pending
  in
  if next_due = infinity then timeout
  else Float.max 0.0 (Float.min timeout (next_due -. now t))

(* The supervision step after a select: read the frames of the worker
   pipes in [ready] (crash detection included), deliver due reroutes,
   refill due respawn slots. The serving loop calls it with everything
   that was ready; descriptors that are no worker's are ignored. *)
let step t ready =
  signal_dump_pending t;
  List.iter
    (fun fd ->
       match
         Array.to_list t.slots
         |> List.find_opt (fun s -> s.s_state = Up && s.s_fd = fd)
       with
       | Some s -> drain_slot_frames t s
       | None -> ())
    ready;
  (* catch a death whose EOF we haven't selected yet (e.g. no inflight
     traffic): waitpid with WNOHANG is cheap and definitive *)
  Array.iter
    (fun s ->
       if s.s_state = Up then
         match Unix.waitpid [ Unix.WNOHANG ] s.s_pid with
         | 0, _ -> ()
         | _, _ ->
           s.s_reaped <- true;
           drain_slot_frames t s;
           (* if the remaining frames didn't conclude drain, it died *)
           if s.s_state = Up then slot_died t s ~reason:"process exited"
         | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
           s.s_reaped <- true;
           if s.s_state = Up then slot_died t s ~reason:"process exited")
    t.slots;
  respawn_due t;
  flush_pending t ~force:false

(** One supervision step on its own: select on the worker pipes for at
    most [timeout], then {!step}. *)
let pump t ~timeout =
  let fds = worker_fds t and timeout = wake t ~timeout in
  let ready =
    if fds = [] then begin
      if timeout > 0.0 then
        t.cfg.service.Service.sleep (Float.min timeout 0.05);
      []
    end
    else
      let ready, _, _ = Io.select fds [] [] timeout in
      ready
  in
  step t ready

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

let submit t rq ~respond =
  t.n_submitted <- t.n_submitted + 1;
  let cj =
    { cj_req = rq; cj_respond = respond; cj_submitted = now t;
      cj_crashes = 0 }
  in
  if t.draining then
    answer t cj (synth_response t cj Service.Rejected "draining")
  else dispatch t cj

let inflight_count t =
  Array.fold_left (fun a s -> a + Hashtbl.length s.s_inflight) 0 t.slots

let idle t = inflight_count t = 0 && t.pending = []

(* ------------------------------------------------------------------ *)
(* Drain                                                              *)
(* ------------------------------------------------------------------ *)

let install_signals t =
  let handler = Sys.Signal_handle (fun _ -> Atomic.set t.sig_drain true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  (* flight dump on demand; the handler only sets a flag, [step] writes *)
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set t.sig_dump true))

let request_drain t =
  if not t.draining then begin
    (* give parked reroutes their last chance on live workers before the
       drain frames go out *)
    flush_pending t ~force:true;
    t.draining <- true;
    Array.iter
      (fun s ->
         if s.s_state = Up && not s.s_drain_sent then begin
           s.s_drain_sent <- true;
           match Proto.write s.s_fd Proto.Drain with
           | () -> ()
           | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
             ->
             slot_died t s ~reason:"write failed"
         end)
      t.slots;
    (* jobs that were parked because no worker would take them can no
       longer be rerouted: answer them *)
    flush_pending t ~force:true
  end

let drained t =
  t.pending = []
  && Array.for_all
       (fun s -> s.s_state <> Up && Hashtbl.length s.s_inflight = 0)
       t.slots

let await_drained t =
  request_drain t;
  let deadline =
    now t +. Option.value ~default:60.0 t.cfg.service.Service.drain_grace
            +. 30.0
  in
  while (not (drained t)) && now t < deadline do
    pump t ~timeout:0.1;
    (* during drain a crashed worker's jobs are failed directly, but new
       drain frames are never sent to respawns (none happen: respawn_due
       is a no-op while draining) *)
    Array.iter
      (fun s ->
         if s.s_state = Up && not s.s_drain_sent then begin
           s.s_drain_sent <- true;
           try Proto.write s.s_fd Proto.Drain
           with Unix.Unix_error _ -> slot_died t s ~reason:"write failed"
         end)
      t.slots
  done;
  (* hard stop for anything that outlived the grace *)
  Array.iter
    (fun s ->
       if s.s_state = Up then slot_died t s ~reason:"drain timeout")
    t.slots;
  flush_pending t ~force:true;
  Array.iter (fun s -> reap t s) t.slots

(* ------------------------------------------------------------------ *)
(* Health                                                             *)
(* ------------------------------------------------------------------ *)

type worker_health = {
  wh_index : int;
  wh_pid : int;
  wh_up : bool;
  wh_crashes : int;                (** consecutive, at snapshot time *)
  wh_spawns : int;
  wh_health : Service.health option;
}

type health = {
  ch_uptime : float;
  ch_size : int;
  ch_submitted : int;
  ch_completed : int;
  ch_degraded : int;
  ch_failed : int;
  ch_rejected : int;
  ch_shed : int;
  ch_rejected_full : int;
  ch_crashes : int;
  ch_respawns : int;
  ch_rerouted : int;
  ch_crash_failed : int;
  ch_workers : worker_health list;
}

let health t =
  { ch_uptime = now t -. t.started_at;
    ch_size = t.cfg.size;
    ch_submitted = t.n_submitted;
    ch_completed = t.n_completed;
    ch_degraded = t.n_degraded;
    ch_failed = t.n_failed;
    ch_rejected = t.n_rejected;
    ch_shed = t.n_shed;
    ch_rejected_full = t.n_rejected_full;
    ch_crashes = t.n_crashes;
    ch_respawns = t.n_respawns;
    ch_rerouted = t.n_rerouted;
    ch_crash_failed = t.n_crash_failed;
    ch_workers =
      Array.to_list t.slots
      |> List.map (fun s ->
        { wh_index = s.s_index; wh_pid = s.s_pid;
          wh_up = (s.s_state = Up); wh_crashes = s.s_crashes;
          wh_spawns = s.s_spawns;
          wh_health =
            (* the final drain snapshot when there is one, else the most
               recent interim answer to an admin [Health_req] *)
            (match s.s_health with
             | Some _ as h -> h
             | None -> s.s_admin_health) }) }

(** Same promise as the single-process service: clean when no admitted
    job was shed and none was turned away by a full worker queue. Crash
    recovery (reroutes, respawns, even crash-failed jobs) does not make a
    drain unclean — those jobs got terminal answers. *)
let clean_drain h = h.ch_shed = 0 && h.ch_rejected_full = 0

let health_json (h : health) =
  Json.Obj
    [ ("event", Json.Str "health");
      ("cluster", Json.int h.ch_size);
      ("uptime", Json.seconds h.ch_uptime);
      ("submitted", Json.int h.ch_submitted);
      ("completed", Json.int h.ch_completed);
      ("degraded", Json.int h.ch_degraded);
      ("failed", Json.int h.ch_failed);
      ("rejected", Json.int h.ch_rejected);
      ("shed", Json.int h.ch_shed);
      ("rejected_full", Json.int h.ch_rejected_full);
      ("worker_crashes", Json.int h.ch_crashes);
      ("worker_respawns", Json.int h.ch_respawns);
      ("jobs_rerouted", Json.int h.ch_rerouted);
      ("jobs_crash_failed", Json.int h.ch_crash_failed);
      ("clean_drain", Json.Bool (clean_drain h));
      ("workers",
       Json.Arr
         (List.map
            (fun w ->
               Json.Obj
                 ([ ("worker", Json.int w.wh_index);
                    ("pid", Json.int w.wh_pid);
                    ("up", Json.Bool w.wh_up);
                    ("spawns", Json.int w.wh_spawns) ]
                  @
                  match w.wh_health with
                  | None -> []
                  | Some h -> [ ("health", Service.health_json h) ]))
            h.ch_workers)) ]

(* ------------------------------------------------------------------ *)
(* Admin channel: per-worker aggregation                              *)
(* ------------------------------------------------------------------ *)

let broadcast t m =
  Array.iter
    (fun s ->
       if s.s_state = Up then
         match Proto.write s.s_fd m with
         | () -> ()
         | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
           ->
           slot_died t s ~reason:"write failed")
    t.slots

(* Ask every live worker [req] and pump until each answered ([got]) or
   ~[timeout] real seconds passed. The cleared mailboxes are restored
   from [saved] when a worker dies (or stalls) mid-collect, so the
   aggregate falls back to its last known snapshot instead of dropping
   the worker silently. *)
let collect t req ~clear ~restore ~got ~timeout =
  Array.iter clear t.slots;
  broadcast t req;
  let deadline = Unix.gettimeofday () +. timeout in
  let outstanding () =
    Array.exists (fun s -> s.s_state = Up && not (got s)) t.slots
  in
  while outstanding () && Unix.gettimeofday () < deadline do
    pump t ~timeout:0.02
  done;
  Array.iteri (fun i s -> if not (got s) then restore i s) t.slots

(** Aggregated health with interim per-worker snapshots refreshed over
    the pipes — the live counterpart of the final drain snapshot. *)
let admin_health ?(timeout = 1.0) t =
  let saved = Array.map (fun s -> s.s_admin_health) t.slots in
  collect t Proto.Health_req
    ~clear:(fun s -> s.s_admin_health <- None)
    ~restore:(fun i s -> s.s_admin_health <- saved.(i))
    ~got:(fun s -> s.s_admin_health <> None)
    ~timeout;
  health t

(** The coordinator's own telemetry registry merged with a fresh
    [Metrics] snapshot from every live worker (counters and gauges sum,
    histograms merge bucket-wise). *)
let admin_metrics ?(timeout = 1.0) t =
  let saved = Array.map (fun s -> s.s_admin_metrics) t.slots in
  collect t Proto.Metrics_req
    ~clear:(fun s -> s.s_admin_metrics <- None)
    ~restore:(fun i s -> s.s_admin_metrics <- saved.(i))
    ~got:(fun s -> s.s_admin_metrics <> None)
    ~timeout;
  let workers =
    Array.to_list t.slots |> List.filter_map (fun s -> s.s_admin_metrics)
  in
  Obs.Export.merge (Obs.Telemetry.metrics () :: workers)

(* Fresh [Dump] replies where workers still answer; [merged_flight]
   falls back to the on-disk snapshot files for the rest. *)
let admin_dump ?(timeout = 1.0) t =
  let saved = Array.map (fun s -> s.s_admin_dump) t.slots in
  collect t Proto.Dump_req
    ~clear:(fun s -> s.s_admin_dump <- None)
    ~restore:(fun i s -> s.s_admin_dump <- saved.(i))
    ~got:(fun s -> s.s_admin_dump <> None)
    ~timeout;
  flight_dump t ~cause:"admin"

(* ------------------------------------------------------------------ *)
(* Trace merging                                                      *)
(* ------------------------------------------------------------------ *)

let merged_trace t =
  let own = splice_events ~pid:1 (Obs.Telemetry.trace_json ()) in
  let workers =
    Array.to_list t.slots
    |> List.map (fun s ->
      match worker_trace_file t.cfg s.s_index with
      | None -> None
      | Some path ->
        (match Io.read_file path with
         | json -> splice_events ~pid:(s.s_index + 2) json
         | exception (Unix.Unix_error _ | Sys_error _) -> None))
  in
  splice_docs (own :: workers)

let write_merged_trace t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (merged_trace t))

(* ------------------------------------------------------------------ *)
(* Serving                                                            *)
(* ------------------------------------------------------------------ *)

let serve ?admin t jobs =
  install_signals t;
  Transport.serve ?admin
    { Transport.handle =
        (fun line ~answer ->
          Service.handle_line
            ~malformed:(fun () -> t.n_rejected <- t.n_rejected + 1)
            (submit t) line ~answer;
          (* a submission writes into a worker's pipe and the worker
             answers on the same pipe: read its answers as a batch
             streams in, or both directions fill and block for good *)
          pump t ~timeout:0.0);
      record = event t;
      health = (fun () -> admin_health t);
      health_json;
      metrics = (fun () -> admin_metrics t);
      dump = (fun () -> admin_dump t);
      stop = (fun () -> Atomic.get t.sig_drain);
      drain = (fun () -> await_drained t; health t);
      fds = (fun () -> worker_fds t);
      step = step t;
      timeout = (fun () -> wake t ~timeout:0.05) }
    jobs
