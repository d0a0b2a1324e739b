(* The resilient analysis service: the zero-lost-jobs invariant under
   chaos (every submitted job reaches exactly one terminal state), the
   bounded queue's backpressure, the circuit-breaker state machine, the
   deterministic retry schedule, the memory watchdog's degradation, and
   graceful drain on SIGTERM. *)

open Core

let two_flows =
  {|class Cell { String v; }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        c.v = req.getParameter("x");
        resp.getWriter().println(c.v);
        Connection conn = DriverManager.getConnection("jdbc:db");
        Statement st = conn.createStatement();
        st.executeQuery(c.v);
      }
    }|}

(* A response collector that can block until all expected jobs are
   terminal, so tests can keep the service out of drain mode while work
   is still in flight (drain legitimately changes the retry policy). *)
module Collector = struct
  type t = {
    lock : Mutex.t;
    cond : Condition.t;
    mutable responses : Serve.Service.response list;
  }

  let create () =
    { lock = Mutex.create (); cond = Condition.create (); responses = [] }

  let respond t r =
    Mutex.lock t.lock;
    t.responses <- r :: t.responses;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock

  let await t n =
    Mutex.lock t.lock;
    while List.length t.responses < n do
      Condition.wait t.cond t.lock
    done;
    let rs = t.responses in
    Mutex.unlock t.lock;
    rs

  let find t id =
    Mutex.lock t.lock;
    let r =
      List.find_opt (fun r -> r.Serve.Service.rp_id = id) t.responses
    in
    Mutex.unlock t.lock;
    r
end

let service_config ?(workers = 2) ?(queue_cap = 256) ?(max_retries = 2)
    ?(seed = 7) ?(breaker_threshold = 5) ?(breaker_cooldown = 3600.0)
    ?mem_soft_limit_mb ?(sleep = Core.Io.sleepf) () =
  { Serve.Service.default_config with
    workers; queue_cap; max_retries; seed; breaker_threshold;
    breaker_cooldown; mem_soft_limit_mb; sleep }

(* Run [f] with a log sink installed and return its result with the
   lines it logged, parsed, oldest first. The sink runs under the log's
   lock, so lines from every worker domain land here in order. *)
let logged f =
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  let r = Fun.protect ~finally:(fun () -> Obs.Log.set_sink None) f in
  let parse l =
    match Obs.Json.parse l with
    | Ok j -> j
    | Error e -> Alcotest.failf "log line %S unparsable: %s" l e
  in
  (r, List.rev_map parse !lines)

(* The logged lines of one event. *)
let lines_of event lines =
  List.filter (fun j -> Obs.Json.str_member "event" j = Some event) lines

let field k j =
  match Obs.Json.str_member k j with
  | Some v -> v
  | None -> Alcotest.failf "log line without %S: %s" k (Obs.Json.to_string j)

let status_counts rs =
  List.fold_left
    (fun (c, d, r, f) (resp : Serve.Service.response) ->
       match resp.Serve.Service.rp_status with
       | Serve.Service.Completed -> (c + 1, d, r, f)
       | Serve.Service.Degraded -> (c, d + 1, r, f)
       | Serve.Service.Rejected -> (c, d, r + 1, f)
       | Serve.Service.Failed -> (c, d, r, f + 1))
    (0, 0, 0, 0) rs

(* ------------------------------------------------------------------ *)
(* Queue                                                              *)
(* ------------------------------------------------------------------ *)

let test_queue_bound () =
  let q = Serve.Queue.create ~cap:2 () in
  Alcotest.(check bool) "1st admitted" true
    (Serve.Queue.push q ~priority:1 "a" = Serve.Queue.Admitted);
  Alcotest.(check bool) "2nd admitted" true
    (Serve.Queue.push q ~priority:1 "b" = Serve.Queue.Admitted);
  Alcotest.(check bool) "3rd same-priority rejected" true
    (Serve.Queue.push q ~priority:1 "c" = Serve.Queue.Rejected_full);
  Alcotest.(check int) "rejection does not grow the queue" 2
    (Serve.Queue.length q)

let test_queue_shed_priority () =
  let q = Serve.Queue.create ~cap:2 () in
  ignore (Serve.Queue.push q ~priority:1 "old-low");
  ignore (Serve.Queue.push q ~priority:1 "young-low");
  (match Serve.Queue.push q ~priority:5 "vip" with
   | Serve.Queue.Admitted_shedding v ->
     Alcotest.(check string) "the oldest lower-priority entry is shed"
       "old-low" v
   | _ -> Alcotest.fail "expected Admitted_shedding");
  (* a second vip finds only equal-or-higher priorities left of the low
     class' one survivor *)
  (match Serve.Queue.push q ~priority:5 "vip2" with
   | Serve.Queue.Admitted_shedding v ->
     Alcotest.(check string) "remaining low entry is shed next"
       "young-low" v
   | _ -> Alcotest.fail "expected Admitted_shedding");
  Alcotest.(check bool) "equal priority never sheds" true
    (Serve.Queue.push q ~priority:5 "vip3" = Serve.Queue.Rejected_full)

let test_queue_pop_order () =
  let q = Serve.Queue.create ~cap:8 () in
  ignore (Serve.Queue.push q ~priority:1 "low1");
  ignore (Serve.Queue.push q ~priority:9 "high1");
  ignore (Serve.Queue.push q ~priority:1 "low2");
  ignore (Serve.Queue.push q ~priority:9 "high2");
  Serve.Queue.set_draining q;
  let order = List.init 4 (fun _ -> Option.get (Serve.Queue.pop q)) in
  Alcotest.(check (list string))
    "highest priority first, FIFO within a class"
    [ "high1"; "high2"; "low1"; "low2" ] order;
  Alcotest.(check bool) "drained empty queue pops None" true
    (Serve.Queue.pop q = None)

let test_queue_forced_push_bypasses_bound () =
  let q = Serve.Queue.create ~cap:1 () in
  ignore (Serve.Queue.push q ~priority:1 "a");
  Serve.Queue.push_forced q ~priority:1 "retry";
  Alcotest.(check int) "forced push exceeds the cap" 2
    (Serve.Queue.length q)

let test_queue_forced_entries_never_shed () =
  let q = Serve.Queue.create ~cap:1 () in
  ignore (Serve.Queue.push q ~priority:1 "a");
  Serve.Queue.push_forced q ~priority:1 "retry";
  (* over cap with a low-priority forced entry present: the ordinary
     entry is the victim, never the already-admitted retry *)
  (match Serve.Queue.push q ~priority:5 "vip" with
   | Serve.Queue.Admitted_shedding v ->
     Alcotest.(check string) "the ordinary entry is shed, not the retry"
       "a" v
   | _ -> Alcotest.fail "expected Admitted_shedding");
  (* the exempt retry is the only strictly-lower-priority entry left:
     rather than shed it, the newcomer is rejected *)
  Alcotest.(check bool)
    "an exempt entry is never the victim; the push is rejected" true
    (Serve.Queue.push q ~priority:5 "vip2" = Serve.Queue.Rejected_full)

let test_queue_delayed_entry_waits () =
  let clock = ref 0.0 in
  let q =
    Serve.Queue.create
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. Float.max d 1.0)
      ~cap:4 ()
  in
  Serve.Queue.push_forced q ~priority:9 ~delay:5.0 "retry";
  ignore (Serve.Queue.push q ~priority:1 "due");
  Alcotest.(check (option string))
    "a higher-priority delayed entry is skipped while not due"
    (Some "due") (Serve.Queue.pop q);
  Alcotest.(check (option string))
    "pop waits (via the injected sleep) until the retry is due"
    (Some "retry") (Serve.Queue.pop q);
  Alcotest.(check bool) "the wait advanced the clock past the delay" true
    (!clock >= 5.0)

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                    *)
(* ------------------------------------------------------------------ *)

let fake_clock start =
  let t = ref start in
  ((fun () -> !t), fun d -> t := !t +. d)

let test_breaker_opens_at_threshold () =
  let now, _ = fake_clock 0.0 in
  let b = Serve.Breaker.create ~now ~threshold:3 ~cooldown:10.0 () in
  Alcotest.(check bool) "closed admits" true
    (Serve.Breaker.acquire b "app" = `Proceed);
  Alcotest.(check bool) "1st failure does not open" false
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "2nd failure does not open" false
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "3rd consecutive failure opens" true
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "open fails fast" true
    (Serve.Breaker.acquire b "app" = `Fast_fail);
  Alcotest.(check bool) "other keys are unaffected" true
    (Serve.Breaker.acquire b "other" = `Proceed)

let test_breaker_success_resets_count () =
  let now, _ = fake_clock 0.0 in
  let b = Serve.Breaker.create ~now ~threshold:3 ~cooldown:10.0 () in
  ignore (Serve.Breaker.failure b "app");
  ignore (Serve.Breaker.failure b "app");
  Serve.Breaker.success b "app";
  Alcotest.(check int) "success resets consecutive failures" 0
    (Serve.Breaker.consecutive_failures b "app");
  Alcotest.(check bool) "1st failure of the new streak stays closed" false
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "2nd failure of the new streak stays closed" false
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "3rd failure of the new streak opens" true
    (Serve.Breaker.failure b "app")

let test_breaker_half_open_probe_closes () =
  let now, advance = fake_clock 100.0 in
  let b = Serve.Breaker.create ~now ~threshold:2 ~cooldown:10.0 () in
  ignore (Serve.Breaker.failure b "app");
  ignore (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "open before cooldown" true
    (Serve.Breaker.acquire b "app" = `Fast_fail);
  advance 10.0;
  Alcotest.(check bool) "after cooldown one probe is admitted" true
    (Serve.Breaker.acquire b "app" = `Probe);
  Alcotest.(check bool) "while the probe is in flight others fail fast"
    true
    (Serve.Breaker.acquire b "app" = `Fast_fail);
  Serve.Breaker.success b "app";
  Alcotest.(check bool) "probe success closes the breaker" true
    (Serve.Breaker.state b "app" = Serve.Breaker.Closed);
  Alcotest.(check bool) "closed admits again" true
    (Serve.Breaker.acquire b "app" = `Proceed)

let test_breaker_half_open_failure_reopens () =
  let now, advance = fake_clock 0.0 in
  let transitions = ref [] in
  let b =
    Serve.Breaker.create ~now
      ~on_transition:(fun ~key:_ st ->
        transitions := Serve.Breaker.state_name st :: !transitions)
      ~threshold:2 ~cooldown:10.0 ()
  in
  ignore (Serve.Breaker.failure b "app");
  ignore (Serve.Breaker.failure b "app");
  advance 10.0;
  Alcotest.(check bool) "probe admitted" true
    (Serve.Breaker.acquire b "app" = `Probe);
  Alcotest.(check bool) "probe failure re-opens" true
    (Serve.Breaker.failure b "app");
  Alcotest.(check bool) "re-opened fails fast" true
    (Serve.Breaker.acquire b "app" = `Fast_fail);
  advance 10.0;
  Alcotest.(check bool) "a second cooldown admits another probe" true
    (Serve.Breaker.acquire b "app" = `Probe);
  Serve.Breaker.success b "app";
  Alcotest.(check (list string))
    "transition history closed->open->half-open->open->half-open->closed"
    [ "open"; "half-open"; "open"; "half-open"; "closed" ]
    (List.rev !transitions)

(* The half-open probe slot is owned by a job id: the probe's own retry
   (after a transient failure) is re-admitted instead of fast-failed, so
   the breaker can never wedge in half-open. *)
let test_breaker_probe_owner_readmitted () =
  let now, advance = fake_clock 0.0 in
  let b = Serve.Breaker.create ~now ~threshold:2 ~cooldown:10.0 () in
  ignore (Serve.Breaker.failure b "app");
  ignore (Serve.Breaker.failure b "app");
  advance 10.0;
  Alcotest.(check bool) "job p takes the probe slot" true
    (Serve.Breaker.acquire ~job:"p" b "app" = `Probe);
  Alcotest.(check bool) "another job still fails fast" true
    (Serve.Breaker.acquire ~job:"q" b "app" = `Fast_fail);
  Alcotest.(check bool) "p's retry reclaims its probe slot" true
    (Serve.Breaker.acquire ~job:"p" b "app" = `Probe);
  Alcotest.(check bool) "an ownerless acquire fails fast" true
    (Serve.Breaker.acquire b "app" = `Fast_fail);
  Serve.Breaker.success b "app";
  Alcotest.(check bool) "the retried probe's success closes" true
    (Serve.Breaker.state b "app" = Serve.Breaker.Closed)

(* ------------------------------------------------------------------ *)
(* Retry schedule determinism                                         *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  let cfg = { (service_config ()) with Serve.Service.seed = 13 } in
  let schedule id =
    List.init 4 (fun i ->
        Serve.Service.backoff_delay cfg ~id ~attempt:(i + 1))
  in
  Alcotest.(check (list (float 0.0)))
    "identical (seed, id, attempt) gives an identical schedule"
    (schedule "job-1") (schedule "job-1");
  Alcotest.(check bool) "different jobs get different jitter" true
    (schedule "job-1" <> schedule "job-2");
  let cfg' = { cfg with Serve.Service.seed = 14 } in
  Alcotest.(check bool) "a different seed changes the schedule" true
    (schedule "job-1"
     <> List.init 4 (fun i ->
            Serve.Service.backoff_delay cfg' ~id:"job-1" ~attempt:(i + 1)));
  List.iteri
    (fun i d ->
       Alcotest.(check bool)
         (Printf.sprintf "attempt %d delay within [base/2, max]" (i + 1))
         true
         (d >= cfg.Serve.Service.retry_base *. 0.5
          && d <= cfg.Serve.Service.retry_max_delay))
    (schedule "job-1")

(* The schedule actually executed by the service: which jobs retried, at
   which attempts, with which backoff delays (read back from the [delay]
   field of the [diag.job-retried] log lines — the delay no longer blocks
   a worker, it is carried by the re-queued entry). Must be identical
   across runs and across worker-pool sizes. *)
let executed_schedule ~workers ~seed n =
  Fault.reset ();
  let ids = List.init n (fun i -> Printf.sprintf "flaky-%d" i) in
  List.iter
    (fun id ->
       Fault.arm ~once:true ~action:Fault.Fail_transient (Fault.site_job id)
         ~after:1)
    ids;
  let t =
    Serve.Service.create ~config:(service_config ~workers ~seed ()) ()
  in
  let col = Collector.create () in
  let rs, lines =
    logged @@ fun () ->
    List.iter
      (fun id ->
         Serve.Service.submit t
           (Serve.Service.request ~source:two_flows id)
           ~respond:(Collector.respond col))
      ids;
    let rs = Collector.await col n in
    Serve.Service.await_drained t;
    rs
  in
  Fault.reset ();
  let retried =
    List.map
      (fun (r : Serve.Service.response) ->
         (r.Serve.Service.rp_id, r.Serve.Service.rp_attempts,
          r.Serve.Service.rp_status))
      rs
    |> List.sort compare
  in
  let delays =
    List.map
      (fun j -> float_of_string (field "delay" j))
      (lines_of "diag.job-retried" lines)
  in
  (retried, List.sort compare delays)

let test_retry_schedule_reproducible () =
  let a = executed_schedule ~workers:1 ~seed:21 6 in
  let b = executed_schedule ~workers:1 ~seed:21 6 in
  Alcotest.(check bool) "same seed, same run" true (a = b);
  let c = executed_schedule ~workers:4 ~seed:21 6 in
  Alcotest.(check bool) "identical with a 4-domain worker pool" true
    (a = c);
  let retried, delays = a in
  List.iter
    (fun (id, attempts, status) ->
       Alcotest.(check int) (id ^ " ran exactly twice") 2 attempts;
       Alcotest.(check bool) (id ^ " completed after its retry") true
         (status = Serve.Service.Completed))
    retried;
  (* each executed delay is the pure backoff function's value *)
  let cfg = service_config ~seed:21 () in
  let expected =
    List.map
      (fun i ->
         Serve.Service.backoff_delay cfg
           ~id:(Printf.sprintf "flaky-%d" i) ~attempt:1)
      [ 0; 1; 2; 3; 4; 5 ]
    |> List.sort compare
  in
  Alcotest.(check (list (float 0.0)))
    "executed delays match the pure schedule" expected delays

(* ------------------------------------------------------------------ *)
(* Chaos: the zero-lost-jobs invariant                                *)
(* ------------------------------------------------------------------ *)

(* >= 100 jobs with fault injections armed: valid jobs, stalled jobs,
   permanently crashing jobs against one app (tripping its breaker),
   transiently flaky jobs, and over-deadline jobs. Every job must reach
   exactly one terminal state, deterministically at the fixed seed. *)
let test_chaos_no_lost_jobs () =
  Fault.reset ();
  let workers = 4 and threshold = 5 in
  let valid = List.init 45 (fun i -> Printf.sprintf "valid-%d" i) in
  let stalled = List.init 5 (fun i -> Printf.sprintf "stalled-%d" i) in
  let crashers = List.init 15 (fun i -> Printf.sprintf "crash-%d" i) in
  let flaky = List.init 15 (fun i -> Printf.sprintf "flaky-%d" i) in
  let late = List.init 20 (fun i -> Printf.sprintf "late-%d" i) in
  List.iter
    (fun id ->
       Fault.arm ~once:true ~action:(Fault.Stall 0.01) (Fault.site_job id)
         ~after:1)
    stalled;
  List.iter
    (fun id ->
       (* every execution fails permanently: these trip the breaker *)
       Fault.arm ~once:false ~action:Fault.Fail (Fault.site_job id)
         ~after:1)
    crashers;
  List.iter
    (fun id ->
       Fault.arm ~once:true ~action:Fault.Fail_transient (Fault.site_job id)
         ~after:1)
    flaky;
  (* triage fault sites are global (not per-job): whichever job's pre-filter
     run ticks them third and fifth degrades to the unfiltered pipeline and
     still terminates — a crashing triage must never fail a job *)
  Fault.arm ~once:true Fault.site_triage_infer ~after:3;
  Fault.arm ~once:true Fault.site_triage_filter ~after:5;
  let t =
    Serve.Service.create
      ~config:
        (service_config ~workers ~breaker_threshold:threshold ~seed:7 ())
      ()
  in
  let col = Collector.create () in
  let submit ?app ?source ?deadline id =
    Serve.Service.submit t
      (Serve.Service.request ?app ?source ?deadline id)
      ~respond:(Collector.respond col)
  in
  (* interleave the classes so every worker sees a mix *)
  List.iteri
    (fun i id ->
       submit ~source:two_flows id;
       (match List.nth_opt stalled (i / 9) with
        | Some s when i mod 9 = 0 -> submit ~source:two_flows s
        | _ -> ());
       if i < 15 then submit ~app:"BlueBlog" (List.nth crashers i);
       if i < 15 then submit ~source:two_flows (List.nth flaky i);
       if i < 20 then
         submit ~source:two_flows ~deadline:0.0 (List.nth late i))
    valid;
  let total = 45 + 5 + 15 + 15 + 20 in
  let rs = Collector.await col total in
  Serve.Service.await_drained t;
  Alcotest.(check bool) "both triage faults fired" true
    (Fault.fired Fault.site_triage_infer > 0
     && Fault.fired Fault.site_triage_filter > 0);
  Fault.reset ();
  (* exactly one terminal response per job *)
  Alcotest.(check int) "every job answered exactly once" total
    (List.length rs);
  let ids =
    List.sort_uniq String.compare
      (List.map (fun r -> r.Serve.Service.rp_id) rs)
  in
  Alcotest.(check int) "no duplicate terminal states" total
    (List.length ids);
  let completed, degraded, rejected, failed = status_counts rs in
  Alcotest.(check int) "all statuses are terminal" total
    (completed + degraded + rejected + failed);
  Alcotest.(check int) "nothing was rejected (queue far under cap)" 0
    rejected;
  (* per-class outcomes *)
  let status_of id =
    (Option.get (Collector.find col id)).Serve.Service.rp_status
  in
  (* a job whose pre-filter run absorbed one of the two armed triage
     faults terminates Degraded (unfiltered pipeline, full answer) — every
     other healthy job completes clean. Never a failure either way. *)
  let triage_degraded =
    List.filter
      (fun id -> status_of id = Serve.Service.Degraded)
      (valid @ stalled @ flaky)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most the two triage faults degraded a job (%d <= 2)"
       (List.length triage_degraded))
    true
    (List.length triage_degraded <= 2);
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " completed") true
         (match status_of id with
          | Serve.Service.Completed | Serve.Service.Degraded -> true
          | _ -> false))
    (valid @ stalled);
  List.iter
    (fun id ->
       let r = Option.get (Collector.find col id) in
       Alcotest.(check bool) (id ^ " completed after one retry") true
         (match r.Serve.Service.rp_status with
          | Serve.Service.Completed | Serve.Service.Degraded -> true
          | _ -> false);
       Alcotest.(check int) (id ^ " attempts") 2
         r.Serve.Service.rp_attempts)
    flaky;
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " failed terminally") true
         (status_of id = Serve.Service.Failed))
    crashers;
  List.iter
    (fun id ->
       Alcotest.(check bool) (id ^ " over-deadline is degraded or failed")
         true
         (match status_of id with
          | Serve.Service.Degraded | Serve.Service.Failed -> true
          | _ -> false))
    late;
  (* the breaker capped the crasher app's executions: at most threshold
     failures open it, plus at most one in-flight execution per worker
     that acquired before the transition *)
  let executed_crashers =
    List.filter
      (fun id ->
         (Option.get (Collector.find col id)).Serve.Service.rp_reason
         <> "breaker_open")
      crashers
  in
  Alcotest.(check bool)
    (Printf.sprintf "breaker capped crasher executions (%d <= %d)"
       (List.length executed_crashers)
       (threshold + workers))
    true
    (List.length executed_crashers <= threshold + workers);
  let h = Serve.Service.health t in
  Alcotest.(check bool) "the crasher app's breaker opened" true
    (h.Serve.Service.h_breaker_opens >= 1);
  Alcotest.(check (list string)) "it is the only open breaker"
    [ "BlueBlog" ] h.Serve.Service.h_open_breakers;
  (* counter partition invariants *)
  Alcotest.(check int) "submitted = admitted + rejected"
    h.Serve.Service.h_submitted
    (h.Serve.Service.h_admitted + h.Serve.Service.h_rejected_full
     + h.Serve.Service.h_rejected_draining);
  Alcotest.(check int) "admitted = completed + degraded + failed + shed"
    h.Serve.Service.h_admitted
    (h.Serve.Service.h_completed + h.Serve.Service.h_degraded
     + h.Serve.Service.h_failed + h.Serve.Service.h_shed);
  Alcotest.(check int) "flaky jobs retried exactly once each" 15
    h.Serve.Service.h_retries;
  Alcotest.(check bool) "no shedding, no queue_full: a clean drain" true
    (Serve.Service.clean_drain h)

(* ------------------------------------------------------------------ *)
(* Backpressure at the service level                                  *)
(* ------------------------------------------------------------------ *)

let test_service_shed_and_queue_full () =
  Fault.reset ();
  (* one worker, blocked on a stalling job, so the queue is controllable *)
  Fault.arm ~once:true ~action:(Fault.Stall 0.5)
    (Fault.site_job "blocker") ~after:1;
  let t =
    Serve.Service.create
      ~config:(service_config ~workers:1 ~queue_cap:2 ())
      ()
  in
  let col = Collector.create () in
  let submit ?(priority = 1) id =
    Serve.Service.submit t
      (Serve.Service.request ~source:two_flows ~priority id)
      ~respond:(Collector.respond col)
  in
  submit "blocker";
  (* wait until the worker has popped the blocker (queue empty again) *)
  let rec wait_empty n =
    if n = 0 then Alcotest.fail "blocker never started"
    else if (Serve.Service.health t).Serve.Service.h_queue_depth > 0 then begin
      Core.Io.sleepf 0.005;
      wait_empty (n - 1)
    end
  in
  wait_empty 1000;
  submit ~priority:1 "low-1";
  submit ~priority:1 "low-2";
  (* cap reached: an equal-priority push is answered queue_full *)
  submit ~priority:1 "low-3";
  let r3 = Option.get (Collector.find col "low-3") in
  Alcotest.(check bool) "queue_full is an immediate rejection" true
    (r3.Serve.Service.rp_status = Serve.Service.Rejected);
  Alcotest.(check string) "with the queue_full reason" "queue_full"
    r3.Serve.Service.rp_reason;
  (* a higher-priority job sheds the oldest low-priority one instead *)
  submit ~priority:5 "vip";
  let shed = Option.get (Collector.find col "low-1") in
  Alcotest.(check string) "the shed victim is told why" "shed"
    shed.Serve.Service.rp_reason;
  Alcotest.(check bool) "shed response is terminal Rejected" true
    (shed.Serve.Service.rp_status = Serve.Service.Rejected);
  let rs = Collector.await col 5 in
  Serve.Service.await_drained t;
  Fault.reset ();
  let completed, _, rejected, _ = status_counts rs in
  Alcotest.(check int) "blocker, low-2 and vip completed" 3 completed;
  Alcotest.(check int) "low-1 (shed) and low-3 (full) rejected" 2 rejected;
  let h = Serve.Service.health t in
  Alcotest.(check int) "health counts the shed job" 1
    h.Serve.Service.h_shed;
  Alcotest.(check int) "health counts the queue_full rejection" 1
    h.Serve.Service.h_rejected_full;
  Alcotest.(check bool) "an overloaded run is not a clean drain" false
    (Serve.Service.clean_drain h)

(* ------------------------------------------------------------------ *)
(* Events: one log line each                                          *)
(* ------------------------------------------------------------------ *)

(* A service event leaves the process once, as its [diag.*] instant, and
   its log line carries the event's fields by name: a transient retry, a
   shed and a breaker opening each log exactly one line, and no
   string-named duplicate ([serve.retry], [serve.shed], [serve.breaker])
   appears beside it. *)
let test_one_log_line_per_event () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm ~action:(Fault.Stall 0.3) (Fault.site_job "blocker") ~after:1;
  Fault.arm ~action:Fault.Fail_transient (Fault.site_job "flaky") ~after:1;
  Fault.arm ~action:Fault.Fail (Fault.site_job "crash") ~after:1;
  let cfg = service_config ~workers:1 ~queue_cap:1 ~breaker_threshold:1 () in
  let t = Serve.Service.create ~config:cfg () in
  let col = Collector.create () in
  let submit ?(priority = 1) ?app id =
    Serve.Service.submit t
      (Serve.Service.request ?app ~source:two_flows ~scale:0.02 ~priority id)
      ~respond:(Collector.respond col)
  in
  let (), lines =
    logged @@ fun () ->
    (* one worker held by the blocker: a full queue sheds its
       lower-priority entry for the newcomer *)
    submit "blocker";
    let rec wait_started n =
      if n = 0 then Alcotest.fail "blocker never started"
      else if (Serve.Service.health t).Serve.Service.h_queue_depth > 0
      then begin
        Core.Io.sleepf 0.005;
        wait_started (n - 1)
      end
    in
    wait_started 1000;
    submit "low";
    submit ~priority:5 "vip";
    ignore (Collector.await col 3);
    submit "flaky";
    ignore (Collector.await col 4);
    (* the app's key, not the inline source's, takes the failure *)
    submit ~app:"BlueBlog" "crash";
    ignore (Collector.await col 5);
    Serve.Service.await_drained t
  in
  let one event =
    match lines_of event lines with
    | [ j ] -> j
    | js -> Alcotest.failf "%d %s lines, expected one" (List.length js) event
  in
  let retry = one "diag.job-retried" in
  Alcotest.(check string) "retry: job" "flaky" (field "job" retry);
  Alcotest.(check string) "retry: attempt" "1" (field "attempt" retry);
  Alcotest.(check (float 0.0)) "retry: delay, exactly"
    (Serve.Service.backoff_delay cfg ~id:"flaky" ~attempt:1)
    (float_of_string (field "delay" retry));
  Alcotest.(check bool) "retry: reason" true (field "reason" retry <> "");
  let shed = one "diag.job-shed" in
  Alcotest.(check string) "shed: job" "low" (field "job" shed);
  Alcotest.(check string) "shed: priority" "1" (field "priority" shed);
  let breaker = one "diag.breaker-transition" in
  Alcotest.(check string) "breaker: key" "BlueBlog" (field "key" breaker);
  Alcotest.(check string) "breaker: state" "open" (field "state" breaker);
  List.iter
    (fun event ->
       Alcotest.(check int) ("no " ^ event ^ " line") 0
         (List.length (lines_of event lines)))
    [ "serve.retry"; "serve.shed"; "serve.breaker" ];
  Alcotest.(check int) "health counts the three events" 3
    (Serve.Service.health t).Serve.Service.h_events

(* ------------------------------------------------------------------ *)
(* Breaker integration: cooldown probe at the service level           *)
(* ------------------------------------------------------------------ *)

let test_service_breaker_recovers () =
  Fault.reset ();
  (* crash the app's first three executions, then let it heal; cooldown
     0 admits a half-open probe immediately after the breaker opens *)
  let t =
    Serve.Service.create
      ~config:
        (service_config ~workers:1 ~breaker_threshold:3
           ~breaker_cooldown:0.0 ())
      ()
  in
  let col = Collector.create () in
  let submit id =
    Serve.Service.submit t
      (Serve.Service.request ~app:"BlueBlog" ~scale:0.02 id)
      ~respond:(Collector.respond col)
  in
  let crash = [ "c1"; "c2"; "c3" ] in
  List.iter
    (fun id ->
       Fault.arm ~once:false ~action:Fault.Fail (Fault.site_job id)
         ~after:1)
    crash;
  List.iter submit crash;
  ignore (Collector.await col 3);
  let h = Serve.Service.health t in
  Alcotest.(check bool) "breaker opened after 3 terminal failures" true
    (h.Serve.Service.h_breaker_opens >= 1);
  (* healthy job for the same app: admitted as the half-open probe *)
  submit "probe";
  ignore (Collector.await col 4);
  let probe = Option.get (Collector.find col "probe") in
  Alcotest.(check bool) "the probe ran and completed" true
    (probe.Serve.Service.rp_status = Serve.Service.Completed);
  let h = Serve.Service.health t in
  Alcotest.(check (list string)) "its success closed the breaker" []
    h.Serve.Service.h_open_breakers;
  Serve.Service.await_drained t;
  Fault.reset ()

(* Regression: a half-open probe whose execution fails *transiently* is
   retried; its re-execution must be re-admitted as the probe (not
   fast-failed), and its eventual success must close the breaker. Before
   probe-slot ownership this wedged the key in half-open forever. *)
let test_service_probe_transient_retry_recovers () =
  Fault.reset ();
  let t =
    Serve.Service.create
      ~config:
        (service_config ~workers:1 ~breaker_threshold:2
           ~breaker_cooldown:0.0 ())
      ()
  in
  let col = Collector.create () in
  let submit id =
    Serve.Service.submit t
      (Serve.Service.request ~app:"BlueBlog" ~scale:0.02 id)
      ~respond:(Collector.respond col)
  in
  let crash = [ "c1"; "c2" ] in
  List.iter
    (fun id ->
       Fault.arm ~once:false ~action:Fault.Fail (Fault.site_job id)
         ~after:1)
    crash;
  List.iter submit crash;
  ignore (Collector.await col 2);
  Alcotest.(check (list string)) "breaker open before the probe"
    [ "BlueBlog" ]
    (Serve.Service.health t).Serve.Service.h_open_breakers;
  (* the probe's first execution fails transiently, its retry succeeds *)
  Fault.arm ~once:true ~action:Fault.Fail_transient
    (Fault.site_job "probe") ~after:1;
  submit "probe";
  ignore (Collector.await col 3);
  let probe = Option.get (Collector.find col "probe") in
  Alcotest.(check bool) "the retried probe completed" true
    (probe.Serve.Service.rp_status = Serve.Service.Completed);
  Alcotest.(check int) "after exactly two executions" 2
    probe.Serve.Service.rp_attempts;
  Alcotest.(check (list string)) "and its success closed the breaker" []
    (Serve.Service.health t).Serve.Service.h_open_breakers;
  (* the key keeps working: no wedged half-open fast-fails *)
  submit "after";
  ignore (Collector.await col 4);
  Alcotest.(check bool) "subsequent jobs for the key run normally" true
    ((Option.get (Collector.find col "after")).Serve.Service.rp_status
     = Serve.Service.Completed);
  Serve.Service.await_drained t;
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* Memory watchdog                                                    *)
(* ------------------------------------------------------------------ *)

let test_watchdog_levels () =
  let w = Serve.Watchdog.create ~max_level:3 ~soft_limit_mb:(Some 0) () in
  let events = ref [] in
  let on_event d = events := d :: !events in
  (* the heap is always over a 0 MB soft limit: one step per sample *)
  Alcotest.(check int) "first sample raises to 1" 1
    (Serve.Watchdog.sample ~on_event w);
  Alcotest.(check int) "second sample raises to 2" 2
    (Serve.Watchdog.sample ~on_event w);
  ignore (Serve.Watchdog.sample ~on_event w);
  Alcotest.(check int) "capped at max_level" 3
    (Serve.Watchdog.sample ~on_event w);
  Alcotest.(check int) "three level-change events" 3
    (List.length
       (List.filter
          (function
            | Diagnostics.Resource_pressure _ -> true
            | _ -> false)
          !events));
  let disabled = Serve.Watchdog.create ~soft_limit_mb:None () in
  Alcotest.(check int) "no soft limit, no pressure" 0
    (Serve.Watchdog.sample disabled)

(* A scripted heap profile drives every transition of the level machine:
   up at [mb >= limit], hold inside the hysteresis band
   [3/4·limit, limit), down below it, full recovery to 0. *)
let test_watchdog_hysteresis () =
  let heap = ref 0 in
  let w =
    Serve.Watchdog.create ~max_level:4 ~heap:(fun () -> !heap)
      ~soft_limit_mb:(Some 100) ()
  in
  let events = ref 0 in
  let on_event (_ : Diagnostics.degradation) = incr events in
  let sample mb = heap := mb; Serve.Watchdog.sample ~on_event w in
  Alcotest.(check int) "under the limit: stays 0" 0 (sample 50);
  Alcotest.(check int) "at the limit: up to 1" 1 (sample 100);
  Alcotest.(check int) "over the limit: up to 2" 2 (sample 140);
  Alcotest.(check int) "hysteresis band holds the level" 2 (sample 90);
  Alcotest.(check int) "band lower edge still holds" 2 (sample 75);
  Alcotest.(check int) "below three quarters: down to 1" 1 (sample 74);
  Alcotest.(check int) "recovery continues: down to 0" 0 (sample 10);
  Alcotest.(check int) "and stays recovered" 0 (sample 10);
  Alcotest.(check int) "one level change per sample, even from far over"
    1 (sample 10_000);
  Alcotest.(check int) "level reads back" 1 (Serve.Watchdog.level w);
  Alcotest.(check int) "five level-change events in all" 5 !events

let test_watchdog_degrades_config () =
  let base = Config.preset ~scale:1.0 Config.Hybrid_unbounded in
  let s0, c0 = Serve.Watchdog.degrade_config ~scale:1.0 base 0 in
  Alcotest.(check bool) "level 0 keeps the config" true
    (s0 = 1.0 && c0 = base);
  let _, c2 = Serve.Watchdog.degrade_config ~scale:1.0 base 2 in
  Alcotest.(check bool) "level 2 is a strictly different rung" true
    (c2 <> base);
  (* far past the ladder's end: clamps to its strictest rung *)
  let s_last, c_last = Serve.Watchdog.degrade_config ~scale:1.0 base 99 in
  let ladder = Config.degradation_ladder ~scale:1.0 base in
  Alcotest.(check bool) "overflow clamps to the last rung" true
    ((s_last, c_last) = List.nth ladder (List.length ladder - 1))

let test_service_degrades_under_pressure () =
  Fault.reset ();
  (* soft limit 0: every job runs at pressure > 0 and must say so. The
     level climbs one rung per sampled job, so with one worker the later
     jobs bottom out on rung zero and answer with a triage verdict. *)
  let t =
    Serve.Service.create
      ~config:(service_config ~workers:1 ~mem_soft_limit_mb:0 ())
      ()
  in
  let col = Collector.create () in
  let ids = List.init 8 (fun i -> Printf.sprintf "p%d" (i + 1)) in
  List.iter
    (fun id ->
       Serve.Service.submit t
         (Serve.Service.request ~source:two_flows id)
         ~respond:(Collector.respond col))
    ids;
  let rs = Collector.await col (List.length ids) in
  Serve.Service.await_drained t;
  List.iter
    (fun (r : Serve.Service.response) ->
       Alcotest.(check bool)
         (r.Serve.Service.rp_id ^ " degraded under memory pressure") true
         (r.Serve.Service.rp_status = Serve.Service.Degraded))
    rs;
  (* pressure bottoms out on rung zero: type-only answers, never a
     failure — the zero-lost-jobs floor under memory exhaustion *)
  let type_only =
    List.filter
      (fun (r : Serve.Service.response) ->
         r.Serve.Service.rp_verdict = Some "type_only")
      rs
  in
  Alcotest.(check bool) "later jobs answered from rung zero" true
    (type_only <> []);
  List.iter
    (fun (r : Serve.Service.response) ->
       Alcotest.(check string)
         (r.Serve.Service.rp_id ^ " reason names the triage floor")
         "type_only" r.Serve.Service.rp_reason)
    type_only;
  let h = Serve.Service.health t in
  Alcotest.(check bool) "health reports the pressure level" true
    (h.Serve.Service.h_pressure > 0);
  Alcotest.(check string) "health names the triage rung" "triage"
    h.Serve.Service.h_rung

(* ------------------------------------------------------------------ *)
(* The service's cache path                                           *)
(* ------------------------------------------------------------------ *)

let cached_service ?mem_soft_limit_mb dir =
  Serve.Service.create
    ~config:
      { (service_config ~workers:1 ?mem_soft_limit_mb ()) with
        Serve.Service.cache_dir = Some dir }
    ()

(* submit one request and wait for its terminal response *)
let answer t rq =
  let col = Collector.create () in
  Serve.Service.submit t rq ~respond:(Collector.respond col);
  List.hd (Collector.await col 1)

let with_counters f =
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
    f

(* The result entries in the store the service kept for [rq], which it
   names by the request's job key (a ':' becomes '_' in the file name);
   the store file must exist, so an empty answer means the run committed
   without feeding the tier. *)
let result_entries dir rq =
  let app = Serve.Service.job_key rq in
  let file = String.map (function ':' -> '_' | c -> c) app ^ ".tajcache" in
  let path = Filename.concat dir file in
  Alcotest.(check bool) (app ^ ": store committed") true
    (Sys.file_exists path);
  Cache.Store.bindings (Cache.Store.load path) ~tier:"result"

let test_service_cache_answers_repeat () =
  with_counters @@ fun () ->
  Test_incremental.with_dir @@ fun dir ->
  let rq = Serve.Service.request ~app:"BlueBlog" ~scale:0.02 in
  let check_hit ~what ~hits ~issues (r : Serve.Service.response) =
    Alcotest.(check bool) (what ^ ": completed") true
      (r.Serve.Service.rp_status = Serve.Service.Completed);
    Alcotest.(check int) (what ^ ": answered from the result tier") hits
      (Test_incremental.counter_value "cache.result.hit");
    Alcotest.(check int) (what ^ ": same issues") issues
      r.Serve.Service.rp_issues
  in
  let t = cached_service dir in
  let first = answer t (rq "first") in
  let issues = first.Serve.Service.rp_issues in
  check_hit ~what:"first" ~hits:0 ~issues first;
  check_hit ~what:"second" ~hits:1 ~issues (answer t (rq "second"));
  Serve.Service.await_drained t;
  (* a fresh service over the same directory starts warm *)
  let t = cached_service dir in
  check_hit ~what:"after restart" ~hits:2 ~issues (answer t (rq "third"));
  Serve.Service.await_drained t

(* A memory-pressure run answers Degraded even when it completes, so it
   must neither consult nor feed the result tier. *)
let test_service_cache_pressure_not_stored () =
  with_counters @@ fun () ->
  Test_incremental.with_dir @@ fun dir ->
  let t = cached_service ~mem_soft_limit_mb:0 dir in
  let rq = Serve.Service.request ~source:two_flows "pressed" in
  let r = answer t rq in
  Serve.Service.await_drained t;
  Alcotest.(check string) "completed under pressure" "memory_pressure"
    r.Serve.Service.rp_reason;
  Alcotest.(check int) "the tier was not consulted" 0
    (Test_incremental.counter_value "cache.result.miss");
  Alcotest.(check int) "no result entry" 0
    (List.length (result_entries dir rq))

(* Degraded answers are never stored: a rung-zero triage answer and a run
   that completed only after a contained fault walked it down the
   ladder. *)
let test_service_cache_degraded_not_stored () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Test_incremental.with_dir @@ fun dir ->
  let t = cached_service dir in
  let triage_rq =
    Serve.Service.request ~source:two_flows ~algorithm:Config.Type_triage
      "triage"
  in
  let triage = answer t triage_rq in
  Alcotest.(check (option string)) "answered at rung zero"
    (Some "type_only") triage.Serve.Service.rp_verdict;
  Fault.arm Fault.site_andersen ~after:1;
  let faulted_rq = Serve.Service.request ~source:two_flows "faulted" in
  let faulted = answer t faulted_rq in
  Serve.Service.await_drained t;
  Alcotest.(check string) "completed degraded" "supervisor_degraded"
    faulted.Serve.Service.rp_reason;
  List.iter
    (fun (rq : Serve.Service.request) ->
       Alcotest.(check int) (rq.Serve.Service.rq_id ^ ": no result entry") 0
         (List.length (result_entries dir rq)))
    [ triage_rq; faulted_rq ]

(* The store an inline request opens is named by its source, not its
   request id, so a repeated source answers from the result tier under
   any id, also after a restart; another descriptor is another input. *)
let test_service_cache_repeated_source () =
  with_counters @@ fun () ->
  Test_incremental.with_dir @@ fun dir ->
  let rq = Serve.Service.request ~source:two_flows in
  let check_answer ~what ~hits ~issues (r : Serve.Service.response) =
    Alcotest.(check bool) (what ^ ": completed") true
      (r.Serve.Service.rp_status = Serve.Service.Completed);
    Alcotest.(check int) (what ^ ": result-tier hits") hits
      (Test_incremental.counter_value "cache.result.hit");
    Alcotest.(check int) (what ^ ": same issues") issues
      r.Serve.Service.rp_issues
  in
  let t = cached_service dir in
  let a = answer t (rq "a") in
  let issues = a.Serve.Service.rp_issues in
  check_answer ~what:"a" ~hits:0 ~issues a;
  check_answer ~what:"b, the same source" ~hits:1 ~issues (answer t (rq "b"));
  ignore
    (answer t
       (Serve.Service.request ~source:two_flows ~descriptor:"servlet Page"
          "c"));
  Alcotest.(check int) "c, another descriptor: misses" 1
    (Test_incremental.counter_value "cache.result.hit");
  Serve.Service.await_drained t;
  let t = cached_service dir in
  check_answer ~what:"d, after restart" ~hits:2 ~issues (answer t (rq "d"));
  Serve.Service.await_drained t

(* A result-tier hit answers what an uncached service answers, every
   field but the timing: the judge's mismatched count included, warm,
   after a restart, and when a named app steps to another scale and back
   in one service. *)
let test_service_cache_whole_response () =
  with_counters @@ fun () ->
  Test_incremental.with_dir @@ fun dir ->
  let blueblog scale id = Serve.Service.request ~app:"BlueBlog" ~scale id in
  let requests =
    [ (fun id ->
        Serve.Service.request ~app:"CtxForum" ~scale:0.02 ~contexts:true id);
      blueblog 0.02;
      (fun id -> Serve.Service.request ~source:two_flows ~contexts:true id) ]
  in
  let sent = ref 0 in
  let whole t rq =
    incr sent;
    let r = answer t (rq (Printf.sprintf "whole-%d" !sent)) in
    Obs.Json.to_string
      (Serve.Service.response_json
         { r with Serve.Service.rp_id = "-"; rp_seconds = 0.0 })
  in
  let answers t = List.map (whole t) requests in
  let hits () = Test_incremental.counter_value "cache.result.hit" in
  let uncached =
    Serve.Service.create ~config:(service_config ~workers:1 ()) ()
  in
  let reference = answers uncached in
  let reference_step = whole uncached (blueblog 0.03) in
  Serve.Service.await_drained uncached;
  let t = cached_service dir in
  let cold = answers t in
  let warm = answers t in
  let step = whole t (blueblog 0.03) in
  let before = hits () in
  let back = whole t (blueblog 0.02) in
  Alcotest.(check int) "the return to 0.02 hits" (before + 1) (hits ());
  Serve.Service.await_drained t;
  let t = cached_service dir in
  let restarted = answers t in
  Serve.Service.await_drained t;
  Alcotest.(check int) "warm, returning and restarted answers are hits" 7
    (hits ());
  Alcotest.(check bool) "the judge's count is on the cold answer" true
    (Obs.Json.num_member "mismatched"
       (Result.get_ok (Obs.Json.parse (List.hd cold)))
     <> None);
  Alcotest.(check (list string)) "cold answers are the uncached ones"
    reference cold;
  Alcotest.(check (list string)) "warm answers are the cold ones" cold warm;
  Alcotest.(check (list string)) "and so are the restarted ones" cold
    restarted;
  Alcotest.(check string) "the step to 0.03 answers as uncached"
    reference_step step;
  Alcotest.(check string) "the return to 0.02 answers as before"
    (List.nth reference 1) back

(* A named hit is looked up without generating the app: 30 hits on three
   pre-filled apps allocate under 16k minor words each over all domains,
   the first reload of each store included. Generating and digesting an
   app at the default scale on every hit costs several times that. *)
let test_service_named_hit_allocation () =
  Test_incremental.with_dir @@ fun dir ->
  let apps = [| "A"; "Ginp"; "SPLC" |] in
  let completed what (r : Serve.Service.response) =
    Alcotest.(check bool) (what ^ ": completed") true
      (r.Serve.Service.rp_status = Serve.Service.Completed)
  in
  let t = cached_service dir in
  Array.iter
    (fun app ->
       completed app
         (answer t (Serve.Service.request ~app ("fill-" ^ app))))
    apps;
  let words () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.minor_words
  in
  let hits = 30 in
  let w0 = words () in
  for i = 1 to hits do
    let app = apps.(i mod Array.length apps) in
    completed app
      (answer t (Serve.Service.request ~app (Printf.sprintf "hit-%d" i)))
  done;
  Serve.Service.await_drained t;
  let per_hit = (words () -. w0) /. float_of_int hits in
  if per_hit >= 16_000. then
    Alcotest.failf "a named hit allocated %.0f minor words" per_hit

(* An unknown app fails permanently, before any store is opened: it
   leaves no store file. *)
let test_service_unknown_app () =
  Test_incremental.with_dir @@ fun dir ->
  let t = cached_service dir in
  let r = answer t (Serve.Service.request ~app:"NoSuchApp" "unknown") in
  Serve.Service.await_drained t;
  Alcotest.(check string) "failed" "failed"
    (Serve.Service.status_name r.Serve.Service.rp_status);
  Alcotest.(check string) "as an unknown app" "unknown_app"
    r.Serve.Service.rp_reason;
  Alcotest.(check int) "one attempt" 1 r.Serve.Service.rp_attempts;
  Alcotest.(check (list string)) "no store file" []
    (Array.to_list (Sys.readdir dir))

(* A stream of inline requests, each under a new id, cycling over a
   fixed set of sources: the store files and the live heap plateau at a
   bound set by the sources, not by the request count. *)
let test_service_cache_soak () =
  Test_incremental.with_dir @@ fun dir ->
  let k = 20 and n = 100 in
  let sources =
    Array.init k (fun i ->
      Printf.sprintf
        {|class Soak%d extends HttpServlet {
            public void doGet(HttpServletRequest req, HttpServletResponse resp) {
              resp.getWriter().println(req.getParameter("p%d"));
            }
          }|}
        i i)
  in
  let t = cached_service dir in
  let sent = ref 0 in
  let send_until total =
    while !sent < total do
      let r =
        answer t
          (Serve.Service.request ~source:sources.(!sent mod k)
             (Printf.sprintf "soak-%d" !sent))
      in
      Alcotest.(check bool) (r.Serve.Service.rp_id ^ ": completed") true
        (r.Serve.Service.rp_status = Serve.Service.Completed);
      incr sent
    done
  in
  let measure () =
    Gc.full_major ();
    let files =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".tajcache")
    in
    (List.length files, (Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  in
  send_until n;
  let files_n, live_n = measure () in
  send_until (4 * n);
  let files_4n, live_4n = measure () in
  Serve.Service.await_drained t;
  Alcotest.(check int) "one store file per source after N" k files_n;
  Alcotest.(check int) "one store file per source after 4N" k files_4n;
  if live_4n - live_n >= 512 * 1024 then
    Alcotest.failf "live heap grew %d bytes from %d to %d requests"
      (live_4n - live_n) n (4 * n)

(* ------------------------------------------------------------------ *)
(* Graceful drain on SIGTERM                                          *)
(* ------------------------------------------------------------------ *)

let test_sigterm_drains_without_losing_jobs () =
  Fault.reset ();
  let old_term = Sys.signal Sys.sigterm Sys.Signal_ignore in
  let old_int = Sys.signal Sys.sigint Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () ->
       let t =
         Serve.Service.create ~config:(service_config ~workers:2 ()) ()
       in
       Serve.Service.install_signals t;
       let col = Collector.create () in
       let accepted = List.init 40 (fun i -> Printf.sprintf "job-%d" i) in
       List.iter
         (fun id ->
            Serve.Service.submit t
              (Serve.Service.request ~source:two_flows id)
              ~respond:(Collector.respond col))
         accepted;
       (* SIGTERM mid-load; wait until the handler has run *)
       Unix.kill (Unix.getpid ()) Sys.sigterm;
       let rec wait_flag n =
         if n = 0 then Alcotest.fail "signal flag never set"
         else if not (Serve.Service.signal_pending t) then begin
           Core.Io.sleepf 0.005;
           wait_flag (n - 1)
         end
       in
       wait_flag 1000;
       (* post-signal submissions are refused, with a terminal answer *)
       let refused = [ "late-1"; "late-2"; "late-3" ] in
       List.iter
         (fun id ->
            Serve.Service.submit t
              (Serve.Service.request ~source:two_flows id)
              ~respond:(Collector.respond col))
         refused;
       Serve.Service.await_drained t;
       let rs = Collector.await col (40 + 3) in
       Alcotest.(check int) "every submission answered" 43
         (List.length rs);
       List.iter
         (fun id ->
            let r = Option.get (Collector.find col id) in
            Alcotest.(check bool) (id ^ " accepted job not lost to drain")
              true
              (r.Serve.Service.rp_status <> Serve.Service.Rejected))
         accepted;
       List.iter
         (fun id ->
            let r = Option.get (Collector.find col id) in
            Alcotest.(check string) (id ^ " refused while draining")
              "draining" r.Serve.Service.rp_reason)
         refused;
       let h = Serve.Service.health t in
       Alcotest.(check int) "drain-time rejections counted" 3
         h.Serve.Service.h_rejected_draining;
       Alcotest.(check int) "all accepted jobs reached terminal states" 40
         (h.Serve.Service.h_completed + h.Serve.Service.h_degraded
          + h.Serve.Service.h_failed);
       Alcotest.(check bool) "refusals under drain are still clean" true
         (Serve.Service.clean_drain h))

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_parser () =
  let ok s = Result.get_ok (Obs.Json.parse s) in
  Alcotest.(check bool) "object with escapes" true
    (Obs.Json.str_member "k"
       (ok {|{"k":"a\"b\\c\ndA"}|})
     = Some "a\"b\\c\ndA");
  Alcotest.(check bool) "numbers" true
    (Obs.Json.num_member "n" (ok {|{"n":-12.5e1}|}) = Some (-125.0));
  Alcotest.(check bool) "nested arrays survive a round-trip" true
    (let v = ok {|{"a":[1,[true,null],"x"],"b":{}}|} in
     Obs.Json.parse (Obs.Json.to_string v) = Ok v);
  Alcotest.(check bool) "trailing garbage is an error" true
    (Result.is_error (Obs.Json.parse "{} junk"));
  Alcotest.(check bool) "truncated input is an error" true
    (Result.is_error (Obs.Json.parse {|{"a":|}));
  Alcotest.(check bool) "control chars are escaped on output" true
    (Obs.Json.to_string (Obs.Json.Str "a\nb\tc")
     = {|"a\nb\tc"|});
  Alcotest.(check bool) "surrogate pair decodes to 4-byte UTF-8" true
    (Obs.Json.str_member "k" (ok {|{"k":"\ud83d\ude00"}|})
     = Some "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "BMP escape still decodes to 3-byte UTF-8" true
    (Obs.Json.str_member "k" (ok {|{"k":"\u20ac"}|})
     = Some "\xe2\x82\xac");
  Alcotest.(check bool) "lone high surrogate is an error" true
    (Result.is_error (Obs.Json.parse {|{"k":"\ud800x"}|}));
  Alcotest.(check bool) "lone low surrogate is an error" true
    (Result.is_error (Obs.Json.parse {|{"k":"\udc00"}|}));
  (* an overflowing literal would read as an infinity and print as [inf] *)
  Alcotest.(check bool) "1e400 is an error" true
    (Result.is_error (Obs.Json.parse {|{"deadline":1e400}|}));
  Alcotest.(check bool) "-1e400 is an error" true
    (Result.is_error (Obs.Json.parse "-1e400"))

(* Documents the printer must carry back exactly: finite floats of any
   magnitude and precision, and arbitrary bytes in strings and keys. *)
let json_arb =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 8) in
  let num =
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.0) float;
        map float_of_int int;
        map
          (fun n -> float_of_int n /. 1000.)
          (int_range (-1_000_000) 1_000_000) ]
  in
  let value =
    sized
    @@ fix (fun self n ->
      let leaf =
        oneof
          [ return Obs.Json.Null;
            map (fun b -> Obs.Json.Bool b) bool;
            map (fun f -> Obs.Json.Num f) num;
            map (fun s -> Obs.Json.Str s) bytes ]
      in
      if n <= 1 then leaf
      else
        frequency
          [ (2, leaf);
            (1, map (fun l -> Obs.Json.Arr l)
                 (list_size (int_range 0 4) (self (n / 4))));
            (1, map (fun l -> Obs.Json.Obj l)
                 (list_size (int_range 0 4) (pair bytes (self (n / 4))))) ])
  in
  QCheck.make ~print:Obs.Json.to_string value

let prop_json_round_trip =
  QCheck.Test.make ~name:"json: parse (to_string v) = Ok v" ~count:2000
    json_arb
    (fun v -> Obs.Json.parse (Obs.Json.to_string v) = Ok v)

(* The parser reads bytes the system did not write: any input is
   answered [Ok] or [Error], never with an exception. *)
let prop_json_parse_total =
  let syntax = "{}[]\":,\\u0123456789abcdefABCDEF.eE+-truefalsenull \n" in
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:
          (frequency
             [ (4, map (String.get syntax)
                     (int_bound (String.length syntax - 1)));
               (1, char) ])
        (int_range 0 40))
  in
  QCheck.Test.make ~name:"json: parse of any bytes never raises" ~count:5000
    (QCheck.make ~print:String.escaped gen)
    (fun s -> match Obs.Json.parse s with Ok _ | Error _ -> true)

let test_request_decoding () =
  let decode s =
    Serve.Service.request_of_json (Result.get_ok (Obs.Json.parse s))
  in
  (match
     decode
       {|{"id":"r1","app":"Friki","scale":0.1,"deadline":2.5,
          "priority":3,"algorithm":"ci"}|}
   with
   | Ok rq ->
     Alcotest.(check string) "id" "r1" rq.Serve.Service.rq_id;
     Alcotest.(check bool) "app" true
       (rq.Serve.Service.rq_app = Some "Friki");
     Alcotest.(check (float 0.0)) "scale" 0.1 rq.Serve.Service.rq_scale;
     Alcotest.(check bool) "deadline" true
       (rq.Serve.Service.rq_deadline = Some 2.5);
     Alcotest.(check int) "priority" 3 rq.Serve.Service.rq_priority;
     Alcotest.(check bool) "algorithm" true
       (rq.Serve.Service.rq_algorithm = Config.Ci_thin_slicing)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "missing id is an error" true
    (Result.is_error (decode {|{"app":"Friki"}|}));
  Alcotest.(check bool) "missing app and source is an error" true
    (Result.is_error (decode {|{"id":"x"}|}));
  Alcotest.(check bool) "unknown algorithm is an error" true
    (Result.is_error (decode {|{"id":"x","app":"a","algorithm":"magic"}|}));
  (* response and health lines are themselves valid JSON *)
  let r =
    { Serve.Service.rp_id = "a,b\"c"; rp_status = Serve.Service.Completed;
      rp_reason = ""; rp_issues = 2; rp_attempts = 1; rp_degradations = 0;
      rp_seconds = 0.25; rp_verdict = None; rp_mismatched = None }
  in
  (match Obs.Json.parse (Obs.Json.to_string (Serve.Service.response_json r)) with
   | Ok j ->
     Alcotest.(check bool) "response JSON round-trips awkward ids" true
       (Obs.Json.str_member "id" j = Some "a,b\"c");
     Alcotest.(check bool) "status serialized" true
       (Obs.Json.str_member "status" j = Some "completed")
   | Error e -> Alcotest.fail ("response_json: " ^ e))

(* ------------------------------------------------------------------ *)
(* EINTR helper                                                       *)
(* ------------------------------------------------------------------ *)

let test_retry_eintr () =
  let calls = ref 0 in
  let v =
    Core.Io.retry_eintr (fun () ->
        incr calls;
        if !calls < 3 then
          raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else 42)
  in
  Alcotest.(check int) "EINTR retried until success" 42 v;
  Alcotest.(check int) "exactly the interrupted calls repeated" 3 !calls;
  Alcotest.check_raises "other Unix errors propagate"
    (Unix.Unix_error (Unix.EBADF, "read", ""))
    (fun () ->
       Core.Io.retry_eintr (fun () ->
           raise (Unix.Unix_error (Unix.EBADF, "read", ""))))

let test_fault_taxonomy () =
  Alcotest.(check string) "injected transient faults are transient"
    "transient"
    (Fault.severity_name (Fault.classify (Fault.Injected_transient "x")));
  Alcotest.(check string) "EINTR is transient" "transient"
    (Fault.severity_name
       (Fault.classify (Unix.Unix_error (Unix.EINTR, "read", ""))));
  Alcotest.(check string) "EPIPE (crashed cluster peer) is transient"
    "transient"
    (Fault.severity_name
       (Fault.classify (Unix.Unix_error (Unix.EPIPE, "worker", ""))));
  Alcotest.(check string) "injected permanent faults are permanent"
    "permanent"
    (Fault.severity_name (Fault.classify (Fault.Injected "x")));
  Alcotest.(check string) "analysis exceptions are permanent" "permanent"
    (Fault.severity_name (Fault.classify (Failure "boom")))

(* A peer that vanished mid-connection must cost one diagnostic, not the
   process: the writer reports the first EPIPE through [on_error] and
   swallows everything after. *)
let test_writer_broken_pipe () =
  Core.Io.ignore_sigpipe ();
  let r, w = Unix.pipe () in
  Unix.close r;
  let errors = ref [] in
  let write =
    Core.Io.make_writer ~on_error:(fun e -> errors := e :: !errors) w
  in
  write "first line after the peer died";
  Alcotest.(check bool) "EPIPE reported once, not raised" true
    (!errors = [ Unix.EPIPE ]);
  write "second line";
  write "third line";
  Alcotest.(check int) "later writes dropped silently" 1
    (List.length !errors);
  Unix.close w

let test_stale_socket_handling () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "taj-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* a server that died without unlinking leaves a socket file nobody
     answers on: binding must reclaim it *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  Alcotest.(check bool) "socket file left behind" true
    (Sys.file_exists path);
  (match Core.Io.bind_unix_socket path with
   | Ok fd ->
     (* now play the live server: listen, and check a second bind is
        refused instead of stealing the path *)
     Unix.listen fd 8;
     (match Core.Io.bind_unix_socket path with
      | Error `Live -> ()
      | Ok fd' ->
        Unix.close fd';
        Alcotest.fail "bound over a live server");
     Unix.close fd
   | Error `Live -> Alcotest.fail "stale socket reported live");
  (try Unix.unlink path with Unix.Unix_error _ -> ())

(* Two workers may save one cache store at once. Each write goes through
   a temporary file of its own, so every read sees one whole version. *)
let test_concurrent_writes_whole () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "taj-writes-%d" (Unix.getpid ()))
  in
  let versions = [ String.make 65536 'a'; String.make 32768 'b' ] in
  let torn = Atomic.make 0 in
  let writer data () =
    for _ = 1 to 200 do
      Core.Io.write_file path data;
      if not (List.mem (Core.Io.read_file path) versions) then
        Atomic.incr torn
    done
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.map (fun data -> Domain.spawn (writer data)) versions
      |> List.iter Domain.join;
      Alcotest.(check int) "torn reads" 0 (Atomic.get torn))

(* A listener whose backlog is full neither accepts nor refuses, so a
   blocking probe would wait for it for good: the path is live, and the
   call must say so at once. The alarm turns a hang into a failure. *)
let test_full_backlog_is_live () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "taj-backlog-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let queued = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let saved = Sys.signal Sys.sigalrm Sys.Signal_default in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm saved;
      List.iter Unix.close [ listener; queued ];
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 0;
      (* one connection waits in the backlog; it is now full *)
      Unix.connect queued (Unix.ADDR_UNIX path);
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> failwith "the liveness probe hung"));
      ignore (Unix.alarm 5);
      let bound = Core.Io.bind_unix_socket path in
      ignore (Unix.alarm 0);
      (match bound with
       | Error `Live -> ()
       | Ok fd ->
         Unix.close fd;
         Alcotest.fail "bound over a live server");
      Alcotest.(check bool) "the listener keeps its path" true
        (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* Transports                                                         *)
(* ------------------------------------------------------------------ *)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "taj-%s-%d.sock" tag (Unix.getpid ()))

(* a serving loop installs the drain handlers; give the runner its own
   back afterwards *)
let with_signals f =
  let saved =
    List.map (fun s -> (s, Sys.signal s Sys.Signal_default))
      [ Sys.sigterm; Sys.sigint; Sys.sigusr1 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) saved)
    f

(* Run the service's socket transport on its own domain while [client]
   talks to it; a drain requested from here must end the loop. *)
let with_socket_server ?admin t path client =
  with_signals @@ fun () ->
  let server =
    Domain.spawn (fun () ->
      Serve.Service.serve ?admin t (Serve.Transport.Socket path))
  in
  let result = match client () with v -> Ok v | exception e -> Error e in
  Serve.Service.request_drain t;
  let h = Domain.join server in
  match result with Ok v -> (v, h) | Error e -> raise e

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (* a transport that never answers fails the test, not the run *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
      fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 1000

let send fd lines =
  Core.Io.write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let read_lines reader n =
  List.init n (fun _ ->
    match Core.Io.read_line reader with
    | Some l -> l
    | None -> Alcotest.fail "the transport closed before answering")

let rec read_to_eof reader =
  match Core.Io.read_line reader with
  | Some l -> l :: read_to_eof reader
  | None -> []

let parse_line l =
  match Obs.Json.parse l with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable line %S: %s" l e

let line_id l =
  match Obs.Json.member "id" (parse_line l) with
  | Some (Obs.Json.Str id) -> id
  | Some Obs.Json.Null -> "null"
  | _ -> Alcotest.failf "line without an id: %S" l

let job id = Printf.sprintf {|{"id":"%s","app":"BlueBlog","scale":0.02}|} id

let sorted l = List.sort compare l

(* One answer per non-empty line, in NDJSON; a line that does not parse
   as a request is rejected with its id (or null); blank lines get
   nothing; the last line is the drain's health snapshot, the very value
   the transport returns. *)
let test_stdio_transport () =
  with_signals @@ fun () ->
  let t = Serve.Service.create ~config:(service_config ()) () in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  send in_w
    [ job "a"; ""; "   "; "not json"; {|{"app":"BlueBlog"}|};
      {|{"id":"no-app"}|}; job "b" ];
  Unix.close in_w;
  let h = Serve.Service.serve t (Serve.Transport.Stdio (in_r, out_w)) in
  Unix.close in_r;
  Unix.close out_w;
  let lines = read_to_eof (Core.Io.line_reader out_r) in
  Unix.close out_r;
  let answers, last =
    match List.rev lines with
    | last :: rest -> (List.rev rest, last)
    | [] -> Alcotest.fail "no output"
  in
  Alcotest.(check string) "the last line is the returned health"
    (Obs.Json.to_string (Serve.Service.health_json h)) last;
  Alcotest.(check (list string)) "one answer per non-empty line"
    (sorted [ "a"; "b"; "null"; "null"; "no-app" ])
    (sorted (List.map line_id answers));
  let status id =
    List.filter_map
      (fun l ->
         if line_id l = id then Obs.Json.str_member "status" (parse_line l)
         else None)
      answers
  in
  Alcotest.(check (list string)) "jobs completed" [ "completed"; "completed" ]
    (status "a" @ status "b");
  Alcotest.(check (list string)) "unparsable lines rejected"
    [ "rejected"; "rejected"; "rejected" ]
    (status "null" @ status "no-app");
  Alcotest.(check int) "two submissions reached the engine" 2
    h.Serve.Service.h_submitted

(* A line that is not a request never reaches [submit], yet health
   counts it, in the record and in its JSON. *)
let test_malformed_lines_in_health () =
  with_signals @@ fun () ->
  let t = Serve.Service.create ~config:(service_config ()) () in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  send in_w [ "not json"; {|{"id":"no-app"}|} ];
  Unix.close in_w;
  let h = Serve.Service.serve t (Serve.Transport.Stdio (in_r, out_w)) in
  Unix.close in_r;
  Unix.close out_w;
  let lines = read_to_eof (Core.Io.line_reader out_r) in
  Unix.close out_r;
  Alcotest.(check int) "two rejections, then the health line" 3
    (List.length lines);
  Alcotest.(check int) "both lines counted as malformed" 2
    h.Serve.Service.h_rejected_malformed;
  Alcotest.(check int) "neither was submitted" 0 h.Serve.Service.h_submitted;
  match Serve.Service.health_of_json (parse_line (List.nth lines 2)) with
  | Ok back ->
    Alcotest.(check int) "the health line carries the count" 2
      back.Serve.Service.h_rejected_malformed
  | Error e -> Alcotest.fail e

(* Two clients at once: each gets the answers to its own lines, and the
   drain's health line goes to every client still connected. *)
let test_socket_transport_two_clients () =
  let path = sock_path "two" in
  let t = Serve.Service.create ~config:(service_config ()) () in
  (* both connections stay open across the drain *)
  let ((c1, r1, one), (c2, r2, two)), h =
    with_socket_server t path @@ fun () ->
    let c1 = connect path and c2 = connect path in
    send c1 [ job "x1"; job "x2" ];
    send c2 [ job "y1" ];
    let r1 = Core.Io.line_reader c1 and r2 = Core.Io.line_reader c2 in
    let one = read_lines r1 2 and two = read_lines r2 1 in
    ((c1, r1, one), (c2, r2, two))
  in
  Alcotest.(check (list string)) "client one: its own answers"
    [ "x1"; "x2" ] (sorted (List.map line_id one));
  Alcotest.(check (list string)) "client two: its own answer" [ "y1" ]
    (List.map line_id two);
  List.iter
    (fun r ->
       match read_to_eof r with
       | [ l ] ->
         Alcotest.(check string) "health line after the drain"
           (Obs.Json.to_string (Serve.Service.health_json h)) l
       | ls -> Alcotest.failf "expected one health line, got %d" (List.length ls))
    [ r1; r2 ];
  Unix.close c1;
  Unix.close c2;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* The admin socket: one reply per command line, shaped by the command;
   an unknown command is answered, a blank line is not. *)
let test_admin_socket () =
  let path = sock_path "jobs" and admin = sock_path "admin" in
  let t = Serve.Service.create ~config:(service_config ()) () in
  let (), _ =
    with_socket_server ~admin t path @@ fun () ->
    let a = connect admin in
    let r = Core.Io.line_reader a in
    send a [ "health" ];
    let health = parse_line (List.hd (read_lines r 1)) in
    Alcotest.(check (option string)) "health parses" (Some "health")
      (Obs.Json.str_member "event" health);
    send a [ "metrics" ];
    let rec until_eof acc =
      match read_lines r 1 with
      | [ "# EOF" ] -> List.rev acc
      | [ l ] -> until_eof (l :: acc)
      | _ -> assert false
    in
    ignore (until_eof []);
    send a [ "bogus" ];
    let err = parse_line (List.hd (read_lines r 1)) in
    Alcotest.(check (option string)) "unknown command answered"
      (Some "unknown_command") (Obs.Json.str_member "error" err);
    Alcotest.(check (option string)) "naming the command" (Some "bogus")
      (Obs.Json.str_member "command" err);
    send a [ "" ];
    Unix.shutdown a Unix.SHUTDOWN_SEND;
    Alcotest.(check (list string)) "a blank line gets nothing" []
      (read_to_eof r);
    Unix.close a
  in
  Alcotest.(check bool) "admin socket file removed" false
    (Sys.file_exists admin)

(* End of input ends a client's requests, not its answers: a client that
   half-closes after its last line still reads every answer. *)
let test_half_closed_client_answered () =
  let path = sock_path "half" in
  let t = Serve.Service.create ~config:(service_config ()) () in
  let lines, _ =
    with_socket_server t path @@ fun () ->
    let c = connect path in
    send c [ job "h1"; job "h2"; job "h3"; "not json" ];
    Unix.shutdown c Unix.SHUTDOWN_SEND;
    let lines = read_to_eof (Core.Io.line_reader c) in
    Unix.close c;
    lines
  in
  Alcotest.(check (list string)) "every line answered"
    [ "h1"; "h2"; "h3"; "null" ] (sorted (List.map line_id lines))

(* A client that goes away before its answer must not have that answer
   written into the next connection: A's stalled job is answered after B
   has connected, and B reads only its own. *)
let test_closed_client_no_cross_talk () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm (Fault.site_job "A1") ~after:1 ~action:(Fault.Stall 1.0);
  let path = sock_path "cross" in
  let t = Serve.Service.create ~config:(service_config ~workers:1 ()) () in
  let ((b, ids), _), lines =
    logged @@ fun () ->
    with_socket_server t path @@ fun () ->
    let a = connect path in
    send a [ job "A1" ];
    Unix.close a;
    Unix.sleepf 0.3;
    let b = connect path in
    send b [ job "B1" ];
    let r = Core.Io.line_reader b in
    let rec until_b1 acc =
      match read_lines r 1 with
      | [ l ] when line_id l = "B1" -> List.rev ("B1" :: acc)
      | [ l ] -> until_b1 (line_id l :: acc)
      | _ -> assert false
    in
    (* B stays connected across the drain, so the health line reaches
       it and the only disconnect is A's *)
    (b, until_b1 [])
  in
  Unix.close b;
  Alcotest.(check (list string)) "B reads only its own answer" [ "B1" ] ids;
  Alcotest.(check int) "one disconnect, A's" 1
    (List.length (lines_of "diag.client-disconnected" lines))

(* A live server on the admin path stops [serve] before it serves
   anything, on either job transport: the error names the admin path,
   and the job socket this call had already bound is gone again. *)
let test_live_admin_path_refused () =
  with_signals @@ fun () ->
  let path = sock_path "bound" and admin = sock_path "live" in
  let live =
    match Core.Io.bind_unix_socket admin with
    | Ok fd -> Unix.listen fd 1; fd
    | Error `Live -> Alcotest.fail "the admin path is already taken"
  in
  let in_r, in_w = Unix.pipe () in
  let t = Serve.Service.create ~config:(service_config ~workers:1 ()) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Service.await_drained t;
      List.iter Unix.close [ live; in_r; in_w ];
      try Unix.unlink admin with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter
        (fun jobs ->
           Alcotest.check_raises "the admin path is named"
             (Unix.Unix_error (Unix.EADDRINUSE, "bind", admin))
             (fun () -> ignore (Serve.Service.serve ~admin t jobs)))
        [ Serve.Transport.Socket path; Serve.Transport.Stdio (in_r, in_w) ];
      Alcotest.(check bool) "the job socket file is gone" false
        (Sys.file_exists path);
      Alcotest.(check bool) "the live server keeps its path" true
        (Sys.file_exists admin))

(* [Unix.bind] raises with an empty argument; the transport names the
   path that failed, whichever of the two it is, and an admin failure
   still leaves no job socket behind. *)
let test_bind_error_names_path () =
  with_signals @@ fun () ->
  let path = sock_path "bound"
  and missing =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "taj-missing-%d" (Unix.getpid ())))
      "x.sock"
  in
  let t = Serve.Service.create ~config:(service_config ~workers:1 ()) () in
  Fun.protect
    ~finally:(fun () -> Serve.Service.await_drained t)
    (fun () ->
      Alcotest.check_raises "the job socket path is named"
        (Unix.Unix_error (Unix.ENOENT, "bind", missing))
        (fun () ->
          ignore (Serve.Service.serve t (Serve.Transport.Socket missing)));
      Alcotest.check_raises "the admin path is named"
        (Unix.Unix_error (Unix.ENOENT, "bind", missing))
        (fun () ->
          ignore
            (Serve.Service.serve ~admin:missing t
               (Serve.Transport.Socket path)));
      Alcotest.(check bool) "the job socket file is gone" false
        (Sys.file_exists path))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "queue: bound rejects explicitly" `Quick
      test_queue_bound;
    Alcotest.test_case "queue: priority shedding" `Quick
      test_queue_shed_priority;
    Alcotest.test_case "queue: pop order" `Quick test_queue_pop_order;
    Alcotest.test_case "queue: forced push for retries" `Quick
      test_queue_forced_push_bypasses_bound;
    Alcotest.test_case "queue: forced entries never shed" `Quick
      test_queue_forced_entries_never_shed;
    Alcotest.test_case "queue: delayed retry entries wait" `Quick
      test_queue_delayed_entry_waits;
    Alcotest.test_case "breaker: opens at threshold" `Quick
      test_breaker_opens_at_threshold;
    Alcotest.test_case "breaker: success resets the streak" `Quick
      test_breaker_success_resets_count;
    Alcotest.test_case "breaker: half-open probe closes" `Quick
      test_breaker_half_open_probe_closes;
    Alcotest.test_case "breaker: half-open failure re-opens" `Quick
      test_breaker_half_open_failure_reopens;
    Alcotest.test_case "breaker: probe owner re-admitted" `Quick
      test_breaker_probe_owner_readmitted;
    Alcotest.test_case "backoff: pure deterministic schedule" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff: executed schedule reproducible" `Slow
      test_retry_schedule_reproducible;
    Alcotest.test_case "chaos: no job is ever lost" `Slow
      test_chaos_no_lost_jobs;
    Alcotest.test_case "backpressure: shed and queue_full" `Slow
      test_service_shed_and_queue_full;
    Alcotest.test_case "events: one log line per event" `Slow
      test_one_log_line_per_event;
    Alcotest.test_case "breaker: service-level recovery probe" `Slow
      test_service_breaker_recovers;
    Alcotest.test_case "breaker: transient probe failure recovers" `Slow
      test_service_probe_transient_retry_recovers;
    Alcotest.test_case "watchdog: pressure levels" `Quick
      test_watchdog_levels;
    Alcotest.test_case "watchdog: hysteresis and recovery" `Quick
      test_watchdog_hysteresis;
    Alcotest.test_case "watchdog: ladder mapping" `Quick
      test_watchdog_degrades_config;
    Alcotest.test_case "watchdog: jobs degrade under pressure" `Slow
      test_service_degrades_under_pressure;
    Alcotest.test_case "cache: a repeated app answers from the tier" `Slow
      test_service_cache_answers_repeat;
    Alcotest.test_case "cache: memory pressure stores no result" `Slow
      test_service_cache_pressure_not_stored;
    Alcotest.test_case "cache: degraded answers store no result" `Slow
      test_service_cache_degraded_not_stored;
    Alcotest.test_case "cache: a repeated inline source answers from the tier"
      `Slow test_service_cache_repeated_source;
    Alcotest.test_case "cache: soak holds store files and heap flat" `Slow
      test_service_cache_soak;
    Alcotest.test_case "cache: a hit answers the whole cold response" `Slow
      test_service_cache_whole_response;
    Alcotest.test_case "cache: a named hit generates nothing" `Slow
      test_service_named_hit_allocation;
    Alcotest.test_case "cache: an unknown app fails before any store" `Quick
      test_service_unknown_app;
    Alcotest.test_case "drain: SIGTERM loses no accepted job" `Slow
      test_sigterm_drains_without_losing_jobs;
    Alcotest.test_case "protocol: JSON parser" `Quick test_json_parser;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    QCheck_alcotest.to_alcotest prop_json_parse_total;
    Alcotest.test_case "protocol: request decoding" `Quick
      test_request_decoding;
    Alcotest.test_case "io: retry_eintr" `Quick test_retry_eintr;
    Alcotest.test_case "faults: retry taxonomy" `Quick
      test_fault_taxonomy;
    Alcotest.test_case "io: broken pipe contained" `Quick
      test_writer_broken_pipe;
    Alcotest.test_case "io: stale socket reclaimed, live refused" `Quick
      test_stale_socket_handling;
    Alcotest.test_case "io: a full backlog is live, and the probe returns"
      `Quick test_full_backlog_is_live;
    Alcotest.test_case "io: concurrent writes of one path never tear it"
      `Quick test_concurrent_writes_whole;
    Alcotest.test_case "transport: stdio answers every line" `Slow
      test_stdio_transport;
    Alcotest.test_case "transport: malformed lines show in health" `Quick
      test_malformed_lines_in_health;
    Alcotest.test_case "transport: two socket clients" `Slow
      test_socket_transport_two_clients;
    Alcotest.test_case "transport: admin socket commands" `Quick
      test_admin_socket;
    Alcotest.test_case "transport: a half-closed client gets its answers"
      `Slow test_half_closed_client_answered;
    Alcotest.test_case "transport: a closed client's answer reaches no one"
      `Slow test_closed_client_no_cross_talk;
    Alcotest.test_case "transport: a live admin path is refused cleanly"
      `Quick test_live_admin_path_refused;
    Alcotest.test_case "transport: a bind error names its path" `Quick
      test_bind_error_names_path ]
