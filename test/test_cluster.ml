(* The multi-process analysis cluster: framed proto round-trips, the
   consistent-hash routing ring, the cross-process zero-lost-jobs
   invariant, SIGKILL chaos (crash detection, rerouting, respawn), and
   drain aggregation. Every test forks real worker processes — the
   coordinator is single-domain, so forking from the test runner is safe
   as long as earlier suites joined their domains (they do). *)

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

let cluster_config ?(size = 2) ?(crash_retries = 2) () =
  { Serve.Cluster.default_config with
    size; crash_retries;
    announce = false;
    respawn_base = 0.05; respawn_max = 0.5;
    worker_breaker_threshold = 3; worker_breaker_cooldown = 0.2;
    service =
      { Serve.Service.default_config with
        workers = 1; queue_cap = 256; seed = 7 } }

(* Responses arrive on the coordinator (= test) thread, during pump /
   submit / drain calls: a plain list is safe. *)
let collector () =
  let responses = ref [] in
  let respond r = responses := r :: !responses in
  (responses, respond)

let pump_until c ~timeout pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Serve.Cluster.pump c ~timeout:0.02
  done

let submit_batch c respond ids =
  List.iter
    (fun (id, app) ->
       let rq =
         match app with
         | Some a -> Serve.Service.request ~app:a ~scale:0.02 id
         | None -> Serve.Service.request ~source:two_flows id
       in
       Serve.Cluster.submit c rq ~respond;
       Serve.Cluster.pump c ~timeout:0.0)
    ids

(* ------------------------------------------------------------------ *)
(* Proto framing                                                      *)
(* ------------------------------------------------------------------ *)

let test_proto_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* large enough to span many reads, small enough to fit the socketpair
     buffer: the writer has no concurrent reader in this test *)
  let big_source = String.concat "\n" (List.init 100 (fun _ -> two_flows)) in
  let rq =
    Serve.Service.request ~source:big_source ~descriptor:"d"
      ~algorithm:Core.Config.Cs_thin_slicing ~scale:0.0123456789
      ~deadline:1.23456789 ~priority:9 "job-1"
  in
  let rp =
    { Serve.Service.rp_id = "job-1"; rp_status = Serve.Service.Degraded;
      rp_reason = "deadline"; rp_issues = 4; rp_attempts = 2;
      rp_degradations = 1; rp_seconds = 0.125; rp_verdict = None;
      rp_mismatched = None }
  in
  Serve.Proto.write a (Serve.Proto.Job rq);
  Serve.Proto.write a Serve.Proto.Drain;
  Serve.Proto.write a (Serve.Proto.Result rp);
  let r = Serve.Proto.reader b in
  (match Serve.Proto.read_block r with
   | `Msg (Serve.Proto.Job got) ->
     Alcotest.(check string) "job id survives" "job-1"
       got.Serve.Service.rq_id;
     Alcotest.(check bool) "large inline source survives" true
       (got.Serve.Service.rq_source = Some big_source);
     Alcotest.(check bool) "algorithm survives" true
       (got.Serve.Service.rq_algorithm = Core.Config.Cs_thin_slicing);
     Alcotest.(check bool) "every digit of the scale survives" true
       (got.Serve.Service.rq_scale = 0.0123456789);
     Alcotest.(check bool) "every digit of the deadline survives" true
       (got.Serve.Service.rq_deadline = Some 1.23456789);
     Alcotest.(check int) "priority survives" 9
       got.Serve.Service.rq_priority
   | _ -> Alcotest.fail "expected a Job frame");
  (match Serve.Proto.read_block r with
   | `Msg Serve.Proto.Drain -> ()
   | _ -> Alcotest.fail "expected a Drain frame");
  (match Serve.Proto.read_block r with
   | `Msg (Serve.Proto.Result got) ->
     Alcotest.(check bool) "response round-trips" true (got = rp)
   | _ -> Alcotest.fail "expected a Result frame");
  Unix.close a;
  (match Serve.Proto.read_block r with
   | `Eof -> ()
   | _ -> Alcotest.fail "expected EOF after peer close");
  Unix.close b

let test_proto_partial_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* hand-build a Drain frame and deliver it byte-dribbled: the reader
     must report Pending, never a torn frame *)
  let payload = "{\"t\":\"drain\"}" in
  let n = String.length payload in
  let frame =
    Printf.sprintf "%c%c%c%c%s"
      (Char.chr ((n lsr 24) land 0xff))
      (Char.chr ((n lsr 16) land 0xff))
      (Char.chr ((n lsr 8) land 0xff))
      (Char.chr (n land 0xff))
      payload
  in
  let r = Serve.Proto.reader b in
  Alcotest.(check bool) "nothing yet: pending" true
    (Serve.Proto.read_nonblock r = `Pending);
  Core.Io.write_all a (String.sub frame 0 3);
  Alcotest.(check bool) "torn length prefix: pending" true
    (Serve.Proto.read_nonblock r = `Pending);
  Core.Io.write_all a (String.sub frame 3 5);
  Alcotest.(check bool) "torn payload: pending" true
    (Serve.Proto.read_nonblock r = `Pending);
  Core.Io.write_all a
    (String.sub frame 8 (String.length frame - 8));
  (match Serve.Proto.read_nonblock r with
   | `Msg Serve.Proto.Drain -> ()
   | _ -> Alcotest.fail "expected the completed Drain frame");
  (* a frame torn by a crash: length prefix promises more than arrives *)
  Core.Io.write_all a (String.sub frame 0 6);
  Unix.close a;
  (match Serve.Proto.read_block r with
   | `Eof -> ()
   | _ -> Alcotest.fail "torn trailing frame must read as EOF");
  Unix.close b

(* The admin frames (interim health, metrics snapshots, flight dumps,
   forwarded log lines) ride the same framed pipe as jobs. *)
let test_proto_admin_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let kvs =
    [ ("cache.hit", Obs.Telemetry.V_counter 12);
      ("serve.queue_depth", Obs.Telemetry.V_gauge 3);
      ( "serve.latency_ms",
        Obs.Telemetry.V_histogram
          { Obs.Telemetry.hs_count = 5; hs_sum = 40; hs_max = 16;
            hs_buckets = [ (1, 2); (8, 3) ] } ) ]
  in
  let log_line = {|{"seq":4,"ts":1.5,"level":"info","event":"serve.admit"}|} in
  (* every field distinct from its default; the uptime a whole number
     of milliseconds past 1,000 s, where six digits would lose them *)
  let health =
    { Serve.Service.h_uptime = 3600.125; h_queue_depth = 1; h_pressure = 2;
      h_rung = "optimized"; h_submitted = 3; h_admitted = 4;
      h_completed = 5; h_degraded = 6; h_failed = 7; h_rejected_full = 8;
      h_rejected_draining = 9; h_shed = 10; h_retries = 11;
      h_breaker_fast_fails = 12; h_breaker_opens = 13;
      h_open_breakers = [ "app-a"; "app-b" ]; h_events = 14;
      h_latency_p50 = 15; h_latency_p95 = 16; h_latency_p99 = 17;
      h_cache_hits = 18; h_cache_misses = 19; h_rejected_malformed = 20 }
  in
  List.iter (Serve.Proto.write a)
    [ Serve.Proto.Health_req; Serve.Proto.Metrics_req;
      Serve.Proto.Dump_req; Serve.Proto.Metrics kvs;
      Serve.Proto.Dump "{\"traceEvents\":[]}";
      Serve.Proto.Log_line log_line; Serve.Proto.Health health ];
  let r = Serve.Proto.reader b in
  let next () =
    match Serve.Proto.read_block r with
    | `Msg m -> m
    | _ -> Alcotest.fail "expected a frame"
  in
  Alcotest.(check bool) "health_req" true (next () = Serve.Proto.Health_req);
  Alcotest.(check bool) "metrics_req" true
    (next () = Serve.Proto.Metrics_req);
  Alcotest.(check bool) "dump_req" true (next () = Serve.Proto.Dump_req);
  (match next () with
   | Serve.Proto.Metrics got ->
     Alcotest.(check bool) "metrics snapshot round-trips" true (got = kvs)
   | _ -> Alcotest.fail "expected a Metrics frame");
  (match next () with
   | Serve.Proto.Dump d ->
     Alcotest.(check string) "dump round-trips" "{\"traceEvents\":[]}" d
   | _ -> Alcotest.fail "expected a Dump frame");
  (match next () with
   | Serve.Proto.Log_line l ->
     Alcotest.(check string) "log line verbatim" log_line l
   | _ -> Alcotest.fail "expected a Log_line frame");
  (match next () with
   | Serve.Proto.Health got ->
     Alcotest.(check bool) "every health field survives" true (got = health)
   | _ -> Alcotest.fail "expected a Health frame");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Routing ring                                                       *)
(* ------------------------------------------------------------------ *)

let test_ring_routing () =
  let c = Serve.Cluster.create ~config:(cluster_config ~size:4 ()) () in
  Fun.protect
    ~finally:(fun () -> Serve.Cluster.await_drained c)
    (fun () ->
       let keys = List.init 200 (Printf.sprintf "app-%d") in
       let routes = List.map (fun k -> Serve.Cluster.route c k) keys in
       Alcotest.(check bool) "routing is deterministic" true
         (routes = List.map (fun k -> Serve.Cluster.route c k) keys);
       let hits = Array.make 4 0 in
       List.iter (fun w -> hits.(w) <- hits.(w) + 1) routes;
       Array.iteri
         (fun i n ->
            Alcotest.(check bool)
              (Printf.sprintf "worker %d gets a fair share" i)
              true (n > 0))
         hits;
       Alcotest.(check bool) "same app, same worker" true
         (Serve.Cluster.route c "BlueBlog"
          = Serve.Cluster.route c "BlueBlog"))

(* ------------------------------------------------------------------ *)
(* End-to-end: every job terminal exactly once; 1 ≡ 4 workers         *)
(* ------------------------------------------------------------------ *)

let run_batch ~size ids =
  let c = Serve.Cluster.create ~config:(cluster_config ~size ()) () in
  let responses, respond = collector () in
  submit_batch c respond ids;
  pump_until c ~timeout:60.0 (fun () -> Serve.Cluster.idle c);
  Serve.Cluster.await_drained c;
  let h = Serve.Cluster.health c in
  (!responses, h)

let test_cluster_completes_batch () =
  let ids =
    List.init 8 (fun i ->
      (Printf.sprintf "b%d" i, if i mod 2 = 0 then Some "BlueBlog" else None))
  in
  let rs, h = run_batch ~size:2 ids in
  Alcotest.(check int) "every job answered exactly once" 8 (List.length rs);
  List.iter
    (fun (id, _) ->
       Alcotest.(check int)
         (Printf.sprintf "one terminal response for %s" id)
         1
         (List.length
            (List.filter (fun r -> r.Serve.Service.rp_id = id) rs)))
    ids;
  Alcotest.(check bool) "all completed" true
    (List.for_all
       (fun r -> r.Serve.Service.rp_status = Serve.Service.Completed)
       rs);
  Alcotest.(check bool) "clean drain" true (Serve.Cluster.clean_drain h);
  Alcotest.(check int) "coordinator counted them" 8 h.Serve.Cluster.ch_submitted;
  Alcotest.(check int) "no crashes" 0 h.Serve.Cluster.ch_crashes

(* Per-job analysis output must not depend on the cluster size: the same
   batch through 1 and 4 workers yields identical (status, issues) per
   job. *)
let test_cluster_size_invariant () =
  let ids =
    List.init 10 (fun i ->
      (Printf.sprintf "d%d" i, if i mod 3 = 0 then Some "BlueBlog" else None))
  in
  let key rs =
    rs
    |> List.map (fun r ->
      ( r.Serve.Service.rp_id,
        Serve.Service.status_name r.Serve.Service.rp_status,
        r.Serve.Service.rp_issues ))
    |> List.sort compare
  in
  let rs1, _ = run_batch ~size:1 ids in
  let rs4, _ = run_batch ~size:4 ids in
  Alcotest.(check bool)
    "per-job output identical across cluster sizes" true
    (key rs1 = key rs4)

(* ------------------------------------------------------------------ *)
(* SIGKILL chaos                                                      *)
(* ------------------------------------------------------------------ *)

let test_cluster_sigkill_chaos () =
  (* the coordinator's events, read back from its log: a sink set here
     sees only this process's lines (the workers' copies of the sink
     write into their own memory) *)
  let lines = ref [] in
  Obs.Log.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect ~finally:(fun () -> Obs.Log.set_sink None) @@ fun () ->
  let c = Serve.Cluster.create ~config:(cluster_config ~size:4 ()) () in
  let responses, respond = collector () in
  (* all of these route to one worker: the one we are about to murder *)
  let victim = Serve.Cluster.route c "BlueBlog" in
  let pids = Array.of_list (Serve.Cluster.worker_pids c) in
  Alcotest.(check int) "four workers live" 4 (Array.length pids);
  let wave1 =
    List.init 6 (fun i -> (Printf.sprintf "k%d" i, Some "BlueBlog"))
  in
  submit_batch c respond wave1;
  (* SIGKILL mid-batch: the jobs above are in flight on the victim *)
  Unix.kill pids.(victim) Sys.sigkill;
  pump_until c ~timeout:60.0 (fun () ->
    Serve.Cluster.idle c && List.length !responses >= 6);
  Alcotest.(check int) "zero lost, zero duplicated" 6
    (List.length !responses);
  List.iteri
    (fun i _ ->
       let id = Printf.sprintf "k%d" i in
       Alcotest.(check int)
         (Printf.sprintf "exactly one terminal response for %s" id)
         1
         (List.length
            (List.filter
               (fun r -> r.Serve.Service.rp_id = id)
               !responses)))
    wave1;
  (* the dead worker respawns and serves subsequent jobs routed to it *)
  pump_until c ~timeout:10.0 (fun () ->
    (Serve.Cluster.health c).Serve.Cluster.ch_respawns >= 1);
  let wave2 =
    List.init 4 (fun i -> (Printf.sprintf "p%d" i, Some "BlueBlog"))
  in
  submit_batch c respond wave2;
  pump_until c ~timeout:60.0 (fun () ->
    Serve.Cluster.idle c && List.length !responses >= 10);
  Serve.Cluster.await_drained c;
  let h = Serve.Cluster.health c in
  Alcotest.(check int) "second wave answered too" 10
    (List.length !responses);
  Alcotest.(check bool) "post-respawn jobs completed" true
    (List.for_all
       (fun (id, _) ->
          List.exists
            (fun r ->
               r.Serve.Service.rp_id = id
               && r.Serve.Service.rp_status = Serve.Service.Completed)
            !responses)
       wave2);
  Alcotest.(check bool) "the crash was observed" true
    (h.Serve.Cluster.ch_crashes >= 1);
  Alcotest.(check bool) "the worker respawned" true
    (h.Serve.Cluster.ch_respawns >= 1);
  let logged event ok =
    List.exists
      (fun l ->
         match Obs.Json.parse l with
         | Ok j -> Obs.Json.str_member "event" j = Some event && ok j
         | Error e -> Alcotest.failf "log line %S unparsable: %s" l e)
      !lines
  in
  let killed = string_of_int pids.(victim) in
  Alcotest.(check bool) "the killed worker's exit was logged" true
    (logged "diag.worker-exited" (fun j ->
       Obs.Json.str_member "pid" j = Some killed
       && Obs.Json.str_member "reason" j <> Some "drained"));
  Alcotest.(check bool) "a respawn diagnostic was logged" true
    (logged "diag.worker-respawned" (fun _ -> true));
  (* killed mid-batch yet the drain stays clean: crash recovery answered
     every job, nothing was shed or turned away *)
  Alcotest.(check bool) "clean drain despite the kill" true
    (Serve.Cluster.clean_drain h)

(* Past the crash budget the job is answered failed:worker_crashed, not
   lost and not retried forever. *)
let test_cluster_crash_budget () =
  let c =
    Serve.Cluster.create
      ~config:(cluster_config ~size:1 ~crash_retries:0 ()) ()
  in
  let responses, respond = collector () in
  let victim =
    match Serve.Cluster.worker_pids c with
    | [ pid ] -> pid
    | _ -> Alcotest.fail "expected one worker"
  in
  Serve.Cluster.submit c
    (Serve.Service.request ~app:"BlueBlog" ~scale:0.02 "doomed")
    ~respond;
  Unix.kill victim Sys.sigkill;
  pump_until c ~timeout:30.0 (fun () -> List.length !responses >= 1);
  (match !responses with
   | [ r ] ->
     Alcotest.(check string) "failed terminally" "failed"
       (Serve.Service.status_name r.Serve.Service.rp_status);
     Alcotest.(check string) "with the crash reason" "worker_crashed"
       r.Serve.Service.rp_reason
   | rs ->
     Alcotest.fail
       (Printf.sprintf "expected exactly one response, got %d"
          (List.length rs)));
  Serve.Cluster.await_drained c

(* ------------------------------------------------------------------ *)
(* Admin channel under chaos                                          *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Mid-batch SIGKILL of one worker must not corrupt the admin channel:
   the aggregated health reply stays well-formed, the Prometheus scrape
   parses (and still carries the serve counters), and the crash itself
   triggers a flight-recorder dump containing the dead worker's last
   spans — recovered from its on-disk ring snapshot, since the process
   is gone. *)
let test_cluster_admin_under_chaos () =
  let dir = Filename.temp_file "taj-flight" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let dump = Filename.concat dir "flight.json" in
  (* armed before the fork so workers inherit the ring *)
  Obs.Telemetry.arm_flight 64;
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.arm_flight 0;
      Array.iter
        (fun f ->
           try Unix.unlink (Filename.concat dir f)
           with Unix.Unix_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let cfg =
        { (cluster_config ~size:2 ()) with
          Serve.Cluster.flight_dump = Some dump }
      in
      let c = Serve.Cluster.create ~config:cfg () in
      let responses, respond = collector () in
      let victim = Serve.Cluster.route c "BlueBlog" in
      (* one completed job first, so the victim's ring snapshot file is
         on disk before the murder *)
      submit_batch c respond [ ("warm", Some "BlueBlog") ];
      pump_until c ~timeout:60.0 (fun () -> List.length !responses >= 1);
      let wave =
        List.init 4 (fun i -> (Printf.sprintf "a%d" i, Some "BlueBlog"))
      in
      submit_batch c respond wave;
      let pids = Array.of_list (Serve.Cluster.worker_pids c) in
      Unix.kill pids.(victim) Sys.sigkill;
      (* aggregated replies while the crash is being detected/handled *)
      Alcotest.(check bool) "health covers both workers" true
        (match
           Obs.Json.member "workers"
             (Serve.Cluster.health_json (Serve.Cluster.admin_health c))
         with
         | Some (Obs.Json.Arr ws) -> List.length ws = 2
         | _ -> false);
      let prom = Obs.Export.prometheus_of (Serve.Cluster.admin_metrics c) in
      Alcotest.(check bool) "scrape carries the serve counters" true
        (contains ~needle:"taj_serve_completed" prom);
      Alcotest.(check bool) "scrape ends with the EOF marker" true
        (contains ~needle:"# EOF" prom);
      pump_until c ~timeout:60.0 (fun () ->
        Serve.Cluster.idle c && List.length !responses >= 5);
      Alcotest.(check int) "every job still answered exactly once" 5
        (List.length !responses);
      (* the crash wrote a merged dump; the dead worker's lane is pid
         [victim index + 2] *)
      let doc = Core.Io.read_file dump in
      Alcotest.(check bool) "flight dump is non-empty" true
        (String.length doc > 0);
      (match Obs.Json.parse doc with
       | Error e -> Alcotest.fail ("flight dump unparsable: " ^ e)
       | Ok _ -> ());
      Alcotest.(check bool) "dump holds the crashed worker's events" true
        (contains ~needle:(Printf.sprintf "\"pid\":%d," (victim + 2)) doc);
      Serve.Cluster.await_drained c)

(* A number literal past the float range is a malformed request: the
   coordinator rejects its line, and no worker ever reads it. *)
let test_cluster_number_overflow () =
  let c = Serve.Cluster.create ~config:(cluster_config ~size:2 ()) () in
  let answers = ref [] and malformed = ref 0 in
  let handle line =
    Serve.Service.handle_line
      ~malformed:(fun () -> incr malformed)
      (Serve.Cluster.submit c) line
      ~answer:(fun a -> answers := Result.get_ok (Obs.Json.parse a) :: !answers)
  in
  handle {|{"id":"bad","app":"Friki","scale":0.02,"deadline":1e400}|};
  handle {|{"id":"good","app":"Friki","scale":0.02}|};
  pump_until c ~timeout:60.0 (fun () -> List.length !answers >= 2);
  Serve.Cluster.await_drained c;
  let field k j = Option.value ~default:"" (Obs.Json.str_member k j) in
  let summary =
    List.sort compare
      (List.map
         (fun j ->
            ( field "id" j, field "status" j,
              List.hd (String.split_on_char ':' (field "reason" j)) ))
         !answers)
  in
  Alcotest.(check (list (triple string string string)))
    "the overflowing line is rejected as bad JSON; the next one completes"
    [ ("", "rejected", "bad_json"); ("good", "completed", "") ]
    summary;
  Alcotest.(check int) "the overflowing line is counted as malformed" 1
    !malformed;
  Alcotest.(check int) "no worker crashed" 0
    (Serve.Cluster.health c).Serve.Cluster.ch_crashes

(* A line that is not a request is answered by the coordinator, never
   reaches a worker, and counts among the cluster's rejections. *)
let test_cluster_malformed_lines_rejected () =
  let input = Filename.temp_file "taj-cluster-bad" ".ndjson" in
  let output = Filename.temp_file "taj-cluster-bad" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ input; output ])
    (fun () ->
      Core.Io.write_file input "not json\n{\"id\":\"no-app\"}\n";
      let inp = Unix.openfile input [ Unix.O_RDONLY ] 0 in
      let out = Unix.openfile output [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let c = Serve.Cluster.create ~config:(cluster_config ~size:1 ()) () in
      let h = Serve.Cluster.serve c (Serve.Transport.Stdio (inp, out)) in
      Unix.close inp;
      Unix.close out;
      Alcotest.(check int) "both lines rejected" 2 h.Serve.Cluster.ch_rejected;
      Alcotest.(check int) "neither was submitted" 0
        h.Serve.Cluster.ch_submitted;
      Alcotest.(check (option int)) "the health line says so" (Some 2)
        (Obs.Json.int_member "rejected" (Serve.Cluster.health_json h)))

(* ------------------------------------------------------------------ *)
(* Drain aggregation                                                  *)
(* ------------------------------------------------------------------ *)

let test_cluster_drain_aggregates () =
  let ids = List.init 6 (fun i -> (Printf.sprintf "h%d" i, None)) in
  let rs, h = run_batch ~size:2 ids in
  Alcotest.(check int) "all jobs terminal" 6 (List.length rs);
  Alcotest.(check int) "snapshot covers both workers" 2
    (List.length h.Serve.Cluster.ch_workers);
  List.iter
    (fun (w : Serve.Cluster.worker_health) ->
       Alcotest.(check bool)
         (Printf.sprintf "worker %d sent its final health" w.wh_index)
         true
         (w.Serve.Cluster.wh_health <> None))
    h.Serve.Cluster.ch_workers;
  let worker_submitted =
    List.fold_left
      (fun acc (w : Serve.Cluster.worker_health) ->
         match w.Serve.Cluster.wh_health with
         | Some sh -> acc + sh.Serve.Service.h_submitted
         | None -> acc)
      0 h.Serve.Cluster.ch_workers
  in
  Alcotest.(check int)
    "worker-side submissions sum to the coordinator's" 6 worker_submitted;
  Alcotest.(check int) "coordinator terminal accounting" 6
    (h.Serve.Cluster.ch_completed + h.Serve.Cluster.ch_degraded
     + h.Serve.Cluster.ch_failed + h.Serve.Cluster.ch_rejected);
  (* the aggregated snapshot carries per-worker blocks *)
  Alcotest.(check bool) "health json carries the worker array" true
    (match Obs.Json.member "workers" (Serve.Cluster.health_json h) with
     | Some (Obs.Json.Arr ws) -> List.length ws = 2
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Socket transport                                                   *)
(* ------------------------------------------------------------------ *)

(* The coordinator's loop blocks this process, and this runner spawns no
   domain, so the client is a forked process: it sends [lines] over the
   job socket, reads [expect] answers (or, half-closed, every answer up
   to EOF), writes their ids to [out] and stops the coordinator with
   SIGTERM. *)
let fork_client ?(half_close = false) ~path ~out ~expect lines =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let rec connect tries =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> fd
          | exception Unix.Unix_error _ when tries > 0 ->
            Unix.close fd;
            Unix.sleepf 0.01;
            connect (tries - 1)
        in
        let fd = connect 2000 in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        Core.Io.write_all fd
          (String.concat "" (List.map (fun l -> l ^ "\n") lines));
        if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let r = Core.Io.line_reader fd in
        let rec read n =
          if n = 0 && not half_close then []
          else
            match Core.Io.read_line r with
            | None -> if half_close then [] else [ "eof" ]
            | Some l ->
              (match Obs.Json.parse l with
               | Ok j ->
                 (match Obs.Json.member "id" j with
                  | Some (Obs.Json.Str id) -> id
                  | _ -> "null")
               | Error _ -> "unparsable")
              :: read (n - 1)
        in
        let ids = read expect in
        Core.Io.write_file out (String.concat "\n" ids);
        Unix.close fd;
        0
      with _ -> 1
    in
    Unix.kill (Unix.getppid ()) Sys.sigterm;
    Unix._exit code
  | pid -> pid

let socket_round_trip ~half_close () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "taj-cluster-%d.sock" (Unix.getpid ()))
  in
  let out = Filename.temp_file "taj-cluster-client" ".txt" in
  let saved =
    List.map (fun s -> (s, Sys.signal s Sys.Signal_default))
      [ Sys.sigterm; Sys.sigint; Sys.sigusr1 ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, b) -> Sys.set_signal s b) saved;
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let c = Serve.Cluster.create ~config:(cluster_config ~size:2 ()) () in
      let job id =
        Printf.sprintf {|{"id":"%s","app":"BlueBlog","scale":0.02}|} id
      in
      let client =
        fork_client ~half_close ~path ~out ~expect:4
          [ job "s1"; ""; job "s2"; job "s3"; "not json" ]
      in
      let h =
        match Serve.Cluster.serve c (Serve.Transport.Socket path) with
        | h -> Ok h
        | exception e -> Error e
      in
      (* the client signals this process: the handlers go back only
         after it is gone *)
      let _, status =
        Core.Io.retry_eintr (fun () -> Unix.waitpid [] client)
      in
      let h = match h with Ok h -> h | Error e -> raise e in
      Alcotest.(check bool) "the client exited cleanly" true
        (status = Unix.WEXITED 0);
      Alcotest.(check (list string)) "one answer per non-empty line"
        [ "null"; "s1"; "s2"; "s3" ]
        (List.sort compare
           (String.split_on_char '\n' (Core.Io.read_file out)));
      Alcotest.(check int) "three jobs reached the workers" 3
        h.Serve.Cluster.ch_submitted;
      Alcotest.(check bool) "clean drain" true (Serve.Cluster.clean_drain h);
      Alcotest.(check bool) "socket file removed" false
        (Sys.file_exists path))

let test_cluster_socket_round_trip = socket_round_trip ~half_close:false

(* End of input ends the client's requests, not its answers, under the
   coordinator too. *)
let test_cluster_half_closed_client = socket_round_trip ~half_close:true

(* A stdin that is a file arrives all at once. Each job goes into the
   worker's pipe and each queue_full rejection comes back on the same
   pipe, so unless the coordinator reads answers while the batch streams
   in, both directions fill and both processes block for good. The alarm
   turns such a hang into a failure. *)
let test_cluster_stdio_large_batch () =
  let n = 3000 in
  let input = Filename.temp_file "taj-cluster-batch" ".ndjson" in
  let output = Filename.temp_file "taj-cluster-answers" ".ndjson" in
  let id i = Printf.sprintf "b%d" i in
  let saved =
    List.map (fun s -> (s, Sys.signal s Sys.Signal_default))
      [ Sys.sigterm; Sys.sigint; Sys.sigusr1; Sys.sigalrm ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      List.iter (fun (s, b) -> Sys.set_signal s b) saved;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ input; output ])
    (fun () ->
      Core.Io.write_file input
        (String.concat ""
           (List.init n (fun i ->
              Obs.Json.to_string
                (Obs.Json.Obj
                   [ ("id", Obs.Json.Str (id i));
                     ("source", Obs.Json.Str two_flows) ])
              ^ "\n")));
      let inp = Unix.openfile input [ Unix.O_RDONLY ] 0 in
      let out = Unix.openfile output [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
      let cfg = cluster_config ~size:1 () in
      let c =
        Serve.Cluster.create
          ~config:
            { cfg with
              service = { cfg.service with Serve.Service.queue_cap = 8 } }
          ()
      in
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> failwith "serving the batch hung"));
      ignore (Unix.alarm 30);
      let h = Serve.Cluster.serve c (Serve.Transport.Stdio (inp, out)) in
      ignore (Unix.alarm 0);
      Unix.close inp;
      Unix.close out;
      let lines =
        String.split_on_char '\n' (Core.Io.read_file output)
        |> List.filter (( <> ) "")
      in
      let answers = List.filteri (fun i _ -> i < n) lines in
      Alcotest.(check (list string)) "one answer per line"
        (List.sort compare (List.init n id))
        (List.sort compare
           (List.map
              (fun l ->
                 match Obs.Json.parse l with
                 | Ok j ->
                   Option.value ~default:"?" (Obs.Json.str_member "id" j)
                 | Error _ -> "unparsable")
              answers));
      Alcotest.(check (list string)) "then the returned health snapshot"
        [ Obs.Json.to_string (Serve.Cluster.health_json h) ]
        (List.filteri (fun i _ -> i >= n) lines);
      Alcotest.(check int) "every job submitted" n
        h.Serve.Cluster.ch_submitted)

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "proto: frame round-trip" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "proto: admin frames round-trip" `Quick
      test_proto_admin_roundtrip;
    Alcotest.test_case "proto: partial and torn frames" `Quick
      test_proto_partial_frames;
    Alcotest.test_case "ring: deterministic balanced routing" `Slow
      test_ring_routing;
    Alcotest.test_case "cluster: batch terminal exactly once" `Slow
      test_cluster_completes_batch;
    Alcotest.test_case "cluster: output identical at 1 and 4 workers"
      `Slow test_cluster_size_invariant;
    Alcotest.test_case "chaos: SIGKILL mid-batch, reroute and respawn"
      `Slow test_cluster_sigkill_chaos;
    Alcotest.test_case "chaos: crash budget exhausts to failed" `Slow
      test_cluster_crash_budget;
    Alcotest.test_case
      "admin: aggregated replies and flight dump under SIGKILL" `Slow
      test_cluster_admin_under_chaos;
    Alcotest.test_case "cluster: an overflowing number is rejected" `Slow
      test_cluster_number_overflow;
    Alcotest.test_case "cluster: malformed lines count as rejected" `Slow
      test_cluster_malformed_lines_rejected;
    Alcotest.test_case "drain: aggregates per-worker health" `Slow
      test_cluster_drain_aggregates;
    Alcotest.test_case "transport: socket round trip" `Slow
      test_cluster_socket_round_trip;
    Alcotest.test_case "transport: a half-closed client gets its answers"
      `Slow test_cluster_half_closed_client;
    Alcotest.test_case "transport: a large stdin batch does not deadlock"
      `Slow test_cluster_stdio_large_batch ]
