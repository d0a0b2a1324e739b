(** Framed coordinator↔worker messages for the analysis cluster.

    The NDJSON client protocol is line-oriented because humans and shell
    pipelines speak it; between the coordinator and its forked workers we
    want something a [kill -9] can tear mid-write without corrupting the
    stream, so each message is a 4-byte big-endian length prefix followed
    by one JSON document. A partially written frame is detected by the
    length check and simply discarded at EOF — the coordinator treats the
    job it carried as still in flight and reroutes it, which is exactly
    the zero-lost-jobs behaviour the supervision layer needs.

    Message kinds flowing over a worker socketpair:
    - [Job]: coordinator → worker, a full analysis request;
    - [Result]: worker → coordinator, the terminal response for one job;
    - [Drain]: coordinator → worker, stop admitting and flush;
    - [Health]: worker → coordinator, a health snapshot — the final one
      once the worker has drained (its last frame), or an interim one
      answering [Health_req];
    - [Health_req] / [Metrics_req] / [Dump_req]: coordinator → worker,
      the admin channel's live queries;
    - [Metrics]: worker → coordinator, the worker's telemetry-registry
      snapshot (merged by {!Obs.Export.merge} for aggregated scrapes);
    - [Dump]: worker → coordinator, the worker's flight-recorder ring as
      a complete Chrome-trace document (spliced into the merged dump);
    - [Log_line]: worker → coordinator, one pre-rendered NDJSON log line
      forwarded to the coordinator's sink so one merged stream exists. *)

type msg =
  | Job of Service.request
  | Result of Service.response
  | Drain
  | Health of Service.health
  | Health_req
  | Metrics_req
  | Metrics of (string * Obs.Telemetry.value) list
  | Dump_req
  | Dump of string
  | Log_line of string

(* Frames above this are a protocol violation (a desynchronized or
   corrupted stream), not a plausible request. *)
let max_frame = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                        *)
(* ------------------------------------------------------------------ *)

let num n = Json.Num (float_of_int n)

let opt_str k = function
  | Some s -> [ (k, Json.Str s) ]
  | None -> []

let opt_num k = function
  | Some f -> [ (k, Json.Num f) ]
  | None -> []

let request_json (rq : Service.request) =
  Json.Obj
    ([ ("id", Json.Str rq.rq_id) ]
     @ opt_str "app" rq.rq_app
     @ opt_str "source" rq.rq_source
     @ [ ("descriptor", Json.Str rq.rq_descriptor);
         ("algorithm",
          Json.Str (Core.Config.algorithm_name rq.rq_algorithm));
         ("scale", Json.Num rq.rq_scale) ]
     @ opt_num "deadline" rq.rq_deadline
     @ [ ("priority", num rq.rq_priority) ]
     @ (if rq.Service.rq_contexts then [ ("contexts", Json.Bool true) ]
        else []))

let status_of_string = function
  | "completed" -> Ok Service.Completed
  | "degraded" -> Ok Service.Degraded
  | "rejected" -> Ok Service.Rejected
  | "failed" -> Ok Service.Failed
  | other -> Error (Printf.sprintf "unknown status %S" other)

let response_json (r : Service.response) =
  Json.Obj
    ([ ("id", Json.Str r.rp_id);
       ("status", Json.Str (Service.status_name r.rp_status));
       ("reason", Json.Str r.rp_reason) ]
     @ (match r.rp_verdict with
        | Some v -> [ ("verdict", Json.Str v) ]
        | None -> [])
     @ (match r.rp_mismatched with
        | Some n -> [ ("mismatched", num n) ]
        | None -> [])
     @ [ ("issues", num r.rp_issues);
         ("attempts", num r.rp_attempts);
         ("degradations", num r.rp_degradations);
         ("seconds", Json.Num r.rp_seconds) ])

let response_of_json j : (Service.response, string) result =
  match Json.str_member "id" j, Json.str_member "status" j with
  | None, _ -> Error "result: missing id"
  | _, None -> Error "result: missing status"
  | Some id, Some status_s ->
    (match status_of_string status_s with
     | Error e -> Error e
     | Ok status ->
       let int k = Option.value ~default:0 (Json.int_member k j) in
       Ok
         { Service.rp_id = id; rp_status = status;
           rp_reason = Option.value ~default:"" (Json.str_member "reason" j);
           rp_verdict = Json.str_member "verdict" j;
           rp_issues = int "issues";
           rp_attempts = int "attempts";
           rp_degradations = int "degradations";
           rp_seconds =
             Option.value ~default:0.0 (Json.num_member "seconds" j);
           rp_mismatched = Json.int_member "mismatched" j })

let health_json (h : Service.health) =
  Json.Obj
    [ ("uptime", Json.Num h.h_uptime);
      ("queue_depth", num h.h_queue_depth);
      ("pressure", num h.h_pressure);
      ("rung", Json.Str h.h_rung);
      ("submitted", num h.h_submitted);
      ("admitted", num h.h_admitted);
      ("completed", num h.h_completed);
      ("degraded", num h.h_degraded);
      ("failed", num h.h_failed);
      ("rejected_full", num h.h_rejected_full);
      ("rejected_draining", num h.h_rejected_draining);
      ("shed", num h.h_shed);
      ("retries", num h.h_retries);
      ("breaker_fast_fails", num h.h_breaker_fast_fails);
      ("breaker_opens", num h.h_breaker_opens);
      ("open_breakers",
       Json.Arr (List.map (fun k -> Json.Str k) h.h_open_breakers));
      ("events", num h.h_events);
      ("latency_p50", num h.h_latency_p50);
      ("latency_p95", num h.h_latency_p95);
      ("latency_p99", num h.h_latency_p99);
      ("cache_hits", num h.h_cache_hits);
      ("cache_misses", num h.h_cache_misses) ]

let health_of_json j : (Service.health, string) result =
  let int k = Option.value ~default:0 (Json.int_member k j) in
  match Json.num_member "uptime" j with
  | None -> Error "health: missing uptime"
  | Some uptime ->
    Ok
      { Service.h_uptime = uptime;
        h_queue_depth = int "queue_depth";
        h_pressure = int "pressure";
        h_rung = Option.value ~default:"" (Json.str_member "rung" j);
        h_submitted = int "submitted";
        h_admitted = int "admitted";
        h_completed = int "completed";
        h_degraded = int "degraded";
        h_failed = int "failed";
        h_rejected_full = int "rejected_full";
        h_rejected_draining = int "rejected_draining";
        h_shed = int "shed";
        h_retries = int "retries";
        h_breaker_fast_fails = int "breaker_fast_fails";
        h_breaker_opens = int "breaker_opens";
        h_open_breakers =
          (match Json.member "open_breakers" j with
           | Some (Json.Arr vs) ->
             List.filter_map
               (function Json.Str s -> Some s | _ -> None)
               vs
           | _ -> []);
        h_events = int "events";
        h_latency_p50 = int "latency_p50";
        h_latency_p95 = int "latency_p95";
        h_latency_p99 = int "latency_p99";
        h_cache_hits = int "cache_hits";
        h_cache_misses = int "cache_misses" }

(* Telemetry values, for the [Metrics] frame. Kind is a one-letter tag;
   histograms carry their sparse log2 buckets as [lo, count] pairs. *)
let value_json (v : Obs.Telemetry.value) =
  match v with
  | Obs.Telemetry.V_counter n ->
    Json.Obj [ ("k", Json.Str "c"); ("v", num n) ]
  | Obs.Telemetry.V_gauge n ->
    Json.Obj [ ("k", Json.Str "g"); ("v", num n) ]
  | Obs.Telemetry.V_histogram h ->
    Json.Obj
      [ ("k", Json.Str "h");
        ("count", num h.Obs.Telemetry.hs_count);
        ("sum", num h.Obs.Telemetry.hs_sum);
        ("max", num h.Obs.Telemetry.hs_max);
        ("buckets",
         Json.Arr
           (List.map
              (fun (lo, n) -> Json.Arr [ num lo; num n ])
              h.Obs.Telemetry.hs_buckets)) ]

let value_of_json j : (Obs.Telemetry.value, string) result =
  let int k = Option.value ~default:0 (Json.int_member k j) in
  match Json.str_member "k" j with
  | Some "c" -> Ok (Obs.Telemetry.V_counter (int "v"))
  | Some "g" -> Ok (Obs.Telemetry.V_gauge (int "v"))
  | Some "h" ->
    Ok
      (Obs.Telemetry.V_histogram
         { Obs.Telemetry.hs_count = int "count";
           hs_sum = int "sum";
           hs_max = int "max";
           hs_buckets =
             (match Json.member "buckets" j with
              | Some (Json.Arr vs) ->
                List.filter_map
                  (function
                    | Json.Arr [ Json.Num lo; Json.Num n ] ->
                      Some (int_of_float lo, int_of_float n)
                    | _ -> None)
                  vs
              | _ -> []) })
  | Some other -> Error (Printf.sprintf "metrics: unknown kind %S" other)
  | None -> Error "metrics: missing kind"

let metrics_json kvs =
  Json.Arr
    (List.map
       (fun (name, v) ->
         Json.Obj [ ("n", Json.Str name); ("v", value_json v) ])
       kvs)

let metrics_of_json j : ((string * Obs.Telemetry.value) list, string) result
    =
  match j with
  | Json.Arr items ->
    List.fold_left
      (fun acc item ->
        Result.bind acc (fun acc ->
            match Json.str_member "n" item, Json.member "v" item with
            | Some name, Some vj ->
              Result.map (fun v -> (name, v) :: acc) (value_of_json vj)
            | _ -> Error "metrics: entry missing n or v"))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "metrics: expected array"

let msg_json = function
  | Job rq -> Json.Obj [ ("t", Json.Str "job"); ("rq", request_json rq) ]
  | Result r ->
    Json.Obj [ ("t", Json.Str "result"); ("rp", response_json r) ]
  | Drain -> Json.Obj [ ("t", Json.Str "drain") ]
  | Health h ->
    Json.Obj [ ("t", Json.Str "health"); ("h", health_json h) ]
  | Health_req -> Json.Obj [ ("t", Json.Str "health_req") ]
  | Metrics_req -> Json.Obj [ ("t", Json.Str "metrics_req") ]
  | Metrics kvs ->
    Json.Obj [ ("t", Json.Str "metrics"); ("m", metrics_json kvs) ]
  | Dump_req -> Json.Obj [ ("t", Json.Str "dump_req") ]
  | Dump trace -> Json.Obj [ ("t", Json.Str "dump"); ("d", Json.Str trace) ]
  | Log_line line ->
    Json.Obj [ ("t", Json.Str "log"); ("l", Json.Str line) ]

let msg_of_json j : (msg, string) result =
  let field k =
    match Json.member k j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "frame: missing %S" k)
  in
  match Json.str_member "t" j with
  | Some "job" ->
    Result.bind (field "rq") (fun rq ->
      Result.map (fun r -> Job r) (Service.request_of_json rq))
  | Some "result" ->
    Result.bind (field "rp") (fun rp ->
      Result.map (fun r -> Result r) (response_of_json rp))
  | Some "drain" -> Ok Drain
  | Some "health" ->
    Result.bind (field "h") (fun h ->
      Result.map (fun h -> Health h) (health_of_json h))
  | Some "health_req" -> Ok Health_req
  | Some "metrics_req" -> Ok Metrics_req
  | Some "metrics" ->
    Result.bind (field "m") (fun m ->
      Result.map (fun kvs -> Metrics kvs) (metrics_of_json m))
  | Some "dump_req" -> Ok Dump_req
  | Some "dump" ->
    (match Json.str_member "d" j with
     | Some trace -> Ok (Dump trace)
     | None -> Error "dump: missing d")
  | Some "log" ->
    (match Json.str_member "l" j with
     | Some line -> Ok (Log_line line)
     | None -> Error "log: missing l")
  | Some other -> Error (Printf.sprintf "frame: unknown type %S" other)
  | None -> Error "frame: missing type"

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

let write fd m =
  let payload = Json.to_string (msg_json m) in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Core.Io.write_all fd (Bytes.unsafe_to_string b)

type reader = {
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  r_chunk : bytes;
  mutable r_eof : bool;
}

let reader fd =
  { r_fd = fd; r_buf = Buffer.create 4096;
    r_chunk = Bytes.create 65536; r_eof = false }

(* Decode one complete frame from the front of the buffer, if present. *)
let take_frame r =
  let s = Buffer.contents r.r_buf in
  let len = String.length s in
  if len < 4 then None
  else begin
    let n =
      (Char.code s.[0] lsl 24)
      lor (Char.code s.[1] lsl 16)
      lor (Char.code s.[2] lsl 8)
      lor Char.code s.[3]
    in
    if n > max_frame then Some (Error "frame too large")
    else if len < 4 + n then None
    else begin
      let payload = String.sub s 4 n in
      Buffer.clear r.r_buf;
      Buffer.add_substring r.r_buf s (4 + n) (len - 4 - n);
      match Json.parse payload with
      | Error e -> Some (Error ("frame: " ^ e))
      | Ok j -> Some (msg_of_json j)
    end
  end

(** Non-blocking read: [`Msg m] when a complete frame is buffered or
    readable right now, [`Eof] once the peer is gone and the buffer holds
    no complete frame (trailing bytes of a torn frame are dropped),
    [`Error] on a malformed or oversized frame — the peer is babbling and
    the caller should treat the channel as dead. *)
let rec read_nonblock r =
  match take_frame r with
  | Some (Ok m) -> `Msg m
  | Some (Error e) -> `Error e
  | None ->
    if r.r_eof then `Eof
    else begin
      match Core.Io.select [ r.r_fd ] [] [] 0.0 with
      | [], _, _ -> `Pending
      | _ ->
        (match Core.Io.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) with
         | 0 -> r.r_eof <- true
         | n -> Buffer.add_subbytes r.r_buf r.r_chunk 0 n
         | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
           r.r_eof <- true);
        read_nonblock r
    end

(** Blocking read for the worker loop: waits until a frame, EOF or a
    protocol error. *)
let rec read_block r =
  match read_nonblock r with
  | (`Msg _ | `Eof | `Error _) as v -> v
  | `Pending ->
    ignore (Core.Io.select [ r.r_fd ] [] [] 0.5);
    read_block r
