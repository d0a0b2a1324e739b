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

module Json = Obs.Json

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
(* The message envelope: a type tag over the service's record codecs  *)
(* ------------------------------------------------------------------ *)

(* Telemetry values, for the [Metrics] frame. Kind is a one-letter tag;
   histograms carry their sparse log2 buckets as [lo, count] pairs. *)
let value_json (v : Obs.Telemetry.value) =
  match v with
  | Obs.Telemetry.V_counter n ->
    Json.Obj [ ("k", Json.Str "c"); ("v", Json.int n) ]
  | Obs.Telemetry.V_gauge n ->
    Json.Obj [ ("k", Json.Str "g"); ("v", Json.int n) ]
  | Obs.Telemetry.V_histogram h ->
    Json.Obj
      [ ("k", Json.Str "h");
        ("count", Json.int h.Obs.Telemetry.hs_count);
        ("sum", Json.int h.Obs.Telemetry.hs_sum);
        ("max", Json.int h.Obs.Telemetry.hs_max);
        ("buckets",
         Json.Arr
           (List.map
              (fun (lo, n) -> Json.Arr [ Json.int lo; Json.int n ])
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
  | Job rq ->
    Json.Obj [ ("t", Json.Str "job"); ("rq", Service.request_json rq) ]
  | Result r ->
    Json.Obj [ ("t", Json.Str "result"); ("rp", Service.response_json r) ]
  | Drain -> Json.Obj [ ("t", Json.Str "drain") ]
  | Health h ->
    Json.Obj [ ("t", Json.Str "health"); ("h", Service.health_json h) ]
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
      Result.map (fun r -> Result r) (Service.response_of_json rp))
  | Some "drain" -> Ok Drain
  | Some "health" ->
    Result.bind (field "h") (fun h ->
      Result.map (fun h -> Health h) (Service.health_of_json h))
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
