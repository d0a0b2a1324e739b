(** Framed coordinator↔worker messages for the analysis cluster: 4-byte
    big-endian length prefix + one JSON document per frame (a type tag
    around {!Service}'s record encoding), over the socketpair the
    coordinator shares with each forked worker. A frame torn by a worker
    crash is detected and dropped; the job it carried stays in flight on
    the coordinator side and is rerouted. *)

type msg =
  | Job of Service.request           (** coordinator → worker *)
  | Result of Service.response       (** worker → coordinator, terminal *)
  | Drain                            (** coordinator → worker: flush *)
  | Health of Service.health
      (** worker → coordinator: final snapshot at drain, or interim
          answer to [Health_req] *)
  | Health_req                       (** coordinator → worker: admin *)
  | Metrics_req                      (** coordinator → worker: admin *)
  | Metrics of (string * Obs.Telemetry.value) list
      (** worker → coordinator: telemetry-registry snapshot *)
  | Dump_req                         (** coordinator → worker: admin *)
  | Dump of string
      (** worker → coordinator: flight ring as a Chrome-trace document *)
  | Log_line of string
      (** worker → coordinator: one forwarded NDJSON log line *)

val write : Unix.file_descr -> msg -> unit

(** Buffered frame reader over a descriptor. *)
type reader

val reader : Unix.file_descr -> reader

(** Non-blocking: [`Pending] when no complete frame is available yet;
    [`Eof] once the peer is gone (torn trailing bytes dropped); [`Error]
    on a malformed frame (treat the channel as dead). *)
val read_nonblock :
  reader -> [ `Msg of msg | `Eof | `Pending | `Error of string ]

(** Blocking variant for the worker's receive loop. *)
val read_block : reader -> [ `Msg of msg | `Eof | `Error of string ]

(** {1 Telemetry values} (the [Metrics] frame's codec; the request,
    response and health records use {!Service}'s) *)

val value_json : Obs.Telemetry.value -> Obs.Json.t
val value_of_json : Obs.Json.t -> (Obs.Telemetry.value, string) result
