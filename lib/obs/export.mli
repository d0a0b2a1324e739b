(** Live exports of the {!Telemetry} registry for the admin channel:
    Prometheus text exposition, a JSON object, cross-process merging,
    and exact sample percentiles.

    All functions here only {e read} metric cells (single atomic loads),
    so they are safe to call while worker domains are recording. *)

val quantile_levels : (string * float) list
(** [("p50", 0.50); ("p95", 0.95); ("p99", 0.99)] — the quantiles
    surfaced on every histogram export. *)

val metric_name : string -> string
(** Prometheus-sanitized name: [taj_] prefix, every character outside
    [[a-zA-Z0-9_]] mapped to ['_']. *)

val prometheus_of : (string * Telemetry.value) list -> string
(** Prometheus text exposition of a snapshot. Log2 histograms become
    cumulative [le]-buckets (bucket with lower bound [lo] has
    [le = 2*lo - 1]); quantile estimates are emitted as companion
    gauges ([name_p50], ...). The output ends with a ["# EOF"] line,
    which the admin socket uses as the end-of-reply marker. *)

val prometheus : unit -> string

val json_of : (string * Telemetry.value) list -> Json.t
(** One JSON object: counters/gauges as numbers, histograms as
    [{count, sum, max, p50, p95, p99, buckets}]. The admin
    [metrics.json] reply and the [metrics] block of
    [taj analyze --json]. *)

val merge :
  (string * Telemetry.value) list list -> (string * Telemetry.value) list
(** Merge snapshots from several processes: counters and gauges sum,
    histograms merge bucket-wise. Sorted by name. *)

val percentile : float array -> float -> float
(** [percentile samples q] — exact nearest-rank percentile of raw
    (unsorted) samples; 0.0 on an empty array. *)
