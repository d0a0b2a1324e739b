(** Pipeline-wide observability: span tracing, a metrics registry,
    instant events, and a bounded always-on flight recorder.

    Spans and instants are recorded into {e per-domain} buffers and
    exported as Chrome trace-event JSON; counters, gauges and log2
    histograms live in a global registry snapshotted by {!metrics} and
    rendered live by {!Export}.

    {2 Disabled fast path}

    Telemetry is globally off by default. Every probe — {!with_span},
    {!instant}, {!incr}, {!add}, {!set}, {!observe} — begins with a
    single [Atomic.get] of the recording flag and returns immediately
    when it is false: no allocation, no syscall, no lock. ({!instant}
    additionally performs one atomic load for the {!Log} sink.) The
    overhead guard in [test/test_telemetry.ml] fails if the estimated
    full-pipeline overhead of the disabled probes exceeds 2%.

    Recording is on when {e either} full tracing ({!enable}) or the
    flight recorder ({!arm_flight}) is active; only {!enabled} — i.e.
    full tracing — implies unbounded buffers and exit-time trace files.

    {2 Which functions are safe from worker domains}

    {b Safe from any domain, any time}: all probes ({!with_span},
    {!phase}, {!instant}, {!timed}), all metric creation and updates
    ({!counter}, {!gauge}, {!histogram}, {!incr}, {!add}, {!set},
    {!observe}), {!metrics} / {!find_value} / {!snapshot_quantile}
    reads (single atomic loads per cell), and the flight-recorder dump
    ({!flight_events}, {!flight_json}) — the latter
    reads other domains' buffers racily, which under the OCaml 5 memory
    model yields a valid (possibly slightly stale) snapshot, never a
    torn one.

    {b Main domain after joins only}: {!events}, {!trace_json},
    {!write_trace} and {!reset} assume no domain is concurrently
    recording; callers drain full traces only after the domains they
    started have joined. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** Whether {e full} tracing is on (unbounded buffers, exit-time
    exports). False when only the flight recorder is armed. *)

val enable : unit -> unit
val disable : unit -> unit

val arm_flight : int -> unit
(** [arm_flight cap] turns recording on with bounded per-domain ring
    buffers: each domain keeps (roughly) its most recent [cap] events —
    the list is trimmed back to [cap] whenever it reaches [2*cap], so
    the amortized cost per event stays O(1). [arm_flight 0] disarms.
    Full tracing, when also on, takes precedence over the bound. *)

val flight_armed : unit -> bool

(** {1 Clock} *)

val now : unit -> float
(** Wall-clock seconds (the one clock of the repository). *)

val epoch : float
val us_of : float -> float

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [(f (), wall-clock seconds f took)] — always measured,
    telemetry enabled or not. *)

(** {1 Spans and instants} *)

type phase_kind = Span | Instant

type event = {
  ev_name : string;
  ev_kind : phase_kind;
  ev_ts : float;                       (* µs since [epoch] *)
  ev_dur : float;                      (* µs; 0 for instants *)
  ev_tid : int;                        (* recording domain's id *)
  ev_args : (string * string) list;
}

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the closure under a complete span on the current domain's
    track; the span is recorded even when the closure raises. *)

val phase :
  ?args:(string * string) list -> string -> (unit -> 'a) -> 'a * float
(** {!timed} + {!with_span}: duration always measured, span recorded
    only when recording is on. *)

val instant : ?args:(string * string) list -> string -> unit
(** Mark a point in time on the current domain's track. Also routes
    through {!Log.emit_instant} whenever a log sink is installed,
    independently of tracing. *)

(** {1 Metrics registry} *)

type counter
type gauge
type histogram
(** log2 buckets: bucket [i] counts observations [v] with
    [2^(i-1) <= v < 2^i]; bucket 0 counts [v <= 0]. *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram
(** Idempotent per name; raises [Invalid_argument] if the name is
    already registered with a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val observe : histogram -> int -> unit

val counter_value : counter -> int
val gauge_value : gauge -> int

type histogram_snapshot = {
  hs_count : int;
  hs_sum : int;
  hs_max : int;
  hs_buckets : (int * int) list;       (* bucket lower bound, count *)
}

val histogram_snapshot : histogram -> histogram_snapshot

val snapshot_quantile : histogram_snapshot -> float -> int
(** [snapshot_quantile s q] estimates the [q]-quantile ([0 <= q <= 1]):
    the upper bound of the bucket holding the q-th observation, capped
    at the observed maximum. Good to within a factor of two. *)

type value =
  | V_counter of int
  | V_gauge of int
  | V_histogram of histogram_snapshot

val metrics : unit -> (string * value) list
(** Snapshot of every registered metric, sorted by name. *)

val find_value : string -> value option

val reset : unit -> unit
(** Zero every metric and drop every recorded event; registrations and
    the enabled/armed flags are untouched. Main domain, after joins. *)

(** {1 Export: Chrome trace JSON} *)

val events : unit -> event list
(** All recorded events, oldest first. Main domain, after joins. *)

val trace_json : unit -> string
val write_trace : string -> unit

val flight_events : unit -> event list
(** The most recent events, capped per domain at the flight cap —
    readable {e while} other domains are recording (racy-read
    snapshot); oldest first. *)

val flight_json : unit -> string
(** Chrome-trace document of the flight ring — rendered as {!trace_json}
    is, under the process name ["taj flight"], so the cluster's pid-lane
    splicing applies. *)

(** {1 Export: metrics} *)

val pp_metrics : Format.formatter -> unit -> unit
(** Human-readable metrics table (the [--metrics] stderr report);
    histogram rows include p50/p95/p99. *)
