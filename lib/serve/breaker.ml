(** Per-key circuit breakers: closed -> open -> half-open -> closed.

    A key (normally the application name) that keeps failing terminally
    stops consuming worker slots: after [threshold] consecutive terminal
    failures the breaker {e opens} and jobs for that key fail fast without
    running. After [cooldown] seconds the next acquire transitions to
    {e half-open} and is admitted as a single probe; the probe's success
    closes the breaker (and resets the failure count), its failure
    re-opens it for another cooldown. While a half-open probe is in flight
    every other acquire for the key still fails fast — except the probe
    job's own re-execution: the cell remembers which job holds the probe
    slot, so a probe whose run failed {e transiently} (and will be
    retried) is re-admitted as the same probe rather than fast-failed,
    which would leave the breaker wedged half-open forever.

    Only {e terminal} failures count: a transient failure that the retry
    policy will re-run carries no new information about the key, and a
    fast-fail must not re-trip the breaker it came from. The clock is
    injectable ([now]) so the state machine is unit-testable without real
    waiting. *)

type state =
  | Closed
  | Open of float                      (** opened at (clock value) *)
  | Half_open                          (** one probe in flight *)

let state_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

type cell = {
  mutable c_state : state;
  mutable c_failures : int;            (* consecutive terminal failures *)
  mutable c_probe : string option;     (* job holding the half-open slot *)
}

type t = {
  threshold : int;
  cooldown : float;
  now : unit -> float;
  cells : (string, cell) Hashtbl.t;
  lock : Mutex.t;
  on_transition : key:string -> state -> unit;
}

let m_opens = Obs.Telemetry.counter "serve.breaker.opens"
let m_fast_fails = Obs.Telemetry.counter "serve.breaker.fast_fails"

let create ?(now = Unix.gettimeofday)
    ?(on_transition = fun ~key:_ _ -> ()) ~threshold ~cooldown () =
  { threshold = max 1 threshold; cooldown; now;
    cells = Hashtbl.create 16; lock = Mutex.create (); on_transition }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = { c_state = Closed; c_failures = 0; c_probe = None } in
    Hashtbl.replace t.cells key c;
    c

let transition t ~key c st =
  c.c_state <- st;
  t.on_transition ~key st

(** Admission decision for one execution of a job keyed [key]. [job]
    identifies the execution so that the half-open probe's own retry can
    reclaim the probe slot it already holds. *)
let acquire ?job t key : [ `Proceed | `Probe | `Fast_fail ] =
  locked t (fun () ->
    let c = cell t key in
    match c.c_state with
    | Closed -> `Proceed
    | Half_open ->
      (match job, c.c_probe with
       | Some j, Some p when j = p -> `Probe   (* the probe's own retry *)
       | _ ->
         Obs.Telemetry.incr m_fast_fails;
         `Fast_fail)
    | Open since ->
      if t.now () -. since >= t.cooldown then begin
        transition t ~key c Half_open;
        c.c_probe <- job;
        `Probe
      end
      else begin
        Obs.Telemetry.incr m_fast_fails;
        `Fast_fail
      end)

(** Record a successful (or degraded-but-terminal-success) execution. The
    cell is then indistinguishable from a fresh one, so it is evicted:
    the table holds only keys with live failure streaks or open breakers,
    not one entry per key ever seen. *)
let success t key =
  locked t (fun () ->
    let c = cell t key in
    c.c_failures <- 0;
    c.c_probe <- None;
    (match c.c_state with
     | Half_open | Open _ -> transition t ~key c Closed
     | Closed -> ());
    Hashtbl.remove t.cells key)

(** Record a terminal failure. Returns [true] when this failure opened
    (or re-opened) the breaker. *)
let failure t key =
  locked t (fun () ->
    let c = cell t key in
    c.c_failures <- c.c_failures + 1;
    c.c_probe <- None;
    match c.c_state with
    | Half_open ->
      Obs.Telemetry.incr m_opens;
      transition t ~key c (Open (t.now ()));
      true
    | Closed when c.c_failures >= t.threshold ->
      Obs.Telemetry.incr m_opens;
      transition t ~key c (Open (t.now ()));
      true
    | Closed | Open _ -> false)

(* Read-only accessors must not materialize cells, or health polling
   would re-grow the table that [success] prunes. *)
let state t key =
  locked t (fun () ->
    match Hashtbl.find_opt t.cells key with
    | Some c -> c.c_state
    | None -> Closed)

let consecutive_failures t key =
  locked t (fun () ->
    match Hashtbl.find_opt t.cells key with
    | Some c -> c.c_failures
    | None -> 0)

(** Keys whose breaker is currently not closed, for health snapshots. *)
let open_keys t =
  locked t (fun () ->
    Hashtbl.fold
      (fun key c acc -> if c.c_state = Closed then acc else key :: acc)
      t.cells [])
  |> List.sort String.compare
