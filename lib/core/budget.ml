(** Wall-clock deadlines, step budgets and cancellation for one analysis
    attempt.

    The paper's bounded-analysis machinery (§6) caps *work* (call-graph
    nodes, heap transitions); a production service additionally needs a
    *time* ceiling that holds regardless of which phase is hot. A [Budget.t]
    carries an absolute [Unix.gettimeofday] deadline, an optional global
    step budget and a shared cancellation token. The long-running loops
    poll it through {!exceeded}; the call is amortized so that the
    [gettimeofday] syscall happens only once every [probe_mask + 1] polls.

    The cancellation token may be set from another domain while the run
    polls, so the counters and the cancellation/trip flags are [Atomic],
    which keeps a budget safe to poll from any domain. A poll writes
    shared state only when a step budget is armed (or on the trip
    itself): the common no-limit poll is two atomic loads. Deadline
    probes are amortized per domain through a domain-local poll counter,
    since serve workers poll their own budgets concurrently. *)

type t = {
  started : float;
  deadline : float option;           (* absolute wall-clock time *)
  max_steps : int option;
  cancel : bool Atomic.t;
  steps : int Atomic.t;              (* counted only under [max_steps] *)
  tripped : bool Atomic.t;           (* latches once exceeded *)
  probe_mask : int;
}

(* each domain amortizes its own gettimeofday probes; the counter is
   shared between budgets, which only skews *when* within a 32-poll
   window the first probe of a fresh budget lands *)
let local_polls : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

type verdict = Ok | Deadline | Cancelled | Steps

(* Latch the trip flag; the first transition (and only the first) is an
   instant event on the telemetry trace, naming what ran out. *)
let trip t what =
  if not (Atomic.exchange t.tripped true) then
    Obs.Telemetry.instant "budget.trip" ~args:[ ("what", what) ]

let create ?deadline ?max_steps ?(cancel = Atomic.make false) () =
  let started = Unix.gettimeofday () in
  { started;
    deadline = Option.map (fun d -> started +. d) deadline;
    max_steps;
    cancel;
    steps = Atomic.make 0;
    tripped = Atomic.make false;
    probe_mask = 31 }

let unlimited () = create ()

let cancel t = Atomic.set t.cancel true
let cancelled t = Atomic.get t.cancel

let elapsed t = Unix.gettimeofday () -. t.started

(* [>=] so a zero deadline counts as already expired even when the clock
   has not visibly advanced since [create] *)
let past_deadline t =
  match t.deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false

(* The full (unamortized) check; latches [tripped]. *)
let status t : verdict =
  if Atomic.get t.cancel then begin
    trip t "cancelled";
    Cancelled
  end
  else if past_deadline t then begin
    trip t "deadline";
    Deadline
  end
  else
    match t.max_steps with
    | Some m when Atomic.get t.steps > m ->
      trip t "steps";
      Steps
    | _ -> Ok

let exceeded t =
  if Atomic.get t.tripped then true
  else if Atomic.get t.cancel then begin
    trip t "cancelled";
    true
  end
  else begin
    (match t.max_steps with
     | Some m ->
       if Atomic.fetch_and_add t.steps 1 + 1 > m then trip t "steps"
     | None -> ());
    (match t.deadline with
     | Some _ when not (Atomic.get t.tripped) ->
       let polls = Domain.DLS.get local_polls in
       incr polls;
       if !polls land t.probe_mask = 0 && past_deadline t then
         trip t "deadline"
     | _ -> ());
    Atomic.get t.tripped
  end

let tripped t = Atomic.get t.tripped
