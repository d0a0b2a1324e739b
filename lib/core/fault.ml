(** Test-only fault-injection registry.

    The resilience suite arms faults at named pipeline sites; the pipeline
    calls {!tick} at those sites (parse of each unit, each Andersen
    propagation, each SDG node scan, each tabulation step, each heap
    transition). When an armed site reaches its trigger count the fault
    fires: either an {!Injected} exception or a stall that burns wall-clock
    time so deadline handling can be exercised deterministically.

    The registry is global, mutable state — acceptable because it exists
    purely for tests, which call {!reset} between cases. Ticks can arrive
    from several domains at once (concurrent serve workers share the one
    registry), so the table is guarded by a mutex; an atomic armed-site count keeps the production fast path
    (nothing armed) completely lock-free. A firing action is decided under
    the lock but *performed* outside it, so a [Stall] in one worker never
    blocks the other workers' ticks, and the raised {!Injected} stays
    contained to the domain whose tick triggered it. *)

exception Injected of string
exception Injected_transient of string

type action =
  | Fail                             (** raise {!Injected} *)
  | Fail_transient                   (** raise {!Injected_transient} *)
  | Stall of float                   (** sleep this many seconds, once *)

type armed = {
  a_site : string;
  a_after : int;                     (* fire on the [a_after]-th tick *)
  a_action : action;
  a_once : bool;                     (* disarm after firing *)
  mutable a_live : bool;             (* kept after firing so [fired] works *)
  mutable a_count : int;
  mutable a_fired : int;
}

let table : (string, armed) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

(* Number of entries in [table]; checked without the lock on every tick so
   unarmed runs pay one atomic load and nothing else. *)
let armed_count = Atomic.make 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Standard site names used by the pipeline. *)
let site_parse = "parse"
let site_andersen = "andersen"
let site_sdg = "sdg"
let site_tabulation = "tabulation"
let site_heap = "heap-transition"
let site_worker = "serve-worker"
let site_cache_read = "cache:read"
let site_cache_write = "cache:write"
let site_triage_infer = "triage:infer"
let site_triage_filter = "triage:filter"

(* Per-job site for the analysis service: arming ["job:<id>"] targets one
   job deterministically even when worker scheduling is racy. *)
let site_job id = "job:" ^ id

(* ------------------------------------------------------------------ *)
(* Failure taxonomy                                                   *)
(* ------------------------------------------------------------------ *)

type severity =
  | Transient
  | Permanent

let severity_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"

(** Classify an escaped exception for retry policy. The analysis itself is
    deterministic, so anything it raises is [Permanent] (retrying the same
    input reproduces the failure); only infrastructure blips — interrupted
    syscalls, transient resource exhaustion, and faults injected as
    transient — are worth a retry. *)
let classify : exn -> severity = function
  | Injected_transient _ -> Transient
  | Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK | ECONNRESET | EPIPE), _, _)
    ->
    (* EPIPE: the peer process (a crashed cluster worker) went away under
       us — the job itself is fine and is worth a retry elsewhere *)
    Transient
  | Out_of_memory -> Transient      (* pressure may subside between tries *)
  | Injected _ | Stack_overflow | _ -> Permanent

let arm ?(once = true) ?(action = Fail) site ~after =
  locked (fun () ->
    if not (Hashtbl.mem table site) then Atomic.incr armed_count;
    Hashtbl.replace table site
      { a_site = site; a_after = max 1 after; a_action = action;
        a_once = once; a_live = true; a_count = 0; a_fired = 0 })

let disarm site =
  locked (fun () ->
    if Hashtbl.mem table site then begin
      Hashtbl.remove table site;
      Atomic.decr armed_count
    end)

let reset () =
  locked (fun () ->
    Hashtbl.reset table;
    Atomic.set armed_count 0)

let fired site =
  locked (fun () ->
    match Hashtbl.find_opt table site with
    | Some a -> a.a_fired
    | None -> 0)

let tick site =
  if Atomic.get armed_count > 0 then begin
    let firing =
      locked (fun () ->
        match Hashtbl.find_opt table site with
        | None -> None
        | Some a when not a.a_live -> None
        | Some a ->
          a.a_count <- a.a_count + 1;
          if a.a_count >= a.a_after then begin
            a.a_fired <- a.a_fired + 1;
            if a.a_once then a.a_live <- false else a.a_count <- 0;
            Some a.a_action
          end
          else None)
    in
    (* act outside the lock: a stall must not serialize other workers *)
    match firing with
    | None -> ()
    | Some a ->
      Obs.Telemetry.instant "fault.injected"
        ~args:
          [ ("site", site);
            ("action",
             match a with
             | Fail -> "fail"
             | Fail_transient -> "fail-transient"
             | Stall _ -> "stall") ];
      (match a with
       | Fail -> raise (Injected site)
       | Fail_transient -> raise (Injected_transient site)
       | Stall s -> Unix.sleepf s)
  end
