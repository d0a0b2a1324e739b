(** Bounded admission queue with explicit backpressure.

    The service's first robustness rule is that overload is *visible*:
    when the queue is at capacity an arriving job is either rejected with
    [Rejected_full] (the client sees [rejected:queue_full]) or admitted by
    evicting the oldest strictly-lower-priority entry, which is returned
    to the caller so the shed job can be answered too — nothing is ever
    dropped silently.

    Dequeue order is highest priority first, FIFO within a priority class.
    The queue is shared between the admission path (transport / bench
    clients) and the worker domains; a mutex + condition pair keeps it
    simple and the critical sections are a few list operations. Retries
    re-enter through {!push_forced}, which bypasses the bound *and* is
    exempt from shedding: a job that was already admitted must not lose
    its admission to later arrivals. A forced entry may carry a [delay]
    (retry backoff); it becomes eligible for {!pop} only once due, and
    waiting for it happens on the idle popping worker, never by sleeping
    a worker that could be running other jobs. *)

type 'a entry = {
  e_seq : int;
  e_priority : int;
  e_ready : float;                     (* absolute clock value when due *)
  e_exempt : bool;                     (* forced (retry): never shed *)
  e_item : 'a;
}

type 'a t = {
  cap : int;
  mutable entries : 'a entry list;     (* unordered; selection scans *)
  mutable next_seq : int;
  mutable draining : bool;
  lock : Mutex.t;
  nonempty : Condition.t;
  now : unit -> float;
  sleep : float -> unit;               (* off-lock wait for delayed entries *)
}

type 'a push_result =
  | Admitted
  | Admitted_shedding of 'a            (** the evicted lower-priority job *)
  | Rejected_full

let create ?(now = Unix.gettimeofday) ?(sleep = Core.Io.sleepf) ~cap () =
  { cap = max 1 cap; entries = []; next_seq = 0; draining = false;
    lock = Mutex.create (); nonempty = Condition.create (); now; sleep }

let locked q f =
  Mutex.lock q.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.lock) f

let length q = locked q (fun () -> List.length q.entries)

let draining q = locked q (fun () -> q.draining)

let insert q ~priority ~ready ~exempt item =
  q.entries <-
    { e_seq = q.next_seq; e_priority = priority; e_ready = ready;
      e_exempt = exempt; e_item = item }
    :: q.entries;
  q.next_seq <- q.next_seq + 1;
  Condition.signal q.nonempty

(* Oldest entry of the lowest priority class that is strictly below
   [priority] — the shedding victim, if any. Forced (retry) entries are
   exempt: an already-admitted job never loses its admission. *)
let victim entries ~priority =
  List.fold_left
    (fun best e ->
       if e.e_exempt || e.e_priority >= priority then best
       else
         match best with
         | None -> Some e
         | Some b ->
           if e.e_priority < b.e_priority
              || (e.e_priority = b.e_priority && e.e_seq < b.e_seq)
           then Some e
           else best)
    None entries

let push q ~priority item =
  locked q (fun () ->
    if List.length q.entries < q.cap then begin
      insert q ~priority ~ready:0.0 ~exempt:false item;
      Admitted
    end
    else
      match victim q.entries ~priority with
      | None -> Rejected_full
      | Some v ->
        q.entries <- List.filter (fun e -> e.e_seq <> v.e_seq) q.entries;
        insert q ~priority ~ready:0.0 ~exempt:false item;
        Admitted_shedding v.e_item)

let push_forced q ~priority ?(delay = 0.0) item =
  locked q (fun () ->
    let ready = if delay > 0.0 then q.now () +. delay else 0.0 in
    insert q ~priority ~ready ~exempt:true item)

(* Highest priority first, FIFO (lowest seq) within a class, considering
   only entries already due at [now]. *)
let select_next ~now entries =
  List.fold_left
    (fun best e ->
       if e.e_ready > now then best
       else
         match best with
         | None -> Some e
         | Some b ->
           if e.e_priority > b.e_priority
              || (e.e_priority = b.e_priority && e.e_seq < b.e_seq)
           then Some e
           else best)
    None entries

(** Blocking pop: waits for a due entry, or for drain mode with an empty
    queue, in which case [None] tells the worker to exit. Entries still
    queued when drain begins are handed out normally — an admitted job is
    finished, not abandoned, including delayed retries. *)
let pop q =
  Mutex.lock q.lock;
  let rec wait () =
    let tnow = q.now () in
    match select_next ~now:tnow q.entries with
    | Some e ->
      q.entries <- List.filter (fun x -> x.e_seq <> e.e_seq) q.entries;
      Some e.e_item
    | None ->
      if q.entries = [] then
        if q.draining then None
        else begin
          Condition.wait q.nonempty q.lock;
          wait ()
        end
      else begin
        (* only not-yet-due retry entries remain: poll until the earliest
           is due, sleeping outside the lock so pushes are never blocked
           and a newly pushed due entry is picked up within one quantum *)
        let earliest =
          List.fold_left (fun a e -> Float.min a e.e_ready) infinity
            q.entries
        in
        Mutex.unlock q.lock;
        q.sleep (Float.max 0.001 (Float.min 0.01 (earliest -. tnow)));
        Mutex.lock q.lock;
        wait ()
      end
  in
  let r = wait () in
  Mutex.unlock q.lock;
  r

(** Enter drain mode: no effect on queued entries, but every blocked and
    future [pop] returns [None] once the queue is empty. *)
let set_draining q =
  locked q (fun () ->
    q.draining <- true;
    Condition.broadcast q.nonempty)
