(** Fixed-size Domain worker pool with a deterministic, index-ordered
    merge, for fan-out across independent analysis runs (the bench
    harness's per-app rows); a single run is always sequential.

    Apply [f] to every element of a list, on up to [jobs] domains, and
    return the results in the input order as if [List.map] had run.
    Tasks are pulled from a shared atomic counter (work stealing), so
    scheduling is nondeterministic — but results are written into a slot
    per input index, which makes the merge deterministic regardless of
    which domain ran which task.

    Exceptions are captured per task; after every worker has joined, the
    exception of the lowest-index failed task is re-raised with its
    original backtrace. All tasks run even when an early one fails —
    fault isolation across tasks is the caller's job (e.g. the bench
    harness turns a failed app into a failure row), this module only
    guarantees that one poisoned task cannot prevent the others from
    completing or leave a domain unjoined.

    [jobs <= 1] (or a singleton/empty input) never spawns a domain and is
    exactly [List.map f xs] — same evaluation order, same eager raise on
    the first failing element. *)

type 'a task_result =
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

(* Tasks executed on the pool. Jobs-dependent only in how they are
   distributed, not in how many there are. *)
let m_tasks = Obs.Telemetry.counter "parallel.tasks"

let run_task f x =
  match f x with
  | y -> Done y
  | exception e -> Raised (e, Printexc.get_raw_backtrace ())

(** [map ~jobs f xs]: parallel [List.map f xs] on at most [jobs] domains
    (including the calling one). Deterministic output order; re-raises the
    first (lowest-index) task exception after joining all workers. *)
let map ~jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match xs with
  | [] -> []
  | _ when jobs <= 1 -> List.map f xs
  | [ x ] -> [ f x ]
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : 'b task_result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      (* the span lands on the executing domain's telemetry buffer, giving
         each pool domain its own track in the exported trace *)
      Obs.Telemetry.with_span "parallel.worker" @@ fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Obs.Telemetry.incr m_tasks;
          results.(i) <- Some (run_task f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned = min jobs n - 1 in
    let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* every slot is filled: the counter hands each index to exactly one
       worker, and workers only return once the counter runs past [n] *)
    Array.iteri
      (fun i r ->
         match r with
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | Some (Done _) -> ()
         | None ->
           invalid_arg
             (Printf.sprintf "Parallel.map: slot %d left unfilled" i))
      results;
    Array.to_list
      (Array.map
         (function
           | Some (Done y) -> y
           | Some (Raised _) | None -> assert false (* raised above *))
         results)
