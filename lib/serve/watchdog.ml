(** Memory watchdog: degrade before the process OOMs.

    Workers sample [Gc.quick_stat] between jobs. When the major heap
    exceeds the soft limit the pressure level rises (capped); when it
    falls back under three quarters of the limit the level decays. The
    service maps pressure level [p] to the [p]-th rung of the job's
    {!Core.Config.degradation_ladder}, so under memory pressure new jobs
    run with progressively stricter bounds — the §6 philosophy (trade
    precision for termination) applied to the life of the process instead
    of a single run. Every level change is a
    {!Core.Diagnostics.Resource_pressure} event for the caller to emit. *)

type t = {
  soft_limit_mb : int option;
  max_level : int;
  level : int Atomic.t;
  read_heap : unit -> int;
}

let g_pressure = Obs.Telemetry.gauge "serve.pressure"
let g_heap_mb = Obs.Telemetry.gauge "serve.heap_mb"

let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  words * (Sys.word_size / 8) / 1_000_000

(* [heap] is injectable so the ladder transitions are unit-testable with
   a scripted heap profile; production uses the real [Gc.quick_stat]. *)
let create ?(max_level = 4) ?(heap = heap_mb) ~soft_limit_mb () =
  { soft_limit_mb; max_level = max 1 max_level; level = Atomic.make 0;
    read_heap = heap }

let level t = Atomic.get t.level

(** Take one sample; returns the (possibly new) pressure level. The CAS
    keeps concurrent samples from different workers monotone: a sample
    only moves the level one step from the value it read. [on_event]
    receives the {!Core.Diagnostics.Resource_pressure} event on a level
    change (the service emits and counts it). *)
let sample ?(on_event = fun (_ : Core.Diagnostics.degradation) -> ()) t =
  match t.soft_limit_mb with
  | None -> 0
  | Some limit ->
    let mb = t.read_heap () in
    Obs.Telemetry.set g_heap_mb mb;
    let cur = Atomic.get t.level in
    let want =
      if mb >= limit then min t.max_level (cur + 1)
      else if mb < limit * 3 / 4 then max 0 (cur - 1)
      else cur
    in
    if want <> cur && Atomic.compare_and_set t.level cur want then begin
      Obs.Telemetry.set g_pressure want;
      on_event
        (Core.Diagnostics.Resource_pressure { pressure = want; heap_mb = mb });
      want
    end
    else Atomic.get t.level

(** Config for a job admitted at pressure [p]: the [p]-th rung of its
    degradation ladder (or the strictest rung the ladder has). *)
let degrade_config ~scale (config : Core.Config.t) p =
  if p <= 0 then (scale, config)
  else begin
    let ladder = Core.Config.degradation_ladder ~scale config in
    match ladder with
    | [] -> (scale, config)
    | _ ->
      let n = List.length ladder in
      List.nth ladder (min p n - 1)
  end
