(** Measurement primitives: wall and CPU clocks, allocated words, peak
    resident set, and order statistics over op latencies (exact
    nearest-rank, through [Obs.Export.percentile]). *)

let now = Unix.gettimeofday

(** Process CPU seconds, user plus system, summed over every domain. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** Words allocated in the minor heap by the calling domain so far:
    every allocation except blocks over 256 words, which go straight to
    the major heap. [Gc.minor_words] is exact for the calling domain,
    so the difference of two readings around a single-domain computation
    repeats exactly. The major heap's counters are not used: on OCaml 5
    they are folded in at collections and read differently from run to
    run. *)
let words () = Gc.minor_words ()

(** Minor-heap words allocated by every domain, joined ones included. A
    live domain's words are only folded into [Gc.quick_stat] at its
    collections, so the reading forces a minor collection first; read it
    after the worker domains are joined for an exact total. *)
let words_all_domains () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(** This process's peak resident set (VmHWM), in MB of 2^20 bytes. *)
let peak_rss_mb () =
  let status =
    try In_channel.with_open_text "/proc/self/status" In_channel.input_all
    with Sys_error _ -> ""
  in
  List.fold_left
    (fun acc line ->
       match String.split_on_char ':' line with
       | [ "VmHWM"; v ] ->
         (match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
       | _ -> acc)
    0. (String.split_on_char '\n' status)

let median xs = Obs.Export.percentile (Array.of_list xs) 0.5

(* candidate tail levels, highest first *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(** The highest level in [tail_levels] with at least ten samples ranked
    above it (nearest rank), and the latency at that level. *)
let tail (a : float array) =
  let n = float_of_int (Array.length a) in
  let beyond q = n -. Float.ceil (q *. n) in
  let q =
    Option.value ~default:0.5
      (List.find_opt (fun q -> beyond q >= 10.) tail_levels)
  in
  (q, Obs.Export.percentile a q)

let sum = List.fold_left ( +. ) 0.

(** [num /. den], or 0 when nothing was measured. *)
let ratio num den = if den = 0. then 0. else num /. den
