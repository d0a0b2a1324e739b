(** The run's result: human-readable lines, then one JSON object as the
    last line of standard output. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(** The end-to-end metrics of an untraced run. [windows] cuts the timed
    ops into windows of consecutive ops, each with its op latencies and
    its wall seconds; [op_s_p50], [op_s_tail] and [ops_per_s] are the
    medians of the windows' own figures (with one window, the run's).
    [cpu] seconds and minor-heap [words] are summed over the timed ops,
    [rss] is the peak resident set. *)
let end_to_end ~setup_times ~windows ~cpu ~words ~rss ~ops =
  let n =
    float_of_int
      (List.fold_left (fun acc (l, _) -> acc + List.length l) 0 windows)
  in
  let tails = List.map (fun (l, _) -> Stats.tail (Array.of_list l)) windows in
  let levels = List.sort_uniq compare (List.map fst tails) in
  let in_windows =
    match windows with
    | [ _ ] -> ""
    | _ ->
      Printf.sprintf ", median of %d windows of %.0f"
        (List.length windows) (n /. float_of_int (List.length windows))
  in
  [ metric "setup_s" "s" (Stats.median setup_times)
      ~note:
        (Printf.sprintf "(median of %d set-ups: %s)"
           (List.length setup_times)
           (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times)));
    metric "op_s_p50" "s"
      (Stats.median (List.map (fun (l, _) -> Stats.median l) windows));
    metric "op_s_tail" "s" (Stats.median (List.map snd tails))
      ~note:
        (Printf.sprintf "(p%s of %.0f %s%s)"
           (String.concat "/"
              (List.map (fun q -> Printf.sprintf "%g" (100. *. q)) levels))
           n ops in_windows);
    metric "ops_per_s" "1/s"
      (Stats.median
         (List.map
            (fun (l, wall) -> Stats.ratio (float_of_int (List.length l)) wall)
            windows));
    metric "cpu_s" "s/op" (Stats.ratio cpu n);
    metric "alloc_mwords" "Mword/op" (Stats.ratio words n /. 1e6);
    metric "peak_rss_mb" "MB" rss ]

let print ~correct ~(tally : Oracle.tally) (metrics : metric list) =
  List.iter
    (fun m ->
       Printf.printf "  %-24s %14.6g %-12s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  Printf.printf "  %-24s %14.6g %-12s (%d failed of %d attempted)\n"
    "fail_ratio"
    (Stats.ratio (float_of_int tally.Oracle.failed)
       (float_of_int tally.Oracle.attempted))
    "failed/op" tally.Oracle.failed tally.Oracle.attempted;
  List.iter (Printf.printf "  failure: %s\n") (List.rev tally.Oracle.errors);
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.Oracle.attempted tally.Oracle.failed
    (String.concat ", "
       (List.map
          (fun m ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
               (num m.value) m.unit_)
          metrics))
