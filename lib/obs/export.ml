(* Live renderings of the Telemetry registry: Prometheus text
   exposition and a JSON object for the admin socket, plus the metric
   merge used by the cluster coordinator to aggregate per-worker
   snapshots. *)

let quantile_levels = [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ]

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry uses
   dotted names; map every other character to '_' and prefix the
   exporter namespace. *)
let metric_name name =
  let b = Bytes.of_string ("taj_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Cumulative le-buckets from the sparse log2 snapshot. Bucket with
   lower bound [lo] covers values up to [2*lo - 1] inclusive (bucket 0
   covers v <= 0), so those are the le bounds. *)
let histogram_lines pname (h : Telemetry.histogram_snapshot) =
  let buf = Buffer.create 256 in
  let cum = ref 0 in
  List.iter
    (fun (lo, n) ->
      cum := !cum + n;
      let le = if lo = 0 then "0" else string_of_int ((2 * lo) - 1) in
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname le !cum))
    h.Telemetry.hs_buckets;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.Telemetry.hs_count);
  Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" pname h.Telemetry.hs_sum);
  Buffer.add_string buf
    (Printf.sprintf "%s_count %d\n" pname h.Telemetry.hs_count);
  Buffer.contents buf

(** Render a metrics snapshot as Prometheus text exposition. Histogram
    quantile estimates are emitted as companion gauges ([name_p50] ...)
    since the classic exposition format has no quantile series on
    histogram type. The output ends with a ["# EOF"] line (OpenMetrics
    terminator), which the admin socket also uses as the end-of-reply
    marker. *)
let prometheus_of snapshot =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = metric_name name in
      match v with
      | Telemetry.V_counter n ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" pname);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" pname n)
      | Telemetry.V_gauge n ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" pname);
        Buffer.add_string buf (Printf.sprintf "%s %d\n" pname n)
      | Telemetry.V_histogram h ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" pname);
        Buffer.add_string buf (histogram_lines pname h);
        List.iter
          (fun (label, q) ->
            Buffer.add_string buf
              (Printf.sprintf "# TYPE %s_%s gauge\n%s_%s %d\n" pname label
                 pname label
                 (Telemetry.snapshot_quantile h q)))
          quantile_levels)
    snapshot;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let prometheus () = prometheus_of (Telemetry.metrics ())

(** A metrics snapshot as one JSON object: counters and gauges as
    numbers, histograms as objects with count/sum/max/quantiles and the
    sparse log2 buckets. The admin [metrics.json] reply and the
    [metrics] block of [taj analyze --json]. *)
let json_of snapshot =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Telemetry.V_counter n | Telemetry.V_gauge n -> Json.int n
           | Telemetry.V_histogram h ->
             Json.Obj
               ([ ("count", Json.int h.Telemetry.hs_count);
                  ("sum", Json.int h.Telemetry.hs_sum);
                  ("max", Json.int h.Telemetry.hs_max) ]
                @ List.map
                    (fun (label, q) ->
                      (label, Json.int (Telemetry.snapshot_quantile h q)))
                    quantile_levels
                @ [ ("buckets",
                     Json.Arr
                       (List.map
                          (fun (lo, n) -> Json.Arr [ Json.int lo; Json.int n ])
                          h.Telemetry.hs_buckets)) ]) ))
       snapshot)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)
(* ------------------------------------------------------------------ *)

let merge_hist (a : Telemetry.histogram_snapshot)
    (b : Telemetry.histogram_snapshot) =
  let tbl = Hashtbl.create 16 in
  let feed (lo, n) =
    Hashtbl.replace tbl lo (n + Option.value ~default:0 (Hashtbl.find_opt tbl lo))
  in
  List.iter feed a.Telemetry.hs_buckets;
  List.iter feed b.Telemetry.hs_buckets;
  {
    Telemetry.hs_count = a.Telemetry.hs_count + b.Telemetry.hs_count;
    hs_sum = a.Telemetry.hs_sum + b.Telemetry.hs_sum;
    hs_max = max a.Telemetry.hs_max b.Telemetry.hs_max;
    hs_buckets =
      Hashtbl.fold (fun lo n acc -> (lo, n) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

(** Merge metric snapshots from several processes into one: counters
    and gauges sum, histograms merge bucket-wise (counts and sums add,
    max of maxes). A name present with different kinds keeps the first
    kind seen and drops conflicting entries — snapshots from homogeneous
    workers never hit that case. *)
let merge snapshots =
  let tbl : (string, Telemetry.value) Hashtbl.t = Hashtbl.create 64 in
  let feed (name, v) =
    match (Hashtbl.find_opt tbl name, v) with
    | None, v -> Hashtbl.replace tbl name v
    | Some (Telemetry.V_counter a), Telemetry.V_counter b ->
      Hashtbl.replace tbl name (Telemetry.V_counter (a + b))
    | Some (Telemetry.V_gauge a), Telemetry.V_gauge b ->
      Hashtbl.replace tbl name (Telemetry.V_gauge (a + b))
    | Some (Telemetry.V_histogram a), Telemetry.V_histogram b ->
      Hashtbl.replace tbl name (Telemetry.V_histogram (merge_hist a b))
    | Some _, _ -> ()
  in
  List.iter (List.iter feed) snapshots;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Exact sample percentiles                                           *)
(* ------------------------------------------------------------------ *)

(** [percentile samples q] is the exact [q]-percentile (nearest-rank) of
    an unsorted array of samples; 0.0 on an empty array. Used by the
    bench harness where raw latency samples are available, versus the
    log2-bucket estimates used everywhere else. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end
