(** Analysis configurations: the five algorithm settings of Table 1.

    | configuration       | models | priority | optimizations |
    |---------------------|--------|----------|----------------|
    | Hybrid, unbounded   |   x    |          |                |
    | Hybrid, prioritized |   x    |    x     |                |
    | Hybrid, optimized   |   x    |    x     |       x        |
    | CS thin slicing     |   x    |          |                |
    | CI thin slicing     |   x    |          |                |

    The fully optimized variant uses the paper's published bounds: a
    20,000-node call-graph budget, 20,000 heap transitions during slicing,
    a flow-length cap of 14, and nested-taint depth 2 (§7.1). A [scale]
    factor shrinks the two big budgets together with workload size. *)

type algorithm =
  | Hybrid_unbounded
  | Hybrid_prioritized
  | Hybrid_optimized
  | Cs_thin_slicing
  | Ci_thin_slicing
  | Type_triage

let algorithm_name = function
  | Hybrid_unbounded -> "hybrid-unbounded"
  | Hybrid_prioritized -> "hybrid-prioritized"
  | Hybrid_optimized -> "hybrid-optimized"
  | Cs_thin_slicing -> "cs"
  | Ci_thin_slicing -> "ci"
  | Type_triage -> "triage"

let algorithm_of_name = function
  | "hybrid" | "hybrid-unbounded" -> Some Hybrid_unbounded
  | "prioritized" | "hybrid-prioritized" -> Some Hybrid_prioritized
  | "optimized" | "hybrid-optimized" -> Some Hybrid_optimized
  | "cs" -> Some Cs_thin_slicing
  | "ci" -> Some Ci_thin_slicing
  | "triage" -> Some Type_triage
  | _ -> None

type t = {
  algorithm : algorithm;
  max_cg_nodes : int option;          (* §6.1 *)
  prioritized : bool;                 (* §6.1 *)
  max_heap_transitions : int option;  (* §6.2.1, the bound the paper kept *)
  max_slice_steps : int option;
      (* §6.2.1's alternative: "cast constraints on the slice sizes through
         the no-heap SDG" — bounded exploration steps instead of heap
         transitions; kept for the ablation that justifies the choice *)
  max_flow_length : int option;       (* §6.2.2 *)
  nested_taint_depth : int;           (* §6.2.3; -1 = unbounded *)
  cs_budget : int option;             (* emulates the CS memory ceiling *)
  excluded_classes : string list;     (* §4.2.1 whitelist *)
  refine : bool;                      (* access-path replay of each flow *)
  refine_k : int;                     (* access-path depth bound *)
  refine_steps : int;                 (* per-flow replay step budget *)
  triage_filter : bool;
      (* consult the type-qualifier triage verdict before building the
         SDG, skipping methods proven untaint-reachable; reports are
         byte-identical either way (the filter is disabled internally
         when refinement runs, whose replay walks unfiltered indexes) *)
  contexts : bool;
      (* context-sensitive sanitization: propagate through sanitizers
         instead of killing, reconstruct the sink's string template
         interprocedurally, and judge each recorded sanitizer against
         the sink context. Off by default; with it off, reports are
         byte-identical to the kill-on-sanitizer behaviour *)
}

let default_whitelist = [ "Math"; "Random"; "Date"; "Logger" ]

(* published bounds (§7.1) *)
let paper_cg_bound = 20_000
let paper_heap_bound = 20_000
let paper_flow_length = 14
let paper_nested_depth = 2

let preset ?(scale = 1.0) (algorithm : algorithm) : t =
  let scaled v = max 50 (int_of_float (float_of_int v *. scale)) in
  let base =
    { algorithm;
      max_cg_nodes = None;
      prioritized = false;
      max_heap_transitions = None;
      max_slice_steps = None;
      max_flow_length = None;
      nested_taint_depth = -1;
      cs_budget = None;
      excluded_classes = default_whitelist;
      refine = false;
      refine_k = 3;
      refine_steps = 4096;
      triage_filter = true;
      contexts = false }
  in
  match algorithm with
  | Hybrid_unbounded -> base
  | Hybrid_prioritized ->
    { base with
      max_cg_nodes = Some (scaled paper_cg_bound);
      prioritized = true }
  | Hybrid_optimized ->
    { base with
      max_cg_nodes = Some (scaled paper_cg_bound);
      prioritized = true;
      max_heap_transitions = Some (scaled paper_heap_bound);
      max_flow_length = Some paper_flow_length;
      nested_taint_depth = paper_nested_depth }
  | Cs_thin_slicing ->
    (* the CS configuration has no deliberate bounds; the budget stands in
       for the 1 GB heap the paper ran with. Calibrated so the emulation
       completes on the handful of smallest benchmarks, as in Table 3. *)
    { base with cs_budget = Some (scaled 25_000) }
  | Ci_thin_slicing -> base
  | Type_triage ->
    (* rung zero: no pointer analysis, no SDG, no slicing — the
       flow-insensitive type-qualifier pass answers from the class table
       and the JIR alone, so every budget field is irrelevant *)
    base

let all_algorithms =
  [ Hybrid_unbounded; Hybrid_prioritized; Hybrid_optimized;
    Cs_thin_slicing; Ci_thin_slicing ]

(* The degradation ladder (§6): when a configuration exhausts its budget the
   supervisor retries with progressively stricter bounded presets —
   unbounded -> prioritized -> optimized -> optimized at shrinking scale.
   The CS and CI emulations fall back onto the hybrid family, as the paper's
   CS configuration does on large applications (Table 3). Each rung is
   paired with the scale it was built at, for diagnostics. *)
let degradation_ladder ?(scale = 1.0) (c : t) : (float * t) list =
  (* ladder rungs are fresh presets: carry over the refinement,
     triage-filter and contexts settings so a degraded retry still
     classifies its (fewer) flows *)
  let carry (s, cfg) =
    (s, { cfg with refine = c.refine;
                   refine_k = c.refine_k;
                   refine_steps = c.refine_steps;
                   triage_filter = c.triage_filter;
                   contexts = c.contexts })
  in
  (* rung zero is always last: when every slicing preset has exhausted
     its budget, the type-qualifier triage still answers — no pointer
     analysis, no SDG, so it cannot exhaust the budgets that got us
     here. It is the floor under the whole ladder. *)
  let rung_zero =
    carry (scale /. 4., preset ~scale:(scale /. 4.) Type_triage)
  in
  let rungs =
    List.map carry
      [ (scale, preset ~scale Hybrid_prioritized);
        (scale, preset ~scale Hybrid_optimized);
        (scale /. 2., preset ~scale:(scale /. 2.) Hybrid_optimized);
        (scale /. 4., preset ~scale:(scale /. 4.) Hybrid_optimized) ]
  in
  match c.algorithm with
  | Hybrid_unbounded | Cs_thin_slicing | Ci_thin_slicing ->
    rungs @ [ rung_zero ]
  | Hybrid_prioritized -> List.tl rungs @ [ rung_zero ]
  | Hybrid_optimized ->
    List.map carry
      [ (scale /. 2., preset ~scale:(scale /. 2.) Hybrid_optimized);
        (scale /. 4., preset ~scale:(scale /. 4.) Hybrid_optimized) ]
    @ [ rung_zero ]
  | Type_triage -> []

(* A short human-readable label for a ladder rung: the algorithm name
   with the scale it was built at. *)
let rung_label (scale, cfg) =
  if cfg.algorithm = Type_triage then "triage"
  else Printf.sprintf "%s@%.3g" (algorithm_name cfg.algorithm) scale

(* Name of the preset the memory watchdog selects for [c] at pressure
   level [p] (0 = no pressure, i.e. the configuration itself). Rendered
   by `taj top` and the admin health reply instead of the bare level. *)
let pressure_rung_name ?scale (c : t) (p : int) : string =
  if p <= 0 then algorithm_name c.algorithm
  else
    let ladder = degradation_ladder ?scale c in
    let n = List.length ladder in
    if n = 0 then algorithm_name c.algorithm
    else rung_label (List.nth ladder (min p n - 1))
