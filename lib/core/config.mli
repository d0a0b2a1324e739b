(** Analysis configurations: the five algorithm settings of Table 1,
    plus [Type_triage] — the flow-insensitive type-qualifier pass that
    serves as rung zero of the degradation ladder (no pointer analysis,
    no SDG; see {!Triage}). *)

type algorithm =
  | Hybrid_unbounded
  | Hybrid_prioritized
  | Hybrid_optimized
  | Cs_thin_slicing
  | Ci_thin_slicing
  | Type_triage

val algorithm_name : algorithm -> string

(** Every {!algorithm_name}, plus [hybrid], [prioritized] and [optimized]
    for the three hybrid configurations; [None] for any other name. *)
val algorithm_of_name : string -> algorithm option

type t = {
  algorithm : algorithm;
  max_cg_nodes : int option;          (** §6.1 call-graph node budget *)
  prioritized : bool;                 (** §6.1 priority-driven scheme *)
  max_heap_transitions : int option;  (** §6.2.1 slice-size bound *)
  max_slice_steps : int option;
      (** §6.2.1's alternative no-heap-SDG bound, kept for the ablation *)
  max_flow_length : int option;       (** §6.2.2 flow-length filter *)
  nested_taint_depth : int;           (** §6.2.3; -1 = unbounded *)
  cs_budget : int option;             (** emulates the CS memory ceiling *)
  excluded_classes : string list;     (** §4.2.1 whitelist *)
  refine : bool;                      (** access-path replay of each flow *)
  refine_k : int;                     (** access-path depth bound *)
  refine_steps : int;                 (** per-flow replay step budget *)
  triage_filter : bool;
      (** consult the triage verdict before the SDG scan and the
          per-rule engine, skipping work proven irrelevant; on by
          default, disabled internally when [refine] is set (the replay
          walks unfiltered store indexes). Reports are byte-identical
          with the filter on or off. *)
  contexts : bool;
      (** context-sensitive sanitization (record-and-judge): propagate
          through sanitizers instead of killing, reconstruct the sink's
          string template interprocedurally, and judge every recorded
          sanitizer against the computed sink context. Off by default;
          with it off, reports are byte-identical to the classic
          kill-on-sanitizer behaviour. *)
}

val default_whitelist : string list

(** The published bounds of §7.1. *)
val paper_cg_bound : int
val paper_heap_bound : int
val paper_flow_length : int
val paper_nested_depth : int

(** Build a Table-1 preset; [scale] shrinks the big budgets together with
    workload size (default 1.0). *)
val preset : ?scale:float -> algorithm -> t

(** The five Table-1 algorithms ([Type_triage] is excluded: it is a
    degradation floor, not a paper configuration). *)
val all_algorithms : algorithm list

(** The §6 degradation ladder below a configuration: progressively stricter
    bounded presets (prioritized, optimized, optimized at shrinking scale),
    each paired with the scale it was built at, and always ending in the
    [Type_triage] rung zero — the floor that answers without pointer
    analysis or slicing and therefore cannot exhaust a budget. The
    supervisor walks this when a rung exhausts its budget. A
    [Type_triage] configuration has an empty ladder. *)
val degradation_ladder : ?scale:float -> t -> (float * t) list

(** A short label for a ladder rung: the algorithm name plus the scale,
    or just ["triage"] for rung zero. *)
val rung_label : float * t -> string

(** Name of the rung the memory watchdog selects for a base
    configuration at pressure level [p] (0 = the configuration itself).
    Used by [taj top] and the admin health reply. *)
val pressure_rung_name : ?scale:float -> t -> int -> string
