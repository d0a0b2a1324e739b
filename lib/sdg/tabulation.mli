(** Demand-driven reachability over the (no-heap) SDG with on-demand HSDG
    edges — the engine behind hybrid, CS and CI thin slicing (§3.2).

    In context-sensitive mode the engine runs RHS-style tabulation with
    summary edges; in context-insensitive mode returns resume at every
    caller. Heap flow uses direct store→load edges, counted against the
    §6.2.1 heap-transition bound; the CS mode restricts heap edges to
    statements on the same thread (that algorithm's documented
    unsoundness). Sink/sanitizer/carrier checks are injected callbacks. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

type mode = {
  context_sensitive : bool;
  thread_restrict : bool;
  max_heap_transitions : int option;
  max_steps : int option;
}

val hybrid_mode : mode
val ci_mode : mode
val cs_mode : mode

type hit_kind = Direct | Carrier

type hit = {
  h_sink : Stmt.t;                        (** the sink call statement *)
  h_sink_target : Jir.Tac.mref;
  h_via : Stmt.t;                         (** last slice stmt before sink *)
  h_kind : hit_kind;
}

type callbacks = {
  is_sink_arg : Jir.Tac.mref -> int -> bool;
  is_sanitizer : Jir.Tac.mref -> bool;
  sanitizer_passthrough : bool;
      (** [false]: a sanitizer call kills the flow. [true]: taint
          propagates through the sanitizer into its result and the call
          lands on the witness path for a later judging pass
          (record-and-judge). *)
  carrier_sets : (Stmt.t * Jir.Tac.mref * Int_set.t) list;
      (** sink call stmt, target, instance keys reachable from its
          sensitive arguments (§4.1.1) *)
}

type result = {
  hits : hit list;
  visited : int;
  heap_transitions : int;
  steps : int;
  exhausted : bool;                       (** a budget was exceeded *)
  interrupted : bool;                     (** stopped by the interrupt poll *)
  parents : Stmt.t Stmt.Table.t;          (** discovery tree for reports *)
  depth : int Stmt.Table.t;               (** hop count from the seed *)
}

(** Run a slice from the seed statements (typically source calls).
    [interrupt] is polled once per step; returning [true] ends the slice
    with [exhausted] and [interrupted] set, keeping the hits found so far.
    [on_heap_transition] is called before each heap transition is charged
    (fault injection / external accounting). *)
val run :
  ?interrupt:(unit -> bool) ->
  ?on_heap_transition:(unit -> unit) ->
  Builder.t -> mode:mode -> callbacks:callbacks -> seeds:Stmt.t list -> result

(** Reconstruct the witness path ending at a statement. *)
val path_of : result -> Stmt.t -> Stmt.t list

