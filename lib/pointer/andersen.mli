(** Context-sensitive Andersen pointer analysis with on-the-fly call-graph
    construction (§3.1) and priority-driven constraint adding (§6.1).

    The solver alternates constraint adding (per pending method clone) and
    constraint solving (subset-edge propagation to a fixed point). Under a
    node budget the pending queue is FIFO ("chaotic iteration") or a
    priority queue driven by the locality-of-taint heuristic. *)

type config = {
  policy : Policy.t;
  max_nodes : int option;              (** §6.1 call-graph node budget *)
  prioritized : bool;                  (** priority-driven vs chaotic *)
  is_source_method : string -> bool;
      (** taint sources, for priorities. Must be a pure function of the
          method id: a [prioritized] {!run} asks it once per id, a FIFO
          one never *)
  excluded_class : string -> bool;     (** whitelisted library code *)
  max_work : int option;
      (** hard budget on propagation steps; exceeding it raises
          {!Out_of_budget} (models the CS configuration's memory ceiling) *)
  interrupt : unit -> bool;
      (** cooperative cancellation/deadline poll: when it returns [true] the
          solver stops cleanly and the partial result is returned — an
          underapproximation, like a tripped node budget *)
}

exception Out_of_budget

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

val default_config : ?policy:Policy.t -> unit -> config

type stats = {
  mutable nodes_processed : int;
  mutable dropped_calls : int;         (** calls lost to the node budget *)
  mutable propagations : int;
  mutable dispatches : int;
}

type t

(** Run pointer analysis and call-graph construction from the program's
    entrypoints plus all class initializers. Raises {!Out_of_budget} when
    [max_work] is exceeded. *)
val run : ?config:config -> Jir.Program.t -> t

(** Points-to set of a register in a method clone, as instance-key ids:
    the solver's own set, not a copy. *)
val pts_var : t -> node:int -> Jir.Tac.var -> Int_set.t

(** Points-to set of an arbitrary pointer key. *)
val pts_key : t -> Keys.ptr_key -> Int_set.t

(** Points-to set of a pointer-key id of {!universe}. *)
val pts_id : t -> int -> Int_set.t

(** The string constant register [v] of method [m] is bound to, if any
    ({!Models.Dict_model.const_of_meth}), memoized per method for the
    run. *)
val const_of : t -> Jir.Tac.meth -> Jir.Tac.var -> string option

(** Decode an instance-key id. *)
val inst_key : t -> int -> Keys.inst_key

val call_graph : t -> Callgraph.t
val universe : t -> Keys.universe
val statistics : t -> stats

(** Did [config.interrupt] stop the solver before the fixed point? *)
val interrupted : t -> bool
