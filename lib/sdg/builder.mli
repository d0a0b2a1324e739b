(** Dependence-graph construction over the pointer-analysis result: per-node
    def/use indexes (excluding base-pointer uses — the defining property of
    thin slicing), interprocedural call-site maps, and the global heap-access
    indexes realizing the HSDG's direct store→load edges. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t
module Keys = Pointer.Keys

(** How a register is used at a statement. Base-pointer and array-index
    uses are deliberately absent (§3.2). *)
type use =
  | U_plain of Stmt.t                  (** operand of a value-producing instr *)
  | U_stored of Stmt.t                 (** the stored value at a store stmt *)
  | U_arg of Stmt.t * int              (** call argument (position) *)
  | U_returned
  | U_thrown of Stmt.t

type t

(** {2 Persistent def/use summaries}

    A per-node def/use index in node-relative coordinates ({!Stmt.kind}
    instead of {!Stmt.t}). It is a pure function of the method body —
    parameter defs, SSA def/use chains and the body-local
    dictionary-operation classification — so the incremental cache can
    persist it keyed by a digest of the body and rebind it to whatever
    call-graph node the method occupies in a later run. Marshalable;
    entries are kept in a canonical order so the bytes are
    deterministic. *)
type rel_use =
  | RU_plain of Stmt.kind
  | RU_stored of Stmt.kind
  | RU_arg of Stmt.kind * int
  | RU_returned
  | RU_thrown of Stmt.kind

type defuse_summary = {
  ds_defs : (Jir.Tac.var * Stmt.kind) list;
  ds_uses : (Jir.Tac.var * rel_use list) list;
}

(** Hooks into a persistent def/use cache. [dc_lookup] must return a
    summary only when its stored body digest matches the method passed —
    validation (and hit/miss/invalidation accounting) lives on the cache
    side; the builder blindly rebinds whatever it gets. [dc_store] is
    called with a freshly built summary on every lookup miss. A cache
    that concurrent runs share must synchronize internally. *)
type defuse_cache = {
  dc_lookup : Jir.Tac.meth -> defuse_summary option;
  dc_store : Jir.Tac.meth -> defuse_summary -> unit;
}

(** Build the dependence-graph indexes. [interrupt] is polled once per
    call-graph node; when it returns [true] the remaining nodes are left
    unindexed and the partial builder (an underapproximation) is
    returned. [scan_filter] (default: keep everything) is the triage
    pre-filter hook: a node whose method it rejects is not scanned at
    all — sound only when the caller has proven no slice can reach the
    method (see [Triage]). [defuse_cache] plugs the cache's persistent
    per-method def/use tier into the on-demand def/use memo. *)
val build :
  ?interrupt:(unit -> bool) ->
  ?scan_filter:(Jir.Tac.meth -> bool) ->
  ?defuse_cache:defuse_cache ->
  Jir.Program.t -> Pointer.Andersen.t -> t

(** Did [interrupt] stop the build before every node was indexed? *)
val interrupted : t -> bool

val node_meth : t -> int -> Jir.Tac.meth
val instr_of : t -> Stmt.t -> Jir.Tac.instr option
val call_of : t -> Stmt.t -> Jir.Tac.call option
val dict_op_of : t -> Stmt.t -> Models.Dict_model.op option

(** The statement defining register [v] in node [node], if any. *)
val def_of : t -> node:int -> Jir.Tac.var -> Stmt.t option

(** All uses of register [v] in node [node]. *)
val uses_of : t -> node:int -> Jir.Tac.var -> use list

(** The register whose value a statement defines. *)
val def_var : t -> Stmt.t -> Jir.Tac.var option

(** How a register is used as a base pointer: exactly the uses the
    def/use index omits (§3.2). *)
type base_use =
  | B_field of Stmt.t * Keys.field     (** load/aload: stmt consumes the field *)
  | B_dict of Stmt.t * Keys.field list (** dict get: any of these fields *)

(** The base-pointer uses of register [v] in node [node], in program
    order. Built per node on first use, under the same memo as
    {!uses_of}, so runs that never ask pay nothing. *)
val base_uses_of : t -> node:int -> Jir.Tac.var -> base_use list

type writes =
  | W_instance of (Int_set.t * Keys.field list)  (** base pts, fields *)
  | W_static of Keys.field
  | W_none

val pts_of_var : t -> node:int -> Jir.Tac.var -> Int_set.t

(** Heap locations a store-like statement writes. *)
val writes_of : t -> Stmt.t -> writes

(** Load statements that may read an instance-key/field pair. *)
val loads_reading : t -> ik:int -> field:Keys.field -> Stmt.t list

val static_loads_of : t -> Keys.field -> Stmt.t list

(** Store statements that may write an instance-key/field pair (the reverse
    direct edges, for backward slicing). *)
val stores_writing : t -> ik:int -> field:Keys.field -> Stmt.t list

val static_stores_of : t -> Keys.field -> Stmt.t list

(** Throw statements whose thrown keys may reach a handler of class [cls]. *)
val throws_for : t -> table:Jir.Classtable.t -> string -> Stmt.t list

(** Load statements reading any field of an instance key (for by-reference
    sources). *)
val loads_of_ik : t -> ik:int -> Stmt.t list

(** Catch statements whose declared class admits one of the thrown keys. *)
val catches_for : t -> Int_set.t -> Stmt.t list

val callees_of_call : t -> Stmt.t -> Jir.Tac.call -> int list
val native_targets_of_call : t -> Stmt.t -> Jir.Tac.call -> Jir.Tac.mref list

(** Call statements in any node that invoke [callee]. *)
val callers_of_node : t -> callee:int -> Stmt.t list

val all_call_stmts : t -> (Stmt.t * Jir.Tac.call) list

(** Thread partition ids of a node (see the CS configuration's heap
    restriction). *)
val thread_ids_of : t -> int -> Int_set.t
