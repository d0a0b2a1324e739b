(** Class hierarchy: registration, subtyping, field and method resolution. *)

type kind = Class_kind | Interface_kind

(** Method information as recorded in the hierarchy. Constructors are
    registered under the name ["<init>"]. *)
type minfo = {
  mi_class : string;        (** declaring class *)
  mi_name : string;
  mi_arity : int;           (** formals including the receiver *)
  mi_static : bool;
  mi_abstract : bool;
  mi_native : bool;
  mi_ret : Ast.typ;
  mi_params : Ast.typ list; (** declared parameter types, excl. receiver *)
}

type finfo = {
  fi_class : string;        (** declaring class *)
  fi_name : string;
  fi_typ : Ast.typ;
  fi_static : bool;
}

type cls = {
  cl_name : string;
  cl_kind : kind;
  cl_super : string option;
  cl_ifaces : string list;
  cl_abstract : bool;
  cl_library : bool;
  cl_fields : (string, finfo) Hashtbl.t;
  cl_methods : (string * int, minfo) Hashtbl.t;
  mutable cl_ctor_arities : int list;
}

type t

exception Hierarchy_error of string

val create : unit -> t

val mem : t -> string -> bool

val find_opt : t -> string -> cls option
val iter : t -> (cls -> unit) -> unit

(** All classes, sorted by name. *)
val all_classes : t -> cls list

(** A copy that iterates in the same order. It shares the class records
    and starts with an empty subtype memo, so a copy of a table that is
    no longer written may be read from any domain. *)
val copy : t -> t

(** The classes of [t] that [base] lacks, in the order {!extend} needs. *)
val delta : base:t -> t -> cls list

(** Add classes [t] lacks. [extend (copy base) (delta ~base t)] has
    [t]'s classes in [t]'s iteration order, given that [t] holds [base]'s
    classes added first, in [base]'s order (as a {!copy} of [base] does). *)
val extend : t -> cls list -> unit

(** Register a parsed declaration. [library] marks model-JDK code (the LCP
    boundary of §5). Raises {!Hierarchy_error} on duplicates. *)
val add_decl : t -> library:bool -> Ast.decl -> unit

(** [is_subclass t c d]: is class or interface [c] a subtype of [d]?
    Reflexive; everything is a subtype of ["Object"]. *)
val is_subclass : t -> string -> string -> bool

(** [subtype_index t d]: the concrete (non-abstract class) subtypes of
    class or interface [d], [d] included, sorted by name — the classes
    [c] with [is_subclass t c d]. Partially apply to build the reverse
    hierarchy index once (one pass over the table) and answer many
    queries, each a memoized walk of [d]'s descendants. The index is a
    snapshot: build it after the last {!add_decl}. *)
val subtype_index : t -> string -> string list

(** Resolve a field to its declaring class, walking up the hierarchy. *)
val resolve_field : t -> string -> string -> finfo option

(** The method declaration visible from a class (superclass chain, then
    interfaces). *)
val lookup_method : t -> string -> string -> int -> minfo option

(** Virtual dispatch: the concrete implementation a receiver of the given
    runtime class executes. Walks only the superclass chain. *)
val dispatch : t -> string -> string -> int -> minfo option

(** Static-call resolution (accepts abstract hits). *)
val resolve_static : t -> string -> string -> int -> minfo option

(** All fields (own and inherited) of a class. *)
val all_fields : t -> string -> finfo list
