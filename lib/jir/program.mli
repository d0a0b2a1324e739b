(** A lowered program: class table, method bodies, site registry and
    entrypoints. This is the unit of work handed to the analyses. *)

type site_kind =
  | Alloc_site of string          (** allocated class (or "T[]" for arrays) *)
  | Call_site of Tac.mref

type site_info = {
  si_id : int;
  si_method : string;             (** method id of the containing method *)
  si_kind : site_kind;
}

type t = {
  table : Classtable.t;
  methods : (string, Tac.meth) Hashtbl.t;   (** keyed by {!Tac.method_id} *)
  sites : (int, site_info) Hashtbl.t;
  mutable next_site : int;
  mutable entrypoints : string list;        (** method ids, in order *)
  mutable clinits : string list;
}

val create : unit -> t

(** A copy that iterates in the same order: new tables, shared class and
    method records. A load may extend a copy of a program that is no
    longer written, such as the model-JDK image, from any domain. *)
val copy : t -> t

(** The part of a program beyond a [base] whose bindings it holds first,
    in [base]'s order (as a {!copy} of [base] does): the classes, methods
    and sites [base] lacks, in the order {!extend} re-adds them, and the
    program's scalar fields. *)
type delta = {
  d_classes : Classtable.cls list;
  d_methods : Tac.meth list;
  d_sites : site_info list;
  d_next_site : int;
  d_entrypoints : string list;
  d_clinits : string list;
}

val delta : base:t -> t -> delta

(** [extend ~base (delta ~base p)] has [p]'s class, method and site
    tables, each with [p]'s contents and iteration order. *)
val extend : base:t -> delta -> t

(** Allocate a globally unique allocation- or call-site id. *)
val fresh_site : t -> meth:string -> kind:site_kind -> int

val site_info : t -> int -> site_info option
val add_method : t -> Tac.meth -> unit
val find_method : t -> string -> Tac.meth option
val mem_method : t -> string -> bool
val add_entrypoint : t -> string -> unit
val iter_methods : t -> (Tac.meth -> unit) -> unit
val method_count : t -> int

(** All method ids, sorted. *)
val all_method_ids : t -> string list

(** Aggregate statistics used by the Table 2 reproduction. *)
type stats = {
  st_classes : int;
  st_methods : int;
  st_app_classes : int;
  st_app_methods : int;
  st_instrs : int;
}

val stats : t -> stats
