(** The context-sensitivity policy of §3.1: one level of object sensitivity
    for most methods, unlimited-depth object sensitivity for collection
    classes, one level of call-string context for library factories and
    taint-specific APIs. *)

type t = {
  container_classes : string list;
      (** classes whose allocations keep the full heap context *)
  factory_methods : string list;
      (** method ids analyzed with one level of call-string context *)
  taint_api : string -> bool;
      (** taint-specific APIs (sources/sanitizers/sinks) also get
          call-string context. Must be a pure function of the method id:
          {!Andersen.run} asks it once per id *)
  object_sensitive : bool;
      (** false degrades the policy to context-insensitive everywhere *)
  deep_heap : bool;
      (** keep the full allocating context for all classes (CS emulation) *)
}

val default_containers : string list
val default_factories : string list

val default : ?taint_api:(string -> bool) -> unit -> t

(** Fully context-insensitive policy. *)
val insensitive : unit -> t

(** Deep policy for the CS configuration: context-qualified heap everywhere
    and call-site contexts for static methods. *)
val deep : ?taint_api:(string -> bool) -> unit -> t

val is_container : t -> string -> bool

(** Context for a callee at a call site. *)
val callee_context :
  t -> site:int -> callee_id:string -> receiver:Keys.inst_key option ->
  Keys.context

(** Heap context for an allocation of [cls] under [alloc_ctx]. *)
val heap_context : t -> cls:string -> alloc_ctx:Keys.context -> Keys.context
