(** The model JDK: synthetic MJava implementations of the library surface
    (§4.2). Collection classes store contents in summary fields,
    [StringBuffer]/[StringBuilder] bottom out in the [String] carrier
    intrinsics, and security-relevant methods are natives whose semantics
    come from rules and transfer summaries. All classes load as library
    code (the LCP boundary of §5). *)

(** The compilation-unit sources, in load order. *)
val sources : string list

(** [once f] is [f] computed on the first call and published for the
    life of the process; safe to call from several domains at once (a
    shared [Lazy.t] is not: concurrent forcing raises). *)
val once : (unit -> 'a) -> unit -> 'a

(** Parsed model-JDK compilation units, built {!once}. *)
val units : unit -> Jir.Ast.compilation_unit list

(** A fresh model JDK on its own: declared, lowered and SSA-converted,
    its call and allocation sites numbered from 0. *)
val build_image : unit -> Jir.Program.t

(** {!build_image}, built {!once}: the read-only base every load copies
    ({!Jir.Program.copy}) and extends with the application. Nothing
    writes to it after it is published. *)
val image : unit -> Jir.Program.t

(** Dictionary-like classes subject to the constant-key model (§4.2.1). *)
val dictionary_classes : string list
