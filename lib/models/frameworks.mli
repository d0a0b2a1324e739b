(** Web-framework modeling (§4.2.2): Struts actions, servlets and EJBs,
    driven by a line-based deployment descriptor:

    {v
    # comment
    servlet <servlet-class>
    action <path> <action-class> <form-class>
    ejb <jndi-name> <home-interface> <bean-class>
    v}

    Synthesis produces a [$Main] entry class invoking every servlet and
    action, a [$Synth] factory populating every ActionForm field with
    tainted data (recursively), and one [$<Home>Impl] class per EJB whose
    [create] returns the bean — the analyzable artifact that lets remote
    calls resolve without container code. *)

type descriptor = {
  servlets : string list;
  actions : (string * string * string) list;  (** path, action, form *)
  ejbs : (string * string * string) list;     (** jndi, home iface, bean *)
}

val empty : descriptor

exception Descriptor_error of string

val parse_descriptor : string -> descriptor

val home_impl_name : string -> string

(** The JNDI registry handed to {!Reflection.rewrite_program}. *)
val ejb_registry : descriptor -> (string * string) list

(** Classes an action's [execute] casts its form parameter to, keyed by
    action class (§4.2.2's cast-constraint inference). *)
val form_cast_constraints :
  Jir.Ast.compilation_unit list -> (string * string list) list

(** Synthesize the entrypoint artifacts as MJava source. The class table
    must already contain all application and library declarations;
    [cast_constraints] narrows the form subtypes instantiated per action. *)
val synthesize :
  ?cast_constraints:(string * string list) list ->
  Jir.Classtable.t -> descriptor -> string

(** Method id of the synthesized entrypoint ([$Main.run/0]). *)
val entry_method : string
