(** The syntactic-context lattice for context-sensitive sanitization and
    the per-flow sanitization verdict. *)

type t =
  | Html_text        (** between tags: classic script injection *)
  | Html_attribute   (** inside a quoted attribute value *)
  | Sql_quoted       (** inside a '...' SQL string literal *)
  | Sql_raw          (** raw SQL position (numeric, keyword, identifier) *)
  | Path             (** filesystem path component *)
  | Shell            (** shell command word *)
  | Unknown          (** lattice top: context not statically determined *)

val name : t -> string

type verdict =
  | Sanitized
  | Mismatched_sanitizer of { applied : string list; required : t }
  | Unsanitized

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
