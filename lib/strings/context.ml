(** The syntactic-context lattice for context-sensitive sanitization.

    A sink consumes its string value in some syntactic context — between
    HTML tags, inside an HTML attribute value, inside a quoted SQL string
    literal, in a raw SQL position, as a filesystem path, or as a shell
    command word. A sanitizer protects a {e set} of these contexts (its
    effect set, see {!Effects}); a flow is safely endorsed only when some
    sanitizer on its path covers the context the sink actually places the
    attacker-controlled fragment in. [Unknown] is the lattice top: when
    the template cannot pin the context down, any applied sanitizer is
    accepted (never report a mismatch we cannot demonstrate). *)

type t =
  | Html_text        (** between tags: classic script injection *)
  | Html_attribute   (** inside a quoted attribute value *)
  | Sql_quoted       (** inside a '...' SQL string literal *)
  | Sql_raw          (** raw SQL position (numeric, keyword, identifier) *)
  | Path             (** filesystem path component *)
  | Shell            (** shell command word *)
  | Unknown

let name = function
  | Html_text -> "html-text"
  | Html_attribute -> "html-attribute"
  | Sql_quoted -> "sql-quoted"
  | Sql_raw -> "sql-raw"
  | Path -> "path"
  | Shell -> "shell"
  | Unknown -> "unknown"

(* ------------------------------------------------------------------ *)
(* Sanitization verdict                                               *)
(* ------------------------------------------------------------------ *)

(** The per-flow sanitization axis, orthogonal to the refinement verdict:
    what sanitization the path carries and whether it matches the sink's
    context. [applied] lists canonical sanitizer method ids in path
    order. *)
type verdict =
  | Sanitized
      (** some sanitizer on the path covers the sink context — the flow
          reproduces the classic endorse-and-kill outcome *)
  | Mismatched_sanitizer of { applied : string list; required : t }
      (** sanitizers were applied, but none covers the context the sink
          places the value in — the finding class this analysis adds *)
  | Unsanitized  (** no sanitizer anywhere on the path *)

let verdict_name = function
  | Sanitized -> "sanitized"
  | Mismatched_sanitizer _ -> "mismatched-sanitizer"
  | Unsanitized -> "unsanitized"

let pp_verdict ppf = function
  | Sanitized -> Fmt.string ppf "sanitized"
  | Mismatched_sanitizer { applied; required } ->
    Fmt.pf ppf "mismatched-sanitizer (applied %s; required %s)"
      (String.concat "," applied) (name required)
  | Unsanitized -> Fmt.string ppf "unsanitized"
