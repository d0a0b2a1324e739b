(** The one JSON value type, printer, parser and string escape (no new
    dependencies). Numbers are finite floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse one document. A number literal outside the float range is an
    error, so every parsed [Num] is finite. *)
val parse : string -> (t, string) result

(** One line, no spaces. An integral number below 1e15 prints without a
    fraction; any other prints with the fewer of 15 or 17 significant
    digits that reads back to the same float, so [parse (to_string v)]
    is [Ok v] for every finite [v]. *)
val to_string : t -> string

(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped, every other byte as is. *)
val escape : string -> string

(** [Num] of an int. *)
val int : int -> t

(** A wall-clock duration or instant in seconds, rounded to the
    millisecond: how every document writes one. *)
val seconds : float -> t

val member : string -> t -> t option
val str_member : string -> t -> string option
val num_member : string -> t -> float option
val int_member : string -> t -> int option
