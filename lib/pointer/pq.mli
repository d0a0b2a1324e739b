(** A mutable min-heap of [(priority, value)] pairs with lazy decrease-key:
    push a fresh entry when a priority drops and skip stale entries on pop
    by re-checking the authoritative priority map. *)

type t

val create : unit -> t
val length : t -> int
val push : t -> int -> int -> unit

(** Pop the minimum-priority entry, if any. *)
val pop : t -> (int * int) option
