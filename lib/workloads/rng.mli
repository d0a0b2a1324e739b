(** Deterministic PRNG (xorshift64-star) so every benchmark app is
    reproducible byte-for-byte across runs and machines. *)

type t

val create : int -> t

(** Seed derived from a string (for per-app generators). *)
val of_string : string -> t

val next : t -> int64

(** Uniform int in [0, bound). *)
val int : t -> int -> int

val bool : t -> bool

(** True with probability [p] percent. *)
val percent : t -> int -> bool

(** Uniform in the inclusive range [lo, hi]. *)
val range : t -> int -> int -> int
