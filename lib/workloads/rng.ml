(** Deterministic PRNG (xorshift64-star) so every benchmark app is
    reproducible byte-for-byte across runs and machines. *)

type t = { mutable state : int64 }

let create (seed : int) : t =
  let s = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) in
  { state = s }

(** Seed derived from a string (for per-app generators). *)
let of_string (s : string) : t =
  let h = ref 1469598103934665603L in
  String.iter
    (fun c ->
       h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
              1099511628211L)
    s;
  { state = (if Int64.equal !h 0L then 1L else !h) }

let next (t : t) : int64 =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  Int64.mul x 2685821657736338717L

(** Uniform int in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 2)
                       (Int64.of_int bound))

let bool (t : t) : bool = int t 2 = 0

(** True with probability [p] (in percent). *)
let percent (t : t) (p : int) : bool = int t 100 < p

let range (t : t) lo hi = lo + int t (hi - lo + 1)
