(** Abstract-heap vocabulary of the pointer analysis: calling contexts,
    instance keys (abstract objects) and pointer keys (abstract pointers),
    with interning to dense integer ids.

    Contexts implement the paper's custom sensitivity policy (§3.1):
    - most methods get one level of object sensitivity ([Cx_obj] of the
      receiver's instance key);
    - collection-internal classes get unlimited-depth object sensitivity,
      realized by letting instance keys of container classes embed the full
      allocating context, so receiver chains compound;
    - library factory methods and taint APIs get one level of call-string
      context ([Cx_site]).

    A recursion cap bounds context depth so interning terminates on
    recursive container structures ("unlimited-depth (up to recursion)"). *)

type context =
  | Cx_empty
  | Cx_obj of inst_key
  | Cx_site of int                      (* call-site id *)

and inst_key =
  | Ik_alloc of { site : int; cls : string; hctx : context }
  | Ik_string                           (* summary object for all strings *)
  | Ik_exn of string
      (* summary exception per catch class: the runtime (native code, JVM
         errors) can always throw, even when no application throw reaches
         the handler — needed for the §4.1.2 leak modeling *)

let inst_class = function
  | Ik_alloc { cls; _ } -> cls
  | Ik_string -> "String"
  | Ik_exn cls -> cls

let rec context_depth = function
  | Cx_empty | Cx_site _ -> 0
  | Cx_obj ik -> 1 + inst_depth ik

and inst_depth = function
  | Ik_alloc { hctx; _ } -> context_depth hctx
  | Ik_string | Ik_exn _ -> 0

(** Truncate a context to at most [limit] levels of object nesting. *)
let rec truncate_context ~limit cx =
  match cx with
  | Cx_empty | Cx_site _ -> cx
  | Cx_obj ik ->
    if limit <= 0 then Cx_empty
    else Cx_obj (truncate_inst ~limit:(limit - 1) ik)

and truncate_inst ~limit = function
  | (Ik_string | Ik_exn _) as k -> k
  | Ik_alloc { site; cls; hctx } ->
    Ik_alloc { site; cls; hctx = truncate_context ~limit hctx }

(** Fields of the abstract heap. Array contents are field ["$elem"];
    dictionary contents use the [$Dict] pseudo-fields of {!Models.Dict_model}. *)
type field = { fclass : string; fname : string }

let elem_field = { fclass = "$Array"; fname = "$elem" }

let field_of_tac (f : Jir.Tac.field) =
  { fclass = f.Jir.Tac.fclass; fname = f.Jir.Tac.fname }

let pp_field ppf f = Fmt.pf ppf "%s.%s" f.fclass f.fname

type ptr_key =
  | Pk_var of int * Jir.Tac.var         (* call-graph node id, register *)
  | Pk_field of int * field             (* instance-key id, field *)
  | Pk_static of field
  | Pk_ret of int                       (* return value of a node *)
  | Pk_exn                              (* global thrown-exception channel *)

let rec pp_context ppf = function
  | Cx_empty -> Fmt.string ppf "ε"
  | Cx_site s -> Fmt.pf ppf "site:%d" s
  | Cx_obj ik -> Fmt.pf ppf "obj:%a" pp_inst ik

and pp_inst ppf = function
  | Ik_alloc { site; cls; hctx = Cx_empty } -> Fmt.pf ppf "%s@%d" cls site
  | Ik_alloc { site; cls; hctx } ->
    Fmt.pf ppf "%s@%d[%a]" cls site pp_context hctx
  | Ik_string -> Fmt.string ppf "String$"
  | Ik_exn cls -> Fmt.pf ppf "exn:%s" cls

let pp_ptr ppf = function
  | Pk_var (n, v) -> Fmt.pf ppf "n%d:%%%d" n v
  | Pk_field (ik, f) -> Fmt.pf ppf "ik%d.%a" ik pp_field f
  | Pk_static f -> Fmt.pf ppf "static:%a" pp_field f
  | Pk_ret n -> Fmt.pf ppf "ret:n%d" n
  | Pk_exn -> Fmt.string ppf "exn-channel"

(* ------------------------------------------------------------------ *)
(* Equality and hashing                                               *)
(* ------------------------------------------------------------------ *)

(* The interning tables are keyed by these, not by the polymorphic
   hash and compare. Each hash reads ints and at most one string; each
   equality compares every component of the key. *)

let mix h x = (h * 65599) + x

let equal_field a b = String.equal a.fname b.fname && String.equal a.fclass b.fclass

let rec equal_context a b =
  match a, b with
  | Cx_empty, Cx_empty -> true
  | Cx_site s, Cx_site s' -> s = s'
  | Cx_obj k, Cx_obj k' -> equal_inst k k'
  | (Cx_empty | Cx_site _ | Cx_obj _), _ -> false

and equal_inst a b =
  a == b
  ||
  match a, b with
  | Ik_alloc x, Ik_alloc y ->
    x.site = y.site && String.equal x.cls y.cls && equal_context x.hctx y.hctx
  | Ik_string, Ik_string -> true
  | Ik_exn c, Ik_exn c' -> String.equal c c'
  | (Ik_alloc _ | Ik_string | Ik_exn _), _ -> false

let rec hash_context = function
  | Cx_empty -> 0
  | Cx_site s -> mix 1 s
  | Cx_obj k -> mix 2 (hash_inst k)

and hash_inst = function
  | Ik_alloc { site; hctx; _ } -> mix (mix 3 site) (hash_context hctx)
  | Ik_string -> 4
  | Ik_exn cls -> mix 5 (Hashtbl.hash cls)

let equal_ptr a b =
  match a, b with
  | Pk_var (n, v), Pk_var (n', v') -> n = n' && v = v'
  | Pk_field (i, f), Pk_field (i', f') -> i = i' && equal_field f f'
  | Pk_static f, Pk_static f' -> equal_field f f'
  | Pk_ret n, Pk_ret n' -> n = n'
  | Pk_exn, Pk_exn -> true
  | (Pk_var _ | Pk_field _ | Pk_static _ | Pk_ret _ | Pk_exn), _ -> false

let hash_ptr = function
  | Pk_var (n, v) -> mix (mix 1 n) v
  | Pk_field (i, f) -> mix (mix 2 i) (Hashtbl.hash f.fname)
  | Pk_static f -> mix 3 (Hashtbl.hash f.fname)
  | Pk_ret n -> mix 4 n
  | Pk_exn -> 5

(* ------------------------------------------------------------------ *)
(* Interning                                                          *)
(* ------------------------------------------------------------------ *)

(* Dense ids in first-use order, each id's key kept for decoding. *)
module Interner (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type t = {
    fwd : int Tbl.t;
    mutable back : H.t array;
    mutable count : int;
  }

  let create () = { fwd = Tbl.create 1024; back = [||]; count = 0 }

  (* The next id, for a key its caller indexes outside [fwd]. *)
  let next t x =
    let i = t.count in
    if i >= Array.length t.back then begin
      let bigger = Array.make (max 64 (2 * i)) x in
      Array.blit t.back 0 bigger 0 i;
      t.back <- bigger
    end;
    t.back.(i) <- x;
    t.count <- i + 1;
    i

  let intern t x =
    match Tbl.find_opt t.fwd x with
    | Some i -> i
    | None ->
      let i = next t x in
      Tbl.add t.fwd x i;
      i

  let find_opt t x = Tbl.find_opt t.fwd x
  let get t i = t.back.(i)
  let count t = t.count
end

module Ik_interner = Interner (struct
    type t = inst_key
    let equal = equal_inst
    let hash = hash_inst
  end)

module Pk_interner = Interner (struct
    type t = ptr_key
    let equal = equal_ptr
    let hash = hash_ptr
  end)

(** The shared key universe of one analysis run. A register key
    [Pk_var (node, v)] is found through [regs.(node).(v)] (-1: no id
    yet), every other pointer key through [pks]; both draw ids from the
    one counter of [pks]. Node ids and registers are non-negative. *)
type universe = {
  iks : Ik_interner.t;
  pks : Pk_interner.t;
  mutable regs : int array array;
  depth_limit : int;
}

let create_universe ?(depth_limit = 8) () =
  { iks = Ik_interner.create ();
    pks = Pk_interner.create ();
    regs = [||];
    depth_limit }

let ik (u : universe) (k : inst_key) : int =
  Ik_interner.intern u.iks (truncate_inst ~limit:u.depth_limit k)

(** The id of register [v] of node [node], or -1 when it has none. *)
let find_var (u : universe) node v : int =
  if node < Array.length u.regs then begin
    let row = u.regs.(node) in
    if v < Array.length row then row.(v) else -1
  end
  else -1

let set_reg_id u node v id =
  let n = Array.length u.regs in
  if node >= n then begin
    let bigger = Array.make (max (node + 1) (2 * n)) [||] in
    Array.blit u.regs 0 bigger 0 n;
    u.regs <- bigger
  end;
  let row = u.regs.(node) in
  let len = Array.length row in
  let row =
    if v < len then row
    else begin
      let bigger = Array.make (max (v + 1) (max 8 (2 * len))) (-1) in
      Array.blit row 0 bigger 0 len;
      u.regs.(node) <- bigger;
      bigger
    end
  in
  row.(v) <- id

(** The id of register [v] of call-graph node [node]; allocates the key
    only when the id is new. *)
let pk_var (u : universe) node v : int =
  let id = find_var u node v in
  if id >= 0 then id
  else begin
    let id = Pk_interner.next u.pks (Pk_var (node, v)) in
    set_reg_id u node v id;
    id
  end

let pk (u : universe) (k : ptr_key) : int =
  match k with
  | Pk_var (node, v) -> pk_var u node v
  | Pk_field _ | Pk_static _ | Pk_ret _ | Pk_exn -> Pk_interner.intern u.pks k

(** The id of a pointer key, without interning it. *)
let find_pk (u : universe) (k : ptr_key) : int option =
  match k with
  | Pk_var (node, v) ->
    let id = find_var u node v in
    if id >= 0 then Some id else None
  | Pk_field _ | Pk_static _ | Pk_ret _ | Pk_exn -> Pk_interner.find_opt u.pks k

let ik_of (u : universe) (i : int) : inst_key = Ik_interner.get u.iks i
let pk_of (u : universe) (i : int) : ptr_key = Pk_interner.get u.pks i
let ik_count u = Ik_interner.count u.iks
let pk_count u = Pk_interner.count u.pks
