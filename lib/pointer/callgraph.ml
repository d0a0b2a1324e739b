(** Context-sensitive call graph built on the fly by the pointer analysis.

    A node is a method clone: a method id paired with a calling context.
    Edges are recorded per call site; call sites whose target has no
    analyzable body (natives, whitelisted code) are recorded separately so
    the dependence-graph builder can apply transfer summaries. *)

module Int_set = Set.Make (Int)

(* Cumulative growth counters (across every analysis run of the process),
   complementing the per-run [cg_nodes]/[cg_edges] gauges the solver sets. *)
let m_nodes_created = Obs.Telemetry.counter "pointer.cg_nodes_created"
let m_edges_created = Obs.Telemetry.counter "pointer.cg_edges_created"

type node = {
  n_id : int;
  n_method : Jir.Tac.meth;
  n_ctx : Keys.context;
}

(* Method clones: (method id, context). *)
module Clone_tbl = Hashtbl.Make (struct
    type t = string * Keys.context
    let equal (m, c) (m', c') = String.equal m m' && Keys.equal_context c c'
    let hash (m, c) = Keys.mix (Hashtbl.hash m) (Keys.hash_context c)
  end)

(* (caller, site) keys. [iter_edges] iterates [edges] and [taj dot]
   prints that order, so the hash is the polymorphic table's. *)
module Site_tbl = Hashtbl.Make (struct
    type t = int * int
    let equal (c, s) (c', s') = c = c' && s = s'
    let hash = Hashtbl.hash
  end)

(* [nodes], [rev_edges] and [out_nodes] are indexed by node and grow
   together. *)
type t = {
  mutable nodes : node array;
  mutable node_count : int;
  intern : int Clone_tbl.t;
  edges : Int_set.t ref Site_tbl.t;                   (* (caller, site) -> callees *)
  mutable rev_edges : Int_set.t array;                (* callee -> callers *)
  native_calls : Jir.Tac.mref list ref Site_tbl.t;
  mutable out_nodes : Int_set.t array;                (* caller -> callees *)
  mutable edge_count : int;
}

let create () =
  { nodes = [||];
    node_count = 0;
    intern = Clone_tbl.create 1024;
    edges = Site_tbl.create 4096;
    rev_edges = [||];
    native_calls = Site_tbl.create 256;
    out_nodes = [||];
    edge_count = 0 }

let node_count t = t.node_count
let node t i = t.nodes.(i)
let edge_count t = t.edge_count

let find_node t meth_id ctx = Clone_tbl.find_opt t.intern (meth_id, ctx)

(** Get or create the node for a method clone. [fresh] is called exactly
    when a new node is created (used to enqueue pending constraint work). *)
let ensure_node t (m : Jir.Tac.meth) (ctx : Keys.context)
    ~(fresh : int -> unit) : int =
  let key = (Jir.Tac.method_id m, ctx) in
  match Clone_tbl.find_opt t.intern key with
  | Some i -> i
  | None ->
    let i = t.node_count in
    let n = { n_id = i; n_method = m; n_ctx = ctx } in
    if i >= Array.length t.nodes then begin
      let grow a x =
        let b = Array.make (max 64 (2 * i)) x in
        Array.blit a 0 b 0 i;
        b
      in
      t.nodes <- grow t.nodes n;
      t.rev_edges <- grow t.rev_edges Int_set.empty;
      t.out_nodes <- grow t.out_nodes Int_set.empty
    end;
    t.nodes.(i) <- n;
    t.node_count <- i + 1;
    Clone_tbl.replace t.intern key i;
    Obs.Telemetry.incr m_nodes_created;
    fresh i;
    i

let add_edge t ~caller ~site ~callee =
  let set =
    match Site_tbl.find_opt t.edges (caller, site) with
    | Some s -> s
    | None ->
      let s = ref Int_set.empty in
      Site_tbl.replace t.edges (caller, site) s;
      s
  in
  if not (Int_set.mem callee !set) then begin
    set := Int_set.add callee !set;
    t.edge_count <- t.edge_count + 1;
    Obs.Telemetry.incr m_edges_created;
    t.rev_edges.(callee) <- Int_set.add caller t.rev_edges.(callee);
    t.out_nodes.(caller) <- Int_set.add callee t.out_nodes.(caller);
    true
  end
  else false

let add_native_call t ~caller ~site ~(target : Jir.Tac.mref) =
  let lst =
    match Site_tbl.find_opt t.native_calls (caller, site) with
    | Some l -> l
    | None ->
      let l = ref [] in
      Site_tbl.replace t.native_calls (caller, site) l;
      l
  in
  if not (List.mem target !lst) then lst := target :: !lst

let callees t ~caller ~site =
  match Site_tbl.find_opt t.edges (caller, site) with
  | Some s -> Int_set.elements !s
  | None -> []

let native_targets t ~caller ~site =
  match Site_tbl.find_opt t.native_calls (caller, site) with
  | Some l -> !l
  | None -> []

let callers t ~callee = Int_set.elements t.rev_edges.(callee)

(** All successors of a node across its call sites. *)
let successors t n = Int_set.elements t.out_nodes.(n)

let iter_nodes t f =
  for i = 0 to t.node_count - 1 do
    f t.nodes.(i)
  done

let iter_edges t f =
  Site_tbl.iter
    (fun (caller, site) set ->
       Int_set.iter (fun callee -> f ~caller ~site ~callee) !set)
    t.edges

(** Nodes of a given method id (all its context clones). *)
let clones_of t meth_id =
  let acc = ref [] in
  iter_nodes t (fun n ->
      if String.equal (Jir.Tac.method_id n.n_method) meth_id then
        acc := n.n_id :: !acc);
  List.rev !acc
