(** A lowered program: class table, method bodies, site registry and
    entrypoints. This is the unit of work handed to the analyses. *)

type site_kind =
  | Alloc_site of string          (** allocated class (or "T[]" for arrays) *)
  | Call_site of Tac.mref

type site_info = {
  si_id : int;
  si_method : string;             (** method id of the containing method *)
  si_kind : site_kind;
}

type t = {
  table : Classtable.t;
  methods : (string, Tac.meth) Hashtbl.t;       (* keyed by Tac.method_id *)
  sites : (int, site_info) Hashtbl.t;
  mutable next_site : int;
  mutable entrypoints : string list;            (* method ids, in order *)
  mutable clinits : string list;
}

let create () =
  { table = Classtable.create ();
    methods = Hashtbl.create 512;
    sites = Hashtbl.create 1024;
    next_site = 0;
    entrypoints = [];
    clinits = [] }

(* [Hashtbl.copy] keeps each table's bucket layout, so a copy iterates
   in the source's order and a load that extends it numbers sites and
   visits methods exactly as a fresh build that added the same bindings
   first would. *)
let copy p =
  { table = Classtable.copy p.table;
    methods = Hashtbl.copy p.methods;
    sites = Hashtbl.copy p.sites;
    next_site = p.next_site;
    entrypoints = p.entrypoints;
    clinits = p.clinits }

type delta = {
  d_classes : Classtable.cls list;
  d_methods : Tac.meth list;
  d_sites : site_info list;
  d_next_site : int;
  d_entrypoints : string list;
  d_clinits : string list;
}

(* A table's bindings beyond [base]'s. [Hashtbl.fold] walks each bucket
   newest first, so consing yields each bucket's new keys oldest first;
   re-adding them in that order puts every key back in its place, since
   growing a table keeps the order within a bucket. *)
let added ~base tbl =
  Hashtbl.fold
    (fun k v acc -> if Hashtbl.mem base k then acc else v :: acc)
    tbl []

let delta ~base p =
  { d_classes = Classtable.delta ~base:base.table p.table;
    d_methods = added ~base:base.methods p.methods;
    d_sites = added ~base:base.sites p.sites;
    d_next_site = p.next_site;
    d_entrypoints = p.entrypoints;
    d_clinits = p.clinits }

let extend ~base d =
  let p = copy base in
  Classtable.extend p.table d.d_classes;
  List.iter (fun m -> Hashtbl.add p.methods (Tac.method_id m) m) d.d_methods;
  List.iter (fun si -> Hashtbl.add p.sites si.si_id si) d.d_sites;
  p.next_site <- d.d_next_site;
  p.entrypoints <- d.d_entrypoints;
  p.clinits <- d.d_clinits;
  p

let fresh_site p ~meth ~kind =
  let id = p.next_site in
  p.next_site <- id + 1;
  Hashtbl.replace p.sites id { si_id = id; si_method = meth; si_kind = kind };
  id

let site_info p id = Hashtbl.find_opt p.sites id

let add_method p (m : Tac.meth) =
  Hashtbl.replace p.methods (Tac.method_id m) m

let find_method p id = Hashtbl.find_opt p.methods id

let mem_method p id = Hashtbl.mem p.methods id

let add_entrypoint p id =
  if not (List.mem id p.entrypoints) then p.entrypoints <- p.entrypoints @ [ id ]

let iter_methods p f = Hashtbl.iter (fun _ m -> f m) p.methods

let all_method_ids p =
  Hashtbl.fold (fun id _ acc -> id :: acc) p.methods []
  |> List.sort String.compare

(** Aggregate statistics used by the Table 2 reproduction. *)
type stats = {
  st_classes : int;
  st_methods : int;
  st_app_classes : int;
  st_app_methods : int;
  st_instrs : int;
}

let stats p =
  let classes = Classtable.all_classes p.table in
  let app_classes =
    List.filter (fun (c : Classtable.cls) -> not c.cl_library) classes
  in
  let methods = ref 0 and app_methods = ref 0 and instrs = ref 0 in
  iter_methods p (fun m ->
      incr methods;
      if not m.Tac.m_library then incr app_methods;
      Array.iter
        (fun (b : Tac.block) -> instrs := !instrs + Array.length b.instrs)
        m.Tac.m_blocks);
  { st_classes = List.length classes;
    st_methods = !methods;
    st_app_classes = List.length app_classes;
    st_app_methods = !app_methods;
    st_instrs = !instrs }
