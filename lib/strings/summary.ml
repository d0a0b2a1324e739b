(** Interprocedural string-template reconstruction.

    Two layers:

    - {e Per-method summaries} ({!of_method}): the template of a method's
      return value as a pure function of its body — literals, parameter
      references, field references, and opaque fragments. Memoized per
      method id, and pluggable into the persistent incremental cache as
      its own tier (the summary never mentions call-graph nodes or other
      methods, so a body-digest key validates it).

    - {e Sink templates} ({!sink_template}): the template of the value
      reaching a reported flow's sink, reconstructed by walking SSA
      definitions through concatenations, calls (instantiating callee
      summaries), [StringBuilder]/[StringBuffer] append chains, and
      field-carried constant fragments. Fragments whose defining
      statement lies on the flow path become [Tainted]; everything else
      unknown becomes [Hole] (§9's string-analysis direction). *)

module Tac = Jir.Tac
module Stmt = Sdg.Stmt
module Telemetry = Obs.Telemetry

let m_summaries = Telemetry.counter "strings.summaries"
let m_templates = Telemetry.counter "strings.templates"
let m_fragments = Telemetry.counter "strings.field_fragments"

(* ------------------------------------------------------------------ *)
(* Per-method summaries                                               *)
(* ------------------------------------------------------------------ *)

type piece =
  | S_lit of string             (** constant fragment *)
  | S_param of int              (** the caller's argument in this position *)
  | S_field of string * string  (** a field-carried fragment (class, name) *)
  | S_opaque                    (** anything the walk cannot see through *)

type t = piece list

(** Hooks into a persistent summary cache (the [strings] tier of
    [Cache.Incr]). Like the def/use tier, validation lives on the cache
    side: [sc_lookup] must answer only when its stored body digest
    matches the method passed. Both may be called from worker domains
    and must synchronize internally. *)
type cache = {
  sc_lookup : Tac.meth -> t option;
  sc_store : Tac.meth -> t -> unit;
}

let norm (s : t) : t =
  let rec go = function
    | S_lit a :: S_lit b :: rest -> go (S_lit (a ^ b) :: rest)
    | S_lit "" :: rest -> go rest
    | p :: rest -> p :: go rest
    | [] -> []
  in
  go s

(* String-library pass-throughs: model-JDK natives whose result is their
   input (possibly case-folded — which preserves the quoting structure
   classification reads). Keyed by resolved target id; the model JDK is
   immutable, so the raw ids are stable. *)
let string_identity = function
  | "String.valueOf/1" | "String.toString/1" | "String.trim/1"
  | "String.intern/1" | "String.toUpperCase/1" | "String.toLowerCase/1" ->
    Some 0
  | _ -> None

(* The return-value summary of a method body: walk SSA definitions from
   every [return v] terminator. Pure function of the body — calls other
   than the string-identity natives are opaque, fields stay symbolic. *)
let summarize (m : Tac.meth) : t =
  if not m.Tac.m_has_body then [ S_opaque ]
  else begin
    let defs : (Tac.var, Tac.instr) Hashtbl.t = Hashtbl.create 32 in
    let phis : (Tac.var, Tac.phi) Hashtbl.t = Hashtbl.create 8 in
    let returns = ref [] in
    Array.iter
      (fun (b : Tac.block) ->
         List.iter (fun p -> Hashtbl.replace phis p.Tac.phi_lhs p) b.Tac.phis;
         Array.iter
           (fun ins ->
              List.iter (fun v -> Hashtbl.replace defs v ins) (Tac.defs ins))
           b.Tac.instrs;
         match b.Tac.term with
         | Tac.Return (Some v) -> returns := v :: !returns
         | _ -> ())
      m.Tac.m_blocks;
    let rec walk v fuel seen : t =
      if fuel <= 0 || List.mem v seen then [ S_opaque ]
      else if v < m.Tac.m_arity then [ S_param v ]
      else
        let seen = v :: seen in
        match Hashtbl.find_opt defs v with
        | Some (Tac.Const (_, Tac.Cstr s)) -> [ S_lit s ]
        | Some (Tac.Const (_, Tac.Cint n)) -> [ S_lit (string_of_int n) ]
        | Some (Tac.Move (_, s)) | Some (Tac.Cast (_, _, s)) ->
          walk s (fuel - 1) seen
        | Some (Tac.Strcat (_, a, b)) ->
          walk a (fuel - 1) seen @ walk b (fuel - 1) seen
        | Some (Tac.Call c) ->
          (match string_identity (Tac.mref_id c.Tac.target) with
           | Some i ->
             (match List.nth_opt c.Tac.args i with
              | Some a -> walk a (fuel - 1) seen
              | None -> [ S_opaque ])
           | None when Tac.mref_id c.Tac.target = "String.concat/2" ->
             (match c.Tac.args with
              | [ recv; arg ] ->
                walk recv (fuel - 1) seen @ walk arg (fuel - 1) seen
              | _ -> [ S_opaque ])
           | None -> [ S_opaque ])
        | Some (Tac.Load (_, _, f)) | Some (Tac.Sload (_, f)) ->
          [ S_field (f.Tac.fclass, f.Tac.fname) ]
        | Some _ -> [ S_opaque ]
        | None ->
          (match Hashtbl.find_opt phis v with
           | Some p ->
             (* a phi joins: keep the template only when every incoming
                branch agrees, so the summary stays deterministic *)
             (match
                List.map (fun (_, a) -> walk a (fuel - 1) seen) p.Tac.phi_args
              with
              | [] -> [ S_opaque ]
              | first :: rest ->
                if List.for_all (fun s -> norm s = norm first) rest then first
                else [ S_opaque ])
           | None -> [ S_opaque ])
    in
    match List.rev !returns with
    | [] -> []
    | first :: rest ->
      let s0 = norm (walk first 48 []) in
      if List.for_all (fun v -> norm (walk v 48 []) = s0) rest then s0
      else [ S_opaque ]
  end

(** Is the summary all-literal (a usable constant fragment)? *)
let literal_only (s : t) =
  List.for_all (function S_lit _ -> true | _ -> false) s

(* ------------------------------------------------------------------ *)
(* Environment                                                        *)
(* ------------------------------------------------------------------ *)

type env = {
  builder : Sdg.Builder.t;
  prog : Jir.Program.t option;   (* enables field-carried fragments *)
  cache : cache option;
  memo : (string, t) Hashtbl.t;
  mutable field_frags : ((string * string) * Template.t) list option;
      (* lazily computed: fields whose every program-wide store is the
         same all-literal template *)
}

let make ?cache ?prog (builder : Sdg.Builder.t) : env =
  { builder; prog; cache; memo = Hashtbl.create 64; field_frags = None }

(** The (memoized, cache-backed) return summary of a method. *)
let of_method (env : env) (m : Tac.meth) : t =
  let key = Tac.method_id m in
  match Hashtbl.find_opt env.memo key with
  | Some s -> s
  | None ->
    let s =
      match Option.bind env.cache (fun c -> c.sc_lookup m) with
      | Some s -> s
      | None ->
        Telemetry.incr m_summaries;
        let s = summarize m in
        (match env.cache with Some c -> c.sc_store m s | None -> ());
        s
    in
    Hashtbl.replace env.memo key s;
    s

(* All-literal template stored into (class, field), joined program-wide:
   a field with exactly one distinct all-literal stored template is a
   usable constant fragment; anything else is not. *)
let field_fragments (env : env) : ((string * string) * Template.t) list =
  match env.field_frags with
  | Some l -> l
  | None ->
    let l =
      match env.prog with
      | None -> []
      | Some prog ->
        let stores : (string * string, t list) Hashtbl.t =
          Hashtbl.create 64
        in
        let record f (sum : t) =
          let key = (f.Tac.fclass, f.Tac.fname) in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt stores key)
          in
          if not (List.mem sum prev) then
            Hashtbl.replace stores key (sum :: prev)
        in
        List.iter
          (fun mid ->
             match Jir.Program.find_method prog mid with
             | None -> ()
             | Some m ->
               if m.Tac.m_has_body then begin
                 (* summarize stored values with the same shallow walker:
                    wrap the body so each stored var reads like a return *)
                 let defs : (Tac.var, Tac.instr) Hashtbl.t =
                   Hashtbl.create 16
                 in
                 Array.iter
                   (fun (b : Tac.block) ->
                      Array.iter
                        (fun ins ->
                           List.iter
                             (fun v -> Hashtbl.replace defs v ins)
                             (Tac.defs ins))
                        b.Tac.instrs)
                   m.Tac.m_blocks;
                 let rec walk v fuel : t =
                   if fuel <= 0 then [ S_opaque ]
                   else if v < m.Tac.m_arity then [ S_param v ]
                   else
                     match Hashtbl.find_opt defs v with
                     | Some (Tac.Const (_, Tac.Cstr s)) -> [ S_lit s ]
                     | Some (Tac.Const (_, Tac.Cint n)) ->
                       [ S_lit (string_of_int n) ]
                     | Some (Tac.Move (_, s)) | Some (Tac.Cast (_, _, s)) ->
                       walk s (fuel - 1)
                     | Some (Tac.Strcat (_, a, b)) ->
                       walk a (fuel - 1) @ walk b (fuel - 1)
                     | _ -> [ S_opaque ]
                 in
                 Array.iter
                   (fun (b : Tac.block) ->
                      Array.iter
                        (fun ins ->
                           match ins with
                           | Tac.Store (_, f, v) | Tac.Sstore (f, v) ->
                             record f (norm (walk v 16))
                           | _ -> ())
                        b.Tac.instrs)
                   m.Tac.m_blocks
               end)
          (Jir.Program.all_method_ids prog);
        Hashtbl.fold
          (fun key sums acc ->
             match sums with
             | [ s ] when literal_only s ->
               Telemetry.incr m_fragments;
               ( key,
                 List.map (function
                   | S_lit l -> Template.Lit l
                   | _ -> assert false) s )
               :: acc
             | _ -> acc)
          stores []
        |> List.sort compare
    in
    env.field_frags <- Some l;
    l

let fragment (env : env) (f : Tac.field) : Template.t option =
  List.assoc_opt (f.Tac.fclass, f.Tac.fname) (field_fragments env)

(* ------------------------------------------------------------------ *)
(* Sink templates                                                     *)
(* ------------------------------------------------------------------ *)

let is_builder_class c = c = "StringBuilder" || c = "StringBuffer"

let is_append (c : Tac.call) =
  is_builder_class c.Tac.target.Tac.rclass
  && c.Tac.target.Tac.rname = "append"
  && c.Tac.target.Tac.rarity = 2

let is_builder_to_string (c : Tac.call) =
  is_builder_class c.Tac.target.Tac.rclass
  && c.Tac.target.Tac.rname = "toString"
  && c.Tac.target.Tac.rarity = 1

(* walk parameters threaded through the mutually recursive functions *)
type wctx = {
  env : env;
  path_set : Stmt.Set.t;
}

let atomic (w : wctx) (def : Stmt.t) : Template.t =
  if Stmt.Set.mem def w.path_set then [ Template.Tainted ]
  else [ Template.Hole ]

(* When a call's definition lies on the flow path but instantiating its
   summary produced no tainted fragment, the taint traversed a part the
   summary could not see: pin it on the first unknown fragment so the
   constant context around it survives. *)
let mark_on_path (w : wctx) (def : Stmt.t) (tpl : Template.t) : Template.t =
  if
    (not (Stmt.Set.mem def w.path_set))
    || List.mem Template.Tainted tpl
  then tpl
  else
    let rec first_hole = function
      | Template.Hole :: rest -> Some (Template.Tainted :: rest)
      | p :: rest ->
        Option.map (fun r -> p :: r) (first_hole rest)
      | [] -> None
    in
    match first_hole tpl with
    | Some t -> t
    | None -> [ Template.Tainted ]

let rec walk (w : wctx) ~node v fuel depth : Template.t =
  if fuel <= 0 then [ Template.Hole ]
  else
    match Sdg.Builder.def_of w.env.builder ~node v with
    | None -> [ Template.Hole ]
    | Some def ->
      (match Sdg.Builder.instr_of w.env.builder def with
       | Some (Tac.Strcat (_, a, b)) ->
         walk w ~node a (fuel - 1) depth @ walk w ~node b (fuel - 1) depth
       | Some (Tac.Move (_, s)) | Some (Tac.Cast (_, _, s)) ->
         walk w ~node s (fuel - 1) depth
       | Some (Tac.Const (_, Tac.Cstr s)) -> [ Template.Lit s ]
       | Some (Tac.Const (_, Tac.Cint n)) ->
         [ Template.Lit (string_of_int n) ]
       | Some (Tac.Load (_, _, f)) | Some (Tac.Sload (_, f)) ->
         (match fragment w.env f with
          | Some t -> t
          | None -> atomic w def)
       | Some (Tac.Call c) -> call_template w ~node def c fuel depth
       | Some _ -> atomic w def
       | None ->
         (match def.Stmt.kind with
          | Stmt.K_param i -> param_template w ~node def i fuel depth
          | _ -> atomic w def))

(* A formal parameter: cross to the caller and continue from the actual
   argument. The flow path disambiguates call sites — the caller passing
   a value defined on the path is the one the flow traversed; with no
   path evidence a unique caller is still usable. *)
and param_template (w : wctx) ~node (def : Stmt.t) i fuel depth : Template.t =
  if depth <= 0 then atomic w def
  else
    let b = w.env.builder in
    let candidates =
      List.filter_map
        (fun (cs : Stmt.t) ->
           match Sdg.Builder.call_of b cs with
           | Some c ->
             Option.map
               (fun a -> (cs.Stmt.node, a))
               (List.nth_opt c.Tac.args i)
           | None -> None)
        (Sdg.Builder.callers_of_node b ~callee:node)
    in
    let on_path (pnode, a) =
      match Sdg.Builder.def_of b ~node:pnode a with
      | Some d -> Stmt.Set.mem d w.path_set
      | None -> false
    in
    let cross (pnode, a) =
      mark_on_path w def (walk w ~node:pnode a (fuel - 1) (depth - 1))
    in
    (match List.find_opt on_path candidates with
     | Some c -> cross c
     | None ->
       (match candidates with
        | [ c ] -> cross c
        | _ -> atomic w def))

and call_template (w : wctx) ~node (def : Stmt.t) (c : Tac.call) fuel depth :
  Template.t =
  let arg i =
    match List.nth_opt c.Tac.args i with
    | Some a -> walk w ~node a (fuel - 1) depth
    | None -> [ Template.Hole ]
  in
  if is_builder_to_string c then
    (match c.Tac.args with
     | recv :: _ -> mark_on_path w def (chain_template w ~node recv fuel depth)
     | [] -> atomic w def)
  else
    match string_identity (Tac.mref_id c.Tac.target) with
    | Some i -> mark_on_path w def (arg i)
    | None when Tac.mref_id c.Tac.target = "String.concat/2" ->
      mark_on_path w def (arg 0 @ arg 1)
    | None ->
      if depth <= 0 then atomic w def
      else
        (match Sdg.Builder.callees_of_call w.env.builder def c with
         | [ callee ] ->
           let m = Sdg.Builder.node_meth w.env.builder callee in
           (match of_method w.env m with
            | [] -> atomic w def
            | [ S_opaque ] -> atomic w def
            | summary ->
              let tpl =
                List.concat_map
                  (function
                    | S_lit s -> [ Template.Lit s ]
                    | S_param i ->
                      (match List.nth_opt c.Tac.args i with
                       | Some a -> walk w ~node a (fuel - 1) (depth - 1)
                       | None -> [ Template.Hole ])
                    | S_field (fclass, fname) ->
                      (match
                         fragment w.env { Tac.fclass; fname }
                       with
                       | Some t -> t
                       | None -> [ Template.Hole ])
                    | S_opaque -> [ Template.Hole ])
                  summary
              in
              mark_on_path w def tpl)
         | _ -> atomic w def)

(* A StringBuilder/StringBuffer accumulation: the constructor argument
   followed by every appended value, in program order of the append call
   sites. The receiver may be the allocation itself or the fluent result
   of an earlier append; both root to the allocation, from which every
   alias (append results) is explored through the use index. *)
and chain_template (w : wctx) ~node recv fuel depth : Template.t =
  let b = w.env.builder in
  (* root the receiver chain at the allocation *)
  let rec root v guard =
    if guard <= 0 then v
    else
      match Sdg.Builder.def_of b ~node v with
      | None -> v
      | Some def ->
        (match Sdg.Builder.instr_of b def with
         | Some (Tac.Move (_, s)) | Some (Tac.Cast (_, _, s)) ->
           root s (guard - 1)
         | Some (Tac.Call c) when is_append c ->
           (match c.Tac.args with
            | r :: _ -> root r (guard - 1)
            | [] -> v)
         | _ -> v)
  in
  let r0 = root recv 16 in
  (* explore aliases: the allocation plus every append result *)
  let appended : (Stmt.t * Tac.var) list ref = ref [] in
  let ctor_arg : Tac.var option ref = ref None in
  let seen = Hashtbl.create 8 in
  let rec explore v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      List.iter
        (fun (u : Sdg.Builder.use) ->
           match u with
           | Sdg.Builder.U_plain stmt ->
             (* follow copies of the builder reference *)
             (match Sdg.Builder.instr_of b stmt with
              | Some (Tac.Move (d, _)) | Some (Tac.Cast (d, _, _)) ->
                explore d
              | _ -> ())
           | Sdg.Builder.U_arg (stmt, 0) ->
             (match Sdg.Builder.call_of b stmt with
              | Some c when is_append c ->
                (match c.Tac.args with
                 | _ :: value :: _ ->
                   if
                     not
                       (List.exists
                          (fun (s, _) -> Stmt.equal s stmt)
                          !appended)
                   then appended := (stmt, value) :: !appended;
                   (match c.Tac.ret with
                    | Some r -> explore r
                    | None -> ())
                 | _ -> ())
              | Some c
                when c.Tac.kind = Tac.Special
                     && c.Tac.target.Tac.rname = "<init>"
                     && is_builder_class c.Tac.target.Tac.rclass
                     && c.Tac.target.Tac.rarity = 2 ->
                (match c.Tac.args with
                 | _ :: init :: _ -> ctor_arg := Some init
                 | _ -> ())
              | _ -> ())
           | _ -> ())
        (Sdg.Builder.uses_of b ~node v)
    end
  in
  explore r0;
  let appends =
    List.sort (fun (a, _) (b', _) -> Stmt.compare a b') !appended
  in
  if appends = [] && !ctor_arg = None then [ Template.Hole ]
  else
    let init =
      match !ctor_arg with
      | Some v -> walk w ~node v (fuel - 1) depth
      | None -> []
    in
    List.fold_left
      (fun acc (_, v) -> acc @ walk w ~node v (fuel - 1) depth)
      init appends

(** Reconstruct the template of the value flowing into [sink] along
    [path]. Returns [None] when the sink argument cannot be recovered. *)
let sink_template (env : env) ~(path : Stmt.t list) ~(sink : Stmt.t) :
  Template.t option =
  match Sdg.Builder.call_of env.builder sink with
  | None -> None
  | Some call ->
    Telemetry.incr m_templates;
    let w = { env; path_set = Stmt.Set.of_list path } in
    let node = sink.Stmt.node in
    let args = call.Tac.args in
    let on_path v =
      match Sdg.Builder.def_of env.builder ~node v with
      | Some def -> Stmt.Set.mem def w.path_set
      | None -> false
    in
    (* find the sensitive argument: prefer one whose def lies on the
       path; fall back to the last argument *)
    let arg =
      match args with
      | [] -> None
      | hd :: tl ->
        (match List.find_opt on_path (tl @ [ hd ]) with
         | Some v -> Some v
         | None -> List.nth_opt args (List.length args - 1))
    in
    (match arg with
     | Some v -> Some (Template.normalize (walk w ~node v 64 4))
     | None -> None)
