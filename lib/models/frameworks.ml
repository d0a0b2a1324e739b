(** Web-framework modeling (§4.2.2): Struts actions, servlets and EJBs.

    Real containers dispatch to application code based on deployment
    descriptors; analyzing the container is hopeless, so TAJ reads the
    descriptor and synthesizes analyzable artifacts. We do the same over a
    simple line-based descriptor format:

    {v
    # comment
    servlet <servlet-class>
    action <path> <action-class> <form-class>
    ejb <jndi-name> <home-interface> <bean-class>
    v}

    Synthesis produces MJava source for a [$Main] entry class that invokes
    every servlet's [service] and every action's [execute], a [$Synth]
    factory whose makers populate every [ActionForm] field with tainted data
    (recursively through compound fields), and one [$<Home>Impl] class per
    EJB whose [create] returns the bean instance — the artifact that lets
    remote calls resolve without container code. *)

open Jir

type descriptor = {
  servlets : string list;
  actions : (string * string * string) list;  (* path, action, form *)
  ejbs : (string * string * string) list;     (* jndi, home iface, bean *)
}

let empty = { servlets = []; actions = []; ejbs = [] }

exception Descriptor_error of string

let parse_descriptor (text : string) : descriptor =
  let lines = String.split_on_char '\n' text in
  List.fold_left
    (fun d line ->
       let line = String.trim line in
       if String.length line = 0 || line.[0] = '#' then d
       else
         match String.split_on_char ' ' line
               |> List.filter (fun s -> s <> "") with
         | [ "servlet"; cls ] -> { d with servlets = d.servlets @ [ cls ] }
         | [ "action"; path; action; form ] ->
           { d with actions = d.actions @ [ (path, action, form) ] }
         | [ "ejb"; jndi; home; bean ] ->
           { d with ejbs = d.ejbs @ [ (jndi, home, bean) ] }
         | _ -> raise (Descriptor_error ("bad descriptor line: " ^ line)))
    empty lines

(* ------------------------------------------------------------------ *)
(* Cast-constraint inference (§4.2.2)                                 *)
(* ------------------------------------------------------------------ *)

(* "the analysis first checks which constraints the concrete implementation
   of execute places on its ActionForm parameter in the form of cast
   operations, and then simulates the passing of all compatible subtypes" *)

(** Classes an action's [execute] casts its form parameter to, keyed by
    action class. An action with no recorded entry places no constraint. *)
let form_cast_constraints (units : Ast.compilation_unit list) :
  (string * string list) list =
  let acc = ref [] in
  List.iter
    (List.iter (function
       | Ast.Interface _ -> ()
       | Ast.Class c ->
         List.iter
           (fun (m : Ast.method_decl) ->
              if String.equal m.Ast.md_name "execute" then
                match m.Ast.md_params, m.Ast.md_body with
                | _ :: (Ast.Tclass _, form_param) :: _, Some body ->
                  let casts = ref [] in
                  Ast.iter_exprs
                    (fun e ->
                       match e.Ast.e with
                       | Ast.Cast (Ast.Tclass t, { Ast.e = Ast.Var v; _ })
                         when String.equal v form_param ->
                         if not (List.mem t !casts) then casts := t :: !casts
                       | _ -> ())
                    body;
                  if !casts <> [] then acc := (c.Ast.c_name, !casts) :: !acc
                | _ -> ())
           c.Ast.c_methods))
    units;
  !acc

(* ------------------------------------------------------------------ *)
(* Synthesis                                                          *)
(* ------------------------------------------------------------------ *)

let home_impl_name home = "$" ^ home ^ "Impl"

(** The JNDI registry handed to {!Reflection.rewrite_program}. *)
let ejb_registry (d : descriptor) : (string * string) list =
  List.map (fun (jndi, home, _) -> (jndi, home_impl_name home)) d.ejbs

(* Generate the $Synth maker for one form class, recursing into compound
   fields up to [max_depth]. Returns the maker bodies accumulated so far.
   Cycle-safe: a class currently being generated is referenced, not
   re-entered. *)
let rec gen_maker table ~max_depth ~depth ~(made : (string, unit) Hashtbl.t)
    ~(buf : Buffer.t) (cls : string) : unit =
  if not (Hashtbl.mem made cls) then begin
    Hashtbl.replace made cls ();
    let fields = Classtable.all_fields table cls in
    let body = Buffer.create 128 in
    Buffer.add_string body
      (Printf.sprintf "  public static %s make$%s() {\n    %s f = new %s();\n"
         cls cls cls cls);
    List.iter
      (fun (fi : Classtable.finfo) ->
         if not fi.Classtable.fi_static then
           match fi.Classtable.fi_typ with
           | Jir.Ast.Tclass "String" ->
             Buffer.add_string body
               (Printf.sprintf "    f.%s = $Synth.taintedString();\n"
                  fi.Classtable.fi_name)
           | Jir.Ast.Tclass c when depth < max_depth ->
             (match Classtable.find_opt table c with
              | Some info
                when info.Classtable.cl_kind = Classtable.Class_kind
                     && not info.Classtable.cl_abstract
                     && not info.Classtable.cl_library
                     && List.mem 1 info.Classtable.cl_ctor_arities ->
                gen_maker table ~max_depth ~depth:(depth + 1) ~made ~buf c;
                Buffer.add_string body
                  (Printf.sprintf "    f.%s = $Synth.make$%s();\n"
                     fi.Classtable.fi_name c)
              | _ -> ())
           | _ -> ())
      fields;
    Buffer.add_string body "    return f;\n  }\n";
    Buffer.add_buffer buf body
  end

(** Synthesize the entrypoint artifacts. [table] must already contain all
    application and library declarations. [cast_constraints] (from
    {!form_cast_constraints}) narrows the form subtypes instantiated per
    action to those compatible with the casts its [execute] performs.
    Returns MJava source text to load as (synthetic) application code. *)
let synthesize ?(cast_constraints = []) (table : Classtable.t)
    (d : descriptor) : string =
  let subtypes = Classtable.subtype_index table in
  (* every concrete HttpServlet subtype is an entrypoint, declared or not *)
  let declared = d.servlets in
  let auto =
    subtypes "HttpServlet"
    |> List.filter (fun c -> c <> "HttpServlet" && not (List.mem c declared))
  in
  let servlets =
    List.filter (fun c -> Classtable.mem table c) (declared @ auto)
  in
  let buf = Buffer.create 1024 in
  (* --- $Synth: tainted form factories --- *)
  let made = Hashtbl.create 8 in
  let makers = Buffer.create 512 in
  let form_instances =
    List.concat_map
      (fun (_, action, form) ->
         let subs =
           subtypes form
           |> List.filter (fun c -> Classtable.mem table c)
         in
         (* keep only subtypes compatible with the action's observed casts *)
         let subs =
           match List.assoc_opt action cast_constraints with
           | Some casts ->
             let narrowed =
               List.filter
                 (fun sub ->
                    List.exists
                      (fun t -> Classtable.is_subclass table sub t)
                      casts)
                 subs
             in
             (* a cast to an unrelated class constrains nothing we can use;
                fall back to the declared form's subtypes *)
             if narrowed = [] then subs else narrowed
           | None -> subs
         in
         List.map (fun sub -> (action, sub)) subs)
      d.actions
  in
  List.iter
    (fun (_, sub) -> gen_maker table ~max_depth:2 ~depth:0 ~made ~buf:makers sub)
    form_instances;
  Buffer.add_string buf "class $Synth {\n";
  Buffer.add_string buf "  public static native String taintedString();\n";
  Buffer.add_buffer buf makers;
  Buffer.add_string buf "}\n";
  (* --- EJB home implementations --- *)
  List.iter
    (fun (_, home, bean) ->
       match Classtable.lookup_method table home "create" 1 with
       | Some mi ->
         let ret =
           match mi.Classtable.mi_ret with
           | Jir.Ast.Tclass c -> c
           | _ -> "Object"
         in
         Buffer.add_string buf
           (Printf.sprintf
              "class %s implements %s {\n\
              \  public %s create() { return new %s(); }\n\
               }\n"
              (home_impl_name home) home ret bean)
       | None -> ())
    d.ejbs;
  (* --- $Main --- *)
  Buffer.add_string buf "class $Main {\n  public static void run() {\n";
  Buffer.add_string buf
    "    HttpServletRequest req = new HttpServletRequest();\n\
    \    HttpServletResponse resp = new HttpServletResponse();\n";
  List.iteri
    (fun i cls ->
       Buffer.add_string buf
         (Printf.sprintf
            "    %s srv%d = new %s();\n\
            \    srv%d.init(new ServletConfig());\n\
            \    srv%d.service(req, resp);\n"
            cls i cls i i))
    servlets;
  List.iteri
    (fun i (action, form_sub) ->
       if Classtable.mem table action then
         Buffer.add_string buf
           (Printf.sprintf
              "    %s act%d = new %s();\n\
              \    act%d.execute(new ActionMapping(), $Synth.make$%s(), req, resp);\n"
              action i action i form_sub))
    form_instances;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

(** Method id of the synthesized entrypoint. *)
let entry_method = "$Main.run/0"

(** Method id of the synthetic tainted-data source used for form fields. *)
let tainted_source = "$Synth.taintedString/0"
