(** Security rules: triples (sources, sanitizers, sinks) per issue type (§3).

    A source is a method whose return value (or, for by-reference sources
    like [RandomAccessFile.readFully], a parameter's object state) is
    tainted. A sanitizer endorses its input. A sink is a method together
    with its attack-vulnerable parameter positions. Method references are
    matched through the class hierarchy: a call whose static target is
    [MyResponse.getWriter/1] matches a rule on
    [HttpServletResponse.getWriter/1] if the former resolves there. *)

open Jir

type issue =
  | Xss
  | Sqli
  | Command_injection
  | Malicious_file
  | Info_leak

let issue_name = function
  | Xss -> "XSS"
  | Sqli -> "SQLi"
  | Command_injection -> "CmdInjection"
  | Malicious_file -> "MaliciousFile"
  | Info_leak -> "InfoLeak"

let pp_issue ppf i = Fmt.string ppf (issue_name i)

type source_kind = Tainted_return | Taints_param of int

type source = {
  src_method : string;          (* canonical method id *)
  src_kind : source_kind;
}

type sink = {
  snk_method : string;
  snk_params : int list;        (* sensitive argument positions *)
}

type rule = {
  rule_name : string;
  issue : issue;
  sources : source list;
  sanitizers : string list;
  sinks : sink list;
}

(* ------------------------------------------------------------------ *)
(* Default rule set                                                   *)
(* ------------------------------------------------------------------ *)

let ret m = { src_method = m; src_kind = Tainted_return }

(* untrusted user input: servlet parameters, headers, cookies, request
   bodies, and the synthesized Struts form population *)
let user_input_sources =
  List.map ret
    [ "HttpServletRequest.getParameter/2";
      "HttpServletRequest.getParameterValues/2";
      "HttpServletRequest.getHeader/2";
      "HttpServletRequest.getQueryString/1";
      "HttpServletRequest.getRequestURI/1";
      "Cookie.getValue/1";
      "BufferedReader.readLine/1";
      "ResultSet.getString/2";
      "ObjectInputStream.readObject/1";
      "$Synth.taintedString/0" ]
  @ [ { src_method = "RandomAccessFile.readFully/2";
        src_kind = Taints_param 1 } ]

let output_sinks =
  [ { snk_method = "PrintWriter.println/2"; snk_params = [ 1 ] };
    { snk_method = "PrintWriter.print/2"; snk_params = [ 1 ] };
    { snk_method = "ServletOutputStream.println/2"; snk_params = [ 1 ] };
    { snk_method = "ServletOutputStream.print/2"; snk_params = [ 1 ] };
    { snk_method = "HttpServletResponse.addHeader/3"; snk_params = [ 2 ] };
    { snk_method = "HttpServletResponse.sendError/3"; snk_params = [ 2 ] } ]

let xss : rule =
  { rule_name = "xss";
    issue = Xss;
    sources = user_input_sources;
    sanitizers = [ "URLEncoder.encode/1"; "Sanitizer.encodeHtml/1" ];
    sinks = output_sinks }

let sqli : rule =
  { rule_name = "sqli";
    issue = Sqli;
    sources = user_input_sources;
    sanitizers = [ "Sanitizer.escapeSql/1" ];
    sinks =
      [ { snk_method = "Statement.executeQuery/2"; snk_params = [ 1 ] };
        { snk_method = "Statement.executeUpdate/2"; snk_params = [ 1 ] };
        { snk_method = "Statement.execute/2"; snk_params = [ 1 ] };
        { snk_method = "Connection.prepareStatement/2"; snk_params = [ 1 ] } ] }

let command_injection : rule =
  { rule_name = "command-injection";
    issue = Command_injection;
    sources = user_input_sources;
    sanitizers = [];
    sinks = [ { snk_method = "Runtime.exec/2"; snk_params = [ 1 ] } ] }

let malicious_file : rule =
  { rule_name = "malicious-file";
    issue = Malicious_file;
    sources = user_input_sources;
    sanitizers = [ "Sanitizer.cleansePath/1" ];
    sinks =
      [ { snk_method = "FileInputStream.<init>/2"; snk_params = [ 1 ] };
        { snk_method = "FileOutputStream.<init>/2"; snk_params = [ 1 ] };
        { snk_method = "FileReader.<init>/2"; snk_params = [ 1 ] };
        { snk_method = "FileWriter.<init>/2"; snk_params = [ 1 ] };
        { snk_method = "RandomAccessFile.<init>/3"; snk_params = [ 1 ] };
        { snk_method = "HttpServletRequest.getRequestDispatcher/2";
          snk_params = [ 1 ] } ] }

let info_leak : rule =
  { rule_name = "info-leak";
    issue = Info_leak;
    sources =
      List.map ret [ "Throwable.getMessage/1"; "System.getProperty/1" ];
    sanitizers = [];
    sinks = output_sinks }

let default_rules = [ xss; sqli; command_injection; malicious_file; info_leak ]

(* ------------------------------------------------------------------ *)
(* Matching                                                           *)
(* ------------------------------------------------------------------ *)

(** A call target's role in one rule, asked by its canonical id. A caller
    that resolved a target once asks every rule through these. *)
let source_of_id (rule : rule) (id : string) : source option =
  List.find_opt (fun s -> String.equal s.src_method id) rule.sources

let sink_of_id (rule : rule) (id : string) : sink option =
  List.find_opt (fun s -> String.equal s.snk_method id) rule.sinks

let is_sink_arg_id (rule : rule) (id : string) (i : int) =
  List.exists
    (fun s -> String.equal s.snk_method id && List.mem i s.snk_params)
    rule.sinks

let is_sanitizer_id (rule : rule) (id : string) =
  List.exists (String.equal id) rule.sanitizers

(** A matcher canonicalizes call targets through the class hierarchy and
    answers rule-membership queries. Memoized per target. *)
type matcher = {
  table : Classtable.t;
  canon : (Tac.mref, string) Hashtbl.t;
}

let matcher (table : Classtable.t) : matcher =
  { table; canon = Hashtbl.create 256 }

let resolve table (target : Tac.mref) =
  match
    Classtable.lookup_method table target.Tac.rclass target.Tac.rname
      target.Tac.rarity
  with
  | Some mi -> Tac.id mi.Classtable.mi_class target.Tac.rname target.Tac.rarity
  | None -> Tac.mref_id target

(** Canonical method id of a call target: the declaring class of the method
    the static target resolves to. *)
let canonical (m : matcher) (target : Tac.mref) : string =
  match Hashtbl.find_opt m.canon target with
  | Some c -> c
  | None ->
    let c = resolve m.table target in
    Hashtbl.replace m.canon target c;
    c

let source_of (m : matcher) (rule : rule) (target : Tac.mref) : source option =
  source_of_id rule (canonical m target)

let is_sink_arg (m : matcher) (rule : rule) (target : Tac.mref) (i : int) =
  is_sink_arg_id rule (canonical m target) i

let sink_of (m : matcher) (rule : rule) (target : Tac.mref) : sink option =
  sink_of_id rule (canonical m target)

let is_sanitizer (m : matcher) (rule : rule) (target : Tac.mref) =
  is_sanitizer_id rule (canonical m target)

(** The canonical id of [target] if any rule in [rules] lists it as a
    sanitizer, [None] otherwise. The single sanitizer-identity question
    every consumer (tabulation, refinement, triage, the sanitization
    judge) must agree on: matching goes through [canonical], so a
    subclass {e inheriting} a sanitizer matches while a subclass
    {e overriding} it with its own body does not. *)
let sanitizer_of (m : matcher) (rules : rule list) (target : Tac.mref) :
  string option =
  let c = canonical m target in
  if List.exists (fun r -> is_sanitizer_id r c) rules then Some c else None

(** Does any rule regard this method id as a source? Used to seed the
    priority-driven call-graph construction (§6.1). *)
let is_source_method_id (rules : rule list) (m : matcher) (id : string) =
  (* [id] is already an mref id string; canonicalize via a parse *)
  match String.rindex_opt id '/' with
  | None -> false
  | Some slash ->
    (match String.rindex_opt id '.' with
     | None -> false
     | Some dot ->
       let rclass = String.sub id 0 dot in
       let rname = String.sub id (dot + 1) (slash - dot - 1) in
       let rarity =
         int_of_string_opt
           (String.sub id (slash + 1) (String.length id - slash - 1))
       in
       (match rarity with
        | None -> false
        | Some rarity ->
          let c = canonical m { Tac.rclass; rname; rarity } in
          List.exists (fun r -> source_of_id r c <> None) rules))
