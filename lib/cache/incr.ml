module Telemetry = Obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let c_hit = Telemetry.counter "cache.hit"
let c_miss = Telemetry.counter "cache.miss"

let hit tier =
  Telemetry.incr c_hit;
  Telemetry.incr (Telemetry.counter (Printf.sprintf "cache.%s.hit" tier))

let miss tier =
  Telemetry.incr c_miss;
  Telemetry.incr (Telemetry.counter (Printf.sprintf "cache.%s.miss" tier))

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

(* Salts every key so a change to the frontend or the entry encodings
   reads as a universal miss instead of a decode of stale structure. *)
let salt = Printf.sprintf "taj-incr-%d" Store.version

let d_str s = Digest.to_hex (Digest.string (salt ^ "\x00" ^ s))
let d_val v = d_str (Marshal.to_string v [])

(* ------------------------------------------------------------------ *)
(* Handle                                                             *)
(* ------------------------------------------------------------------ *)

(* Residency: a store stays in memory only while reads want it. A
   successful commit hands a store that no result lookup has hit to its
   file and drops it from [stores]; a store that reads hit stays, and so
   does one whose save failed, so a full disk costs no warmth. The loads
   that push the resident bytes past [budget] evict the least recently
   started stores, read or not. A session keeps its own store object
   after an eviction: if a later [start] reloads the file, two objects
   exist for one file and the last save wins. Entries lost that way cost
   misses, never a different answer, since every entry is keyed by a
   digest of its content. *)
type resident = {
  store : Store.t;
  mutable started : int;
  mutable read : bool;   (* a result lookup hit it: commits keep it *)
}

type t = {
  t_dir : string;
  stores : (string, resident) Hashtbl.t;
  mutable starts : int;   (* [start] calls so far: the LRU clock *)
  mutex : Mutex.t;
}

(* what resident stores may hold in key and payload bytes *)
let budget = 64 * 1024 * 1024

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  { t_dir = dir; stores = Hashtbl.create 8; starts = 0;
    mutex = Mutex.create () }

let dir t = t.t_dir

let sanitize app =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
       | _ -> '_')
    app

let store_path t app = Filename.concat t.t_dir (sanitize app ^ ".tajcache")

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Evict the least recently started stores, never [keep], until the
   resident ones fit the budget. The caller holds [t.mutex]. *)
let trim t ~keep =
  let total =
    Hashtbl.fold (fun _ r acc -> acc + Store.bytes r.store) t.stores 0
  in
  if total > budget then
    Hashtbl.fold
      (fun app r acc ->
         if String.equal app keep then acc
         else (r.started, app, Store.bytes r.store) :: acc)
      t.stores []
    |> List.sort compare
    |> List.fold_left
         (fun total (_, app, bytes) ->
            if total > budget then begin
              Hashtbl.remove t.stores app;
              total - bytes
            end
            else total)
         total
    |> ignore

(* Loads run under the table lock, so one app is never loaded twice at
   once. *)
let store t app =
  locked t (fun () ->
    t.starts <- t.starts + 1;
    match Hashtbl.find_opt t.stores app with
    | Some r ->
      r.started <- t.starts;
      r.store
    | None ->
      let s =
        Telemetry.phase "phase.cache"
          ~args:[ ("op", "load"); ("app", app) ]
          (fun () -> Store.load (store_path t app))
        |> fst
      in
      Hashtbl.replace t.stores app
        { store = s; started = t.starts; read = false };
      trim t ~keep:app;
      s)

(* A committed store lives in its file from now on; drop it unless reads
   hit it or the table already holds a newer object for [app]. *)
let release t app s =
  locked t (fun () ->
    match Hashtbl.find_opt t.stores app with
    | Some r when r.store == s && not r.read -> Hashtbl.remove t.stores app
    | _ -> ())

(* A result hit keeps [app]'s store resident across commits, unless the
   table already holds a newer object for it. *)
let mark_read t app s =
  locked t (fun () ->
    match Hashtbl.find_opt t.stores app with
    | Some r when r.store == s -> r.read <- true
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Session                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  app : string;
  st : Store.t;
  cache : t;
  (* the last frontend-tier key this session's hooks computed: the digest
     of the parsed unit ASTs plus the descriptor. It doubles as the
     semantic half of the AST-keyed result entry, which is what makes a
     comment-only edit a full result hit. *)
  mutable front_key : string option;
}

let start t ~app = { app; st = store t app; cache = t; front_key = None }

let corruption s =
  Option.map
    (fun reason -> Core.Diagnostics.Cache_corrupt { app = s.app; reason })
    (Store.corruption s.st)

(* Every decode below reads a payload that survived the frame checksum
   and the store's version header, i.e. bytes this very code version
   wrote; a failing decode is treated as a plain miss all the same. *)
let decode payload = try Some (Marshal.from_string payload 0) with _ -> None

let lookup s ~tier ~key =
  match Store.find s.st ~tier ~key with
  | None ->
    miss tier;
    None
  | Some payload ->
    (match decode payload with
     | None ->
       Store.remove s.st ~tier ~key;
       miss tier;
       None
     | Some v ->
       hit tier;
       Some v)

let fill s ~tier ~key v = Store.put s.st ~tier ~key (Marshal.to_string v [])

let hooks s : Core.Cache_iface.t =
  let unit_ast ~src ~parse =
    let key = d_str src in
    match lookup s ~tier:"ast" ~key with
    | Some (ast : Jir.Ast.compilation_unit) -> ast
    | None ->
      let ast = parse () in
      fill s ~tier:"ast" ~key ast;
      ast
  in
  (* the front entry holds only the application's part of the program;
     a hit re-links it to this process's model-JDK image *)
  let frontend ~descriptor ~asts ~build =
    let key = d_val (List.map d_val asts, descriptor) in
    s.front_key <- Some key;
    let base = Models.Jdklib.image () in
    match lookup s ~tier:"front" ~key with
    | Some
        ((d, stats, synthesized) :
           Jir.Program.delta * Models.Reflection.stats * int) ->
      (Jir.Program.extend ~base d, stats, synthesized)
    | None ->
      let ((prog, stats, synthesized) as v) = build () in
      fill s ~tier:"front" ~key
        (Jir.Program.delta ~base prog, stats, synthesized);
      v
  in
  let defuse : Sdg.Builder.defuse_cache =
    { dc_lookup =
        (fun m ->
           (lookup s ~tier:"defuse" ~key:(d_val m)
            : Sdg.Builder.defuse_summary option));
      dc_store = (fun m sum -> fill s ~tier:"defuse" ~key:(d_val m) sum) }
  in
  (* string-template summaries key exactly like def/use: a summary is a
     pure function of the method body, so the body digest validates it *)
  let strings : Strings.Summary.cache =
    { sc_lookup =
        (fun m ->
           (lookup s ~tier:"strings" ~key:(d_val m)
            : Strings.Summary.t option));
      sc_store = (fun m sum -> fill s ~tier:"strings" ~key:(d_val m) sum) }
  in
  { Core.Cache_iface.unit_ast; frontend; defuse = Some defuse;
    strings = Some strings }

(* ------------------------------------------------------------------ *)
(* Result tier                                                        *)
(* ------------------------------------------------------------------ *)

type cached_result = { cr_report : string; cr_issues : int; cr_flows : int }

(* The raw key in two steps: the input's part (a digest of each source,
   and the descriptor), which a caller may keep for an input it sees
   again, then the request's (configuration and rules). The tuple is the
   one the key has always digested, so a store written before the split
   still answers. *)
type input_digest = { sources : string list; descriptor : string }

let input_digest (input : Core.Taj.input) =
  { sources = List.map d_str input.Core.Taj.app_sources;
    descriptor = input.Core.Taj.descriptor }

let raw_key ~rules ~config d =
  d_val ("raw", d.sources, d.descriptor, (config : Core.Config.t), rules)

let result_key ~rules ~config input =
  raw_key ~rules ~config (input_digest input)

(* The semantic result key: parsed-unit AST digests instead of source
   digests, so edits the parser discards (comments, whitespace) map to
   the same entry. Only defined once the session's frontend hook has run,
   and only for a load that skipped nothing — a skipped unit means the
   AST digests under-describe the input. *)
let ast_result_key ~rules ~config ~(loaded : Core.Taj.loaded) s =
  match s.front_key with
  | Some fk when loaded.Core.Taj.skipped_units = [] ->
    Some (d_val ("ast", fk, config, rules))
  | _ -> None

(* The tier is content-addressed: a result key maps to the digest of its
   report's payload, and the payload is stored once, under that digest,
   in the [report] tier. The raw key, the AST key and the raw key of a
   comment-edited input all share one copy. *)
let lookup_result s ~key : cached_result option =
  let found =
    Option.bind (Store.find s.st ~tier:"result" ~key) (fun digest ->
      Option.bind (Store.find s.st ~tier:"report" ~key:digest) decode)
  in
  (match found with
   | Some _ ->
     hit "result";
     mark_read s.cache s.app s.st
   | None -> miss "result");
  found

let commit ?(results = []) ?analysis:_ s =
  List.iter
    (fun (key, cr) ->
       let payload = Marshal.to_string (cr : cached_result) [] in
       let digest = d_str payload in
       Store.put s.st ~tier:"report" ~key:digest payload;
       Store.put s.st ~tier:"result" ~key digest)
    results;
  let saved, _ =
    Telemetry.phase "phase.cache"
      ~args:[ ("op", "save"); ("app", s.app) ]
      (fun () -> Store.save s.st)
  in
  if saved then release s.cache s.app s.st

let render_report builder report =
  Format.asprintf "%a" (Core.Report.pp builder) report

let entry_of (c : Core.Taj.completed) =
  { cr_report = render_report c.Core.Taj.builder c.Core.Taj.report;
    cr_issues = Core.Report.issue_count c.Core.Taj.report;
    cr_flows = Core.Report.flow_count c.Core.Taj.report }

(* The one rule for what a finished run stores. [entry] gives a clean
   run's report; [supervised] passes the one it already rendered for its
   own outcome, so no run renders twice. [key] is the raw key the caller
   looked up, so no run digests its input twice. *)
let store_clean s ~rules ~config ~key (sv : Core.Supervisor.outcome) ~entry =
  let results =
    match sv.Core.Supervisor.sv_analysis with
    | Some { Core.Taj.result = Core.Taj.Completed c; loaded; _ }
      when (not (Core.Report.is_partial c.Core.Taj.report))
           && sv.Core.Supervisor.sv_diagnostics = [] ->
      let cr = entry c in
      List.map
        (fun key -> (key, cr))
        (key :: Option.to_list (ast_result_key ~rules ~config ~loaded s))
    | _ -> []
  in
  commit ~results s

let finish s ~rules ~config ~key sv =
  store_clean s ~rules ~config ~key sv ~entry:entry_of

(* ------------------------------------------------------------------ *)
(* Cached supervised analysis                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  i_report : string;
  i_issues : int;
  i_flows : int;
  i_partial : bool;
  i_from_cache : bool;
  i_supervisor : Core.Supervisor.outcome option;
  i_diags : Core.Diagnostics.degradation list;
}

let from_cache ~diags (cr : cached_result) =
  { i_report = cr.cr_report; i_issues = cr.cr_issues; i_flows = cr.cr_flows;
    i_partial = false; i_from_cache = true; i_supervisor = None;
    i_diags = diags }

(* [session] is the store with the raw key the run was looked up by. *)
let supervised ?loaded ~session ~diags ~rules ~options ~config
    (input : Core.Taj.input) : outcome =
  let sv = Core.Supervisor.run ~rules ~options ~config ?loaded input in
  let cr, partial =
    match sv.Core.Supervisor.sv_analysis with
    | Some { Core.Taj.result = Core.Taj.Completed c; _ } ->
      (entry_of c, Core.Report.is_partial c.Core.Taj.report)
    | _ -> ({ cr_report = ""; cr_issues = 0; cr_flows = 0 }, true)
  in
  Option.iter
    (fun (s, key) ->
       store_clean s ~rules ~config ~key sv ~entry:(fun _ -> cr))
    session;
  { i_report = cr.cr_report; i_issues = cr.cr_issues; i_flows = cr.cr_flows;
    i_partial = partial; i_from_cache = false; i_supervisor = Some sv;
    i_diags = diags }

let analyze ?cache ?(rules = Core.Rules.default_rules)
    ?(options = Core.Supervisor.default_options)
    ?(config = Core.Config.preset Core.Config.Hybrid_unbounded)
    (input : Core.Taj.input) : outcome =
  match Option.map (fun t -> start t ~app:input.Core.Taj.name) cache with
  | None -> supervised ~session:None ~diags:[] ~rules ~options ~config input
  | Some s ->
    let diags =
      match corruption s with Some d -> [ d ] | None -> []
    in
    let raw_key = result_key ~rules ~config input in
    (match lookup_result s ~key:raw_key with
     | Some cr ->
       (* byte-identical input: answer without even parsing *)
       from_cache ~diags cr
     | None ->
       let options = { options with Core.Supervisor.cache = hooks s } in
       (* parse (warm) to learn the AST digests, then try the semantic
          result key: a comment-only edit lands here and stops here *)
       let loaded =
         match
           Core.Taj.load ~lenient:true ~cache:options.Core.Supervisor.cache
             input
         with
         | l -> Some l
         | exception _ ->
           (* let the supervisor reproduce and record the failure *)
           None
       in
       match
         Option.bind loaded (fun l ->
           Option.bind (ast_result_key ~rules ~config ~loaded:l s)
             (fun key -> lookup_result s ~key))
       with
       | Some cr ->
         (* persist the freshly parsed units before answering, so the next
            run with these exact sources hits the raw key outright *)
         commit ~results:[ (raw_key, cr) ] s;
         from_cache ~diags cr
       | None ->
         supervised ?loaded ~session:(Some (s, raw_key)) ~diags ~rules
           ~options ~config input)
