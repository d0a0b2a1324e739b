module Telemetry = Obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let c_hit = Telemetry.counter "cache.hit"
let c_miss = Telemetry.counter "cache.miss"
let c_invalidated = Telemetry.counter "cache.invalidated"

let hit tier =
  Telemetry.incr c_hit;
  Telemetry.incr (Telemetry.counter (Printf.sprintf "cache.%s.hit" tier))

let miss tier =
  Telemetry.incr c_miss;
  Telemetry.incr (Telemetry.counter (Printf.sprintf "cache.%s.miss" tier))

let invalidated tier =
  Telemetry.incr c_invalidated;
  Telemetry.incr
    (Telemetry.counter (Printf.sprintf "cache.%s.invalidated" tier))

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

type t = {
  t_dir : string;
  stores : (string, Store.t) Hashtbl.t;
  mutex : Mutex.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if String.length parent < String.length dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  { t_dir = dir; stores = Hashtbl.create 8; mutex = Mutex.create () }

let dir t = t.t_dir

let sanitize app =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
       | _ -> '_')
    app

let store_path t app = Filename.concat t.t_dir (sanitize app ^ ".tajcache")

let store t app =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
       match Hashtbl.find_opt t.stores app with
       | Some s -> s
       | None ->
         let s =
           Telemetry.phase "phase.cache"
             ~args:[ ("op", "load"); ("app", app) ]
             (fun () -> Store.load (store_path t app))
           |> fst
         in
         Hashtbl.replace t.stores app s;
         s)

(* ------------------------------------------------------------------ *)
(* Session                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  app : string;
  st : Store.t;
  (* the last frontend-tier key this session's hooks computed: the digest
     of the parsed unit ASTs plus the descriptor. It doubles as the
     semantic half of the AST-keyed result entry, which is what makes a
     comment-only edit a full result hit. *)
  mutable front_key : string option;
}

let start t ~app = { app; st = store t app; front_key = None }

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
(* Summary tier: call-closure digests                                 *)
(* ------------------------------------------------------------------ *)

(* Merkle digest per call-graph node: a hash over its SCC's method
   bodies plus the closure digests of every successor SCC — so the
   digest of a method changes exactly when the body of {e any} method
   reachable from it changes. Tarjan pops components in reverse
   topological order, so successor components are always digested
   first. *)
let closure_digests (cg : Pointer.Callgraph.t) =
  let n = Pointer.Callgraph.node_count cg in
  let body =
    Array.init n (fun i ->
      d_val (Pointer.Callgraph.node cg i).Pointer.Callgraph.n_method)
  in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let onstack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    onstack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           strong w;
           low.(v) <- min low.(v) low.(w)
         end
         else if onstack.(w) then low.(v) <- min low.(v) index.(w))
      (Pointer.Callgraph.successors cg v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          onstack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  let members = Array.make !ncomp [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  (* component c only points at components < c *)
  let comp_digest = Array.make !ncomp "" in
  for c = 0 to !ncomp - 1 do
    let parts =
      List.concat_map
        (fun v ->
           body.(v)
           :: List.filter_map
                (fun w ->
                   if comp.(w) = c then None else Some comp_digest.(comp.(w)))
                (Pointer.Callgraph.successors cg v))
        members.(c)
    in
    comp_digest.(c) <- d_str (String.concat "|" (List.sort_uniq compare parts))
  done;
  fun v -> comp_digest.(comp.(v))

(* Per-method summary entry: the closure digest it was derived under,
   and the parameter positions with a summary edge. *)
type summary_entry = { sm_closure : string; sm_params : int list }

let summary_entries (c : Core.Taj.completed) : (string * summary_entry) list =
  let cg = Pointer.Andersen.call_graph c.Core.Taj.andersen in
  let closure = closure_digests cg in
  let mid v =
    Jir.Tac.method_id (Pointer.Callgraph.node cg v).Pointer.Callgraph.n_method
  in
  (* method id -> param set, over every clone's summary edges *)
  let params : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v, p) ->
       let key = mid v in
       match Hashtbl.find_opt params key with
       | Some l -> if not (List.mem p !l) then l := p :: !l
       | None -> Hashtbl.add params key (ref [ p ]))
    c.Core.Taj.outcome.Core.Engine.summary_edges;
  (* method id -> digest over its clones' closure digests *)
  let closures : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  for v = 0 to Pointer.Callgraph.node_count cg - 1 do
    let key = mid v in
    match Hashtbl.find_opt closures key with
    | Some l -> l := closure v :: !l
    | None -> Hashtbl.add closures key (ref [ closure v ])
  done;
  Hashtbl.fold
    (fun key ps acc ->
       match Hashtbl.find_opt closures key with
       | None -> acc
       | Some ds ->
         ( key,
           { sm_closure = d_str (String.concat "|" (List.sort compare !ds));
             sm_params = List.sort compare !ps } )
         :: acc)
    params []
  |> List.sort compare

(* Walk the persisted summary tier against this run's closure digests:
   an entry whose digest still matches is a validated reuse (hit); a
   mismatched or orphaned one is stale (invalidated, dropped). Fresh
   entries are then written. The entries are bookkeeping for the
   dirty-set closure — they are never injected into a traversal, which
   would perturb witness discovery order. *)
let refresh_summaries s (c : Core.Taj.completed) =
  let fresh = summary_entries c in
  let stale = Store.bindings s.st ~tier:"summary" in
  List.iter
    (fun (key, payload) ->
       match
         ( (decode payload : summary_entry option),
           List.assoc_opt key fresh )
       with
       | Some old, Some now when String.equal old.sm_closure now.sm_closure ->
         hit "summary"
       | _ ->
         invalidated "summary";
         Store.remove s.st ~tier:"summary" ~key)
    stale;
  List.iter (fun (key, e) -> fill s ~tier:"summary" ~key e) fresh

(* ------------------------------------------------------------------ *)
(* Result tier                                                        *)
(* ------------------------------------------------------------------ *)

type cached_result = { cr_report : string; cr_issues : int; cr_flows : int }

(* cache_dir is where the store lives, not what the analysis computes;
   zero it so moving a cache directory does not cold-start it *)
let config_key (config : Core.Config.t) =
  { config with Core.Config.cache_dir = None }

let result_key ~rules ~config (input : Core.Taj.input) =
  d_val
    ( "raw",
      List.map d_str input.Core.Taj.app_sources,
      input.Core.Taj.descriptor,
      config_key config,
      rules )

(* The semantic result key: parsed-unit AST digests instead of source
   digests, so edits the parser discards (comments, whitespace) map to
   the same entry. Only defined once the session's frontend hook has run,
   and only for a load that skipped nothing — a skipped unit means the
   AST digests under-describe the input. *)
let ast_result_key ~rules ~config ~(loaded : Core.Taj.loaded) s =
  match s.front_key with
  | Some fk when loaded.Core.Taj.skipped_units = [] ->
    Some (d_val ("ast", fk, config_key config, rules))
  | _ -> None

let lookup_result s ~key = (lookup s ~tier:"result" ~key : cached_result option)

let commit ?(results = []) ?analysis s =
  (match analysis with
   | Some c -> refresh_summaries s c
   | None -> ());
  List.iter (fun (key, cr) -> fill s ~tier:"result" ~key cr) results;
  ignore
    (Telemetry.phase "phase.cache"
       ~args:[ ("op", "save"); ("app", s.app) ]
       (fun () -> Store.save s.st))

(* ------------------------------------------------------------------ *)
(* Cached supervised analysis                                         *)
(* ------------------------------------------------------------------ *)

let render_report builder report =
  Format.asprintf "%a" (Core.Report.pp builder) report

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

let supervised ?loaded ~session ~diags ~rules ~options ~config
    ~(result_keys : string list) (input : Core.Taj.input) : outcome =
  let sv = Core.Supervisor.run ~rules ~options ~config ?loaded input in
  let completed =
    match sv.Core.Supervisor.sv_analysis with
    | Some { Core.Taj.result = Core.Taj.Completed c; _ } -> Some c
    | _ -> None
  in
  let rendered, issues, flows, partial =
    match completed with
    | Some c ->
      ( render_report c.Core.Taj.builder c.Core.Taj.report,
        Core.Report.issue_count c.Core.Taj.report,
        Core.Report.flow_count c.Core.Taj.report,
        Core.Report.is_partial c.Core.Taj.report )
    | None -> ("", 0, 0, true)
  in
  let clean = (not partial) && sv.Core.Supervisor.sv_diagnostics = [] in
  (match session with
   | Some s ->
     let results =
       match completed with
       | Some _ when clean ->
         let cr =
           { cr_report = rendered; cr_issues = issues; cr_flows = flows }
         in
         List.map (fun k -> (k, cr)) result_keys
       | _ -> []
     in
     let analysis = if clean then completed else None in
     commit ~results ?analysis s
   | None -> ());
  { i_report = rendered; i_issues = issues; i_flows = flows;
    i_partial = partial; i_from_cache = false; i_supervisor = Some sv;
    i_diags = diags }

let analyze ?cache ?(rules = Core.Rules.default_rules)
    ?(options = Core.Supervisor.default_options)
    ?(config = Core.Config.preset Core.Config.Hybrid_unbounded)
    (input : Core.Taj.input) : outcome =
  match Option.map (fun t -> start t ~app:input.Core.Taj.name) cache with
  | None ->
    supervised ~session:None ~diags:[] ~rules ~options ~config
      ~result_keys:[] input
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
           Core.Taj.load ~lenient:true ~jobs:options.Core.Supervisor.jobs
             ~cache:options.Core.Supervisor.cache input
         with
         | l -> Some l
         | exception _ ->
           (* let the supervisor reproduce and record the failure *)
           None
       in
       let ast_key =
         Option.bind loaded (fun l ->
           ast_result_key ~rules ~config ~loaded:l s)
       in
       match Option.map (fun key -> (key, lookup_result s ~key)) ast_key with
       | Some (_, Some cr) ->
         (* persist the freshly parsed units before answering, so the next
            run with these exact sources hits the raw key outright *)
         commit ~results:[ (raw_key, cr) ] s;
         from_cache ~diags cr
       | Some (key, None) ->
         supervised ?loaded ~session:(Some s) ~diags ~rules ~options
           ~config ~result_keys:[ raw_key; key ] input
       | None ->
         supervised ?loaded ~session:(Some s) ~diags ~rules ~options
           ~config ~result_keys:[ raw_key ] input)
