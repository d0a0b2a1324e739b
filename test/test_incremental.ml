(* The incremental cache (lib/cache): metamorphic cache-equivalence over
   the Table 2 suite, corruption chaos, and what the store holds.

   The contract under test is absolute: a cached run must be
   byte-identical to the equivalent uncached run — cold (filling the
   cache), warm (result-tier hit), after a comment-only edit (semantic
   result hit through the AST digests), and after a real edit (partial
   tier reuse) — at jobs=1 and jobs=4. A corrupted store may only ever
   cost warmth: cold fallback plus a [Cache_corrupt] diagnostic, never a
   crash, never a different report. *)

open Core

let scale = 0.02

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taj-cache-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun e -> rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let input_of ?(name_suffix = "") app_name =
  let app = Option.get (Workloads.Apps.find app_name) in
  let g = Workloads.Apps.generate ~scale app in
  let input = Workloads.Codegen.to_input g in
  { input with Taj.name = input.Taj.name ^ name_suffix }

let edit_unit ~f (input : Taj.input) =
  match input.Taj.app_sources with
  | first :: rest -> { input with Taj.app_sources = f first :: rest }
  | [] -> assert false

(* a line the lexer discards: changes the source digest, not the AST *)
let comment_edit = edit_unit ~f:(fun src -> src ^ "\n// cache probe\n")

(* new unreachable code: a different program, analyzed from the tiers *)
let semantic_edit =
  edit_unit ~f:(fun src ->
    src ^ "\nclass CacheProbeOrphan { int probe(int x) { return x; } }\n")

let run ?cache ?(jobs = 1) input =
  let options = { Supervisor.default_options with jobs } in
  Cache.Incr.analyze ?cache ~options input

let check_report ~what ~reference (o : Cache.Incr.outcome) =
  Alcotest.(check bool) (what ^ ": completed") false o.Cache.Incr.i_partial;
  if not (String.equal reference o.Cache.Incr.i_report) then
    Alcotest.failf "%s: report differs from reference" what

(* ------------------------------------------------------------------ *)
(* Metamorphic equivalence, all 22 applications                       *)
(* ------------------------------------------------------------------ *)

let check_app app_name =
  let input = input_of app_name in
  let reference = run input in
  Alcotest.(check bool)
    "reference completed" false reference.Cache.Incr.i_partial;
  let reference = reference.Cache.Incr.i_report in
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  let cold = run ~cache input in
  Alcotest.(check bool) "cold misses" false cold.Cache.Incr.i_from_cache;
  check_report ~what:"cold" ~reference cold;
  let warm = run ~cache input in
  Alcotest.(check bool) "warm hits" true warm.Cache.Incr.i_from_cache;
  check_report ~what:"warm" ~reference warm;
  (* a comment-only edit reparses one unit, then the AST digests prove
     the analysis input unchanged: full result reuse *)
  let commented = run ~cache (comment_edit input) in
  Alcotest.(check bool)
    "comment edit hits" true commented.Cache.Incr.i_from_cache;
  check_report ~what:"comment edit" ~reference commented;
  (* a real edit re-analyzes through the content-keyed tiers and must
     match an uncached analysis of the edited program exactly *)
  let edited = semantic_edit input in
  let edited_reference = run edited in
  check_report
    ~what:"semantic reference"
    ~reference:edited_reference.Cache.Incr.i_report edited_reference;
  let edited_warm = run ~cache edited in
  Alcotest.(check bool)
    "semantic edit re-analyzes" false edited_warm.Cache.Incr.i_from_cache;
  check_report
    ~what:"semantic edit" ~reference:edited_reference.Cache.Incr.i_report
    edited_warm;
  (* cross-jobs: a cache filled at jobs=4 must serve jobs=1 untouched *)
  with_dir @@ fun dir4 ->
  let cache4 = Cache.Incr.create ~dir:dir4 in
  let cold4 = run ~cache:cache4 ~jobs:4 input in
  Alcotest.(check bool) "jobs=4 cold misses" false cold4.Cache.Incr.i_from_cache;
  check_report ~what:"jobs=4 cold" ~reference cold4;
  let warm1 = run ~cache:cache4 ~jobs:1 input in
  Alcotest.(check bool) "jobs=1 warm hits" true warm1.Cache.Incr.i_from_cache;
  check_report ~what:"jobs=1 on jobs=4 cache" ~reference warm1

let test_equivalence_suite () =
  List.iter
    (fun (a : Workloads.Apps.app) -> check_app a.Workloads.Apps.name)
    Workloads.Apps.table2

(* ------------------------------------------------------------------ *)
(* Store persistence                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "app.tajcache" in
  let s = Cache.Store.load path in
  Alcotest.(check (option string)) "missing file is cold, not corrupt"
    None (Cache.Store.corruption s);
  Cache.Store.put s ~tier:"ast" ~key:"k1" "payload one";
  Cache.Store.put s ~tier:"result" ~key:"k2" (String.make 100_000 'x');
  Alcotest.(check bool) "save succeeds" true (Cache.Store.save s);
  let s' = Cache.Store.load path in
  Alcotest.(check (option string)) "reload is clean"
    None (Cache.Store.corruption s');
  Alcotest.(check int) "entries survive" 2 (Cache.Store.entry_count s');
  Alcotest.(check (option string)) "payload intact"
    (Some "payload one")
    (Cache.Store.find s' ~tier:"ast" ~key:"k1")

let test_frame_detects_damage () =
  let buf = Buffer.create 64 in
  Cache.Frame.add buf "hello";
  Cache.Frame.add buf "world";
  let data = Buffer.contents buf in
  Alcotest.(check (list string)) "roundtrip" [ "hello"; "world" ]
    (Cache.Frame.read_all data);
  let truncated = String.sub data 0 (String.length data - 3) in
  Alcotest.check_raises "truncation detected"
    (Cache.Frame.Corrupt "truncated frame payload") (fun () ->
      ignore (Cache.Frame.read_all truncated));
  let flipped = Bytes.of_string data in
  Bytes.set flipped
    (String.length data - 1)
    (Char.chr (Char.code (Bytes.get flipped (String.length data - 1)) lxor 1));
  Alcotest.check_raises "bit flip detected"
    (Cache.Frame.Corrupt "frame checksum mismatch") (fun () ->
      ignore (Cache.Frame.read_all (Bytes.to_string flipped)))

(* ------------------------------------------------------------------ *)
(* Corruption chaos: damaged stores degrade to cold, never to wrong   *)
(* ------------------------------------------------------------------ *)

let store_file dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".tajcache")
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one store file, got %d" (List.length files)

let damage_then_check ~what ~damage () =
  let input = input_of ~name_suffix:("-" ^ what) "Friki" in
  let reference = (run input).Cache.Incr.i_report in
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  let cold = run ~cache input in
  check_report ~what:(what ^ ": cold") ~reference cold;
  damage (store_file dir);
  (* a fresh handle, as after a restart: the damaged file is discovered,
     discarded, and reported; the analysis itself is untouched *)
  let cache' = Cache.Incr.create ~dir in
  let o = run ~cache:cache' input in
  Alcotest.(check bool) (what ^ ": falls back to cold") false
    o.Cache.Incr.i_from_cache;
  check_report ~what:(what ^ ": after damage") ~reference o;
  (match o.Cache.Incr.i_diags with
   | [ Diagnostics.Cache_corrupt _ ] -> ()
   | ds ->
     Alcotest.failf "%s: expected one Cache_corrupt diagnostic, got %d"
       what (List.length ds));
  (* the fallback run rewrote the store: warmth is restored *)
  let again = run ~cache:cache' input in
  Alcotest.(check bool) (what ^ ": store heals") true
    again.Cache.Incr.i_from_cache;
  Alcotest.(check (list Alcotest.reject)) (what ^ ": no further diagnostics")
    [] again.Cache.Incr.i_diags;
  check_report ~what:(what ^ ": healed") ~reference again

let truncate_file path =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd

let bitflip_file path =
  let data = Bytes.of_string (Io.read_file path) in
  let i = Bytes.length data / 2 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x40));
  Io.write_file path (Bytes.to_string data)

let version_bump_file path =
  (* reframe the whole file under a future header: every frame checksum
     is valid, only the version disagrees *)
  let frames = Cache.Frame.read_all (Io.read_file path) in
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i frame ->
       Cache.Frame.add buf
         (if i = 0 then "taj-cache 999 ocaml 9.99.9" else frame))
    frames;
  Io.write_file path (Buffer.contents buf)

let test_truncated_store () =
  damage_then_check ~what:"truncate" ~damage:truncate_file ()

let test_bitflipped_store () =
  damage_then_check ~what:"bitflip" ~damage:bitflip_file ()

let test_version_bumped_store () =
  damage_then_check ~what:"version" ~damage:version_bump_file ()

let test_read_fault_falls_back_cold () =
  let input = input_of ~name_suffix:"-rdfault" "Friki" in
  let reference = (run input).Cache.Incr.i_report in
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  check_report ~what:"pre-fault cold" ~reference (run ~cache input);
  Fault.arm Fault.site_cache_read ~after:1;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let cache' = Cache.Incr.create ~dir in
  let o = run ~cache:cache' input in
  Alcotest.(check bool) "read fault means cold" false
    o.Cache.Incr.i_from_cache;
  check_report ~what:"read fault" ~reference o;
  (match o.Cache.Incr.i_diags with
   | [ Diagnostics.Cache_corrupt _ ] -> ()
   | _ -> Alcotest.fail "read fault: expected a Cache_corrupt diagnostic")

let test_write_fault_only_costs_warmth () =
  let input = input_of ~name_suffix:"-wrfault" "Friki" in
  let reference = (run input).Cache.Incr.i_report in
  with_dir @@ fun dir ->
  Fault.arm Fault.site_cache_write ~after:1 ~once:false;
  (Fun.protect ~finally:Fault.reset @@ fun () ->
   let cache = Cache.Incr.create ~dir in
   check_report ~what:"unpersisted cold" ~reference (run ~cache input);
   Alcotest.(check bool) "nothing was persisted" true
     (Sys.readdir dir = [||]));
  (* with the fault gone, the same directory warms up normally *)
  let cache = Cache.Incr.create ~dir in
  check_report ~what:"post-fault cold" ~reference (run ~cache input);
  let warm = run ~cache input in
  Alcotest.(check bool) "post-fault warm" true warm.Cache.Incr.i_from_cache

(* ------------------------------------------------------------------ *)
(* A callee edit re-analyzes; a clean run stores its report once      *)
(* ------------------------------------------------------------------ *)

let closure_unit ~c_body =
  Printf.sprintf
    {|class Chain {
        static String top(String s) { return Chain.mid(s); }
        static String mid(String s) { return Chain.deep(s); }
        static String deep(String s) { %s }
      }
      class Sibling {
        static String pass(String s) { return s; }
      }
      class ClosureServlet extends HttpServlet {
        public void doGet(HttpServletRequest req, HttpServletResponse resp) {
          String x = req.getParameter("q");
          resp.getWriter().println(Chain.top(x));
          resp.getWriter().println(Sibling.pass(x));
        }
      }|}
    c_body

let closure_input ~c_body =
  { Taj.name = "closure"; app_sources = [ closure_unit ~c_body ];
    descriptor = "" }

let counter_value name =
  match Obs.Telemetry.find_value name with
  | Some (Obs.Telemetry.V_counter n) -> n
  | _ -> 0

let test_callee_edit () =
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  let cold = run ~cache (closure_input ~c_body:"return s;") in
  Alcotest.(check bool) "closure cold completed" false
    cold.Cache.Incr.i_partial;
  Alcotest.(check int) "closure cold found the two flows" 2
    cold.Cache.Incr.i_issues;
  (* edit the deepest callee, which Chain.mid and Chain.top reach *)
  let edited =
    run ~cache (closure_input ~c_body:"String t = s; return t;")
  in
  Alcotest.(check bool) "closure edit re-analyzes" false
    edited.Cache.Incr.i_from_cache;
  Alcotest.(check int) "closure edit keeps both flows" 2
    edited.Cache.Incr.i_issues

(* Every frame after the store's header is one marshaled
   [((tier, key), payload)] entry; count the payloads, over all tiers,
   that hold [report]. *)
let report_copies dir report =
  match Cache.Frame.read_all (Io.read_file (store_file dir)) with
  | [] -> Alcotest.fail "store has no header"
  | _header :: entries ->
    List.length
      (List.filter
         (fun frame ->
            let ((_, payload) : (string * string) * string) =
              Marshal.from_string frame 0
            in
            Test_telemetry.contains ~needle:report payload)
         entries)

(* A clean run names its report by a raw and an AST key, and a
   comment-edit hit adds the edited input's raw key; the store still
   holds the report once. *)
let test_report_stored_once () =
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  let input = closure_input ~c_body:"return s;" in
  let cold = run ~cache input in
  Alcotest.(check bool) "clean cold run" false cold.Cache.Incr.i_partial;
  let report = cold.Cache.Incr.i_report in
  Alcotest.(check int) "cold run: one report payload" 1
    (report_copies dir report);
  let commented = run ~cache (comment_edit input) in
  Alcotest.(check bool) "comment edit hits" true
    commented.Cache.Incr.i_from_cache;
  Alcotest.(check int) "after the comment-edit hit: still one" 1
    (report_copies dir report)

(* ------------------------------------------------------------------ *)
(* Front-tier hits: re-linked to the image, then analyzed             *)
(* ------------------------------------------------------------------ *)

(* A hybrid run fills the front tier. A CI run over the same cache
   misses the result tier (another configuration) but takes its program
   from the front entry, re-linked to the model-JDK image, and must
   report exactly what an uncached CI run does. *)
let test_front_hit_analyzed () =
  let ci = Config.preset Config.Ci_thin_slicing in
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
  @@ fun () ->
  List.iter
    (fun (app : Workloads.Apps.app) ->
       let what = app.Workloads.Apps.name ^ ": CI over a hybrid cache" in
       let input = input_of app.Workloads.Apps.name in
       let reference = Cache.Incr.analyze ~config:ci input in
       Alcotest.(check bool) (what ^ ": reference completed") false
         reference.Cache.Incr.i_partial;
       with_dir @@ fun dir ->
       let cache = Cache.Incr.create ~dir in
       ignore (run ~cache input);
       Obs.Telemetry.reset ();
       let o = Cache.Incr.analyze ~cache ~config:ci input in
       Alcotest.(check bool) (what ^ ": analyzed") false
         o.Cache.Incr.i_from_cache;
       Alcotest.(check int) (what ^ ": front hit") 1
         (counter_value "cache.front.hit");
       check_report ~what ~reference:reference.Cache.Incr.i_report o)
    (Workloads.Apps.table2 @ Workloads.Apps.contexts_apps)

(* The front entry of a one-unit app holds the application's part only:
   no library class or method, no site the image numbered. *)
let test_front_entry_app_only () =
  with_dir @@ fun dir ->
  let cache = Cache.Incr.create ~dir in
  ignore (run ~cache (closure_input ~c_body:"return s;"));
  let image = Models.Jdklib.image () in
  let store = Cache.Store.load (store_file dir) in
  match Cache.Store.bindings store ~tier:"front" with
  | [ (_, payload) ] ->
    let (d, _, _) : Jir.Program.delta * Models.Reflection.stats * int =
      Marshal.from_string payload 0
    in
    Alcotest.(check bool) "holds the app's classes" true
      (d.Jir.Program.d_classes <> []);
    Alcotest.(check bool) "holds the app's methods" true
      (d.Jir.Program.d_methods <> []);
    List.iter
      (fun (c : Jir.Classtable.cls) ->
         Alcotest.(check bool) ("not library: " ^ c.Jir.Classtable.cl_name)
           false
           (c.Jir.Classtable.cl_library
            || Jir.Classtable.mem image.Jir.Program.table
                 c.Jir.Classtable.cl_name))
      d.Jir.Program.d_classes;
    List.iter
      (fun (m : Jir.Tac.meth) ->
         Alcotest.(check bool) ("not library: " ^ Jir.Tac.method_id m) false
           (m.Jir.Tac.m_library
            || Jir.Program.mem_method image (Jir.Tac.method_id m)))
      d.Jir.Program.d_methods;
    List.iter
      (fun (si : Jir.Program.site_info) ->
         if si.Jir.Program.si_id < image.Jir.Program.next_site then
           Alcotest.failf "site %d was numbered by the image"
             si.Jir.Program.si_id)
      d.Jir.Program.d_sites
  | l -> Alcotest.failf "expected one front entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Def/use summary round-trip through the builder hooks               *)
(* ------------------------------------------------------------------ *)

let test_defuse_roundtrip () =
  let input = input_of ~name_suffix:"-defuse" "ST" in
  let loaded = Taj.load input in
  let config = Config.preset Config.Hybrid_unbounded in
  let report_of analysis =
    match analysis.Taj.result with
    | Taj.Completed c -> Cache.Incr.render_report c.Taj.builder c.Taj.report
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
  in
  let baseline = report_of (Taj.run loaded config) in
  (* first cached run records every summary; the second run is forced to
     materialize all of them instead of building its own indexes *)
  let tbl = Hashtbl.create 64 in
  let key (m : Jir.Tac.meth) = Digest.string (Marshal.to_string m []) in
  let recording =
    { Sdg.Builder.dc_lookup = (fun _ -> None);
      dc_store = (fun m sum -> Hashtbl.replace tbl (key m) sum) }
  in
  let replaying =
    { Sdg.Builder.dc_lookup = (fun m -> Hashtbl.find_opt tbl (key m));
      dc_store = (fun _ _ -> Alcotest.fail "unexpected summary rebuild") }
  in
  let with_defuse defuse =
    report_of
      (Taj.run
         ~cache:{ Cache_iface.none with Cache_iface.defuse = Some defuse }
         loaded config)
  in
  Alcotest.(check string) "recording run is byte-identical" baseline
    (with_defuse recording);
  Alcotest.(check bool) "summaries were recorded" true
    (Hashtbl.length tbl > 0);
  Alcotest.(check string) "replayed summaries are byte-identical" baseline
    (with_defuse replaying)

let suite =
  [ Alcotest.test_case "frame detects damage" `Quick
      test_frame_detects_damage;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "cache equivalence across Table 2" `Slow
      test_equivalence_suite;
    Alcotest.test_case "truncated store falls back cold" `Quick
      test_truncated_store;
    Alcotest.test_case "bit-flipped store falls back cold" `Quick
      test_bitflipped_store;
    Alcotest.test_case "version-bumped store falls back cold" `Quick
      test_version_bumped_store;
    Alcotest.test_case "cache:read fault falls back cold" `Quick
      test_read_fault_falls_back_cold;
    Alcotest.test_case "cache:write fault only costs warmth" `Quick
      test_write_fault_only_costs_warmth;
    Alcotest.test_case "callee edit re-analyzes" `Quick test_callee_edit;
    Alcotest.test_case "a clean report is stored once" `Quick
      test_report_stored_once;
    Alcotest.test_case "def/use summary replay" `Quick
      test_defuse_roundtrip;
    Alcotest.test_case "front hit analyzed under another config" `Slow
      test_front_hit_analyzed;
    Alcotest.test_case "front entry holds the app only" `Quick
      test_front_entry_app_only ]
