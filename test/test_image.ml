(* The model-JDK image (Models.Jdklib.image). A load that starts from a
   copy of it must build exactly the program a load that declares and
   defines the JDK itself builds: the same class, method and site table
   contents in the same iteration order, which is what keeps site ids,
   method visits and clinit order — and so every report — unchanged. The
   application's part of a program ({!Program.delta}) must re-link to the
   image losslessly, no analysis may write to the image, and domains
   racing on its first use must share one. *)

open Core
open Jir

let scale = 0.02

let apps = Workloads.Apps.table2 @ Workloads.Apps.contexts_apps

let input_of (app : Workloads.Apps.app) =
  Workloads.Codegen.to_input (Workloads.Apps.generate ~scale app)

(* What a consumer of a program can observe of its tables: every binding
   in iteration order, plus the scalar fields. *)
type snapshot = {
  classes : Classtable.cls list;
  methods : Tac.meth list;
  sites : Program.site_info list;
  next_site : int;
  entrypoints : string list;
  clinits : string list;
}

let snapshot (p : Program.t) =
  let classes = ref [] in
  Classtable.iter p.Program.table (fun c -> classes := c :: !classes);
  let in_order tbl = List.rev (Hashtbl.fold (fun _ v acc -> v :: acc) tbl []) in
  { classes = List.rev !classes;
    methods = in_order p.Program.methods;
    sites = in_order p.Program.sites;
    next_site = p.Program.next_site;
    entrypoints = p.Program.entrypoints;
    clinits = p.Program.clinits }

let check_same ~what a b =
  let names s = List.map (fun c -> c.Classtable.cl_name) s.classes in
  let ids s = List.map Tac.method_id s.methods in
  let sites s = List.map (fun si -> si.Program.si_id) s.sites in
  Alcotest.(check (list string)) (what ^ ": class order") (names a) (names b);
  Alcotest.(check (list string)) (what ^ ": method order") (ids a) (ids b);
  Alcotest.(check (list int)) (what ^ ": site order") (sites a) (sites b);
  Alcotest.(check (list string)) (what ^ ": clinits") a.clinits b.clinits;
  Alcotest.(check (list string))
    (what ^ ": entrypoints") a.entrypoints b.entrypoints;
  Alcotest.(check int) (what ^ ": next site") a.next_site b.next_site;
  Alcotest.(check bool) (what ^ ": contents") true (a = b)

(* The load as it was before the image: one fresh program, the JDK
   declared and defined first, SSA over every method, then the rewrites. *)
let reference_load (input : Taj.input) =
  let prog = Program.create () in
  let jdk = Models.Jdklib.units () in
  let app = List.map Parser.parse input.Taj.app_sources in
  let descriptor = Models.Frameworks.parse_descriptor input.Taj.descriptor in
  List.iter (Lower.declare prog ~library:true) jdk;
  List.iter (Lower.declare prog ~library:false) app;
  let synth =
    [ Parser.parse
        (Models.Frameworks.synthesize
           ~cast_constraints:(Models.Frameworks.form_cast_constraints app)
           prog.Program.table descriptor) ]
  in
  List.iter (Lower.declare prog ~library:false) synth;
  List.iter (Lower.define prog ~library:true) jdk;
  List.iter (Lower.define prog ~library:false) app;
  List.iter (Lower.define prog ~library:false) synth;
  Program.add_entrypoint prog Models.Frameworks.entry_method;
  Ssa.convert_program prog;
  let stats =
    Models.Reflection.rewrite_program
      ~ejb_registry:(Models.Frameworks.ejb_registry descriptor) prog
  in
  let synthesized = Models.Exceptions.rewrite_program prog in
  (prog, stats, synthesized)

let test_matches_reference () =
  List.iter
    (fun (app : Workloads.Apps.app) ->
       let what = app.Workloads.Apps.name in
       let input = input_of app in
       let loaded = Taj.load input in
       let prog, stats, synthesized = reference_load input in
       check_same ~what (snapshot prog) (snapshot loaded.Taj.program);
       Alcotest.(check bool) (what ^ ": reflection stats") true
         (stats = loaded.Taj.reflection_stats);
       Alcotest.(check int) (what ^ ": synthesized sources") synthesized
         loaded.Taj.synthesized_sources)
    apps

(* through Marshal, as the front cache tier stores it *)
let test_delta_round_trip () =
  let base = Models.Jdklib.image () in
  List.iter
    (fun (app : Workloads.Apps.app) ->
       let p = (Taj.load (input_of app)).Taj.program in
       let d : Program.delta =
         Marshal.from_string
           (Marshal.to_string (Program.delta ~base p) [])
           0
       in
       check_same ~what:app.Workloads.Apps.name (snapshot p)
         (snapshot (Program.extend ~base d)))
    apps

let image_digest () =
  Digest.to_hex
    (Digest.string (Marshal.to_string (snapshot (Models.Jdklib.image ())) []))

let test_unchanged_by_analysis () =
  let image = Models.Jdklib.image () in
  let before = image_digest () in
  let config =
    { (Config.preset Config.Hybrid_unbounded) with
      Config.refine = true; contexts = true }
  in
  List.iter
    (fun (app : Workloads.Apps.app) ->
       let loaded = Taj.load (input_of app) in
       match (Taj.run loaded config).Taj.result with
       | Taj.Completed _ -> ()
       | Taj.Did_not_complete r ->
         Alcotest.failf "%s did not complete: %s" app.Workloads.Apps.name r)
    apps;
  Alcotest.(check bool) "one image per process" true
    (Models.Jdklib.image () == image);
  Alcotest.(check string) "image digest" before (image_digest ())

(* A fresh publish-once cell stands in for the process's first use; a
   slow first computation holds the race window open. Both domains also
   load the same app concurrently, copying the process's image while the
   other does. *)
let test_race_on_first_use () =
  let first_use =
    Models.Jdklib.once (fun () ->
      Unix.sleepf 0.02;
      Models.Jdklib.build_image ())
  in
  let app = Option.get (Workloads.Apps.find "Friki") in
  let input = input_of app in
  let loaded = (Taj.load input).Taj.program in
  let d = Program.delta ~base:(Models.Jdklib.image ()) loaded in
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    let image = first_use () in
    (image, Program.extend ~base:image d, (Taj.load input).Taj.program)
  in
  let d1 = Domain.spawn go and d2 = Domain.spawn go in
  let i1, e1, l1 = Domain.join d1 and i2, e2, l2 = Domain.join d2 in
  Alcotest.(check bool) "one image" true (i1 == i2);
  check_same ~what:"fresh image" (snapshot (Models.Jdklib.image ()))
    (snapshot i1);
  List.iter
    (fun (what, p) -> check_same ~what (snapshot loaded) (snapshot p))
    [ ("extended, domain 1", e1); ("extended, domain 2", e2);
      ("loaded, domain 1", l1); ("loaded, domain 2", l2) ]

let suite =
  [ Alcotest.test_case "load matches a JDK-first build" `Quick
      test_matches_reference;
    Alcotest.test_case "delta round trip" `Quick test_delta_round_trip;
    Alcotest.test_case "unchanged by analysis" `Quick
      test_unchanged_by_analysis;
    Alcotest.test_case "race on first use" `Quick test_race_on_first_use ]
