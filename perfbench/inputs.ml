(** Seeded workload inputs. The benchmark draws everything from the seed
    it is given; the analysis only ever sees the generated inputs. *)

open Workloads

type app = {
  a_name : string;
  a_input : Core.Taj.input;
  a_truth : Ground_truth.t;
}

let shuffle rng (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let of_generated name (g : Codegen.generated) =
  { a_name = name; a_input = Codegen.to_input g; a_truth = g.Codegen.g_truth }

(** The CLI's default scale. *)
let scale = 0.05

(** The 22 Table-2 apps at the CLI default scale, in seeded order. *)
let table2 ~seed =
  let apps = Array.of_list Apps.table2 in
  shuffle (Rng.create seed) apps;
  Array.map
    (fun (a : Apps.app) -> of_generated a.Apps.name (Apps.generate ~scale a))
    apps

let mismatch_kinds =
  [ "mismatch-html-sql"; "mismatch-quote-raw"; "mismatch-path" ]

(* Pattern counts per taint-dense app: the midpoints of [count] equal
   strata of [150, 400], in seeded order, so every seed has the same
   size spread and only the pattern mixes differ. *)
let dense_sizes rng ~count =
  let sizes =
    Array.init count (fun i -> 150 + (250 * ((2 * i) + 1)) / (2 * count))
  in
  shuffle rng sizes;
  sizes

(** [count] seeded taint-dense apps: a seeded catalog mix of 150–400
    patterns plus one of each mismatched-sanitizer kind, and the
    smallest cold mass the generator makes. *)
let dense ~seed ~count =
  let rng = Rng.create seed in
  Array.mapi
    (fun i n ->
       let mix = Codegen.draw_mix ~rng ~n in
       let mix =
         List.sort compare
           (mix @ List.map (fun k -> (k, 1)) mismatch_kinds)
       in
       let name = Printf.sprintf "Dense%d_%d" seed i in
       of_generated name
         (Codegen.generate
            { Codegen.sp_name = name; sp_patterns = mix;
              sp_cold_classes = 1; sp_cold_chain = 2 }))
    (dense_sizes rng ~count)

(* ------------------------------------------------------------------ *)
(* serve_cached request stream                                        *)
(* ------------------------------------------------------------------ *)

type request =
  | Named of { app : string; scale : float }
  | Inline of { id : string; source : string; descriptor : string }

(** The result-tier key a request is cached under. *)
let key = function
  | Named { app; scale } -> Printf.sprintf "%s@%g" app scale
  | Inline { id; _ } -> id

(* The scale each named app moves up to at a seeded point of the stream;
   the base scale is pre-filled during set-up. *)
let next_scale = 0.06

let base_requests () =
  List.map (fun (a : Apps.app) -> Named { app = a.Apps.name; scale })
    Apps.table2

(* One inline compilation unit holding 1–3 catalog patterns. *)
let inline_unit rng ~id =
  let g =
    Codegen.generate
      { Codegen.sp_name = id;
        sp_patterns = Codegen.draw_mix ~rng ~n:(Rng.range rng 1 3);
        sp_cold_classes = 0; sp_cold_chain = 0 }
  in
  Inline
    { id; source = String.concat "\n" g.Codegen.g_sources;
      descriptor = g.Codegen.g_descriptor }

(** The timed request stream: [count] requests, [inline_pct]% one-off
    inline units and the rest named-app requests for a seeded app. Each
    app moves from [scale] to [next_scale] once, the apps in seeded order
    at evenly spaced points of the stream: an app's first named request
    from its point on misses the result tier (the AST and def/use tiers
    hit, the app's store is rewritten), and every other named request
    repeats a key the pre-fill or an earlier request asked for. *)
let serve_stream ~seed ~count ~inline_pct =
  let rng = Rng.create seed in
  let apps =
    Array.of_list (List.map (fun (a : Apps.app) -> a.Apps.name) Apps.table2)
  in
  let napps = Array.length apps in
  let order = Array.init napps Fun.id in
  shuffle rng order;
  let step_at = Array.make napps 0 in
  Array.iteri
    (fun j i -> step_at.(i) <- (2 * j + 1) * count / (2 * napps))
    order;
  Array.init count (fun k ->
    if Rng.int rng 100 < inline_pct then
      inline_unit rng ~id:(Printf.sprintf "inline-%d-%d" seed k)
    else
      let i = Rng.int rng napps in
      Named
        { app = apps.(i);
          scale = (if k >= step_at.(i) then next_scale else scale) })
