(** The benchmark's own span recorder for traced runs: one span per call
    into a layer, timed from outside the library. Spans stay in memory
    until the run ends; self times (a span's duration minus the part its
    children cover) are computed from them. Single-domain only. *)

type span = {
  id : int;
  name : string;
  op : int;                 (** the op this span belongs to *)
  parent : int;             (** -1 for an op's root span *)
  start : float;
  stop : float;
  alloc : float;            (** words allocated inside the span *)
}

type t = {
  mutable spans : span list;        (* newest first *)
  mutable next_id : int;
  mutable stack : int list;         (* open spans, innermost first *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = 0 }

(** Run [f] under a span named [name], nested in the innermost open one. *)
let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Stats.words () in
  let start = Stats.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Stats.now () in
      let alloc = Stats.words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; op = t.op; parent; start; stop; alloc } :: t.spans)
    f

(** Run [f] as op [op]'s root span. *)
let with_op t op f =
  t.op <- op;
  with_span t "op" f

let duration s = s.stop -. s.start

(** Per span name: (self seconds, self words) summed over all spans. *)
let self_times t =
  let child_time = Hashtbl.create 256 and child_alloc = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then begin
         let add tbl v =
           Hashtbl.replace tbl s.parent
             (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
         in
         add child_time (duration s);
         add child_alloc s.alloc
       end)
    t.spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
       let st, sa =
         Option.value ~default:(0., 0.) (Hashtbl.find_opt totals s.name)
       in
       Hashtbl.replace totals s.name
         ( st +. duration s -. get child_time,
           sa +. s.alloc -. get child_alloc ))
    t.spans;
  fun name -> Option.value ~default:(0., 0.) (Hashtbl.find_opt totals name)

(** Total duration of the spans named [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. t.spans

(** Write every span as one JSON object per line, oldest first. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
    List.iter
      (fun s ->
         Printf.fprintf oc
           "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\
            \"end\":%.6f,\"alloc_words\":%.0f}\n"
           s.id s.name s.op s.parent s.start s.stop s.alloc)
      (List.rev t.spans))
