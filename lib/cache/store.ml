let version = 4

(* The compiler version salts the header because entry payloads are
   Marshal streams, which are only stable within one compiler version. *)
let header = Printf.sprintf "taj-cache %d ocaml %s" version Sys.ocaml_version

type t = {
  path : string;
  entries : (string * string, string) Hashtbl.t;
  mutex : Mutex.t;
  mutable corruption : string option;
  mutable bytes : int;   (* key plus payload lengths over [entries] *)
}

let path t = t.path
let corruption t = t.corruption

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let fresh ?corruption path =
  { path; entries = Hashtbl.create 64; mutex = Mutex.create (); corruption;
    bytes = 0 }

(* [bytes] bookkeeping; callers hold [t.mutex] *)
let entry_bytes (_, key) payload = String.length key + String.length payload

let drop t k =
  match Hashtbl.find_opt t.entries k with
  | Some old ->
    t.bytes <- t.bytes - entry_bytes k old;
    Hashtbl.remove t.entries k
  | None -> ()

let add t k payload =
  drop t k;
  Hashtbl.add t.entries k payload;
  t.bytes <- t.bytes + entry_bytes k payload

(* Checksummed framing means a payload that decodes is byte-for-byte what
   an earlier run wrote, and the version header pins the encoding — so
   Marshal here only ever sees its own output. A decode failure anyway
   degrades to corruption, never an escape. *)
let decode_entry payload : (string * string) * string =
  try (Marshal.from_string payload 0 : (string * string) * string)
  with _ -> raise (Frame.Corrupt "undecodable entry")

let load path =
  match
    Core.Fault.tick Core.Fault.site_cache_read;
    Core.Io.read_file path
  with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> fresh path
  | exception e -> fresh ~corruption:(Printexc.to_string e) path
  | data ->
    (match Frame.read_all data with
     | exception Frame.Corrupt reason -> fresh ~corruption:reason path
     | [] -> fresh ~corruption:"empty store (missing header)" path
     | hd :: entries ->
       if not (String.equal hd header) then
         fresh
           ~corruption:
             (Printf.sprintf "header mismatch (got %S, want %S)" hd header)
           path
       else begin
         let t = fresh path in
         (try
            List.iter
              (fun payload ->
                 let k, v = decode_entry payload in
                 add t k v)
              entries
          with Frame.Corrupt reason ->
            Hashtbl.reset t.entries;
            t.bytes <- 0;
            t.corruption <- Some reason);
         t
       end)

let save t =
  let entries =
    locked t (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.entries [])
  in
  let buf = Buffer.create 65536 in
  Frame.add buf header;
  List.iter
    (fun entry -> Frame.add buf (Marshal.to_string entry []))
    (List.sort compare entries);
  match
    Core.Fault.tick Core.Fault.site_cache_write;
    Core.Io.write_file t.path (Buffer.contents buf)
  with
  | () ->
    t.corruption <- None;
    true
  | exception _ -> false

let find t ~tier ~key =
  locked t (fun () -> Hashtbl.find_opt t.entries (tier, key))

let put t ~tier ~key payload = locked t (fun () -> add t (tier, key) payload)

let remove t ~tier ~key = locked t (fun () -> drop t (tier, key))

let bindings t ~tier =
  locked t (fun () ->
    Hashtbl.fold
      (fun (tr, k) v acc -> if String.equal tr tier then (k, v) :: acc else acc)
      t.entries [])
  |> List.sort compare

let entry_count t = locked t (fun () -> Hashtbl.length t.entries)

let bytes t = locked t (fun () -> t.bytes)
