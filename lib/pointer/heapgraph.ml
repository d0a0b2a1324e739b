(** The heap graph (§4.1.1): a bipartite view of the pointer-analysis
    solution over instance keys and pointer keys, supporting the reachability
    queries of the taint-carrier detection algorithm.

    An edge [P → I] means pointer key P may point to instance key I; an edge
    [I → P] means P is a field (or the array contents) of I. Taint-carrier
    detection asks for the set of instance keys reachable from a sink
    argument's points-to set within a bounded number of field dereferences
    (§6.2.3). *)

module Int_set = Set.Make (Int)

type t = {
  (* instance key -> (field, pointed-to instance keys) *)
  fields_of : (int, (Keys.field * Int_set.t) list) Hashtbl.t;
}

(** Materialize the heap graph from a finished pointer analysis. *)
let build (a : Andersen.t) : t =
  Obs.Telemetry.with_span "pointer.heapgraph" @@ fun () ->
  let u = Andersen.universe a in
  let fields_of = Hashtbl.create 1024 in
  for p = 0 to Keys.pk_count u - 1 do
    match Keys.pk_of u p with
    | Keys.Pk_field (ikid, f) ->
      let pointees = Andersen.pts_id a p in
      if not (Int_set.is_empty pointees) then begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt fields_of ikid) in
        Hashtbl.replace fields_of ikid ((f, pointees) :: prev)
      end
    | Keys.Pk_var _ | Keys.Pk_static _ | Keys.Pk_ret _ | Keys.Pk_exn -> ()
  done;
  { fields_of }

let successors t ikid : Int_set.t =
  match Hashtbl.find_opt t.fields_of ikid with
  | Some l ->
    List.fold_left (fun acc (_, s) -> Int_set.union s acc) Int_set.empty l
  | None -> Int_set.empty

(** Instance keys reachable from [roots] through at most [depth] field
    dereferences (inclusive of the roots themselves). [depth = 0] returns
    just the roots; the paper found [depth = 2] sufficient (§6.2.3).
    [depth < 0] means unbounded. *)
let reachable t ~depth (roots : Int_set.t) : Int_set.t =
  let rec go frontier seen d =
    if Int_set.is_empty frontier || d = 0 then seen
    else begin
      let next =
        Int_set.fold
          (fun ik acc -> Int_set.union (successors t ik) acc)
          frontier Int_set.empty
      in
      let fresh = Int_set.diff next seen in
      go fresh (Int_set.union seen fresh) (d - 1)
    end
  in
  go roots roots depth
