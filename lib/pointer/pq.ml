(** A small mutable min-heap of [(priority, value)] pairs with lazy
    decrease-key: callers push a fresh entry when a priority drops and skip
    stale entries on pop by re-checking against the authoritative priority
    map. *)

type t = {
  mutable heap : (int * int) array;   (* (priority, value) *)
  mutable size : int;
}

let create () = { heap = Array.make 64 (0, 0); size = 0 }

let length t = t.size

let swap t i j =
  let x = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- x

let push t prio v =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) (0, 0) in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- (prio, v);
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && fst t.heap.((!i - 1) / 2) > fst t.heap.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t : (int * int) option =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && fst t.heap.(l) < fst t.heap.(!smallest) then
        smallest := l;
      if r < t.size && fst t.heap.(r) < fst t.heap.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        swap t !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    Some top
  end
