(** Tainted flows: a witness path from a source call to a sink call. *)

open Jir

type t = {
  fl_rule : Rules.rule;
  fl_source : Sdg.Stmt.t;
  fl_sink : Sdg.Stmt.t;
  fl_sink_target : Tac.mref;
  fl_kind : Sdg.Tabulation.hit_kind;
  fl_path : Sdg.Stmt.t list;          (* source first, sink last *)
  fl_length : int;
  fl_verdict : Sdg.Refine.verdict option;
      (* [None] when refinement did not run; [Plausible] demotes, never
         drops — a refined flow is always still reported *)
  fl_template : Strings.Template.t option;
      (* the sink value's reconstructed string template; [None] when the
         sanitization judge did not run or could not recover it *)
  fl_sanitization : Strings.Context.verdict option;
      (* the sanitization judgement ([None] when contexts are off).
         [Sanitized] flows are dropped before reporting — reproducing
         the kill — so a reported flow carries [Mismatched_sanitizer]
         or [Unsanitized] *)
}

let length fl = fl.fl_length

(** [Confirmed] first, then [Plausible], then unrefined — the report sort
    key alongside path length. With refinement off every verdict is [None],
    so ordering reduces to the unrefined behaviour exactly. *)
let verdict_rank fl =
  match fl.fl_verdict with Some v -> Sdg.Refine.rank v | None -> 2
