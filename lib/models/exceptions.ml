(** Exception modeling for information-leakage detection (§4.1.2).

    For every [catch (C e)] entry, we synthesize a call to [getMessage] on
    the caught object and store the result into the exception's [msg] field.
    With [getMessage] registered as an information-leak source, the caught
    exception becomes a taint carrier, so idioms like
    [resp.getWriter().println(e)] are flagged by the taint-carrier detector
    without any per-site source specification. *)

open Jir

(* Rewrite one method in place. Runs after SSA conversion: the synthesized
   registers are fresh, and the store defines no register, so the SSA
   property is preserved. *)
let rewrite_method (prog : Program.t) (m : Tac.meth) : int =
  let table = prog.Program.table in
  let count = ref 0 in
  let has_catch (b : Tac.block) =
    Array.exists
      (function Tac.Catch_entry _ -> true | _ -> false)
      b.Tac.instrs
  in
  Array.iter
    (fun (b : Tac.block) ->
       if has_catch b then begin
         let out = ref [] in
         Array.iter
           (fun ins ->
              out := ins :: !out;
              match ins with
              | Tac.Catch_entry (v, exn_cls) ->
                incr count;
                let target_cls =
                  match
                    Classtable.lookup_method table exn_cls "getMessage" 1
                  with
                  | Some mi -> mi.Classtable.mi_class
                  | None -> "Throwable"
                in
                let target =
                  { Tac.rclass = target_cls; rname = "getMessage"; rarity = 1 }
                in
                let site =
                  Program.fresh_site prog ~meth:(Tac.method_id m)
                    ~kind:(Program.Call_site target)
                in
                let t = m.Tac.m_nvars in
                m.Tac.m_nvars <- t + 1;
                out :=
                  Tac.Store (v, { Tac.fclass = "Throwable"; fname = "msg" }, t)
                  :: Tac.Call
                       { ret = Some t; kind = Tac.Virtual; target;
                         args = [ v ]; site }
                  :: !out
              | _ -> ())
           b.Tac.instrs;
         b.Tac.instrs <- Array.of_list (List.rev !out)
       end)
    m.Tac.m_blocks;
  !count

(** Apply the rewrite to every non-library method of the program (library
    catch blocks are not interesting leak points). Returns the number of
    synthesized sources. *)
let rewrite_program (prog : Program.t) : int =
  let n = ref 0 in
  Program.iter_methods prog (fun m ->
      if not m.Tac.m_library then n := !n + rewrite_method prog m);
  !n
