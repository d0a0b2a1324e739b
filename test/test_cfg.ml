(* CFG, dominance and IR-verifier unit tests on hand-built and lowered
   method bodies. *)

open Jir

let meth_of_blocks ?(nvars = 16) ?(arity = 1) blocks =
  { Tac.m_id = Tac.id "T" "f" arity; m_class = "T"; m_name = "f";
    m_arity = arity; m_static = false;
    m_ret = Ast.Tvoid; m_param_types = []; m_blocks = Array.of_list blocks;
    m_nvars = nvars; m_synthetic = false; m_library = false;
    m_has_body = true }

let block ?(instrs = []) ?(handlers = []) term =
  { Tac.phis = []; instrs = Array.of_list instrs; term; handlers }

let test_cfg_diamond () =
  (* B0 -> B1/B2 -> B3 *)
  let m =
    meth_of_blocks ~nvars:4
      [ block ~instrs:[ Tac.Const (1, Tac.Cbool true) ] (Tac.If (1, 1, 2));
        block (Tac.Goto 3);
        block (Tac.Goto 3);
        block (Tac.Return None) ]
  in
  let cfg = Cfg.build m in
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (List.sort compare cfg.Cfg.succs.(0));
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (List.sort compare cfg.Cfg.preds.(3));
  Alcotest.(check int) "rpo starts at entry" 0 cfg.Cfg.rpo.(0);
  let dom = Dominance.compute cfg in
  Alcotest.(check int) "idom of 1" 0 dom.Dominance.idom.(1);
  Alcotest.(check int) "idom of 2" 0 dom.Dominance.idom.(2);
  Alcotest.(check int) "idom of 3 (join)" 0 dom.Dominance.idom.(3);
  Alcotest.(check (list int)) "frontier of 1" [ 3 ] dom.Dominance.frontier.(1);
  Alcotest.(check (list int)) "frontier of 2" [ 3 ] dom.Dominance.frontier.(2)

let test_cfg_loop () =
  (* B0 -> B1(header) -> B2(body) -> B1; B1 -> B3(exit) *)
  let m =
    meth_of_blocks ~nvars:4
      [ block (Tac.Goto 1);
        block ~instrs:[ Tac.Const (1, Tac.Cbool true) ] (Tac.If (1, 2, 3));
        block (Tac.Goto 1);
        block (Tac.Return None) ]
  in
  let cfg = Cfg.build m in
  let dom = Dominance.compute cfg in
  Alcotest.(check bool) "header dominates body" true (Dominance.dominates dom 1 2);
  Alcotest.(check bool) "body does not dominate header" false
    (Dominance.dominates dom 2 1);
  (* the back edge makes the header its own frontier member *)
  Alcotest.(check bool) "header in its own frontier" true
    (List.mem 1 dom.Dominance.frontier.(2))

let test_compact_removes_dead_blocks () =
  let m =
    meth_of_blocks ~nvars:4
      [ block (Tac.Return None);
        block (Tac.Goto 0);     (* unreachable *)
        block (Tac.Return None) (* unreachable *) ]
  in
  let cfg = Cfg.compact m in
  Alcotest.(check int) "one block left" 1 cfg.Cfg.nblocks;
  Alcotest.(check int) "body shrunk" 1 (Array.length m.Tac.m_blocks)

let test_exceptional_edges_in_cfg () =
  let m =
    meth_of_blocks ~nvars:4
      [ block ~handlers:[ 1 ] (Tac.Goto 2);
        block ~instrs:[ Tac.Catch_entry (1, "Exception") ] (Tac.Goto 2);
        block (Tac.Return None) ]
  in
  let cfg = Cfg.build m in
  Alcotest.(check (list int)) "handler edge present" [ 1; 2 ]
    (List.sort compare cfg.Cfg.succs.(0))

let test_verify_catches_bad_target () =
  let m = meth_of_blocks [ block (Tac.Goto 7) ] in
  match Verify.check_meth m with
  | [ v ] ->
    Alcotest.(check bool) "mentions target" true
      (String.length v.Verify.v_message > 0)
  | other -> Alcotest.failf "expected 1 violation, got %d" (List.length other)

let test_verify_catches_double_assignment () =
  let m =
    meth_of_blocks
      [ block
          ~instrs:[ Tac.Const (2, Tac.Cint 1); Tac.Const (2, Tac.Cint 2) ]
          (Tac.Return None) ]
  in
  Alcotest.(check bool) "double assignment caught" true
    (Verify.check_meth m <> []);
  Alcotest.(check (list string)) "allowed in non-SSA mode" []
    (List.map (fun v -> v.Verify.v_message) (Verify.check_meth ~ssa:false m))

let test_verify_catches_undefined_use () =
  let m =
    meth_of_blocks [ block ~instrs:[ Tac.Move (2, 9) ] (Tac.Return None) ]
  in
  Alcotest.(check bool) "undefined use caught" true (Verify.check_meth m <> [])

let test_verify_accepts_lowered_code () =
  let prog =
    Helpers.load_program
      [ "class C { int f(int n) { int s = 0; \
         for (int i = 0; i < n; i++) { s = s + i; } return s; } }" ]
  in
  Alcotest.(check (list string)) "clean" []
    (List.map (Fmt.str "%a" Verify.pp_violation) (Verify.check_program prog))

let suite =
  [ Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "cfg loop" `Quick test_cfg_loop;
    Alcotest.test_case "compact removes dead blocks" `Quick
      test_compact_removes_dead_blocks;
    Alcotest.test_case "exceptional edges" `Quick test_exceptional_edges_in_cfg;
    Alcotest.test_case "verify bad target" `Quick test_verify_catches_bad_target;
    Alcotest.test_case "verify double assignment" `Quick
      test_verify_catches_double_assignment;
    Alcotest.test_case "verify undefined use" `Quick
      test_verify_catches_undefined_use;
    Alcotest.test_case "verify accepts lowered code" `Quick
      test_verify_accepts_lowered_code ]
