(* The rewrite engine's derivation invariant: a theorem is minted only for
   a subterm the engine changed.  So no equivalence in a chain is an
   identity, and no congruence replays an empty script.  Checked on every
   function chain of every corpus file and [Ac_codegen] profile, at jobs 1
   and 2, with the kernel re-checking each chain. *)

module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Driver = Autocorres.Driver
module Rewrite = Autocorres.Rewrite

let units = List.map fst Test_l2_order.golden_digests

let is_identity t = match Thm.concl t with J.Equiv (a, c) -> M.equal a c | _ -> false

(* The first node breaking the invariant, by rule name. *)
let rec violation (t : Thm.t) : string option =
  let prems = Thm.premises t in
  match Thm.rule t with
  | _ when is_identity t -> Some (Thm.rule_name t ^ " concludes an identity")
  | Rules.Eq_congr _ when prems = [] -> Some "eq_congr over an empty script"
  | _ -> List.find_map violation prems

let test_identity_free jobs () =
  List.iter
    (fun name ->
      let res =
        Driver.run ~options:(Test_l2_order.options ~jobs) (Test_l2_order.unit_source name)
      in
      List.iter
        (fun (fr : Driver.func_result) ->
          Option.iter
            (fun chain ->
              let where = Printf.sprintf "%s/%s at jobs %d" name fr.Driver.fr_name jobs in
              Alcotest.(check (option string)) (where ^ ": identity-free") None
                (violation chain);
              let ctx = { res.Driver.ctx with Rules.wvars = fr.Driver.fr_wa_wvars } in
              Alcotest.(check bool) (where ^ ": kernel re-check") true
                (Thm.check ctx chain = Ok ()))
            fr.Driver.fr_chain)
        res.Driver.funcs)
    units

(* Regression ceiling: the summed chain size (rule applications, counted
   with multiplicity) of the echronos-like unit.  The engine that minted a
   reflexivity proof for every unchanged subterm reached 11921, the one
   that re-associated a statement spine one level per whole-term round
   reached 7711, behind a lifting that re-tupled the modified locals at
   every statement of a sequence it reached 7301, inlining one binding
   per head step it reached 4921, checking L1 one Simpl node at a time
   and HL one node at a time over heap-free code it reached 3995,
   checking HL one node at a time over heap-touching code it reached
   2773, checking WA one node at a time it reached 2515, and carrying
   each rewrite up the term by congruence and transitivity steps, with
   a whole-term simp and discharge step every round, it reached 1171. *)
let echronos_ceiling = 575

let test_chain_size_ceiling () =
  let res =
    Driver.run ~options:(Test_l2_order.options ~jobs:1)
      (Ac_codegen.generate Ac_codegen.echronos_like)
  in
  let total =
    List.fold_left
      (fun acc (fr : Driver.func_result) ->
        acc + match fr.Driver.fr_chain with Some c -> Thm.size c | None -> 0)
      0 res.Driver.funcs
  in
  Alcotest.(check bool)
    (Printf.sprintf "summed chain size %d <= %d" total echronos_ceiling)
    true (total <= echronos_ceiling)

(* Allocation ceiling: the bytes one jobs-1 run of the echronos-like unit
   allocates once the process is warm, at most 1.1x the 5.5 MB measured
   once each clean-up's rewrite script became one congruence step (11.8
   MB once bignum arithmetic took native fast paths and the term maps
   stopped rebuilding unchanged nodes, 18.5 MB before).  Allocation,
   unlike wall time, is stable enough to gate on. *)
let echronos_alloc_ceiling_mb = 6.05

let test_alloc_ceiling () =
  let src = Ac_codegen.generate Ac_codegen.echronos_like in
  let run () = ignore (Sys.opaque_identity (Driver.run ~options:(Test_l2_order.options ~jobs:1) src)) in
  (* The first run in a process also fills tables that live across runs. *)
  run ();
  let before = Gc.allocated_bytes () in
  run ();
  let mb = (Gc.allocated_bytes () -. before) /. 1048576. in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.1f MB <= %.1f MB" mb echronos_alloc_ceiling_mb)
    true (mb <= echronos_alloc_ceiling_mb)

(* A sweep leaves no redex behind it, so what [Rewrite.normalize] returns
   is its own fixed point: normalising it again mints nothing.  The
   round that finds simp and discharge idle skips its sweep on the
   strength of this.  Checked on the three [normalize] outputs of each
   function: its L2 body (converted again from its L1 image under the
   run's context), its HL body and its WA body.  The names of the bodies
   that are not fixed points. *)
let not_fixpoints (res : Driver.result) : string list =
  let ctx = res.Driver.ctx in
  List.concat_map
    (fun (fr : Driver.func_result) ->
      let l2f, _ = Autocorres.L2.convert_func ctx fr.Driver.fr_l1 in
      List.filter_map
        (fun (stage, body) ->
          match body with
          | Some (f : M.func) when Option.is_some (Rewrite.normalize ctx f.M.body) ->
            Some (fr.Driver.fr_name ^ " " ^ stage)
          | _ -> None)
        [ ("L2", Some l2f); ("HL", fr.Driver.fr_hl); ("WA", fr.Driver.fr_wa) ])
    res.Driver.funcs

let test_fixpoints () =
  List.iter
    (fun name ->
      let res =
        Driver.run ~options:(Test_l2_order.options ~jobs:1) (Test_l2_order.unit_source name)
      in
      Alcotest.(check int) (name ^ ": no budget ran dry") 0 res.Driver.budget_hits;
      Alcotest.(check (list string)) (name ^ ": normalised bodies are fixed points") []
        (not_fixpoints res);
      Alcotest.(check int) (name ^ ": no normalize call stopped early") 0
        (Atomic.get Rewrite.exhaustions))
    units

let prop_fixpoints =
  QCheck.Test.make ~count:12 ~name:"rewrite: small generated units normalise to fixed points"
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 7))
    (fun (seed, stmts) ->
      let profile =
        { Ac_codegen.echronos_like with
          Ac_codegen.p_name = "small"; target_functions = 5; stmts_per_function = stmts; seed }
      in
      let res =
        Driver.run ~options:(Test_l2_order.options ~jobs:1) (Ac_codegen.generate profile)
      in
      not_fixpoints res = [] && Atomic.get Rewrite.exhaustions = 0)

(* Stopping at the pass limit with work left is an exhaustion, counted
   like running out of fuel.  Inlining [x] leaves a guard only the
   simplifier of the next round turns into [true], and only a further
   sweep then removes. *)
let test_pass_limit_counted () =
  let ctx = Rules.empty_ctx Ac_lang.Layout.empty in
  let x = E.Var ("x", Ty.Tint) in
  let m =
    M.Bind
      ( M.Return (E.int_e 3),
        M.Pvar ("x", Ty.Tint),
        M.Guard (Ir.Unsigned_overflow, E.Binop (E.Le, E.Binop (E.Add, x, E.int_e 1), E.int_e 5))
      )
  in
  let saved = !Rewrite.fuel in
  Rewrite.fuel := Rewrite.default_fuel;
  Atomic.set Rewrite.exhaustions 0;
  let out = Rewrite.normalize ctx m in
  Alcotest.(check bool) "normalises to return ()" true
    (match out with Some t -> M.equal (Rewrite.abs_of t) (M.Return E.unit_e) | None -> false);
  Alcotest.(check int) "no exhaustion within the limit" 0 (Atomic.get Rewrite.exhaustions);
  ignore (Rewrite.normalize ~max_passes:1 ctx m);
  Rewrite.fuel := saved;
  Alcotest.(check int) "stopping at the pass limit counts" 1 (Atomic.get Rewrite.exhaustions)

(* One sweep normalises what a head step rebuilds below the new head, so
   its output is a fixed point of the next: a constant inlined under a
   statement makes a branch decidable, and pruning a dead loop component
   leaves a [y <- gets g; return y] tail in the loop body. *)
let test_settle_rebuilt () =
  let ctx = Rules.empty_ctx Ac_lang.Layout.empty in
  let var x = E.Var (x, Ty.Tint) and pvar x = M.Pvar (x, Ty.Tint) in
  let set v = M.Modify [ M.Global_set ("g", E.int_e v) ] in
  let get_g = M.Gets (E.Global ("g", Ty.Tint)) in
  let loop ps body init = M.While (ps, E.Binop (E.Lt, var "i", E.int_e 10), body, init) in
  let cases =
    [
      ( "inlined constant",
        M.Bind
          ( M.Return E.true_e,
            M.Pvar ("b", Ty.Tbool),
            M.Bind (set 0, M.Pwild, M.Cond (E.Var ("b", Ty.Tbool), set 1, set 2)) ),
        M.Bind (set 0, M.Pwild, set 1) );
      ( "pruned loop component",
        M.Bind
          ( loop
              (M.Ptuple [ pvar "i"; pvar "z" ])
              (M.Bind (get_g, pvar "y", M.Return (E.Tuple [ var "y"; var "z" ])))
              (E.Tuple [ E.int_e 0; E.int_e 0 ]),
            M.Ptuple [ pvar "i'"; pvar "z'" ],
            M.Return (var "i'") ),
        loop (pvar "i") get_g (E.int_e 0) );
    ]
  in
  let sweep m = Rewrite.pass ctx (Rewrite.tank Rewrite.default_fuel) m in
  List.iter
    (fun (name, m, want) ->
      match sweep m with
      | None -> Alcotest.failf "%s: nothing rewritten" name
      | Some t ->
        Alcotest.(check string) name (Ac_monad.Mprint.to_string want)
          (Ac_monad.Mprint.to_string (Rewrite.abs_of t));
        Alcotest.(check bool) (name ^ ": a fixed point") true
          (Option.is_none (sweep (Rewrite.abs_of t))))
    cases

let suite =
  [
    Alcotest.test_case "identity-free derivations at jobs 1" `Quick (test_identity_free 1);
    Alcotest.test_case "identity-free derivations at jobs 2" `Quick (test_identity_free 2);
    Alcotest.test_case "echronos-like chain size ceiling" `Quick test_chain_size_ceiling;
    Alcotest.test_case "echronos-like allocation ceiling" `Quick test_alloc_ceiling;
    Alcotest.test_case "normalised bodies are fixed points, no pass limit hit" `Quick
      test_fixpoints;
    Alcotest.test_case "stopping at the pass limit counts as an exhaustion" `Quick
      test_pass_limit_counted;
    QCheck_alcotest.to_alcotest prop_fixpoints;
    Alcotest.test_case "a sweep normalises what a head step rebuilt" `Quick
      test_settle_rebuilt;
  ]
