(* Tests for the guard-discharge analysis (lib/analysis + kernel Absdom):
   domain algebra and widening termination, nullness transfer, kernel-checked
   discharge on hand-built programs and on the paper corpus, definite
   initialisation, and lint refutations. *)

module B = Ac_bignum
module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module A = Ac_kernel.Absdom
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Driver = Autocorres.Driver
module Csources = Ac_cases.Csources

let lenv = Layout.empty
let u32 = Ty.Tword (Ty.Unsigned, Ty.W32)
let w32 n = E.word_e Ty.Unsigned Ty.W32 n
let itv lo hi = A.itv_make (Some (B.of_int lo)) (Some (B.of_int hi))

(* ------------------------------------------------------------------ *)
(* Interval domain. *)

let interval_tests =
  [
    ( "join is an upper bound",
      fun () ->
        let a = itv 0 5 and b = itv 3 9 in
        let j = A.itv_join a b in
        Alcotest.(check bool) "a <= join" true (A.itv_leq a j);
        Alcotest.(check bool) "b <= join" true (A.itv_leq b j);
        Alcotest.(check bool) "join = [0,9]" true
          (A.itv_leq j (itv 0 9) && A.itv_leq (itv 0 9) j) );
    ( "widening terminates on a strictly ascending chain",
      fun () ->
        (* [0,0] ⊑ [0,1] ⊑ [0,2] ⊑ ... — joins never converge, widening
           must reach a post-fixpoint in a bounded number of steps. *)
        let steps = ref 0 in
        let cur = ref (itv 0 0) in
        let continue = ref true in
        while !continue && !steps < 10 do
          let next = itv 0 (!steps + 1) in
          if A.itv_leq next !cur then continue := false
          else begin
            cur := A.itv_widen !cur next;
            incr steps
          end
        done;
        Alcotest.(check bool) "stabilised well before the bound" true (!steps <= 3);
        Alcotest.(check bool) "post-fixpoint is upward-open" true
          (A.itv_leq (itv 0 1000000) !cur) );
    ( "env widening terminates per variable",
      fun () ->
        let env n =
          A.set_var A.env_top "i" (A.Dword (Ty.Unsigned, Ty.W32, itv 0 n, A.Ptop))
        in
        let steps = ref 0 in
        let cur = ref (env 0) in
        let continue = ref true in
        while !continue && !steps < 10 do
          let next = env (!steps + 1) in
          if A.env_leq next !cur then continue := false
          else begin
            cur := A.env_widen !cur next;
            incr steps
          end
        done;
        Alcotest.(check bool) "env chain stabilised" true (!steps <= 3) );
    ( "meet of disjoint intervals is empty",
      fun () ->
        Alcotest.(check bool) "empty" true (A.itv_is_empty (A.itv_meet (itv 0 3) (itv 5 9)))
    );
  ]

(* ------------------------------------------------------------------ *)
(* Nullness transfer through [assume]. *)

let nullness_tests =
  let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
  let pty = Ty.Tptr cty in
  let p = E.Var ("p", pty) in
  [
    ( "PtrSpan assumption makes a pointer non-null",
      fun () ->
        match A.assume lenv A.env_top (E.PtrSpan (cty, p)) true with
        | None -> Alcotest.fail "nonnull assumption should be satisfiable"
        | Some env -> (
          match A.lookup_var env "p" pty with
          | A.Dptr A.Nnonnull -> ()
          | d -> Alcotest.failf "expected Nnonnull, got %s" (A.vdom_to_string d)) );
    ( "null and non-null assumptions contradict",
      fun () ->
        match A.assume lenv A.env_top (E.Binop (E.Eq, p, E.null_e cty)) true with
        | None -> Alcotest.fail "p = NULL should be satisfiable at top"
        | Some env -> (
          match A.assume lenv env (E.PtrSpan (cty, p)) true with
          | None -> ()
          | Some _ -> Alcotest.fail "NULL pointer cannot satisfy PtrSpan") );
    ( "comparison assumption narrows a word variable",
      fun () ->
        let x = E.Var ("x", u32) in
        match A.assume lenv A.env_top (E.Binop (E.Lt, x, w32 10)) true with
        | None -> Alcotest.fail "x < 10 should be satisfiable"
        | Some env -> (
          match A.lookup_var env "x" u32 with
          | A.Dword (_, _, i, _) ->
            Alcotest.(check bool) "x <= 9" true (A.itv_leq i (itv 0 9))
          | d -> Alcotest.failf "expected word interval, got %s" (A.vdom_to_string d)) );
  ]

(* ------------------------------------------------------------------ *)
(* Kernel-checked discharge on hand-built monadic programs. *)

let discharge_m (m : M.t) : M.t =
  let ctx = Rules.empty_ctx lenv in
  let cert = Ac_analysis.infer_cert lenv m in
  let thm = Thm.by ctx (Rules.Rule_guard_true (m, cert)) [] in
  (match Thm.check ctx thm with
  | Result.Ok () -> ()
  | Result.Error e -> Alcotest.failf "Thm.check rejected the discharge: %s" e);
  match Thm.concl thm with J.Equiv (m', _) -> m' | _ -> Alcotest.fail "not an Equiv"

let discharge_tests =
  [
    ( "a tautological guard is discharged",
      fun () ->
        let m =
          M.Bind (M.Guard (Ir.Div_by_zero, E.Binop (E.Lt, w32 0, w32 1)), M.Pwild,
                  M.Return (w32 7))
        in
        Alcotest.(check int) "no guards left" 0 (Ac_analysis.guard_count (discharge_m m)) );
    ( "an unprovable guard is kept",
      fun () ->
        let m =
          M.Bind
            ( M.Guard (Ir.Div_by_zero, E.Binop (E.Lt, E.Var ("x", u32), E.Var ("y", u32))),
              M.Pwild, M.Return (w32 0) )
        in
        Alcotest.(check int) "guard survives" 1 (Ac_analysis.guard_count (discharge_m m)) );
    ( "a branch condition discharges the guard under it",
      fun () ->
        let x = E.Var ("x", u32) in
        let m =
          M.Cond
            ( E.Binop (E.Lt, x, w32 32),
              M.Bind (M.Guard (Ir.Shift_bounds, E.Binop (E.Lt, x, w32 32)), M.Pwild,
                      M.Return x),
              M.Return (w32 0) )
        in
        Alcotest.(check int) "guard under the branch discharged" 0
          (Ac_analysis.guard_count (discharge_m m)) );
    ( "a loop invariant from widening discharges a body guard",
      fun () ->
        let i = E.Var ("i", u32) in
        (* while (i < 10) { guard (i < 32); i = i + 1 } from 0: needs the
           widened invariant i ∈ [0, ∞) meet the loop condition. *)
        let body =
          M.Bind (M.Guard (Ir.Shift_bounds, E.Binop (E.Lt, i, w32 32)), M.Pwild,
                  M.Return (E.Binop (E.Add, i, w32 1)))
        in
        let m = M.While (M.Pvar ("i", u32), E.Binop (E.Lt, i, w32 10), body, w32 0) in
        Alcotest.(check int) "loop guard discharged" 0
          (Ac_analysis.guard_count (discharge_m m)) );
    ( "certificates for the wrong invariant are rejected",
      fun () ->
        let i = E.Var ("i", u32) in
        let body =
          M.Bind (M.Guard (Ir.Shift_bounds, E.Binop (E.Lt, i, w32 5)), M.Pwild,
                  M.Return (E.Binop (E.Add, i, w32 1)))
        in
        let m = M.While (M.Pvar ("i", u32), E.Binop (E.Lt, i, w32 10), body, w32 0) in
        (* Claim the bogus invariant i ∈ [0,3]: not inductive (the body
           reaches 4), so the kernel must refuse to discharge with it. *)
        let bogus =
          {
            A.c_invs =
              [ (0, A.set_var A.env_top "i" (A.Dword (Ty.Unsigned, Ty.W32, itv 0 3, A.Ptop))) ];
            c_sums = [];
          }
        in
        let ctx = Rules.empty_ctx lenv in
        match Thm.by_opt ctx (Rules.Rule_guard_true (m, bogus)) [] with
        | None -> ()
        | Some thm -> (
          (* Accepting it is fine only if it did not discharge anything. *)
          match Thm.concl thm with
          | J.Equiv (m', _) ->
            Alcotest.(check int) "nothing discharged under a bogus invariant" 1
              (Ac_analysis.guard_count m')
          | _ -> Alcotest.fail "not an Equiv") );
  ]

let no_discharge_options =
  { Driver.default_options with
    Driver.defaults = { Driver.default_func_options with Driver.discharge_guards = false }
  }

let final_guards options source =
  let res = Driver.run ~options source in
  List.fold_left
    (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
    0 res.Driver.funcs

(* ------------------------------------------------------------------ *)
(* Parity component of the product domain. *)

let parity_tests =
  [
    ( "parity lattice algebra",
      fun () ->
        Alcotest.(check bool) "odd + odd is even" true (A.par_add A.Podd A.Podd = A.Peven);
        Alcotest.(check bool) "odd * odd is odd" true (A.par_mul A.Podd A.Podd = A.Podd);
        Alcotest.(check bool) "even * top is even" true (A.par_mul A.Peven A.Ptop = A.Peven);
        Alcotest.(check bool) "or with odd is odd" true (A.par_or A.Ptop A.Podd = A.Podd);
        Alcotest.(check bool) "join of distinct is top" true
          (A.par_join A.Peven A.Podd = A.Ptop);
        Alcotest.(check bool) "flip swaps" true (A.par_flip A.Peven = A.Podd);
        Alcotest.(check bool) "leq is reflexive and top-bounded" true
          (A.par_leq A.Podd A.Podd && A.par_leq A.Peven A.Ptop && not (A.par_leq A.Ptop A.Peven))
    );
    ( "an odd divisor discharges the division guard",
      fun () ->
        (* d = x*2 + 1 is odd whatever x, so d ≠ 0 holds even though d's
           interval is the full word range — only the parity component can
           prove this guard. *)
        let x = E.Var ("x", u32) in
        let odd = E.Binop (E.Add, E.Binop (E.Mul, x, w32 2), w32 1) in
        let d = E.Var ("d", u32) in
        let m =
          M.Bind
            ( M.Return odd, M.Pvar ("d", u32),
              M.Bind (M.Guard (Ir.Div_by_zero, E.Binop (E.Ne, d, w32 0)), M.Pwild,
                      M.Return d) )
        in
        Alcotest.(check int) "odd-divisor guard discharged" 0
          (Ac_analysis.guard_count (discharge_m m)) );
    ( "an even expression does not discharge the guard",
      fun () ->
        let x = E.Var ("x", u32) in
        let even = E.Binop (E.Mul, x, w32 2) in
        let d = E.Var ("d", u32) in
        let m =
          M.Bind
            ( M.Return even, M.Pvar ("d", u32),
              M.Bind (M.Guard (Ir.Div_by_zero, E.Binop (E.Ne, d, w32 0)), M.Pwild,
                      M.Return d) )
        in
        Alcotest.(check int) "even divisor can be zero" 1
          (Ac_analysis.guard_count (discharge_m m)) );
  ]

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries: kernel-checked discharge across calls. *)

let mk_l2_func name params ret_ty body : M.func =
  { M.name; params; ret_ty; body; convention = M.Lambda_bound;
    heap_model = M.Byte_level; locals = [] }

(* g(x) = x < 32 ? x : 0 — returns a word in [0, 31]. *)
let bounded_callee =
  let x = E.Var ("x", u32) in
  mk_l2_func "g" [ ("x", u32) ] u32
    (M.Cond (E.Binop (E.Lt, x, w32 32), M.Return x, M.Return (w32 0)))

(* d ← g(x); guard (d < 32); return d — provable only via g's summary. *)
let summary_caller =
  let x = E.Var ("x", u32) in
  let d = E.Var ("d", u32) in
  M.Bind
    ( M.Call ("g", [ x ]), M.Pvar ("d", u32),
      M.Bind (M.Guard (Ir.Shift_bounds, E.Binop (E.Lt, d, w32 32)), M.Pwild, M.Return d) )

let summary_tests =
  [
    ( "a sound summary discharges a caller guard through the kernel",
      fun () ->
        let truth =
          { A.s_args = [ A.type_top u32 ];
            s_ret = A.Dword (Ty.Unsigned, Ty.W32, itv 0 31, A.Ptop);
            s_noret = false; s_throws = false; s_invs = [] }
        in
        let cert = { A.c_invs = []; c_sums = [ ("g", [ truth ]) ] } in
        let ctx = { (Rules.empty_ctx lenv) with Rules.fbodies = [ bounded_callee ] } in
        let thm = Thm.by ctx (Rules.Rule_guard_true (summary_caller, cert)) [] in
        (match Thm.check ctx thm with
        | Result.Ok () -> ()
        | Result.Error e -> Alcotest.failf "Thm.check rejected the discharge: %s" e);
        match Thm.concl thm with
        | J.Equiv (m', _) ->
          Alcotest.(check int) "caller guard discharged" 0 (Ac_analysis.guard_count m')
        | _ -> Alcotest.fail "not an Equiv" );
    ( "a forged summary is rejected by the kernel",
      fun () ->
        (* Claim g never exceeds 7: false (g can return up to 31).  The
           kernel re-walks g's body against the claim and must refuse to
           discharge anything with it. *)
        let lie =
          { A.s_args = [ A.type_top u32 ];
            s_ret = A.Dword (Ty.Unsigned, Ty.W32, itv 0 7, A.Ptop);
            s_noret = false; s_throws = false; s_invs = [] }
        in
        let cert = { A.c_invs = []; c_sums = [ ("g", [ lie ]) ] } in
        let ctx = { (Rules.empty_ctx lenv) with Rules.fbodies = [ bounded_callee ] } in
        match Thm.by_opt ctx (Rules.Rule_guard_true (summary_caller, cert)) [] with
        | None -> ()
        | Some thm -> (
          match Thm.concl thm with
          | J.Equiv (m', _) ->
            Alcotest.(check int) "nothing discharged under a forged summary" 1
              (Ac_analysis.guard_count m')
          | _ -> Alcotest.fail "not an Equiv") );
    ( "without the callee body the summary is unverifiable",
      fun () ->
        (* The same sound claim, but the kernel context has no body for g:
           check_sums cannot validate it, so the discharge must not go
           through. *)
        let truth =
          { A.s_args = [ A.type_top u32 ];
            s_ret = A.Dword (Ty.Unsigned, Ty.W32, itv 0 31, A.Ptop);
            s_noret = false; s_throws = false; s_invs = [] }
        in
        let cert = { A.c_invs = []; c_sums = [ ("g", [ truth ]) ] } in
        let ctx = Rules.empty_ctx lenv in
        match Thm.by_opt ctx (Rules.Rule_guard_true (summary_caller, cert)) [] with
        | None -> ()
        | Some thm -> (
          match Thm.concl thm with
          | J.Equiv (m', _) ->
            Alcotest.(check int) "nothing discharged without the body" 1
              (Ac_analysis.guard_count m')
          | _ -> Alcotest.fail "not an Equiv") );
    ( "the summary engine infers the bound and the driver uses it",
      fun () ->
        (* End-to-end on the interprocedural corpus member: with summaries
           every guard goes; intraprocedurally the caller guards stay. *)
        let source = List.assoc "clamp_shift" Csources.all in
        let res = Driver.run source in
        (* Round-1 (L2) discharge is interprocedural: every guard goes.
           (Round 2 runs after word abstraction, whose bodies the L2-level
           summaries do not describe, so a WA-introduced guard may survive
           — the [inter < intra] check below still holds on the final
           output.) *)
        Alcotest.(check int) "all L2 guards discharged" 0
          (List.fold_left
             (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_l2.M.body)
             0 res.Driver.funcs);
        let inter =
          List.fold_left
            (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
            0 res.Driver.funcs
        in
        Alcotest.(check bool) "derivations re-validate" true
          (Driver.check_all res = Result.Ok ());
        let intra =
          final_guards { Driver.default_options with Driver.interproc = false } source
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d (inter) < %d (intra)" inter intra)
          true (inter < intra) );
    ( "refinement re-walks only the SCCs a new context reaches",
      fun () ->
        (* f calls g(5), so g gains a [5, 5] context after the first
           round; u calls nothing.  Round 1 walks all three SCCs, round 2
           walks g (new context) and f (its callee's entry moved) and
           reuses u's result. *)
        let y = E.Var ("y", u32) and d = E.Var ("d", u32) in
        let f =
          mk_l2_func "f" [ ("y", u32) ] u32
            (M.Bind (M.Call ("g", [ w32 5 ]), M.Pvar ("d", u32), M.Return d))
        in
        let u = mk_l2_func "u" [ ("y", u32) ] u32 (M.Return y) in
        let sums, _ = Ac_analysis.Summary.compute lenv [ u; f; bounded_callee ] in
        Alcotest.(check int) "g gained a context" 2 (List.length (List.assoc "g" sums));
        (match List.assoc "f" sums with
        | [ s ] ->
          Alcotest.(check bool) "f re-walked under g's new context" true
            (A.vdom_leq s.A.s_ret (A.Dword (Ty.Unsigned, Ty.W32, itv 5 5, A.Ptop)))
        | _ -> Alcotest.fail "f has one context");
        Alcotest.(check int) "u walked once: 3 + 2 walks" 5
          (Atomic.get Ac_analysis.Summary.scc_walks) );
    ( "recursive callee summaries converge and discharge",
      fun () ->
        let source = List.assoc "rec_bound" Csources.all in
        let res = Driver.run source in
        let left =
          List.fold_left
            (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
            0 res.Driver.funcs
        in
        Alcotest.(check int) "all rec_bound guards discharged" 0 left;
        Alcotest.(check bool) "derivations re-validate" true
          (Driver.check_all res = Result.Ok ()) );
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: the paper corpus through the driver. *)

let corpus_tests =
  let per_case =
    List.map
      (fun (name, source) ->
        ( Printf.sprintf "discharge never adds guards: %s" name,
          fun () ->
            let with_d = final_guards Driver.default_options source in
            let without = final_guards no_discharge_options source in
            Alcotest.(check bool)
              (Printf.sprintf "%d (on) <= %d (off)" with_d without)
              true (with_d <= without) ))
      Csources.all
  in
  let strict =
    List.map
      (fun name ->
        let source = List.assoc name Csources.all in
        ( Printf.sprintf "flow-sensitive guards are discharged: %s" name,
          fun () ->
            let with_d = final_guards Driver.default_options source in
            let without = final_guards no_discharge_options source in
            Alcotest.(check bool)
              (Printf.sprintf "%d (on) < %d (off)" with_d without)
              true (with_d < without) ))
      [ "shift_guarded"; "div_guarded" ]
  in
  let acceptance =
    [
      ( "corpus discharges at least 30% of parser guards",
        fun () ->
          let parser_total, final_total =
            List.fold_left
              (fun (p, f) (name, source) ->
                let row, _ = Ac_stats.measure ~name source in
                (p + row.Ac_stats.guards_parser, f + row.Ac_stats.guards_final))
              (0, 0) Csources.all
          in
          let discharged = 100. *. (1. -. (float_of_int final_total /. float_of_int parser_total)) in
          Alcotest.(check bool)
            (Printf.sprintf "%d -> %d guards (%.0f%%)" parser_total final_total discharged)
            true
            (discharged >= 30.) );
      ( "corpus L2 discharge rate is at least 70% interprocedurally",
        fun () ->
          (* The tentpole acceptance metric: of the parser-emitted UB
             guards, at least 70% are gone after the (interprocedural)
             L2 discharge round — against the ~57% the intraprocedural
             pass topped out at. *)
          let src_total, l2_total =
            List.fold_left
              (fun (p, f) (_, source) ->
                let res = Driver.run source in
                let p' =
                  List.fold_left
                    (fun acc fr -> acc + Ac_stats.ir_guard_count fr.Driver.fr_simpl.Ir.body)
                    p res.Driver.funcs
                in
                let f' =
                  List.fold_left
                    (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_l2.M.body)
                    f res.Driver.funcs
                in
                (p', f'))
              (0, 0) Csources.all
          in
          let rate = 100. *. (1. -. (float_of_int l2_total /. float_of_int src_total)) in
          Alcotest.(check bool)
            (Printf.sprintf "%d -> %d guards (%.0f%%)" src_total l2_total rate)
            true (rate >= 70.) );
      ( "discharged derivations re-validate through Thm.check",
        fun () ->
          List.iter
            (fun name ->
              let source = List.assoc name Csources.all in
              let res = Driver.run source in
              match Driver.check_all res with
              | Result.Ok () -> ()
              | Result.Error e -> Alcotest.failf "%s: %s" name e)
            [ "shift_guarded"; "div_guarded"; "swap"; "gcd"; "clamp_shift";
              "odd_divisor"; "rec_bound" ] );
    ]
  in
  per_case @ strict @ acceptance

(* ------------------------------------------------------------------ *)
(* Definite initialisation on the typed front-end IR. *)

let uninit_of source =
  let tprog = Ac_cfront.Typecheck.parse_and_check source in
  List.concat_map Ac_analysis.uninit_findings tprog.Ac_cfront.Tir.tp_funcs

let uninit_tests =
  [
    ( "an uninitialised read is reported with its position",
      fun () ->
        let findings =
          uninit_of "int f(int a) {\n  int x;\n  int y;\n  y = x + a;\n  return y;\n}\n"
        in
        match findings with
        | [ f ] ->
          Alcotest.(check bool) "mentions x" true
            (Astring.String.is_infix ~affix:"'x'" f.Ac_analysis.lf_msg);
          (match f.Ac_analysis.lf_pos with
          | Some p -> Alcotest.(check int) "read is on line 4" 4 p.Ac_cfront.Ast.line
          | None -> Alcotest.fail "expected a position")
        | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs) );
    ( "assignment on only one branch is still uninitialised",
      fun () ->
        let findings =
          uninit_of "int h(int a) {\n  int x;\n  if (a) {\n    x = 1;\n  }\n  return x;\n}\n"
        in
        Alcotest.(check int) "one finding" 1 (List.length findings) );
    ( "assignment on both branches initialises",
      fun () ->
        let findings =
          uninit_of
            "int h(int a) {\n  int x;\n  if (a) {\n    x = 1;\n  } else {\n    x = 2;\n  }\n  return x;\n}\n"
        in
        Alcotest.(check int) "no findings" 0 (List.length findings) );
    ( "initialised locals and parameters are clean",
      fun () ->
        let findings = uninit_of "int g(int a) {\n  int x;\n  x = 1;\n  return x + a;\n}\n" in
        Alcotest.(check int) "no findings" 0 (List.length findings) );
  ]

(* ------------------------------------------------------------------ *)
(* Lint: refuted guards map back to source positions. *)

let lint_tests =
  [
    ( "a division by zero under the refuting branch is reported",
      fun () ->
        let source =
          "unsigned f(unsigned x) {\n  if (x == 0u) {\n    return 1u / x;\n  }\n  return 0u;\n}\n"
        in
        let res = Driver.run source in
        let klenv = res.Driver.ctx.Ac_kernel.Rules.lenv in
        let findings =
          List.concat_map
            (fun fr -> Ac_analysis.lint_func klenv ~simpl:fr.Driver.fr_simpl fr.Driver.fr_l2)
            res.Driver.funcs
        in
        match
          List.filter (fun f -> f.Ac_analysis.lf_kind = Some Ir.Div_by_zero) findings
        with
        | [ f ] -> (
          Alcotest.(check string) "in f" "f" f.Ac_analysis.lf_func;
          match f.Ac_analysis.lf_pos with
          | Some p -> Alcotest.(check int) "division is on line 3" 3 p.Ac_cfront.Ast.line
          | None -> Alcotest.fail "expected a source position")
        | fs -> Alcotest.failf "expected one Div0 finding, got %d" (List.length fs) );
    ( "guarded code produces no findings",
      fun () ->
        let source = List.assoc "div_guarded" Csources.all in
        let res = Driver.run source in
        let klenv = res.Driver.ctx.Ac_kernel.Rules.lenv in
        let findings =
          List.concat_map
            (fun fr -> Ac_analysis.lint_func klenv ~simpl:fr.Driver.fr_simpl fr.Driver.fr_l2)
            res.Driver.funcs
        in
        Alcotest.(check int) "no findings" 0 (List.length findings) );
  ]

let tests =
  interval_tests @ nullness_tests @ discharge_tests @ parity_tests @ summary_tests
  @ corpus_tests @ uninit_tests @ lint_tests
let suite = List.map (fun (n, f) -> Alcotest.test_case n `Quick f) tests
