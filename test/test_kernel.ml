(* Tests for the LCF-style kernel: rules compute correct conclusions,
   side conditions reject unsound applications, derivations re-validate,
   and the reflective passes (lifting, simplification, discharge) preserve
   semantics on concrete runs. *)

module B = Ac_bignum
module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

let ctx = Rules.empty_ctx Layout.empty
let u32 = Ty.Tword (Ty.Unsigned, Ty.W32)
let s32 = Ty.Tword (Ty.Signed, Ty.W32)

let wctx vars = { ctx with Rules.wvars = vars }

let expect_fail name f =
  match f () with
  | exception Thm.Kernel_error _ -> ()
  | _thm -> Alcotest.failf "%s: kernel accepted an unsound rule application" name

(* The word-abstraction image of [m] at result conv [want]: one [W_abs]
   step. *)
let wa ?(exts = []) c want m =
  match Thm.concl (Thm.by c (Rules.W_abs (want, exts, m)) []) with
  | J.Abs_w_stmt (_, _, _, a, _) -> a
  | _ -> Alcotest.fail "expected abs_w_stmt"

(* An image's overflow guard, printed, and the statement it guards. *)
let overflow_guard = function
  | M.Bind (M.Guard (Ir.Unsigned_overflow, p), M.Pwild, m) -> (Ac_lang.Pretty.expr_to_string p, m)
  | m -> ("", m)

let rule_tests =
  [
    ( "w_var requires registration",
      fun () ->
        let x = E.Var ("x", u32) in
        let ret = M.Return x in
        (* unregistered, x stays a word, read through unat *)
        Alcotest.(check bool) "unregistered: unat x" true
          (M.equal (wa ctx (J.Cunat Ty.W32) ret) (M.Return (E.OfWord (Ty.Tnat, x))));
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        match Thm.concl (Thm.by c (Rules.W_abs (J.Cunat Ty.W32, [], ret)) []) with
        | J.Abs_w_stmt (p, rx, _, a, conc) ->
          Alcotest.(check bool) "no precondition" true (E.equal p E.true_e);
          Alcotest.(check bool) "conv unat" true (J.conv_equal rx (J.Cunat Ty.W32));
          Alcotest.(check bool) "abstract side ideal" true
            (M.equal a (M.Return (E.Var ("x", Ty.Tnat))));
          Alcotest.(check bool) "concrete side the term" true (conc == ret)
        | _ -> Alcotest.fail "expected abs_w_stmt" );
    ( "w_id rejects expressions over abstracted variables",
      fun () ->
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        (* at conv id an abstracted variable is re-concretised, never kept *)
        Alcotest.(check bool) "x re-concretised" true
          (M.equal
             (wa c J.Cid (M.Return (E.Var ("x", u32))))
             (M.Return (E.Cast (u32, E.Var ("x", Ty.Tnat)))));
        (* but anything else abstracts to itself *)
        let y = M.Return (E.Var ("y", u32)) in
        Alcotest.(check bool) "y is its own image" true (M.equal (wa c J.Cid y) y) );
    ( "w_sum collects the no-overflow precondition (Table 3 WSUM)",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("b", (Ty.Unsigned, Ty.W32)) ] in
        let sum = E.Binop (E.Add, E.Var ("a", u32), E.Var ("b", u32)) in
        let p, m = overflow_guard (wa c (J.Cunat Ty.W32) (M.Return sum)) in
        Alcotest.(check bool) "sum" true
          (M.equal m (M.Return (E.Binop (E.Add, E.Var ("a", Ty.Tnat), E.Var ("b", Ty.Tnat)))));
        Alcotest.(check bool) "UINT_MAX bound" true
          (Astring.String.is_infix ~affix:"4294967295" p) );
    ( "w_sub requires the monus precondition b <= a",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("b", (Ty.Unsigned, Ty.W32)) ] in
        let diff = E.Binop (E.Sub, E.Var ("a", u32), E.Var ("b", u32)) in
        let p, _ = overflow_guard (wa c (J.Cunat Ty.W32) (M.Return diff)) in
        Alcotest.(check bool) "b <= a" true (Astring.String.is_infix ~affix:"b ≤ a" p) );
    ( "signed arithmetic collects INT_MIN/INT_MAX bounds",
      fun () ->
        let c = wctx [ ("a", (Ty.Signed, Ty.W32)) ] in
        let sq = E.Binop (E.Mul, E.Var ("a", s32), E.Var ("a", s32)) in
        let p, _ = overflow_guard (wa c (J.Csint Ty.W32) (M.Return sq)) in
        Alcotest.(check bool) "INT_MIN" true (Astring.String.is_infix ~affix:"-2147483648" p);
        Alcotest.(check bool) "INT_MAX" true (Astring.String.is_infix ~affix:"2147483647" p) );
    ( "w_ite gates each branch's precondition by the condition",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("b", (Ty.Unsigned, Ty.W32)) ] in
        let a = E.Var ("a", u32) and b = E.Var ("b", u32) in
        let test = E.Binop (E.Lt, a, b) in
        let p, _ =
          overflow_guard (wa c (J.Cunat Ty.W32) (M.Return (E.Ite (test, E.Binop (E.Add, a, b), a))))
        in
        (* the sum is only evaluated, and so only bounded, when a < b *)
        Alcotest.(check string) "gated bound" "a < b ⟶ a + b ≤ 4294967295" p );
    ( "a loop condition takes no precondition: its arithmetic stays at word level",
      fun () ->
        let c = wctx [ ("i", (Ty.Unsigned, Ty.W32)); ("n", (Ty.Unsigned, Ty.W32)) ] in
        let i = E.Var ("i", u32) and n = E.Var ("n", u32) and one = E.word_e Ty.Unsigned Ty.W32 1 in
        let loop =
          M.While
            ( M.Pvar ("i", u32),
              E.Binop (E.Lt, E.Binop (E.Add, i, one), n),
              M.Return i,
              E.word_e Ty.Unsigned Ty.W32 0 )
        in
        (* an ideal i + 1 < n would need a guard no loop condition can have *)
        let recon x = E.Cast (u32, E.Var (x, Ty.Tnat)) in
        match wa c J.Cid loop with
        | M.While (_, cond, _, _) ->
          Alcotest.(check bool) "word comparison" true
            (E.equal cond (E.Binop (E.Lt, E.Binop (E.Add, recon "i", one), recon "n")))
        | m -> Alcotest.failf "expected a loop, got %s" (Ac_monad.Mprint.to_string m) );
    ( "w_binop rejects mixed-conv premises",
      fun () ->
        (* an unsigned and a signed operand: no ideal sum, no guard; the
           operands are re-concretised and the word sum read through unat *)
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("s", (Ty.Signed, Ty.W32)) ] in
        let sum = E.Binop (E.Add, E.Var ("a", u32), E.Var ("s", s32)) in
        let recon x t ideal = E.Cast (t, E.Var (x, ideal)) in
        Alcotest.(check bool) "re-concretised" true
          (M.equal
             (wa c (J.Cunat Ty.W32) (M.Return sum))
             (M.Return
                (E.OfWord
                   (Ty.Tnat, E.Binop (E.Add, recon "a" u32 Ty.Tnat, recon "s" s32 Ty.Tint))))) );
    ( "ws_bind rejects pattern/conv mismatches",
      fun () ->
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        let x = E.Var ("x", u32) and px = M.Pvar ("x", u32) in
        (* An unknown word comes at conv id, but the pattern is registered,
           so its conv is unat: the kernel must refuse. *)
        expect_fail "mismatch" (fun () ->
            Thm.by c (Rules.W_abs (J.Cid, [], M.Bind (M.Unknown u32, px, M.Return x))) []);
        (* a word value is abstracted at the pattern's conv *)
        let y = E.Var ("y", u32) in
        Alcotest.(check bool) "bound at unat" true
          (M.equal
             (wa c J.Cid (M.Bind (M.Return y, px, M.Return x)))
             (M.Bind
                ( M.Return (E.OfWord (Ty.Tnat, y)),
                  M.Pvar ("x", Ty.Tnat),
                  M.Return (E.Cast (u32, E.Var ("x", Ty.Tnat))) ))) );
    ( "hv_read adds the validity side condition (Table 4)",
      fun () ->
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) in
        let sc = Ty.Cstruct "s" in
        let q = E.Var ("q", Ty.Tptr sc) and x = E.Var ("x", u32) in
        let sctx =
          { ctx with Rules.lenv = Layout.declare_struct Layout.empty "s" [ ("f", cty) ] }
        in
        let field = E.FieldAddr ("s", "f", q) in
        let valid c p = M.Guard (Ir.Ptr_valid, E.IsValid (c, p)) in
        List.iter
          (fun (what, m, want) ->
            match Thm.concl (Thm.by sctx (Rules.Hl m) []) with
            | J.Abs_h_stmt (a, c) ->
              Alcotest.(check bool) (what ^ ": concrete side is the input") true (c == m);
              Alcotest.(check bool) (what ^ ": is_valid guard, then the typed access") true
                (M.equal a want)
            | _ -> Alcotest.fail "wrong judgment")
          [ ( "read",
              M.Return (E.HeapRead (cty, p)),
              M.Bind (valid cty p, M.Pwild, M.Return (E.TypedRead (cty, p))) );
            ( "field read",
              M.Return (E.HeapRead (cty, field)),
              M.Bind
                (valid sc q, M.Pwild, M.Return (E.StructGet ("s", "f", E.TypedRead (sc, q)))) );
            ( "write",
              M.Modify [ M.Heap_write (cty, p, x) ],
              M.Bind (valid cty p, M.Pwild, M.Modify [ M.Typed_write (cty, p, x) ]) );
            ( "field write",
              M.Modify [ M.Heap_write (cty, field, x) ],
              M.Bind
                ( valid sc q,
                  M.Pwild,
                  M.Modify [ M.Typed_write (sc, q, E.StructSet ("s", "f", E.TypedRead (sc, q), x)) ]
                ) ) ] );
    ( "rules refuse an undeclared struct by their own side condition",
      fun () ->
        (* [Rules.infer] itself, not [Thm]'s wrapper that refuses any
           inference that raises. *)
        let sc = Ty.Cstruct "nosuch" in
        let p = E.Var ("p", Ty.Tptr sc) in
        let v = E.word_e Ty.Unsigned Ty.W32 1 in
        let u32c = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let field = E.FieldAddr ("nosuch", "f", p) in
        let lifted ~locals ~ret_ty body =
          Rules.Rw_lift ([], locals, ret_ty, M.Try (body, M.Pwild, M.Return E.unit_e))
        in
        List.iter
          (fun (rule, want) ->
            match Rules.infer ctx rule [] with
            | Error msg -> Alcotest.(check string) (Rules.rule_name rule) want msg
            | Ok _ -> Alcotest.failf "%s accepted an undeclared struct" (Rules.rule_name rule))
          [ (Rules.Hl (M.Return (E.HeapRead (u32c, field))), "hl: undeclared struct nosuch");
            ( Rules.Hl (M.Modify [ M.Heap_write (u32c, field, v) ]),
              "hl: undeclared struct nosuch" );
            ( Rules.Rule_guard_true
                (M.Guard (Ir.Ptr_valid, E.PtrAligned (sc, p)), Ac_kernel.Absdom.cert_of_invs []),
              "rule_guard_true: undeclared struct nosuch" );
            ( lifted ~locals:[ ("l", Ty.Tstruct "nosuch") ] ~ret_ty:Ty.Tunit
                (M.Gets (E.Var ("l", Ty.Tstruct "nosuch"))),
              "rw_lift: undeclared struct nosuch" );
            ( lifted ~locals:[] ~ret_ty:(Ty.Tstruct "nosuch") (M.Return E.unit_e),
              "rw_lift: undeclared struct nosuch" ) ] );
    ( "hs_id takes only a statement that never touches the byte heap",
      fun () ->
        (* only a heap-free statement is its own HL image: one that touches
           the byte heap is refused or abstracted to a term that does not *)
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) and x = E.Var ("x", u32) in
        let read = E.HeapRead (cty, p) in
        let set e = M.Modify [ M.Local_set ("x", e) ] in
        let ok = M.Bind (set x, M.Pwild, M.Cond (E.Binop (E.Lt, x, x), M.Fail, M.Throw x)) in
        (match Thm.concl (Thm.by ctx (Rules.Hl ok) []) with
        | J.Abs_h_stmt (a, c) -> Alcotest.(check bool) "identity" true (a == ok && c == ok)
        | _ -> Alcotest.fail "wrong judgment");
        let rec byte_heap_e e =
          (match e with E.HeapRead _ -> true | _ -> false) || E.exists_child byte_heap_e e
        in
        let rec byte_heap (m : M.t) =
          let found = ref false in
          M.iter_exprs (fun e -> if byte_heap_e e then found := true) m;
          !found
          ||
          match m with
          | M.Modify sms ->
            List.exists (function M.Heap_write _ | M.Retype _ -> true | _ -> false) sms
          | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) -> byte_heap a || byte_heap b
          | M.While (_, _, body, _) -> byte_heap body
          | _ -> false
        in
        List.iter
          (fun (what, m) ->
            let m = M.Bind (set x, M.Pwild, m) in
            match Rules.infer ctx (Rules.Hl m) [] with
            | Error _ -> ()
            | Ok (J.Abs_h_stmt (a, c)) ->
              Alcotest.(check bool) (what ^ ": concrete side") true (c == m);
              Alcotest.(check bool) (what ^ ": not its own image") false (M.equal a m);
              Alcotest.(check bool) (what ^ ": image off the byte heap") false (byte_heap a)
            | Ok _ -> Alcotest.failf "%s: wrong judgment" what)
          [ ("heap read", set read);
            ("heap write", M.Modify [ M.Heap_write (cty, p, x) ]);
            ("retype", M.Modify [ M.Retype (cty, p) ]);
            ( "guard strengthen_positive rewrites",
              M.Guard (Ir.Div_by_zero, E.Binop (E.And, E.PtrAligned (cty, p), E.PtrSpan (cty, p))) );
            ( "heap read in a loop condition",
              M.While (M.Pwild, E.Binop (E.Lt, read, x), M.skip, E.unit_e) );
            ("call", M.Call ("f", [ x ]));
            ("exec_concrete", M.Exec_concrete ("f", [ x ])) ] );
    ( "hv_id rejects byte-heap reads",
      fun () ->
        (* a byte-heap read, wherever it occurs, is not carried into the HL
           image: it becomes a typed read under an is_valid guard *)
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) in
        let read = E.HeapRead (cty, p) and typed = E.TypedRead (cty, p) in
        let rec has what e = E.equal e what || E.exists_child (has what) e in
        let mentions what m =
          let found = ref false in
          M.iter_exprs (fun e -> if has what e then found := true) m;
          !found
        in
        List.iter
          (fun (where, m) ->
            let a =
              match Thm.concl (Thm.by ctx (Rules.Hl m) []) with
              | J.Abs_h_stmt (a, _) -> a
              | _ -> Alcotest.fail "wrong judgment"
            in
            Alcotest.(check bool) (where ^ ": byte-heap read gone") false (mentions read a);
            Alcotest.(check bool) (where ^ ": typed read") true (mentions typed a);
            Alcotest.(check bool) (where ^ ": is_valid") true (mentions (E.IsValid (cty, p)) a))
          [ ("return", M.Return read);
            ("gets", M.Gets read);
            ("throw", M.Throw read);
            ("local set", M.Modify [ M.Local_set ("x", read) ]);
            ("global set", M.Modify [ M.Global_set ("g", read) ]);
            ("condition", M.Cond (E.Binop (E.Lt, read, read), M.skip, M.Fail));
            ("guard", M.Guard (Ir.Div_by_zero, E.Binop (E.Lt, read, read)));
            ("call argument", M.Call ("f", [ read ])) ] );
    ( "hl leaves a statement that never touches the byte heap as it is",
      fun () ->
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) and x = E.Var ("x", u32) in
        let read = E.HeapRead (cty, p) and valid = M.Guard (Ir.Ptr_valid, E.IsValid (cty, p)) in
        let set e = M.Modify [ M.Local_set ("x", e) ] in
        let seq a b = M.Bind (a, M.Pwild, b) in
        let image ctx m =
          match Thm.concl (Thm.by ctx (Rules.Hl m) []) with
          | J.Abs_h_stmt (a, c) ->
            Alcotest.(check bool) "concrete side is the input" true (c == m);
            a
          | _ -> Alcotest.fail "wrong judgment"
        in
        let ok = seq (set x) (M.Cond (E.Binop (E.Lt, x, x), M.Fail, M.Throw x)) in
        Alcotest.(check bool) "identity" true (image ctx ok == ok);
        let lifted_f = { ctx with Rules.lifted = Ac_kernel.Index.names [ "f" ] } in
        let cond = E.Binop (E.Lt, read, x) in
        let recheck =
          M.Bind
            ( M.skip,
              M.Pvar ("loop_res'", Ty.Tunit),
              seq valid (M.Return (E.Var ("loop_res'", Ty.Tunit))) )
        in
        List.iter
          (fun (what, ctx, m, want) ->
            Alcotest.(check bool) what true (M.equal (image ctx (seq (set x) m)) (seq (set x) want)))
          [ ("heap read", ctx, set read, seq valid (set (E.TypedRead (cty, p))));
            ( "heap write",
              ctx,
              M.Modify [ M.Heap_write (cty, p, x) ],
              seq valid (M.Modify [ M.Typed_write (cty, p, x) ]) );
            ( "guard strengthen_positive rewrites",
              ctx,
              M.Guard (Ir.Div_by_zero, E.Binop (E.And, E.PtrAligned (cty, p), E.PtrSpan (cty, p))),
              M.Guard (Ir.Div_by_zero, E.IsValid (cty, p)) );
            ( "heap read in a loop condition: entry and re-check guards",
              ctx,
              M.While (M.Pwild, cond, M.skip, E.unit_e),
              seq valid
                (M.While (M.Pwild, E.Binop (E.Lt, E.TypedRead (cty, p), x), recheck, E.unit_e)) );
            ("call to byte-level code", ctx, M.Call ("f", [ x ]), M.Exec_concrete ("f", [ x ]));
            ("call to lifted code", lifted_f, M.Call ("f", [ x ]), M.Call ("f", [ x ])) ];
        List.iter
          (fun (what, m, want) ->
            match Rules.infer ctx (Rules.Hl (seq (set x) m)) [] with
            | Error msg -> Alcotest.(check string) what want msg
            | Ok _ -> Alcotest.failf "hl accepted %s" what)
          [ ("retype", M.Modify [ M.Retype (cty, p) ], "hl: retype in heap-lifted code");
            ( "exec_concrete",
              M.Exec_concrete ("f", [ x ]),
              "hl: exec_concrete below heap abstraction" ) ] );
    ( "eq_trans rejects mismatched middles",
      fun () ->
        (* Equiv (return (), guard true) after Equiv (return 2, if true ...) *)
        let t1 = Thm.by ctx (Rules.Rw_guard_true Ir.Div_by_zero) [] in
        let t2 = Thm.by ctx (Rules.Rw_cond_true (M.Return (E.int_e 2), M.Fail)) [] in
        expect_fail "trans" (fun () -> Thm.by ctx Rules.Eq_trans [ t1; t2 ]) );
    ( "eq_congr runs its script in order, and rewrites nothing else",
      fun () ->
        let open Rules in
        let guard = M.Guard (Ir.Div_by_zero, E.true_e) and unit = M.Return E.unit_e in
        let g = Thm.by ctx (Rw_guard_true Ir.Div_by_zero) [] in
        let fail = Thm.by ctx (Rw_dead_after_fail (M.Pwild, unit)) [] in
        let b = E.Var ("b", Ty.Tbool) in
        let m = M.Bind (guard, M.Pwild, M.Cond (b, M.Fail, guard)) in
        let both = [ At (0, [ Here ]); At (1, [ At (1, [ Here ]) ]) ] in
        let t = Thm.by ctx (Eq_congr (m, both)) [ g; g ] in
        Alcotest.(check bool) "both guards rewritten" true
          (match Thm.concl t with
          | J.Equiv (a, c) ->
            M.equal c m && M.equal a (M.Bind (unit, M.Pwild, M.Cond (b, M.Fail, unit)))
          | _ -> false);
        (* a later step reads an earlier one's output *)
        let fb = M.Bind (M.Fail, M.Pwild, unit) in
        let cond = Thm.by ctx (Rw_cond_true (fb, unit)) [] in
        let t2 =
          Thm.by ctx (Eq_congr (M.Cond (E.true_e, fb, unit), [ Here; Here ])) [ cond; fail ]
        in
        Alcotest.(check bool) "in order" true
          (match Thm.concl t2 with J.Equiv (a, _) -> M.equal a M.Fail | _ -> false);
        List.iter
          (fun (what, steps, prems) ->
            expect_fail what (fun () -> Thm.by ctx (Eq_congr (m, steps)) prems))
          [ ("wrong subterm", [ At (1, [ At (0, [ Here ]) ]) ], [ g ]);
            ("no such child", [ At (0, [ At (0, [ Here ]) ]) ], [ g ]);
            ("bad index", [ At (2, [ Here ]) ], [ g ]);
            ("a step without a premise", both, [ g ]);
            ("a premise without a step", [ At (0, [ Here ]) ], [ g; g ]);
            ("a step over its own output", [ At (0, [ Here; Here ]) ], [ g; g ]) ] );
    ( "rw_bind_assoc rejects captures",
      fun () ->
        let x = ("x", Ty.Tint) in
        let inner = M.Bind (M.Return (E.int_e 1), M.Pvar ("x", Ty.Tint), M.Return (E.Var ("x", Ty.Tint))) in
        ignore inner;
        (* (do x <- A; B od) >>= λy. C where C mentions x: must fail *)
        expect_fail "assoc" (fun () ->
            Thm.by ctx
              (Rules.Rw_bind_assoc
                 ( M.Return (E.int_e 1),
                   M.Pvar (fst x, snd x),
                   M.Return (E.Var ("x", Ty.Tint)),
                   M.Pvar ("y", Ty.Tint),
                   M.Return (E.Var ("x", Ty.Tint)) ))
              []) );
    ( "rw_inline alpha-renames capturing binders",
      fun () ->
        (* do v <- return x; do x <- return 1; return (v, x) od od:
           inlining v := x must not capture under the inner binder. *)
        let inner =
          M.Bind
            ( M.Return (E.int_e 1),
              M.Pvar ("x", Ty.Tint),
              M.Return (E.Tuple [ E.Var ("v", Ty.Tint); E.Var ("x", Ty.Tint) ]) )
        in
        let m = M.Bind (M.Return (E.Var ("x", Ty.Tint)), M.Pvar ("v", Ty.Tint), inner) in
        let thm = Thm.by ctx (Rules.Rw_inline (m, [ 0 ])) [] in
        match Thm.concl thm with
        | J.Equiv (abs, _) -> (
          match abs with
          | M.Bind (_, M.Pvar (renamed, _), M.Return (E.Tuple [ E.Var (v1, _); E.Var (v2, _) ]))
            ->
            Alcotest.(check string) "outer var substituted" "x" v1;
            Alcotest.(check bool) "binder renamed" true (renamed <> "x");
            Alcotest.(check string) "inner use follows binder" renamed v2
          | _ -> Alcotest.fail "unexpected shape")
        | _ -> Alcotest.fail "expected equivalence" );
    ( "a repeated pattern variable is bound to its last component",
      fun () ->
        (* the interpreter binds (x, x) <- (1, 2) to x = 2; so must the
           substituting rules *)
        let x = M.Pvar ("x", Ty.Tint) and v = E.Tuple [ E.int_e 1; E.int_e 2 ] in
        let body = M.Return (E.Var ("x", Ty.Tint)) in
        List.iter
          (fun (name, rule) ->
            match Thm.concl (Thm.by ctx rule []) with
            | J.Equiv (abs, _) ->
              Alcotest.(check string) name "return 2"
                (String.trim (Ac_monad.Mprint.to_string abs))
            | _ -> Alcotest.fail "expected equivalence")
          [ ("rw_gets_bind", Rules.Rw_gets_bind (M.Gets v, M.Ptuple [ x; x ], body));
            ("rw_inline", Rules.Rw_inline (M.Bind (M.Return v, M.Ptuple [ x; x ], body), [ 0 ])) ] );
    ( "guard discharge drops established conditions only",
      fun () ->
        let g = E.Binop (E.Lt, E.Var ("x", Ty.Tnat), E.nat_e 5) in
        let m =
          M.Bind (M.Guard (Ir.Unsigned_overflow, g), M.Pwild,
                  M.Bind (M.Guard (Ir.Unsigned_overflow, g), M.Pwild, M.Return E.unit_e))
        in
        let thm = Thm.by ctx (Rules.Rw_discharge m) [] in
        (match Thm.concl thm with
        | J.Equiv (abs, _) ->
          let count = ref 0 in
          let rec go m =
            match m with
            | M.Guard _ -> incr count
            | M.Bind (a, _, b) -> go a; go b
            | _ -> ()
          in
          go abs;
          Alcotest.(check int) "one guard left" 1 !count
        | _ -> Alcotest.fail "expected equivalence");
        (* a heap write between heap-reading guards must block discharge *)
        let hg =
          E.Binop (E.Eq, E.TypedRead (Ty.Cword (Ty.Unsigned, Ty.W32), E.Var ("p", Ty.Tptr (Ty.Cword (Ty.Unsigned, Ty.W32)))), E.word_e Ty.Unsigned Ty.W32 0)
        in
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let m2 =
          M.Bind (M.Guard (Ir.Unsigned_overflow, hg), M.Pwild,
                  M.Bind (M.Modify [ M.Typed_write (cty, E.Var ("p", Ty.Tptr cty), E.word_e Ty.Unsigned Ty.W32 1) ], M.Pwild,
                          M.Bind (M.Guard (Ir.Unsigned_overflow, hg), M.Pwild, M.Return E.unit_e)))
        in
        match Thm.concl (Thm.by ctx (Rules.Rw_discharge m2) []) with
        | J.Equiv (abs, _) ->
          let count = ref 0 in
          let rec go m =
            match m with
            | M.Guard _ -> incr count
            | M.Bind (a, _, b) -> go a; go b
            | _ -> ()
          in
          go abs;
          Alcotest.(check int) "both guards kept" 2 !count
        | _ -> Alcotest.fail "expected equivalence" );
    ( "derivation checker rejects tampered conclusions",
      fun () ->
        (* Thm.t is abstract: we check instead that check accepts a valid
           derivation and that a re-check under a context without the
           registration it was built under fails. *)
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        let thm = Thm.by c (Rules.W_abs (J.Cunat Ty.W32, [], M.Return (E.Var ("x", u32)))) [] in
        Alcotest.(check bool) "valid in its ctx" true (Thm.check c thm = Ok ());
        Alcotest.(check bool) "invalid without registration" true (Thm.check ctx thm <> Ok ()) );
    ( "custom rules are consulted by name",
      fun () ->
        let magic = E.Var ("magic", u32) in
        let one = E.int_e 1 in
        Rules.register_custom_rule "test_rule" (fun _ _ e ->
            if E.equal e magic then Some (E.true_e, J.Cid, one, e) else None);
        (* an extension whose concrete side is not the visited node *)
        Rules.register_custom_rule "test_wrong_side" (fun _ _ e ->
            if E.equal e magic then Some (E.true_e, J.Cid, one, E.int_e 0) else None);
        let ret = M.Return magic in
        Alcotest.(check bool) "consulted when named" true
          (M.equal (wa ~exts:[ "test_rule" ] ctx J.Cid ret) (M.Return one));
        Alcotest.(check bool) "not consulted unnamed" true (M.equal (wa ctx J.Cid ret) ret);
        Alcotest.(check bool) "a result for another node is not taken" true
          (M.equal (wa ~exts:[ "test_wrong_side" ] ctx J.Cid ret) ret);
        expect_fail "unknown" (fun () ->
            Thm.by ctx (Rules.W_abs (J.Cid, [ "no_such_rule" ], ret)) []) );
    ( "inferences refuse a negative loop component and a 64-bit exit code, never raise",
      fun () ->
        (* [Rules.infer] itself, without [Thm]'s refusal wrapper *)
        let pv x = M.Pvar (x, u32) and v x = E.Var (x, u32) in
        let ab = E.Tuple [ v "a"; v "b" ] in
        let big =
          E.Const (Value.vword Ty.Unsigned (Ac_word.of_bignum Ty.W64 (B.pred (B.pow2 64))))
        in
        let throw = M.Throw (E.Tuple [ big; E.unit_e ]) in
        List.iter
          (fun (what, rule) ->
            match Rules.infer ctx rule [] with
            | Ok _ | Error _ -> ()
            | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
          [ ( "rw_prune_loop -1",
              Rules.Rw_prune_loop
                (-1, M.Ptuple [ pv "a"; pv "b" ], E.true_e, M.Return ab, ab,
                 M.Ptuple [ pv "c"; pv "d" ], M.Return E.unit_e) );
            ( "rw_try_nothrow",
              Rules.Rw_try_nothrow (throw, M.Pwild, M.Cond (E.true_e, M.Fail, M.Throw E.unit_e)) );
            ( "rw_elim_returns",
              Rules.Rw_elim_returns (M.Try (throw, M.Pwild, M.Return (E.Var (Ir.ret_var, u32))), u32)
            ) ] );
    ( "rw_inline refuses a listed position that is not a return-bind",
      fun () ->
        let rule = Rules.Rw_inline (M.Bind (M.Fail, M.Pwild, M.Fail), [ 0 ]) in
        Alcotest.(check bool) "by_opt declines" true (Option.is_none (Thm.by_opt ctx rule []));
        expect_fail "by" (fun () -> Thm.by ctx rule []) );
  ]

(* Lifting linearity: a straight-line function of [n] assignments over
   [k] locals.  [Rw_lift]'s output stays within a small constant of the
   L1 body whatever [k] is (a lifting that re-tuples the modified locals at
   every statement grows with [k]: 2.5x at k = 2, 6x at k = 16), and the
   L2 derivation grows linearly in [n]. *)
let straight_line ~n ~k =
  let b = Buffer.create 4096 in
  Buffer.add_string b "unsigned f(unsigned p) {\n";
  for j = 0 to k - 1 do
    Printf.bprintf b "  unsigned v%d = p;\n" j
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "  v%d = v%d ^ (p + %du);\n" (i mod k) ((i + 1) mod k) i
  done;
  Buffer.add_string b "  return v0;\n}\n";
  Buffer.contents b

let lift_sizes ~n ~k =
  let module Driver = Autocorres.Driver in
  let res = Driver.run (straight_line ~n ~k) in
  let fr = List.hd res.Driver.funcs in
  let l1 = fr.Driver.fr_l1 in
  let rule = Rules.Rw_lift (l1.M.params, l1.M.locals, l1.M.ret_ty, l1.M.body) in
  match Thm.concl (Thm.by res.Driver.ctx rule []) with
  | J.Equiv (lifted, _) -> (M.size l1.M.body, M.size lifted, Thm.size fr.Driver.fr_l2_thm)
  | _ -> Alcotest.fail "expected equivalence"

let test_lift_linear () =
  List.iter
    (fun k ->
      let sizes = List.map (fun n -> (n, lift_sizes ~n ~k)) [ 50; 400 ] in
      List.iter
        (fun (n, (l1, lifted, _)) ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d k=%d: lifted %d <= 2 * L1 %d" n k lifted l1)
            true (lifted <= 2 * l1))
        sizes;
      let apps n = match List.assoc n sizes with _, _, a -> a in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: L2 rule applications %d at n=400 <= 9 * %d at n=50" k (apps 400)
           (apps 50))
        true
        (apps 400 <= 9 * apps 50))
    [ 2; 16 ]

(* Inlining linearity: the words [L2.convert_func] allocates on a
   straight-line function of [n] local updates over two locals.  Each
   update becomes a return-bind whose value reads the previous one; one
   top-down [Rw_inline] step composes the values as it goes, where
   inlining one binding at a time, innermost first, substitutes each value
   into the whole expression built so far (quadratic: 29x from n = 50 to
   n = 400, against 7x). *)
let l2_alloc ~n =
  let module Driver = Autocorres.Driver in
  let res = Driver.run (straight_line ~n ~k:2) in
  let l1 = (List.hd res.Driver.funcs).Driver.fr_l1 in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Autocorres.L2.convert_func res.Driver.ctx l1));
  Gc.minor_words () -. before

let test_inline_linear () =
  let small = l2_alloc ~n:50 and large = l2_alloc ~n:400 in
  Alcotest.(check bool)
    (Printf.sprintf "L2 allocates %.0f words at n=400 <= 12 * %.0f at n=50" large small)
    true
    (large <= 12. *. small)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) rule_tests
  @ [ Alcotest.test_case "lifting is linear in statements, whatever the locals" `Quick
        test_lift_linear;
      Alcotest.test_case "L2 inlining allocates linearly in local updates" `Quick
        test_inline_linear ]
