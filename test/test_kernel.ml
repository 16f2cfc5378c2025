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

let concl_wval thm =
  match Thm.concl thm with
  | J.Abs_w_val (p, f, a, c) -> (p, f, a, c)
  | _ -> Alcotest.fail "expected abs_w_val"

let rule_tests =
  [
    ( "w_var requires registration",
      fun () ->
        expect_fail "unregistered" (fun () -> Thm.by ctx (Rules.W_var "x") []);
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        let _, f, a, conc = concl_wval (Thm.by c (Rules.W_var "x") []) in
        Alcotest.(check bool) "conv unat" true (J.conv_equal f (J.Cunat Ty.W32));
        Alcotest.(check bool) "abstract side ideal" true (E.equal a (E.Var ("x", Ty.Tnat)));
        Alcotest.(check bool) "concrete side word" true (E.equal conc (E.Var ("x", u32))) );
    ( "w_id rejects expressions over abstracted variables",
      fun () ->
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        expect_fail "w_id" (fun () -> Thm.by c (Rules.W_id (E.Var ("x", u32))) []);
        (* but accepts anything else *)
        ignore (Thm.by c (Rules.W_id (E.Var ("y", u32))) []) );
    ( "w_sum collects the no-overflow precondition (Table 3 WSUM)",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("b", (Ty.Unsigned, Ty.W32)) ] in
        let ta = Thm.by c (Rules.W_var "a") [] in
        let tb = Thm.by c (Rules.W_var "b") [] in
        let p, _, a, _ = concl_wval (Thm.by c (Rules.W_binop (E.Add, Ty.Unsigned, Ty.W32)) [ ta; tb ]) in
        Alcotest.(check bool) "sum" true
          (E.equal a (E.Binop (E.Add, E.Var ("a", Ty.Tnat), E.Var ("b", Ty.Tnat))));
        let text = Ac_lang.Pretty.expr_to_string p in
        Alcotest.(check bool) "UINT_MAX bound" true
          (Astring.String.is_infix ~affix:"4294967295" text) );
    ( "w_sub requires the monus precondition b <= a",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("b", (Ty.Unsigned, Ty.W32)) ] in
        let ta = Thm.by c (Rules.W_var "a") [] in
        let tb = Thm.by c (Rules.W_var "b") [] in
        let p, _, _, _ = concl_wval (Thm.by c (Rules.W_binop (E.Sub, Ty.Unsigned, Ty.W32)) [ ta; tb ]) in
        Alcotest.(check bool) "b <= a" true
          (Astring.String.is_infix ~affix:"b ≤ a" (Ac_lang.Pretty.expr_to_string p)) );
    ( "signed arithmetic collects INT_MIN/INT_MAX bounds",
      fun () ->
        let c = wctx [ ("a", (Ty.Signed, Ty.W32)) ] in
        let ta = Thm.by c (Rules.W_var "a") [] in
        let p, _, _, _ =
          concl_wval (Thm.by c (Rules.W_binop (E.Mul, Ty.Signed, Ty.W32)) [ ta; ta ])
        in
        let text = Ac_lang.Pretty.expr_to_string p in
        Alcotest.(check bool) "INT_MIN" true (Astring.String.is_infix ~affix:"-2147483648" text);
        Alcotest.(check bool) "INT_MAX" true (Astring.String.is_infix ~affix:"2147483647" text) );
    ( "w_binop rejects mixed-conv premises",
      fun () ->
        let c = wctx [ ("a", (Ty.Unsigned, Ty.W32)); ("s", (Ty.Signed, Ty.W32)) ] in
        let ta = Thm.by c (Rules.W_var "a") [] in
        let ts = Thm.by c (Rules.W_var "s") [] in
        expect_fail "mixed" (fun () ->
            Thm.by c (Rules.W_binop (E.Add, Ty.Unsigned, Ty.W32)) [ ta; ts ]) );
    ( "ws_bind rejects pattern/conv mismatches",
      fun () ->
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        (* Left side returns a word-typed Cid value, but the pattern is
           registered so pat_conv = unat: the kernel must refuse. *)
        let l =
          Thm.by c Rules.Ws_ret [ Thm.by c (Rules.W_id (E.Var ("y", u32))) [] ]
        in
        let r = Thm.by c Rules.Ws_ret [ Thm.by c (Rules.W_var "x") [] ] in
        expect_fail "mismatch" (fun () ->
            Thm.by c (Rules.Ws_bind (M.Pvar ("x", u32))) [ l; r ]) );
    ( "hv_read adds the validity side condition (Table 4)",
      fun () ->
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) in
        let prem = Thm.by ctx (Rules.Hv_id p) [] in
        let thm = Thm.by ctx (Rules.Hv_read cty) [ prem ] in
        match Thm.concl thm with
        | J.Abs_h_val (pre, a, c) ->
          Alcotest.(check bool) "is_valid" true (E.equal pre (E.IsValid (cty, p)));
          Alcotest.(check bool) "typed read" true (E.equal a (E.TypedRead (cty, p)));
          Alcotest.(check bool) "concrete read" true (E.equal c (E.HeapRead (cty, p)))
        | _ -> Alcotest.fail "wrong judgment" );
    ( "hl field rules refuse an undeclared struct by their own side condition",
      fun () ->
        (* [Rules.infer] itself, not [Thm]'s wrapper that refuses any
           inference that raises. *)
        let p = E.Var ("p", Ty.Tptr (Ty.Cstruct "nosuch")) in
        let v = E.word_e Ty.Unsigned Ty.W32 1 in
        let hval e = J.Abs_h_val (E.true_e, e, e) in
        List.iter
          (fun (rule, prems, want) ->
            match Rules.infer ctx rule prems with
            | Error msg -> Alcotest.(check string) (Rules.rule_name rule) want msg
            | Ok _ -> Alcotest.failf "%s accepted an undeclared struct" (Rules.rule_name rule))
          [ (Rules.Hv_read_field ("nosuch", "f"), [ hval p ], "hv_read_field: undeclared struct");
            ( Rules.Hs_write_field ("nosuch", "f"),
              [ hval p; hval v ],
              "hs_write_field: undeclared struct" ) ] );
    ( "hs_id takes only a statement that never touches the byte heap",
      fun () ->
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let p = E.Var ("p", Ty.Tptr cty) and x = E.Var ("x", u32) in
        let read = E.HeapRead (cty, p) in
        let set e = M.Modify [ M.Local_set ("x", e) ] in
        let ok = M.Bind (set x, M.Pwild, M.Cond (E.Binop (E.Lt, x, x), M.Fail, M.Throw x)) in
        (match Thm.concl (Thm.by ctx (Rules.Hs_id ok) []) with
        | J.Abs_h_stmt (a, c) -> Alcotest.(check bool) "identity" true (a == ok && c == ok)
        | _ -> Alcotest.fail "wrong judgment");
        List.iter
          (fun (what, m) ->
            expect_fail what (fun () ->
                Thm.by ctx (Rules.Hs_id (M.Bind (set x, M.Pwild, m))) []))
          [ ("heap read", set read);
            ("heap write", M.Modify [ M.Heap_write (cty, p, x) ]);
            ("retype", M.Modify [ M.Retype (cty, p) ]);
            ("pointer guard", M.Guard (Ir.Ptr_valid, E.Binop (E.Eq, x, x)));
            ( "guard strengthen_positive rewrites",
              M.Guard (Ir.Div_by_zero, E.Binop (E.And, E.PtrAligned (cty, p), E.PtrSpan (cty, p))) );
            ( "heap read in a loop condition",
              M.While (M.Pwild, E.Binop (E.Lt, read, x), M.skip, E.unit_e) );
            ("call", M.Call ("f", [ x ]));
            ("exec_concrete", M.Exec_concrete ("f", [ x ])) ] );
    ( "hv_id rejects byte-heap reads",
      fun () ->
        let cty = Ty.Cword (Ty.Unsigned, Ty.W32) in
        let e = E.HeapRead (cty, E.Var ("p", Ty.Tptr cty)) in
        expect_fail "hv_id" (fun () -> Thm.by ctx (Rules.Hv_id e) []) );
    ( "eq_trans rejects mismatched middles",
      fun () ->
        let a = M.Return (E.int_e 1) and b = M.Return (E.int_e 2) in
        let t1 = Thm.by ctx (Rules.Eq_refl a) [] in
        let t2 = Thm.by ctx (Rules.Eq_refl b) [] in
        expect_fail "trans" (fun () -> Thm.by ctx Rules.Eq_trans [ t1; t2 ]) );
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
        (* Thm.t is abstract: we check instead that check accepts valid
           derivations and that a wrong-ctx re-check fails for w_var. *)
        let c = wctx [ ("x", (Ty.Unsigned, Ty.W32)) ] in
        let thm = Thm.by c (Rules.W_var "x") [] in
        Alcotest.(check bool) "valid in its ctx" true (Thm.check c thm = Ok ());
        Alcotest.(check bool) "invalid without registration" true (Thm.check ctx thm <> Ok ()) );
    ( "custom rules are consulted by name",
      fun () ->
        Rules.register_custom_rule "test_rule" (fun _ _ ->
            Result.ok (J.Abs_w_val (E.true_e, J.Cid, E.int_e 1, E.int_e 1)));
        ignore (Thm.by ctx (Rules.W_custom "test_rule") []);
        expect_fail "unknown" (fun () -> Thm.by ctx (Rules.W_custom "no_such_rule") []) );
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
