(* End-to-end tests of the AutoCorres pipeline: output shapes (matching the
   paper's figures), kernel re-validation, and differential refinement
   testing of the generated abstractions against the Simpl semantics. *)

module B = Ac_bignum
module W = Ac_word
module Ty = Ac_lang.Ty
module Value = Ac_lang.Value
module M = Ac_monad.M
module Mprint = Ac_monad.Mprint
module Driver = Autocorres.Driver
module Refine_test = Autocorres.Refine_test
module Check_cache = Autocorres.Check_cache
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

let contains text needle = Astring.String.is_infix ~affix:needle text

let max_c = "int max(int a, int b) {\n  if (a < b)\n    return b;\n  return a;\n}\n"

let gcd_c =
  "unsigned gcd(unsigned a, unsigned b) {\n\
  \  while (b != 0u) { unsigned t = b; b = a % b; a = t; }\n\
  \  return a;\n}\n"

let swap_c = "void swap(unsigned *a, unsigned *b) { unsigned t = *a; *a = *b; *b = t; }"

let reverse_c =
  "struct node { struct node *next; unsigned data; };\n\
   struct node *reverse(struct node *list) {\n\
  \  struct node *rev = NULL;\n\
  \  while (list) {\n\
  \    struct node *next = list->next;\n\
  \    list->next = rev; rev = list; list = next;\n\
  \  }\n\
  \  return rev;\n}\n"

let schorr_waite_c =
  "struct node { struct node *l; struct node *r; unsigned m; unsigned c; };\n\
   void schorr_waite(struct node *root) {\n\
  \  struct node *t = root; struct node *p = NULL; struct node *q;\n\
  \  while (p != NULL || (t != NULL && !t->m)) {\n\
  \    if (t == NULL || t->m) {\n\
  \      if (p->c) { q = t; t = p; p = p->r; t->r = q; }\n\
  \      else { q = t; t = p->r; p->r = p->l; p->l = q; p->c = 1u; }\n\
  \    } else { q = p; p = t; t = t->l; p->l = q; p->m = 1u; p->c = 0u; }\n\
  \  }\n}\n"

let fact_c =
  "unsigned fact(unsigned n) { if (n == 0u) return 1u; unsigned r; r = fact(n - 1u); \
   return n * r; }"

let mid_c = "unsigned mid(unsigned l, unsigned r) { unsigned m = (l + r) / 2u; return m; }"

let field_c =
  "struct pair { int fst; int snd; };\n\
   int swap_fields(struct pair *p) { int t = p->fst; p->fst = p->snd; p->snd = t; return \
   p->fst; }"

let breaks_c =
  "int first_above(int *a, int n, int limit) {\n\
  \  int i = 0; int found = 0 - 1;\n\
  \  while (i < n) { if (a[i] > limit) { found = i; break; } i = i + 1; }\n\
  \  return found;\n}\n"

let globals_c =
  "unsigned counter;\n\
   void bump(unsigned by) { counter = counter + by; }\n\
   unsigned twice(unsigned x) { bump(x); bump(x); return counter; }\n"

let memset_c =
  "void my_memset(unsigned char *p, unsigned char v, unsigned n) {\n\
  \  unsigned i = 0u;\n\
  \  while (i < n) { p[i] = v; i = i + 1u; }\n}\n"

let corpus =
  [
    ("max", max_c); ("gcd", gcd_c); ("swap", swap_c); ("reverse", reverse_c);
    ("schorr_waite", schorr_waite_c); ("fact", fact_c); ("mid", mid_c);
    ("fields", field_c); ("breaks", breaks_c); ("globals", globals_c);
    ("memset", memset_c);
  ]

let final_text res fname =
  match Driver.find_result res fname with
  | Some fr -> Mprint.func_to_string fr.Driver.fr_final
  | None -> Alcotest.fail ("no result for " ^ fname)

let shape_tests =
  [
    ( "max abstracts to the paper's output (Fig 2)",
      fun () ->
        let res = Driver.run max_c in
        let out = final_text res "max" in
        let squeeze s =
          String.concat " "
            (List.filter (fun w -> w <> "") (String.split_on_char ' '
               (String.concat " " (String.split_on_char '\n' s))))
        in
        Alcotest.(check string) "max'" "max' a b ≡ return (if a < b then b else a)"
          (squeeze out) );
    ( "swap with heap abstraction matches Fig 5",
      fun () ->
        let options =
          { Driver.default_options with
            defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = true } }
        in
        let res = Driver.run ~options swap_c in
        let out = final_text res "swap" in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains out needle))
          [ "guard (λs. is_valid_w32 s a)"; "guard (λs. is_valid_w32 s b)";
            "s[a := s[b]]"; "s[b := t]"; "t ← gets (λs. s[a])" ];
        (* exactly two validity guards survive de-duplication, as in Fig 5 *)
        let count_guards s =
          let rec go i n =
            match Astring.String.find_sub ~start:i ~sub:"guard" s with
            | Some j -> go (j + 1) (n + 1)
            | None -> n
          in
          go 0 0
        in
        Alcotest.(check int) "two guards" 2 (count_guards out) );
    ( "swap without heap abstraction keeps the byte-level model (Fig 3)",
      fun () ->
        let options =
          { Driver.default_options with
            defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = false } }
        in
        let res = Driver.run ~options swap_c in
        let out = final_text res "swap" in
        Alcotest.(check bool) "ptr_aligned" true (contains out "ptr_aligned");
        Alcotest.(check bool) "byte-level read" true (contains out "read[u32]");
        Alcotest.(check bool) "no typed heap" false (contains out "is_valid") );
    ( "gcd abstracts to ideal arithmetic",
      fun () ->
        let res = Driver.run gcd_c in
        let out = final_text res "gcd" in
        Alcotest.(check bool) "ideal mod" true (contains out "a mod b");
        Alcotest.(check bool) "no word mod" false (contains out "modw32");
        Alcotest.(check bool) "guard discharged" false (contains out "guard") );
    ( "midpoint gains an overflow guard (Sec 3.2)",
      fun () ->
        let res = Driver.run mid_c in
        let out = final_text res "mid" in
        Alcotest.(check bool) "overflow guard" true (contains out "l + r ≤ 4294967295");
        Alcotest.(check bool) "ideal div" true (contains out "l + r) div 2") );
    ( "reverse output matches Fig 6's structure",
      fun () ->
        let res = Driver.run reverse_c in
        let out = final_text res "reverse" in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains out needle))
          [ "whileLoop"; "is_valid_node_C"; "s[list].next"; "(|next := rev|)"; "NULL" ] );
    ( "pipeline skips nothing on the corpus",
      fun () ->
        List.iter
          (fun (name, src) ->
            let res = Driver.run src in
            List.iter
              (fun fr ->
                List.iter
                  (fun (phase, why) ->
                    Alcotest.failf "%s/%s skipped %s: %s" name fr.Driver.fr_name phase why)
                  fr.Driver.fr_skipped)
              res.Driver.funcs)
          corpus );
  ]

(* A copy of the genuine theorem node [thm] with one field overwritten:
   0 is the conclusion, 1 the rule.  The kernel has no constructor for such
   a theorem, so the tests that need a tampered certificate forge one. *)
let forged thm field v =
  let r = Obj.repr thm in
  (* the layout this relies on: concl first, then the rule *)
  assert (Obj.field r 0 == Obj.repr (Thm.concl thm));
  assert (Obj.field r 1 == Obj.repr (Thm.rule thm));
  let r' = Obj.dup r in
  Obj.set_field r' field (Obj.repr v);
  (Obj.obj r' : Thm.t)

(* Both the kernel's checker and the memoized one refuse each theorem. *)
let both_refuse ctx cases =
  List.iter
    (fun (what, t) ->
      Alcotest.(check bool) (what ^ ": kernel check refuses") true
        (Result.is_error (Thm.check ctx t));
      Alcotest.(check bool) (what ^ ": cached check refuses") true
        (Result.is_error (Check_cache.check (Check_cache.create ctx) t)))
    cases

let kernel_tests =
  [
    ( "all derivations re-validate on the corpus",
      fun () ->
        List.iter
          (fun (name, src) ->
            let res = Driver.run src in
            match Driver.check_all res with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" name e)
          corpus );
    ( "every function gets an end-to-end Fn_refines chain",
      fun () ->
        List.iter
          (fun (name, src) ->
            let res = Driver.run src in
            List.iter
              (fun fr ->
                match fr.Driver.fr_chain with
                | Some _ -> ()
                | None -> Alcotest.failf "%s/%s: no chain" name fr.Driver.fr_name)
              res.Driver.funcs)
          corpus );
    ( "hl: a forged heap-abstraction image is refused by both checkers",
      fun () ->
        (* HL is one kernel step per function, like L1: the checkers
           recompute the image, so a genuine node with its conclusion
           overwritten is refused. *)
        let res = Driver.run reverse_c in
        let fr = Option.get (Driver.find_result res "reverse") in
        let hl = Option.get fr.Driver.fr_hl_thm and ctx = res.Driver.ctx in
        let a, c =
          match Thm.concl hl with
          | J.Abs_h_stmt (a, c) -> (a, c)
          | _ -> Alcotest.fail "fr_hl_thm concludes no abs_h_stmt"
        in
        Alcotest.(check bool) "hl is one rule over the whole body" true
          (Thm.size hl = 1 && Thm.rule hl = Rules.Hl c);
        let unguarded =
          (* the image with every pointer-validity guard made vacuous *)
          let rec go (m : M.t) : M.t =
            match m with
            | M.Guard (Ir.Ptr_valid, _) -> M.Guard (Ir.Ptr_valid, Ac_lang.Expr.true_e)
            | M.Bind (x, p, y) -> M.Bind (go x, p, go y)
            | M.Try (x, p, y) -> M.Try (go x, p, go y)
            | M.Cond (e, x, y) -> M.Cond (e, go x, go y)
            | M.While (p, e, body, i) -> M.While (p, e, go body, i)
            | m -> m
          in
          go a
        in
        Alcotest.(check bool) "the image has a guard to forge away" false (M.equal unguarded a);
        both_refuse ctx
          [ ("identity image", forged hl 0 (J.Abs_h_stmt (c, c)));
            ("guards made vacuous", forged hl 0 (J.Abs_h_stmt (unguarded, c)));
            ("another term's image", forged hl 1 (Rules.Hl fr.Driver.fr_l1.M.body)) ];
        Alcotest.(check bool) "the genuine hl theorem checks" true
          (Thm.check ctx hl = Ok () && Check_cache.check (Check_cache.create ctx) hl = Ok ()) );
    ( "derivations are substantial (not vacuous)",
      fun () ->
        let res = Driver.run reverse_c in
        let fr = Option.get (Driver.find_result res "reverse") in
        (* L1 is one kernel step: what keeps it from being vacuous is that
           the kernel computes the image itself and takes no premise. *)
        let l1 = fr.Driver.fr_l1_thm in
        let ctx = res.Driver.ctx in
        let s, m =
          match Thm.concl l1 with
          | J.Corres_l1 (s, m) -> (s, m)
          | _ -> Alcotest.fail "fr_l1_thm concludes no corres_l1"
        in
        Alcotest.(check bool) "l1 is one rule over the whole body" true
          (Thm.size l1 = 1 && Thm.rule l1 = Rules.L1 s);
        Alcotest.(check bool) "an l1 instance with premises is refused" true
          (Result.is_error (Rules.infer ctx (Rules.L1 s) [ Thm.concl l1 ]));
        (* A certificate whose conclusion or statement was tampered with:
           both checkers recompute the image and refuse it. *)
        let mutated = Ir.Seq (s, Ir.Skip) and skip = M.Return Ac_lang.Expr.unit_e in
        both_refuse ctx
          [ ("vacuous image", forged l1 0 (J.Corres_l1 (s, skip)));
            ("image of another statement", forged l1 0 (J.Corres_l1 (s, Rules.l1_image mutated)));
            ("equivalent, not the image", forged l1 0 (J.Corres_l1 (s, M.Bind (m, M.Pwild, skip))));
            ("mutated statement", forged l1 1 (Rules.L1 mutated)) ];
        Alcotest.(check bool) "the genuine l1 theorem checks" true
          (Thm.check ctx l1 = Ok () && Check_cache.check (Check_cache.create ctx) l1 = Ok ());
        (* WA is one kernel step too, computed under the function's
           variable registration: mid's image guards the sum. *)
        let wa_of src name =
          let res = Driver.run src in
          let fr = Option.get (Driver.find_result res name) in
          (Option.get fr.Driver.fr_wa_thm, { res.Driver.ctx with Rules.wvars = fr.Driver.fr_wa_wvars },
           Option.value fr.Driver.fr_hl ~default:fr.Driver.fr_l2)
        in
        let wa, ctx, before = wa_of mid_c "mid" in
        let rx, ex, a, c =
          match Thm.concl wa with
          | J.Abs_w_stmt (_, rx, ex, a, c) -> (rx, ex, a, c)
          | _ -> Alcotest.fail "fr_wa_thm concludes no abs_w_stmt"
        in
        Alcotest.(check bool) "wa is one rule over the whole body" true
          (Thm.size wa = 1
          && match Thm.rule wa with Rules.W_abs (_, [], m) -> m == c && M.equal m before.M.body | _ -> false);
        Alcotest.(check bool) "a w_abs instance with premises is refused" true
          (Result.is_error (Rules.infer ctx (Thm.rule wa) [ Thm.concl wa ]));
        let rec unguarded (m : M.t) : M.t =
          match m with
          | M.Bind (M.Guard (Ir.Unsigned_overflow, _), M.Pwild, m) -> unguarded m
          | M.Bind (x, p, y) -> M.Bind (unguarded x, p, unguarded y)
          | M.Try (x, p, y) -> M.Try (unguarded x, p, unguarded y)
          | M.Cond (e, x, y) -> M.Cond (e, unguarded x, unguarded y)
          | M.While (p, e, body, i) -> M.While (p, e, unguarded body, i)
          | m -> m
        in
        Alcotest.(check bool) "the image has a no-overflow guard to drop" false (M.equal (unguarded a) a);
        let gcd_wa, _, _ = wa_of gcd_c "gcd" in
        let true_e = Ac_lang.Expr.true_e in
        both_refuse ctx
          [ ("identity image", forged wa 0 (J.Abs_w_stmt (true_e, rx, ex, c, c)));
            ("no-overflow guard dropped", forged wa 0 (J.Abs_w_stmt (true_e, rx, ex, unguarded a, c)));
            ("another function's w_abs", forged wa 1 (Thm.rule gcd_wa)) ];
        Alcotest.(check bool) "the genuine wa theorem checks" true
          (Thm.check ctx wa = Ok () && Check_cache.check (Check_cache.create ctx) wa = Ok ()) );
  ]

let differential_tests =
  List.map
    (fun (name, src) ->
      ( Printf.sprintf "refinement holds on random states: %s" name,
        fun () ->
          let res = Driver.run src in
          let report = Refine_test.check_program ~cases:60 res in
          (match report.Refine_test.violations with
          | [] -> ()
          | (f, d) :: _ -> Alcotest.failf "%s.%s: %s" name f d);
          Alcotest.(check bool) "some cases executed" true (report.Refine_test.agreed > 0) ))
    corpus

let exec_tests =
  [
    ( "abstracted max computes max over ideal integers",
      fun () ->
        let res = Driver.run max_c in
        let vi n = Value.Vint (B.of_int n) in
        match
          Ac_monad.Interp.run_func res.Driver.final_prog ~fuel:1000
            Ac_simpl.State.empty "max" [ vi 3; vi 7 ]
        with
        | Ac_monad.Interp.Returns (v, _) ->
          Alcotest.(check string) "max 3 7" "7" (Value.to_string v)
        | _ -> Alcotest.fail "execution failed" );
    ( "abstracted gcd equals Euclid on naturals",
      fun () ->
        let res = Driver.run gcd_c in
        let vn n = Value.vnat (B.of_int n) in
        List.iter
          (fun (a, b, expect) ->
            match
              Ac_monad.Interp.run_func res.Driver.final_prog ~fuel:10000
                Ac_simpl.State.empty "gcd" [ vn a; vn b ]
            with
            | Ac_monad.Interp.Returns (v, _) ->
              Alcotest.(check string) "gcd" (string_of_int expect) (Value.to_string v)
            | _ -> Alcotest.fail "execution failed")
          [ (54, 24, 6); (17, 5, 1); (0, 9, 9); (9, 0, 9) ] );
    ( "recursive fact abstracts and runs",
      fun () ->
        let res = Driver.run fact_c in
        let vn n = Value.vnat (B.of_int n) in
        match
          Ac_monad.Interp.run_func res.Driver.final_prog ~fuel:10000
            Ac_simpl.State.empty "fact" [ vn 5 ]
        with
        | Ac_monad.Interp.Returns (v, _) ->
          Alcotest.(check string) "5!" "120" (Value.to_string v)
        | Ac_monad.Interp.Fails m -> Alcotest.fail ("fails: " ^ m)
        | _ -> Alcotest.fail "execution failed" );
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (shape_tests @ kernel_tests @ exec_tests @ differential_tests)
