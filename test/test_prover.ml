(* Tests for the automatic prover: linear integer arithmetic, congruence
   closure, select/store (split-heap) reasoning, and the word-vs-ideal
   asymmetry the paper builds on. *)

module B = Ac_bignum
open Ac_prover
open Term

let x = Var ("x", Sint)
let y = Var ("y", Sint)
let z = Var ("z", Sint)
let l = Var ("l", Sint)
let r = Var ("r", Sint)
let h = Var ("h", Sarr Sint)
let p = Var ("p", Sint)
let q = Var ("q", Sint)

let assert_proved ?hyps name goal =
  match fst (Solver.prove ?hyps goal) with
  | Solver.Proved -> ()
  | Solver.Refuted model ->
    Alcotest.failf "%s: refuted (%s)" name
      (String.concat ", "
         (List.map
            (fun (v, value) ->
              Printf.sprintf "%s=%s" v
                (match value with
                | Term.Vint n -> B.to_string n
                | Term.Vbool b -> string_of_bool b
                | Term.Varr _ -> "<array>"
                | Term.Vseq _ -> "<sequence>"))
            model))
  | Solver.Unknown _ -> Alcotest.failf "%s: unknown" name

let assert_not_proved ?hyps name goal =
  match fst (Solver.prove ?hyps goal) with
  | Solver.Proved -> Alcotest.failf "%s: unexpectedly proved" name
  | _ -> ()

let assert_refuted ?hyps name goal =
  match fst (Solver.prove ?hyps goal) with
  | Solver.Refuted _ -> ()
  | Solver.Proved -> Alcotest.failf "%s: unexpectedly proved" name
  | Solver.Unknown _ -> Alcotest.failf "%s: no countermodel found" name

let uint_max = Int (B.pred (B.pow2 32))
let pow32 = Int (B.pow2 32)

let la_tests =
  [
    ( "transitivity of <",
      fun () -> assert_proved "lt trans" ~hyps:[ lt_t x y; lt_t y z ] (lt_t x z) );
    ( "strict chain tightening",
      fun () ->
        (* x < y < x + 2 over the integers forces y = x + 1 *)
        assert_proved "tight" ~hyps:[ lt_t x y; lt_t y (add_t x (int_of 2)) ]
          (eq_t y (add_t x one)) );
    ( "unsat detection",
      fun () ->
        assert_proved "bounds" ~hyps:[ le_t (int_of 6) x; le_t x (int_of 5) ] ff );
    ( "equality substitution",
      fun () ->
        assert_proved "subst" ~hyps:[ eq_t x (add_t y one); le_t z y ] (lt_t z x) );
    ( "coefficient tightening (omega-style)",
      fun () ->
        (* 2x = 2y + 1 has no integer solution *)
        assert_proved "parity"
          ~hyps:[ eq_t (mul_t (int_of 2) x) (add_t (mul_t (int_of 2) y) one) ]
          ff );
    ( "not valid goals are not proved",
      fun () -> assert_not_proved "x<y" ~hyps:[ le_t x y ] (lt_t x y) );
  ]

let cc_tests =
  [
    ( "congruence of unary functions",
      fun () ->
        let f t = App (Uf "f", [ t ]) in
        assert_proved "cong" ~hyps:[ eq_t x y ] (eq_t (f x) (f y)) );
    ( "transitive equality chains",
      fun () ->
        assert_proved "chain"
          ~hyps:[ eq_t (App (Uf "g", [ x ])) y; eq_t x z ]
          (eq_t (App (Uf "g", [ z ])) y) );
    ( "disequality propagation",
      fun () ->
        assert_proved "diseq"
          ~hyps:[ eq_t x y; not_t (eq_t y z) ]
          (not_t (eq_t x z)) );
  ]

let heap_tests =
  [
    ( "read over matching write",
      fun () -> assert_proved "rw" (eq_t (select_t (store_t h p x) p) x) );
    ( "read over distinct write",
      fun () ->
        assert_proved "ro"
          ~hyps:[ not_t (eq_t p q) ]
          (eq_t (select_t (store_t h p x) q) (select_t h q)) );
    ( "swap is correct on the split heap",
      fun () ->
        (* h2 = h[p := h q][q := h p]  ==>  h2 p = h q  and  h2 q = h p,
           both when p = q and when p <> q (the paper's swap statement) *)
        let h2 = store_t (store_t h p (select_t h q)) q (select_t h p) in
        assert_proved "swap q" (eq_t (select_t h2 q) (select_t h p));
        assert_proved "swap p"
          ~hyps:[ not_t (eq_t p q) ]
          (eq_t (select_t h2 p) (select_t h q));
        (* aliasing case: p = q still swaps correctly *)
        assert_proved "swap aliased" ~hyps:[ eq_t p q ]
          (eq_t (select_t h2 p) (select_t h q)) );
    ( "suzuki's challenge on split heaps (Sec 4.3)",
      fun () ->
        (* w->next = x; x->next = y; y->next = z; x->next = z;
           w->data = 1; x->data = 2; y->data = 3; z->data = 4;
           return w->next->next->data;   == 4  given distinctness *)
        let w = Var ("w", Sint)
        and xv = Var ("xv", Sint)
        and yv = Var ("yv", Sint)
        and zv = Var ("zv", Sint) in
        let next0 = Var ("next", Sarr Sint) and data0 = Var ("data", Sarr Sint) in
        let next1 = store_t next0 w xv in
        let next2 = store_t next1 xv yv in
        let next3 = store_t next2 yv zv in
        let next4 = store_t next3 xv zv in
        let data1 = store_t data0 w one in
        let data2 = store_t data1 xv (int_of 2) in
        let data3 = store_t data2 yv (int_of 3) in
        let data4 = store_t data3 zv (int_of 4) in
        let distinct =
          [ not_t (eq_t w xv); not_t (eq_t w yv); not_t (eq_t w zv);
            not_t (eq_t xv yv); not_t (eq_t xv zv); not_t (eq_t yv zv) ]
        in
        let result = select_t data4 (select_t next4 (select_t next4 w)) in
        assert_proved "suzuki" ~hyps:distinct (eq_t result (int_of 4)) );
  ]

(* The footnote-2 benchmark: the midpoint VC is automatic on ℕ but not on
   32-bit words. *)
let footnote2_tests =
  [
    ( "midpoint on naturals is automatic",
      fun () ->
        let mid = App (Div, [ add_t l r; int_of 2 ]) in
        assert_proved "mid"
          ~hyps:[ le_t zero l; le_t zero r; lt_t l r ]
          (and_t (le_t l mid) (lt_t mid r)) );
    ( "midpoint on words is refuted without the overflow precondition",
      fun () ->
        (* words modelled by their unsigned values with wraparound *)
        let mid = App (Div, [ App (Mod, [ add_t l r; pow32 ]); int_of 2 ]) in
        assert_refuted "wmid"
          ~hyps:[ le_t zero l; le_t l uint_max; le_t zero r; le_t r uint_max; lt_t l r ]
          (and_t (le_t l mid) (lt_t mid r)) );
    ( "midpoint on words with the overflow precondition is automatic",
      fun () ->
        let mid = App (Div, [ add_t l r; int_of 2 ]) in
        (* unat l + unat r <= UINT_MAX removes the mod, as word abstraction's
           guard does *)
        assert_proved "wmid ok"
          ~hyps:
            [ le_t zero l; le_t l uint_max; le_t zero r; le_t r uint_max; lt_t l r;
              le_t (add_t l r) uint_max ]
          (and_t (le_t l mid) (lt_t mid r)) );
  ]

let simp_tests =
  [
    ( "linear canonicalisation",
      fun () ->
        let a = Simp.normalize (add_t (add_t x y) (sub_t x y)) in
        Alcotest.(check string) "2x" "(* 2 x)" (Term.to_string a) );
    ( "comparisons normalise to one side",
      fun () ->
        let a = Simp.normalize (lt_t (add_t x one) (add_t x (int_of 3))) in
        Alcotest.(check string) "true" "true" (Term.to_string a) );
    ( "select over store chains",
      fun () ->
        let t = select_t (store_t (store_t h p x) q y) q in
        Alcotest.(check string) "y" "y" (Term.to_string (Simp.normalize t)) );
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    (la_tests @ cc_tests @ heap_tests @ footnote2_tests @ simp_tests)
