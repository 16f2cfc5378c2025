module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir

(* Judgment forms of the refinement kernel.

   These mirror the paper's definitions:

   - [Corres_l1 (c, m)]      : the monadic term [m] is a sound L1 image of
                               the Simpl statement [c] (Table 1 pairing).
   - [Equiv (a, c)]          : [a] and [c] are semantically equal monadic
                               programs (the L2 rewrite steps).
   - [Abs_w_val (P,f,a,c)]   : paper Sec 3.3: under precondition [P],
                               [a] = [f c] — the value abstraction judgment.
   - [Abs_w_stmt (P,rx,ex,a,c)] : paper's abs_w_stmt refinement between a
                               word-abstracted program and its concrete
                               original.
   - [Abs_h_val (P, a, c)]   : paper Sec 4.5: P (st s) --> c s = a (st s).
   - [Abs_h_stmt (a, c)]     : paper's abs_h_stmt heap-abstraction
                               refinement (st is fixed by the program's
                               heap-type inventory).
   - [Fn_refines]            : whole-function refinement, chaining a
                               function's pipeline stages. *)

(* Value abstraction functions (the paper's rx/ex/f).  [Cunat]/[Csint] are
   the unat/sint projections at a given width; [Ctuple] abstracts
   local-variable tuples componentwise. *)
type conv =
  | Cid
  | Cunat of Ty.width
  | Csint of Ty.width
  | Ctuple of conv list

let rec conv_equal a b =
  match (a, b) with
  | Cid, Cid -> true
  | Cunat w1, Cunat w2 | Csint w1, Csint w2 -> w1 = w2
  | Ctuple xs, Ctuple ys -> List.length xs = List.length ys && List.for_all2 conv_equal xs ys
  | (Cid | Cunat _ | Csint _ | Ctuple _), _ -> false

let rec pp_conv fmt = function
  | Cid -> Format.pp_print_string fmt "id"
  | Cunat _ -> Format.pp_print_string fmt "unat"
  | Csint _ -> Format.pp_print_string fmt "sint"
  | Ctuple cs ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " × ") pp_conv)
      cs

(* The ideal type a conversion produces. *)
let rec conv_target_ty (c : conv) (src : Ty.t) : Ty.t =
  match (c, src) with
  | Cid, t -> t
  | Cunat _, _ -> Ty.Tnat
  | Csint _, _ -> Ty.Tint
  | Ctuple cs, Ty.Ttuple ts when List.length cs = List.length ts ->
    Ty.Ttuple (List.map2 conv_target_ty cs ts)
  | Ctuple _, t -> t

(* Apply a conversion to a runtime value (used by the differential tester
   to realise the judgment semantics). *)
let rec apply_conv (c : conv) (v : Ac_lang.Value.t) : Ac_lang.Value.t =
  let module Value = Ac_lang.Value in
  let module W = Ac_word in
  match (c, v) with
  | Cid, v -> v
  | Cunat _, Value.Vword (_, w) -> Value.Vnat (W.unat w)
  | Csint _, Value.Vword (_, w) -> Value.Vint (W.sint w)
  | Ctuple cs, Value.Vtuple vs when List.length cs = List.length vs ->
    Value.Vtuple (List.map2 apply_conv cs vs)
  | _ -> raise (Value.Type_mismatch "apply_conv")

(* Re-concretisation: the word whose abstraction is [e], on in-range
   values (of_nat/of_int). *)
let unconv_expr (c : conv) sign (e : E.t) : E.t =
  match c with
  | Cid -> e
  | Cunat w | Csint w -> E.Cast (Ty.Tword (sign, w), e)
  | Ctuple _ -> invalid_arg "unconv_expr: tuple"

type judgment =
  | Corres_l1 of Ir.stmt * M.t
  | Equiv of M.t * M.t
  | Abs_w_val of E.t * conv * E.t * E.t (* P, f, abstract, concrete *)
  | Abs_w_stmt of E.t * conv * conv * M.t * M.t (* P, rx, ex, A, C *)
  | Abs_h_val of E.t * E.t * E.t (* P, abstract, concrete *)
  | Abs_h_stmt of M.t * M.t
  | Fn_refines of string * M.t * M.t (* function name, final abstract body, source body *)

let judgment_equal a b =
  a == b
  ||
  match (a, b) with
  | Corres_l1 (s1, m1), Corres_l1 (s2, m2) -> Ir.stmt_equal s1 s2 && M.equal m1 m2
  | Equiv (a1, c1), Equiv (a2, c2) | Abs_h_stmt (a1, c1), Abs_h_stmt (a2, c2) ->
    M.equal a1 a2 && M.equal c1 c2
  | Abs_w_val (p1, f1, a1, c1), Abs_w_val (p2, f2, a2, c2) ->
    E.equal p1 p2 && conv_equal f1 f2 && E.equal a1 a2 && E.equal c1 c2
  | Abs_w_stmt (p1, r1, e1, a1, c1), Abs_w_stmt (p2, r2, e2, a2, c2) ->
    E.equal p1 p2 && conv_equal r1 r2 && conv_equal e1 e2 && M.equal a1 a2 && M.equal c1 c2
  | Abs_h_val (p1, a1, c1), Abs_h_val (p2, a2, c2) ->
    E.equal p1 p2 && E.equal a1 a2 && E.equal c1 c2
  | Fn_refines (n1, a1, c1), Fn_refines (n2, a2, c2) ->
    String.equal n1 n2 && M.equal a1 a2 && M.equal c1 c2
  | (Corres_l1 _ | Equiv _ | Abs_w_val _ | Abs_w_stmt _ | Abs_h_val _ | Abs_h_stmt _ | Fn_refines _), _
    ->
    false

let pp_judgment fmt (j : judgment) =
  let pe = Ac_lang.Pretty.pp_expr ~ctx:0 in
  let pm = Ac_monad.Mprint.pp in
  match j with
  | Corres_l1 (_, m) -> Format.fprintf fmt "corres_l1 ⟨simpl⟩ (%a)" pm m
  | Equiv (a, c) -> Format.fprintf fmt "(%a) ≡ (%a)" pm a pm c
  | Abs_w_val (p, f, a, c) ->
    Format.fprintf fmt "abs_w_val (%a) %a (%a) (%a)" pe p pp_conv f pe a pe c
  | Abs_w_stmt (p, rx, ex, a, c) ->
    Format.fprintf fmt "abs_w_stmt (%a) %a %a (%a) (%a)" pe p pp_conv rx pp_conv ex pm a pm c
  | Abs_h_val (p, a, c) -> Format.fprintf fmt "abs_h_val (%a) (%a) (%a)" pe p pe a pe c
  | Abs_h_stmt (a, c) -> Format.fprintf fmt "abs_h_stmt (%a) (%a)" pm a pm c
  | Fn_refines (n, _, _) -> Format.fprintf fmt "fn_refines %s" n
