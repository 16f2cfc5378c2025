(* The pure expression language shared by every pipeline level.

   A single AST covers expressions over machine words (C-parser output),
   ideal integers and naturals (word-abstraction output), the byte-level heap
   (concrete reads) and the typed split heaps (heap-abstraction output).
   Each abstraction phase is a source-to-source transformation on this
   language that eliminates the low-level constructs in favour of the
   high-level ones, together with a proof that doing so was sound. *)

module B = Ac_bignum
module W = Ac_word
module SMap = Map.Make (String)

type unop =
  | Neg (* arithmetic negation *)
  | Bnot (* bitwise complement, words only *)
  | Not (* boolean negation *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Imp

type t =
  | Const of Value.t
  | Var of string * Ty.t (* lambda/locally bound variable *)
  | Global of string * Ty.t (* global variable (part of state) *)
  | Unop of unop * t
  | Binop of binop * t * t (* operand types select machine vs ideal semantics *)
  | Ite of t * t * t
  | Cast of Ty.t * t (* C casts and ideal->word reconcretisation *)
  | OfWord of Ty.t * t (* unat / sint: word -> nat / int *)
  | HeapRead of Ty.cty * t (* concrete: decode bytes at pointer *)
  | TypedRead of Ty.cty * t (* abstract: s[p] on the typed heap *)
  | IsValid of Ty.cty * t (* abstract: is_valid_τ s p *)
  | PtrAligned of Ty.cty * t (* concrete guard: alignment *)
  | PtrSpan of Ty.cty * t (* concrete guard: 0 ∉ {p ..+ size τ} *)
  | PtrAdd of Ty.cty * t * t (* pointer arithmetic, scaled by sizeof *)
  | FieldAddr of string * string * t (* &(p->f) for struct sname *)
  | StructGet of string * string * t (* (v :: struct sname).f *)
  | StructSet of string * string * t * t (* v with field f := x *)
  | Tuple of t list
  | Proj of int * t

exception Type_error of string

let type_error fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Smart constructors for common shapes. *)

let unit_e = Const Vunit
let bool_e b = Const (Vbool b)
let true_e = bool_e true
let false_e = bool_e false
let int_e n = Const (Value.vint (B.of_int n))
let nat_e n = Const (Value.vnat (B.of_int n))
let word_e sign width n = Const (Value.vword sign (W.of_int width n))
let big_int_e n = Const (Value.vint n)
let big_nat_e n = Const (Value.vnat n)
let null_e cty = Const (Value.null cty)
let var v ty = Var (v, ty)

let not_e = function
  | Const (Value.Vbool b) -> bool_e (not b)
  | Unop (Not, e) -> e
  | e -> Unop (Not, e)

let and_e a b =
  match (a, b) with
  | Const (Value.Vbool true), x | x, Const (Value.Vbool true) -> x
  | Const (Value.Vbool false), _ | _, Const (Value.Vbool false) -> false_e
  | _ -> Binop (And, a, b)

let or_e a b =
  match (a, b) with
  | Const (Value.Vbool false), x | x, Const (Value.Vbool false) -> x
  | Const (Value.Vbool true), _ | _, Const (Value.Vbool true) -> true_e
  | _ -> Binop (Or, a, b)

let imp_e a b =
  match (a, b) with
  | Const (Value.Vbool true), x -> x
  | Const (Value.Vbool false), _ -> true_e
  | _, Const (Value.Vbool true) -> true_e
  | _ -> Binop (Imp, a, b)

let conj = function [] -> true_e | e :: es -> List.fold_left and_e e es

let eq_e a b = Binop (Eq, a, b)

(* ------------------------------------------------------------------ *)
(* Structural operations. *)

(* The physical fast path makes shared subterms compare in O(1) — the
   rewrite engine's congruence steps share every unchanged child, so deep
   re-comparison along the transitivity spine short-circuits. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Const u, Const v -> Value.equal u v
  | Var (x, t), Var (y, u) -> String.equal x y && Ty.equal t u
  | Global (x, t), Global (y, u) -> String.equal x y && Ty.equal t u
  | Unop (o, x), Unop (p, y) -> o = p && equal x y
  | Binop (o, x1, x2), Binop (p, y1, y2) -> o = p && equal x1 y1 && equal x2 y2
  | Ite (c, x1, x2), Ite (d, y1, y2) -> equal c d && equal x1 y1 && equal x2 y2
  | Cast (t, x), Cast (u, y) | OfWord (t, x), OfWord (u, y) -> Ty.equal t u && equal x y
  | HeapRead (c, x), HeapRead (d, y)
  | TypedRead (c, x), TypedRead (d, y)
  | IsValid (c, x), IsValid (d, y)
  | PtrAligned (c, x), PtrAligned (d, y)
  | PtrSpan (c, x), PtrSpan (d, y) ->
    Ty.cty_equal c d && equal x y
  | PtrAdd (c, x1, x2), PtrAdd (d, y1, y2) -> Ty.cty_equal c d && equal x1 y1 && equal x2 y2
  | FieldAddr (s, f, x), FieldAddr (s', f', y) | StructGet (s, f, x), StructGet (s', f', y) ->
    String.equal s s' && String.equal f f' && equal x y
  | StructSet (s, f, x1, x2), StructSet (s', f', y1, y2) ->
    String.equal s s' && String.equal f f' && equal x1 y1 && equal x2 y2
  | Tuple xs, Tuple ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Proj (i, x), Proj (j, y) -> i = j && equal x y
  | ( ( Const _ | Var _ | Global _ | Unop _ | Binop _ | Ite _ | Cast _ | OfWord _ | HeapRead _
      | TypedRead _ | IsValid _ | PtrAligned _ | PtrSpan _ | PtrAdd _ | FieldAddr _ | StructGet _
      | StructSet _ | Tuple _ | Proj _ ),
      _ ) ->
    false

(* Bottom-up map over immediate subexpressions, right to left.  A node none
   of whose children changed (physically) is returned as it is, so an
   unchanged subterm stays shared and compares in O(1).  Written out case
   by case: a helper taking the rebuilding function would allocate a
   closure per node. *)
let map_children f e =
  match e with
  | Const _ | Var _ | Global _ -> e
  | Unop (o, x) ->
    let x' = f x in
    if x' == x then e else Unop (o, x')
  | Binop (o, x, y) ->
    let y' = f y in
    let x' = f x in
    if x' == x && y' == y then e else Binop (o, x', y')
  | Ite (c, x, y) ->
    let y' = f y in
    let x' = f x in
    let c' = f c in
    if c' == c && x' == x && y' == y then e else Ite (c', x', y')
  | Cast (t, x) ->
    let x' = f x in
    if x' == x then e else Cast (t, x')
  | OfWord (t, x) ->
    let x' = f x in
    if x' == x then e else OfWord (t, x')
  | HeapRead (c, x) ->
    let x' = f x in
    if x' == x then e else HeapRead (c, x')
  | TypedRead (c, x) ->
    let x' = f x in
    if x' == x then e else TypedRead (c, x')
  | IsValid (c, x) ->
    let x' = f x in
    if x' == x then e else IsValid (c, x')
  | PtrAligned (c, x) ->
    let x' = f x in
    if x' == x then e else PtrAligned (c, x')
  | PtrSpan (c, x) ->
    let x' = f x in
    if x' == x then e else PtrSpan (c, x')
  | PtrAdd (c, x, y) ->
    let y' = f y in
    let x' = f x in
    if x' == x && y' == y then e else PtrAdd (c, x', y')
  | FieldAddr (s, fl, x) ->
    let x' = f x in
    if x' == x then e else FieldAddr (s, fl, x')
  | StructGet (s, fl, x) ->
    let x' = f x in
    if x' == x then e else StructGet (s, fl, x')
  | StructSet (s, fl, x, y) ->
    let y' = f y in
    let x' = f x in
    if x' == x && y' == y then e else StructSet (s, fl, x', y')
  | Tuple xs ->
    let xs' = List.map f xs in
    if List.for_all2 ( == ) xs xs' then e else Tuple xs'
  | Proj (i, x) ->
    let x' = f x in
    if x' == x then e else Proj (i, x')

(* Rebuild a node with the given children, in [children] order.  (Unlike
   [map_children], the association is positional and explicit — constructor
   argument evaluation order cannot scramble it.) *)
let replace_children e (cs : t list) =
  match (e, cs) with
  | (Const _ | Var _ | Global _), [] -> e
  | Unop (o, _), [ x ] -> Unop (o, x)
  | Binop (o, _, _), [ x; y ] -> Binop (o, x, y)
  | Ite _, [ c; x; y ] -> Ite (c, x, y)
  | Cast (t, _), [ x ] -> Cast (t, x)
  | OfWord (t, _), [ x ] -> OfWord (t, x)
  | HeapRead (c, _), [ x ] -> HeapRead (c, x)
  | TypedRead (c, _), [ x ] -> TypedRead (c, x)
  | IsValid (c, _), [ x ] -> IsValid (c, x)
  | PtrAligned (c, _), [ x ] -> PtrAligned (c, x)
  | PtrSpan (c, _), [ x ] -> PtrSpan (c, x)
  | PtrAdd (c, _, _), [ x; y ] -> PtrAdd (c, x, y)
  | FieldAddr (s, f, _), [ x ] -> FieldAddr (s, f, x)
  | StructGet (s, f, _), [ x ] -> StructGet (s, f, x)
  | StructSet (s, f, _, _), [ x; y ] -> StructSet (s, f, x, y)
  | Tuple old, xs when List.length old = List.length xs -> Tuple xs
  | Proj (i, _), [ x ] -> Proj (i, x)
  | _ -> invalid_arg "Expr.replace_children: arity mismatch"

let children e =
  match e with
  | Const _ | Var _ | Global _ -> []
  | Unop (_, x)
  | Cast (_, x)
  | OfWord (_, x)
  | HeapRead (_, x)
  | TypedRead (_, x)
  | IsValid (_, x)
  | PtrAligned (_, x)
  | PtrSpan (_, x)
  | FieldAddr (_, _, x)
  | StructGet (_, _, x)
  | Proj (_, x) ->
    [ x ]
  | Binop (_, x, y) | PtrAdd (_, x, y) | StructSet (_, _, x, y) -> [ x; y ]
  | Ite (c, x, y) -> [ c; x; y ]
  | Tuple xs -> xs

(* Does [p] hold of some immediate subexpression?  [children] without the
   list. *)
let exists_child p e =
  match e with
  | Const _ | Var _ | Global _ -> false
  | Unop (_, x)
  | Cast (_, x)
  | OfWord (_, x)
  | HeapRead (_, x)
  | TypedRead (_, x)
  | IsValid (_, x)
  | PtrAligned (_, x)
  | PtrSpan (_, x)
  | FieldAddr (_, _, x)
  | StructGet (_, _, x)
  | Proj (_, x) ->
    p x
  | Binop (_, x, y) | PtrAdd (_, x, y) | StructSet (_, _, x, y) -> p x || p y
  | Ite (c, x, y) -> p c || p x || p y
  | Tuple xs -> List.exists p xs

(* Left fold over the immediate subexpressions, in [children] order. *)
let fold_children f acc e =
  match e with
  | Const _ | Var _ | Global _ -> acc
  | Unop (_, x)
  | Cast (_, x)
  | OfWord (_, x)
  | HeapRead (_, x)
  | TypedRead (_, x)
  | IsValid (_, x)
  | PtrAligned (_, x)
  | PtrSpan (_, x)
  | FieldAddr (_, _, x)
  | StructGet (_, _, x)
  | Proj (_, x) ->
    f acc x
  | Binop (_, x, y) | PtrAdd (_, x, y) | StructSet (_, _, x, y) -> f (f acc x) y
  | Ite (c, x, y) -> f (f (f acc c) x) y
  | Tuple xs -> List.fold_left f acc xs

(* Term size: the number of AST nodes.  This is the paper's "term size"
   metric for Table 5 ("the number of nodes in the abstract syntax tree of a
   specification"). *)
let rec size e = fold_children (fun n c -> n + size c) 1 e

(* The distinct free variables, sorted. *)
let free_vars e =
  let rec go acc e =
    match e with
    | Var (v, _) -> if List.mem v acc then acc else v :: acc
    | _ -> fold_children go acc e
  in
  List.sort String.compare (go [] e)

(* Does any of [vs] occur (free) in [e]?  [List.exists (fun v -> List.mem v
   (free_vars e)) vs] without building the set. *)
let occurs_any vs e =
  let rec go e =
    match e with
    | Var (v, _) -> List.mem v vs
    | _ -> exists_child go e
  in
  go e

let mem_var v e = occurs_any [ v ] e

let subst (bindings : (string * t) list) e =
  match bindings with
  | [] -> e
  | _ ->
    let rec go e =
      match e with
      | Var (v, _) -> ( match List.assoc_opt v bindings with Some x -> x | None -> e)
      | _ -> map_children go e
    in
    go e

let rename_var old_name new_name ty e = subst [ (old_name, Var (new_name, ty)) ] e

(* Does the expression read the state (heap, typed heaps, globals)?  Pure
   expressions can be hoisted out of [gets] into plain [return]s. *)
let rec reads_state e =
  match e with
  | Global _ | HeapRead _ | TypedRead _ | IsValid _ -> true
  | _ -> exists_child reads_state e

(* Does the expression mention the concrete (byte-level) heap? *)
let rec reads_concrete_heap e =
  match e with
  | HeapRead _ -> true
  | _ -> exists_child reads_concrete_heap e

(* ------------------------------------------------------------------ *)
(* Typing. *)

let numeric_binop = function
  | Add | Sub | Mul | Div | Rem | Shl | Shr | Band | Bor | Bxor -> true
  | _ -> false

let comparison_binop = function Lt | Le | Gt | Ge -> true | _ -> false
let boolean_binop = function And | Or | Imp -> true | _ -> false

let type_of (lenv : Layout.env) (venv : Ty.t SMap.t) (e : t) : Ty.t =
  let rec go e : Ty.t =
    match e with
    | Const v -> Value.ty_of v
    | Var (v, ty) -> (
      match SMap.find_opt v venv with
      | Some declared ->
        if Ty.equal declared ty then ty
        else type_error "variable %s: annotation %a conflicts with %a" v Ty.pp ty Ty.pp declared
      | None -> ty)
    | Global (_, ty) -> ty
    | Unop (Neg, x) ->
      let t = go x in
      if Ty.is_numeric t then (if Ty.equal t Tnat then Ty.Tint else t)
      else type_error "negation of %a" Ty.pp t
    | Unop (Bnot, x) -> (
      match go x with
      | Tword _ as t -> t
      | t -> type_error "bitwise complement of %a" Ty.pp t)
    | Unop (Not, x) -> (
      match go x with
      | Tbool -> Tbool
      | t -> type_error "boolean negation of %a" Ty.pp t)
    | Binop (op, x, y) -> (
      let tx = go x and ty_ = go y in
      if numeric_binop op then begin
        if not (Ty.equal tx ty_) then
          type_error "operands of %a and %a" Ty.pp tx Ty.pp ty_
        else begin
          match tx with
          | Tword _ | Tint | Tnat -> tx
          | _ -> type_error "arithmetic on %a" Ty.pp tx
        end
      end
      else if comparison_binop op then begin
        if Ty.equal tx ty_ && (Ty.is_numeric tx || match tx with Tptr _ -> true | _ -> false)
        then Ty.Tbool
        else type_error "comparison of %a and %a" Ty.pp tx Ty.pp ty_
      end
      else if boolean_binop op then begin
        match (tx, ty_) with
        | Tbool, Tbool -> Tbool
        | _ -> type_error "connective on %a, %a" Ty.pp tx Ty.pp ty_
      end
      else begin
        (* Eq / Ne *)
        if Ty.equal tx ty_ then Ty.Tbool
        else type_error "equality of %a and %a" Ty.pp tx Ty.pp ty_
      end)
    | Ite (c, x, y) ->
      if not (Ty.equal (go c) Tbool) then type_error "if condition not bool";
      let tx = go x and ty_ = go y in
      if Ty.equal tx ty_ then tx else type_error "if branches %a vs %a" Ty.pp tx Ty.pp ty_
    | Cast (target, x) -> (
      let src = go x in
      match (target, src) with
      | Tword _, (Tword _ | Tint | Tnat) -> target
      | (Tint | Tnat), (Tint | Tnat) -> target
      | Tptr _, Tword _ | Tword _, Tptr _ -> target
      | Tptr _, Tptr _ -> target
      | _ -> type_error "cast %a <- %a" Ty.pp target Ty.pp src)
    | OfWord (target, x) -> (
      match (target, go x) with
      | Tnat, Tword _ | Tint, Tword _ -> target
      | t, s -> type_error "of_word %a <- %a" Ty.pp t Ty.pp s)
    | HeapRead (c, p) | TypedRead (c, p) -> (
      match go p with
      | Tptr pc when Ty.cty_equal pc c -> Ty.of_cty c
      | Tptr pc -> type_error "read at %a via %a ptr" Ty.pp_cty c Ty.pp_cty pc
      | t -> type_error "read at non-pointer %a" Ty.pp t)
    | IsValid (c, p) | PtrAligned (c, p) | PtrSpan (c, p) -> (
      match go p with
      | Tptr pc when Ty.cty_equal pc c -> Ty.Tbool
      | t -> type_error "validity of %a (want %a ptr)" Ty.pp t Ty.pp_cty c)
    | PtrAdd (c, p, n) -> (
      match (go p, go n) with
      | Tptr pc, (Tword _ | Tint | Tnat) when Ty.cty_equal pc c -> Ty.Tptr c
      | tp, tn -> type_error "ptr add %a + %a" Ty.pp tp Ty.pp tn)
    | FieldAddr (sname, fname, p) -> (
      match go p with
      | Tptr (Cstruct n) when String.equal n sname ->
        Ty.Tptr (Layout.field_type lenv sname fname)
      | t -> type_error "field addr of %a" Ty.pp t)
    | StructGet (sname, fname, v) -> (
      match go v with
      | Tstruct n when String.equal n sname -> Ty.of_cty (Layout.field_type lenv sname fname)
      | t -> type_error "field get of %a" Ty.pp t)
    | StructSet (sname, fname, v, x) -> (
      match go v with
      | Tstruct n when String.equal n sname ->
        let ft = Ty.of_cty (Layout.field_type lenv sname fname) in
        let tx = go x in
        if Ty.equal ft tx then Ty.Tstruct sname
        else type_error "field set %a := %a" Ty.pp ft Ty.pp tx
      | t -> type_error "field set of %a" Ty.pp t)
    | Tuple xs -> Ty.Ttuple (List.map go xs)
    | Proj (i, x) -> (
      match go x with
      | Ttuple ts when i >= 0 && i < List.length ts -> List.nth ts i
      | t -> type_error "projection %d of %a" i Ty.pp t)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Evaluation.  The [view] record abstracts over the state representation;
   the Simpl semantics supplies a byte-heap view, the monadic semantics at
   each level supplies the corresponding one. *)

type view = {
  read_global : string -> Value.t;
  read_heap : Ty.cty -> B.t -> Value.t; (* concrete decode at address *)
  typed_read : Ty.cty -> B.t -> Value.t; (* abstract s[p] *)
  is_valid : Ty.cty -> B.t -> bool; (* abstract is_valid_τ *)
  lenv : Layout.env;
}

exception Eval_stuck of string

let stuck fmt = Format.kasprintf (fun m -> raise (Eval_stuck m)) fmt

(* Alignment and span checks shared by semantics and heap lifting. *)
let aligned lenv c addr = B.is_zero (B.fmod addr (B.of_int (Layout.align_of lenv c)))

let span_ok lenv c addr =
  (* 0 ∉ {p ..+ size}: p ≠ 0 and p + size does not wrap past 2^ptr_bits. *)
  let size = B.of_int (Layout.size_of lenv c) in
  let limit = B.pow2 (W.bits (Layout.ptr_width lenv)) in
  (not (B.is_zero addr)) && B.le (B.add addr size) limit

let eval_binop op (a : Value.t) (b : Value.t) : Value.t =
  let module V = Value in
  let bool_result f = V.Vbool (f ()) in
  match (a, b) with
  | V.Vword (s, x), V.Vword (_, y) -> (
    let arith f = V.Vword (s, f s x y) in
    match op with
    | Add -> arith W.add
    | Sub -> arith W.sub
    | Mul -> arith W.mul
    | Div -> if W.is_zero y then stuck "division by zero" else arith W.div
    | Rem -> if W.is_zero y then stuck "remainder by zero" else arith W.rem
    | Shl -> V.Vword (s, W.shift_left x (W.unat y))
    | Shr -> V.Vword (s, W.shift_right s x (W.unat y))
    | Band -> V.Vword (s, W.logand x y)
    | Bor -> V.Vword (s, W.logor x y)
    | Bxor -> V.Vword (s, W.logxor x y)
    | Eq -> bool_result (fun () -> W.equal x y)
    | Ne -> bool_result (fun () -> not (W.equal x y))
    | Lt -> bool_result (fun () -> W.compare s x y < 0)
    | Le -> bool_result (fun () -> W.compare s x y <= 0)
    | Gt -> bool_result (fun () -> W.compare s x y > 0)
    | Ge -> bool_result (fun () -> W.compare s x y >= 0)
    | And | Or | Imp -> stuck "boolean op on words")
  | (V.Vint x | V.Vnat x), (V.Vint y | V.Vnat y) -> (
    let is_nat = match (a, b) with V.Vnat _, V.Vnat _ -> true | _ -> false in
    let wrap n = if is_nat then V.Vnat n else V.Vint n in
    match op with
    | Add -> wrap (B.add x y)
    | Sub ->
      (* ℕ subtraction is truncated (Isabelle's monus); ℤ is exact. *)
      if is_nat then V.Vnat (B.max B.zero (B.sub x y)) else V.Vint (B.sub x y)
    | Mul -> wrap (B.mul x y)
    | Div -> if B.is_zero y then stuck "division by zero" else wrap (B.div x y)
    | Rem -> if B.is_zero y then stuck "remainder by zero" else wrap (B.rem x y)
    | Shl | Shr -> (
      match B.to_int_opt y with
      | Some n when n >= 0 -> wrap ((if op = Shl then B.shift_left else B.shift_right) x n)
      | _ -> stuck "shift by a negative or non-native count")
    | Band -> wrap (B.logand x y)
    | Bor -> wrap (B.logor x y)
    | Bxor -> wrap (B.logxor x y)
    | Eq -> bool_result (fun () -> B.equal x y)
    | Ne -> bool_result (fun () -> not (B.equal x y))
    | Lt -> bool_result (fun () -> B.lt x y)
    | Le -> bool_result (fun () -> B.le x y)
    | Gt -> bool_result (fun () -> B.gt x y)
    | Ge -> bool_result (fun () -> B.ge x y)
    | And | Or | Imp -> stuck "boolean op on ideals")
  | V.Vptr (x, c), V.Vptr (y, _) -> (
    match op with
    | Eq -> bool_result (fun () -> B.equal x y)
    | Ne -> bool_result (fun () -> not (B.equal x y))
    | Lt -> bool_result (fun () -> B.lt x y)
    | Le -> bool_result (fun () -> B.le x y)
    | Gt -> bool_result (fun () -> B.gt x y)
    | Ge -> bool_result (fun () -> B.ge x y)
    | Sub -> V.Vint (B.sub x y)
    | _ -> stuck "pointer op %s" (Ty.cty_to_string c))
  | V.Vbool x, V.Vbool y -> (
    match op with
    | And -> V.Vbool (x && y)
    | Or -> V.Vbool (x || y)
    | Imp -> V.Vbool ((not x) || y)
    | Eq -> V.Vbool (x = y)
    | Ne -> V.Vbool (x <> y)
    | _ -> stuck "arith on bools")
  | _ -> stuck "binop on %s and %s" (V.to_string a) (V.to_string b)

let rec eval (view : view) (env : Value.t SMap.t) (e : t) : Value.t =
  let module V = Value in
  match e with
  | Const v -> v
  | Var (v, _) -> (
    match SMap.find_opt v env with
    | Some x -> x
    | None -> stuck "unbound variable %s" v)
  | Global (g, _) -> view.read_global g
  | Unop (op, x) -> (
    let v = eval view env x in
    match (op, v) with
    | Neg, V.Vword (s, w) -> V.Vword (s, W.neg s w)
    | Neg, V.Vint n -> V.Vint (B.neg n)
    | Neg, V.Vnat n -> V.Vint (B.neg n)
    | Bnot, V.Vword (s, w) -> V.Vword (s, W.lognot w)
    | Not, V.Vbool b -> V.Vbool (not b)
    | _ -> stuck "unop on %s" (V.to_string v))
  | Binop (And, x, y) ->
    (* Short-circuit, so guards can protect later conjuncts. *)
    if V.as_bool (eval view env x) then eval view env y else V.Vbool false
  | Binop (Or, x, y) ->
    if V.as_bool (eval view env x) then V.Vbool true else eval view env y
  | Binop (Imp, x, y) ->
    if V.as_bool (eval view env x) then eval view env y else V.Vbool true
  | Binop (op, x, y) -> eval_binop op (eval view env x) (eval view env y)
  | Ite (c, x, y) -> if V.as_bool (eval view env c) then eval view env x else eval view env y
  | Cast (target, x) -> (
    let v = eval view env x in
    match (target, v) with
    | Ty.Tword (s, w), (V.Vword _ | V.Vint _ | V.Vnat _) ->
      V.Vword (s, W.of_bignum w (V.numeric v))
    | Ty.Tword (s, w), V.Vptr (a, _) -> V.Vword (s, W.of_bignum w a)
    | Ty.Tptr c, (V.Vword _ | V.Vptr _) ->
      V.Vptr (B.mod_pow2 (V.numeric v) (W.bits (Layout.ptr_width view.lenv)), c)
    | Ty.Tint, (V.Vint n | V.Vnat n) -> V.Vint n
    | Ty.Tnat, (V.Vint n | V.Vnat n) ->
      if B.sign n < 0 then stuck "nat cast of negative" else V.Vnat n
    | _ -> stuck "cast %s <- %s" (Ty.to_string target) (V.to_string v))
  | OfWord (target, x) -> (
    let w = V.as_word (eval view env x) in
    match target with
    | Ty.Tnat -> V.Vnat (W.unat w)
    | Ty.Tint -> V.Vint (W.sint w)
    | _ -> stuck "of_word to %s" (Ty.to_string target))
  | HeapRead (c, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    view.read_heap c a
  | TypedRead (c, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    view.typed_read c a
  | IsValid (c, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    V.Vbool (view.is_valid c a)
  | PtrAligned (c, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    V.Vbool (aligned view.lenv c a)
  | PtrSpan (c, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    V.Vbool (span_ok view.lenv c a)
  | PtrAdd (c, p, n) ->
    let a, _ = V.as_ptr (eval view env p) in
    let count = V.numeric (eval view env n) in
    let size = B.of_int (Layout.size_of view.lenv c) in
    let bits = W.bits (Layout.ptr_width view.lenv) in
    (* Count is interpreted signedly when the index is a signed word. *)
    let count =
      match eval view env n with
      | V.Vword (Signed, w) -> W.sint w
      | _ -> count
    in
    V.Vptr (B.mod_pow2 (B.add a (B.mul count size)) bits, c)
  | FieldAddr (sname, fname, p) ->
    let a, _ = V.as_ptr (eval view env p) in
    let off = B.of_int (Layout.field_offset view.lenv sname fname) in
    let bits = W.bits (Layout.ptr_width view.lenv) in
    V.Vptr (B.mod_pow2 (B.add a off) bits, Layout.field_type view.lenv sname fname)
  | StructGet (_, fname, v) -> V.struct_field (eval view env v) fname
  | StructSet (_, fname, v, x) -> V.struct_update (eval view env v) fname (eval view env x)
  | Tuple xs -> V.Vtuple (List.map (eval view env) xs)
  | Proj (i, x) -> (
    match eval view env x with
    | V.Vtuple vs when i < List.length vs -> List.nth vs i
    | v -> stuck "projection %d of %s" i (V.to_string v))

(* Evaluate an expression that does not touch the state. *)
let pure_view lenv : view =
  {
    read_global = (fun g -> stuck "pure evaluation read global %s" g);
    read_heap = (fun _ _ -> stuck "pure evaluation read heap");
    typed_read = (fun _ _ -> stuck "pure evaluation read typed heap");
    is_valid = (fun _ _ -> stuck "pure evaluation read validity");
    lenv;
  }

let eval_pure lenv env e = eval (pure_view lenv) env e
