module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout

(* The kernel's expression simplifier: a small set of local, obviously
   value-preserving rewrites, used by the L2 clean-up rule.  Everything here
   is semantics-preserving for *all* environments and states:

   - projections of literal tuples
   - constant folding of closed, state-free subterms
   - boolean algebra on literal true/false
   - if-then-else with a literal condition or identical branches

   In the Isabelle original these are simp-set lemmas; here they form part
   of the trusted rule base. *)

let rec is_closed_pure (e : E.t) =
  match e with
  | E.Var _ | E.Global _ | E.HeapRead _ | E.TypedRead _ | E.IsValid _ -> false
  | _ -> not (E.exists_child (fun c -> not (is_closed_pure c)) e)

let fold_constant lenv (e : E.t) : E.t =
  match e with
  | E.Const _ -> e
  | _ ->
    if is_closed_pure e then begin
      match E.eval_pure lenv E.SMap.empty e with
      (* Tuples and structs stay structural: the abstraction rules match on
         their shape. *)
      | Value.Vtuple _ | Value.Vstruct _ -> e
      | v -> E.Const v
      (* e.g. a division by zero: left for the guards to rule out *)
      | exception E.Eval_stuck _ -> e
    end
    else e

let is_bool_const = function E.Const (Value.Vbool _) -> true | _ -> false

(* [simp lenv] is the simplifier itself: apply it once per term, not per
   expression.  A node no rewrite applies to is returned as it is
   (physically); the boolean smart constructors are called only where they
   simplify, since they would rebuild any other node. *)
let simp lenv : E.t -> E.t =
  let rec go e =
    let e = E.map_children go e in
    let e =
      match e with
      | E.Proj (i, E.Tuple es) when i < List.length es -> List.nth es i
      | E.Binop (E.And, a, b) when is_bool_const a || is_bool_const b -> E.and_e a b
      | E.Binop (E.Or, a, b) when is_bool_const a || is_bool_const b -> E.or_e a b
      | E.Binop (E.Imp, a, (E.Const (Value.Vbool true) as b)) -> E.imp_e a b
      | E.Binop (E.Imp, a, b) when is_bool_const a -> E.imp_e a b
      | E.Unop (E.Not, ((E.Const (Value.Vbool _) | E.Unop (E.Not, _)) as x)) -> E.not_e x
      | E.Ite (E.Const (Value.Vbool true), a, _) -> a
      | E.Ite (E.Const (Value.Vbool false), _, b) -> b
      | E.Ite (_, a, b) when E.equal a b -> a
      | E.Binop (E.Eq, a, b) when E.equal a b && not (E.reads_state a) -> E.true_e
      | e -> e
    in
    fold_constant lenv e
  in
  go
