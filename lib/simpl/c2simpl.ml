module Ty = Ac_lang.Ty
module Layout = Ac_lang.Layout
module Value = Ac_lang.Value
module E = Ac_lang.Expr
module B = Ac_bignum
module W = Ac_word
module Ast = Ac_cfront.Ast
module Tir = Ac_cfront.Tir
open Ir

(* Translation of typed C into Simpl: the back half of the trusted "C
   parser" stage (paper Fig 1, dashed arrow).

   The translation is deliberately literal and conservative: every source
   construct that may exhibit undefined behaviour gets an explicit inline
   guard (signed overflow, division by zero, shift bounds, pointer validity,
   falling off the end of a non-void function), and abrupt control flow is
   encoded via the ghost variable [global_exn_var] and THROW/TRY-CATCH,
   exactly as in the paper's Fig 2. *)

exception Unsupported of string

type guard = guard_kind * E.t

(* Guards arising from a subexpression evaluated only under condition [c]
   (the right operand of &&, ||, ?:) are weakened to implications, which is
   how a conservative translation keeps short-circuit semantics sound. *)
let under_condition c (gs : guard list) : guard list =
  List.map (fun (k, g) -> (k, E.imp_e c g)) gs

let rec ty_of_ctype (t : Tir.ctype) : Ty.t =
  match t with
  | Ast.Integer (s, w) -> Ty.Tword (s, w)
  | Ast.Bool -> Ty.Tbool
  | Ast.Pointer Ast.Void -> Ty.Tptr (Ty.Cword (Unsigned, W8))
  | Ast.Pointer t' -> (
    match cty_of_ctype t' with
    | Some c -> Ty.Tptr c
    | None -> raise (Unsupported "pointer to void-like type"))
  | Ast.StructRef n -> Ty.Tstruct n
  | Ast.Void -> Ty.Tunit

and cty_of_ctype (t : Tir.ctype) : Ty.cty option =
  match t with
  | Ast.Integer (s, w) -> Some (Ty.Cword (s, w))
  | Ast.Bool -> Some (Ty.Cword (Unsigned, W8))
  | Ast.Pointer Ast.Void -> Some (Ty.Cptr (Ty.Cword (Unsigned, W8)))
  | Ast.Pointer t' -> (
    match cty_of_ctype t' with Some c -> Some (Ty.Cptr c) | None -> None)
  | Ast.StructRef n -> Some (Ty.Cstruct n)
  | Ast.Void -> None

let cty_exn t =
  match cty_of_ctype t with
  | Some c -> c
  | None -> raise (Unsupported ("no object type for " ^ Ast.ctype_to_string t))

(* Bounds of a signed type as ideal-integer constants. *)
let int_min_e w = E.big_int_e (W.min_value Signed w)
let int_max_e w = E.big_int_e (W.max_value Signed w)

(* The signed-overflow guard the C parser emits around signed arithmetic:
   INT_MIN <= ideal <= INT_MAX, with the ideal result expressed via sint. *)
let signed_range_guard (ideal : E.t) (w : Ty.width) : guard =
  ( Signed_overflow,
    E.and_e (E.Binop (E.Le, int_min_e w, ideal)) (E.Binop (E.Le, ideal, int_max_e w)) )

let sint e = E.OfWord (Ty.Tint, e)
let unat e = E.OfWord (Ty.Tnat, e)

let binop_of : Ast.binop -> E.binop = function
  | Badd -> E.Add
  | Bsub -> E.Sub
  | Bmul -> E.Mul
  | Bdiv -> E.Div
  | Bmod -> E.Rem
  | Bshl -> E.Shl
  | Bshr -> E.Shr
  | Bband -> E.Band
  | Bbor -> E.Bor
  | Bbxor -> E.Bxor
  | Beq -> E.Eq
  | Bne -> E.Ne
  | Blt -> E.Lt
  | Ble -> E.Le
  | Bgt -> E.Gt
  | Bge -> E.Ge
  | Bland -> E.And
  | Blor -> E.Or

(* Per-function translation context. *)
type ctx = {
  lenv : Layout.env;
  venv : Ty.t Map.Make(String).t; (* local name -> type *)
  mutable extra_locals : (string * Ty.t) list;
  mutable tmp_counter : int;
  mutable gsrc : (guard_kind * E.t * Ast.pos) list;
      (* guards emitted so far, most recent first *)
}

module SMap = Map.Make (String)

(* Turn guards into statements while recording, per guard, the source
   position of the statement that required it (consumed by `acc lint`). *)
let emit ctx (pos : Ast.pos) (gs : guard list) : stmt list =
  ctx.gsrc <- List.fold_left (fun acc (k, e) -> (k, e, pos) :: acc) ctx.gsrc gs;
  guards_to_stmts gs

let fresh_tmp ctx ty =
  ctx.tmp_counter <- ctx.tmp_counter + 1;
  let name = Printf.sprintf "tmp__%d" ctx.tmp_counter in
  ctx.extra_locals <- (name, ty) :: ctx.extra_locals;
  name

(* ------------------------------------------------------------------ *)
(* Expressions: produce (guards, expression).  The workers thread the
   guards emitted so far, most recent first, so a long chain such as
   x + x + ... + x costs linear time rather than re-copying the left
   operand's guards at every level. *)

let rec tr_expr ctx (e : Tir.texpr) : guard list * E.t =
  let gs, e' = tr ctx [] e in
  (List.rev gs, e')

(* [tr ctx acc e] is [(rev gs @ acc, e')] for [tr_expr ctx e = (gs, e')]. *)
and tr ctx acc (e : Tir.texpr) : guard list * E.t =
  match e.te with
  | Tconst (v, t) -> (
    match t with
    | Ast.Integer (s, w) -> (acc, E.Const (Value.vword s (W.of_bignum w v)))
    | Ast.Bool -> (acc, E.Const (Value.vword Unsigned (W.of_bignum W8 v)))
    | _ -> raise (Unsupported "non-integer constant"))
  | Tnull t -> (
    match ty_of_ctype t with
    | Ty.Tptr c -> (acc, E.null_e c)
    | _ -> raise (Unsupported "null of non-pointer type"))
  | Tvar x -> (acc, E.Var (x, var_type ctx x))
  | Tglobal x -> (acc, E.Global (x, var_type ctx x))
  | Tunop (Ast.Uneg, x) -> (
    let acc, x' = tr ctx acc x in
    match x.tt with
    | Ast.Integer (Signed, w) ->
      (signed_range_guard (E.Unop (E.Neg, sint x')) w :: acc, E.Unop (E.Neg, x'))
    | Ast.Integer (Unsigned, _) -> (acc, E.Unop (E.Neg, x'))
    | _ -> raise (Unsupported "negation of non-integer"))
  | Tunop (Ast.Ubnot, x) ->
    let acc, x' = tr ctx acc x in
    (acc, E.Unop (E.Bnot, x'))
  | Tunop (Ast.Ulnot, x) ->
    let acc, x' = tr ctx acc x in
    (acc, E.not_e x')
  | Tbinop ((Ast.Bland | Ast.Blor) as op, x, y) ->
    let acc, x' = tr ctx acc x in
    let gy, y' = tr_expr ctx y in
    let cond = if op = Ast.Bland then x' else E.not_e x' in
    let acc = List.rev_append (under_condition cond gy) acc in
    if op = Ast.Bland then (acc, E.and_e x' y') else (acc, E.or_e x' y')
  | Tbinop (op, x, y) -> tr_arith ctx acc op x y
  | Tcast (t, x) -> (
    let acc, x' = tr ctx acc x in
    match (t, x.tt) with
    | Ast.Bool, _ -> (acc, E.Cast (Ty.Tword (Unsigned, W8), x'))
    | Ast.Integer (s, w), _ -> (acc, E.Cast (Ty.Tword (s, w), x'))
    | Ast.Pointer _, _ -> (
      match ty_of_ctype t with
      | Ty.Tptr c -> (acc, E.Cast (Ty.Tptr c, x'))
      | _ -> raise (Unsupported "cast to void pointer-like type"))
    | _ -> raise (Unsupported ("cast to " ^ Ast.ctype_to_string t)))
  | Tload lv -> tr_load ctx acc lv
  | Taddr lv ->
    let acc, addr, _, _ = lval_mem_addr ctx acc lv in
    (acc, addr)
  | Tptradd (p, n) -> (
    let acc, p' = tr ctx acc p in
    let acc, n' = tr ctx acc n in
    match ty_of_ctype p.tt with
    | Ty.Tptr c -> (acc, E.PtrAdd (c, p', n'))
    | _ -> raise (Unsupported "pointer arithmetic on non-pointer"))
  | Ttobool x -> (
    let acc, x' = tr ctx acc x in
    match ty_of_ctype x.tt with
    | Ty.Tword (s, w) -> (acc, E.Binop (E.Ne, x', E.word_e s w 0))
    | Ty.Tptr c -> (acc, E.Binop (E.Ne, x', E.null_e c))
    | Ty.Tbool -> (acc, x')
    | _ -> raise (Unsupported "condition on non-scalar"))
  | Tofbool b ->
    let acc, b' = tr ctx acc b in
    (acc, E.Ite (b', E.word_e Signed W32 1, E.word_e Signed W32 0))
  | Tcond (c, x, y) ->
    let acc, c' = tr ctx acc c in
    let gx, x' = tr_expr ctx x in
    let gy, y' = tr_expr ctx y in
    let acc = List.rev_append (under_condition c' gx) acc in
    (List.rev_append (under_condition (E.not_e c') gy) acc, E.Ite (c', x', y'))

and var_type ctx x =
  match SMap.find_opt x ctx.venv with
  | Some t -> t
  | None -> raise (Unsupported ("unknown variable " ^ x))

and tr_arith ctx acc op x y : guard list * E.t =
  let acc, x' = tr ctx acc x in
  let acc, y' = tr ctx acc y in
  let e = E.Binop (binop_of op, x', y') in
  match (op, x.tt) with
  | (Ast.Badd | Ast.Bsub | Ast.Bmul), Ast.Integer (Signed, w) ->
    let ideal = E.Binop (binop_of op, sint x', sint y') in
    (signed_range_guard ideal w :: acc, e)
  | (Ast.Badd | Ast.Bsub | Ast.Bmul), _ -> (acc, e)
  | (Ast.Bdiv | Ast.Bmod), Ast.Integer (Signed, w) ->
    let nonzero = (Div_by_zero, E.Binop (E.Ne, y', E.word_e Signed w 0)) in
    let ideal = E.Binop (E.Div, sint x', sint y') in
    (* INT_MIN div -1 is the only in-type overflow; the range guard rules
       it out.  The guard is vacuous for Bmod but emitted for Bdiv. *)
    let range = signed_range_guard ideal w in
    ((if op = Ast.Bdiv then [ range; nonzero ] else [ nonzero ]) @ acc, e)
  | (Ast.Bdiv | Ast.Bmod), Ast.Integer (Unsigned, w) ->
    ((Div_by_zero, E.Binop (E.Ne, y', E.word_e Unsigned w 0)) :: acc, e)
  | (Ast.Bshl | Ast.Bshr), Ast.Integer (sx, w) ->
    let bits = E.big_nat_e (B.of_int (W.bits w)) in
    let amount_ok =
      match y.tt with
      | Ast.Integer (Unsigned, _) -> E.Binop (E.Lt, unat y', bits)
      | _ ->
        E.and_e
          (E.Binop (E.Le, E.int_e 0, sint y'))
          (E.Binop (E.Lt, sint y', E.big_int_e (B.of_int (W.bits w))))
    in
    let value_ok =
      (* shifting a negative signed value is UB for << *)
      if sx = Ty.Signed && op = Ast.Bshl then
        E.and_e amount_ok (E.Binop (E.Le, E.int_e 0, sint x'))
      else amount_ok
    in
    ((Shift_bounds, value_ok) :: acc, e)
  | (Ast.Bband | Ast.Bbor | Ast.Bbxor), _ -> (acc, e)
  | (Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge), _ -> (acc, e)
  | (Ast.Bland | Ast.Blor), _ -> assert false
  | _, t -> raise (Unsupported ("arithmetic on " ^ Ast.ctype_to_string t))

(* The C-level validity guard for dereferencing a τ pointer: alignment plus
   0 ∉ {p ..+ size τ} (paper Sec 4.1). *)
and deref_guard (c : Ty.cty) (p : E.t) : guard =
  (Ptr_valid, E.and_e (E.PtrAligned (c, p)) (E.PtrSpan (c, p)))

(* Address of a memory lvalue: (guards, address expression, object type).
   Also reports the *root* pointer and its type, whose validity guards
   dereferences (a field access p->f is guarded via the struct pointer p). *)
and lval_mem_addr ctx acc (lv : Tir.tlval) : guard list * E.t * Ty.cty * (E.t * Ty.cty) =
  match lv with
  | Tir.Lmem (p, t) ->
    let acc, p' = tr ctx acc p in
    let c = cty_exn t in
    (acc, p', c, (p', c))
  | Tir.Lfield (base, sname, fname, fty) ->
    let acc, base_addr, _bc, root = lval_mem_addr ctx acc base in
    let fc = cty_exn fty in
    ignore fc;
    (acc, E.FieldAddr (sname, fname, base_addr), Layout.field_type ctx.lenv sname fname, root)
  | Tir.Lvar _ | Tir.Lglobal _ ->
    raise (Unsupported "address of register lvalue")

(* Loading an lvalue. *)
and tr_load ctx acc (lv : Tir.tlval) : guard list * E.t =
  match lv with
  | Tir.Lvar (x, _) -> (acc, E.Var (x, var_type ctx x))
  | Tir.Lglobal (x, t) -> (acc, E.Global (x, ty_of_ctype t))
  | Tir.Lfield (base, sname, fname, _) when is_register_lval base ->
    let acc, b = tr_load ctx acc base in
    (acc, E.StructGet (sname, fname, b))
  | Tir.Lmem _ | Tir.Lfield _ ->
    let acc, addr, c, (root, root_c) = lval_mem_addr ctx acc lv in
    (deref_guard root_c root :: acc, E.HeapRead (c, addr))

and is_register_lval = function
  | Tir.Lvar _ | Tir.Lglobal _ -> true
  | Tir.Lfield (base, _, _, _) -> is_register_lval base
  | Tir.Lmem _ -> false

(* ------------------------------------------------------------------ *)
(* Statements. *)

let rec tr_stmt ctx (ret_ty : Ty.t) (s : Tir.tstmt) : stmt =
  let pos = s.Tir.tsp in
  match s.Tir.ts with
  | Tir.Tskip -> Skip
  | Tir.Tseq (a, b) ->
    (* explicit lets: [gsrc] must record guards in program order *)
    let a' = tr_stmt ctx ret_ty a in
    let b' = tr_stmt ctx ret_ty b in
    Seq (a', b')
  | Tir.Tassign (lv, rhs) ->
    let g_rhs, rhs' = tr_expr ctx rhs in
    let stmt, g_lhs = tr_assign ctx lv rhs' in
    seq_of_list (emit ctx pos (g_rhs @ g_lhs) @ [ stmt ])
  | Tir.Tcall (dest, fname, args) -> (
    let g_args, args' =
      List.fold_left
        (fun (acc, args') a ->
          let acc, a' = tr ctx acc a in
          (acc, a' :: args'))
        ([], []) args
    in
    let args' = List.rev args' in
    let pre = emit ctx pos (List.rev g_args) in
    match dest with
    | None -> seq_of_list (pre @ [ Call (None, fname, args') ])
    | Some (Tir.Lvar (x, _)) -> seq_of_list (pre @ [ Call (Some x, fname, args') ])
    | Some lv ->
      (* call into a temporary, then a normal assignment *)
      let t = ty_of_ctype (Tir.lval_type lv) in
      let tmp = fresh_tmp ctx t in
      let stmt, g_lhs = tr_assign ctx lv (E.Var (tmp, t)) in
      seq_of_list (pre @ [ Call (Some tmp, fname, args') ] @ emit ctx pos g_lhs @ [ stmt ]))
  | Tir.Tif (c, a, b) ->
    let gc, c' = tr_expr ctx c in
    let pre = emit ctx pos gc in
    let a' = tr_stmt ctx ret_ty a in
    let b' = tr_stmt ctx ret_ty b in
    seq_of_list (pre @ [ Cond (c', a', b') ])
  | Tir.Twhile (c, body) ->
    let gc, c' = tr_expr ctx c in
    let pre = emit ctx pos gc in
    let body' = tr_stmt ctx ret_ty body in
    (* Catch continue at the body level, break at the loop level; re-raise
       anything else (i.e. return).  Condition guards run before the loop
       and after each iteration. *)
    let catch_continue = Cond (exn_is Xcontinue, Skip, Throw) in
    let loop_body = Seq (Try (body', catch_continue), seq_of_list (emit ctx pos gc)) in
    let catch_break = Cond (exn_is Xbreak, Skip, Throw) in
    seq_of_list (pre @ [ Try (While (c', loop_body), catch_break) ])
  | Tir.Tbreak -> Seq (Local_set (exn_var, E.word_e Unsigned W32 (exit_code Xbreak)), Throw)
  | Tir.Tcontinue -> Seq (Local_set (exn_var, E.word_e Unsigned W32 (exit_code Xcontinue)), Throw)
  | Tir.Treturn None ->
    Seq (Local_set (exn_var, E.word_e Unsigned W32 (exit_code Xreturn)), Throw)
  | Tir.Treturn (Some e) ->
    ignore ret_ty;
    let gs, e' = tr_expr ctx e in
    seq_of_list
      (emit ctx pos gs
      @ [
          Local_set (ret_var, e');
          Local_set (exn_var, E.word_e Unsigned W32 (exit_code Xreturn));
          Throw;
        ])

(* Assignment to an lvalue: returns the statement plus lvalue guards. *)
and tr_assign ctx (lv : Tir.tlval) (rhs : E.t) : stmt * guard list =
  match lv with
  | Tir.Lvar (x, _) -> (Local_set (x, rhs), [])
  | Tir.Lglobal (x, _) -> (Global_set (x, rhs), [])
  | Tir.Lfield (base, sname, fname, _) when is_register_lval base ->
    let _, base_e = tr_load ctx [] base in
    tr_assign ctx base (E.StructSet (sname, fname, base_e, rhs))
  | Tir.Lmem _ | Tir.Lfield _ ->
    let gs, addr, c, (root, root_c) = lval_mem_addr ctx [] lv in
    (Heap_write (c, addr, rhs), List.rev (deref_guard root_c root :: gs))

(* ------------------------------------------------------------------ *)
(* Functions and programs. *)

let tr_func lenv (f : Tir.tfunc) : func =
  let params = List.map (fun (n, t) -> (n, ty_of_ctype t)) f.tf_params in
  let declared = List.map (fun (n, t) -> (n, ty_of_ctype t)) f.tf_locals in
  let ret_ty = ty_of_ctype f.tf_ret in
  let venv =
    List.fold_left (fun m (n, t) -> SMap.add n t m) SMap.empty (params @ declared)
  in
  let venv = SMap.add ret_var ret_ty (SMap.add exn_var exn_ty venv) in
  let ctx = { lenv; venv; extra_locals = []; tmp_counter = 0; gsrc = [] } in
  let body = tr_stmt ctx ret_ty f.tf_body in
  (* Fig 2 shape: TRY body [;; GUARD DontReach] CATCH SKIP END *)
  let fall_off =
    if Ty.equal ret_ty Ty.Tunit then []
    else emit ctx f.tf_pos [ (Dont_reach, E.false_e) ]
  in
  let wrapped = Try (seq_of_list ((body :: fall_off)), Skip) in
  let ghost = [ (ret_var, ret_ty); (exn_var, exn_ty) ] in
  let ghost = if Ty.equal ret_ty Ty.Tunit then [ (exn_var, exn_ty) ] else ghost in
  {
    name = f.tf_name;
    params;
    locals = declared @ List.rev ctx.extra_locals @ ghost;
    ret_ty;
    body = wrapped;
    fpos = f.tf_pos;
    gsrc = List.rev ctx.gsrc;
  }

let tr_program (p : Tir.tprog) : program =
  {
    lenv = p.tp_lenv;
    globals = List.map (fun (n, t) -> (n, ty_of_ctype t)) p.tp_globals;
    funcs = List.map (tr_func p.tp_lenv) p.tp_funcs;
  }

(* One-stop front end: C source to Simpl program. *)
let parse (src : string) : program = tr_program (Ac_cfront.Typecheck.parse_and_check src)
