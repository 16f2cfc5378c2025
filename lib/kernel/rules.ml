module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module W = Ac_word
module B = Ac_bignum
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
open Judgment

(* The kernel's rule base.

   Each rule is a closed constructor; [infer] maps a rule instance and the
   conclusions of its premises to the rule's conclusion, or an error if the
   side conditions fail.  This mirrors the paper's use of Isabelle's
   resolution: the abstraction phases never write down an abstract program
   directly — they pick rules, and the conclusion (including the abstract
   program and the collected precondition) is *computed here*, so an
   unsound abstract program cannot be produced by a buggy phase.

   The rules for word abstraction implement Table 3 (plus the unlisted
   members of the ~40-rule set the paper describes); the rules for heap
   abstraction implement Table 4. *)

type ctx = {
  lenv : Layout.env;
  (* Word abstraction: which variables are abstracted, at which type.  The
     paper abstracts all local variables and arguments of selected
     functions (Sec 3.3). *)
  wvars : (string * (Ty.sign * Ty.width)) list;
  (* The unit-level facts below are indexed by function name ([Index]):
     the driver builds each index once per context, and the rules look
     names up without scanning the unit.
     Word-abstraction signatures of callees: parameter and result convs. *)
  fsigs : (string * (conv list * conv)) Index.t;
  (* Functions translated with the typed split-heap model (Sec 4.6). *)
  lifted : string Index.t;
  (* Functions whose bodies provably never throw (after L2's type
     specialisation), extending the syntactic nothrow check across calls. *)
  nothrows : string Index.t;
  (* The unit's (pre-discharge) L2 function bodies, for verifying the
     interprocedural summaries a [Rule_guard_true] certificate may carry.
     Same trust class as [nothrows]: driver-supplied facts about the
     translation unit — a wrong body here is a wrong unit, not a kernel
     hole, and the certificates themselves stay untrusted ([Absdom]
     re-verifies every summary against these bodies on each check). *)
  fbodies : M.func Index.t;
}

let empty_ctx lenv =
  { lenv; wvars = []; fsigs = Index.empty; lifted = Index.empty; nothrows = Index.empty;
    fbodies = Index.empty }

(* The index [fbodies] takes. *)
let index_funcs (l : M.func list) = Index.of_list (fun (f : M.func) -> f.M.name) l

type rule =
  (* ---- L1: monadic conversion, Table 1 ---- *)
  | L1 of Ir.stmt
  (* ---- L2: semantic-preserving rewrites ---- *)
  | Eq_refl of M.t
  | Eq_trans
  | Eq_bind of M.pat (* congruence *)
  | Eq_try of M.pat
  | Eq_cond of E.t
  | Eq_while of M.pat * E.t * E.t
  | Rw_inline of M.t * int list
    (* do v <- return e; B od = B[v:=e] at every listed position of a term *)
  | Rw_gets_bind of M.t * M.pat * M.t (* same for pure gets *)
  | Rw_bind_return of M.t * M.pat (* do v <- A; return v od = A *)
  | Rw_bind_assoc of M.t * M.pat * M.t * M.pat * M.t
  | Rw_gets_pure of E.t (* gets of a state-free expression is return *)
  | Rw_guard_true of Ir.guard_kind (* guard True = return () *)
  | Rw_cond_true of M.t * M.t
  | Rw_cond_false of M.t * M.t
  | Rw_cond_same of E.t * M.t
  | Rw_try_nothrow of M.t * M.pat * M.t (* body cannot throw *)
  | Rw_lift of (string * Ty.t) list * (string * Ty.t) list * Ty.t * M.t
    (* reflective local-variable lifting of a whole L1 body:
       params, locals, return type, L1 body *)
  | Rw_simp of M.t (* map the kernel expression simplifier over a term *)
  | Rw_elim_returns of M.t * Ty.t (* tail-position return-throw elimination *)
  | Rw_dead_after_throw of E.t * M.pat * M.t
    (* do v <- throw e; B od = throw e *)
  | Rw_dead_after_fail of M.pat * M.t (* do v <- fail; B od = fail *)
  | Rw_cond_return of E.t * M.t * M.t
    (* condition c (return/gets x) (return/gets y) = gets (if c then x else y) *)
  | Rw_discharge of M.t
    (* reflective pass deleting guards whose condition is established by a
       dominating guard or branch condition *)
  | Rw_prune_loop of int * M.pat * E.t * M.t * E.t * M.pat * M.t
    (* drop dead iterator component [i] from
       do q <- whileLoop c (λp. body) init; k od *)
  | Rule_guard_true of M.t * Absdom.cert
    (* abstract-interpretation guard discharge: rewrite away every guard
       whose condition the certified abstract walk proves.  The certificate
       (one invariant per loop) comes from the untrusted fixpoint engine in
       Ac_analysis; [Absdom.discharge] re-verifies it here, so [Thm.check]
       re-validates the side condition from scratch. *)
  (* ---- word abstraction: values (Table 3) ---- *)
  | W_var of string (* an abstracted variable *)
  | W_const of Ty.sign * Ty.width * B.t
  | W_id of E.t (* expr free of abstracted vars abstracts to itself *)
  | W_binop of E.binop * Ty.sign * Ty.width (* arithmetic/comparison, 2 premises *)
  | W_neg of Ty.sign * Ty.width
  | W_recon of Ty.sign * Ty.width (* re-concretise: Cid via of_nat/of_int *)
  | W_ite (* premises: cond (Cid), then, else *)
  | W_tuple (* premises: one per component; conv = Ctuple *)
  | W_node of E.t (* congruence over a node with Cid children *)
  | W_shortcircuit of E.binop (* ∧/∨ with implication-weakened preconditions *)
  | W_unconv of Ty.sign * Ty.width
    (* from (P, sint/unat, a, c) conclude (P, id, a, sint/unat c) *)
  | W_abs_any of Ty.sign * Ty.width
    (* from (P, id, a, c : word) conclude (P, unat/sint, unat/sint a, c) *)
  | W_custom of string (* user-registered extension rule, looked up at infer *)
  (* ---- word abstraction: statements ---- *)
  | Ws_ret
  | Ws_gets
  | Ws_guard of Ir.guard_kind
  | Ws_modify of M.smod list (* concrete modify skeleton *)
  | Ws_fail of conv * conv (* rx, ex: fail never returns, both free *)
  | Ws_unknown of Ty.t
  | Ws_throw of conv (* desired rx: a throw never returns normally *)
  | Ws_bind of M.pat (* concrete pattern; abstract pattern derived *)
  | Ws_try of M.pat
  | Ws_cond
  | Ws_while of M.pat (* concrete iterator pattern *)
  | Ws_call of string
  | Ws_exec_concrete of string
  | Ws_wrap_guard (* prepend the precondition as a guard *)
  (* ---- heap abstraction: values (Table 4) ---- *)
  | Hv_id of E.t (* no byte-heap access *)
  | Hv_read of Ty.cty (* read via lifted heap + validity *)
  | Hv_read_field of string * string (* p->f via struct heap *)
  | Hv_node of E.t (* congruence on a non-heap node *)
  | Hv_shortcircuit of E.binop (* ∧/∨: the right operand's precondition is
                                  weakened by the left's value *)
  | Hv_ite (* if-then-else with branch preconditions under the condition *)
  (* ---- heap abstraction: statements ---- *)
  | Hs_ret
  | Hs_gets
  | Hs_guard_ptr of Ty.cty (* alignment guard becomes is_valid *)
  | Hs_guard_strengthen of Ir.guard_kind
    (* pointer-validity subformulas in positive positions of a guard become
       is_valid checks (guards may fail more often under abstraction) *)
  | Hs_guard of Ir.guard_kind
  | Hs_modify of M.smod list
  | Hs_write of Ty.cty
  | Hs_write_field of string * string
  | Hs_id of M.t (* a statement that never touches the byte heap *)
  | Hs_throw
  | Hs_bind of M.pat
  | Hs_try of M.pat
  | Hs_cond
  | Hs_while of M.pat
  | Hs_call of string (* lifted callee *)
  | Hs_call_concrete of string (* byte-level callee via exec_concrete *)
  (* ---- chaining ---- *)
  | Fn_chain of string (* Corres_l1 + Equiv* + Abs_h + Abs_w compose *)

(* User-registered extension rules (paper Sec 3.3: "the rule sets can be
   extended if the user wishes to abstract code-specific idioms").  An
   extension supplies its own inference function; registering it is an
   explicit act of trust, exactly as adding a rule to the Isabelle rule set
   requires proving it. *)
let custom_rules : (string, ctx -> judgment list -> (judgment, string) result) Hashtbl.t =
  Hashtbl.create 8

let register_custom_rule name f = Hashtbl.replace custom_rules name f

(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f
let ok x = Result.ok x
(* A rejection.  Most side conditions reject with a constant message,
   which costs nothing to build; [failf] formats the rest (the messages
   that print a name or a judgment).  The rewriter proposes thousands of
   steps the kernel rejects and [Thm.by_opt] discards the message, so the
   constant path must not go through [Format]. *)
let fail (msg : string) = Result.Error msg
let failf fmt = Format.kasprintf (fun m -> Result.error m) fmt

let rule_name = function
  | L1 _ -> "l1"
  | Eq_refl _ -> "eq_refl"
  | Eq_trans -> "eq_trans"
  | Eq_bind _ -> "eq_bind"
  | Eq_try _ -> "eq_try"
  | Eq_cond _ -> "eq_cond"
  | Eq_while _ -> "eq_while"
  | Rw_inline _ -> "rw_inline"
  | Rw_gets_bind _ -> "rw_gets_bind"
  | Rw_bind_return _ -> "rw_bind_return"
  | Rw_bind_assoc _ -> "rw_bind_assoc"
  | Rw_gets_pure _ -> "rw_gets_pure"
  | Rw_guard_true _ -> "rw_guard_true"
  | Rw_cond_true _ -> "rw_cond_true"
  | Rw_cond_false _ -> "rw_cond_false"
  | Rw_cond_same _ -> "rw_cond_same"
  | Rw_try_nothrow _ -> "rw_try_nothrow"
  | Rw_lift _ -> "rw_lift"
  | Rw_simp _ -> "rw_simp"
  | Rw_elim_returns _ -> "rw_elim_returns"
  | Rw_dead_after_throw _ -> "rw_dead_after_throw"
  | Rw_dead_after_fail _ -> "rw_dead_after_fail"
  | Rw_cond_return _ -> "rw_cond_return"
  | Rw_discharge _ -> "rw_discharge"
  | Rw_prune_loop _ -> "rw_prune_loop"
  | Rule_guard_true _ -> "rule_guard_true"
  | W_var _ -> "w_var"
  | W_const _ -> "w_const"
  | W_id _ -> "w_id"
  | W_binop (op, _, _) -> (
    match op with
    | E.Add -> "w_sum"
    | E.Sub -> "w_sub"
    | E.Mul -> "w_mul"
    | E.Div -> "w_div"
    | E.Rem -> "w_mod"
    | _ -> "w_cmp")
  | W_neg _ -> "w_neg"
  | W_recon _ -> "w_recon"
  | W_ite -> "w_ite"
  | W_tuple -> "w_tuple"
  | W_node _ -> "w_node"
  | W_shortcircuit _ -> "w_shortcircuit"
  | W_unconv _ -> "w_unconv"
  | W_abs_any _ -> "w_abs_any"
  | W_custom n -> "w_custom:" ^ n
  | Ws_ret -> "ws_ret"
  | Ws_gets -> "ws_gets"
  | Ws_guard _ -> "ws_guard"
  | Ws_modify _ -> "ws_modify"
  | Ws_fail _ -> "ws_fail"
  | Ws_unknown _ -> "ws_unknown"
  | Ws_throw _ -> "ws_throw"
  | Ws_bind _ -> "ws_bind"
  | Ws_try _ -> "ws_try"
  | Ws_cond -> "ws_cond"
  | Ws_while _ -> "ws_while"
  | Ws_call _ -> "ws_call"
  | Ws_exec_concrete _ -> "ws_exec_concrete"
  | Ws_wrap_guard -> "ws_wrap_guard"
  | Hv_id _ -> "hv_id"
  | Hv_read _ -> "hv_read"
  | Hv_read_field _ -> "hv_read_field"
  | Hv_node _ -> "hv_node"
  | Hv_shortcircuit _ -> "hv_shortcircuit"
  | Hv_ite -> "hv_ite"
  | Hs_ret -> "hs_ret"
  | Hs_gets -> "hs_gets"
  | Hs_guard_ptr _ -> "hs_guard_ptr"
  | Hs_guard_strengthen _ -> "hs_guard_strengthen"
  | Hs_guard _ -> "hs_guard"
  | Hs_modify _ -> "hs_modify"
  | Hs_write _ -> "hs_write"
  | Hs_write_field _ -> "hs_write_field"
  | Hs_id _ -> "hs_id"
  | Hs_throw -> "hs_throw"
  | Hs_bind _ -> "hs_bind"
  | Hs_try _ -> "hs_try"
  | Hs_cond -> "hs_cond"
  | Hs_while _ -> "hs_while"
  | Hs_call _ -> "hs_call"
  | Hs_call_concrete _ -> "hs_call_concrete"
  | Fn_chain _ -> "fn_chain"

(* Dense numbering of the rule set, mirroring [rule_name]'s granularity
   (one id per reported name, so [W_binop] splits by operator).  Observers
   can count applications in a flat array instead of hashing the name on
   the minting hot path.  [W_custom] has no static id — its name is
   user-chosen — and maps to -1; ids of built-in rules are < [num_rule_ids]. *)
let num_rule_ids = 80

let rule_id = function
  | L1 _ -> 0
  | Eq_refl _ -> 1
  | Eq_trans -> 2
  | Eq_bind _ -> 3
  | Eq_try _ -> 4
  | Eq_cond _ -> 5
  | Eq_while _ -> 6
  | Rw_inline _ -> 7
  | Rw_gets_bind _ -> 8
  | Rw_bind_return _ -> 9
  | Rw_bind_assoc _ -> 10
  | Rw_gets_pure _ -> 11
  | Rw_guard_true _ -> 12
  | Rw_cond_true _ -> 13
  | Rw_cond_false _ -> 14
  | Rw_cond_same _ -> 15
  | Rw_try_nothrow _ -> 16
  | Rw_lift _ -> 17
  | Rw_simp _ -> 18
  | Rw_elim_returns _ -> 19
  | Rw_dead_after_throw _ -> 20
  | Rw_dead_after_fail _ -> 21
  | Rw_cond_return _ -> 22
  | Rw_discharge _ -> 23
  | Rw_prune_loop _ -> 24
  | Rule_guard_true _ -> 25
  | W_var _ -> 26
  | W_const _ -> 27
  | W_id _ -> 28
  | W_binop (op, _, _) -> (
    match op with
    | E.Add -> 29
    | E.Sub -> 30
    | E.Mul -> 31
    | E.Div -> 32
    | E.Rem -> 33
    | _ -> 34)
  | W_neg _ -> 35
  | W_recon _ -> 36
  | W_ite -> 37
  | W_tuple -> 38
  | W_node _ -> 39
  | W_shortcircuit _ -> 40
  | W_unconv _ -> 41
  | W_abs_any _ -> 42
  | W_custom _ -> -1
  | Ws_ret -> 43
  | Ws_gets -> 44
  | Ws_guard _ -> 45
  | Ws_modify _ -> 46
  | Ws_fail _ -> 47
  | Ws_unknown _ -> 48
  | Ws_throw _ -> 49
  | Ws_bind _ -> 50
  | Ws_try _ -> 51
  | Ws_cond -> 52
  | Ws_while _ -> 53
  | Ws_call _ -> 54
  | Ws_exec_concrete _ -> 55
  | Ws_wrap_guard -> 56
  | Hv_id _ -> 57
  | Hv_read _ -> 58
  | Hv_read_field _ -> 59
  | Hv_node _ -> 60
  | Hv_shortcircuit _ -> 61
  | Hv_ite -> 62
  | Hs_ret -> 63
  | Hs_gets -> 64
  | Hs_guard_ptr _ -> 65
  | Hs_guard_strengthen _ -> 66
  | Hs_guard _ -> 67
  | Hs_modify _ -> 68
  | Hs_write _ -> 69
  | Hs_write_field _ -> 70
  | Hs_id _ -> 71
  | Hs_throw -> 72
  | Hs_bind _ -> 73
  | Hs_try _ -> 74
  | Hs_cond -> 75
  | Hs_while _ -> 76
  | Hs_call _ -> 77
  | Hs_call_concrete _ -> 78
  | Fn_chain _ -> 79

(* ------------------------------------------------------------------ *)
(* Helpers shared by the word rules. *)

let wvar_conv ctx x =
  match List.assoc_opt x ctx.wvars with
  | Some (Ty.Unsigned, w) -> Some (Cunat w)
  | Some (Ty.Signed, w) -> Some (Csint w)
  | None -> None

(* Does an expression mention any abstracted variable? *)
let mentions_wvar ctx e =
  List.exists (fun v -> List.mem_assoc v ctx.wvars) (E.free_vars e)

let conv_of_sign sign w = match sign with Ty.Unsigned -> Cunat w | Ty.Signed -> Csint w

(* Abstract pattern: abstracted variables change type. *)
let rec abs_pat ctx (p : M.pat) : M.pat =
  match p with
  | M.Pwild -> M.Pwild
  | M.Ptuple ps -> M.Ptuple (List.map (abs_pat ctx) ps)
  | M.Pvar (x, t) -> (
    match (List.assoc_opt x ctx.wvars, t) with
    | Some (s, w), Ty.Tword (s', w') when s = s' && w = w' ->
      M.Pvar (x, Ty.ideal_of_word_sign s)
    | _ -> M.Pvar (x, t))

(* The conv taking a concrete pattern's value to the abstract pattern's. *)
let rec pat_conv ctx (p : M.pat) : conv =
  match p with
  | M.Pwild -> Cid
  | M.Ptuple ps -> Ctuple (List.map (pat_conv ctx) ps)
  | M.Pvar (x, t) -> (
    match (List.assoc_opt x ctx.wvars, t) with
    | Some (s, w), Ty.Tword (s', w') when s = s' && w = w' -> conv_of_sign s w
    | _ -> Cid)

let umax_e w = E.big_nat_e (W.max_value Ty.Unsigned w)
let imin_e w = E.big_int_e (W.min_value Ty.Signed w)
let imax_e w = E.big_int_e (W.max_value Ty.Signed w)

let in_srange_e w e = E.and_e (E.Binop (E.Le, imin_e w, e)) (E.Binop (E.Le, e, imax_e w))

(* Check a premise list has exactly n members. *)
let prems_n n prems =
  if List.length prems = n then ok prems else failf "expected %d premises" n

let as_wval = function
  | Abs_w_val (p, f, a, c) -> ok (p, f, a, c)
  | j -> failf "expected abs_w_val premise, got %a" pp_judgment j

let as_wstmt = function
  | Abs_w_stmt (p, rx, ex, a, c) -> ok (p, rx, ex, a, c)
  | j -> failf "expected abs_w_stmt premise, got %a" pp_judgment j

let as_hval = function
  | Abs_h_val (p, a, c) -> ok (p, a, c)
  | j -> failf "expected abs_h_val premise, got %a" pp_judgment j

let as_hstmt = function
  | Abs_h_stmt (a, c) -> ok (a, c)
  | j -> failf "expected abs_h_stmt premise, got %a" pp_judgment j

let as_equiv = function
  | Equiv (a, c) -> ok (a, c)
  | j -> failf "expected equivalence premise, got %a" pp_judgment j

(* A syntactic no-throw check: sound, incomplete.  Calls are conservatively
   assumed to throw unless the callee is known nothrow — the strategy layer
   only applies the rewrite after exception elimination, where this
   suffices. *)
let rec nothrow_in (nothrows : string Index.t) (m : M.t) =
  let go = nothrow_in nothrows in
  match m with
  | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Unknown _ -> true
  | M.Throw _ -> false
  | M.Bind (a, _, b) -> go a && go b
  | M.Try (_, _, h) -> go h
  | M.Cond (_, a, b) -> go a && go b
  | M.While (_, _, body, _) -> go body
  | M.Call (f, _) | M.Exec_concrete (f, _) -> Index.mem nothrows f

let nothrow (m : M.t) = nothrow_in Index.empty m

(* Exception convs only constrain actually-thrown values: a side that
   provably never throws imposes no constraint. *)
let merge_ex nothrows (exl : conv) (la : M.t) (exr : conv) (ra : M.t) : (conv, string) result =
  if conv_equal exl exr then Result.ok exl
  else if nothrow_in nothrows la then Result.ok exr
  else if nothrow_in nothrows ra then Result.ok exl
  else Result.error "exception convs differ"

(* Does [m] assign local [x] through the state (Local_set), or observe it
   through anything other than [Var]?  Used by the lifting rewrites. *)
let rec assigns_local x (m : M.t) =
  let in_smod = function M.Local_set (y, _) -> String.equal x y | _ -> false in
  match m with
  | M.Modify ms -> List.exists in_smod ms
  | M.Return _ | M.Gets _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _ -> false
  | M.Bind (a, _, b) | M.Try (a, _, b) -> assigns_local x a || assigns_local x b
  | M.Cond (_, a, b) -> assigns_local x a || assigns_local x b
  | M.While (_, _, body, _) -> assigns_local x body
  | M.Call _ | M.Exec_concrete _ ->
    (* Callee frames are separate; calls cannot assign our locals. *)
    false

(* Exit codes statically known to be throwable by a term: used to prune dead
   re-throw branches.  [None] = unknown (dynamic code). *)
let thrown_codes (m : M.t) : Ir.exit_kind list option =
  let exception Dynamic in
  let acc = ref [] in
  let add k = if not (List.mem k !acc) then acc := k :: !acc in
  let code_of (e : E.t) =
    match e with
    | E.Tuple (E.Const (Value.Vword (_, w)) :: _) -> (
      match W.to_int_exn w with
      | 0 -> Ir.Xreturn
      | 1 -> Ir.Xbreak
      | 2 -> Ir.Xcontinue
      | _ -> raise Dynamic)
    | _ -> raise Dynamic
  in
  let rec go m =
    match m with
    | M.Throw e -> add (code_of e)
    | M.Try (a, _, h) ->
      (* codes from a are caught here; only the handler's escape *)
      ignore a;
      go h
    | M.Bind (a, _, b) -> go a; go b
    | M.Cond (_, a, b) -> go a; go b
    | M.While (_, _, body, _) -> go body
    | M.Call _ | M.Exec_concrete _ -> raise Dynamic
    | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Unknown _ -> ()
  in
  match go m with
  | () -> Some !acc
  | exception Dynamic -> None

(* Tail-position return-throw elimination (the L2 "simplifying control flow
   for abrupt return" step).  [str m (p, cont)] rewrites [m] so that normal
   completions continue as [Bind (m, p, cont)] and Return-throws become
   plain returns of the carried value; gives up (None) on anything that
   might throw dynamically. *)
let rec str nothrows (m : M.t) ((p, cont) : M.pat * M.t) : M.t option =
  let is_return_code (e : E.t) =
    match e with
    | E.Const (Value.Vword (_, w)) -> W.to_int_exn w = Ir.exit_code Ir.Xreturn
    | _ -> false
  in
  match m with
  | M.Throw (E.Tuple (code :: ret :: _)) when is_return_code code -> Some (M.Return ret)
  | M.Throw _ -> None
  | M.Cond (c, x, y) -> (
    match (str nothrows x (p, cont), str nothrows y (p, cont)) with
    | Some x', Some y' -> Some (M.Cond (c, x', y'))
    | _ -> None)
  | M.Bind (a, q, b) -> (
    match str nothrows b (p, cont) with
    | None -> None
    | Some b' ->
      if nothrow_in nothrows a then Some (M.Bind (a, q, b')) else str nothrows a (q, b'))
  | M.Try _ | M.While _ | M.Call _ | M.Exec_concrete _ ->
    if nothrow_in nothrows m then Some (M.Bind (m, p, cont)) else None
  | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Unknown _ ->
    Some (M.Bind (m, p, cont))

(* Map the kernel expression simplifier over every expression of a term.  A
   subterm the simplifier leaves alone is returned as it is (physically). *)
let msimp lenv (m : M.t) : M.t =
  let s = Esimp.simp lenv in
  let s_args args =
    let args' = List.map s args in
    if List.for_all2 ( == ) args args' then args else args'
  in
  let rec go m =
    match m with
    | M.Return e ->
      let e' = s e in
      if e' == e then m else M.Return e'
    | M.Gets e ->
      let e' = s e in
      if not (E.reads_state e') then M.Return e' else if e' == e then m else M.Gets e'
    | M.Guard (k, e) ->
      let e' = s e in
      if e' == e then m else M.Guard (k, e')
    | M.Fail | M.Unknown _ -> m
    | M.Throw e ->
      let e' = s e in
      if e' == e then m else M.Throw e'
    | M.Modify ms ->
      let simp_one sm =
        match sm with
        | M.Heap_write (c, p, v) ->
          let p' = s p and v' = s v in
          if p' == p && v' == v then sm else M.Heap_write (c, p', v')
        | M.Typed_write (c, p, v) ->
          let p' = s p and v' = s v in
          if p' == p && v' == v then sm else M.Typed_write (c, p', v')
        | M.Global_set (x, e) ->
          let e' = s e in
          if e' == e then sm else M.Global_set (x, e')
        | M.Local_set (x, e) ->
          let e' = s e in
          if e' == e then sm else M.Local_set (x, e')
        | M.Retype (c, e) ->
          let e' = s e in
          if e' == e then sm else M.Retype (c, e')
      in
      let ms' = List.map simp_one ms in
      if List.for_all2 ( == ) ms ms' then m else M.Modify ms'
    | M.Bind (a, p, b) ->
      let a' = go a and b' = go b in
      if a' == a && b' == b then m else M.Bind (a', p, b')
    | M.Try (a, p, b) ->
      let a' = go a and b' = go b in
      if a' == a && b' == b then m else M.Try (a', p, b')
    | M.Cond (c, a, b) ->
      let c' = s c and a' = go a and b' = go b in
      if c' == c && a' == a && b' == b then m else M.Cond (c', a', b')
    | M.While (p, c, body, init) ->
      let c' = s c and body' = go body and init' = s init in
      if c' == c && body' == body && init' == init then m else M.While (p, c', body', init')
    | M.Call (f, args) ->
      let args' = s_args args in
      if args' == args then m else M.Call (f, args')
    | M.Exec_concrete (f, args) ->
      let args' = s_args args in
      if args' == args then m else M.Exec_concrete (f, args')
  in
  go m

(* ------------------------------------------------------------------ *)
(* The guard-discharging pass (the L2 "discharging guards" step).

   Walks a term tracking the set of established conditions: conditions
   already guarded on the current path, branch conditions, and loop
   conditions.  A guard whose conjuncts are all established is deleted.
   Facts are invalidated by effects that could change their value:

   - state-free facts survive everything (modulo variable rebinding);
   - validity facts (reading the state only through is_valid) survive value
     writes, but not retyping or calls;
   - anything else dies at the first state change. *)

let conjuncts (e : E.t) =
  let rec go e acc =
    match e with
    | E.Binop (E.And, a, b) -> go a (go b acc)
    | e -> e :: acc
  in
  go e []

type fact_kind = Fpure | Fvalidity | Ffragile

let fact_kind (e : E.t) : fact_kind =
  let rec reads_values e =
    match e with
    | E.HeapRead _ | E.TypedRead _ | E.Global _ -> true
    | _ -> E.exists_child reads_values e
  in
  let rec reads_validity e =
    match e with E.IsValid _ -> true | _ -> E.exists_child reads_validity e
  in
  if reads_values e then Ffragile else if reads_validity e then Fvalidity else Fpure

type kills = { k_values : bool; k_retype_or_call : bool }

let no_kills = { k_values = false; k_retype_or_call = false }
let all_kills = { k_values = true; k_retype_or_call = true }

let kills_union a b =
  { k_values = a.k_values || b.k_values;
    k_retype_or_call = a.k_retype_or_call || b.k_retype_or_call }

let smod_kills = function
  | M.Heap_write _ | M.Typed_write _ | M.Global_set _ | M.Local_set _ ->
    { k_values = true; k_retype_or_call = false }
  | M.Retype _ -> all_kills

let rec term_kills (m : M.t) : kills =
  match m with
  | M.Return _ | M.Gets _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _ -> no_kills
  | M.Modify sms -> List.fold_left (fun k sm -> kills_union k (smod_kills sm)) no_kills sms
  | M.Bind (a, _, b) | M.Try (a, _, b) -> kills_union (term_kills a) (term_kills b)
  | M.Cond (_, a, b) -> kills_union (term_kills a) (term_kills b)
  | M.While (_, _, body, _) -> term_kills body
  | M.Call _ | M.Exec_concrete _ -> all_kills

let fact_survives (k : kills) (f : E.t) =
  match fact_kind f with
  | Fpure -> true
  | Fvalidity -> not k.k_retype_or_call
  | Ffragile -> not (k.k_values || k.k_retype_or_call)

(* [List.filter p facts], sharing [facts] when [p] keeps every fact. *)
let rec filter_facts p facts =
  match facts with
  | [] -> []
  | f :: rest ->
    let rest' = filter_facts p rest in
    if not (p f) then rest' else if rest' == rest then facts else f :: rest'

let drop_rebound vars facts =
  match vars with [] -> facts | _ -> filter_facts (fun f -> not (E.occurs_any vars f)) facts

let established facts g = List.exists (E.equal g) facts

(* Returns the rewritten term and the facts established after it (on the
   normal path). *)
let rec discharge lenv (facts : E.t list) (m : M.t) : M.t * E.t list =
  match m with
  | M.Guard (k, g) ->
    let parts = conjuncts g in
    let remaining = List.filter (fun c -> not (established facts c)) parts in
    let m' =
      match remaining with
      | [] -> M.Return E.unit_e
      | parts' ->
        let g' = E.conj parts' in
        if E.equal g' g then m else M.Guard (k, g')
    in
    (m', parts @ facts)
  | M.Return _ | M.Gets _ | M.Throw _ | M.Fail | M.Unknown _ -> (m, facts)
  | M.Modify sms ->
    let k = List.fold_left (fun k sm -> kills_union k (smod_kills sm)) no_kills sms in
    (m, filter_facts (fact_survives k) facts)
  | M.Bind (a, p, b) ->
    let a', facts1 = discharge lenv facts a in
    let facts2 = drop_rebound (List.map fst (M.pat_vars p)) facts1 in
    let b', facts3 = discharge lenv facts2 b in
    ((if a' == a && b' == b then m else M.Bind (a', p, b')), facts3)
  | M.Try (a, p, h) ->
    let a', facts_a = discharge lenv facts a in
    (* Handler entry: effects of an unknown prefix of [a] have happened. *)
    let facts_h_in =
      drop_rebound (List.map fst (M.pat_vars p))
        (filter_facts (fact_survives (term_kills a)) facts)
    in
    let h', facts_h = discharge lenv facts_h_in h in
    ( (if a' == a && h' == h then m else M.Try (a', p, h')),
      List.filter (fun f -> List.exists (E.equal f) facts_h) facts_a )
  | M.Cond (c, a, b) ->
    let a', facts_a = discharge lenv (conjuncts c @ facts) a in
    let b', facts_b = discharge lenv (E.not_e c :: facts) b in
    ( (if a' == a && b' == b then m else M.Cond (c, a', b')),
      List.filter (fun f -> List.exists (E.equal f) facts_b) facts_a )
  | M.While (p, c, body, init) ->
    let k = term_kills body in
    let inner_facts =
      conjuncts c
      @ drop_rebound (List.map fst (M.pat_vars p)) (filter_facts (fact_survives k) facts)
    in
    let body', _ = discharge lenv inner_facts body in
    ((if body' == body then m else M.While (p, c, body', init)), filter_facts (fact_survives k) facts)
  | M.Call _ | M.Exec_concrete _ -> (m, filter_facts (fact_survives all_kills) facts)

let discharge_guards lenv (m : M.t) : M.t = fst (discharge lenv [] m)

(* All variable names bound anywhere inside a term (by bind, catch or loop
   patterns).  Used to reject capturing substitutions. *)
let binder_names (m : M.t) : string list =
  let acc = ref [] in
  let add p = List.iter (fun (x, _) -> if not (List.mem x !acc) then acc := x :: !acc) (M.pat_vars p) in
  let rec go m =
    match m with
    | M.Bind (a, p, b) | M.Try (a, p, b) ->
      add p;
      go a;
      go b
    | M.Cond (_, a, b) ->
      go a;
      go b
    | M.While (p, _, body, _) ->
      add p;
      go body
    | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _
    | M.Call _ | M.Exec_concrete _ ->
      ()
  in
  go m;
  !acc

(* Substituting [e] for pattern variables inside [b] is capture-free when no
   binder in [b] reuses a free variable of [e]. *)
let capture_free (e : E.t) (b : M.t) =
  match E.free_vars e with
  | [] -> true
  | fv ->
    let free x = List.mem x fv in
    let rec binds m =
      match m with
      | M.Bind (a, p, b) | M.Try (a, p, b) -> M.pat_exists free p || binds a || binds b
      | M.Cond (_, a, b) -> binds a || binds b
      | M.While (p, _, body, _) -> M.pat_exists free p || binds body
      | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _
      | M.Call _ | M.Exec_concrete _ ->
        false
    in
    not (binds b)

(* Alpha-rename every binder of [m] whose name is in [avoid] to a fresh name
   (alpha conversion: semantics-preserving by construction). *)
let alpha_avoid (avoid : string list) (m : M.t) : M.t =
  let used = ref (avoid @ M.free_vars m @ binder_names m) in
  let fresh base =
    let rec go candidate =
      if List.mem candidate !used then go (candidate ^ "'") else candidate
    in
    let name = go (base ^ "'") in
    used := name :: !used;
    name
  in
  let rec freshen_pat (p : M.pat) : M.pat * (string * E.t) list =
    match p with
    | M.Pwild -> (M.Pwild, [])
    | M.Pvar (x, t) ->
      if List.mem x avoid then begin
        let x' = fresh x in
        (M.Pvar (x', t), [ (x, E.Var (x', t)) ])
      end
      else (p, [])
    | M.Ptuple ps ->
      (* last first: of two same-named variables the later is bound *)
      let ps', subs = List.split (List.map freshen_pat ps) in
      (M.Ptuple ps', List.concat (List.rev subs))
  in
  let rec go (m : M.t) : M.t =
    match m with
    | M.Bind (a, p, b) ->
      let p', sub = freshen_pat p in
      M.Bind (go a, p', go (M.subst sub b))
    | M.Try (a, p, b) ->
      let p', sub = freshen_pat p in
      M.Try (go a, p', go (M.subst sub b))
    | M.Cond (c, a, b) -> M.Cond (c, go a, go b)
    | M.While (p, c, body, init) ->
      let p', sub = freshen_pat p in
      M.While (p', E.subst sub c, go (M.subst sub body), init)
    | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _
    | M.Call _ | M.Exec_concrete _ ->
      m
  in
  go m

(* Destructure an expression along a pattern for substitution-based
   rewrites: (x, y) <- (e1, e2) gives [x := e1; y := e2]. *)
let rec bind_expr_to_pat (p : M.pat) (e : E.t) : (string * E.t) list option =
  match (p, e) with
  | M.Pwild, _ -> Some []
  | M.Pvar (x, _), e -> Some [ (x, e) ]
  | M.Ptuple ps, E.Tuple es when List.length ps = List.length es ->
    List.fold_left2
      (fun acc p e ->
        match (acc, bind_expr_to_pat p e) with
        | Some acc, Some bs -> Some (acc @ bs)
        | _ -> None)
      (Some []) ps es
  | M.Ptuple ps, e ->
    (* project *)
    let rec go i = function
      | [] -> Some []
      | p :: rest -> (
        match (bind_expr_to_pat p (E.Proj (i, e)), go (i + 1) rest) with
        | Some bs, Some rest' -> Some (bs @ rest')
        | _ -> None)
    in
    go 0 ps

(* [Rw_inline]: inline the return-binds [do p <- return e; B od] at the
   listed [positions] of [m] (pre-order indices of its monadic nodes, in
   increasing order) in one top-down pass: a simultaneous substitution of
   every listed binding, a later pattern variable winning over an earlier
   one of the same name, as when the pattern is bound.  A binder that
   would capture a pending value is renamed to a fresh primed name.
   [None] when a listed node is not a return-bind or a position is left
   unvisited. *)
let inline_at (m : M.t) (positions : int list) : M.t option =
  let next = ref 0 and todo = ref positions in
  let drop p sigma =
    if not (M.pat_exists (fun x -> List.mem_assoc x sigma) p) then sigma
    else List.filter (fun (x, _) -> not (M.pat_exists (String.equal x) p)) sigma
  in
  (* The substitution under the binder [p] of [node], which the pass
     keeps; a renamed variable avoids every name of [node] and every free
     variable of a pending value. *)
  let under sigma p node =
    let sigma = drop p sigma in
    let captures x = List.exists (fun (_, e) -> E.mem_var x e) sigma in
    if not (M.pat_exists captures p) then (p, sigma)
    else
      let avoid =
        ref (M.free_vars node @ binder_names node @ List.concat_map (fun (_, e) -> E.free_vars e) sigma)
      in
      let rec fresh x = if List.mem x !avoid then fresh (x ^ "'") else (avoid := x :: !avoid; x) in
      let rec rename (p : M.pat) =
        match p with
        | M.Pvar (x, t) when captures x ->
          let x' = fresh (x ^ "'") in
          (M.Pvar (x', t), [ (x, E.Var (x', t)) ])
        | M.Ptuple ps ->
          let ps, subs = List.split (List.map rename ps) in
          (M.Ptuple ps, List.concat subs)
        | p -> (p, [])
      in
      let p', subs = rename p in
      (p', List.rev_append subs sigma)
  in
  let rec go sigma (m : M.t) : M.t =
    let i = !next in
    incr next;
    match (!todo, m) with
    | j :: rest, M.Bind (M.Return e, p, b) when j = i -> (
      todo := rest;
      incr next;
      match bind_expr_to_pat p e with
      | Some bs ->
        go (List.rev_append (List.map (fun (x, v) -> (x, E.subst sigma v)) bs) (drop p sigma)) b
      | None -> raise Exit)
    | j :: _, _ when j = i -> raise Exit
    | [], _ when sigma = [] -> m
    | _, (M.Bind (a, p, b) | M.Try (a, p, b)) ->
      let a' = go sigma a in
      let p', inner = under sigma p m in
      let b' = go inner b in
      if a' == a && p' == p && b' == b then m
      else (match m with M.Try _ -> M.Try (a', p', b') | _ -> M.Bind (a', p', b'))
    | _, M.Cond (c, a, b) ->
      let c' = E.subst sigma c and a' = go sigma a in
      let b' = go sigma b in
      if c' == c && a' == a && b' == b then m else M.Cond (c', a', b')
    | _, M.While (p, c, body, init) ->
      let p', inner = under sigma p m in
      let c' = E.subst inner c and body' = go inner body and init' = E.subst sigma init in
      if p' == p && c' == c && body' == body && init' == init then m
      else M.While (p', c', body', init')
    | _ -> M.subst sigma m
  in
  match go [] m with
  | m' -> if !todo = [] then Some m' else None
  | exception Exit -> None

(* Replace byte-level validity conjunctions by is_valid in the positive
   positions of a guard condition.  is_valid implies alignment and span
   (heap_lift's definition), so the result implies the original — a sound
   strengthening for guards. *)
let rec strengthen_positive (e : E.t) : E.t =
  match e with
  | E.Binop (E.And, E.PtrAligned (c, p), E.PtrSpan (c', p'))
    when Ty.cty_equal c c' && E.equal p p' ->
    E.IsValid (c, p)
  | E.Binop (E.And, a, b) -> E.and_e (strengthen_positive a) (strengthen_positive b)
  | E.Binop (E.Or, a, b) -> E.or_e (strengthen_positive a) (strengthen_positive b)
  | E.Binop (E.Imp, a, b) -> E.imp_e a (strengthen_positive b) (* a is negative: keep *)
  | _ -> e

(* [Hs_id]'s side condition: no byte-heap read or write, no retype, no
   pointer-validity guard nor one [Hs_guard_strengthen] would rewrite, no
   call.  Such a statement is its own heap abstraction, by the [Hv_id]
   argument: every per-node HL rule would conclude [Abs_h_stmt (m, m)]
   over it, each precondition being [true]. *)
let rec heap_free (m : M.t) =
  let pure e = not (E.reads_concrete_heap e) in
  match m with
  | M.Return e | M.Gets e | M.Throw e -> pure e
  | M.Guard (Ir.Ptr_valid, _) -> false
  | M.Guard (_, g) -> pure g && E.equal (strengthen_positive g) g
  | M.Modify sms ->
    List.for_all (function M.Global_set (_, e) | M.Local_set (_, e) -> pure e | _ -> false) sms
  | M.Fail | M.Unknown _ -> true
  | M.Bind (a, _, b) | M.Try (a, _, b) -> heap_free a && heap_free b
  | M.Cond (c, a, b) -> pure c && heap_free a && heap_free b
  | M.While (_, c, body, init) -> pure c && pure init && heap_free body
  | M.Call _ | M.Exec_concrete _ -> false

(* Dead-iterator-component analysis for Rw_prune_loop: rewrite every
   tail-position [Return (Tuple es)] of a loop body, dropping component i.
   Fails (None) when the body's result is not in that shape. *)
let rec drop_tail_component i (m : M.t) : M.t option =
  match m with
  | M.Return (E.Tuple es) when i < List.length es ->
    Some (M.Return (tuple_or_single (List.filteri (fun j _ -> j <> i) es)))
  | M.Bind (a, p, b) -> (
    match drop_tail_component i b with
    | Some b' -> Some (M.Bind (a, p, b'))
    | None -> None)
  | M.Cond (c, a, b) -> (
    match (drop_tail_component i a, drop_tail_component i b) with
    | Some a', Some b' -> Some (M.Cond (c, a', b'))
    | _ -> None)
  | _ -> None

and tuple_or_single = function
  | [] -> E.unit_e
  | [ e ] -> e
  | es -> E.Tuple es

let pat_or_single = function
  | [] -> M.Pwild
  | [ p ] -> p
  | ps -> M.Ptuple ps

let drop_i i xs = List.filteri (fun j _ -> j <> i) xs

(* Prepend a guard when a precondition is non-trivial. *)
let guard_if kind (p : E.t) (m : M.t) : M.t =
  if E.equal p E.true_e then m else M.Bind (M.Guard (kind, p), M.Pwild, m)

(* L1 (Table 1) in one step: the monadic image of a whole statement, node
   by node, each case the Table 1 pairing of one Simpl construct.  The [L1]
   rule takes no premises and concludes [Corres_l1 (s, l1_image s)];
   [check] recomputes the image, so a [Corres_l1 (s, m)] holds only with
   [m] the image of [s]. *)
let rec l1_image (stmt : Ir.stmt) : M.t =
  match stmt with
  | Ir.Skip -> M.Return E.unit_e
  | Ir.Seq (a, b) -> M.Bind (l1_image a, M.Pwild, l1_image b)
  | Ir.Local_set (x, e) -> M.Modify [ M.Local_set (x, e) ]
  | Ir.Global_set (x, e) -> M.Modify [ M.Global_set (x, e) ]
  | Ir.Heap_write (c, p, v) -> M.Modify [ M.Heap_write (c, p, v) ]
  | Ir.Retype (c, p) -> M.Modify [ M.Retype (c, p) ]
  | Ir.Cond (c, a, b) -> M.Cond (c, l1_image a, l1_image b)
  | Ir.While (c, body) -> M.While (M.Pwild, c, l1_image body, E.unit_e)
  | Ir.Guard (k, e) -> M.Guard (k, e)
  | Ir.Throw -> M.Throw E.unit_e
  | Ir.Try (a, b) -> M.Try (l1_image a, M.Pwild, l1_image b)
  | Ir.Call (None, f, args) -> M.Bind (M.Call (f, args), M.Pwild, M.Return E.unit_e)
  | Ir.Call (Some d, f, args) ->
    (* bind the call result, then store it in the destination local; the
       temporary's type annotation is only used for display (the value
       itself is dynamically typed) *)
    let rv = "ret'" in
    M.Bind
      (M.Call (f, args), M.Pvar (rv, Ty.Tunit), M.Modify [ M.Local_set (d, E.Var (rv, Ty.Tunit)) ])

(* ------------------------------------------------------------------ *)
(* The inference function: rule + premise conclusions -> conclusion.

   INVARIANT (wvars locality): [ctx.wvars] is consulted ONLY by the word
   rules — the [W_*] cases below and the [Fn_chain] fold over their
   conclusions — via [wvar_conv]/[mentions_wvar]/[abs_pat]/[pat_conv]
   above.  [Driver.check_all] relies on this: it re-checks each
   function's L1/L2/HL component theorems under that function's
   recomputed word-abstraction context, which is sound precisely because
   those derivations contain no wvars-sensitive rule and the two contexts
   differ only in [wvars].  If you make any non-W_* rule read
   [ctx.wvars], revisit the grouping in [Driver.check_all] (the
   "components check under the run context" test in
   [test/test_perf_layer.ml] guards this and will fail). *)

let rec infer (ctx : ctx) (rule : rule) (prems : judgment list) : (judgment, string) result =
  match rule with
  (* ================= L1: Table 1 ================= *)
  | L1 stmt ->
    let* _ = prems_n 0 prems in
    ok (Corres_l1 (stmt, l1_image stmt))
  (* ================= L2: equivalences ================= *)
  | Eq_refl m -> ok (Equiv (m, m))
  | Eq_trans ->
    let* prems = prems_n 2 prems in
    let* a, b1 = as_equiv (List.nth prems 0) in
    let* b2, c = as_equiv (List.nth prems 1) in
    if M.equal b1 b2 then ok (Equiv (a, c)) else fail "eq_trans: middle terms differ"
  | Eq_bind p ->
    let* prems = prems_n 2 prems in
    let* a1, c1 = as_equiv (List.nth prems 0) in
    let* a2, c2 = as_equiv (List.nth prems 1) in
    ok (Equiv (M.Bind (a1, p, a2), M.Bind (c1, p, c2)))
  | Eq_try p ->
    let* prems = prems_n 2 prems in
    let* a1, c1 = as_equiv (List.nth prems 0) in
    let* a2, c2 = as_equiv (List.nth prems 1) in
    ok (Equiv (M.Try (a1, p, a2), M.Try (c1, p, c2)))
  | Eq_cond c ->
    let* prems = prems_n 2 prems in
    let* a1, c1 = as_equiv (List.nth prems 0) in
    let* a2, c2 = as_equiv (List.nth prems 1) in
    ok (Equiv (M.Cond (c, a1, a2), M.Cond (c, c1, c2)))
  | Eq_while (p, cond, init) ->
    let* prems = prems_n 1 prems in
    let* a, c = as_equiv (List.hd prems) in
    ok (Equiv (M.While (p, cond, a, init), M.While (p, cond, c, init)))
  | Rw_inline (m, positions) -> (
    match inline_at m positions with
    | Some m' -> ok (Equiv (m', m))
    | None -> fail "rw_inline: a listed position is not a destructurable return-bind")
  | Rw_gets_bind (M.Gets e, p, b) ->
    if E.reads_state e then fail "rw_gets_bind: expression reads state"
    else begin
      let b' = if capture_free e b then b else alpha_avoid (E.free_vars e) b in
      match bind_expr_to_pat p e with
      | Some bs -> ok (Equiv (M.subst (List.rev bs) b', M.Bind (M.Gets e, p, b)))
      | None -> fail "rw_gets_bind: pattern mismatch"
    end
  | Rw_gets_bind _ -> fail "rw_gets_bind: not a gets"
  | Rw_bind_return (a, M.Pvar (x, t)) ->
    ok (Equiv (a, M.Bind (a, M.Pvar (x, t), M.Return (E.Var (x, t)))))
  | Rw_bind_return (a, (M.Ptuple _ as p)) ->
    ok (Equiv (a, M.Bind (a, p, M.Return (M.pat_expr p))))
  | Rw_bind_return (_, M.Pwild) -> fail "rw_bind_return: wildcard"
  | Rw_bind_assoc (a, p, b, q, c) ->
    (* (do v <- (do w <- A; B od); C od) = do w <- A; v <- B; C od,
       provided w's variables do not occur free in C *)
    if M.occurs_free (List.map fst (M.pat_vars p)) c then
      fail "rw_bind_assoc: variable capture"
    else ok (Equiv (M.Bind (a, p, M.Bind (b, q, c)), M.Bind (M.Bind (a, p, b), q, c)))
  | Rw_gets_pure e ->
    if E.reads_state e then fail "rw_gets_pure: reads state"
    else ok (Equiv (M.Return e, M.Gets e))
  | Rw_guard_true k -> ok (Equiv (M.Return E.unit_e, M.Guard (k, E.true_e)))
  | Rw_cond_true (a, b) -> ok (Equiv (a, M.Cond (E.true_e, a, b)))
  | Rw_cond_false (a, b) -> ok (Equiv (b, M.Cond (E.false_e, a, b)))
  | Rw_cond_same (c, a) ->
    if E.reads_state c then fail "rw_cond_same: effectful condition"
    else ok (Equiv (a, M.Cond (c, a, a)))
  | Rw_try_nothrow (a, p, h) ->
    if nothrow_in ctx.nothrows a then ok (Equiv (a, M.Try (a, p, h)))
    else begin
      (* Dead re-throw pruning: a handler of shape
         condition (exn = K) H (throw ...) where the body can only throw K. *)
      match (thrown_codes a, h) with
      | Some codes, M.Cond (c, h1, M.Throw _)
        when List.length codes <= 1
             && List.for_all (fun k -> E.equal c (Ir.exn_is k)) codes ->
        ok (Equiv (M.Try (a, p, h1), M.Try (a, p, h)))
      | _ -> fail "rw_try_nothrow: body may throw"
    end
  | Rw_lift (params, locals, ret_ty, body) -> (
    match Lift.lift_body ctx.lenv ~params ~locals ~ret_ty body with
    | lifted -> ok (Equiv (lifted, body))
    | exception Lift.Lift_failure m -> failf "rw_lift: %s" m)
  | Rw_simp m -> ok (Equiv (msimp ctx.lenv m, m))
  | Rw_elim_returns (m, ret_ty) -> (
    match m with
    | M.Try (body, _, M.Return (E.Var (rv, _))) when String.equal rv Ir.ret_var -> (
      (* Normal completion of the body yields the function result; throws
         carry it as the second exception component.  Straighten. *)
      let res = "fn_result'" in
      match str ctx.nothrows body (M.Pvar (res, ret_ty), M.Return (E.Var (res, ret_ty))) with
      | Some body' when nothrow_in ctx.nothrows body' -> ok (Equiv (body', m))
      | _ -> fail "rw_elim_returns: body not convertible")
    | _ -> fail "rw_elim_returns: not a return-wrapper")
  | Rw_dead_after_throw (e, p, b) ->
    ok (Equiv (M.Throw e, M.Bind (M.Throw e, p, b)))
  | Rw_dead_after_fail (p, b) -> ok (Equiv (M.Fail, M.Bind (M.Fail, p, b)))
  | Rw_cond_return (c, x, y) -> (
    let value_of = function
      | M.Return e | M.Gets e -> Some e
      | _ -> None
    in
    match (value_of x, value_of y) with
    | Some ex, Some ey ->
      let fused = E.Ite (c, ex, ey) in
      let m' = if E.reads_state fused then M.Gets fused else M.Return fused in
      ok (Equiv (m', M.Cond (c, x, y)))
    | _ -> fail "rw_cond_return: branches are not value computations")
  | Rw_discharge m -> ok (Equiv (discharge_guards ctx.lenv m, m))
  | Rule_guard_true (m, cert) -> (
    match Absdom.discharge ctx.lenv ctx.fbodies cert m with
    | Result.Ok m' -> ok (Equiv (m', m))
    | Result.Error msg -> failf "rule_guard_true: %s" msg)
  | Rw_prune_loop (i, ip, cond, body, init, qp, k) -> (
    match (ip, init, qp) with
    | M.Ptuple ips, E.Tuple inits, M.Ptuple qps
      when i < List.length ips
           && List.length ips = List.length inits
           && List.length ips = List.length qps -> (
      let flat = function
        | M.Pvar (x, _) -> Some [ x ]
        | M.Pwild -> Some []
        | M.Ptuple _ -> None (* nested: conservatively refuse *)
      in
      match (flat (List.nth ips i), flat (List.nth qps i)) with
      | None, _ | _, None -> fail "rw_prune_loop: nested component pattern"
      | Some n1, Some n2 ->
      let dead_names = n1 @ n2 in
      match drop_tail_component i body with
      | None -> fail "rw_prune_loop: body result is not a literal tuple"
      | Some body' ->
        let ips' = drop_i i ips and inits' = drop_i i inits and qps' = drop_i i qps in
        let new_loop =
          M.While (pat_or_single ips', cond, body', tuple_or_single inits')
        in
        let new_term = M.Bind (new_loop, pat_or_single qps', k) in
        (* the dropped component must be genuinely dead *)
        let mentions m =
          List.exists (fun x -> List.mem x (M.free_vars m)) dead_names
        in
        let cond_reads =
          List.exists (fun x -> List.mem x (E.free_vars cond)) dead_names
        in
        if cond_reads then fail "rw_prune_loop: condition reads the component"
        else if mentions body' then fail "rw_prune_loop: body reads the component"
        else if mentions k then fail "rw_prune_loop: continuation reads the component"
        else
          ok
            (Equiv
               ( new_term,
                 M.Bind (M.While (ip, cond, body, init), qp, k) )))
    | _ -> fail "rw_prune_loop: not a tuple-iterator loop")
  (* ================= Word abstraction: values ================= *)
  | W_var x -> (
    match List.assoc_opt x ctx.wvars with
    | Some (s, w) ->
      ok
        (Abs_w_val
           ( E.true_e,
             conv_of_sign s w,
             E.Var (x, Ty.ideal_of_word_sign s),
             E.Var (x, Ty.Tword (s, w)) ))
    | None -> failf "w_var: %s is not abstracted" x)
  | W_const (s, w, v) ->
    let word = W.of_bignum w v in
    let ideal =
      match s with
      | Ty.Unsigned -> E.big_nat_e (W.unat word)
      | Ty.Signed -> E.big_int_e (W.sint word)
    in
    ok (Abs_w_val (E.true_e, conv_of_sign s w, ideal, E.Const (Value.vword s word)))
  | W_id e ->
    if mentions_wvar ctx e then fail "w_id: mentions abstracted variables"
    else ok (Abs_w_val (E.true_e, Cid, e, e))
  | W_binop (op, sign, w) -> infer_w_binop ctx op sign w prems
  | W_neg (sign, w) -> (
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    match (sign, f) with
    | Ty.Signed, Csint w' when w = w' ->
      let e = E.Unop (E.Neg, a) in
      ok (Abs_w_val (E.and_e p (in_srange_e w e), Csint w, e, E.Unop (E.Neg, c)))
    | Ty.Unsigned, _ -> fail "w_neg: unsigned negation is not abstracted (wraps)"
    | _ -> fail "w_neg: premise conv mismatch")
  | W_recon (sign, w) ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    let expected = conv_of_sign sign w in
    if conv_equal f expected then
      ok (Abs_w_val (p, Cid, E.Cast (Ty.Tword (sign, w), a), c))
    else fail "w_recon: conv mismatch"
  | W_ite ->
    let* prems = prems_n 3 prems in
    let* pc, fc, ac, cc = as_wval (List.nth prems 0) in
    let* pa, fa, aa, ca = as_wval (List.nth prems 1) in
    let* pb, fb, ab, cb = as_wval (List.nth prems 2) in
    if not (conv_equal fc Cid) then fail "w_ite: condition must abstract to itself"
    else if not (conv_equal fa fb) then fail "w_ite: branch convs differ"
    else
      ok
        (Abs_w_val
           ( E.and_e pc (E.and_e (E.imp_e ac pa) (E.imp_e (E.not_e ac) pb)),
             fa,
             E.Ite (ac, aa, ab),
             E.Ite (cc, ca, cb) ))
  | W_tuple ->
    let* triples =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* p, f, a, c = as_wval j in
          ok ((p, f, a, c) :: acc))
        (ok []) prems
    in
    let triples = List.rev triples in
    let p = List.fold_left (fun acc (pi, _, _, _) -> E.and_e acc pi) E.true_e triples in
    ok
      (Abs_w_val
         ( p,
           Ctuple (List.map (fun (_, f, _, _) -> f) triples),
           E.Tuple (List.map (fun (_, _, a, _) -> a) triples),
           E.Tuple (List.map (fun (_, _, _, c) -> c) triples) ))
  | W_node skel -> (
    match skel with
    | E.Var (x, _) when List.mem_assoc x ctx.wvars ->
      fail "w_node: abstracted variable needs w_var"
    | _ ->
      let children = E.children skel in
      if List.length prems <> List.length children then fail "w_node: premise count"
      else begin
        let* pairs =
          List.fold_left2
            (fun acc j c ->
              let* acc = acc in
              let* p, f, a, c' = as_wval j in
              if not (conv_equal f Cid) then fail "w_node: children must be Cid"
              else if not (E.equal c c') then fail "w_node: child mismatch"
              else ok ((p, a) :: acc))
            (ok []) prems children
        in
        let pairs = List.rev pairs in
        let p = List.fold_left (fun acc (pi, _) -> E.and_e acc pi) E.true_e pairs in
        ok (Abs_w_val (p, Cid, E.replace_children skel (List.map snd pairs), skel))
      end)
  | W_shortcircuit op -> (
    match op with
    | E.And | E.Or ->
      let* prems = prems_n 2 prems in
      let* pa, fa, aa, ca = as_wval (List.nth prems 0) in
      let* pb, fb, ab, cb = as_wval (List.nth prems 1) in
      if not (conv_equal fa Cid && conv_equal fb Cid) then
        fail "w_shortcircuit: operands must be Cid"
      else begin
        let gate = match op with E.And -> aa | _ -> E.not_e aa in
        ok
          (Abs_w_val
             (E.and_e pa (E.imp_e gate pb), Cid, E.Binop (op, aa, ab), E.Binop (op, ca, cb)))
      end
    | _ -> fail "w_shortcircuit: not a boolean connective")
  | W_unconv (sign, w) ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    if not (conv_equal f (conv_of_sign sign w)) then fail "w_unconv: conv mismatch"
    else begin
      let ideal = Ty.ideal_of_word_sign sign in
      ok (Abs_w_val (p, Cid, a, E.OfWord (ideal, c)))
    end
  | W_abs_any (sign, w) ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    if not (conv_equal f Cid) then fail "w_abs_any: premise must be Cid"
    else begin
      let ideal = Ty.ideal_of_word_sign sign in
      ok (Abs_w_val (p, conv_of_sign sign w, E.OfWord (ideal, a), c))
    end
  | W_custom name -> (
    match Hashtbl.find_opt custom_rules name with
    | Some f -> f ctx prems
    | None -> failf "w_custom: unknown rule %s" name)
  (* ================= Word abstraction: statements ================= *)
  | Ws_ret ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    ok (Abs_w_stmt (p, f, Cid, M.Return a, M.Return c))
  | Ws_gets ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    ok (Abs_w_stmt (p, f, Cid, M.Gets a, M.Gets c))
  | Ws_guard k ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    if not (conv_equal f Cid) then fail "ws_guard: condition must abstract to itself"
    else
      (* The abstract guard also assumes the precondition: failing more
         often than the concrete program is sound for abs_w_stmt. *)
      ok (Abs_w_stmt (E.true_e, Cid, Cid, M.Guard (k, E.and_e p a), M.Guard (k, c)))
  | Ws_modify sms ->
    let rec consume prems sms acc_p acc =
      match sms with
      | [] ->
        if prems = [] then ok (acc_p, List.rev acc) else fail "ws_modify: surplus premises"
      | sm :: rest -> (
        match sm with
        | M.Heap_write (cty, cp, cv) | M.Typed_write (cty, cp, cv) -> (
          match prems with
          | j1 :: j2 :: prems' ->
            let* p1, f1, a1, c1 = as_wval j1 in
            let* p2, f2, a2, c2 = as_wval j2 in
            if not (conv_equal f1 Cid && conv_equal f2 Cid) then
              fail "ws_modify: operands must be re-concretised"
            else if not (E.equal c1 cp && E.equal c2 cv) then
              fail "ws_modify: premise/skeleton mismatch"
            else begin
              let mk p v =
                match sm with
                | M.Heap_write _ -> M.Heap_write (cty, p, v)
                | _ -> M.Typed_write (cty, p, v)
              in
              consume prems' rest (E.and_e acc_p (E.and_e p1 p2)) (mk a1 a2 :: acc)
            end
          | _ -> fail "ws_modify: missing premises")
        | M.Global_set (x, ce) | M.Local_set (x, ce) -> (
          match prems with
          | j1 :: prems' ->
            let* p1, f1, a1, c1 = as_wval j1 in
            if not (conv_equal f1 Cid) then fail "ws_modify: value must be re-concretised"
            else if not (E.equal c1 ce) then fail "ws_modify: premise/skeleton mismatch"
            else begin
              let mk e =
                match sm with M.Global_set _ -> M.Global_set (x, e) | _ -> M.Local_set (x, e)
              in
              consume prems' rest (E.and_e acc_p p1) (mk a1 :: acc)
            end
          | _ -> fail "ws_modify: missing premises")
        | M.Retype (cty, ce) -> (
          match prems with
          | j1 :: prems' ->
            let* p1, f1, a1, c1 = as_wval j1 in
            if not (conv_equal f1 Cid && E.equal c1 ce) then fail "ws_modify: retype mismatch"
            else consume prems' rest (E.and_e acc_p p1) (M.Retype (cty, a1) :: acc)
          | _ -> fail "ws_modify: missing premises"))
    in
    let* p, abs_sms = consume prems sms E.true_e [] in
    ok (Abs_w_stmt (p, Cid, Cid, M.Modify abs_sms, M.Modify sms))
  | Ws_fail (rx, ex) -> ok (Abs_w_stmt (E.true_e, rx, ex, M.Fail, M.Fail))
  | Ws_unknown t -> ok (Abs_w_stmt (E.true_e, Cid, Cid, M.Unknown t, M.Unknown t))
  | Ws_throw rx ->
    let* prems = prems_n 1 prems in
    let* p, f, a, c = as_wval (List.hd prems) in
    (* The thrown value may be abstracted: f plays the paper's ex role.
       A throw never returns normally, so rx is unconstrained. *)
    ok (Abs_w_stmt (p, rx, f, M.Throw a, M.Throw c))
  | Ws_bind cpat ->
    let* prems = prems_n 2 prems in
    let* pl, rx1, exl, la, lc = as_wstmt (List.nth prems 0) in
    let* pr, rx2, exr, ra, rc = as_wstmt (List.nth prems 1) in
    if not (E.equal pl E.true_e && E.equal pr E.true_e) then
      fail "ws_bind: premises must be guard-wrapped first"
    else begin
      match merge_ex ctx.nothrows exl la exr ra with
      | Result.Error m -> failf "ws_bind: %s" m
      | Result.Ok ex ->
        if not (conv_equal rx1 (pat_conv ctx cpat)) then
          fail "ws_bind: left conv does not match the bound pattern"
        else
          ok
            (Abs_w_stmt
               (E.true_e, rx2, ex, M.Bind (la, abs_pat ctx cpat, ra), M.Bind (lc, cpat, rc)))
    end
  | Ws_try cpat ->
    let* prems = prems_n 2 prems in
    let* pl, rx1, exl, la, lc = as_wstmt (List.nth prems 0) in
    let* pr, rx2, exr, ra, rc = as_wstmt (List.nth prems 1) in
    if not (E.equal pl E.true_e && E.equal pr E.true_e) then
      fail "ws_try: premises must be guard-wrapped first"
    else if not (conv_equal exl (pat_conv ctx cpat)) then
      fail "ws_try: body exception conv does not match the handler pattern"
    else if not (conv_equal rx1 rx2) then fail "ws_try: result convs differ"
    else
      ok
        (Abs_w_stmt
           (E.true_e, rx1, exr, M.Try (la, abs_pat ctx cpat, ra), M.Try (lc, cpat, rc)))
  | Ws_cond ->
    let* prems = prems_n 3 prems in
    let* pc, fc, ac, cc = as_wval (List.nth prems 0) in
    let* pa, rxa, exa, aa, ca = as_wstmt (List.nth prems 1) in
    let* pb, rxb, exb, ab, cb = as_wstmt (List.nth prems 2) in
    if not (conv_equal fc Cid) then fail "ws_cond: condition must abstract to itself"
    else if not (E.equal pa E.true_e && E.equal pb E.true_e) then
      fail "ws_cond: branches must be guard-wrapped first"
    else if not (conv_equal rxa rxb) then fail "ws_cond: branch result convs differ"
    else begin
      match merge_ex ctx.nothrows exa aa exb ab with
      | Result.Error m -> failf "ws_cond: %s" m
      | Result.Ok ex -> ok (Abs_w_stmt (pc, rxa, ex, M.Cond (ac, aa, ab), M.Cond (cc, ca, cb)))
    end
  | Ws_while cpat ->
    let* prems = prems_n 3 prems in
    let* pi, fi, ai, ci = as_wval (List.nth prems 0) in
    let* pc, fc, ac, cc = as_wval (List.nth prems 1) in
    let* pb, rxb, exb, ab, cb = as_wstmt (List.nth prems 2) in
    let iconv = pat_conv ctx cpat in
    if not (conv_equal fi iconv) then fail "ws_while: init conv mismatch"
    else if not (conv_equal fc Cid) then fail "ws_while: condition must abstract to itself"
    else if not (E.equal pc E.true_e) then fail "ws_while: condition precondition must be trivial"
    else if not (E.equal pb E.true_e) then fail "ws_while: body must be guard-wrapped first"
    else if not (conv_equal rxb iconv) then fail "ws_while: body conv mismatch"
    else
      ok
        (Abs_w_stmt
           ( pi,
             iconv,
             exb,
             M.While (abs_pat ctx cpat, ac, ab, ai),
             M.While (cpat, cc, cb, ci) ))
  | Ws_call fname -> (
    match Index.find_opt ctx.fsigs fname with
    | None -> failf "ws_call: no signature for %s" fname
    | Some (_, (param_convs, ret_conv)) ->
      if List.length prems <> List.length param_convs then fail "ws_call: arity mismatch"
      else begin
        let* args =
          List.fold_left2
            (fun acc j expected ->
              let* acc = acc in
              let* p, f, a, c = as_wval j in
              if not (conv_equal f expected) then fail "ws_call: argument conv mismatch"
              else ok ((p, a, c) :: acc))
            (ok []) prems param_convs
        in
        let args = List.rev args in
        let p = List.fold_left (fun acc (pi, _, _) -> E.and_e acc pi) E.true_e args in
        ok
          (Abs_w_stmt
             ( p,
               ret_conv,
               Cid,
               M.Call (fname, List.map (fun (_, a, _) -> a) args),
               M.Call (fname, List.map (fun (_, _, c) -> c) args) ))
      end)
  | Ws_exec_concrete fname ->
    let* args =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* p, f, a, c = as_wval j in
          if not (conv_equal f Cid) then fail "ws_exec_concrete: args must be concrete"
          else ok ((p, a, c) :: acc))
        (ok []) prems
    in
    let args = List.rev args in
    let p = List.fold_left (fun acc (pi, _, _) -> E.and_e acc pi) E.true_e args in
    ok
      (Abs_w_stmt
         ( p,
           Cid,
           Cid,
           M.Exec_concrete (fname, List.map (fun (_, a, _) -> a) args),
           M.Exec_concrete (fname, List.map (fun (_, _, c) -> c) args) ))
  | Ws_wrap_guard ->
    let* prems = prems_n 1 prems in
    let* p, rx, ex, a, c = as_wstmt (List.hd prems) in
    ok (Abs_w_stmt (E.true_e, rx, ex, guard_if Ir.Unsigned_overflow p a, c))
  (* ================= Heap abstraction ================= *)
  | Hv_id e ->
    if E.reads_concrete_heap e then fail "hv_id: reads the byte heap"
    else ok (Abs_h_val (E.true_e, e, e))
  | Hv_read cty ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    ok
      (Abs_h_val
         (E.and_e p (E.IsValid (cty, a)), E.TypedRead (cty, a), E.HeapRead (cty, c)))
  | Hv_read_field (sname, fname) -> (
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    if not (Layout.has_struct ctx.lenv sname) then fail "hv_read_field: undeclared struct"
    else
      match Layout.field_type ctx.lenv sname fname with
      | fty ->
        ok
          (Abs_h_val
             ( E.and_e p (E.IsValid (Ty.Cstruct sname, a)),
               E.StructGet (sname, fname, E.TypedRead (Ty.Cstruct sname, a)),
               E.HeapRead (fty, E.FieldAddr (sname, fname, c)) ))
      | exception Layout.Unknown_field _ -> fail "hv_read_field: unknown field")
  | Hv_node skel -> (
    (* Congruence: rebuild a non-heap node from abstracted children. *)
    match skel with
    | E.HeapRead _ -> fail "hv_node: byte-heap reads need hv_read"
    | _ ->
      let children = E.children skel in
      if List.length prems <> List.length children then fail "hv_node: premise count"
      else begin
        let* triples =
          List.fold_left2
            (fun acc j c ->
              let* acc = acc in
              let* p, a, c' = as_hval j in
              if not (E.equal c c') then fail "hv_node: child mismatch" else ok ((p, a) :: acc))
            (ok []) prems children
        in
        let triples = List.rev triples in
        let p = List.fold_left (fun acc (pi, _) -> E.and_e acc pi) E.true_e triples in
        ok (Abs_h_val (p, E.replace_children skel (List.map snd triples), skel))
      end)
  | Hv_shortcircuit op -> (
    match op with
    | E.And | E.Or ->
      let* prems = prems_n 2 prems in
      let* pa, aa, ca = as_hval (List.nth prems 0) in
      let* pb, ab, cb = as_hval (List.nth prems 1) in
      (* b is evaluated only when a is true (∧) / false (∨). *)
      let gate = match op with E.And -> aa | _ -> E.not_e aa in
      ok
        (Abs_h_val
           (E.and_e pa (E.imp_e gate pb), E.Binop (op, aa, ab), E.Binop (op, ca, cb)))
    | _ -> fail "hv_shortcircuit: not a boolean connective")
  | Hv_ite ->
    let* prems = prems_n 3 prems in
    let* pc, ac, cc = as_hval (List.nth prems 0) in
    let* pa, aa, ca = as_hval (List.nth prems 1) in
    let* pb, ab, cb = as_hval (List.nth prems 2) in
    ok
      (Abs_h_val
         ( E.and_e pc (E.and_e (E.imp_e ac pa) (E.imp_e (E.not_e ac) pb)),
           E.Ite (ac, aa, ab),
           E.Ite (cc, ca, cb) ))
  | Hs_ret ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid p (M.Return a), M.Return c))
  | Hs_gets ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid p (M.Gets a), M.Gets c))
  | Hs_guard_ptr cty ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    (* HPTR: the abstract is_valid guard is stronger than the concrete
       alignment/span guard. *)
    let concrete = M.Guard (Ir.Ptr_valid, E.and_e (E.PtrAligned (cty, c)) (E.PtrSpan (cty, c))) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid p (M.Guard (Ir.Ptr_valid, E.IsValid (cty, a))), concrete))
  | Hs_guard_strengthen k ->
    (* premise: abs_h_val for the *strengthened* condition; the concrete
       side is reconstructed by weakening is_valid back. *)
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    let rec weaken (e : E.t) : E.t =
      match e with
      | E.IsValid (cty, ptr) ->
        E.and_e (E.PtrAligned (cty, ptr)) (E.PtrSpan (cty, ptr))
      | E.Binop (E.And, x, y) -> E.and_e (weaken x) (weaken y)
      | E.Binop (E.Or, x, y) -> E.or_e (weaken x) (weaken y)
      | E.Binop (E.Imp, x, y) -> E.imp_e x (weaken y)
      | _ -> e
    in
    if not (E.equal (strengthen_positive (weaken c)) c) then
      fail "hs_guard_strengthen: premise does not round-trip"
    else ok (Abs_h_stmt (M.Guard (k, E.and_e p a), M.Guard (k, weaken c)))
  | Hs_guard k ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    ok (Abs_h_stmt (M.Guard (k, E.and_e p a), M.Guard (k, c)))
  | Hs_write cty ->
    let* prems = prems_n 2 prems in
    let* p1, a1, c1 = as_hval (List.nth prems 0) in
    let* p2, a2, c2 = as_hval (List.nth prems 1) in
    let p = E.and_e (E.and_e p1 p2) (E.IsValid (cty, a1)) in
    ok
      (Abs_h_stmt
         ( guard_if Ir.Ptr_valid p (M.Modify [ M.Typed_write (cty, a1, a2) ]),
           M.Modify [ M.Heap_write (cty, c1, c2) ] ))
  | Hs_write_field (sname, fname) -> (
    let* prems = prems_n 2 prems in
    let* p1, a1, c1 = as_hval (List.nth prems 0) in
    let* p2, a2, c2 = as_hval (List.nth prems 1) in
    if not (Layout.has_struct ctx.lenv sname) then fail "hs_write_field: undeclared struct"
    else
      match Layout.field_type ctx.lenv sname fname with
      | fty ->
        let sc = Ty.Cstruct sname in
        let p = E.and_e (E.and_e p1 p2) (E.IsValid (sc, a1)) in
        ok
          (Abs_h_stmt
             ( guard_if Ir.Ptr_valid p
                 (M.Modify
                    [ M.Typed_write
                        (sc, a1, E.StructSet (sname, fname, E.TypedRead (sc, a1), a2)) ]),
               M.Modify [ M.Heap_write (fty, E.FieldAddr (sname, fname, c1), c2) ] ))
      | exception Layout.Unknown_field _ -> fail "hs_write_field: unknown field")
  | Hs_modify sms -> (
    (* Non-heap modifies (globals, local sets at L1). *)
    match
      List.for_all
        (function M.Global_set _ | M.Local_set _ -> true | _ -> false)
        sms
    with
    | false -> fail "hs_modify: heap writes need hs_write"
    | true ->
      let rec consume prems sms acc_p acc =
        match sms with
        | [] -> if prems = [] then ok (acc_p, List.rev acc) else fail "hs_modify: surplus"
        | sm :: rest -> (
          match (sm, prems) with
          | (M.Global_set (x, ce) | M.Local_set (x, ce)), j :: prems' ->
            let* p, a, c = as_hval j in
            if not (E.equal c ce) then fail "hs_modify: mismatch"
            else begin
              let mk e =
                match sm with M.Global_set _ -> M.Global_set (x, e) | _ -> M.Local_set (x, e)
              in
              consume prems' rest (E.and_e acc_p p) (mk a :: acc)
            end
          | _ -> fail "hs_modify: missing premise")
      in
      let* p, abs_sms = consume prems sms E.true_e [] in
      ok (Abs_h_stmt (guard_if Ir.Ptr_valid p (M.Modify abs_sms), M.Modify sms)))
  | Hs_id m ->
    if heap_free m then ok (Abs_h_stmt (m, m)) else fail "hs_id: touches the byte heap"
  | Hs_throw ->
    let* prems = prems_n 1 prems in
    let* p, a, c = as_hval (List.hd prems) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid p (M.Throw a), M.Throw c))
  | Hs_bind pat ->
    let* prems = prems_n 2 prems in
    let* la, lc = as_hstmt (List.nth prems 0) in
    let* ra, rc = as_hstmt (List.nth prems 1) in
    ok (Abs_h_stmt (M.Bind (la, pat, ra), M.Bind (lc, pat, rc)))
  | Hs_try pat ->
    let* prems = prems_n 2 prems in
    let* la, lc = as_hstmt (List.nth prems 0) in
    let* ra, rc = as_hstmt (List.nth prems 1) in
    ok (Abs_h_stmt (M.Try (la, pat, ra), M.Try (lc, pat, rc)))
  | Hs_cond ->
    let* prems = prems_n 3 prems in
    let* pc, ac, cc = as_hval (List.nth prems 0) in
    let* aa, ca = as_hstmt (List.nth prems 1) in
    let* ab, cb = as_hstmt (List.nth prems 2) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid pc (M.Cond (ac, aa, ab)), M.Cond (cc, ca, cb)))
  | Hs_while pat ->
    let* prems = prems_n 3 prems in
    let* pi, ai, ci = as_hval (List.nth prems 0) in
    let* pc, ac, cc = as_hval (List.nth prems 1) in
    let* ab, cb = as_hstmt (List.nth prems 2) in
    (* A loop condition that reads the heap incurs validity obligations at
       every evaluation point: before entry and after each iteration. *)
    let entry_guard =
      if E.equal pc E.true_e then []
      else begin
        match bind_expr_to_pat pat ai with
        | Some bs -> [ M.Guard (Ir.Ptr_valid, E.subst bs pc) ]
        | None -> [ M.Guard (Ir.Ptr_valid, E.subst [] pc) ]
      end
    in
    let body' =
      if E.equal pc E.true_e then ab
      else begin
        let res = "loop_res'" in
        let rty = M.pat_ty pat in
        M.Bind
          ( ab,
            M.Pvar (res, rty),
            M.Bind
              ( M.Guard
                  ( Ir.Ptr_valid,
                    match bind_expr_to_pat pat (E.Var (res, rty)) with
                    | Some bs -> E.subst bs pc
                    | None -> pc ),
                M.Pwild,
                M.Return (E.Var (res, rty)) ) )
      end
    in
    let a_loop = M.While (pat, ac, body', ai) in
    let a = M.seq_of_list (entry_guard @ [ a_loop ]) in
    ok (Abs_h_stmt (guard_if Ir.Ptr_valid pi a, M.While (pat, cc, cb, ci)))
  | Hs_call fname ->
    if not (Index.mem ctx.lifted fname) then failf "hs_call: %s is not heap-lifted" fname
    else begin
      let* args =
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* p, a, c = as_hval j in
            ok ((p, a, c) :: acc))
          (ok []) prems
      in
      let args = List.rev args in
      let p = List.fold_left (fun acc (pi, _, _) -> E.and_e acc pi) E.true_e args in
      ok
        (Abs_h_stmt
           ( guard_if Ir.Ptr_valid p (M.Call (fname, List.map (fun (_, a, _) -> a) args)),
             M.Call (fname, List.map (fun (_, _, c) -> c) args) ))
    end
  | Hs_call_concrete fname ->
    (* Sec 4.6: calls from lifted code to byte-level code go through
       exec_concrete. *)
    let* args =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* p, a, c = as_hval j in
          ok ((p, a, c) :: acc))
        (ok []) prems
    in
    let args = List.rev args in
    let p = List.fold_left (fun acc (pi, _, _) -> E.and_e acc pi) E.true_e args in
    ok
      (Abs_h_stmt
         ( guard_if Ir.Ptr_valid p
             (M.Exec_concrete (fname, List.map (fun (_, a, _) -> a) args)),
           M.Call (fname, List.map (fun (_, _, c) -> c) args) ))
  (* ================= chaining ================= *)
  | Fn_chain name -> (
    (* corres_l1 C m1, m1 == m2 (possibly several), abs_h m3 m2,
       abs_w m4 m3 ... the conclusion names the end points. *)
    match prems with
    | [] -> fail "fn_chain: no premises"
    | first :: rest ->
      let* src, cur =
        match first with
        | Corres_l1 (_, m) -> ok (m, m)
        | Equiv (a, c) -> ok (c, a)
        | Abs_h_stmt (a, c) -> ok (c, a)
        | Abs_w_stmt (p, _, _, a, c) ->
          if E.equal p E.true_e then ok (c, a) else fail "fn_chain: open precondition"
        | j -> failf "fn_chain: bad first premise %a" pp_judgment j
      in
      let* final =
        List.fold_left
          (fun acc j ->
            let* cur = acc in
            match j with
            | Equiv (a, c) when M.equal c cur -> ok a
            | Abs_h_stmt (a, c) when M.equal c cur -> ok a
            | Abs_w_stmt (p, _, _, a, c) when M.equal c cur ->
              if E.equal p E.true_e then ok a else fail "fn_chain: open precondition"
            | _ -> fail "fn_chain: break in the chain"
          )
          (ok cur) rest
      in
      ok (Fn_refines (name, final, src)))

and infer_w_binop ctx (op : E.binop) sign w prems : (judgment, string) result =
  ignore ctx;
  let* prems = prems_n 2 prems in
  let* p1, f1, a1, c1 = as_wval (List.nth prems 0) in
  let* p2, f2, a2, c2 = as_wval (List.nth prems 1) in
  let expected = conv_of_sign sign w in
  if not (conv_equal f1 expected && conv_equal f2 expected) then
    fail "w_binop: premise conv mismatch"
  else begin
    let pq = E.and_e p1 p2 in
    let abs = E.Binop (op, a1, a2) in
    let conc = E.Binop (op, c1, c2) in
    let arith precond = ok (Abs_w_val (E.and_e pq precond, expected, abs, conc)) in
    let cmp () = ok (Abs_w_val (pq, Cid, abs, conc)) in
    match (op, sign) with
    | E.Add, Ty.Unsigned -> arith (E.Binop (E.Le, abs, umax_e w))
    | E.Sub, Ty.Unsigned -> arith (E.Binop (E.Le, a2, a1))
    | E.Mul, Ty.Unsigned -> arith (E.Binop (E.Le, abs, umax_e w))
    | (E.Div | E.Rem), Ty.Unsigned -> arith E.true_e
    | (E.Add | E.Sub | E.Mul | E.Div), Ty.Signed -> arith (in_srange_e w abs)
    | E.Rem, Ty.Signed -> arith E.true_e
    | (E.Lt | E.Le | E.Gt | E.Ge | E.Eq | E.Ne), _ -> cmp ()
    | _ -> fail "w_binop: operator not abstracted (use w_recon)"
  end
