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

   The word-abstraction rule [W_abs] implements Table 3 (plus the
   unlisted members of the ~40-rule set the paper describes) and the
   heap-abstraction rule [Hl] implements Table 4, each over a whole term
   in one step. *)

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

(* A congruence script for [Eq_congr], run on a term from left to right:
   [Here] rewrites the current term by the next premise, [Equiv (a, c)]
   with [c] the current term, to [a]; [At (i, s)] runs [s] on its child
   [i]: 0 is the first child (a bind's or a try's body, a condition's
   then-branch, a loop's body), 1 the second (a bind's continuation, a
   try's handler, a condition's else-branch). *)
type step = Here | At of int * step list

type rule =
  (* ---- L1: monadic conversion, Table 1 ---- *)
  | L1 of Ir.stmt
  (* ---- L2: semantic-preserving rewrites ---- *)
  | Eq_trans
  | Eq_congr of M.t * step list
    (* congruence and transitivity: rewrite a term by a script, one
       premise per [Here] *)
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
  (* ---- word abstraction, Table 3 ---- *)
  | W_abs of conv * string list * M.t
    (* (want, exts, m): the word-abstracted image of the whole term [m] at
       result conv [want], computed here, consulting the user extensions
       named in [exts] *)
  (* ---- heap abstraction, Table 4 ---- *)
  | Hl of M.t
    (* the split-heap image of a whole byte-level term, computed here *)
  (* ---- chaining ---- *)
  | Fn_chain of string (* Corres_l1 + Equiv* + Abs_h + Abs_w compose *)

(* A value abstraction [(P, f, a, c)]: under precondition [P], the
   abstract expression [a] is [f] of the concrete one [c] (paper Sec 3.3). *)
type wval = E.t * conv * E.t * E.t

(* User-registered extensions (paper Sec 3.3: "the rule sets can be
   extended if the user wishes to abstract code-specific idioms").  An
   extension is consulted at each value node before the built-in rules,
   with [sub], the built-in ideal abstraction of an operand at its own
   word type; [W_abs] names the extensions it consults.  Registering one
   is an explicit act of trust, exactly as adding a rule to the Isabelle
   rule set requires proving it. *)
let custom_rules : (string, ctx -> (E.t -> wval option) -> E.t -> wval option) Hashtbl.t =
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
  | Eq_trans -> "eq_trans"
  | Eq_congr _ -> "eq_congr"
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
  | W_abs _ -> "w_abs"
  | Hl _ -> "hl"
  | Fn_chain _ -> "fn_chain"

(* Dense numbering of the rule set, one id per rule name.  Observers can
   count applications in a flat array instead of hashing the name on the
   minting hot path; every id is < [num_rule_ids]. *)
let num_rule_ids = 25

let rule_id = function
  | L1 _ -> 0
  | Eq_trans -> 1
  | Eq_congr _ -> 2
  | Rw_inline _ -> 3
  | Rw_gets_bind _ -> 4
  | Rw_bind_return _ -> 5
  | Rw_bind_assoc _ -> 6
  | Rw_gets_pure _ -> 7
  | Rw_guard_true _ -> 8
  | Rw_cond_true _ -> 9
  | Rw_cond_false _ -> 10
  | Rw_cond_same _ -> 11
  | Rw_try_nothrow _ -> 12
  | Rw_lift _ -> 13
  | Rw_simp _ -> 14
  | Rw_elim_returns _ -> 15
  | Rw_dead_after_throw _ -> 16
  | Rw_dead_after_fail _ -> 17
  | Rw_cond_return _ -> 18
  | Rw_discharge _ -> 19
  | Rw_prune_loop _ -> 20
  | Rule_guard_true _ -> 21
  | W_abs _ -> 22
  | Hl _ -> 23
  | Fn_chain _ -> 24

(* ------------------------------------------------------------------ *)
(* Premise shapes.  Each rule matches its premise list against the one
   shape it takes, so no arity can make an inference raise. *)

let no_prems = function [] -> ok () | _ -> fail "expected no premises"

let as_equiv = function
  | Equiv (a, c) -> ok (a, c)
  | j -> failf "expected equivalence premise, got %a" pp_judgment j

let equiv2 = function
  | [ j1; j2 ] ->
    let* a1, c1 = as_equiv j1 in
    let* a2, c2 = as_equiv j2 in
    ok (a1, c1, a2, c2)
  | _ -> fail "expected 2 premises"

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
      match B.to_int_opt (W.unat w) with
      | Some 0 -> Ir.Xreturn
      | Some 1 -> Ir.Xbreak
      | Some 2 -> Ir.Xcontinue
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
    | E.Const (Value.Vword (_, w)) -> B.to_int_opt (W.unat w) = Some (Ir.exit_code Ir.Xreturn)
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

(* The kernel expression simplifier [s] on the expressions of [m]'s own
   node, its subterms left as they are; [Gets] of an expression that
   simplifies to a state-free one becomes [Return].  A node the
   simplifier leaves alone is returned as it is (physically). *)
let msimp_head (s : E.t -> E.t) (m : M.t) : M.t =
  let s_args args =
    let args' = List.map s args in
    if List.for_all2 ( == ) args args' then args else args'
  in
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
  | M.Fail | M.Unknown _ | M.Bind _ | M.Try _ -> m
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
  | M.Cond (c, a, b) ->
    let c' = s c in
    if c' == c then m else M.Cond (c', a, b)
  | M.While (p, c, body, init) ->
    let c' = s c and init' = s init in
    if c' == c && init' == init then m else M.While (p, c', body, init')
  | M.Call (f, args) ->
    let args' = s_args args in
    if args' == args then m else M.Call (f, args')
  | M.Exec_concrete (f, args) ->
    let args' = s_args args in
    if args' == args then m else M.Exec_concrete (f, args')

(* Map the kernel expression simplifier over every expression of a term.  A
   subterm the simplifier leaves alone is returned as it is (physically). *)
let msimp lenv (m : M.t) : M.t =
  let s = Esimp.simp lenv in
  let rec go m =
    match msimp_head s m with
    | M.Bind (a, p, b) as m ->
      let a' = go a and b' = go b in
      if a' == a && b' == b then m else M.Bind (a', p, b')
    | M.Try (a, p, b) as m ->
      let a' = go a and b' = go b in
      if a' == a && b' == b then m else M.Try (a', p, b')
    | M.Cond (c, a, b) as m ->
      let a' = go a and b' = go b in
      if a' == a && b' == b then m else M.Cond (c, a', b')
    | M.While (p, c, body, init) as m ->
      let body' = go body in
      if body' == body then m else M.While (p, c, body', init)
    | m -> m
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
    if sigma = [] || not (M.pat_exists captures p) then (p, sigma)
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

(* The inverse rewrite: every is_valid in a positive position back to the
   byte-level alignment and span conjunction. *)
let rec weaken_positive (e : E.t) : E.t =
  match e with
  | E.IsValid (c, p) -> E.and_e (E.PtrAligned (c, p)) (E.PtrSpan (c, p))
  | E.Binop (E.And, a, b) -> E.and_e (weaken_positive a) (weaken_positive b)
  | E.Binop (E.Or, a, b) -> E.or_e (weaken_positive a) (weaken_positive b)
  | E.Binop (E.Imp, a, b) -> E.imp_e a (weaken_positive b)
  | _ -> e

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

(* Heap abstraction (Table 4) in one step: the split-heap image of a whole
   byte-level term.  The [Hl] rule takes no premises and concludes
   [Abs_h_stmt (hl_image ctx m, m)]; [check] recomputes the image.

   A value [e] abstracts to a pair [(P, a)]: under the validity
   precondition [P], [e] reads the byte heap as [a] reads the typed split
   heaps (paper Sec 4.5).  A byte-heap read [*p] abstracts to [s[p]] under
   [is_valid p], a field read [p->f] to the field of the struct heap's
   [s[p]]; a short-circuit connective or an if-then-else gates its
   operands' preconditions by the value that decides whether they are
   evaluated.  A statement's preconditions become one pointer-validity
   guard in front of it.  A statement that never touches the byte heap is
   its own image ([None] below), decided from its children. *)
let hl_image (ctx : ctx) (m : M.t) : (M.t, string) result =
  let exception Refuse of string in
  let refuse fmt = Format.kasprintf (fun msg -> raise (Refuse msg)) fmt in
  let pure e = not (E.reads_concrete_heap e) in
  let field sname fname cty =
    if not (Layout.has_struct ctx.lenv sname) then refuse "undeclared struct %s" sname;
    match Layout.field_type ctx.lenv sname fname with
    | fty -> if not (Ty.cty_equal fty cty) then refuse "%s.%s accessed at another type" sname fname
    | exception Layout.Unknown_field _ -> refuse "struct %s has no field %s" sname fname
  in
  let conj_all ps = List.fold_left (fun acc (p, _) -> E.and_e acc p) E.true_e ps in
  let rec value (e : E.t) : E.t * E.t =
    match e with
    | E.HeapRead (cty, E.FieldAddr (sname, fname, p)) ->
      field sname fname cty;
      let pp, ap = value p in
      let sc = Ty.Cstruct sname in
      (E.and_e pp (E.IsValid (sc, ap)), E.StructGet (sname, fname, E.TypedRead (sc, ap)))
    | E.HeapRead (cty, p) ->
      let pp, ap = value p in
      (E.and_e pp (E.IsValid (cty, ap)), E.TypedRead (cty, ap))
    | _ when pure e -> (E.true_e, e)
    | E.Binop (((E.And | E.Or) as op), a, b) ->
      let pa, aa = value a and pb, ab = value b in
      let gate = match op with E.And -> aa | _ -> E.not_e aa in
      (E.and_e pa (E.imp_e gate pb), E.Binop (op, aa, ab))
    | E.Ite (c, a, b) ->
      let pc, ac = value c and pa, aa = value a and pb, ab = value b in
      (E.and_e pc (E.and_e (E.imp_e ac pa) (E.imp_e (E.not_e ac) pb)), E.Ite (ac, aa, ab))
    | _ ->
      let kids = List.map value (E.children e) in
      (conj_all kids, E.replace_children e (List.map snd kids))
  in
  let guarded p m = guard_if Ir.Ptr_valid p m in
  let value_stmt mk e =
    if pure e then None
    else
      let p, a = value e in
      Some (guarded p (mk a))
  in
  let rec stmt (m : M.t) : M.t option =
    match m with
    | M.Return e -> value_stmt (fun a -> M.Return a) e
    | M.Gets e -> value_stmt (fun a -> M.Gets a) e
    | M.Throw e -> value_stmt (fun a -> M.Throw a) e
    | M.Guard (Ir.Ptr_valid, E.Binop (E.And, E.PtrAligned (c, p), E.PtrSpan (c', p')))
      when Ty.cty_equal c c' && E.equal p p' ->
      (* the alignment and span guard becomes is_valid, which implies it *)
      let pp, ap = value p in
      Some (guarded pp (M.Guard (Ir.Ptr_valid, E.IsValid (c, ap))))
    | M.Guard (k, g) ->
      let g' = strengthen_positive g in
      if not (E.equal g' g) then begin
        (* a guard may fail more often under abstraction: its positive
           alignment and span conjunctions become is_valid *)
        if not (E.equal (weaken_positive g') g) then
          refuse "strengthened guard does not round-trip";
        let p, a = value g' in
        Some (M.Guard (k, E.and_e p a))
      end
      else if k <> Ir.Ptr_valid && pure g then None
      else
        let p, a = value g in
        Some (M.Guard (k, E.and_e p a))
    | M.Modify [ M.Heap_write (cty, E.FieldAddr (sname, fname, p), v) ] ->
      field sname fname cty;
      let pp, ap = value p and pv, av = value v in
      let sc = Ty.Cstruct sname in
      Some
        (guarded
           (E.and_e (E.and_e pp pv) (E.IsValid (sc, ap)))
           (M.Modify
              [ M.Typed_write (sc, ap, E.StructSet (sname, fname, E.TypedRead (sc, ap), av)) ]))
    | M.Modify [ M.Heap_write (cty, p, v) ] ->
      let pp, ap = value p and pv, av = value v in
      Some
        (guarded
           (E.and_e (E.and_e pp pv) (E.IsValid (cty, ap)))
           (M.Modify [ M.Typed_write (cty, ap, av) ]))
    | M.Modify sms ->
      if List.exists (function M.Retype _ -> true | _ -> false) sms then
        refuse "retype in heap-lifted code";
      let sets =
        List.map
          (function
            | M.Global_set (x, e) -> (x, e, fun x a -> M.Global_set (x, a))
            | M.Local_set (x, e) -> (x, e, fun x a -> M.Local_set (x, a))
            | M.Heap_write _ | M.Typed_write _ | M.Retype _ -> refuse "compound heap modify")
          sms
      in
      if List.for_all (fun (_, e, _) -> pure e) sets then None
      else
        let vals = List.map (fun (_, e, _) -> value e) sets in
        Some
          (guarded (conj_all vals)
             (M.Modify (List.map2 (fun (x, _, mk) (_, a) -> mk x a) sets vals)))
    | M.Fail | M.Unknown _ -> None
    | M.Bind (a, p, b) -> (
      match (stmt a, stmt b) with
      | None, None -> None
      | ra, rb -> Some (M.Bind (image a ra, p, image b rb)))
    | M.Try (a, p, h) -> (
      match (stmt a, stmt h) with
      | None, None -> None
      | ra, rh -> Some (M.Try (image a ra, p, image h rh)))
    | M.Cond (c, a, b) -> (
      match (stmt a, stmt b) with
      | None, None when pure c -> None
      | ra, rb ->
        let pc, ac = value c in
        Some (guarded pc (M.Cond (ac, image a ra, image b rb))))
    | M.While (pat, c, body, init) -> (
      match stmt body with
      | None when pure c && pure init -> None
      | rb ->
        let pi, ai = value init and pc, ac = value c in
        let ab = image body rb in
        (* A loop condition that reads the heap incurs validity obligations
           at every evaluation point: before entry and after each
           iteration. *)
        let at (e : E.t) =
          match bind_expr_to_pat pat e with Some bs -> E.subst bs pc | None -> pc
        in
        let loop =
          if E.equal pc E.true_e then M.While (pat, ac, ab, ai)
          else
            let res = "loop_res'" and rty = M.pat_ty pat in
            let recheck =
              M.Bind
                ( M.Guard (Ir.Ptr_valid, at (E.Var (res, rty))),
                  M.Pwild,
                  M.Return (E.Var (res, rty)) )
            in
            M.Bind
              ( M.Guard (Ir.Ptr_valid, at ai),
                M.Pwild,
                M.While (pat, ac, M.Bind (ab, M.Pvar (res, rty), recheck), ai) )
        in
        Some (guarded pi loop))
    | M.Call (f, args) ->
      (* Sec 4.6: a call into byte-level code goes through exec_concrete *)
      let vals = List.map value args in
      let args' = List.map snd vals in
      Some
        (guarded (conj_all vals)
           (if Index.mem ctx.lifted f then M.Call (f, args') else M.Exec_concrete (f, args')))
    | M.Exec_concrete _ -> refuse "exec_concrete below heap abstraction"
  and image m = function Some a -> a | None -> m in
  match stmt m with
  | r -> ok (image m r)
  | exception Refuse msg -> Result.Error ("hl: " ^ msg)

(* The type of a concrete expression, read from its annotations; [None]
   where they do not say. *)
let rec ty_hint (e : E.t) : Ty.t option =
  match e with
  | E.Const v -> Some (Value.ty_of v)
  | E.Var (_, t) | E.Global (_, t) -> Some t
  | E.Unop (E.Not, _) -> Some Ty.Tbool
  | E.Unop (_, x) -> ty_hint x
  | E.Binop ((E.Eq | E.Ne | E.Lt | E.Le | E.Gt | E.Ge | E.And | E.Or | E.Imp), _, _) ->
    Some Ty.Tbool
  | E.Binop (_, x, y) | E.Ite (_, x, y) -> (
    match ty_hint x with Some t -> Some t | None -> ty_hint y)
  | E.Cast (t, _) | E.OfWord (t, _) -> Some t
  | E.HeapRead (c, _) | E.TypedRead (c, _) -> Some (Ty.of_cty c)
  | E.IsValid _ | E.PtrAligned _ | E.PtrSpan _ -> Some Ty.Tbool
  | E.PtrAdd (c, _, _) -> Some (Ty.Tptr c)
  | E.FieldAddr _ | E.StructGet _ | E.StructSet _ | E.Tuple _ | E.Proj _ -> None

let word_hint e = match ty_hint e with Some (Ty.Tword (s, w)) -> Some (s, w) | _ -> None

(* Word abstraction (Table 3) in one step: the image of a whole term under
   the variable registration [ctx.wvars], at result conv [want].  The
   [W_abs] rule takes no premises and concludes
   [Abs_w_stmt (True, rx, ex, image, m)]; [check] recomputes the image.

   A registered variable of machine-word type becomes an ideal natural
   (unsigned) or integer (signed).  A value abstracts to a precondition
   and an abstract expression, in one of two ways:

   - [ideal]: at the ideal conv [unat]/[sint] of one width.  Constants,
     registered variables and arithmetic over them, each operator under
     its no-overflow precondition (WSUM and its kin).  Anything else is
     outside the rule set.
   - [cid]: at conv id, always.  A comparison of ideal operands and
     [unat]/[sint] of an ideal operand become ideal; a registered variable
     is re-concretised ([of_nat]/[of_int]); any other node keeps its shape
     over abstracted children.

   A short-circuit connective or an if-then-else gates its operands'
   preconditions by the value that decides whether they are evaluated.  A
   loop condition, which no guard can precede, takes only abstractions
   with a trivial precondition ([safe]).  A statement's preconditions
   become one overflow guard in front of it.  The named user extensions
   are consulted at each value node first; a result is taken only when its
   concrete side is the node itself, its conv is the one wanted and, under
   [safe], its precondition is trivial. *)
let wa_image (ctx : ctx) (exts : string list) (want : conv) (m : M.t) :
    (conv * conv * M.t, string) result =
  let exception Refuse of string in
  let refuse fmt = Format.kasprintf (fun msg -> raise (Refuse msg)) fmt in
  let conv_of_sign s w = match s with Ty.Unsigned -> Cunat w | Ty.Signed -> Csint w in
  let wnames = List.map fst ctx.wvars in
  let all ps = List.fold_left E.and_e E.true_e ps in
  let gate_ite pc ac pa pb = E.and_e pc (E.and_e (E.imp_e ac pa) (E.imp_e (E.not_e ac) pb)) in
  let in_srange w e =
    E.and_e
      (E.Binop (E.Le, E.big_int_e (W.min_value Ty.Signed w), e))
      (E.Binop (E.Le, e, E.big_int_e (W.max_value Ty.Signed w)))
  in
  (* A registered binder: its abstract pattern and its conv. *)
  let rec pat (p : M.pat) : M.pat * conv =
    match p with
    | M.Pvar (x, Ty.Tword (s, w)) when List.assoc_opt x ctx.wvars = Some (s, w) ->
      (M.Pvar (x, Ty.ideal_of_word_sign s), conv_of_sign s w)
    | M.Pvar _ | M.Pwild -> (p, Cid)
    | M.Ptuple ps ->
      let ps, cs = List.split (List.map pat ps) in
      (M.Ptuple ps, Ctuple cs)
  in
  let hooks = List.filter_map (Hashtbl.find_opt custom_rules) exts in
  let rec consult hooks keep e =
    List.find_map
      (fun h ->
        match h ctx sub e with
        | Some (p, f, a, c) when E.equal c e && keep p f -> Some (p, a)
        | _ -> None)
      hooks
  and sub e =
    match word_hint e with
    | Some (s, w) -> Option.map (fun (p, a) -> (p, conv_of_sign s w, a, e)) (ideal [] (s, w) e)
    | None -> None
  and ideal hooks (sign, w) e : (E.t * E.t) option =
    match consult hooks (fun _ f -> conv_equal f (conv_of_sign sign w)) e with
    | Some r -> Some r
    | None -> (
      let ideal = ideal hooks (sign, w) in
      match e with
      | E.Const (Value.Vword (s, word)) when s = sign && W.width_of word = w ->
        Some
          ( E.true_e,
            match s with
            | Ty.Unsigned -> E.big_nat_e (W.unat word)
            | Ty.Signed -> E.big_int_e (W.sint word) )
      | E.Var (x, Ty.Tword (s, w'))
        when s = sign && w' = w && List.assoc_opt x ctx.wvars = Some (s, w) ->
        Some (E.true_e, E.Var (x, Ty.ideal_of_word_sign s))
      | E.Binop (((E.Add | E.Sub | E.Mul | E.Div | E.Rem) as op), a, b) -> (
        match (ideal a, ideal b) with
        | Some (pa, aa), Some (pb, ab) ->
          let abs = E.Binop (op, aa, ab) in
          let bound =
            match (op, sign) with
            | (E.Add | E.Mul), Ty.Unsigned ->
              E.Binop (E.Le, abs, E.big_nat_e (W.max_value Ty.Unsigned w))
            | E.Sub, Ty.Unsigned -> E.Binop (E.Le, ab, aa)
            | E.Rem, _ | _, Ty.Unsigned -> E.true_e
            | _, Ty.Signed -> in_srange w abs
          in
          Some (E.and_e (E.and_e pa pb) bound, abs)
        | _ -> None)
      | E.Unop (E.Neg, a) when sign = Ty.Signed ->
        Option.map
          (fun (pa, aa) ->
            let abs = E.Unop (E.Neg, aa) in
            (E.and_e pa (in_srange w abs), abs))
          (ideal a)
      | E.Ite (c, a, b) -> (
        let pc, ac = cid hooks ~safe:true c in
        match (ideal a, ideal b) with
        | Some (pa, aa), Some (pb, ab) -> Some (gate_ite pc ac pa pb, E.Ite (ac, aa, ab))
        | _ -> None)
      | _ -> None)
  and cid hooks ~safe e : E.t * E.t =
    let trivial p = (not safe) || E.equal p E.true_e in
    match consult hooks (fun p f -> conv_equal f Cid && trivial p) e with
    | Some r -> r
    | None -> (
      if not (E.occurs_any wnames e) then (E.true_e, e)
      else
        let ideal_of =
          match e with
          | E.OfWord (t, x) -> (
            match word_hint x with
            | Some (s, w) when t = Ty.ideal_of_word_sign s -> ideal hooks (s, w) x
            | _ -> None)
          | E.Binop (((E.Lt | E.Le | E.Gt | E.Ge | E.Eq | E.Ne) as op), a, b) -> (
            match word_hint a with
            | None -> None
            | Some sw -> (
              match (ideal hooks sw a, ideal hooks sw b) with
              | Some (pa, aa), Some (pb, ab) -> Some (E.and_e pa pb, E.Binop (op, aa, ab))
              | _ -> None))
          | _ -> None
        in
        match ideal_of with
        | Some (p, a) when trivial p -> (p, a)
        | _ -> (
          match e with
          | E.Var (x, t) -> (
            (* [e] mentions a registered name, so [x] is registered *)
            match List.assoc_opt x ctx.wvars with
            | Some (s, w) when t = Ty.Tword (s, w) ->
              (E.true_e, E.Cast (t, E.Var (x, Ty.ideal_of_word_sign s)))
            | _ -> refuse "w_var: %s read at another type than its registration" x)
          | E.Binop (((E.And | E.Or) as op), a, b) when not safe ->
            let pa, aa = cid hooks ~safe a and pb, ab = cid hooks ~safe b in
            let gate = match op with E.And -> aa | _ -> E.not_e aa in
            (E.and_e pa (E.imp_e gate pb), E.Binop (op, aa, ab))
          | _ ->
            let kids = List.map (cid hooks ~safe) (E.children e) in
            (all (List.map fst kids), E.replace_children e (List.map snd kids))))
  in
  (* A value at conv [want]: its precondition and abstract side. *)
  let rec value want e : E.t * E.t =
    match want with
    | Cid -> cid hooks ~safe:false e
    | Cunat w | Csint w -> (
      let s = match want with Cunat _ -> Ty.Unsigned | _ -> Ty.Signed in
      match ideal hooks (s, w) e with
      | Some r -> r
      | None ->
        let p, a = cid hooks ~safe:false e in
        (p, E.OfWord (Ty.ideal_of_word_sign s, a)))
    | Ctuple cs -> (
      match e with
      | E.Tuple es when List.length es = List.length cs ->
        let vs = List.map2 value cs es in
        (all (List.map fst vs), E.Tuple (List.map snd vs))
      | E.Ite (c, a, b) ->
        let pc, ac = cid hooks ~safe:false c in
        let pa, aa = value want a and pb, ab = value want b in
        (gate_ite pc ac pa pb, E.Ite (ac, aa, ab))
      | _ -> refuse "tuple conv (%d components) of a non-tuple" (List.length cs))
  in
  (* A statement at result conv [want]: its result and exception convs and
     its image, preconditions guarded. *)
  let merge_ex what exl la exr ra =
    if conv_equal exl exr then exl
    else if nothrow_in ctx.nothrows la then exr
    else if nothrow_in ctx.nothrows ra then exl
    else refuse "%s: exception convs differ" what
  in
  let guarded p rx ex a = (rx, ex, guard_if Ir.Unsigned_overflow p a) in
  let rec stmt want (m : M.t) : conv * conv * M.t =
    match m with
    | M.Return e ->
      let p, a = value want e in
      guarded p want Cid (M.Return a)
    | M.Gets e ->
      let p, a = value want e in
      guarded p want Cid (M.Gets a)
    | M.Guard (k, g) ->
      (* the abstract guard also assumes the precondition *)
      let p, a = cid hooks ~safe:false g in
      (Cid, Cid, M.Guard (k, E.and_e p a))
    | M.Modify sms ->
      let one (acc, out) sm =
        let v e = cid hooks ~safe:false e in
        match sm with
        | M.Heap_write (c, pe, ve) | M.Typed_write (c, pe, ve) ->
          let (p1, a1), (p2, a2) = (v pe, v ve) in
          let sm' =
            match sm with
            | M.Heap_write _ -> M.Heap_write (c, a1, a2)
            | _ -> M.Typed_write (c, a1, a2)
          in
          (E.and_e acc (E.and_e p1 p2), sm' :: out)
        | M.Global_set (x, e) -> let p, a = v e in (E.and_e acc p, M.Global_set (x, a) :: out)
        | M.Local_set (x, e) -> let p, a = v e in (E.and_e acc p, M.Local_set (x, a) :: out)
        | M.Retype (c, e) -> let p, a = v e in (E.and_e acc p, M.Retype (c, a) :: out)
      in
      let p, out = List.fold_left one (E.true_e, []) sms in
      guarded p Cid Cid (M.Modify (List.rev out))
    | M.Fail -> (want, Cid, M.Fail)
    | M.Unknown _ -> (Cid, Cid, m)
    | M.Throw e ->
      (* every word-typed component of a thrown tuple is abstracted by its
         type, so that throw sites and handlers agree on one conv *)
      let ex =
        match e with
        | E.Tuple es ->
          Ctuple
            (List.map
               (fun el -> match word_hint el with Some (s, w) -> conv_of_sign s w | None -> Cid)
               es)
        | _ -> Cid
      in
      let p, a = value ex e in
      guarded p want ex (M.Throw a)
    | M.Bind (a, p, b) ->
      let p', pconv = pat p in
      let rx1, exl, la = stmt pconv a in
      let rx2, exr, ra = stmt want b in
      let ex = merge_ex "ws_bind" exl la exr ra in
      if not (conv_equal rx1 pconv) then
        refuse "ws_bind: left conv does not match the bound pattern";
      (rx2, ex, M.Bind (la, p', ra))
    | M.Try (a, p, h) ->
      let p', pconv = pat p in
      let rx1, exl, la = stmt want a in
      let rx2, exr, ra = stmt want h in
      if not (conv_equal exl pconv) then
        refuse "ws_try: body exception conv does not match the handler pattern";
      if not (conv_equal rx1 rx2) then refuse "ws_try: result convs differ";
      (rx1, exr, M.Try (la, p', ra))
    | M.Cond (c, a, b) ->
      let pc, ac = cid hooks ~safe:false c in
      let rxa, exa, aa = stmt want a in
      let rxb, exb, ab = stmt want b in
      if not (conv_equal rxa rxb) then refuse "ws_cond: branch result convs differ";
      guarded pc rxa (merge_ex "ws_cond" exa aa exb ab) (M.Cond (ac, aa, ab))
    | M.While (p, c, body, init) ->
      let p', iconv = pat p in
      let pi, ai = value iconv init in
      let pc, ac = cid hooks ~safe:true c in
      let rxb, exb, ab = stmt iconv body in
      if not (E.equal pc E.true_e) then refuse "ws_while: condition precondition must be trivial";
      if not (conv_equal rxb iconv) then refuse "ws_while: body conv mismatch";
      guarded pi iconv exb (M.While (p', ac, ab, ai))
    | M.Call (f, args) -> (
      match Index.find_opt ctx.fsigs f with
      | None -> refuse "no word-abstraction signature for %s" f
      | Some (_, (pconvs, rconv)) ->
        if List.length pconvs <> List.length args then refuse "ws_call: arity mismatch";
        let vs = List.map2 value pconvs args in
        guarded (all (List.map fst vs)) rconv Cid (M.Call (f, List.map snd vs)))
    | M.Exec_concrete (f, args) ->
      let vs = List.map (cid hooks ~safe:false) args in
      guarded (all (List.map fst vs)) Cid Cid (M.Exec_concrete (f, List.map snd vs))
  in
  match List.find_opt (fun n -> not (Hashtbl.mem custom_rules n)) exts with
  | Some n -> failf "unknown extension %s" n
  | None -> ( match stmt want m with r -> ok r | exception Refuse msg -> Result.Error msg)

(* ------------------------------------------------------------------ *)
(* The inference function: rule + premise conclusions -> conclusion.

   INVARIANT (wvars locality): [ctx.wvars] is consulted ONLY by the one
   word rule, [W_abs], through [wa_image] above ([Fn_chain] folds over
   its conclusions without reading the context).  [Driver.check_all]
   relies on this: it re-checks each function's L1/L2/HL component
   theorems under that function's recomputed word-abstraction context,
   which is sound precisely because those derivations contain no
   wvars-sensitive rule and the two contexts differ only in [wvars].  If
   you make any other rule read [ctx.wvars], revisit the grouping in
   [Driver.check_all] (the "components check under the run context" test
   in [test/test_perf_layer.ml] guards this and will fail). *)

let infer (ctx : ctx) (rule : rule) (prems : judgment list) : (judgment, string) result =
  match rule with
  (* ================= L1: Table 1 ================= *)
  | L1 stmt ->
    let* () = no_prems prems in
    ok (Corres_l1 (stmt, l1_image stmt))
  (* ================= L2: equivalences ================= *)
  | Eq_trans ->
    let* a, b1, b2, c = equiv2 prems in
    if M.equal b1 b2 then ok (Equiv (a, c)) else fail "eq_trans: middle terms differ"
  | Eq_congr (m, steps) -> (
    let exception Refuse of string in
    (* the term after [steps], and the premises they left *)
    let rec run cur steps prems =
      match (steps, prems) with
      | [], _ -> (cur, prems)
      | Here :: steps, Equiv (a, c) :: prems ->
        if M.equal cur c then run a steps prems
        else raise (Refuse "eq_congr: a premise does not rewrite the term it is applied to")
      | Here :: _, _ :: _ -> raise (Refuse "eq_congr: expected equivalence premises")
      | Here :: _, [] -> raise (Refuse "eq_congr: a step without a premise")
      | At (i, sub) :: steps, _ ->
        let cur, prems =
          match (i, cur) with
          | 0, M.Bind (x, p, y) ->
            let x, prems = run x sub prems in
            (M.Bind (x, p, y), prems)
          | 1, M.Bind (x, p, y) ->
            let y, prems = run y sub prems in
            (M.Bind (x, p, y), prems)
          | 0, M.Try (x, p, y) ->
            let x, prems = run x sub prems in
            (M.Try (x, p, y), prems)
          | 1, M.Try (x, p, y) ->
            let y, prems = run y sub prems in
            (M.Try (x, p, y), prems)
          | 0, M.Cond (e, x, y) ->
            let x, prems = run x sub prems in
            (M.Cond (e, x, y), prems)
          | 1, M.Cond (e, x, y) ->
            let y, prems = run y sub prems in
            (M.Cond (e, x, y), prems)
          | 0, M.While (p, e, body, init) ->
            let body, prems = run body sub prems in
            (M.While (p, e, body, init), prems)
          | _ -> raise (Refuse "eq_congr: no such child")
        in
        run cur steps prems
    in
    match run m steps prems with
    | a, [] -> ok (Equiv (a, m))
    | _, _ :: _ -> fail "eq_congr: a premise without a step"
    | exception Refuse msg -> fail msg)
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
      when 0 <= i && i < List.length ips
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
  (* ================= Word abstraction: Table 3 ================= *)
  | W_abs (want, exts, m) ->
    let* () = no_prems prems in
    let* rx, ex, a = wa_image ctx exts want m in
    ok (Abs_w_stmt (E.true_e, rx, ex, a, m))
  (* ================= Heap abstraction: Table 4 ================= *)
  | Hl m ->
    let* () = no_prems prems in
    let* a = hl_image ctx m in
    ok (Abs_h_stmt (a, m))
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
