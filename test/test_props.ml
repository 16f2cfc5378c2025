(* Property-based soundness tests for the trusted computational pieces:
   the kernel expression simplifier preserves evaluation, the prover's
   term simplifier preserves ground evaluation, linear-arithmetic verdicts
   agree with brute-force search, the byte codec round-trips, local-variable
   lifting preserves behaviour, no rule instance makes the kernel raise,
   and the rule ids are dense. *)

module B = Ac_bignum
module W = Ac_word
module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module T = Ac_prover.Term
module SMap = Map.Make (String)

let lenv = Layout.empty

(* ------------------------------------------------------------------ *)
(* Random pure expressions over a small environment. *)

let env_vars =
  [ ("i", Ty.Tint); ("j", Ty.Tint); ("n", Ty.Tnat); ("m", Ty.Tnat); ("b", Ty.Tbool) ]

let gen_expr =
  let open QCheck.Gen in
  let leaf_int = oneof [ map E.int_e (int_range (-20) 20);
                         oneofl [ E.Var ("i", Ty.Tint); E.Var ("j", Ty.Tint) ] ] in
  let leaf_nat = oneof [ map E.nat_e (int_range 0 20);
                         oneofl [ E.Var ("n", Ty.Tnat); E.Var ("m", Ty.Tnat) ] ] in
  let rec expr ty n =
    if n = 0 then (match ty with `I -> leaf_int | `N -> leaf_nat | `B -> bool_leaf)
    else begin
      match ty with
      | `I ->
        oneof
          [ leaf_int;
            map2 (fun a c -> E.Binop (E.Add, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Sub, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Mul, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map (fun a -> E.Unop (E.Neg, a)) (expr `I (n - 1));
            map3 (fun c a x -> E.Ite (c, a, x)) (expr `B (n - 1)) (expr `I (n - 1))
              (expr `I (n - 1)) ]
      | `N ->
        oneof
          [ leaf_nat;
            map2 (fun a c -> E.Binop (E.Add, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map2 (fun a c -> E.Binop (E.Sub, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map3 (fun c a x -> E.Ite (c, a, x)) (expr `B (n - 1)) (expr `N (n - 1))
              (expr `N (n - 1)) ]
      | `B ->
        oneof
          [ bool_leaf;
            map2 (fun a c -> E.Binop (E.Lt, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 (fun a c -> E.Binop (E.Le, a, c)) (expr `N (n - 1)) (expr `N (n - 1));
            map2 (fun a c -> E.Binop (E.Eq, a, c)) (expr `I (n - 1)) (expr `I (n - 1));
            map2 E.and_e (expr `B (n - 1)) (expr `B (n - 1));
            map2 E.or_e (expr `B (n - 1)) (expr `B (n - 1));
            map E.not_e (expr `B (n - 1)) ]
    end
  and bool_leaf =
    oneof [ oneofl [ E.true_e; E.false_e ]; return (E.Var ("b", Ty.Tbool)) ]
  in
  let* depth = int_range 0 4 in
  let* k = oneofl [ `I; `N; `B ] in
  expr k depth

let gen_env =
  let open QCheck.Gen in
  let* i = int_range (-30) 30 in
  let* j = int_range (-30) 30 in
  let* n = int_range 0 30 in
  let* m = int_range 0 30 in
  let* b = bool in
  return
    (SMap.of_list
       [ ("i", Value.Vint (B.of_int i)); ("j", Value.Vint (B.of_int j));
         ("n", Value.vnat (B.of_int n)); ("m", Value.vnat (B.of_int m));
         ("b", Value.Vbool b) ])

let arb_expr_env =
  QCheck.make
    ~print:(fun (e, _) -> Ac_lang.Pretty.expr_to_string e)
    QCheck.Gen.(pair gen_expr gen_env)

(* ------------------------------------------------------------------ *)
(* Random prover terms. *)

let gen_term =
  let open QCheck.Gen in
  let leaf =
    oneof [ map T.int_of (int_range (-20) 20); oneofl [ T.Var ("x", T.Sint); T.Var ("y", T.Sint) ] ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 T.add_t (go (n - 1)) (go (n - 1));
          map2 T.sub_t (go (n - 1)) (go (n - 1));
          map2 (fun a b -> T.mul_t (T.int_of 3) (T.add_t a b)) (go (n - 1)) (go (n - 1));
          map (fun a -> T.App (T.Neg, [ a ])) (go (n - 1)) ]
  in
  let* depth = int_range 0 4 in
  go depth

let arb_term_env =
  QCheck.make
    ~print:(fun (t, _) -> T.to_string t)
    QCheck.Gen.(
      pair gen_term (pair (int_range (-15) 15) (int_range (-15) 15)))

(* ------------------------------------------------------------------ *)
(* Random monadic programs with guards, for the guard-discharge pass.
   Every value is a u32 word, so arithmetic is total (modular); the only
   failure source is a [Guard] evaluating to false — exactly the outcome
   the discharge pass claims to rule out for the guards it removes.  The
   property is differential: the kernel-checked rewrite must agree with
   the original program under the interpreter on every probed input, so a
   discharged guard that could actually fail shows up as [Fails] on one
   side and a normal outcome on the other. *)

module M = Ac_monad.M
module Interp = Ac_monad.Interp
module State = Ac_simpl.State
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

let u32 = Ty.Tword (Ty.Unsigned, Ty.W32)
let w32 n = E.word_e Ty.Unsigned Ty.W32 n

let gen_wexpr vars n =
  let open QCheck.Gen in
  let leaf =
    oneof [ map w32 (int_range 0 40); map (fun x -> E.Var (x, u32)) (oneofl vars) ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> E.Binop (E.Add, a, b)) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> E.Binop (E.Sub, a, b)) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> E.Binop (E.Mul, a, b)) (go (n - 1)) (go (n - 1)) ]
  in
  go n

let gen_cond vars n =
  let open QCheck.Gen in
  let cmp =
    let* op = oneofl [ E.Lt; E.Le; E.Eq; E.Ne; E.Gt; E.Ge ] in
    map2 (fun a b -> E.Binop (op, a, b)) (gen_wexpr vars n) (gen_wexpr vars n)
  in
  oneof [ cmp; map2 E.and_e cmp cmp; map2 E.or_e cmp cmp; map E.not_e cmp ]

let gen_guard_kind =
  QCheck.Gen.oneofl
    [ Ir.Div_by_zero; Ir.Shift_bounds; Ir.Array_bounds; Ir.Unsigned_overflow ]

let rec gen_prog vars n =
  let open QCheck.Gen in
  if n = 0 then map (fun e -> M.Return e) (gen_wexpr vars 1)
  else
    oneof
      [ map (fun e -> M.Return e) (gen_wexpr vars 2);
        map (fun e -> M.Throw e) (gen_wexpr vars 1);
        (let* k = gen_guard_kind in
         let* c = gen_cond vars 1 in
         let* rest = gen_prog vars (n - 1) in
         return (M.Bind (M.Guard (k, c), M.Pwild, rest)));
        (let* c = gen_cond vars 1 in
         map2 (fun a b -> M.Cond (c, a, b)) (gen_prog vars (n - 1)) (gen_prog vars (n - 1)));
        (let z = Printf.sprintf "z%d" (List.length vars) in
         let* e = gen_wexpr vars 2 in
         let* rest = gen_prog (z :: vars) (n - 1) in
         return (M.Bind (M.Return e, M.Pvar (z, u32), rest)));
        (let* g = gen_wexpr vars 2 in
         let* rest = gen_prog vars (n - 1) in
         return (M.Bind (M.Modify [ M.Global_set ("g", g) ], M.Pwild, rest)));
        (let i = Printf.sprintf "w%d" (List.length vars) in
         let z = Printf.sprintf "z%d" (List.length vars) in
         let* bound = int_range 0 6 in
         let* k = gen_guard_kind in
         let* c = gen_cond (i :: vars) 1 in
         let* init = gen_wexpr vars 1 in
         let body =
           M.Bind
             (M.Guard (k, c), M.Pwild, M.Return (E.Binop (E.Add, E.Var (i, u32), w32 1)))
         in
         let loop =
           M.While (M.Pvar (i, u32), E.Binop (E.Lt, E.Var (i, u32), w32 bound), body, init)
         in
         let* rest = gen_prog (z :: vars) (n - 1) in
         return (M.Bind (loop, M.Pvar (z, u32), rest))) ]

let gen_mprog =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    gen_prog [ "x"; "y" ] depth)

let arb_mprog =
  QCheck.make
    ~print:(fun (m, _) -> Ac_monad.Mprint.to_string m)
    QCheck.Gen.(pair gen_mprog (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))

let mk_ufunc name params body : M.func =
  { M.name; params; ret_ty = u32; body; convention = M.Lambda_bound;
    heap_model = M.Byte_level; locals = [] }

let probe_state = State.set_global State.empty "g" (Value.vword Ty.Unsigned (W.of_int W.W32 0))

let probe_args (vx, vy) =
  [ Value.vword Ty.Unsigned (W.of_int W.W32 vx); Value.vword Ty.Unsigned (W.of_int W.W32 vy) ]

(* [f] (with body m / m') applied to every probe input must behave
   identically under the interpreter: a discharged guard that could
   actually fail shows up as [Fails] on one side only. *)
let progs_agree (fs : M.func list) (fs' : M.func list) probes =
  let prog funcs = { M.lenv; globals = [ ("g", u32) ]; funcs; heap_types = [] } in
  let agree probe =
    let args = probe_args probe in
    let r = Interp.run_func (prog fs) ~fuel:5000 probe_state "f" args in
    let r' = Interp.run_func (prog fs') ~fuel:5000 probe_state "f" args in
    match (r, r') with
    | Interp.Returns (v, s), Interp.Returns (v', s') ->
      Value.equal v v' && Value.equal (State.get_global s "g") (State.get_global s' "g")
    | Interp.Throws (v, _), Interp.Throws (v', _) -> Value.equal v v'
    | Interp.Fails p, Interp.Fails q -> String.equal p q
    | Interp.Gets_stuck _, Interp.Gets_stuck _ -> true
    | Interp.Diverges, Interp.Diverges -> true
    | _ -> false
  in
  List.for_all agree probes

let funcs_agree (funcs : M.t -> M.func list) (m : M.t) (m' : M.t) probes =
  progs_agree (funcs m) (funcs m') probes

let discharge_agrees ((m : M.t), (a, b)) =
  let ctx = Rules.empty_ctx lenv in
  let cert = Ac_analysis.infer_cert lenv m in
  match Thm.by_opt ctx (Rules.Rule_guard_true (m, cert)) [] with
  | None -> false (* the kernel must accept the analysis's own certificate *)
  | Some thm ->
    (match Thm.check ctx thm with Result.Ok () -> true | Result.Error _ -> false)
    &&
    let m' = match Thm.concl thm with J.Equiv (m', _) -> m' | _ -> m in
    funcs_agree
      (fun body -> [ mk_ufunc "f" [ ("x", u32); ("y", u32) ] body ])
      m m'
      [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2); (0xFFFFFFFF, 0xFFFFFFFF) ]

(* ------------------------------------------------------------------ *)
(* The certificate walk shares what it leaves alone, and the analyser's
   walk predicts the kernel's: identity-free discharge relies on both. *)

module A = Ac_kernel.Absdom
module Index = Ac_kernel.Index

(* [m] without its guards: a body the walk has nothing to discharge in. *)
let rec strip_guards (m : M.t) : M.t =
  match m with
  | M.Bind (M.Guard _, M.Pwild, b) -> strip_guards b
  | M.Bind (a, p, b) -> M.Bind (strip_guards a, p, strip_guards b)
  | M.Try (a, p, b) -> M.Try (strip_guards a, p, strip_guards b)
  | M.Cond (c, a, b) -> M.Cond (c, strip_guards a, strip_guards b)
  | M.While (p, c, body, init) -> M.While (p, c, strip_guards body, init)
  | _ -> m

(* Random guarded and looping bodies, some under a handler. *)
let gen_walk_body =
  QCheck.Gen.(
    let* m = gen_mprog in
    let* h = gen_prog [ "x"; "y"; "t" ] 1 in
    oneofl [ m; M.Try (m, M.Pvar ("t", u32), h) ])

(* The walk returns its input physically exactly when its result is
   structurally equal to it, under the analyser's solver and the
   kernel's; a body with no guard comes back as it is. *)
let walk_shares (m : M.t) =
  let walk m =
    fst (A.walk lenv (Ac_analysis.fixpoint_solver (Hashtbl.create 8)) 0 A.env_top m)
  in
  let shares m m' = (m' == m) = M.equal m' m in
  let m' = walk m in
  let plain = strip_guards m in
  shares m m'
  && walk plain == plain
  && (match A.discharge lenv Index.empty (Ac_analysis.infer_cert lenv m) m with
     | Result.Ok k -> shares m k
     | Result.Error _ -> false)

(* Whenever the kernel accepts the analyser's certificate, its body is
   the one the analyser predicted. *)
let prediction_matches (m : M.t) =
  let cert, predicted = Ac_analysis.solve lenv m in
  match A.discharge lenv Index.empty cert m with
  | Result.Ok m' -> M.equal m' predicted
  | Result.Error _ -> true

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries: on random two-function programs, the
   summary-assisted discharge of the caller must (1) produce a
   certificate the kernel accepts, (2) agree with the original program
   under the interpreter on every probe (differential soundness: no
   refutable guard is ever discharged), and (3) discharge at least every
   guard the intraprocedural pass discharges (monotone improvement: a
   summary can only add facts, never lose them). *)

let gen_callprog =
  QCheck.Gen.(
    let* hdepth = int_range 1 3 in
    let* hbody = gen_prog [ "a" ] hdepth in
    let* arg = gen_wexpr [ "x"; "y" ] 1 in
    let* fdepth = int_range 1 3 in
    let* rest = gen_prog [ "z"; "x"; "y" ] fdepth in
    return (hbody, M.Bind (M.Call ("h", [ arg ]), M.Pvar ("z", u32), rest)))

let arb_callprog =
  QCheck.make
    ~print:(fun ((hbody, fbody), _) ->
      "h(a) = " ^ Ac_monad.Mprint.to_string hbody ^ "\nf(x,y) = "
      ^ Ac_monad.Mprint.to_string fbody)
    QCheck.Gen.(pair gen_callprog (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))

let interproc_discharge_sound (((hbody : M.t), (fbody : M.t)), (a, b)) =
  let hf = mk_ufunc "h" [ ("a", u32) ] hbody in
  let ff = mk_ufunc "f" [ ("x", u32); ("y", u32) ] fbody in
  let fbodies = [ hf; ff ] in
  let sums = Ac_analysis.Summary.compute lenv fbodies in
  let ctx = { (Rules.empty_ctx lenv) with Rules.fbodies = Rules.index_funcs fbodies } in
  let discharged cert =
    match Thm.by_opt ctx (Rules.Rule_guard_true (fbody, cert)) [] with
    | None -> None
    | Some thm -> (
      match Thm.check ctx thm with
      | Result.Error _ -> None
      | Result.Ok () -> (
        match Thm.concl thm with J.Equiv (m', _) -> Some m' | _ -> None))
  in
  match discharged (Ac_analysis.infer_cert ~sums lenv fbody) with
  | None -> false (* the kernel must accept the analysis's own certificate *)
  | Some inter ->
    (* The analyser predicted the kernel's body. *)
    M.equal inter (snd (Ac_analysis.solve ~sums lenv fbody))
    &&
    let intra =
      match discharged (Ac_analysis.infer_cert lenv fbody) with
      | Some m -> m
      | None -> fbody
    in
    (* Monotone improvement. *)
    Ac_analysis.guard_count inter <= Ac_analysis.guard_count intra
    (* Differential soundness, caller body rewritten, callee kept. *)
    && funcs_agree
         (fun body -> [ hf; mk_ufunc "f" [ ("x", u32); ("y", u32) ] body ])
         fbody inter
         [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2); (0xFFFFFFFF, 0xFFFFFFFF) ]

(* ------------------------------------------------------------------ *)
(* The list-free term queries and the sharing-preserving maps, against the
   list- and set-based definitions they replace.  Expressions here need
   not be well typed: the queries only look at their shape. *)

let query_vars = [ "x"; "y"; "z2"; "z3"; "w2"; "w3"; "i"; "n" ]

let gen_sexpr =
  let open QCheck.Gen in
  let cint = Ty.Cword (Ty.Signed, Ty.W32) in
  let var = map (fun x -> E.Var (x, u32)) (oneofl query_vars) in
  let leaf =
    oneof
      [ var;
        map w32 (int_range 0 3);
        return (E.Global ("g", u32));
        map (fun p -> E.HeapRead (cint, p)) var;
        map (fun p -> E.TypedRead (cint, p)) var;
        map (fun p -> E.IsValid (cint, p)) var ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> E.Binop (E.Add, a, b)) (go (n - 1)) (go (n - 1));
          map3 (fun c a b -> E.Ite (c, a, b)) (go (n - 1)) (go (n - 1)) (go (n - 1));
          map (fun a -> E.Unop (E.Not, a)) (go (n - 1));
          map (fun a -> E.PtrAligned (cint, a)) (go (n - 1));
          map2 (fun a b -> E.StructSet ("s", "f", a, b)) (go (n - 1)) (go (n - 1));
          map (fun xs -> E.Tuple xs) (list_size (int_range 0 3) (go (n - 1)));
          map (fun a -> E.Proj (0, a)) (go (n - 1)) ]
  in
  let* depth = int_range 0 4 in
  go depth

let gen_vars = QCheck.Gen.(list_size (int_range 0 3) (oneofl query_vars))

(* Monadic terms with something for [Rw_simp] and [Rw_discharge] to do:
   pure [gets], foldable constants and repeated guards. *)
let gen_mterm =
  let open QCheck.Gen in
  let* m = gen_mprog in
  let* e = gen_expr in
  let* k = gen_guard_kind in
  let* c = gen_cond [ "x"; "y" ] 1 in
  oneofl
    [ m;
      M.Bind (M.Gets e, M.Pwild, m);
      M.Bind (M.Return e, M.Pvar ("x", u32), m);
      M.Bind (M.Guard (k, c), M.Pwild, M.Bind (M.Guard (k, c), M.Pwild, m)) ]

(* The definitions the queries replace. *)
let rec reads_state_by_children e =
  match e with
  | E.Global _ | E.HeapRead _ | E.TypedRead _ | E.IsValid _ -> true
  | _ -> List.exists reads_state_by_children (E.children e)

let occurs_by_list xs fv = List.exists (fun x -> List.mem x fv) xs

let rec size_by_children e = List.fold_left (fun n c -> n + size_by_children c) 1 (E.children e)

let free_vars_by_map e =
  let rec go acc e =
    let acc = match e with E.Var (v, _) -> SMap.add v () acc | _ -> acc in
    List.fold_left go acc (E.children e)
  in
  List.map fst (SMap.bindings (go SMap.empty e))

(* Substitution as it was, rebuilding every node. *)
let rec subst_rebuild_e bs e =
  match e with
  | E.Var (v, _) -> ( match List.assoc_opt v bs with Some x -> x | None -> e)
  | _ -> E.replace_children e (List.map (subst_rebuild_e bs) (E.children e))

let rec subst_rebuild bs m =
  let sub_e = subst_rebuild_e bs in
  let drop p = List.filter (fun (x, _) -> not (List.mem_assoc x (M.pat_vars p))) bs in
  match m with
  | M.Return e -> M.Return (sub_e e)
  | M.Gets e -> M.Gets (sub_e e)
  | M.Throw e -> M.Throw (sub_e e)
  | M.Fail | M.Unknown _ -> m
  | M.Guard (k, e) -> M.Guard (k, sub_e e)
  | M.Modify ms ->
    M.Modify
      (List.map
         (function
           | M.Heap_write (c, p, v) -> M.Heap_write (c, sub_e p, sub_e v)
           | M.Typed_write (c, p, v) -> M.Typed_write (c, sub_e p, sub_e v)
           | M.Global_set (x, e) -> M.Global_set (x, sub_e e)
           | M.Local_set (x, e) -> M.Local_set (x, sub_e e)
           | M.Retype (c, e) -> M.Retype (c, sub_e e))
         ms)
  | M.Bind (a, p, b) -> M.Bind (subst_rebuild bs a, p, subst_rebuild (drop p) b)
  | M.Try (a, p, b) -> M.Try (subst_rebuild bs a, p, subst_rebuild (drop p) b)
  | M.Cond (c, a, b) -> M.Cond (sub_e c, subst_rebuild bs a, subst_rebuild bs b)
  | M.While (p, c, body, init) ->
    let inner = drop p in
    M.While (p, subst_rebuild_e inner c, subst_rebuild inner body, sub_e init)
  | M.Call (f, args) -> M.Call (f, List.map sub_e args)
  | M.Exec_concrete (f, args) -> M.Exec_concrete (f, List.map sub_e args)

let gen_bindings =
  QCheck.Gen.(list_size (int_range 0 2) (pair (oneofl query_vars) (gen_wexpr [ "x"; "y" ] 1)))

(* ------------------------------------------------------------------ *)
(* Local-variable lifting preserves behaviour: random C-shaped Simpl
   bodies (assignments, conditions, loops with break and continue, early
   returns, value-returning calls) go through the kernel's L1 rules and
   [Rw_lift], and the L1 function (locals in the state) and the lifted one
   (locals lambda-bound) must agree under the interpreter. *)

let lift_locals = [ "a"; "b"; "c" ]

(* One counter per loop depth, so a counted loop always terminates. *)
let lift_counters = [ "i1"; "i2"; "i3"; "i4" ]

let rec gen_cstmt ~in_loop n =
  let open QCheck.Gen in
  let vars = [ "x"; "y" ] @ lift_locals in
  let exit k = Ir.Seq (Ir.Local_set (Ir.exn_var, w32 (Ir.exit_code k)), Ir.Throw) in
  let catch k = Ir.Cond (Ir.exn_is k, Ir.Skip, Ir.Throw) in
  let leaf =
    oneof
      ([ map2 (fun v e -> Ir.Local_set (v, e)) (oneofl vars) (gen_wexpr vars 1);
         map (fun e -> Ir.Global_set ("g", e)) (gen_wexpr vars 1);
         map2 (fun k c -> Ir.Guard (k, c)) gen_guard_kind (gen_cond vars 1);
         map2 (fun v e -> Ir.Call (Some v, "h", [ e ])) (oneofl vars) (gen_wexpr vars 1);
         map (fun e -> Ir.Call (None, "h", [ e ])) (gen_wexpr vars 1);
         map (fun e -> Ir.Seq (Ir.Local_set (Ir.ret_var, e), exit Ir.Xreturn)) (gen_wexpr vars 1) ]
      @ if in_loop then [ return (exit Ir.Xbreak); return (exit Ir.Xcontinue) ] else [])
  in
  if n = 0 then leaf
  else
    let sub = gen_cstmt ~in_loop (n - 1) in
    oneof
      [ leaf;
        map2 (fun a b -> Ir.Seq (a, b)) sub sub;
        map3 (fun c a b -> Ir.Cond (c, a, b)) (gen_cond vars 1) sub sub;
        map2
          (fun c body -> Ir.Try (Ir.While (c, Ir.Try (body, catch Ir.Xcontinue)), catch Ir.Xbreak))
          (gen_cond vars 1)
          (gen_cstmt ~in_loop:true (n - 1));
        (* for (i = 0; i < bound; i++) body *)
        (let i = List.nth lift_counters (n - 1) in
         let iv = E.Var (i, u32) in
         map2
           (fun bound body ->
             Ir.Seq
               ( Ir.Local_set (i, w32 0),
                 Ir.Try
                   ( Ir.While
                       ( E.Binop (E.Lt, iv, w32 bound),
                         Ir.Seq
                           ( Ir.Try (body, catch Ir.Xcontinue),
                             Ir.Local_set (i, E.Binop (E.Add, iv, w32 1)) ) ),
                     catch Ir.Xbreak ) ))
           (int_range 0 4)
           (gen_cstmt ~in_loop:true (n - 1))) ]

let arb_cbody =
  QCheck.make
    ~print:(fun (s, _) -> Format.asprintf "%a" Ac_simpl.Print.pp_stmt s)
    QCheck.Gen.(
      pair
        (int_range 1 4 >>= gen_cstmt ~in_loop:false)
        (pair (int_range 0 0xFFFF) (int_range 0 0xFFFF)))

let cbody_params = [ ("x", u32); ("y", u32) ]

let cbody_locals =
  List.map (fun v -> (v, u32)) (lift_locals @ lift_counters @ [ Ir.ret_var ])
  @ [ (Ir.exn_var, Ir.exn_ty) ]

(* The whole function body around a random C-shaped body [s]: normal
   completion returns every local, so none of them goes unseen. *)
let cbody_func_body (s : Ir.stmt) =
  let all = List.map (fun v -> E.Var (v, u32)) ([ "x"; "y" ] @ lift_locals) in
  let sum =
    List.fold_left (fun acc v -> E.Binop (E.Bxor, E.Binop (E.Mul, acc, w32 3), v)) (w32 0) all
  in
  let observe =
    Ir.Seq
      ( Ir.Local_set (Ir.ret_var, sum),
        Ir.Seq (Ir.Local_set (Ir.exn_var, w32 (Ir.exit_code Ir.Xreturn)), Ir.Throw) )
  in
  Ir.Try (Ir.Seq (s, observe), Ir.Skip)

(* The L1 and lifted images of a random C-shaped body, with the callee
   [h] both call. *)
let lift_cbody (s : Ir.stmt) =
  let ctx = Rules.empty_ctx lenv in
  let params = cbody_params and locals = cbody_locals in
  let l1 = Autocorres.L1.monad_of (Autocorres.L1.convert ctx (cbody_func_body s)) in
  match Thm.concl (Thm.by ctx (Rules.Rw_lift (params, locals, u32, l1)) []) with
  | J.Equiv (l2, _) ->
    let h = mk_ufunc "h" [ ("a", u32) ] (M.Return (E.Binop (E.Add, E.Var ("a", u32), w32 1))) in
    let l1f = { (mk_ufunc "f" params l1) with M.convention = M.Locals_in_state; locals } in
    (h, l1f, mk_ufunc "f" params l2)
  | _ -> failwith "lift_cbody: Rw_lift concluded no equivalence"

let lift_agrees ((s : Ir.stmt), (a, b)) =
  let h, l1f, l2f = lift_cbody s in
  progs_agree [ h; l1f ] [ h; l2f ] [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2) ]

(* ------------------------------------------------------------------ *)
(* The one-step L1 image behaves as its Simpl source: a random C-shaped
   body, run by the Simpl semantics and, converted by one [L1] kernel
   step, by the monad interpreter, returns the same value and leaves the
   same global, or both fault, get stuck or run out of fuel.  The callee
   [h] goes through L1 too. *)

let l1_agrees_with_simpl ((s : Ir.stmt), (a, b)) =
  let ctx = Rules.empty_ctx lenv in
  let sfunc name params locals body : Ir.func =
    { Ir.name; params; locals; ret_ty = u32; body; fpos = { Ac_cfront.Ast.line = 0; col = 0 };
      gsrc = [] }
  in
  let h =
    sfunc "h" [ ("a", u32) ] [ (Ir.ret_var, u32) ]
      (Ir.Local_set (Ir.ret_var, E.Binop (E.Add, E.Var ("a", u32), w32 1)))
  in
  let f = sfunc "f" cbody_params cbody_locals (cbody_func_body s) in
  let sprog = { Ir.lenv; globals = [ ("g", u32) ]; funcs = [ h; f ] } in
  let mprog =
    { M.lenv; globals = sprog.Ir.globals; heap_types = [];
      funcs = List.map (fun fn -> fst (Autocorres.L1.convert_func ctx fn)) sprog.Ir.funcs }
  in
  let agree probe =
    let args = probe_args probe in
    match
      ( Ac_simpl.Sem.run_func sprog ~fuel:5000 probe_state "f" args,
        Interp.run_func mprog ~fuel:5000 probe_state "f" args )
    with
    | Ac_simpl.Sem.Returns (Some v, s), Interp.Returns (v', s') ->
      Value.equal v v' && Value.equal (State.get_global s "g") (State.get_global s' "g")
    | Ac_simpl.Sem.Faults k, Interp.Fails p -> String.equal (Ir.guard_kind_name k) p
    | Ac_simpl.Sem.Gets_stuck _, Interp.Gets_stuck _ -> true
    | Ac_simpl.Sem.Diverges, Interp.Diverges -> true
    | _ -> false
  in
  List.for_all agree [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2) ]

(* ------------------------------------------------------------------ *)
(* One [Rw_inline] step over every return-bind the rewrite engine
   approves is the step-by-step inlining, innermost binding first, up to
   the names of renamed binders, and it preserves behaviour. *)

module Rewrite = Autocorres.Rewrite

(* Alpha-equivalence: [env] pairs the variables bound on the left with
   those bound on the right, innermost first. *)
let rec alpha_eq env (a : M.t) (b : M.t) =
  let var env x y =
    match (List.find_opt (fun (l, _) -> l = x) env, List.find_opt (fun (_, r) -> r = y) env) with
    | None, None -> x = y
    | Some (_, y'), Some (x', _) -> y' = y && x' = x
    | _ -> false
  in
  let rec expr env e f =
    match (e, f) with
    | E.Var (x, t), E.Var (y, u) ->
      (* a renamed variable takes its binder's type, which differs from
         its own annotation only in an ill-typed term *)
      var env x y && (Ty.equal t u || List.mem_assoc x env)
    | _ ->
      let ce = E.children e and cf = E.children f in
      let blank e c = E.replace_children e (List.map (fun _ -> E.unit_e) c) in
      List.length ce = List.length cf
      && E.equal (blank e ce) (blank f cf)
      && List.for_all2 (expr env) ce cf
  in
  let exprs xs ys = List.length xs = List.length ys && List.for_all2 (expr env) xs ys in
  let rec pat env p q =
    match (p, q) with
    | M.Pwild, M.Pwild -> Some env
    | M.Pvar (x, t), M.Pvar (y, u) when Ty.equal t u -> Some ((x, y) :: env)
    | M.Ptuple ps, M.Ptuple qs when List.length ps = List.length qs ->
      List.fold_left2 (fun env p q -> Option.bind env (fun env -> pat env p q)) (Some env) ps qs
    | _ -> None
  in
  let under p q k = match pat env p q with Some env -> k env | None -> false in
  match (a, b) with
  | M.Bind (a1, p, b1), M.Bind (a2, q, b2) | M.Try (a1, p, b1), M.Try (a2, q, b2) ->
    alpha_eq env a1 a2 && under p q (fun env -> alpha_eq env b1 b2)
  | M.Cond (c, a1, b1), M.Cond (d, a2, b2) ->
    expr env c d && alpha_eq env a1 a2 && alpha_eq env b1 b2
  | M.While (p, c, b1, i), M.While (q, d, b2, j) ->
    expr env i j && under p q (fun env -> expr env c d && alpha_eq env b1 b2)
  | M.Return e, M.Return f | M.Gets e, M.Gets f | M.Throw e, M.Throw f -> expr env e f
  | M.Guard (k, e), M.Guard (l, f) -> k = l && expr env e f
  | M.Call (f, xs), M.Call (g, ys) | M.Exec_concrete (f, xs), M.Exec_concrete (g, ys) ->
    f = g && exprs xs ys
  | M.Modify ms, M.Modify ns ->
    let expr = expr env in
    List.length ms = List.length ns
    && List.for_all2
         (fun m n ->
           match (m, n) with
           | M.Heap_write (c, p, v), M.Heap_write (d, q, w)
           | M.Typed_write (c, p, v), M.Typed_write (d, q, w) ->
             Ty.cty_equal c d && expr p q && expr v w
           | M.Global_set (x, e), M.Global_set (y, f) | M.Local_set (x, e), M.Local_set (y, f) ->
             (* a local set names a local of the state, which no binder binds *)
             x = y && expr e f
           | M.Retype (c, e), M.Retype (d, f) -> Ty.cty_equal c d && expr e f
           | _ -> false)
         ms ns
  | _ -> M.equal a b

let inline_one ctx m ps =
  match Thm.concl (Thm.by ctx (Rules.Rw_inline (m, ps)) []) with
  | J.Equiv (m', src) when src == m -> m'
  | _ -> failwith "inline_one: unexpected conclusion"

(* Innermost first: a binding is inlined into its already inlined body,
   by the substitution the kernel used before [Rw_inline]: rename every
   binder of the body that a free variable of the value names, then
   substitute, a later pattern variable winning. *)
let rec inline_stepwise ctx (m : M.t) : M.t =
  let go = inline_stepwise ctx in
  match m with
  | M.Bind (M.Return e, p, b) when Rewrite.want_head_rewrite m ->
    let b = go b in
    let b = if Rules.capture_free e b then b else Rules.alpha_avoid (E.free_vars e) b in
    M.subst (List.rev (Option.get (Rules.bind_expr_to_pat p e))) b
  | M.Bind (a, p, b) -> M.Bind (go a, p, go b)
  | M.Try (a, p, b) -> M.Try (go a, p, go b)
  | M.Cond (c, a, b) -> M.Cond (c, go a, go b)
  | M.While (p, c, body, init) -> M.While (p, c, go body, init)
  | _ -> m

let inline_once ctx m = inline_one ctx m (fst (Rewrite.inline_plan m))

let inline_agrees ((s : Ir.stmt), (a, b)) =
  let ctx = Rules.empty_ctx lenv in
  let h, _, l2f = lift_cbody s in
  let once = inline_once ctx l2f.M.body in
  let stepwise = inline_stepwise ctx l2f.M.body in
  if not (alpha_eq [] once stepwise) then
    QCheck.Test.fail_reportf "one step:@.%s@.step by step:@.%s" (Ac_monad.Mprint.to_string once)
      (Ac_monad.Mprint.to_string stepwise)
  else
    progs_agree [ h; l2f ] [ h; { l2f with M.body = once } ]
      [ (a, b); (0, 0); (1, 0xFFFFFFFF); (31, 2) ]

(* ------------------------------------------------------------------ *)
(* The one-step HL image refines the byte-level program: random C units
   over a struct heap, heap-abstracted with word abstraction off, run
   side by side with their Simpl source by the differential tester.  The
   units read and write struct fields and plain words through pointers,
   walk pointer chains, test pointers and the heap under [&&]/[||], loop
   on conditions that read the heap, and call a lifted callee ([get]) and
   one kept at byte level ([put], reached through exec_concrete). *)

let hl_unit_prelude =
  "struct s { unsigned f; struct s *n; unsigned g; };\n\
   unsigned get(struct s *p) { return p->g; }\n\
   void put(struct s *p, unsigned v) { p->g = v + p->f; }\n"

let gen_hl_unit =
  let open QCheck.Gen in
  let ptr = oneofl [ "p"; "q" ] in
  let rec expr n =
    let leaf =
      oneof
        [ oneofl [ "x"; "y"; "*u" ];
          map string_of_int (int_range 0 9);
          map2 (Printf.sprintf "%s->%s") ptr (oneofl [ "f"; "g" ]);
          map (Printf.sprintf "%s->n->f") ptr ]
    in
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map3 (Printf.sprintf "(%s %s %s)") (expr (n - 1)) (oneofl [ "+"; "-"; "^"; "&" ])
            (expr (n - 1)) ]
  in
  let rec cond n =
    let leaf =
      oneof
        [ map3 (Printf.sprintf "%s %s %s") (expr 1) (oneofl [ "<"; "=="; "!=" ]) (expr 1);
          map (Printf.sprintf "%s != 0") ptr;
          map (Printf.sprintf "%s->n != 0") ptr ]
    in
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map3 (Printf.sprintf "(%s %s %s)") (cond (n - 1)) (oneofl [ "&&"; "||" ]) (cond (n - 1));
          map2 (Printf.sprintf "(%s != 0 && %s)") ptr (cond (n - 1)) ]
  in
  let rec stmt n =
    let leaf =
      oneof
        [ map2 (Printf.sprintf "%s = %s;") (oneofl [ "x"; "y" ]) (expr 2);
          map3 (Printf.sprintf "%s->%s = %s;") ptr (oneofl [ "f"; "g" ]) (expr 1);
          map (Printf.sprintf "*u = %s;") (expr 1);
          map2 (Printf.sprintf "%s = %s->n;") ptr ptr;
          map (Printf.sprintf "x = get(%s);") ptr;
          map2 (Printf.sprintf "put(%s, %s);") ptr (expr 1) ]
    in
    if n = 0 then leaf
    else
      let sub = stmt (n - 1) in
      (* one counter per loop depth, so every loop terminates *)
      let i = Printf.sprintf "i%d" n in
      oneof
        [ leaf;
          map2 (Printf.sprintf "%s %s") sub sub;
          map3 (Printf.sprintf "if (%s) { %s } else { %s }") (cond 1) sub sub;
          map2
            (fun c body ->
              Printf.sprintf "%s = 0; while (%s < 3 && %s) { %s %s = %s + 1; }" i i c body i i)
            (cond 1) sub ]
  in
  map
    (fun body ->
      hl_unit_prelude
      ^ "unsigned t(struct s *p, struct s *q, unsigned *u, unsigned x) {\n\
        \  unsigned y = 0;\n\
        \  unsigned i1;\n\
        \  unsigned i2;\n\
        \  unsigned i3;\n\
        \  " ^ body ^ "\n  return x + y;\n}\n")
    (int_range 1 3 >>= stmt)

let hl_refines src =
  let module Driver = Autocorres.Driver in
  let byte_level = { Driver.default_func_options with Driver.word_abs = false; heap_abs = false } in
  let options =
    { Driver.default_options with
      Driver.defaults = { Driver.default_func_options with Driver.word_abs = false };
      overrides = [ ("put", byte_level) ] }
  in
  let res = Driver.run ~options src in
  match Driver.find_result res "t" with
  | Some { Driver.fr_hl = Some _; _ } -> (
    let report = Autocorres.Refine_test.check_program ~cases:30 res in
    match report.Autocorres.Refine_test.violations with
    | [] -> true
    | (f, d) :: _ -> QCheck.Test.fail_reportf "%s: %s" f d)
  | _ -> QCheck.Test.fail_report "t was not heap-abstracted"

(* ------------------------------------------------------------------ *)
(* A total kernel: whatever rule instance and premises it is handed,
   [Thm.by_opt] answers [Some] or [None] and [Thm.by] raises nothing but
   [Kernel_error].  Instances come from every [Rules.rule] constructor,
   over small random terms that need not be well typed, with premises
   drawn from a pool of genuine theorems of every judgment form.  The
   [Rw_lift] instances include malformed L1 bodies. *)

module Gen = QCheck.Gen

let k_cty =
  Gen.oneofl
    [ Ty.Cword (Ty.Unsigned, Ty.W32); Ty.Cword (Ty.Signed, Ty.W8);
      Ty.Cptr (Ty.Cword (Ty.Unsigned, Ty.W32)); Ty.Cstruct "s"; Ty.Cstruct "nosuch" ]

let k_ty =
  Gen.oneofl
    [ Ty.Tunit; Ty.Tbool; u32; Ty.Tword (Ty.Signed, Ty.W32); Ty.Tint; Ty.Tnat;
      Ty.Tptr (Ty.Cword (Ty.Unsigned, Ty.W32)); Ty.Tstruct "s"; Ty.Tstruct "nosuch";
      Ty.Ttuple [ u32; Ty.Tbool ] ]

let k_names = [ "x"; "y"; "p"; "ret'"; Ir.ret_var; Ir.exn_var ]

let k_sign = Gen.oneofl [ Ty.Signed; Ty.Unsigned ]
let k_width = Gen.oneofl [ Ty.W8; Ty.W16; Ty.W32; Ty.W64 ]
let k_kind =
  Gen.oneofl
    [ Ir.Div_by_zero; Ir.Signed_overflow; Ir.Shift_bounds; Ir.Ptr_valid; Ir.Array_bounds;
      Ir.Dont_reach; Ir.Unsigned_overflow ]

let k_binop =
  Gen.oneofl
    E.[ Add; Sub; Mul; Div; Rem; Shl; Shr; Band; Bor; Bxor; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]

(* Word constants at every width, small, at the edges of the range, and
   anywhere in it. *)
let k_word =
  let open Gen in
  let* s = k_sign and* w = k_width in
  let* v =
    oneof
      [ map B.of_int (int_range 0 40);
        oneofl
          [ B.zero; B.one; W.max_value Ty.Unsigned w; W.max_value Ty.Signed w;
            W.min_value Ty.Signed w;
            B.pow2 (W.bits w - 1) ];
        map2
          (fun hi lo -> B.add (B.mul (B.of_int hi) (B.pow2 32)) (B.of_int lo))
          (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF) ]
  in
  return (E.Const (Value.vword s (W.of_bignum w v)))

let k_expr =
  let open Gen in
  let leaf =
    oneof
      [ map2 (fun x t -> E.Var (x, t)) (oneofl k_names) k_ty;
        k_word;
        map E.int_e (int_range (-5) 5);
        map E.nat_e (int_range 0 5);
        oneofl [ E.true_e; E.false_e; E.unit_e ];
        map (fun c -> E.null_e c) k_cty;
        return (E.Global ("g", u32)) ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      let sub = go (n - 1) in
      oneof
        [ leaf;
          map2 (fun op a -> E.Unop (op, a)) (oneofl E.[ Neg; Bnot; Not ]) sub;
          map3 (fun op a b -> E.Binop (op, a, b)) k_binop sub sub;
          map3 (fun c a b -> E.Ite (c, a, b)) sub sub sub;
          map2 (fun t a -> E.Cast (t, a)) k_ty sub;
          map2 (fun t a -> E.OfWord (t, a)) (oneofl [ Ty.Tnat; Ty.Tint ]) sub;
          map2 (fun c a -> E.HeapRead (c, a)) k_cty sub;
          map2 (fun c a -> E.TypedRead (c, a)) k_cty sub;
          map2 (fun c a -> E.IsValid (c, a)) k_cty sub;
          map2 (fun c a -> E.PtrAligned (c, a)) k_cty sub;
          map2 (fun c a -> E.PtrSpan (c, a)) k_cty sub;
          map3 (fun c a b -> E.PtrAdd (c, a, b)) k_cty sub sub;
          map (fun a -> E.FieldAddr ("s", "f", a)) sub;
          map (fun a -> E.StructGet ("s", "nosuch", a)) sub;
          map2 (fun a b -> E.StructSet ("s", "f", a, b)) sub sub;
          map (fun xs -> E.Tuple xs) (list_size (int_range 0 3) sub);
          map2 (fun i a -> E.Proj (i, a)) (int_range (-1) 3) sub ]
  in
  int_range 0 2 >>= go

let rec k_pat n =
  let open Gen in
  oneof
    ([ return M.Pwild; map2 (fun x t -> M.Pvar (x, t)) (oneofl k_names) k_ty ]
    @
    if n = 0 then []
    else [ map (fun ps -> M.Ptuple ps) (list_size (int_range 0 3) (k_pat (n - 1))) ])

let k_smod =
  let open Gen in
  oneof
    [ map3 (fun c p v -> M.Heap_write (c, p, v)) k_cty k_expr k_expr;
      map3 (fun c p v -> M.Typed_write (c, p, v)) k_cty k_expr k_expr;
      map (fun e -> M.Global_set ("g", e)) k_expr;
      map2 (fun x e -> M.Local_set (x, e)) (oneofl k_names) k_expr;
      map2 (fun c e -> M.Retype (c, e)) k_cty k_expr ]

let k_call = Gen.(pair (oneofl [ "f"; "h"; "nosuch" ]) (list_size (int_range 0 2) k_expr))

let rec k_term n =
  let open Gen in
  let leaf =
    oneof
      [ map (fun e -> M.Return e) k_expr;
        map (fun e -> M.Gets e) k_expr;
        map (fun ms -> M.Modify ms) (list_size (int_range 0 2) k_smod);
        map2 (fun k e -> M.Guard (k, e)) k_kind k_expr;
        return M.Fail;
        map (fun e -> M.Throw e) k_expr;
        map (fun t -> M.Unknown t) k_ty;
        map (fun (f, args) -> M.Call (f, args)) k_call;
        map (fun (f, args) -> M.Exec_concrete (f, args)) k_call ]
  in
  if n = 0 then leaf
  else
    let sub = k_term (n - 1) in
    oneof
      [ leaf;
        map3 (fun a p b -> M.Bind (a, p, b)) sub (k_pat 1) sub;
        map3 (fun a p b -> M.Try (a, p, b)) sub (k_pat 1) sub;
        map3 (fun c a b -> M.Cond (c, a, b)) k_expr sub sub;
        (let* p = k_pat 1 in
         map3 (fun c body init -> M.While (p, c, body, init)) k_expr sub k_expr) ]

(* L1-shaped bodies, well formed or not: local updates, unit and valued
   throws, mixed modifies, loops with and without an iterator, value
   binds of calls and of local-modifying programs. *)
let rec k_l1 n =
  let open Gen in
  let set = map2 (fun x e -> M.Modify [ M.Local_set (x, e) ]) (oneofl k_names) k_expr in
  let leaf =
    oneof
      [ set;
        return (M.Return E.unit_e);
        return (M.Throw E.unit_e);
        map (fun e -> M.Throw e) k_expr;
        map2 (fun k e -> M.Guard (k, e)) k_kind k_expr;
        map2 (fun x e -> M.Modify [ M.Local_set (x, e); M.Global_set ("g", e) ])
          (oneofl k_names) k_expr;
        map (fun (f, args) -> M.Bind (M.Call (f, args), M.Pwild, M.Return E.unit_e)) k_call;
        map2
          (fun (f, args) x ->
            M.Bind (M.Call (f, args), M.Pvar ("ret'", Ty.Tunit),
                    M.Modify [ M.Local_set (x, E.Var ("ret'", Ty.Tunit)) ]))
          k_call (oneofl k_names);
        k_term 1 ]
  in
  if n = 0 then leaf
  else
    let sub = k_l1 (n - 1) in
    oneof
      [ leaf;
        map2 (fun a b -> M.Bind (a, M.Pwild, b)) sub sub;
        map3 (fun c a b -> M.Cond (c, a, b)) k_expr sub sub;
        map2 (fun c body -> M.While (M.Pwild, c, body, E.unit_e)) k_expr sub;
        map3 (fun c body init -> M.While (M.Pwild, c, body, init)) k_expr sub k_expr;
        map2 (fun a h -> M.Try (a, M.Pwild, h)) sub sub;
        map3 (fun a p b -> M.Bind (a, p, b)) sub (k_pat 1) sub ]

let k_lift =
  let open Gen in
  let decls = list_size (int_range 0 3) (pair (oneofl k_names) k_ty) in
  let* inner = int_range 0 3 >>= k_l1 in
  let* body =
    oneofl [ M.Try (inner, M.Pwild, M.Return E.unit_e); inner;
             M.Try (inner, M.Pwild, M.Throw E.unit_e) ]
  in
  map3 (fun params locals ret_ty -> Rules.Rw_lift (params, locals, ret_ty, body)) decls decls k_ty

let rec k_stmt n =
  let open Gen in
  let leaf =
    oneof
      [ return Ir.Skip; return Ir.Throw;
        map2 (fun x e -> Ir.Local_set (x, e)) (oneofl k_names) k_expr;
        map (fun e -> Ir.Global_set ("g", e)) k_expr;
        map3 (fun c p v -> Ir.Heap_write (c, p, v)) k_cty k_expr k_expr;
        map2 (fun c e -> Ir.Retype (c, e)) k_cty k_expr;
        map2 (fun k e -> Ir.Guard (k, e)) k_kind k_expr;
        map2 (fun d (f, args) -> Ir.Call (d, f, args)) (opt (oneofl k_names)) k_call ]
  in
  if n = 0 then leaf
  else
    let sub = k_stmt (n - 1) in
    oneof
      [ leaf;
        map2 (fun a b -> Ir.Seq (a, b)) sub sub;
        map2 (fun a b -> Ir.Try (a, b)) sub sub;
        map3 (fun c a b -> Ir.Cond (c, a, b)) k_expr sub sub;
        map2 (fun c b -> Ir.While (c, b)) k_expr sub ]

let rec k_conv n =
  let open Gen in
  oneof
    ([ return J.Cid; map (fun w -> J.Cunat w) k_width; map (fun w -> J.Csint w) k_width ]
    @
    if n = 0 then []
    else [ map (fun cs -> J.Ctuple cs) (list_size (int_range 0 2) (k_conv (n - 1))) ])

let k_cert =
  let open Gen in
  let* m = k_term 2 in
  (* The analyser is not total on ill-typed terms; the kernel must be. *)
  let cert = try Ac_analysis.infer_cert lenv m with _ -> A.cert_of_invs [] in
  let* shift = int_range (-1) 1 in
  oneofl
    [ cert;
      A.cert_of_invs [];
      A.cert_of_invs [ (0, A.env_top); (0, A.env_top); (-1, A.env_top) ];
      { cert with A.c_invs = List.map (fun (i, a) -> (i + shift, a)) cert.A.c_invs } ]

(* The pre-order positions of [m]'s return-binds, as [Rw_inline] counts
   them. *)
let return_binds (m : M.t) =
  let next = ref 0 and acc = ref [] in
  let rec go m =
    (match m with M.Bind (M.Return _, _, _) -> acc := !next :: !acc | _ -> ());
    incr next;
    match m with
    | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) ->
      go a;
      go b
    | M.While (_, _, body, _) -> go body
    | _ -> ()
  in
  go m;
  List.rev !acc

(* Terms with nested return-binds over the same few names, so inlining
   meets shadowing and capture. *)
let k_binds =
  let open Gen in
  let* m = k_term 2 in
  let* layers = list_size (int_range 0 3) (pair k_expr (k_pat 1)) in
  return (List.fold_left (fun b (e, p) -> M.Bind (M.Return e, p, b)) m layers)

(* [Rw_inline] over every, some or none of the return-binds, or over
   positions that are out of order, out of range or not return-binds. *)
let k_inline =
  let open Gen in
  let* m = k_binds in
  let all = return_binds m in
  let* ps =
    oneof
      [ return all;
        map (List.filteri (fun i _ -> i mod 2 = 0)) (return all);
        return (List.rev all);
        list_size (int_range 0 3) (int_range (-1) 12) ]
  in
  return (Rules.Rw_inline (m, ps))

(* Every path of [m]: the children taken from the root (see
   [Rules.step]). *)
let rec term_paths (m : M.t) : int list list =
  let under i = List.map (fun p -> i :: p) in
  []
  ::
  (match m with
  | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) ->
    under 0 (term_paths a) @ under 1 (term_paths b)
  | M.While (_, _, body, _) -> under 0 (term_paths body)
  | _ -> [])

(* [Eq_congr] over terms whose leaves the pool's theorems rewrite
   ([gets x], [guard true]) and over any term, by scripts that reach real
   subterms of the term or by arbitrary scripts. *)
let k_congr =
  let open Gen in
  let leaf =
    oneof
      [ return (M.Gets (E.Var ("x", u32))); return (M.Guard (Ir.Div_by_zero, E.true_e));
        k_term 0 ]
  in
  let rec shape n =
    if n = 0 then leaf
    else
      let sub = shape (n - 1) in
      oneof
        [ leaf;
          map2 (fun a b -> M.Bind (a, M.Pwild, b)) sub sub;
          map2 (fun a b -> M.Try (a, M.Pwild, b)) sub sub;
          map3 (fun c a b -> M.Cond (c, a, b)) k_expr sub sub;
          map2 (fun c body -> M.While (M.Pwild, c, body, E.unit_e)) k_expr sub ]
  in
  let at_path path = List.fold_right (fun i s -> Rules.At (i, [ s ])) path Rules.Here in
  let rec script n =
    list_size (int_range 0 3)
      (if n = 0 then return Rules.Here
       else
         oneof
           [ return Rules.Here;
             map2 (fun i s -> Rules.At (i, s)) (int_range (-1) 2) (script (n - 1)) ])
  in
  let* m = oneof [ int_range 0 3 >>= shape; k_term 2 ] in
  let* steps =
    oneof [ list_size (int_range 0 3) (map at_path (oneofl (term_paths m))); script 3 ]
  in
  return (Rules.Eq_congr (m, steps))

(* [Rw_prune_loop] over tuple loops whose iterator pattern, initial
   value, result pattern and body result agree in length, at every
   component and one past either end. *)
let k_prune_tuple =
  let open Gen in
  let* n = int_range 1 3 in
  let var = oneof [ return M.Pwild; map (fun x -> M.Pvar (x, u32)) (oneofl k_names) ] in
  let* ips = list_repeat n var and* qps = list_repeat n var
  and* inits = list_repeat n k_expr and* outs = list_repeat n k_expr
  and* i = int_range (-1) n and* c = k_expr and* pre = k_term 1 and* k = k_term 2 in
  let* body =
    oneofl
      [ M.Return (E.Tuple outs); M.Bind (pre, M.Pwild, M.Return (E.Tuple outs));
        M.Cond (c, M.Return (E.Tuple outs), M.Return (E.Tuple (List.rev outs))) ]
  in
  return (Rules.Rw_prune_loop (i, M.Ptuple ips, c, body, E.Tuple inits, M.Ptuple qps, k))

(* A word-abstraction extension: the built-in ideal abstraction. *)
let k_ext = "k_sub"
let () = Rules.register_custom_rule k_ext (fun _ sub e -> sub e)

(* One instance of a uniformly chosen constructor. *)
let k_rule : Rules.rule Gen.t =
  let open Gen in
  let m = k_term 2 and e = k_expr and p = k_pat 1 in
  let l2 =
    [ map (fun s -> Rules.L1 s) (k_stmt 2);
      return Rules.Eq_trans; k_congr;
      k_inline;
      map3 (fun a p b -> Rules.Rw_gets_bind (a, p, b)) m p m;
      map2 (fun a p -> Rules.Rw_bind_return (a, p)) m p;
      (let* a = m and* p = p and* b = m and* q = p and* c = m in
       return (Rules.Rw_bind_assoc (a, p, b, q, c)));
      map (fun e -> Rules.Rw_gets_pure e) e;
      map (fun k -> Rules.Rw_guard_true k) k_kind;
      map2 (fun a b -> Rules.Rw_cond_true (a, b)) m m;
      map2 (fun a b -> Rules.Rw_cond_false (a, b)) m m;
      map2 (fun c a -> Rules.Rw_cond_same (c, a)) e m;
      map3 (fun a p b -> Rules.Rw_try_nothrow (a, p, b)) m p m;
      k_lift;
      map (fun m -> Rules.Rw_simp m) m;
      map2 (fun m t -> Rules.Rw_elim_returns (m, t)) m k_ty;
      map3 (fun e p b -> Rules.Rw_dead_after_throw (e, p, b)) e p m;
      map2 (fun p b -> Rules.Rw_dead_after_fail (p, b)) p m;
      map3 (fun c a b -> Rules.Rw_cond_return (c, a, b)) e m m;
      map (fun m -> Rules.Rw_discharge m) m;
      (let* i = int_range (-1) 3 and* p = p and* c = e and* body = m and* init = e
       and* q = p and* k = m in
       return (Rules.Rw_prune_loop (i, p, c, body, init, q, k)));
      k_prune_tuple;
      map2 (fun m c -> Rules.Rule_guard_true (m, c)) m k_cert ]
  in
  let wa =
    [ map3
        (fun c exts m -> Rules.W_abs (c, exts, m))
        (k_conv 1)
        (list_size (int_range 0 2) (oneofl [ k_ext; "no_such_rule"; "" ]))
        m ]
  in
  let hl =
    [ map (fun m -> Rules.Hl m) m;
      map (fun f -> Rules.Fn_chain f) (oneofl [ "f"; "h" ]) ]
  in
  oneof (l2 @ wa @ hl)

(* The context the kernel runs in: a struct "s" with a word field "f",
   "x" abstracted, and signatures, bodies and lifted sets for "f". *)
let k_ctx =
  let lenv = Layout.declare_struct Layout.empty "s" [ ("f", Ty.Cword (Ty.Unsigned, Ty.W32)) ] in
  let f = { (mk_ufunc "f" [ ("x", u32) ] (M.Return (E.Var ("x", u32)))) with M.ret_ty = u32 } in
  { (Rules.empty_ctx lenv) with
    Rules.wvars = [ ("x", (Ty.Unsigned, Ty.W32)) ];
    fsigs = Index.of_list fst [ ("f", ([ J.Cunat Ty.W32 ], J.Cunat Ty.W32)) ];
    lifted = Index.names [ "f" ];
    nothrows = Index.names [ "f" ];
    fbodies = Rules.index_funcs [ f ] }

(* Genuine theorems of every judgment form, for premise lists. *)
let k_pool : Thm.t list Lazy.t =
  lazy
    (let by r ps = Thm.by k_ctx r ps in
     let x = E.Var ("x", u32) in
     let skip = by (Rules.L1 Ir.Skip) [] and gets = by (Rules.Rw_gets_pure x) [] in
     let guard = by (Rules.Rw_guard_true Ir.Div_by_zero) [] in
     let sum = E.Binop (E.Add, x, E.word_e Ty.Unsigned Ty.W32 7) in
     [ skip; by (Rules.L1 Ir.Throw) []; by (Rules.L1 (Ir.Local_set ("x", x))) [];
       gets; guard;
       by Rules.Eq_trans [ gets; by (Rules.Rw_cond_true (M.Gets x, M.Fail)) [] ];
       by
         (Rules.Eq_congr
            ( M.Bind (M.Gets x, M.Pwild, M.Guard (Ir.Div_by_zero, E.true_e)),
              Rules.[ At (0, [ Here ]); At (1, [ Here ]) ] ))
         [ gets; guard ];
       by (Rules.W_abs (J.Cunat Ty.W32, [], M.Return sum)) [];
       by (Rules.W_abs (J.Cid, [ k_ext ], M.Guard (Ir.Div_by_zero, E.Binop (E.Lt, sum, x)))) [];
       by (Rules.Hl (M.Return x)) [];
       by (Rules.Hl (M.Guard (Ir.Div_by_zero, E.HeapRead (Ty.Cword (Ty.Unsigned, Ty.W32), x)))) [];
       by (Rules.Fn_chain "f") [ skip ] ])

let k_instance =
  let open Gen in
  let pool = Lazy.force k_pool in
  pair k_rule (list_size (int_range 0 3) (oneofl pool))

(* Holds when the kernel answered or refused; a failure report names the
   exception that escaped and the rule. *)
let kernel_total (rule, prems) =
  let opt =
    match Thm.by_opt k_ctx rule prems with
    | _ -> None
    | exception exn -> Some (Printexc.to_string exn)
  in
  let by =
    match Thm.by k_ctx rule prems with
    | _ -> None
    | exception Thm.Kernel_error _ -> None
    | exception exn -> Some (Printexc.to_string exn)
  in
  match (opt, by) with
  | None, None -> true
  | Some m, _ | None, Some m ->
    QCheck.Test.fail_reportf "%s escaped the kernel on %s" m (Rules.rule_name rule)

(* [Effort] counts rule applications in a flat array indexed by
   [Rules.rule_id], so the built-in ids must be dense and follow
   [rule_name]: every id in [0, num_rule_ids), two rules share an id
   exactly when they share a name, and every id in the range is some
   rule's.  [k_rule] draws every constructor; 30,000 draws hit each of
   them. *)
let test_rule_ids () =
  let rules = QCheck.Gen.generate ~rand:(Random.State.make [| 24 |]) ~n:30_000 k_rule in
  let by_id = Array.make Rules.num_rule_ids None and by_name = Hashtbl.create 97 in
  List.iter
    (fun r ->
      let id = Rules.rule_id r and name = Rules.rule_name r in
      if id < 0 || id >= Rules.num_rule_ids then
        Alcotest.failf "%s has id %d, outside [0, %d)" name id Rules.num_rule_ids;
      (match by_id.(id) with
      | Some n when n <> name -> Alcotest.failf "%s and %s share id %d" n name id
      | _ -> by_id.(id) <- Some name);
      match Hashtbl.find_opt by_name name with
      | Some i when i <> id -> Alcotest.failf "%s has ids %d and %d" name i id
      | _ -> Hashtbl.replace by_name name id)
    rules;
  Array.iteri
    (fun id n -> if Option.is_none n then Alcotest.failf "no rule has id %d" id)
    by_id

let props =
  let open QCheck in
  [
    Test.make ~name:"kernel esimp preserves evaluation" ~count:800 arb_expr_env
      (fun (e, env) ->
        let v1 = try Some (E.eval_pure lenv env e) with E.Eval_stuck _ -> None in
        let v2 =
          try Some (E.eval_pure lenv env (Ac_kernel.Esimp.simp lenv e))
          with E.Eval_stuck _ -> None
        in
        match (v1, v2) with
        | Some a, Some b -> Value.equal a b
        | None, _ -> QCheck.assume_fail ()
        | Some _, None -> false);
    Test.make ~name:"prover simp preserves ground evaluation" ~count:800 arb_term_env
      (fun (t, (x, y)) ->
        let env = [ ("x", T.Vint (B.of_int x)); ("y", T.Vint (B.of_int y)) ] in
        T.veq (T.eval env t) (T.eval env (Ac_prover.Simp.normalize t)));
    Test.make ~name:"LA unsat verdicts are sound (no small model exists)" ~count:200
      (QCheck.make
         QCheck.Gen.(
           list_size (int_range 1 4)
             (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6))))
      (fun constraints ->
        (* each (a, b, c) is the constraint a*x + b*y + c >= 0 *)
        let x = T.Var ("x", T.Sint) and y = T.Var ("y", T.Sint) in
        let terms =
          List.map
            (fun (a, b, c) ->
              T.le_t T.zero
                (T.add_t
                   (T.add_t (T.mul_t (T.int_of a) x) (T.mul_t (T.int_of b) y))
                   (T.int_of c)))
            constraints
        in
        if not (Ac_prover.La.unsat (List.map Ac_prover.Simp.normalize terms)) then true
        else begin
          (* claimed unsat: verify no model with |x|,|y| <= 25 *)
          let sat = ref false in
          for vx = -25 to 25 do
            for vy = -25 to 25 do
              if
                List.for_all
                  (fun (a, b, c) -> (a * vx) + (b * vy) + c >= 0)
                  constraints
              then sat := true
            done
          done;
          not !sat
        end);
    Test.make ~name:"solver never proves falsifiable ground facts" ~count:300
      (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50))
      (fun (a, b) ->
        let x = T.Var ("x", T.Sint) in
        (* claim: x = a -> x = b; valid iff a = b *)
        let goal = T.imp_t (T.eq_t x (T.int_of a)) (T.eq_t x (T.int_of b)) in
        let proved = Ac_prover.Solver.holds goal in
        proved = (a = b));
    Test.make ~name:"codec round-trips random struct values" ~count:300
      (QCheck.make
         QCheck.Gen.(
           triple (int_range 0 0xFFFF) (int_range 0 0xFFFFFF) (int_range 0 255)))
      (fun (a, b, c) ->
        let lenv =
          Layout.declare_struct Layout.empty "s"
            [ ("x", Ty.Cword (Ty.Unsigned, Ty.W16)); ("y", Ty.Cword (Ty.Unsigned, Ty.W32));
              ("z", Ty.Cword (Ty.Unsigned, Ty.W8)) ]
        in
        let v =
          Value.Vstruct
            ( "s",
              [ ("x", Value.vword Ty.Unsigned (W.of_int W.W16 a));
                ("y", Value.vword Ty.Unsigned (W.of_int W.W32 b));
                ("z", Value.vword Ty.Unsigned (W.of_int W.W8 c)) ] )
        in
        let bytes = Ac_lang.Codec.encode lenv v in
        let read i = List.nth bytes (B.to_int_exn i) in
        let v' = Ac_lang.Codec.decode lenv (Ty.Cstruct "s") read B.zero in
        Value.equal v v');
    Test.make ~name:"struct layout respects alignment" ~count:200
      (QCheck.make
         QCheck.Gen.(
           list_size (int_range 1 5)
             (oneofl
                [ Ty.Cword (Ty.Unsigned, Ty.W8); Ty.Cword (Ty.Unsigned, Ty.W16);
                  Ty.Cword (Ty.Unsigned, Ty.W32); Ty.Cword (Ty.Unsigned, Ty.W64) ])))
      (fun ctys ->
        let fields = List.mapi (fun i c -> (Printf.sprintf "f%d" i, c)) ctys in
        let lenv = Layout.declare_struct Layout.empty "s" fields in
        List.for_all
          (fun (fname, c) ->
            let off = Layout.field_offset lenv "s" fname in
            off mod Layout.align_of lenv c = 0)
          fields
        && Layout.size_of lenv (Ty.Cstruct "s") mod Layout.align_of lenv (Ty.Cstruct "s") = 0);
    Test.make ~name:"discharged guards never fail under the interpreter" ~count:600
      arb_mprog discharge_agrees;
    Test.make
      ~name:"interprocedural discharge is sound and monotone vs intraprocedural"
      ~count:300 arb_callprog interproc_discharge_sound;
    Test.make ~name:"the certificate walk returns its input exactly when unchanged"
      ~count:600
      (QCheck.make ~print:Ac_monad.Mprint.to_string gen_walk_body)
      walk_shares;
    Test.make ~name:"the analyser's walk predicts the kernel's discharge" ~count:600
      (QCheck.make ~print:Ac_monad.Mprint.to_string gen_walk_body)
      prediction_matches;
    Test.make ~name:"Index lookups agree with List.mem and List.assoc_opt" ~count:1000
      (QCheck.make
         ~print:(fun (l, q) ->
           String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l) ^ " ? " ^ q)
         QCheck.Gen.(
           let name = oneofl [ "f"; "g"; "h"; "fg"; "" ] in
           pair (list_size (int_range 0 10) (pair name small_nat)) name))
      (fun (l, q) ->
        let ix = Index.of_list fst l in
        let names = List.map fst l in
        let nx = Index.names names in
        Index.mem ix q = List.mem_assoc q l
        && Option.map snd (Index.find_opt ix q) = List.assoc_opt q l
        && Index.mem nx q = List.mem q names
        && Index.find_opt nx q = List.find_opt (String.equal q) names
        && Index.to_list ix == l
        && Index.to_list nx == names);
    Test.make ~name:"list-free expression queries match their list forms" ~count:1000
      (QCheck.make
         ~print:(fun (e, xs) -> Ac_lang.Pretty.expr_to_string e ^ " / " ^ String.concat "," xs)
         QCheck.Gen.(pair gen_sexpr gen_vars))
      (fun (e, xs) ->
        E.free_vars e = free_vars_by_map e
        && E.size e = size_by_children e
        && E.occurs_any xs e = occurs_by_list xs (E.free_vars e)
        && E.reads_state e = reads_state_by_children e
        && List.for_all (fun x -> E.mem_var x e = List.mem x (E.free_vars e)) query_vars);
    Test.make ~name:"occurs_free and capture_free match their list forms" ~count:1000
      (QCheck.make
         ~print:(fun (m, (e, xs)) ->
           Ac_monad.Mprint.to_string m ^ " / " ^ Ac_lang.Pretty.expr_to_string e ^ " / "
           ^ String.concat "," xs)
         QCheck.Gen.(pair gen_mterm (pair gen_sexpr gen_vars)))
      (fun (m, (e, xs)) ->
        M.occurs_free xs m = occurs_by_list xs (M.free_vars m)
        && Rules.capture_free e m
           = not (occurs_by_list (E.free_vars e) (Rules.binder_names m)));
    Test.make ~name:"subst shares what it leaves alone, rebuilds the rest equally" ~count:1000
      (QCheck.make
         ~print:(fun (m, (e, bs)) ->
           Ac_monad.Mprint.to_string m ^ " / " ^ Ac_lang.Pretty.expr_to_string e ^ " / "
           ^ String.concat "," (List.map fst bs))
         QCheck.Gen.(pair gen_mterm (pair gen_sexpr gen_bindings)))
      (fun (m, (e, bs)) ->
        let dom = List.map fst bs in
        let m' = M.subst bs m and e' = E.subst bs e in
        M.equal m' (subst_rebuild bs m)
        && E.equal e' (subst_rebuild_e bs e)
        && (M.occurs_free dom m || m' == m)
        && (E.occurs_any dom e || e' == e));
    Test.make ~name:"Rw_simp and Rw_discharge return an unchanged term as it is" ~count:1000
      (QCheck.make ~print:Ac_monad.Mprint.to_string gen_mterm)
      (fun m ->
        let ctx = Rules.empty_ctx lenv in
        List.for_all
          (fun rule ->
            match Thm.concl (Thm.by ctx rule []) with
            | J.Equiv (m', src) -> src == m && M.equal m' m = (m' == m)
            | _ -> false)
          [ Rules.Rw_simp m; Rules.Rw_discharge m ]);
    Test.make ~name:"l1: the one-step image agrees with the Simpl semantics" ~count:1000
      arb_cbody l1_agrees_with_simpl;
    Test.make ~name:"lifting preserves the behaviour of random C-shaped bodies" ~count:1000
      arb_cbody lift_agrees;
    Test.make ~name:"rw_inline: one step is step-by-step inlining, and agrees" ~count:500
      arb_cbody inline_agrees;
    Test.make ~name:"rw_inline: one step is step-by-step inlining under shadowing" ~count:5000
      (QCheck.make ~print:Ac_monad.Mprint.to_string k_binds)
      (fun m ->
        let ctx = Rules.empty_ctx lenv in
        let once = inline_once ctx m and stepwise = inline_stepwise ctx m in
        alpha_eq [] once stepwise
        || QCheck.Test.fail_reportf "one step:@.%s@.step by step:@.%s"
             (Ac_monad.Mprint.to_string once) (Ac_monad.Mprint.to_string stepwise));
    Test.make ~name:"hl: the one-step image refines the byte-level program" ~count:200
      (QCheck.make ~print:Fun.id gen_hl_unit)
      hl_refines;
    Test.make ~name:"kernel: Rw_simp's own inference raises nothing" ~count:20000
      (QCheck.make ~print:Ac_monad.Mprint.to_string (k_term 2))
      (fun m ->
        match Rules.infer k_ctx (Rules.Rw_simp m) [] with
        | _ -> true
        | exception exn ->
          QCheck.Test.fail_reportf "%s escaped Rw_simp" (Printexc.to_string exn));
    (* The rewrite engine skips the subterms a round's input shares with
       the previous round's simplified term: they must be simp normal. *)
    Test.make ~name:"kernel: msimp is idempotent, physically" ~count:20000
      (QCheck.make ~print:Ac_monad.Mprint.to_string (k_term 2))
      (fun m ->
        let m' = Rules.msimp k_ctx.Rules.lenv m in
        Rules.msimp k_ctx.Rules.lenv m' == m');
    Test.make ~name:"kernel: every rule instance is answered or refused, never raises"
      ~count:50000
      (QCheck.make ~print:(fun (r, ps) ->
           Printf.sprintf "%s over %d premises" (Rules.rule_name r) (List.length ps))
         k_instance)
      kernel_total;
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [ Alcotest.test_case "kernel: rule ids are dense and follow rule names" `Quick test_rule_ids ]
