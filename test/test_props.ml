(* Property-based soundness tests for the trusted computational pieces:
   the kernel expression simplifier preserves evaluation, the prover's
   term simplifier preserves ground evaluation, linear-arithmetic verdicts
   agree with brute-force search, and the byte codec round-trips. *)

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

(* [f] (with body m / m') applied to every probe input must behave
   identically under the interpreter: a discharged guard that could
   actually fail shows up as [Fails] on one side only. *)
let funcs_agree (funcs : M.t -> M.func list) (m : M.t) (m' : M.t) probes =
  let prog body = { M.lenv; globals = [ ("g", u32) ]; funcs = funcs body; heap_types = [] } in
  let state0 =
    State.set_global State.empty "g" (Value.vword Ty.Unsigned (W.of_int W.W32 0))
  in
  let agree (vx, vy) =
    let args =
      [ Value.vword Ty.Unsigned (W.of_int W.W32 vx);
        Value.vword Ty.Unsigned (W.of_int W.W32 vy) ]
    in
    let r = Interp.run_func (prog m) ~fuel:5000 state0 "f" args in
    let r' = Interp.run_func (prog m') ~fuel:5000 state0 "f" args in
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
  let sums, _ = Ac_analysis.Summary.compute lenv fbodies in
  let ctx = { (Rules.empty_ctx lenv) with Rules.fbodies } in
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
  ]

let suite = List.map QCheck_alcotest.to_alcotest props
