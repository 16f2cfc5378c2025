module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Ir = Ac_simpl.Ir

(* The monadic intermediate language: a deep embedding of the paper's
   exception monad

     ('s, 'a, 'e) monadE = 's => (('e + 'a) × 's) set × bool

   All of L1, L2, HL and WA are programs in this language; the abstraction
   phases only change which expression constructs appear inside.  [Bind]
   binds the result of the left computation in the right one via a pattern
   (tuples arise from local-variable lifting). *)

type pat =
  | Pvar of string * Ty.t
  | Ptuple of pat list
  | Pwild

(* State updates used by [Modify]. *)
type smod =
  | Heap_write of Ty.cty * E.t * E.t (* concrete byte-heap object write *)
  | Typed_write of Ty.cty * E.t * E.t (* abstract s[p := v] *)
  | Global_set of string * E.t
  | Local_set of string * E.t (* L1 only: locals still live in the state *)
  | Retype of Ty.cty * E.t

type t =
  | Return of E.t
  | Bind of t * pat * t (* do v <- L; R od *)
  | Gets of E.t (* gets (λs. e): e reads the state *)
  | Modify of smod list (* modify (λs. ...) — simultaneous updates *)
  | Guard of Ir.guard_kind * E.t
  | Fail
  | Throw of E.t
  | Try of t * pat * t (* body <catch> (λe. handler) *)
  | Cond of E.t * t * t (* condition (λs. c) L R *)
  | While of pat * E.t * t * E.t (* whileLoop (λi s. c) (λi. B) init *)
  | Call of string * E.t list
  | Exec_concrete of string * E.t list (* run a non-lifted function (Sec 4.6) *)
  | Unknown of Ty.t (* nondeterministic value (uninitialised reads) *)

(* How a function receives its arguments and locals. *)
type convention =
  | Locals_in_state (* L1: parameters copied into state-resident locals *)
  | Lambda_bound (* L2+: parameters are lambda-bound *)

(* Which memory model the body uses (Sec 4.6: mixing levels). *)
type heap_model = Byte_level | Typed_split

type func = {
  name : string;
  params : (string * Ty.t) list;
  ret_ty : Ty.t;
  body : t;
  convention : convention;
  heap_model : heap_model;
  locals : (string * Ty.t) list; (* state-resident locals (L1 only) *)
}

type program = {
  lenv : Ac_lang.Layout.env;
  globals : (string * Ty.t) list;
  funcs : func list;
  (* Types with split heaps, fixed when any function is heap-abstracted. *)
  heap_types : Ty.cty list;
}

let find_func prog name = List.find_opt (fun f -> String.equal f.name name) prog.funcs

let replace_func prog f =
  {
    prog with
    funcs = List.map (fun g -> if String.equal g.name f.name then f else g) prog.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Structure. *)

let rec pat_vars = function
  | Pvar (x, t) -> [ (x, t) ]
  | Ptuple ps -> List.concat_map pat_vars ps
  | Pwild -> []

let rec pat_ty = function
  | Pvar (_, t) -> t
  | Ptuple ps -> Ty.Ttuple (List.map pat_ty ps)
  | Pwild -> Ty.Tunit (* unknown; only used for display *)

let rec pat_expr = function
  | Pvar (x, t) -> E.Var (x, t)
  | Ptuple ps -> E.Tuple (List.map pat_expr ps)
  | Pwild -> E.unit_e

let skip = Return E.unit_e

let seq a b = Bind (a, Pwild, b)

let seq_of_list ms =
  match List.rev ms with
  | [] -> skip
  | last :: rev_init -> List.fold_left (fun acc m -> Bind (m, Pwild, acc)) last rev_init

(* Size of a monadic term (Table 5 term-size metric for AutoCorres output). *)
let rec size = function
  | Return e | Gets e | Guard (_, e) | Throw e -> 1 + E.size e
  | Fail -> 1
  | Bind (a, p, b) -> 1 + List.length (pat_vars p) + size a + size b
  | Modify ms ->
    1
    + List.fold_left
        (fun n m ->
          n
          +
          match m with
          | Heap_write (_, p, v) | Typed_write (_, p, v) -> E.size p + E.size v
          | Global_set (_, e) | Local_set (_, e) | Retype (_, e) -> E.size e)
        0 ms
  | Try (a, p, b) -> 1 + List.length (pat_vars p) + size a + size b
  | Cond (c, a, b) -> 1 + E.size c + size a + size b
  | While (p, c, body, init) -> 1 + List.length (pat_vars p) + E.size c + size body + E.size init
  | Call (_, args) | Exec_concrete (_, args) ->
    1 + List.fold_left (fun n e -> n + E.size e) 0 args
  | Unknown _ -> 1

let func_size f = size f.body

let rec map_sub f m =
  match m with
  | Return _ | Gets _ | Modify _ | Guard _ | Fail | Throw _ | Call _ | Exec_concrete _
  | Unknown _ ->
    m
  | Bind (a, p, b) -> Bind (f a, p, f b)
  | Try (a, p, b) -> Try (f a, p, f b)
  | Cond (c, a, b) -> Cond (c, f a, f b)
  | While (p, c, body, init) -> While (p, c, f body, init)

let rec iter_exprs f m =
  match m with
  | Return e | Gets e | Guard (_, e) | Throw e -> f e
  | Fail | Unknown _ -> ()
  | Modify ms ->
    List.iter
      (function
        | Heap_write (_, p, v) | Typed_write (_, p, v) ->
          f p;
          f v
        | Global_set (_, e) | Local_set (_, e) | Retype (_, e) -> f e)
      ms
  | Bind (a, _, b) | Try (a, _, b) ->
    iter_exprs f a;
    iter_exprs f b
  | Cond (c, a, b) ->
    f c;
    iter_exprs f a;
    iter_exprs f b
  | While (_, c, body, init) ->
    f c;
    iter_exprs f body;
    f init
  | Call (_, args) | Exec_concrete (_, args) -> List.iter f args

(* Structural equality (used by the proof checker), with a physical fast
   path: the rewrite engine rebuilds only the spine it changes, so shared
   children compare in O(1). *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Return x, Return y | Gets x, Gets y | Throw x, Throw y -> E.equal x y
  | Fail, Fail -> true
  | Guard (k1, x), Guard (k2, y) -> k1 = k2 && E.equal x y
  | Modify xs, Modify ys ->
    List.length xs = List.length ys && List.for_all2 smod_equal xs ys
  | Bind (a1, p1, b1), Bind (a2, p2, b2) | Try (a1, p1, b1), Try (a2, p2, b2) ->
    equal a1 a2 && pat_equal p1 p2 && equal b1 b2
  | Cond (c1, a1, b1), Cond (c2, a2, b2) -> E.equal c1 c2 && equal a1 a2 && equal b1 b2
  | While (p1, c1, b1, i1), While (p2, c2, b2, i2) ->
    pat_equal p1 p2 && E.equal c1 c2 && equal b1 b2 && E.equal i1 i2
  | Call (f1, a1), Call (f2, a2) | Exec_concrete (f1, a1), Exec_concrete (f2, a2) ->
    String.equal f1 f2 && List.length a1 = List.length a2 && List.for_all2 E.equal a1 a2
  | Unknown t1, Unknown t2 -> Ty.equal t1 t2
  | ( ( Return _ | Gets _ | Modify _ | Guard _ | Fail | Throw _ | Try _ | Cond _ | While _
      | Call _ | Exec_concrete _ | Unknown _ | Bind _ ),
      _ ) ->
    false

and pat_equal p q =
  p == q
  ||
  match (p, q) with
  | Pvar (x, t), Pvar (y, u) -> String.equal x y && Ty.equal t u
  | Ptuple ps, Ptuple qs -> List.length ps = List.length qs && List.for_all2 pat_equal ps qs
  | Pwild, Pwild -> true
  | (Pvar _ | Ptuple _ | Pwild), _ -> false

and smod_equal x y =
  x == y
  ||
  match (x, y) with
  | Heap_write (c1, p1, v1), Heap_write (c2, p2, v2)
  | Typed_write (c1, p1, v1), Typed_write (c2, p2, v2) ->
    Ty.cty_equal c1 c2 && E.equal p1 p2 && E.equal v1 v2
  | Global_set (x1, e1), Global_set (x2, e2) | Local_set (x1, e1), Local_set (x2, e2) ->
    String.equal x1 x2 && E.equal e1 e2
  | Retype (c1, e1), Retype (c2, e2) -> Ty.cty_equal c1 c2 && E.equal e1 e2
  | (Heap_write _ | Typed_write _ | Global_set _ | Local_set _ | Retype _), _ -> false

(* Does [f] hold of a variable the pattern binds? *)
let rec pat_exists f = function
  | Pvar (x, _) -> f x
  | Ptuple ps -> List.exists (pat_exists f) ps
  | Pwild -> false

(* Substitute expressions for free variables throughout a term, respecting
   binder shadowing.  A subterm the substitution leaves alone is returned as
   it is (physically), so an unchanged term stays shared. *)
let rec subst (bindings : (string * E.t) list) m =
  match bindings with
  | [] -> m
  | _ -> (
    let sub_e = E.subst bindings in
    let drop p bindings =
      if pat_exists (fun x -> List.mem_assoc x bindings) p then
        List.filter (fun (x, _) -> not (pat_exists (String.equal x) p)) bindings
      else bindings
    in
    let sub_args args =
      let args' = List.map sub_e args in
      if List.for_all2 ( == ) args args' then args else args'
    in
    match m with
    | Return e ->
      let e' = sub_e e in
      if e' == e then m else Return e'
    | Gets e ->
      let e' = sub_e e in
      if e' == e then m else Gets e'
    | Throw e ->
      let e' = sub_e e in
      if e' == e then m else Throw e'
    | Fail | Unknown _ -> m
    | Guard (k, e) ->
      let e' = sub_e e in
      if e' == e then m else Guard (k, e')
    | Modify ms ->
      let sub_one sm =
        match sm with
        | Heap_write (c, p, v) ->
          let p' = sub_e p and v' = sub_e v in
          if p' == p && v' == v then sm else Heap_write (c, p', v')
        | Typed_write (c, p, v) ->
          let p' = sub_e p and v' = sub_e v in
          if p' == p && v' == v then sm else Typed_write (c, p', v')
        | Global_set (x, e) ->
          let e' = sub_e e in
          if e' == e then sm else Global_set (x, e')
        | Local_set (x, e) ->
          let e' = sub_e e in
          if e' == e then sm else Local_set (x, e')
        | Retype (c, e) ->
          let e' = sub_e e in
          if e' == e then sm else Retype (c, e')
      in
      let ms' = List.map sub_one ms in
      if List.for_all2 ( == ) ms ms' then m else Modify ms'
    | Bind (a, p, b) ->
      let a' = subst bindings a and b' = subst (drop p bindings) b in
      if a' == a && b' == b then m else Bind (a', p, b')
    | Try (a, p, b) ->
      let a' = subst bindings a and b' = subst (drop p bindings) b in
      if a' == a && b' == b then m else Try (a', p, b')
    | Cond (c, a, b) ->
      let c' = sub_e c and a' = subst bindings a and b' = subst bindings b in
      if c' == c && a' == a && b' == b then m else Cond (c', a', b')
    | While (p, c, body, init) ->
      let inner = drop p bindings in
      let c' = E.subst inner c and body' = subst inner body and init' = sub_e init in
      if c' == c && body' == body && init' == init then m else While (p, c', body', init')
    | Call (f, args) ->
      let args' = sub_args args in
      if args' == args then m else Call (f, args')
    | Exec_concrete (f, args) ->
      let args' = sub_args args in
      if args' == args then m else Exec_concrete (f, args'))

module SSet = Set.Make (String)

(* Free variables of a monadic term. *)
let free_vars m =
  let rec go bound m acc =
    let fv_e e acc =
      List.fold_left
        (fun acc v -> if SSet.mem v bound then acc else SSet.add v acc)
        acc (E.free_vars e)
    in
    match m with
    | Return e | Gets e | Guard (_, e) | Throw e -> fv_e e acc
    | Fail | Unknown _ -> acc
    | Modify ms ->
      List.fold_left
        (fun acc sm ->
          match sm with
          | Heap_write (_, p, v) | Typed_write (_, p, v) -> fv_e v (fv_e p acc)
          | Global_set (_, e) | Local_set (_, e) | Retype (_, e) -> fv_e e acc)
        acc ms
    | Bind (a, p, b) | Try (a, p, b) ->
      let acc = go bound a acc in
      let bound' = List.fold_left (fun s (x, _) -> SSet.add x s) bound (pat_vars p) in
      go bound' b acc
    | Cond (c, a, b) -> go bound b (go bound a (fv_e c acc))
    | While (p, c, body, init) ->
      let acc = fv_e init acc in
      let bound' = List.fold_left (fun s (x, _) -> SSet.add x s) bound (pat_vars p) in
      go bound' body
        (List.fold_left
           (fun acc v -> if SSet.mem v bound' then acc else SSet.add v acc)
           acc (E.free_vars c))
    | Call (_, args) | Exec_concrete (_, args) -> List.fold_left (fun acc e -> fv_e e acc) acc args
  in
  SSet.elements (go SSet.empty m SSet.empty)

(* Does any of [xs] occur free in [m]?  [List.exists (fun x -> List.mem x
   (free_vars m)) xs] without building the set. *)
let occurs_free xs m =
  (* [xs] less the variables [p] binds *)
  let unbound xs p =
    if pat_exists (fun y -> List.mem y xs) p then
      List.filter (fun x -> not (pat_exists (String.equal x) p)) xs
    else xs
  in
  let rec go xs m =
    match xs with
    | [] -> false
    | _ -> (
      match m with
      | Return e | Gets e | Guard (_, e) | Throw e -> E.occurs_any xs e
      | Fail | Unknown _ -> false
      | Modify ms ->
        List.exists
          (function
            | Heap_write (_, p, v) | Typed_write (_, p, v) -> E.occurs_any xs p || E.occurs_any xs v
            | Global_set (_, e) | Local_set (_, e) | Retype (_, e) -> E.occurs_any xs e)
          ms
      | Bind (a, p, b) | Try (a, p, b) -> go xs a || go (unbound xs p) b
      | Cond (c, a, b) -> E.occurs_any xs c || go xs a || go xs b
      | While (p, c, body, init) ->
        E.occurs_any xs init
        ||
        let inner = unbound xs p in
        E.occurs_any inner c || go inner body
      | Call (_, args) | Exec_concrete (_, args) -> List.exists (E.occurs_any xs) args)
  in
  go xs m
