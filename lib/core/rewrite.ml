module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* The certified rewrite engine.

   Applies the kernel's equivalence rules bottom-up to a fixed point and
   replays the steps in one congruence step ([Eq_congr]), so the result is
   a single [Equiv (simplified, original)] theorem, or [None] when nothing
   changed: no theorem is minted for a subterm left alone.  This engine drives the
   paper's L2 clean-up steps: plain translation artefacts, guard
   de-duplication and discharging, and exception-flow simplification. *)

let abs_of (thm : Thm.t) : M.t =
  match Thm.concl thm with
  | J.Equiv (a, _) -> a
  | _ -> invalid_arg "Rewrite.abs_of"

(* Equiv(b, m) ∘ Equiv(a, b) = Equiv(a, m). *)
let trans ctx (newer : Thm.t) (older : Thm.t) : Thm.t =
  Thm.by ctx Rules.Eq_trans [ newer; older ]

(* The head-rewrite table: candidate rules in priority order; the first one
   whose side conditions hold wins. *)
let head_rules (m : M.t) : Rules.rule list =
  let cond_rules =
    match m with
    | M.Cond (E.Const (Ac_lang.Value.Vbool true), a, b) -> [ Rules.Rw_cond_true (a, b) ]
    | M.Cond (E.Const (Ac_lang.Value.Vbool false), a, b) -> [ Rules.Rw_cond_false (a, b) ]
    | M.Cond (c, a, b) when M.equal a b -> [ Rules.Rw_cond_same (c, a) ]
    | M.Cond (c, ((M.Return _ | M.Gets _) as x), ((M.Return _ | M.Gets _) as y)) ->
      [ Rules.Rw_cond_return (c, x, y) ]
    | _ -> []
  in
  let bind_rules =
    match m with
    | M.Bind (M.Throw e, p, b) -> [ Rules.Rw_dead_after_throw (e, p, b) ]
    | M.Bind (M.Fail, p, b) -> [ Rules.Rw_dead_after_fail (p, b) ]
    | M.Bind (M.Return _, _, _) -> [ Rules.Rw_inline (m, [ 0 ]) ]
    | M.Bind ((M.Gets e as a), p, b) when not (E.reads_state e) ->
      [ Rules.Rw_gets_bind (a, p, b) ]
    | _ -> []
  in
  let tail_rules =
    match m with
    | M.Bind (a, ((M.Pvar _ | M.Ptuple _) as p), M.Return e)
      when E.equal e (M.pat_expr p) ->
      [ Rules.Rw_bind_return (a, p) ]
    | _ -> []
  in
  let assoc_rules =
    match m with
    | M.Bind (M.Bind (a, p, b), q, c) -> [ Rules.Rw_bind_assoc (a, p, b, q, c) ]
    | _ -> []
  in
  let prune_rules =
    match m with
    | M.Bind (M.While ((M.Ptuple ips as ip), c, body, init), (M.Ptuple qps as qp), k) ->
      (* The kernel refuses to drop a component the condition or the
         continuation reads: propose only the others. *)
      let unread p =
        let xs = List.map fst (M.pat_vars p) in
        not (E.occurs_any xs c || M.occurs_free xs k)
      in
      List.concat
        (List.mapi
           (fun i p ->
             match List.nth_opt qps i with
             | Some q when unread p && unread q ->
               [ Rules.Rw_prune_loop (i, ip, c, body, init, qp, k) ]
             | _ -> [])
           ips)
    | _ -> []
  in
  let other =
    match m with
    | M.Gets e when not (E.reads_state e) -> [ Rules.Rw_gets_pure e ]
    | M.Guard (k, E.Const (Ac_lang.Value.Vbool true)) -> [ Rules.Rw_guard_true k ]
    | M.Try (a, p, h) -> [ Rules.Rw_try_nothrow (a, p, h) ]
    | _ -> []
  in
  cond_rules @ bind_rules @ tail_rules @ prune_rules @ assoc_rules @ other

(* Inline only cheap expressions to avoid size blow-up (standard
   let-inlining heuristic); the kernel rule itself is indifferent. *)
let cheap e =
  (* [budget - E.size e], counting no further once it is negative *)
  let rec spare budget e = if budget < 0 then budget else E.fold_children spare (budget - 1) e in
  match e with
  | E.Var _ | E.Const _ | E.Global _ | E.Tuple _ -> true
  | _ -> spare 8 e >= 0

(* How many expressions of [b] mention [x] once the cheap return-binds
   left in [b] are inlined: such a binding's own expression is gone, and
   an expression reading a variable it binds reads the bound value.  On a
   normal [b], which has no such binding left, the plain count. *)
let uses_after_inlining x (b : M.t) =
  let uses = ref 0 in
  let count xs e = if E.occurs_any xs e then incr uses in
  let unbind p xs = List.filter (fun v -> not (M.pat_exists (String.equal v) p)) xs in
  (* under a binder the pass keeps, which may bind a new [x] *)
  let rebind p xs = if M.pat_exists (String.equal x) p then x :: unbind p xs else unbind p xs in
  let rec go xs m =
    match m with
    | M.Bind (M.Return e, p, b) when cheap e ->
      let bound = Option.value ~default:[] (Rules.bind_expr_to_pat p e) in
      go (List.filter_map (fun (v, ev) -> if E.occurs_any xs ev then Some v else None) bound
          @ unbind p xs) b
    | M.Bind (a, p, b) | M.Try (a, p, b) ->
      go xs a;
      go (rebind p xs) b
    | M.Cond (c, a, b) ->
      count xs c;
      go xs a;
      go xs b
    | M.While (p, c, body, init) ->
      count xs init;
      count (rebind p xs) c;
      go (rebind p xs) body
    | _ -> M.iter_exprs (count xs) m
  in
  go [ x ] b;
  !uses

let want_head_rewrite (m : M.t) =
  match m with
  | M.Bind (M.Return e, _, _) when not (cheap e) -> false
  | M.Bind (M.Gets e, M.Pvar (x, _), b) when not (cheap e) ->
    (* still inline single-use bindings *)
    uses_after_inlining x b <= 1
  | _ -> true

(* The inlining a deferring sweep left for one [Rw_inline] step: the
   pre-order positions (as the kernel counts them) of the return-binds
   [want_head_rewrite] approves, and [m] with those binds dropped but
   nothing substituted.  The latter lines up with the step's output, so a
   sweep of the output can skip what the step left physically alone. *)
let inline_plan (m : M.t) : int list * M.t =
  let next = ref 0 and acc = ref [] in
  let rec go m =
    let i = !next in
    incr next;
    match m with
    | M.Bind (M.Return _, _, b) when want_head_rewrite m ->
      acc := i :: !acc;
      incr next;
      go b
    | M.Bind (a, p, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then m else M.Bind (a', p, b')
    | M.Try (a, p, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then m else M.Try (a', p, b')
    | M.Cond (c, a, b) ->
      let a' = go a in
      let b' = go b in
      if a' == a && b' == b then m else M.Cond (c, a', b')
    | M.While (p, c, body, init) ->
      let body' = go body in
      if body' == body then m else M.While (p, c, body', init)
    | _ -> m
  in
  let shadow = go m in
  (List.rev !acc, shadow)

(* Fuel budget: a cap on head rewrites per [normalize] call.  Running dry
   stops rewriting where it stands — the accumulated theorem is already a
   valid [Equiv], so exhaustion only costs polish, never soundness.  The
   default is far above anything the corpus needs; the driver installs the
   per-run value from [Driver.options.budgets]. *)
let default_fuel = 1_000_000
let fuel = ref default_fuel

(* How many [normalize] calls ran out of fuel (for `acc stats`).  Reset by
   the driver per run; atomic, workers rewrite concurrently. *)
let exhaustions = Atomic.make 0

(* A rewrite script: the steps a [normalize] call took, newest first.
   [Step t] is a theorem [Equiv (a, c)] about the current term [c];
   [Under (i, s)] runs the script [s] on the current term's child [i]
   (see [Rules.step]).  Steps are identity-free: a term left alone adds
   nothing to the script, and nothing is minted for it.  [Eq_congr]
   replays a whole script in one kernel step, so no congruence or
   transitivity node carries a change up the term. *)
type item = Step of Thm.t | Under of int * item list

type script = item list

(* The fuel left for one [normalize] call, whether its sweep is
   deferring the return-binds it meets to one [Rw_inline] step, whether
   it deferred any, and the script so far. *)
type tank = {
  mutable left : int;
  mutable defer : bool;
  mutable deferred : bool;
  mutable script : script;
}

let tank fuel = { left = fuel; defer = false; deferred = false; script = [] }

let push tank (t : Thm.t) = tank.script <- Step t :: tank.script

(* Put the items pushed since [mark], a tail of the script, under child
   [i]. *)
let wrap tank i (mark : script) =
  if tank.script != mark then begin
    let rec above = function
      | x :: rest when rest != mark -> x :: above rest
      | x :: _ -> [ x ]
      | [] -> []
    in
    tank.script <- Under (i, above tank.script) :: mark
  end

(* A deferring sweep still inlines a binding of a branch whose body is a
   leaf: the result can let [Rw_cond_return] merge the branches into a new
   return-bind, whose expression must be judged [cheap] before the
   bindings around it are inlined, as the step-by-step sweep judges it. *)
let try_head (ctx : Rules.ctx) tank ~branch (m : M.t) : Thm.t option =
  if not (want_head_rewrite m) then None
  else
    match m with
    | M.Bind (M.Return _, _, b)
      when tank.defer
           && not (branch && match b with M.Bind _ | M.Try _ | M.Cond _ | M.While _ -> false | _ -> true) ->
      tank.deferred <- true;
      None
    | _ ->
      List.fold_left
        (fun acc rule -> match acc with Some _ -> acc | None -> Thm.by_opt ctx rule [])
        None (head_rules m)

(* The theorem of the script [s] over [m]; a lone step is its own
   theorem. *)
let close ctx (m : M.t) (s : script) : Thm.t option =
  match s with
  | [] -> None
  | [ Step t ] -> Some t
  | _ ->
    (* Visiting the items newest first conses the premises into the order
       the kernel reads them in. *)
    let prems = ref [] in
    let rec steps s =
      List.rev_map
        (function
          | Step t ->
            prems := t :: !prems;
            Rules.Here
          | Under (i, s) -> Rules.At (i, steps s))
        s
    in
    let steps = steps s in
    Some (Thm.by ctx (Rules.Eq_congr (m, steps)) !prems)

let chain_onto ctx (newer : Thm.t option) (older : Thm.t) : Thm.t =
  match newer with Some n -> trans ctx n older | None -> older

(* [old] is a term that [m] was derived from by a map returning
   unchanged subterms physically (a substitution, a loop-body rewrite, a
   simp or discharge step, a sweep).  A subterm of [m] that is physically
   [old]'s at the same position is one the walk at hand need not visit
   again.  [fresh], a leaf no rule rewrites, stands for no such term. *)
let fresh = M.Unknown Ty.Tunit

let first = function
  | M.Bind (a, _, _) | M.Try (a, _, _) | M.Cond (_, a, _) | M.While (_, _, a, _) -> a
  | _ -> fresh

let second = function M.Bind (_, _, b) | M.Try (_, _, b) | M.Cond (_, _, b) -> b | _ -> fresh

(* One bottom-up sweep: normalise the children, then rewrite the head to
   a fixed point.  It returns the rewritten term, [m] itself (physically)
   when nothing changed, and pushes the steps it took.  [tank] is the
   remaining fuel for this [normalize] call.  The subterms [m] shares
   with [old] are head-normal: no head rule applies anywhere in them.
   [pass] visits all of [m]. *)
let rec sweep ?(branch = false) (ctx : Rules.ctx) (tank : tank) (old : M.t) (m : M.t) : M.t =
  if m == old then m else head_fix ctx tank ~branch (children ctx tank old m)

and sweep_at ?branch i ctx tank old m =
  let mark = tank.script in
  let m' = sweep ?branch ctx tank old m in
  wrap tank i mark;
  m'

(* [m] over its swept children.  Right child first: where an exhausted
   tank stops rewriting depends on the order fuel is spent in, and
   outputs under a small budget must not change. *)
and children ctx tank old m =
  match m with
  | M.Bind (a, p, b) ->
    let b' = sweep_at 1 ctx tank (second old) b in
    let a' = sweep_at 0 ctx tank (first old) a in
    if a' == a && b' == b then m else M.Bind (a', p, b')
  | M.Try (a, p, b) ->
    let b' = sweep_at 1 ctx tank (second old) b in
    let a' = sweep_at 0 ctx tank (first old) a in
    if a' == a && b' == b then m else M.Try (a', p, b')
  | M.Cond (c, a, b) ->
    let b' = sweep_at ~branch:true 1 ctx tank (second old) b in
    let a' = sweep_at ~branch:true 0 ctx tank (first old) a in
    if a' == a && b' == b then m else M.Cond (c, a', b')
  | M.While (p, c, body, init) ->
    let body' = sweep_at 0 ctx tank (first old) body in
    if body' == body then m else M.While (p, c, body', init)
  | _ -> m

(* Every head step is followed by [settle] before the head is tried
   again, so the sweep leaves no redex behind it: its output is a fixed
   point of [pass]. *)
and head_fix ctx tank ~branch (cur : M.t) : M.t =
  if tank.left <= 0 then cur
  else begin
    match try_head ctx tank ~branch cur with
    | Some step ->
      tank.left <- tank.left - 1;
      push tank step;
      head_fix ctx tank ~branch (settle ctx tank step)
    | None -> cur
  end

(* Normalise what a head step built below the new head; its other
   subterms were normal before the step.
   - [Rw_bind_assoc] builds [Bind (b, q, c)] over normal [b] and [c], so
     only its head needs rewriting.
   - [Rw_inline] at the head and [Rw_gets_bind] substitute into the
     normal body:
     only the subterms the substitution rebuilt are visited.
   - [Rw_prune_loop] rewrites the tail of the loop body likewise.
   Every other head rule yields a leaf or a subterm of the normal input. *)
and settle ctx tank (step : Thm.t) : M.t =
  match (Thm.rule step, abs_of step) with
  | Rules.Rw_bind_assoc _, (M.Bind (a, p, (M.Bind _ as inner)) as out) ->
    let mark = tank.script in
    let inner' = head_fix ctx tank ~branch:false inner in
    wrap tank 1 mark;
    if inner' == inner then out else M.Bind (a, p, inner')
  | (Rules.Rw_inline (M.Bind (_, _, b), [ 0 ]) | Rules.Rw_gets_bind (_, _, b)), m ->
    children ctx tank b m
  | Rules.Rw_prune_loop (_, ip, c, body, init, qp, k), m ->
    children ctx tank (M.Bind (M.While (ip, c, body, init), qp, k)) m
  | _, out -> out

let pass ctx tank m =
  tank.script <- [];
  ignore (sweep ctx tank fresh m);
  close ctx m tank.script

(* One round's sweep.  A sweep that defers every return-bind it would
   inline, then one [Rw_inline] step for all of them, one unit of fuel
   per binding, then a sweep of what that step rebuilt.  When the tank
   holds fewer units than there are bindings, a second sweep inlines them
   one head step at a time instead. *)
let sweep_inlining ctx tank old m : M.t =
  tank.defer <- true;
  tank.deferred <- false;
  let cur = sweep ctx tank old m in
  tank.defer <- false;
  if not tank.deferred then cur
  else
    match inline_plan cur with
    | [], _ -> cur
    | ps, _ when List.length ps > tank.left -> sweep ctx tank fresh cur
    | ps, shadow ->
      tank.left <- tank.left - List.length ps;
      let step = Thm.by ctx (Rules.Rw_inline (cur, ps)) [] in
      push tank step;
      sweep ctx tank shadow (abs_of step)

(* Does simp change [m]?  The subterms [m] shares with [old] are simp
   normal, and the walk stops at the first change it finds. *)
let rec simp_changes s old m =
  m != old
  && (Rules.msimp_head s m != m
     ||
     match m with
     | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) ->
       simp_changes s (first old) a || simp_changes s (second old) b
     | M.While (_, _, body, _) -> simp_changes s (first old) body
     | _ -> false)

(* Normalise to a global fixed point, with the expression simplifier and
   guard discharge run between sweeps, bounded by a pass limit and the
   fuel budget.  [None]: the result is structurally [m].

   Each round simplifies, discharges and sweeps.  [Rw_simp] is minted
   only when simp changes the term, which the engine learns from the
   kernel's own node step ([Rules.msimp_head]).  Later rounds walk only
   what the round before rebuilt:
   - the simplifier is idempotent, so the subterms a round's input
     shares with the previous round's simplified term are simp normal;
   - a round's sweep leaves a fixed point of [pass], so the next sweep
     skips the subterms the round's simp and discharge left alone.
   Discharge, whose facts flow from anywhere above, is run on the whole
   term, unless it has no guard ([M.has_guard]); the engine learns
   whether it changes the term from the kernel's own [discharge_guards],
   and mints [Rw_discharge] only when it does.  A later round sweeps
   only when simp or discharge changed the term: the round that finds
   them idle ends the loop without a sweep.  Stopping at the pass limit
   with work left counts as an exhaustion, like running out of fuel.  The
   whole call's script becomes one [Eq_congr] step over [m]. *)
let normalize ?(max_passes = 12) (ctx : Rules.ctx) (m : M.t) : Thm.t option =
  let tank = tank !fuel in
  let truncated = ref false in
  let s = Ac_kernel.Esimp.simp ctx.Rules.lenv in
  let whole rule cur =
    let step = Thm.by ctx (rule cur) [] in
    push tank step;
    abs_of step
  in
  let simp ~normal cur =
    if simp_changes s normal cur then whole (fun t -> Rules.Rw_simp t) cur else cur
  in
  let discharge cur =
    if M.has_guard cur && not (M.equal (Rules.discharge_guards ctx.Rules.lenv cur) cur) then
      whole (fun t -> Rules.Rw_discharge t) cur
    else cur
  in
  (* [normal]: the previous round's simplified term, [fresh] in the
     first.  [tank.script] holds the steps of the rounds kept so far. *)
  let rec go n ~normal cur =
    if tank.left <= 0 then cur
    else begin
      let kept = tank.script in
      let simped = simp ~normal cur in
      let mid = discharge simped in
      if n > 0 && tank.script == kept then cur
      else if n >= max_passes then begin
        truncated := true;
        mid
      end
      else
        let out = sweep_inlining ctx tank (if n = 0 then fresh else cur) mid in
        if tank.script == kept || M.equal out cur then begin
          tank.script <- kept;
          cur
        end
        else go (n + 1) ~normal:simped out
    end
  in
  let final = go 0 ~normal:fresh m in
  if tank.left <= 0 || !truncated then Atomic.incr exhaustions;
  if M.equal final m then None else close ctx m tank.script
