module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* The certified rewrite engine.

   Applies the kernel's equivalence rules bottom-up to a fixed point,
   composing the steps with transitivity and congruence, so the result is a
   single [Equiv (simplified, original)] theorem, or [None] when nothing
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
    | M.Bind ((M.Return e as a), p, b) -> [ Rules.Rw_return_bind (a, p, b) ]
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
    | M.Bind (M.While ((M.Ptuple ips as ip), c, body, init), (M.Ptuple _ as qp), k) ->
      List.mapi (fun i _ -> Rules.Rw_prune_loop (i, ip, c, body, init, qp, k)) ips
    | _ -> []
  in
  let other =
    match m with
    | M.Gets e -> [ Rules.Rw_gets_pure e ]
    | M.Guard (k, E.Const (Ac_lang.Value.Vbool true)) -> [ Rules.Rw_guard_true k ]
    | M.Try (a, p, h) -> [ Rules.Rw_try_nothrow (a, p, h) ]
    | _ -> []
  in
  cond_rules @ bind_rules @ tail_rules @ prune_rules @ assoc_rules @ other

(* Inline only cheap expressions to avoid size blow-up (standard
   let-inlining heuristic); the kernel rule itself is indifferent. *)
let cheap e =
  match e with
  | E.Var _ | E.Const _ | E.Global _ | E.Tuple _ -> true
  | _ -> E.size e <= 8

let want_head_rewrite (m : M.t) =
  match m with
  | M.Bind (M.Return e, _, _) when not (cheap e) -> false
  | M.Bind (M.Gets e, M.Pvar (x, _), b) when not (cheap e) ->
    (* still inline single-use bindings *)
    let uses = ref 0 in
    M.iter_exprs
      (fun expr ->
        List.iter (fun v -> if String.equal v x then incr uses) (E.free_vars expr))
      b;
    !uses <= 1
  | _ -> true

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

let rec try_head (ctx : Rules.ctx) (m : M.t) : Thm.t option =
  if not (want_head_rewrite m) then None
  else
    List.fold_left
      (fun acc rule -> match acc with Some _ -> acc | None -> Thm.by_opt ctx rule [])
      None (head_rules m)

(* Steps are identity-free: [None] stands for [Equiv (m, m)] on a term the
   step left alone, and is never minted.  [chain newer older] composes a
   step taken after [older]; [chain_onto] does so onto a theorem a caller of
   [normalize] already holds. *)
let chain ctx (newer : Thm.t option) (older : Thm.t option) : Thm.t option =
  match (newer, older) with
  | None, t | t, None -> t
  | Some n, Some o -> Some (trans ctx n o)

let chain_onto ctx (newer : Thm.t option) (older : Thm.t) : Thm.t =
  match newer with Some n -> trans ctx n older | None -> older

(* One bottom-up pass: normalise children via congruence, then rewrite the
   head to a fixed point.  [None]: nothing in [m] changed and nothing was
   minted for it.  A congruence rule is minted only over a changed child;
   its unchanged sibling gets the one [Eq_refl] the rule needs.  [tank] is
   the remaining fuel for this [normalize] call. *)
let rec pass (ctx : Rules.ctx) (tank : int ref) (m : M.t) : Thm.t option =
  let refl x = function Some t -> t | None -> Thm.by ctx (Rules.Eq_refl x) [] in
  (* Right child first: where an exhausted tank stops rewriting depends on
     the order fuel is spent in, and outputs under a small budget must not
     change. *)
  let congr2 rule a b =
    let tb = pass ctx tank b in
    match (pass ctx tank a, tb) with
    | None, None -> None
    | ta, tb -> Some (Thm.by ctx rule [ refl a ta; refl b tb ])
  in
  let congr =
    match m with
    | M.Bind (a, p, b) -> congr2 (Rules.Eq_bind p) a b
    | M.Try (a, p, b) -> congr2 (Rules.Eq_try p) a b
    | M.Cond (c, a, b) -> congr2 (Rules.Eq_cond c) a b
    | M.While (p, c, body, init) ->
      Option.map (fun t -> Thm.by ctx (Rules.Eq_while (p, c, init)) [ t ]) (pass ctx tank body)
    | _ -> None
  in
  head_fix ctx tank (match congr with Some t -> abs_of t | None -> m) congr

(* [thm] relates [cur] to the pass's input ([None]: [cur] is the input). *)
and head_fix ctx (tank : int ref) (cur : M.t) (thm : Thm.t option) : Thm.t option =
  if !tank <= 0 then thm
  else begin
    match try_head ctx cur with
    | Some step ->
      decr tank;
      head_fix ctx tank (abs_of step) (chain ctx (Some step) thm)
    | None -> thm
  end

(* Normalise to a global fixed point (with the expression simplifier run
   between passes), bounded for safety by a pass limit and the fuel
   budget.  [None]: the result is structurally [m].  [Rw_simp] and
   [Rw_discharge] are minted every round, since only the kernel computes
   their result, but chained only when they changed the term; a round
   whose steps leave the term structurally as it was ends the loop and is
   dropped. *)
let normalize ?(max_passes = 12) (ctx : Rules.ctx) (m : M.t) : Thm.t option =
  let tank = ref !fuel in
  let whole rule (cur, thm) =
    let step = Thm.by ctx (rule cur) [] in
    if M.equal (abs_of step) cur then (cur, thm) else (abs_of step, chain ctx (Some step) thm)
  in
  let rec go n cur thm =
    if n >= max_passes || !tank <= 0 then thm
    else begin
      let mid, round =
        whole (fun t -> Rules.Rw_discharge t) (whole (fun t -> Rules.Rw_simp t) (cur, None))
      in
      match chain ctx (pass ctx tank mid) round with
      | Some r when not (M.equal (abs_of r) cur) ->
        go (n + 1) (abs_of r) (chain ctx (Some r) thm)
      | _ -> thm
    end
  in
  let out =
    match go 0 m None with Some t when M.equal (abs_of t) m -> None | out -> out
  in
  if !tank <= 0 then Atomic.incr exhaustions;
  out
