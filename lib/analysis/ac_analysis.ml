module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Layout = Ac_lang.Layout
module B = Ac_bignum
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Ast = Ac_cfront.Ast
module Tir = Ac_cfront.Tir
module A = Ac_kernel.Absdom
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* The untrusted half of the guard-discharge pass (ISSUE: `ac_analysis`).

   [Absdom] (in the kernel) owns the domains, transfer functions and the
   certificate-checking walk; this library owns everything that needs
   heuristics and therefore must stay out of the trusted base:

   - the widening fixpoint that solves for loop invariants,
   - packaging the solved invariants as a certificate and pushing it
     through the kernel as [Rules.Rule_guard_true],
   - `acc lint`: reading the fixpoint's final walk to harvest *refuted*
     guards (definitely-failing UB checks) and definite-initialisation
     findings, mapped back to source positions recorded by the C
     front-end.

   A bug here can only lose precision or produce a certificate the kernel
   rejects — it cannot produce an unsound theorem. *)

(* ------------------------------------------------------------------ *)
(* Re-exports.  The budget and fixpoint-solver machinery moved to
   [Domains] so the interprocedural [Summary] engine can share it
   without a module cycle; these aliases keep every existing call site
   ([Driver], bench, tests) compiling unchanged.  [Callgraph] and
   [Summary] are the interprocedural subsystem (this PR's tentpole). *)

module Callgraph = Callgraph
module Domains = Domains
module Summary = Summary

type budget = Domains.budget = {
  max_rounds : int;  (* widen/join rounds per loop *)
  max_steps : int;  (* iterate calls per analysed function *)
  deadline_s : float option;  (* wall clock per analysed function *)
}

let default_budget = Domains.default_budget
let budget = Domains.budget
let exhaustions = Domains.exhaustions
let set_fault_hook = Domains.set_fault_hook
let fixpoint_solver = Domains.fixpoint_solver

(* ------------------------------------------------------------------ *)
(* Certificates and kernel-checked discharge. *)

(* Discharge statistics for one body: how many guards remain. *)
let rec guard_count (m : M.t) : int =
  match m with
  | M.Guard _ -> 1
  | M.Return _ | M.Gets _ | M.Modify _ | M.Fail | M.Throw _ | M.Unknown _ | M.Call _
  | M.Exec_concrete _ ->
    0
  | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) -> guard_count a + guard_count b
  | M.While (_, _, body, _) -> guard_count body

(* Fixpoints [solve] ran since the driver last reset the count; a
   discharge that takes a stored hint runs none.  Counted like
   [Summary.scc_walks]. *)
let solves = Atomic.make 0

(* Solve [m]'s loop invariants by widening fixpoint and package them as a
   certificate, together with the body the solver's final walk produced.
   Each table entry is the invariant that final walk used (a nested
   loop's entry is overwritten on every outer iteration, last by the
   final one), and the kernel re-walks [m] under exactly those
   invariants with the same transfer functions, so whenever it accepts
   the certificate its result is this body.  [spent] turns true when the
   solver runs out of budget. *)
let solve ?spent ?(sums = []) (lenv : Layout.env) (m : M.t) : A.cert * M.t =
  Atomic.incr solves;
  let tbl = Hashtbl.create 8 in
  let sv = fixpoint_solver ~sums ?spent tbl in
  let m', (_ : A.aout) = A.walk lenv sv 0 A.env_top m in
  let invs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ({ A.c_invs = invs; c_sums = sums }, m')

let infer_cert ?sums (lenv : Layout.env) (m : M.t) : A.cert = fst (solve ?sums lenv m)

(* What one discharge round's search found, as the proof store keeps it:
   [Unchanged] when the round minted nothing, or the loop invariants of
   the certificate the kernel accepted and the number of guards the
   discharged body kept.  The certificate's summary table is left out: a
   hint is offered only under the summary slice it was solved under,
   which the caller supplies again. *)
type hint = Unchanged | Discharged of (int * A.aenv) list * int

(* A discharge round: the rewritten function and its theorem ([None]:
   nothing changed), the hint to keep ([None]: nothing worth keeping —
   the body has no guard, or the solver ran out of budget, which depends
   on load), and whether a supplied hint failed to hold. *)
type discharge = {
  d_result : (M.func * Thm.t) option;
  d_hint : hint option;
  d_refused : bool;
}

(* The kernel's verdict on [cert] for [f]: [None] when it refuses the
   certificate or the body comes back unchanged. *)
let mint (ctx : Rules.ctx) (f : M.func) (cert : A.cert) : (M.func * Thm.t) option =
  match Thm.by_opt ctx (Rules.Rule_guard_true (f.M.body, cert)) [] with
  | None -> None
  | Some thm -> (
    match Thm.concl thm with
    | J.Equiv (m', m) when not (M.equal m' m) -> Some ({ f with M.body = m' }, thm)
    | _ -> None)

(* Run the analysis on one function and, if any guard is provable, push the
   certificate through the kernel.  The result is the rewritten function
   and the [Equiv (new_body, old_body)] theorem, or [None] when nothing
   changed (or the kernel rejected the certificate — which only costs
   precision).  [sums] is the (restricted) summary table the certificate
   embeds; the kernel re-verifies it against [ctx.fbodies] before
   trusting any of it.

   A stored [hint] stands in for the fixpoint: [Unchanged] mints
   nothing, and invariants go to the kernel as the certificate.  It is
   untrusted: when the kernel refuses it, or the body keeps another
   number of guards than it says, the round solves after all and reports
   the refusal; a wrong [Unchanged] could only lose a discharge.

   Identity-free: when the solver's own walk leaves the body as it was
   ([A.walk] returns its input physically then), the kernel's walk would
   conclude [Equiv (m, m)], so nothing is minted.  The prediction is
   untrusted: a wrong "unchanged" could only lose a discharge, never
   admit a theorem, and a body that changes still takes the kernel's
   result.  A body without a guard is not analysed at all: the walk
   rewrites only guards, so it would come back unchanged. *)
let discharge ?hint (ctx : Rules.ctx) ?(sums = []) (f : M.func) : discharge =
  if not (M.has_guard f.M.body) then { d_result = None; d_hint = None; d_refused = false }
  else
    let held =
      match hint with
      | None -> None
      | Some Unchanged -> Some None
      | Some (Discharged (invs, left)) -> (
        match mint ctx f { A.c_invs = invs; c_sums = sums } with
        | Some (f', _) as r when guard_count f'.M.body = left -> Some r
        | _ -> None
        | exception _ -> None)
    in
    match held with
    | Some r -> { d_result = r; d_hint = hint; d_refused = false }
    | None ->
      let spent = ref false in
      let cert, predicted = solve ~spent ~sums ctx.Rules.lenv f.M.body in
      let r = if predicted == f.M.body then None else mint ctx f cert in
      {
        d_result = r;
        d_hint =
          (if !spent then None
           else
             Some
               (match r with
               | None -> Unchanged
               | Some (f', _) -> Discharged (cert.A.c_invs, guard_count f'.M.body)));
        d_refused = Option.is_some hint;
      }

let discharge_func (ctx : Rules.ctx) ?sums (f : M.func) : (M.func * Thm.t) option =
  (discharge ctx ?sums f).d_result

(* How many guards of [m] the analysis proves true under [sums] — a pure
   analysis count, no kernel involved; the driver runs it with and
   without the summary table to attribute discharges intra vs inter for
   `acc stats --profile`.  The fixpoint's final walk reports each guard
   once. *)
let count_provable (lenv : Layout.env) ~(sums : A.sums) (m : M.t) : int =
  let n = ref 0 in
  let on_guard _ _ v = if v = Some true then incr n in
  let (_ : M.t * A.aout) =
    A.walk lenv (fixpoint_solver ~on_guard ~sums (Hashtbl.create 8)) 0 A.env_top m
  in
  !n

(* ------------------------------------------------------------------ *)
(* Lint: refuted guards and definite-initialisation findings. *)

type finding = {
  lf_func : string;
  lf_kind : Ir.guard_kind option; (* None: definite-initialisation finding *)
  lf_pos : Ast.pos option;
  lf_msg : string;
}

let guard_message (k : Ir.guard_kind) =
  match k with
  | Ir.Div_by_zero -> "division by zero"
  | Ir.Signed_overflow -> "signed overflow"
  | Ir.Shift_bounds -> "shift amount out of bounds"
  | Ir.Ptr_valid -> "invalid (null) pointer dereference"
  | Ir.Array_bounds -> "array index out of bounds"
  | Ir.Dont_reach -> "control reaches end of non-void function"
  | Ir.Unsigned_overflow -> "unsigned overflow"

(* Map the [n]th L2-level guard of kind [k] back to a source position using
   the positions the front-end recorded per emitted guard.  Exact match on
   the condition first; the L2 rewrites usually change the expression, so
   fall back to pairing occurrences of the same kind in order — valid when
   the pipeline kept them 1:1, refused otherwise. *)
let position_of (gsrc : (Ir.guard_kind * E.t * Ast.pos) list)
    (occurrences : (Ir.guard_kind * E.t) list) (k : Ir.guard_kind) (c : E.t) :
    Ast.pos option =
  let exact =
    List.filter_map
      (fun (k', c', p) -> if k = k' && E.equal c c' then Some p else None)
      gsrc
  in
  match exact with
  | [ p ] -> Some p
  | _ ->
    let of_kind l = List.filter (fun (k', _) -> k = k') l in
    let src_k = List.filter (fun (k', _, _) -> k = k') gsrc in
    let occ_k = of_kind occurrences in
    if List.length src_k = List.length occ_k then begin
      let rec nth_occ i = function
        | [] -> None
        | (_, c') :: rest ->
          if E.equal c' c then Some i else nth_occ (i + 1) rest
      in
      match nth_occ 0 occ_k with
      | Some i -> ( match List.nth_opt src_k i with Some (_, _, p) -> Some p | None -> None)
      | None -> None
    end
    else None

(* Definite initialisation, on the typed front-end IR (which still knows
   which locals were declared without an initialiser — after L1, locals are
   default-initialised, so the bug is invisible downstream).  A classic
   definite-assignment walk: a read of a declared local that is not
   definitely assigned on every path to it is reported, with the position
   of the reading statement. *)
module SSet = Set.Make (String)

let rec texpr_reads (e : Tir.texpr) : SSet.t =
  match e.Tir.te with
  | Tir.Tconst _ | Tir.Tnull _ | Tir.Tglobal _ -> SSet.empty
  | Tir.Tvar x -> SSet.singleton x
  | Tir.Tunop (_, a) | Tir.Tcast (_, a) | Tir.Ttobool a | Tir.Tofbool a -> texpr_reads a
  | Tir.Tbinop (_, a, b) | Tir.Tptradd (a, b) -> SSet.union (texpr_reads a) (texpr_reads b)
  | Tir.Tcond (c, a, b) ->
    SSet.union (texpr_reads c) (SSet.union (texpr_reads a) (texpr_reads b))
  | Tir.Tload lv | Tir.Taddr lv -> tlval_reads lv

(* Reads performed when evaluating the lvalue *as a value source* (for
   [Tload]): a register root counts as a read of that variable. *)
and tlval_reads (lv : Tir.tlval) : SSet.t =
  match lv with
  | Tir.Lvar (x, _) -> SSet.singleton x
  | Tir.Lglobal _ -> SSet.empty
  | Tir.Lmem (p, _) -> texpr_reads p
  | Tir.Lfield (base, _, _, _) -> tlval_reads base

(* Reads performed when *storing to* the lvalue: the address computation
   only — assigning to x (or a field of register x) is a write, not a read. *)
let rec tlval_addr_reads (lv : Tir.tlval) : SSet.t =
  match lv with
  | Tir.Lvar _ | Tir.Lglobal _ -> SSet.empty
  | Tir.Lmem (p, _) -> texpr_reads p
  | Tir.Lfield (base, _, _, _) -> tlval_addr_reads base

let rec written_var (lv : Tir.tlval) : string option =
  match lv with
  | Tir.Lvar (x, _) -> Some x
  | Tir.Lfield (base, _, _, _) -> written_var base
  | Tir.Lglobal _ | Tir.Lmem _ -> None

let uninit_findings (tf : Tir.tfunc) : finding list =
  let declared = SSet.of_list (List.map fst tf.Tir.tf_locals) in
  let findings = ref [] in
  let reported = ref SSet.empty in
  let check (pos : Ast.pos) defined reads =
    SSet.iter
      (fun x ->
        if SSet.mem x declared && (not (SSet.mem x defined)) && not (SSet.mem x !reported)
        then begin
          reported := SSet.add x !reported;
          findings :=
            {
              lf_func = tf.Tir.tf_name;
              lf_kind = None;
              lf_pos = Some pos;
              lf_msg = Printf.sprintf "'%s' may be used uninitialised" x;
            }
            :: !findings
        end)
      reads
  in
  let rec go defined (s : Tir.tstmt) : SSet.t =
    let pos = s.Tir.tsp in
    match s.Tir.ts with
    | Tir.Tskip | Tir.Tbreak | Tir.Tcontinue -> defined
    | Tir.Tassign (lv, rhs) -> (
      check pos defined (texpr_reads rhs);
      check pos defined (tlval_addr_reads lv);
      match written_var lv with Some x -> SSet.add x defined | None -> defined)
    | Tir.Tcall (dest, _, args) -> (
      List.iter (fun a -> check pos defined (texpr_reads a)) args;
      match Option.map written_var dest with
      | Some (Some x) -> SSet.add x defined
      | _ -> defined)
    | Tir.Tseq (a, b) -> go (go defined a) b
    | Tir.Tif (c, a, b) ->
      check pos defined (texpr_reads c);
      SSet.inter (go defined a) (go defined b)
    | Tir.Twhile (c, body) ->
      check pos defined (texpr_reads c);
      let (_ : SSet.t) = go defined body in
      defined
    | Tir.Treturn None -> defined
    | Tir.Treturn (Some e) ->
      check pos defined (texpr_reads e);
      defined
  in
  let (_ : SSet.t) = go (SSet.of_list (List.map fst tf.Tir.tf_params)) tf.Tir.tf_body in
  List.rev !findings

(* Survey one function: classify every guard occurrence by the verdict
   the fixpoint's final walk gives it (spurious refutations against
   half-converged loop environments never surface, because the solver
   mutes the walks of its widening rounds).  Refuted guards are
   definitely-failing UB checks; residual guards are merely unproved.
   [sums] lets the classification use interprocedural facts. *)
type survey = { sv_refuted : finding list; sv_residual : finding list }

let survey_func (lenv : Layout.env) ?(simpl : Ir.func option) ?(sums = []) (f : M.func) :
    survey =
  let occs = ref [] in
  let refuted = ref [] in
  let residual = ref [] in
  let seen l k c = List.exists (fun (k', c') -> k = k' && E.equal c c') l in
  let on_guard k c v =
    occs := (k, c) :: !occs;
    match v with
    | Some false -> if not (seen !refuted k c) then refuted := (k, c) :: !refuted
    | None -> if not (seen !residual k c) then residual := (k, c) :: !residual
    | Some true -> ()
  in
  let (_ : M.t * A.aout) =
    A.walk lenv (fixpoint_solver ~on_guard ~sums (Hashtbl.create 8)) 0 A.env_top f.M.body
  in
  let occurrences = List.rev !occs in
  let gsrc = match simpl with Some sf -> sf.Ir.gsrc | None -> [] in
  let findings_of msg l =
    List.rev_map
      (fun (k, c) ->
        {
          lf_func = f.M.name;
          lf_kind = Some k;
          lf_pos = position_of gsrc occurrences k c;
          lf_msg = msg k;
        })
      l
  in
  {
    sv_refuted = findings_of guard_message !refuted;
    sv_residual =
      findings_of (fun k -> "unproved guard: " ^ guard_message k) !residual;
  }

(* Lint one function: the refuted guards only. *)
let lint_func (lenv : Layout.env) ?(simpl : Ir.func option) ?(sums = []) (f : M.func) :
    finding list =
  (survey_func lenv ?simpl ~sums f).sv_refuted

(* ------------------------------------------------------------------ *)
(* Deterministic finding order. *)

let kind_rank (k : Ir.guard_kind option) : int =
  match k with
  | None -> -1 (* definite-initialisation findings first among ties *)
  | Some Ir.Div_by_zero -> 0
  | Some Ir.Signed_overflow -> 1
  | Some Ir.Shift_bounds -> 2
  | Some Ir.Ptr_valid -> 3
  | Some Ir.Array_bounds -> 4
  | Some Ir.Dont_reach -> 5
  | Some Ir.Unsigned_overflow -> 6

(* Sort findings by (line, col, guard kind, function, message) — findings
   without a source position last — and drop exact duplicates (budget
   degradation can re-lint a function and repeat its findings).  Callers
   group by file, so this fixes the order within each file regardless of
   [--jobs] scheduling. *)
let sort_findings (fs : finding list) : finding list =
  let key f =
    let l, c =
      match f.lf_pos with
      | Some p -> (p.Ast.line, p.Ast.col)
      | None -> (max_int, max_int)
    in
    (l, c, kind_rank f.lf_kind, f.lf_func, f.lf_msg)
  in
  List.sort_uniq (fun a b -> compare (key a) (key b)) fs
