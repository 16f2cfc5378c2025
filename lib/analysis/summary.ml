module A = Ac_kernel.Absdom
module M = Ac_monad.M
module Layout = Ac_lang.Layout
module D = Domains

(* Interprocedural summary inference (the tentpole's untrusted half).

   Bottom-up over the call graph's SCC condensation ([Callgraph.sccs]
   emits callees first): each SCC gets an optimistic ascending fixpoint —
   claims start at ⊥ ("no outcome yet"), each round re-walks every member
   under the current claim table, joins for a few rounds then widens, and
   stops only after a full round in which no claim moved, so the
   committed table is self-consistent: walking any member under the
   final table yields outcomes within its claims.  That is exactly the
   property [Absdom.check_sums] verifies (by one walk per summary), so
   whatever this module emits either passes the kernel or is discarded
   wholesale — a bug here costs precision, never soundness.

   Around the bottom-up pass sits a bounded context-refinement loop:
   call sites report the abstract domains of their actuals (the
   [on_call] hook), and a callee observed under strictly-more-precise
   arguments gains an extra summary context (most specific first, capped
   at [!contexts] beyond the base ⊤-arguments context).  After any
   addition the table is recomputed bottom-up, so caller claims are
   always derived from the final callee claims.  The recompute is
   incremental: it re-walks an SCC only when one of its members gained a
   context or a callee's entry moved in this pass, and reuses every other
   SCC's previous result, which a re-walk would reproduce exactly (a
   walk is a deterministic function of the members' bodies and contexts
   and the callees' entries).

   Budgets: SCC rounds are capped by the shared [!Domains.budget]
   (non-convergence drops that SCC's summaries — callers havoc across
   those calls, the intraprocedural result); refinement rounds are
   capped by [!rounds].  Either cap bumps [exhaustions], which the
   driver folds into `budget_hits`.  Inference never fails. *)

(* Outer context-refinement rounds; each round is one bottom-up pass,
   so this bounds the passes over the call graph. *)
let rounds = ref 4

(* Refined contexts per callee, beyond the base ⊤-arguments context. *)
let contexts = ref 3

(* Summary-budget exhaustions (SCC non-convergence, refinement cut
   short).  Reset by the driver per run, reported as budget hits. *)
let exhaustions = Atomic.make 0

(* SCC walks (one SCC's fixpoint, in one refinement round) made by the
   latest [compute]. *)
let scc_walks = Atomic.make 0

(* Per-function inference statistics, for `acc stats --profile`. *)
type fstat = { fs_contexts : int; fs_size : int }

let base_args (f : M.func) : A.vdom list =
  List.map (fun (_, t) -> A.type_top t) f.M.params

(* Same binding the kernel's [check_sums] performs, so claims verify. *)
let bind_args (f : M.func) (args : A.vdom list) : A.aenv =
  List.fold_left2 (fun e (x, _) d -> A.set_var e x d) A.env_top f.M.params args

(* One walk of [f] from [args] under [table]: the claim it supports.
   Loop invariants are harvested from the solver so the kernel can
   replay them with a single inductiveness check each. *)
let claim_of lenv (table : A.sums) ~on_call (f : M.func) (args : A.vdom list) :
    A.summary =
  let tbl = Hashtbl.create 8 in
  let sv = D.fixpoint_solver ~sums:table ~on_call tbl in
  let _, out = A.walk lenv sv 0 (bind_args f args) f.M.body in
  let invs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    A.s_args = args;
    s_ret = (match out.A.onorm with Some (_, rv) -> rv | None -> A.Dtop);
    s_noret = out.A.onorm = None;
    s_throws = out.A.oexn <> None;
    s_invs = invs;
  }

exception Scc_budget

(* What one SCC's walks produced in a recompute, kept so that a later
   recompute can reuse it when none of the walks' inputs moved: the SCC's
   table entries ([None]: out of budget, dropped), its call-site
   observations (newest first) and the loop-budget exhaustions its walks
   counted. *)
type scc_result = {
  entries : (string * A.summary list) list option;
  observed : (string * A.vdom list) list;
  loop_hits : int;
}

(* The part of a member's entry a walk reads at its call sites: every
   field of every context but the loop invariants. *)
let call_view (r : scc_result) (g : string) =
  Option.map
    (fun es ->
      List.map
        (fun s -> (s.A.s_args, s.A.s_ret, s.A.s_noret, s.A.s_throws))
        (List.assoc g es))
    r.entries

let compute (lenv : Layout.env) (fs : M.func list) :
    A.sums * (string * fstat) list =
  Atomic.set scc_walks 0;
  let cg = Callgraph.of_funcs fs in
  let fmap = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace fmap f.M.name f) (List.rev fs);
  (* Each SCC with whether it is cyclic, its members and the callees its
     walks read the table at, in [Callgraph.sccs] order. *)
  let sccs =
    Callgraph.sccs cg
    |> List.filter_map (fun scc ->
           match List.filter_map (Hashtbl.find_opt fmap) scc with
           | [] -> None
           | members ->
             Some
               ( Callgraph.scc_cyclic cg scc,
                 members,
                 List.concat_map (fun f -> Callgraph.successors cg f.M.name) members ))
    |> Array.of_list
  in
  (* Contexts per function, most specific first; grows monotonically
     across refinement rounds. *)
  let ctxs : (string, A.vdom list list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace ctxs f.M.name [ base_args f ]) fs;
  let walk_scc committed cyclic members : scc_result =
    Atomic.incr scc_walks;
    let observed = ref [] in
    let on_call g argds = observed := (g, argds) :: !observed in
    let hits_before = Atomic.get D.exhaustions in
    let claims =
      List.map
        (fun f -> (f, List.map (fun c -> ref (D.sum_bottom c)) (Hashtbl.find ctxs f.M.name)))
        members
    in
    let table_now () =
      List.map (fun (f, rs) -> (f.M.name, List.map (fun r -> !r) rs)) claims @ committed
    in
    let step round =
      let changed = ref false in
      List.iter
        (fun (f, rs) ->
          List.iter
            (fun r ->
              let c = claim_of lenv (table_now ()) ~on_call f !r.A.s_args in
              if D.sum_leq c !r then
                (* Outcome stable: refresh the invariants so the
                   final round leaves them consistent with the
                   final table (invariants of other entries never
                   influence a walk, only outcomes do). *)
                r := { !r with A.s_invs = c.A.s_invs }
              else begin
                changed := true;
                r := if round >= D.widen_after then D.sum_widen !r c else D.sum_join !r c
              end)
            rs)
        claims;
      !changed
    in
    let entries =
      match
        if cyclic then begin
          let round = ref 0 in
          while step !round do
            incr round;
            if !round > !D.budget.max_rounds then raise Scc_budget
          done
        end
        else
          (* Acyclic: the claim cannot feed back into its own walk,
             so one pass is already the fixpoint. *)
          List.iter
            (fun (f, rs) ->
              List.iter (fun r -> r := claim_of lenv (table_now ()) ~on_call f !r.A.s_args) rs)
            claims
      with
      | () -> Some (List.map (fun (f, rs) -> (f.M.name, List.map (fun r -> !r) rs)) claims)
      | exception Scc_budget -> None
    in
    { entries; observed = !observed; loop_hits = Atomic.get D.exhaustions - hits_before }
  in
  let last : scc_result option array = Array.make (Array.length sccs) None in
  (* One bottom-up pass.  An SCC's walks read only its members' bodies and
     contexts and its callees' committed entries, so after the first pass
     an SCC is re-walked only when a member is in [grown] (it gained a
     context in [refine]) or a callee's entry moved earlier in this pass;
     otherwise its previous result is reused as is, exhaustions included.
     Returns the table and the call-site argument domains observed, newest
     first (compute is sequential, so the order is deterministic and
     independent of [--jobs]). *)
  let recompute (grown : (string, unit) Hashtbl.t) : A.sums * (string * A.vdom list) list =
    let moved = Hashtbl.create 16 in
    let calls = ref [] in
    let committed = ref [] in
    Array.iteri
      (fun i (cyclic, members, callees) ->
        let r =
          match last.(i) with
          | Some r
            when not
                   (List.exists (fun f -> Hashtbl.mem grown f.M.name) members
                   || List.exists (Hashtbl.mem moved) callees) ->
            ignore (Atomic.fetch_and_add D.exhaustions r.loop_hits);
            r
          | prev ->
            let r = walk_scc !committed cyclic members in
            Option.iter
              (fun p ->
                List.iter
                  (fun f ->
                    if call_view p f.M.name <> call_view r f.M.name then
                      Hashtbl.replace moved f.M.name ())
                  members)
              prev;
            last.(i) <- Some r;
            r
        in
        calls := r.observed @ !calls;
        match r.entries with
        | Some es -> committed := es @ !committed
        | None ->
          (* Non-convergence: drop this SCC's summaries — callers
             havoc across these calls (the intraprocedural result). *)
          Atomic.incr exhaustions)
      sccs;
    (!committed, !calls)
  in
  (* Add summary contexts for observed call-site argument domains that
     are strictly more precise than every context the callee already
     has.  Returns the functions that gained one. *)
  let refine calls : (string, unit) Hashtbl.t =
    let grown = Hashtbl.create 16 in
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (g, argds) ->
        match Hashtbl.find_opt fmap g with
        | Some f
          when List.length argds = List.length f.M.params
               && not (Hashtbl.mem seen (g, argds)) ->
          Hashtbl.replace seen (g, argds) ();
          let existing = Hashtbl.find ctxs g in
          if
            List.length existing < 1 + !contexts
            && (not (List.mem argds existing))
            && List.for_all2 A.vdom_leq argds (base_args f)
          then begin
            Hashtbl.replace ctxs g (argds :: existing);
            Hashtbl.replace grown g ()
          end
        | _ -> ())
      (List.rev calls);
    grown
  in
  let rec outer round grown =
    (* One span per refinement round, the unit of fixpoint work worth
       seeing on a trace. *)
    let table, calls =
      if Ac_obs.Obs.enabled () then
        Ac_obs.Obs.span ~cat:"analysis"
          ~args:[ ("round", string_of_int round) ]
          "summary.round"
          (fun () -> recompute grown)
      else recompute grown
    in
    let grown = refine calls in
    if Hashtbl.length grown = 0 then table
    else if round >= !rounds then begin
      (* Out of refinement rounds while more contexts were wanted: record
         the degradation (the table itself stays valid and checkable). *)
      Atomic.incr exhaustions;
      table
    end
    else outer (round + 1) grown
  in
  let table = outer 1 (Hashtbl.create 1) in
  let stats =
    List.map
      (fun (g, ss) ->
        ( g,
          {
            fs_contexts = List.length ss;
            fs_size = List.fold_left (fun a s -> a + D.summary_size s) 0 ss;
          } ))
      table
  in
  (table, stats)
