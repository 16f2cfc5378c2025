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
   and the callees' entries).  With a proof store the same holds across
   runs: [infer ~prior] takes walks recorded with the store's hits in
   place of walks with exactly the same inputs.

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
   latest [infer]; a recorded walk standing in for one does not count. *)
let scc_walks = Atomic.make 0

(* Per-function inference statistics ([stats]), for `acc stats
   --profile`. *)
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
   field of every context but the loop invariants ([None]: the SCC ran
   out of budget and has no entry). *)
type call_view = (A.vdom list * A.vdom * bool * bool) list option

let call_view (r : scc_result) (g : string) : call_view =
  Option.map
    (fun es ->
      List.map
        (fun s -> (s.A.s_args, s.A.s_ret, s.A.s_noret, s.A.s_throws))
        (List.assoc g es))
    r.entries

(* One SCC walk as the proof store keeps it: what it produced, and the
   call views of the callees outside the SCC that it read (successor
   order; [None]: the callee has no SCC in this run, so the table has no
   entry for it).  Its other inputs are the members' bodies and contexts.
   A store hit fixes a member's body, the layout and the budgets, and the
   contexts are the [s_args] of the entries the walk produced.  So a
   later run whose SCC members are all hits, under the same contexts and
   call views, would walk to exactly [w_result].  Only walks that
   counted no budget exhaustion are kept: the analysis deadline depends
   on load. *)
type walk = { w_calls : call_view option list; w_result : scc_result }

(* Tables of the values recorded walks hold, so that equal values are
   one physical value: marshalling an entry's walks then writes each
   distinct value once (most are the same few type tops, contexts and
   callee summaries, repeated across an SCC's rounds). *)
type shared = {
  vdoms : (A.vdom, A.vdom) Hashtbl.t;
  lists : (A.vdom list, A.vdom list) Hashtbl.t;
  envs : (A.aenv, A.aenv) Hashtbl.t;
  sums : (A.summary, A.summary) Hashtbl.t;
}

let shared () =
  { vdoms = Hashtbl.create 256; lists = Hashtbl.create 256; envs = Hashtbl.create 64;
    sums = Hashtbl.create 256 }

let intern tbl x =
  match Hashtbl.find_opt tbl x with
  | Some y -> y
  | None ->
    Hashtbl.add tbl x x;
    x

(* [w] with its values taken from [sh] where an equal one is there. *)
let share (sh : shared) (w : walk) : walk =
  let rec vd d = intern sh.vdoms (match d with A.Dtuple ds -> A.Dtuple (List.map vd ds) | d -> d) in
  let args ds = intern sh.lists (List.map vd ds) in
  let env (e : A.aenv) =
    intern sh.envs { A.avars = A.SMap.map vd e.A.avars; aglobs = A.SMap.map vd e.A.aglobs }
  in
  let summary (s : A.summary) =
    intern sh.sums
      { s with
        A.s_args = args s.A.s_args;
        s_ret = vd s.A.s_ret;
        s_invs = List.map (fun (k, e) -> (k, env e)) s.A.s_invs }
  in
  let r = w.w_result in
  {
    w_calls =
      List.map
        (Option.map
           (Option.map (List.map (fun (a, ret, nr, th) -> (args a, vd ret, nr, th)))))
        w.w_calls;
    w_result =
      { r with
        entries = Option.map (List.map (fun (g, ss) -> (g, List.map summary ss))) r.entries;
        observed = List.map (fun (g, ds) -> (g, args ds)) r.observed };
  }

(* [infer ?prior lenv fs] runs the fixpoint over [fs] and returns the
   table, the walks each function's SCC made in this run (for the store
   to save with the function's entry; none without [prior]) and the call
   graph of [fs], which the driver slices the table with.

   [prior f] is the walks recorded with [f]'s store entry ([None]: [f]
   has none).  An SCC whose members all have entries takes the result of
   a recorded walk with exactly the current inputs instead of walking;
   the rounds, the refinement and the walk order are unchanged, so the
   table and the exhaustion counts are a store-less run's. *)
let infer ?(prior : (string -> walk list option) option) (lenv : Layout.env)
    (fs : M.func list) : A.sums * (string -> walk list) * Callgraph.t =
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
  (* With a store: the tables this run's records share values through,
     each SCC's recorded walks (those of its first member's entry, when
     every member is a hit), the walks this run made, and each
     function's SCC. *)
  let sh = lazy (shared ()) in
  let recorded, made, scc_of =
    match prior with
    | None -> ([||], [||], Hashtbl.create 1)
    | Some prior ->
      let scc_of = Hashtbl.create 64 in
      Array.iteri
        (fun i (_, members, _) -> List.iter (fun f -> Hashtbl.replace scc_of f.M.name i) members)
        sccs;
      ( Array.map
          (fun (_, members, _) ->
            match List.map (fun f -> prior f.M.name) members with
            | Some ws :: rest when List.for_all Option.is_some rest -> ws
            | _ -> [])
          sccs,
        Array.make (Array.length sccs) [],
        scc_of )
  in
  (* SCC [i]'s walk under the current contexts and committed table.  With
     a store, a recorded walk with exactly these inputs stands in for it;
     a record must also name the SCC's members and count no exhaustion,
     so a damaged one is a lookup miss. *)
  let walk_or_recall i cyclic members callees committed =
    match prior with
    | None -> walk_scc committed cyclic members
    | Some _ -> (
      let w_calls =
        List.filter_map
          (fun g ->
            match Hashtbl.find_opt scc_of g with
            | Some j when j = i -> None
            | Some j -> Some (Option.map (fun r -> call_view r g) last.(j))
            | None -> Some None)
          callees
      in
      let fits w =
        w.w_result.loop_hits = 0
        && (match w.w_result.entries with
           | Some es ->
             List.compare_lengths es members = 0
             && List.for_all2
                  (fun (g, ss) f ->
                    let cs = Hashtbl.find ctxs f.M.name in
                    String.equal g f.M.name
                    && List.compare_lengths ss cs = 0
                    && List.for_all2 (fun s c -> s.A.s_args = c) ss cs)
                  es members
           | None -> false)
        && w.w_calls = w_calls
      in
      match List.find_opt fits recorded.(i) with
      | Some w -> w.w_result
      | None ->
        let r = walk_scc committed cyclic members in
        if r.loop_hits = 0 && Option.is_some r.entries then begin
          made.(i) <- share (Lazy.force sh) { w_calls; w_result = r } :: made.(i)
        end;
        r)
  in
  (* One bottom-up pass.  An SCC's walks read only its members' bodies and
     contexts and its callees' committed entries, so after the first pass
     an SCC is re-walked only when a member is in [grown] (it gained a
     context in [refine]) or a callee's entry moved earlier in this pass;
     otherwise its previous result is reused as is, exhaustions included.
     Returns the table and the call-site argument domains the SCCs walked
     (or recalled) in this pass observed, newest first (compute is
     sequential, so the order is deterministic and independent of
     [--jobs]).  A reused result's observations went through [refine]
     after the pass that produced it, and an observation [refine] has
     seen never adds a context later (contexts only grow, so a rejected
     one stays rejected), so they are left out. *)
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
            let r = walk_or_recall i cyclic members callees !committed in
            calls := r.observed @ !calls;
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
  let walks_of name =
    match Hashtbl.find_opt scc_of name with Some i -> List.rev made.(i) | None -> []
  in
  (table, walks_of, cg)

(* Walks an entry keeps at most; older ones go first. *)
let max_walks = 16

(* [old] with the walks of [fresh] whose inputs it lacks put first, at
   most [max_walks]; [None] when it lacks none. *)
let merge_walks (fresh : walk list) (old : walk list) : walk list option =
  let contexts w =
    Option.map
      (List.map (fun (g, ss) -> (g, List.map (fun s -> s.A.s_args) ss)))
      w.w_result.entries
  in
  let same a b = a.w_calls = b.w_calls && contexts a = contexts b in
  match List.filter (fun w -> not (List.exists (same w) old)) fresh with
  | [] -> None
  | added -> Some (List.filteri (fun i _ -> i < max_walks) (added @ old))

let compute (lenv : Layout.env) (fs : M.func list) : A.sums =
  let table, _, _ = infer lenv fs in
  table

(* Per-function inference statistics of a table, for `acc stats
   --profile`. *)
let stats (table : A.sums) : (string * fstat) list =
  List.map
    (fun (g, ss) ->
      ( g,
        {
          fs_contexts = List.length ss;
          fs_size = List.fold_left (fun a s -> a + D.summary_size s) 0 ss;
        } ))
    table
