module Ty = Ac_lang.Ty
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Store = Ac_store.Store
module Trace = Ac_store.Trace
module Index = Ac_kernel.Index

(* The AutoCorres driver: runs the full pipeline of Fig 1 over a C program
   and returns every intermediate representation together with the
   refinement theorems connecting them.

   Per-function options select word abstraction and heap abstraction
   individually (paper Sec 3.2: "we allow the user to select whether to use
   word abstraction or not on a per-function basis"; Sec 4.6: "allow the
   user to indicate which functions should be abstracted and which should
   remain in the low-level memory model").

   Fault isolation (the resilience layer): every phase runs per function
   behind [attempt] below, so one function failing L1, L2, guard
   discharge, heap or word abstraction, or the clean-up rewrites degrades
   *that function* to its last certified level — the same graceful
   degradation the paper applies to unliftable functions (Sec 4.5) —
   while the rest of the unit completes and every surviving theorem still
   chains and re-validates.  With [keep_going = false] (the default) the
   first non-recoverable failure raises [Diag.Error] carrying the
   structured diagnostic instead. *)

type func_options = {
  word_abs : bool;
  heap_abs : bool;
  discharge_guards : bool;
      (* statically discharge provably-true UB guards (abstract
         interpretation, kernel-checked certificates) *)
}

let default_func_options = { word_abs = true; heap_abs = true; discharge_guards = true }

(* Resource budgets for every unbounded engine the pipeline embeds: the
   guard analysis, the summary engine and the kernel rewriter.  Exhaustion
   degrades (the guard is kept, the rewrite stops) instead of hanging. *)
type budgets = {
  analysis_rounds : int;  (* widen/join rounds per loop *)
  analysis_steps : int;  (* fixpoint iterations per analysed function *)
  analysis_deadline_s : float option;  (* wall clock per analysed function *)
  rewrite_fuel : int;  (* head rewrites per kernel normalize call *)
  summary_rounds : int;  (* interprocedural context-refinement rounds *)
  summary_contexts : int;  (* refined summary contexts per callee *)
}

let default_budgets =
  {
    analysis_rounds = 40;
    analysis_steps = 20_000;
    analysis_deadline_s = None;
    rewrite_fuel = Rewrite.default_fuel;
    summary_rounds = 4;
    summary_contexts = 3;
  }

type options = {
  defaults : func_options;
  overrides : (string * func_options) list;
  strategy : Wa.strategy;
  (* Run the certified clean-up rewrites (guard discharge, inlining,
     return-flow straightening).  Off only for the ablation study. *)
  polish : bool;
  (* Fault isolation: degrade failing functions to their last certified
     level and keep translating the rest of the unit.  Off: raise
     [Diag.Error] at the first non-recoverable per-function failure. *)
  keep_going : bool;
  budgets : budgets;
  (* Worker domains for the per-function phases (the calling domain
     counts).  1 = fully sequential.  Output is deterministic at any
     value: [Pool.map] preserves input order and first-failure
     semantics. *)
  jobs : int;
  (* Interprocedural guard discharge: compute per-function summaries
     bottom-up over the call graph and let the analysis carry facts
     across calls (every discharge still goes through the kernel, which
     re-verifies the summary table).  Off falls back to the purely
     intraprocedural PR 1 pass. *)
  interproc : bool;
  (* Also measure [result.iprof] (per-function intra-vs-inter discharge
     attribution for `acc stats --profile`).  Two extra analysis passes
     per function, so off by default; display-only, never in the store
     key. *)
  summary_profile : bool;
}

let default_options =
  { defaults = default_func_options; overrides = []; strategy = Wa.default_strategy;
    polish = true; keep_going = false; budgets = default_budgets; jobs = 1;
    interproc = true; summary_profile = false }

let options_for options fname =
  match List.assoc_opt fname options.overrides with
  | Some o -> o
  | None -> options.defaults

(* The per-function option vector rendered for the proof store's content
   key: every knob that can change what the pipeline produces for one
   function must appear here, so flipping any of them misses the store
   instead of replaying a result computed under different settings.
   [jobs] is deliberately absent — it changes scheduling and cost, never
   output. *)
let opt_string (options : options) (fname : string) : string =
  let o = options_for options fname in
  let b = options.budgets in
  let fl = function None -> "-" | Some f -> string_of_float f in
  Printf.sprintf
    "wa=%b ha=%b dg=%b polish=%b ar=%d as=%d ad=%s rf=%d ip=%b sr=%d sc=%d"
    o.word_abs o.heap_abs o.discharge_guards options.polish b.analysis_rounds
    b.analysis_steps (fl b.analysis_deadline_s) b.rewrite_fuel options.interproc
    b.summary_rounds b.summary_contexts

(* The degradation ladder: the last certified level a function reached. *)
type level = Lsimpl | Ll1 | Ll2 | Lhl | Lwa

let level_name = function
  | Lsimpl -> "Simpl"
  | Ll1 -> "L1"
  | Ll2 -> "L2"
  | Lhl -> "HL"
  | Lwa -> "WA"

(* Everything the pipeline produced for one function. *)
type func_result = {
  fr_name : string;
  fr_simpl : Ir.func;
  fr_l1 : M.func;
  fr_l1_thm : Thm.t;
  fr_l2 : M.func;
  fr_l2_thm : Thm.t;
  fr_hl : M.func option; (* None when heap abstraction was off or inapplicable *)
  fr_hl_thm : Thm.t option; (* the abs_h_stmt step *)
  fr_hl_thms : Thm.t list; (* all heap-abstraction steps *)
  fr_wa : M.func option;
  fr_wa_thm : Thm.t option; (* the abs_w_stmt step *)
  fr_wa_thms : Thm.t list;
  fr_wa_wvars : (string * (Ty.sign * Ty.width)) list;
      (* the word-abstraction variable registration the [W_abs] step and
         the chain were built under; [check_all] re-checks them under
         [res.ctx] extended with exactly this *)
  fr_chain : Thm.t option; (* the end-to-end Fn_refines theorem *)
  fr_final : M.func;
  fr_skipped : (string * string) list; (* phase, reason *)
  fr_diags : Diag.t list; (* structured diagnostics collected for this function *)
}

(* A function that could not be carried past L1: it keeps whatever was
   certified (the Simpl image always, the L1 image plus its [Corres_l1]
   theorem when monadic conversion succeeded) and the diagnostics
   explaining the degradation. *)
type degraded = {
  dg_name : string;
  dg_simpl : Ir.func;
  dg_l1 : (M.func * Thm.t) option;
  dg_diags : Diag.t list;
}

let level_of (fr : func_result) : level =
  match (fr.fr_wa, fr.fr_hl) with
  | Some _, _ -> Lwa
  | None, Some _ -> Lhl
  | None, None -> Ll2

let degraded_level (d : degraded) : level =
  match d.dg_l1 with Some _ -> Ll1 | None -> Lsimpl

(* Per-function interprocedural-analysis profile (`acc stats --profile`):
   how many summary contexts the function ended up with, their total
   abstract size, and how many of its guards the analysis proves without
   vs with the summary table (the difference is the interprocedural
   win).  Counts are pure analysis verdicts, not kernel discharges. *)
type iprof = {
  ip_contexts : int;
  ip_size : int;
  ip_intra : int;
  ip_inter : int;
}

type result = {
  source : string;
  simpl : Ir.program;
  l1_prog : M.program;
  final_prog : M.program; (* the program a verification engineer works on *)
  funcs : func_result list;
  degraded : degraded list; (* functions that fell below L2 (keep_going) *)
  diags : Diag.t list; (* every diagnostic, unit-level ones included *)
  budget_hits : int; (* budget exhaustions during this run *)
  ctx : Rules.ctx;
  heap_types : Ty.cty list;
  store_hits : int; (* store entries used by this run (0 without a store) *)
  store_misses : int; (* functions translated from scratch despite a store *)
  retries : int; (* always 0; read by perfbench/bench.ml *)
  restarts : int; (* always 0; read by perfbench/bench.ml *)
  sums : Ac_kernel.Absdom.sums;
      (* the kernel-checkable summary table this run's certificates drew
         from ([] when [interproc] is off); `acc analyze` reuses it *)
  iprof : (string * iprof) list; (* per function, source order *)
}

let find_result res name = List.find_opt (fun r -> String.equal r.fr_name name) res.funcs

let ( ||> ) x f = f x

(* ------------------------------------------------------------------ *)
(* Budget plumbing.  The engines own their knobs (they cannot depend on
   this library); the driver installs the per-run values and aggregates
   the exhaustion counters. *)

let install_budgets (b : budgets) =
  Ac_analysis.budget :=
    { Ac_analysis.max_rounds = b.analysis_rounds; max_steps = b.analysis_steps;
      deadline_s = b.analysis_deadline_s };
  Ac_analysis.Summary.rounds := b.summary_rounds;
  Ac_analysis.Summary.contexts := b.summary_contexts;
  Rewrite.fuel := b.rewrite_fuel

let budget_exhaustions () =
  Atomic.get Ac_analysis.exhaustions
  + Atomic.get Ac_analysis.Summary.exhaustions
  + Atomic.get Rewrite.exhaustions

let reset_budget_counters () =
  Atomic.set Ac_analysis.exhaustions 0;
  Atomic.set Ac_analysis.Summary.exhaustions 0;
  Atomic.set Rewrite.exhaustions 0

(* ------------------------------------------------------------------ *)
(* Fault isolation. *)

(* The function a phase is currently processing; the fault-injection
   harness reads this to target failures at one function.  Domain-local:
   under [options.jobs > 1] each worker processes its own function, and
   the injection hooks run on the worker's domain. *)
let processing_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let processing () = Domain.DLS.get processing_key

(* Run [f] with [fname] as the function being processed. *)
let with_processing fname f =
  let was = Domain.DLS.get processing_key in
  Domain.DLS.set processing_key (Some fname);
  Fun.protect ~finally:(fun () -> Domain.DLS.set processing_key was) f

(* Run one phase for one function.  Any escaping exception becomes a
   structured diagnostic: recorded (and the phase skipped) when the
   pipeline can degrade, raised as [Diag.Error] when it cannot and
   [keep_going] is off.  [Diag.Error] itself always propagates — it is
   already structured and already decided. *)
let attempt ~(keep_going : bool) ~(phase : Diag.phase) ~(fname : string)
    ~(recoverable : bool) (diags : Diag.t list ref) (f : unit -> 'a) : 'a option =
  match with_processing fname f with
  | v -> Some v
  | exception (Diag.Error _ as e) -> raise e
  | exception e ->
    let d =
      Diag.make ~func:fname
        ~severity:(if recoverable then Diag.Warning else Diag.Error)
        ~recoverable phase (Diag.message_of_exn e)
    in
    if recoverable || keep_going then begin
      diags := d :: !diags;
      None
    end
    else raise (Diag.Error d)

(* ------------------------------------------------------------------ *)
(* Proof-store replay.

   Reconstitute a [func_result] from a store entry by re-minting its
   entire derivation through the kernel and anchoring the replayed
   conclusions against the *current* run: the freshly parsed Simpl body,
   the assembled unit's nothrow set and word-abstraction signatures.  An
   entry that is stale (the source or a callee changed in a way the key
   missed), corrupted past its digest, or hand-crafted can fail any of
   these gates — and then it is simply re-translated — but it can never
   contribute a theorem the kernel would not derive itself, because every
   theorem in the result comes out of [Thm.by] right here.

   [ctx] is the run's final context (post WA-demotion fixpoint): its
   [nothrows]/[fsigs] already include this entry's own claims, which were
   used to seed the fixpoints; the claim-vs-recomputation checks below
   close that loop, so a wrong seed demotes the entry instead of
   distorting the unit. *)
let replay_entry (ctx : Rules.ctx) ~(sums_digest : string) (f : Ir.func) (e : Store.fentry) :
    (func_result, string) Stdlib.result =
  let name = f.Ir.name in
  let l1_body = e.Store.e_l1.M.body in
  let l2_body = e.Store.e_l2.M.body in
  if not (String.equal e.Store.e_sums_digest sums_digest) then
    (* The summary slice this function's certificates could draw from
       differs from the one the entry was banked under (summary budgets
       changed, or interprocedural analysis was toggled): certificates
       might replay against summaries the kernel now resolves
       differently, so re-translate instead. *)
    Result.error "interprocedural summary table changed"
  else if Rules.nothrow_in ctx.Rules.nothrows l2_body <> e.Store.e_nothrow then
    Result.error "nothrow claim inconsistent with the assembled unit"
  else begin
    let conv_sig_equal (ps1, r1) (ps2, r2) =
      List.length ps1 = List.length ps2
      && List.for_all2 J.conv_equal ps1 ps2
      && J.conv_equal r1 r2
    in
    if
      not
        (conv_sig_equal e.Store.e_fsig
           (Wa.func_sig ~enabled:(e.Store.e_wa <> None) e.Store.e_l2))
    then Result.error "signature claim inconsistent with the assembled unit"
    else begin
      let after_hl = match e.Store.e_hl with Some h -> h | None -> e.Store.e_l2 in
      if Wa.collect_wvars ctx.Rules.fsigs after_hl <> e.Store.e_wvars then
        Result.error "word-abstraction variable registration mismatch"
      else begin
        let rctx = { ctx with Rules.wvars = e.Store.e_wvars } in
        match Trace.replay rctx e.Store.e_trace with
        | Result.Error m -> Result.error m
        | Result.Ok chain -> (
          match Thm.premises chain with
          | l1_thm :: l2_thm :: rest
            when e.Store.e_n_hl >= 0 && List.length rest >= e.Store.e_n_hl ->
            let hl_thms = List.filteri (fun i _ -> i < e.Store.e_n_hl) rest in
            let wa_thms = List.filteri (fun i _ -> i >= e.Store.e_n_hl) rest in
            (* Walk the chain the way [Fn_chain] folds it, collecting the
               intermediate program after every step: the stored L2/HL/WA
               images must be exactly the walk states at their segment
               boundaries, so an entry cannot present one program to the
               kernel and a different one to the user. *)
            let step cur (t : Thm.t) =
              match Thm.concl t with
              | (J.Equiv (a, c) | J.Abs_h_stmt (a, c)) when M.equal c cur -> Some a
              | J.Abs_w_stmt (_, _, _, a, c) when M.equal c cur -> Some a
              | _ -> None
            in
            let states =
              (* state after l2_thm, after each HL step, after each WA step *)
              List.fold_left
                (fun acc t ->
                  match acc with
                  | None -> None
                  | Some (cur, sts) -> (
                    match step cur t with
                    | Some a -> Some (a, a :: sts)
                    | None -> None))
                (Some (l1_body, []))
                (l2_thm :: rest)
              |> Option.map (fun (_, sts) -> List.rev sts)
            in
            (* [e_l2g] (the pre-discharge L2 image, a [Rules.fbodies]
               contribution) must be tied to the verified chain: either
               no guard was discharged at L2 (it IS the anchored L2
               state), or the L2 slot is the transitivity node whose
               premises — both re-minted by the kernel during replay —
               prove Equiv(l2, l2g) and Equiv(l2g, l1).  See DESIGN.md
               ("summary trust story") for why this anchoring plus the
               kernel's call-depth induction rules out mutually-forged
               entry sets. *)
            let l2g_body = e.Store.e_l2g.M.body in
            let l2g_anchored =
              M.equal l2g_body l2_body
              || (let prems = Thm.premises l2_thm in
                  List.exists
                    (fun t ->
                      J.judgment_equal (Thm.concl t) (J.Equiv (l2_body, l2g_body)))
                    prems
                  && List.exists
                       (fun t ->
                         J.judgment_equal (Thm.concl t) (J.Equiv (l2g_body, l1_body)))
                       prems)
            in
            let anchored =
              match states with
              | None -> false
              | Some sts ->
                let state_is i b =
                  match List.nth_opt sts i with Some s -> M.equal s b | None -> false
                in
                l2g_anchored
                && J.judgment_equal (Thm.concl chain)
                     (J.Fn_refines (name, e.Store.e_final.M.body, l1_body))
                && J.judgment_equal (Thm.concl l1_thm) (J.Corres_l1 (f.Ir.body, l1_body))
                && state_is 0 l2_body
                && state_is e.Store.e_n_hl after_hl.M.body
                && (match e.Store.e_wa with
                   | None -> true
                   | Some wf ->
                     List.exists (fun s -> M.equal s wf.M.body)
                       (List.filteri (fun i _ -> i > e.Store.e_n_hl) sts))
            in
            if not anchored then
              Result.error "replayed derivation does not anchor to the current source"
            else
              Result.ok
                {
                  fr_name = name;
                  fr_simpl = f;
                  fr_l1 = e.Store.e_l1;
                  fr_l1_thm = l1_thm;
                  fr_l2 = e.Store.e_l2;
                  fr_l2_thm = l2_thm;
                  fr_hl = e.Store.e_hl;
                  fr_hl_thm =
                    (if e.Store.e_hl <> None then
                       match hl_thms with t :: _ -> Some t | [] -> None
                     else None);
                  fr_hl_thms = hl_thms;
                  fr_wa = e.Store.e_wa;
                  fr_wa_thm =
                    (if e.Store.e_wa <> None then
                       match wa_thms with t :: _ -> Some t | [] -> None
                     else None);
                  fr_wa_thms = wa_thms;
                  fr_wa_wvars = e.Store.e_wvars;
                  fr_chain = Some chain;
                  fr_final = e.Store.e_final;
                  fr_skipped = e.Store.e_skipped;
                  fr_diags = [];
                }
          | _ -> Result.error "chain derivation has unexpected premise shape")
      end
    end
  end

let run ?(options = default_options) ?store ?pool:ext_pool (source : string) : result =
  Ac_obs.Obs.span ~cat:"driver" "driver.run" @@ fun () ->
  install_budgets options.budgets;
  reset_budget_counters ();
  Profile.reset ();
  (* One persistent pool per run: worker domains are spawned here once and
     reused by every per-function phase (spawning per phase costs more than
     a whole phase on small units).  Cap at the hardware like any thread
     pool — extra domains on a saturated machine only add stop-the-world
     GC synchronisation.  A caller-supplied pool ([?pool]) is used as-is
     and left running, so a batch server amortises the spawn across
     requests. *)
  let jobs = min (max 1 options.jobs) (Domain.recommended_domain_count ()) in
  let pool =
    match ext_pool with
    | Some _ -> ext_pool
    | None -> if jobs > 1 then Some (Pool.create ~jobs) else None
  in
  Fun.protect
    ~finally:(fun () -> if Option.is_none ext_pool then Option.iter Pool.shutdown pool)
  @@ fun () ->
  let keep_going = options.keep_going in
  (* Per-function phases run on the pool; order and first-failure
     semantics match the sequential [List.map]. *)
  let pmap f xs =
    match pool with
    | Some p when List.length xs > 1 -> Pool.map_on p f xs
    | _ -> List.map f xs
  in
  let simpl = Profile.record "parse" (fun () -> Ac_simpl.C2simpl.parse source) in
  let lenv = simpl.Ir.lenv in
  (* Which functions get which treatment. *)
  let lifted =
    List.filter_map
      (fun (f : Ir.func) ->
        if (options_for options f.Ir.name).heap_abs then Some f.Ir.name else None)
      simpl.Ir.funcs
  in
  let base_ctx = { (Rules.empty_ctx lenv) with Rules.lifted = Index.names lifted } in
  (* ---- proof store: content keys and candidate entries ---- *)
  let store =
    (* A word-abstraction extension is a closure behind its registered
       name: it cannot be rendered into a stable content key, so the store
       stands down rather than risk replaying entries built under a
       different rule base. *)
    if options.strategy <> [] then None else store
  in
  let store_base =
    match store with Some st -> (Store.hits st, Store.misses st) | None -> (0, 0)
  in
  let store_keys =
    match store with
    | None -> Index.empty
    | Some st ->
      Profile.record "store_keys" (fun () ->
          Store.cone_keys ~tag:(Store.tag st) ~opt_string:(opt_string options) simpl)
    |> Index.of_list fst
  in
  let store_key name = Option.map snd (Index.find_opt store_keys name) in
  let store_diags = ref [] in
  let store_diag ~fname msg =
    store_diags :=
      Diag.make ~func:fname ~severity:Diag.Warning ~recoverable:true Diag.Store msg
      :: !store_diags
  in
  let candidates : (string * Store.fentry) list =
    match store with
    | None -> []
    | Some st ->
      List.filter_map
        (fun (f : Ir.func) ->
          let name = f.Ir.name in
          match store_key name with
          | None -> None
          | Some key -> (
            match Profile.record ~func:name "store_load" (fun () -> Store.load st ~key) with
            | Store.Hit e when String.equal e.Store.e_name name -> Some (name, e)
            | Store.Hit _ ->
              Store.demote_hit st;
              store_diag ~fname:name "store entry names a different function; ignored";
              None
            | Store.Miss -> None
            | Store.Corrupt msg ->
              store_diag ~fname:name msg;
              None))
        simpl.Ir.funcs
  in
  (* ---- the translation proper, parameterized by the set of store
     entries still trusted.  A hit that later fails replay or claim
     validation is demoted and the translation re-entered without it;
     [entries] shrinks strictly each retry, so this terminates (at worst
     as a full cold run). ---- *)
  let rec translate (entries : (string * Store.fentry) list) : result =
  let hits = Index.of_list fst entries in
  let hit_entry n = Option.map snd (Index.find_opt hits n) in
  let is_hit n = Index.mem hits n in
  let miss_funcs =
    List.filter (fun (f : Ir.func) -> not (is_hit f.Ir.name)) simpl.Ir.funcs
  in
  (* L1 for every function translated this run; a failure here degrades
     the function to its Simpl image (the bottom of the ladder). *)
  let l1_results, simpl_only =
    pmap
      (fun (f : Ir.func) ->
        let diags = ref [] in
        match
          Profile.record ~func:f.Ir.name "l1" (fun () ->
              attempt ~keep_going ~phase:Diag.L1 ~fname:f.Ir.name ~recoverable:false diags
                (fun () -> L1.convert_func base_ctx f))
        with
        | Some (l1f, thm) -> Either.Left (f, l1f, thm, diags)
        | None ->
          Either.Right
            { dg_name = f.Ir.name; dg_simpl = f; dg_l1 = None; dg_diags = List.rev !diags })
      miss_funcs
    |> List.partition_map Fun.id
  in
  let l1_funcs = List.map (fun (_, (l1f : M.func), _, _) -> l1f) l1_results in
  let l1_by_name = Index.of_list (fun (l1f : M.func) -> l1f.M.name) l1_funcs in
  (* Source order, hits contributing their stored L1 image. *)
  let l1_prog : M.program =
    {
      M.lenv;
      globals = simpl.Ir.globals;
      funcs =
        List.filter_map
          (fun (f : Ir.func) ->
            match hit_entry f.Ir.name with
            | Some e -> Some e.Store.e_l1
            | None -> Index.find_opt l1_by_name f.Ir.name)
          simpl.Ir.funcs;
      heap_types = [];
    }
  in
  (* L2.  The nothrow analysis spans functions: once a callee's exception
     wrapper is eliminated, callers can eliminate theirs too.  A function
     whose conversion fails with the clean-up rewrites on is retried
     without them ([Polish] degradation); failing even then drops it to
     L1.

     Diagnostics go into a per-conversion buffer, not the function's
     stream: only the buffer of a function's *final* conversion is banked
     into the stream, so a function on a call cycle reports its failure
     once, not once per iteration. *)
  let l2_convert ctx diags (l1f : M.func) : (M.func * Thm.t) option =
    let fname = l1f.M.name in
    let plain () = L2.convert_func ~polish:false ctx l1f in
    if not options.polish then
      attempt ~keep_going ~phase:Diag.L2 ~fname ~recoverable:false diags plain
    else begin
      match with_processing fname (fun () -> L2.convert_func ~polish:true ctx l1f) with
      | ok -> Some ok
      | exception (Diag.Error _ as e) -> raise e
      | exception e ->
        (* Degrade the polish, keep the level. *)
        diags :=
          Diag.make ~func:fname ~severity:Diag.Warning ~recoverable:true Diag.Polish
            (Diag.message_of_exn e)
          :: !diags;
        attempt ~keep_going ~phase:Diag.L2 ~fname ~recoverable:false diags plain
    end
  in
  (* A conversion observes [ctx.nothrows] only through the call targets in
     the function's body ([Rules.nothrow_in]; rewriting never invents
     calls), so once its callees' statuses are settled one conversion
     decides it.  Convert callee-first: the call graph's SCCs, grouped
     into waves ([Callgraph.waves]), run one [pmap] per wave under the
     statuses the lower waves settled.  A function outside a cycle is
     converted once.  A cyclic SCC iterates over its own members only,
     from none of them nothrow until that set stops growing — the least
     fixpoint — and keeps the last iteration's bodies and statuses.
     Store hits are settled from the start with their claimed status (their
     L2 bodies are not re-derived); [replay_entry] re-checks each claim
     against the assembled unit afterwards, so a wrong seed costs a retry,
     never soundness. *)
  let seed_nothrows =
    List.filter_map (fun (n, e) -> if e.Store.e_nothrow then Some n else None) entries
  in
  let l2_graph = Ac_analysis.Callgraph.of_funcs l1_funcs in
  (* fname -> (final conversion, its diagnostics in emission order), and
     the misses settled nothrow.  Written only from the calling domain. *)
  let l2_final : (string, (M.func * Thm.t) option * Diag.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let nothrow_misses = Hashtbl.create 64 in
  let settled = ref seed_nothrows in
  (* [pending]: the wave's unsettled SCCs, each with its current guess of
     nothrow members. *)
  let rec run_wave pending =
    if pending <> [] then begin
      let nothrows = Index.names (List.concat_map snd pending @ !settled) in
      let ctx = { base_ctx with Rules.nothrows } in
      pmap
        (fun (l1f : M.func) ->
          let buf = ref [] in
          let r = Profile.record ~func:l1f.M.name "l2" (fun () -> l2_convert ctx buf l1f) in
          (l1f.M.name, (r, List.rev !buf)))
        (List.concat_map (fun (scc, _) -> List.map (Index.find l1_by_name) scc) pending)
      |> List.iter (fun (name, entry) -> Hashtbl.replace l2_final name entry);
      let nothrow name =
        match Hashtbl.find l2_final name with
        | Some ((l2f : M.func), _), _ -> Rules.nothrow_in nothrows l2f.M.body
        | None, _ -> false
      in
      run_wave
        (List.filter_map
           (fun (scc, guess) ->
             let guess' = List.filter nothrow scc in
             if
               Ac_analysis.Callgraph.scc_cyclic l2_graph scc
               && List.length guess' > List.length guess
             then Some (scc, guess')
             else begin
               List.iter (fun n -> Hashtbl.replace nothrow_misses n ()) guess';
               settled := guess' @ !settled;
               None
             end)
           pending)
    end
  in
  List.iter
    (fun wave -> run_wave (List.map (fun scc -> (scc, [])) wave))
    (Ac_analysis.Callgraph.waves l2_graph);
  let nothrows =
    Index.names
      (seed_nothrows
      @ List.filter_map
          (fun (_, (l1f : M.func), _, _) ->
            if Hashtbl.mem nothrow_misses l1f.M.name then Some l1f.M.name else None)
          l1_results)
  in
  let l2_rows =
    List.map
      (fun (sf, (l1f : M.func), l1_thm, diags) ->
        let r, banked = Hashtbl.find l2_final l1f.M.name in
        diags := List.rev_append banked !diags;
        (sf, l1f, l1_thm, diags, r))
      l1_results
  in
  let l2_results, l1_only =
    List.partition_map
      (fun (sf, l1f, l1_thm, diags, l2) ->
        match l2 with
        | Some (l2f, l2_thm) -> Either.Left (sf, l1f, l1_thm, l2f, l2_thm, diags)
        | None ->
          Either.Right
            { dg_name = (l1f : M.func).M.name; dg_simpl = sf; dg_l1 = Some (l1f, l1_thm);
              dg_diags = List.rev !diags })
      l2_rows
  in
  (* ---- interprocedural summary inference (the tentpole) ----
     The summary table is computed once per translation attempt,
     sequentially, from the *pre-discharge* L2 images of the whole unit
     (stored [e_l2g] for hits, this run's conversions for misses), so it
     is deterministic across [--jobs] and identical between cold and
     warm runs.  The table is an untrusted hint: every certificate that
     draws on a slice of it re-proves that slice inside the kernel
     against [Rules.fbodies] (same trust class as [nothrows] — see the
     summary-trust section of DESIGN.md for why replayed entries may
     contribute to [fbodies]). *)
  let l2_by_name =
    Index.of_list (fun (l2f : M.func) -> l2f.M.name)
      (List.map (fun (_, _, _, l2f, _, _) -> l2f) l2_results)
  in
  let fbodies : M.func list =
    List.filter_map
      (fun (f : Ir.func) ->
        match hit_entry f.Ir.name with
        | Some e -> Some e.Store.e_l2g
        | None -> Index.find_opt l2_by_name f.Ir.name)
      simpl.Ir.funcs
  in
  let sums, sum_stats =
    if not options.interproc then ([], [])
    else Profile.record "summary" (fun () -> Ac_analysis.Summary.compute lenv fbodies)
  in
  let callgraph = Ac_analysis.Callgraph.of_funcs fbodies in
  (* The slice a function's certificates may draw from: the table
     restricted to its transitive callees (self included on cycles).
     Its digest is the function's store-key claim component.  Built
     eagerly so lookups under [pmap] are read-only. *)
  let sums_slices =
    let restrict = Ac_analysis.Domains.restrict sums in
    List.map
      (fun (fb : M.func) ->
        (fb.M.name, restrict (Ac_analysis.Callgraph.reachable callgraph fb.M.name)))
      fbodies
    |> Index.of_list fst
  in
  let sums_for name =
    match Index.find_opt sums_slices name with Some (_, s) -> s | None -> []
  in
  (* Slice digests share the table entries, so stringify each entry once
     (the slices are [restrict]ions of one table: same pairs) instead of
     per cone; equal to [Domains.sums_digest] of the slice by
     construction.  Only the store reads the digests (replay and save), so
     the strings are built only when one is attached; eagerly, like the
     slices, so they are read-only under [pmap]. *)
  let entry_strings =
    if Option.is_none store then Index.empty
    else
      Index.of_list fst
        (List.map (fun entry -> (fst entry, Ac_analysis.Domains.entry_to_string entry)) sums)
  in
  let sums_digest_for name =
    Ac_analysis.Domains.digest_of_entry_strings
      (List.filter_map
         (fun (g, _) -> Option.map snd (Index.find_opt entry_strings g))
         (sums_for name))
  in
  (* Per-function analysis profile, with and without the table. *)
  let iprof =
    if not (options.interproc && options.summary_profile) then []
    else
      let sum_stats = Index.of_list fst sum_stats in
      Profile.record "iprof" (fun () ->
          pmap
            (fun (fb : M.func) ->
              let intra = Ac_analysis.count_provable lenv ~sums:[] fb.M.body in
              let inter =
                Ac_analysis.count_provable lenv ~sums:(sums_for fb.M.name) fb.M.body
              in
              let cx, sz =
                match Index.find_opt sum_stats fb.M.name with
                | Some (_, st) ->
                  (st.Ac_analysis.Summary.fs_contexts, st.Ac_analysis.Summary.fs_size)
                | None -> (0, 0)
              in
              (fb.M.name, { ip_contexts = cx; ip_size = sz; ip_intra = intra; ip_inter = inter }))
            fbodies)
  in
  let base_ctx = { base_ctx with Rules.fbodies = Rules.index_funcs fbodies } in
  (* Guard discharge, round 1 (after L2): the abstract-interpretation pass
     proves guards true and removes them through the kernel
     ([Rules.Rule_guard_true]); its [Equiv] theorem composes with the L2
     theorem by transitivity, so the chain below is unchanged.  The pass
     is untrusted and optional, so any failure merely keeps the guards.
     This round is the interprocedural one: each function gets its
     summary slice.  Round 2 (post HL/WA) stays intraprocedural — the
     summaries describe L2-level calling conventions and types, and the
     abstracted bodies no longer match them. *)
  let discharge_ctx = { base_ctx with Rules.nothrows } in
  let discharge ~phase ?(sums = []) ctx diags (f : M.func) : (M.func * Thm.t) option =
    Profile.record ~func:f.M.name "guard_discharge" (fun () ->
        (* Proof-effort provenance (display/telemetry only, gated): of
           the guards this pass removed, how many did the analysis prove
           true — under the summary table when one was supplied
           (interprocedural) — and how many vanished with dead code
           scrubbed by the certificate walk.  The count rides the
           discharge's own guard hook, which changes nothing the
           discharge computes, so results are byte-identical either
           way. *)
        let counted = Ac_obs.Effort.enabled () in
        let provable = ref 0 in
        let on_guard =
          if counted then Some (fun _ _ v -> if v = Some true then incr provable) else None
        in
        match
          attempt ~keep_going ~phase ~fname:f.M.name ~recoverable:true diags (fun () ->
              Ac_analysis.discharge_func ?on_guard ctx ~sums f)
        with
        | Some (Some (f', _) as r) ->
          if counted then begin
            let removed =
              Ac_analysis.guard_count f.M.body - Ac_analysis.guard_count f'.M.body
            in
            Ac_obs.Effort.record_discharge
              (if sums <> [] then Ac_obs.Effort.Interproc else Ac_obs.Effort.Intra)
              ~proven:(min removed !provable)
              ~scrubbed:(max 0 (removed - !provable))
          end;
          r
        | Some r -> r
        | None -> None)
  in
  let l2_results =
    pmap
      (fun ((sf, l1f, l1_thm, l2f, l2_thm, diags) as row) ->
        if not (options_for options (l2f : M.func).M.name).discharge_guards then row
        else begin
          match
            discharge ~phase:Diag.Guard_discharge ~sums:(sums_for l2f.M.name)
              discharge_ctx diags l2f
          with
          | None -> row
          | Some (l2f', dthm) -> (
            match
              attempt ~keep_going ~phase:Diag.Guard_discharge ~fname:l2f.M.name
                ~recoverable:true diags (fun () ->
                  Thm.by discharge_ctx Rules.Eq_trans [ dthm; l2_thm ])
            with
            | Some l2_thm' -> (sf, l1f, l1_thm, l2f', l2_thm', diags)
            | None -> row)
        end)
      l2_results
  in
  (* Word-abstraction signatures, fixed up front so recursion and mutual
     calls are consistent; functions whose abstraction fails are demoted to
     identity signatures and the rest re-run (fixpoint). *)
  (* Hits contribute their stored (post-demotion) signatures, constant
     across the demotion fixpoint below; [replay_entry] re-validates them
     against the entry's own L2 image afterwards. *)
  let hit_fsigs = List.map (fun (n, e) -> (n, e.Store.e_fsig)) entries in
  let fsigs_for enabled_names =
    let enabled_names = Index.names enabled_names in
    Index.of_list fst
      (hit_fsigs
      @ List.map
          (fun (_, _, _, (l2f : M.func), _, _) ->
            let enabled = Index.mem enabled_names l2f.M.name in
            (l2f.M.name, Wa.func_sig ~enabled l2f))
          l2_results)
  in
  let initially_enabled =
    List.filter_map
      (fun (_, _, _, (l2f : M.func), _, _) ->
        if (options_for options l2f.M.name).word_abs then Some l2f.M.name else None)
      l2_results
  in
  let ctx = { base_ctx with Rules.fsigs = fsigs_for initially_enabled; nothrows } in
  (* HL per function, with graceful fallback to the byte-level model. *)
  let hl_results =
    pmap
      (fun (sf, l1f, l1_thm, l2f, l2_thm, diags) ->
        let name = (l2f : M.func).M.name in
        let opts = options_for options name in
        let skipped = ref [] in
        let hl =
          if not opts.heap_abs then None
          else begin
            match
              Profile.record ~func:name "heap_abs" (fun () ->
                  attempt ~keep_going ~phase:Diag.Heap_abs ~fname:name ~recoverable:true
                    diags (fun () -> Hl.convert_func ~polish:options.polish ctx l2f))
            with
            | Some r -> Some r
            | None ->
              (* [attempt] recorded the diagnostic; mirror the reason into
                 the legacy skip list. *)
              (match !diags with
              | d :: _ when d.Diag.d_phase = Diag.Heap_abs ->
                skipped := ("heap_abstraction", d.Diag.d_msg) :: !skipped
              | _ -> skipped := ("heap_abstraction", "failed") :: !skipped);
              None
          end
        in
        (sf, l1f, l1_thm, l2f, l2_thm, hl, skipped, diags))
      l2_results
  in
  (* WA with the demotion fixpoint. *)
  let try_wa wa_ctx diags after_hl =
    let name = (after_hl : M.func).M.name in
    let probe () =
      match Wa.convert_func ~strategy:options.strategy ~polish:options.polish wa_ctx after_hl with
      | r -> Result.Ok r
      | exception Thm.Kernel_error reason -> Result.Error reason
    in
    match
      Profile.record ~func:name "word_abs" (fun () ->
          attempt ~keep_going ~phase:Diag.Word_abs ~fname:name ~recoverable:true diags
            probe)
    with
    | Some r -> r
    | None -> Result.Error "word abstraction failed"
  in
  let rec wa_fix enabled =
    let wa_ctx = { ctx with Rules.fsigs = fsigs_for enabled } in
    let enabled_set = Index.names enabled in
    let attempts =
      pmap
        (fun (_, _, _, (l2f : M.func), _, hl, _, diags) ->
          let name = l2f.M.name in
          if not (Index.mem enabled_set name) then (name, None)
          else begin
            let after_hl = match hl with Some (hf, _) -> hf | None -> l2f in
            match try_wa wa_ctx diags after_hl with
            | Result.Ok r -> (name, Some (Result.Ok r))
            | Result.Error e -> (name, Some (Result.Error e))
          end)
        hl_results
    in
    let failures =
      List.filter_map
        (fun (n, r) -> match r with Some (Result.Error _) -> Some n | _ -> None)
        attempts
    in
    if failures = [] then (wa_ctx, attempts)
    else begin
      let failures = Index.names failures in
      wa_fix (List.filter (fun n -> not (Index.mem failures n)) enabled)
    end
  in
  let wa_ctx, wa_attempts = wa_fix initially_enabled in
  let ctx = wa_ctx in
  let wa_attempts = Index.of_list fst wa_attempts in
  let miss_frs =
    pmap
      (fun (sf, l1f, l1_thm, l2f, l2_thm, hl, skipped, diags) ->
        let name = (l2f : M.func).M.name in
        let opts = options_for options name in
        let wa =
          match snd (Index.find wa_attempts name) with
          | Some (Result.Ok r) -> Some r
          | Some (Result.Error e) ->
            skipped := ("word_abstraction", e) :: !skipped;
            None
          | None ->
            if opts.word_abs && not (Index.mem ctx.Rules.fsigs name) then
              skipped := ("word_abstraction", "demoted") :: !skipped;
            None
        in
        (* Report demotion even when this function itself never failed. *)
        (if opts.word_abs && wa = None && not (List.mem_assoc "word_abstraction" !skipped)
         then skipped := ("word_abstraction", "demoted after a callee failed") :: !skipped);
        let after_hl = match hl with Some (hf, _) -> hf | None -> l2f in
        let final0 = match wa with Some (wf, _) -> wf | None -> after_hl in
        (* Guard discharge, round 2: heap and word abstraction introduce new
           guards (typed validity, Unsigned_overflow) and rewrite old ones,
           so run the pass again on the final body.  Its [Equiv] theorem is
           appended to the WA steps, where [Fn_chain] folds it. *)
        let post_discharge =
          if
            opts.discharge_guards
            && (Option.is_some hl || Option.is_some wa)
          then discharge ~phase:Diag.Guard_discharge ctx diags final0
          else None
        in
        let final, post_thms =
          match post_discharge with
          | Some (f', dthm) -> (f', [ dthm ])
          | None -> (final0, [])
        in
        let hl_thms = match hl with Some (_, ts) -> ts | None -> [] in
        let wa_thms = (match wa with Some (_, ts) -> ts | None -> []) @ post_thms in
        (* The end-to-end refinement theorem: Corres_l1, the L2
           equivalence, heap abstraction, word abstraction — the paper's
           "chain of proofs linking the original C-Simpl input to the
           final AutoCorres output". *)
        let wa_wvars = Wa.collect_wvars ctx.Rules.fsigs after_hl in
        let chain =
          let wa_chain_ctx = { ctx with Rules.wvars = wa_wvars } in
          match
            Profile.record ~func:name "chain" (fun () ->
                attempt ~keep_going ~phase:Diag.Chain ~fname:name ~recoverable:true diags
                  (fun () ->
                    Thm.by_opt wa_chain_ctx (Rules.Fn_chain name)
                      ((l1_thm :: l2_thm :: hl_thms) @ wa_thms)))
          with
          | Some c -> c
          | None -> None
        in
        (match chain with
        | Some c when Ac_obs.Effort.enabled () ->
          Ac_obs.Effort.observe_chain ~depth:(Thm.depth c) ~size:(Thm.size c)
        | _ -> ());
        (if chain = None then
           diags :=
             Diag.make ~func:name ~severity:Diag.Warning ~recoverable:true Diag.Chain
               "end-to-end refinement chain could not be assembled"
             :: !diags);
        {
          fr_name = name;
          fr_simpl = sf;
          fr_l1 = l1f;
          fr_l1_thm = l1_thm;
          fr_l2 = l2f;
          fr_l2_thm = l2_thm;
          fr_hl = Option.map fst hl;
          fr_hl_thm = (match hl with Some (_, t :: _) -> Some t | _ -> None);
          fr_hl_thms = hl_thms;
          fr_wa = Option.map fst wa;
          fr_wa_thm = (match wa with Some (_, t :: _) -> Some t | _ -> None);
          fr_wa_thms = wa_thms;
          fr_wa_wvars = wa_wvars;
          fr_chain = chain;
          fr_final = final;
          fr_skipped = List.rev !skipped;
          fr_diags = List.rev !diags;
        })
      hl_results
  in
  (* Replay the store hits under the final context.  The whole derivation
     is re-minted through [Thm.by]; failures demote the entry and re-enter
     the translation without it. *)
  let hit_results =
    pmap
      (fun (f : Ir.func) ->
        let e = snd (Index.find hits f.Ir.name) in
        let r =
          Profile.record ~func:f.Ir.name "store_replay" (fun () ->
              match replay_entry ctx ~sums_digest:(sums_digest_for f.Ir.name) f e with
              | r -> r
              | exception ex -> Result.error (Diag.message_of_exn ex))
        in
        (f.Ir.name, r))
      (List.filter (fun (f : Ir.func) -> is_hit f.Ir.name) simpl.Ir.funcs)
  in
  let failed =
    List.filter_map
      (fun (n, r) -> match r with Result.Error m -> Some (n, m) | Result.Ok _ -> None)
      hit_results
  in
  if failed <> [] then begin
    List.iter
      (fun (n, m) ->
        Option.iter Store.demote_hit store;
        store_diag ~fname:n ("stale or invalid store entry (re-translating): " ^ m))
      failed;
    let failed = Index.of_list fst failed in
    translate (List.filter (fun (n, _) -> not (Index.mem failed n)) entries)
  end
  else begin
    let hit_frs =
      List.filter_map
        (fun (_, r) -> match r with Result.Ok fr -> Some fr | Result.Error _ -> None)
        hit_results
    in
    (* Source order, hits and fresh translations interleaved exactly as a
       cold run would produce them. *)
    let frs = Index.of_list (fun fr -> fr.fr_name) (hit_frs @ miss_frs) in
    let funcs =
      List.filter_map (fun (f : Ir.func) -> Index.find_opt frs f.Ir.name) simpl.Ir.funcs
    in
    let degraded = simpl_only @ l1_only in
    let heap_types =
      funcs
      ||> List.concat_map (fun fr ->
              match fr.fr_hl with Some hf -> Hl.heap_types_of_func hf | None -> [])
      ||> List.fold_left
            (fun acc c -> if List.exists (Ty.cty_equal c) acc then acc else c :: acc)
            []
      ||> List.rev
    in
    let final_prog : M.program =
      {
        M.lenv;
        globals = simpl.Ir.globals;
        funcs = List.map (fun fr -> fr.fr_final) funcs;
        heap_types;
      }
    in
    (* Bank every clean fresh translation (no diagnostics, end-to-end
       chain assembled): only such entries can reproduce a byte-identical
       result on a later hit, and degraded functions must keep
       re-translating so their diagnostics reappear. *)
    (match store with
    | None -> ()
    | Some st ->
      Profile.record "store_save" (fun () ->
          List.iter
            (fun fr ->
              if (not (is_hit fr.fr_name)) && fr.fr_diags = [] then begin
                match (fr.fr_chain, store_key fr.fr_name) with
                | Some chain, Some key ->
                  let e =
                    {
                      Store.e_name = fr.fr_name;
                      e_l1 = fr.fr_l1;
                      e_l2g =
                        (match Index.find_opt l2_by_name fr.fr_name with
                        | Some fb -> fb
                        | None -> fr.fr_l2);
                      e_l2 = fr.fr_l2;
                      e_hl = fr.fr_hl;
                      e_wa = fr.fr_wa;
                      e_final = fr.fr_final;
                      e_wvars = fr.fr_wa_wvars;
                      e_skipped = fr.fr_skipped;
                      e_nothrow = Index.mem ctx.Rules.nothrows fr.fr_name;
                      e_fsig =
                        (match Index.find_opt ctx.Rules.fsigs fr.fr_name with
                        | Some (_, s) -> s
                        | None -> Wa.func_sig ~enabled:false fr.fr_l2);
                      e_sums_digest = sums_digest_for fr.fr_name;
                      e_trace = Trace.record chain;
                      e_n_hl = List.length fr.fr_hl_thms;
                    }
                  in
                  (match Store.save st ~key e with
                  | Result.Ok () -> ()
                  | Result.Error m -> store_diag ~fname:fr.fr_name m)
                | _ -> ()
              end)
            miss_frs))
    ;
    let diags =
      List.rev !store_diags
      @ List.concat_map (fun fr -> fr.fr_diags) funcs
      @ List.concat_map (fun d -> d.dg_diags) degraded
    in
    { source; simpl; l1_prog; final_prog; funcs; degraded; diags;
      budget_hits = budget_exhaustions (); ctx; heap_types;
      store_hits = (match store with Some st -> Store.hits st - fst store_base | None -> 0);
      store_misses =
        (match store with Some st -> Store.misses st - snd store_base | None -> 0);
      retries = 0; restarts = 0;
      sums; iprof }
  end
  in
  translate candidates

(* Re-validate every derivation the pipeline produced (the independent
   checker pass), including the [Corres_l1] theorems of functions that
   degraded before L2.

   Theorems are grouped by function and each group is checked under that
   function's word-abstraction context (the context the end-to-end chain
   was built under).  This is semantically identical to checking the
   L1/L2/HL components under [res.ctx]: the two contexts differ only in
   [Rules.wvars], which [Rules.infer] consults solely in the [W_abs]
   rule, and that appears only in derivations built under that same
   [wvars].
   That wvars-locality invariant is stated (and must be maintained) next
   to [Rules.infer] in rules.ml, and the test suite pins it down by also
   checking every component theorem under [res.ctx] ("components check
   under the run context" in test_perf_layer.ml).  Grouping this way lets
   the cached mode share one memo table between a function's component
   theorems and its chain — the chain holds the components as physical
   premises, so its re-walk is pure cache hits.

   [cached] routes the walk through [Check_cache] (memoized on physical
   node identity, one cache per context, dropped when this call returns).
   The uncached walk via [Thm.check] stays available as ground truth; the
   test suite runs both over the corpus and asserts identical verdicts. *)
let check_all ?(cached = true) (res : result) : (unit, string) Result.t =
  Profile.record "check" @@ fun () ->
  let check_group (ctx, thms) =
    let step =
      if cached then begin
        let cache = Check_cache.create ctx in
        Check_cache.check cache
      end
      else Thm.check ctx
    in
    let rec go = function
      | [] -> Result.ok ()
      | t :: rest -> (
        match step t with Result.Ok () -> go rest | Result.Error _ as e -> e)
    in
    go thms
  in
  let groups =
    List.map
      (fun fr ->
        (* The word-abstraction derivations were built under the
           function's variable registration, recorded in [fr_wa_wvars] at
           translation time; re-check under exactly that. *)
        let wa_ctx = { res.ctx with Rules.wvars = fr.fr_wa_wvars } in
        ( wa_ctx,
          [ fr.fr_l1_thm; fr.fr_l2_thm ] @ fr.fr_hl_thms @ fr.fr_wa_thms
          @ match fr.fr_chain with Some t -> [ t ] | None -> [] ))
      res.funcs
    @ [ ( res.ctx,
          List.filter_map (fun d -> Option.map snd d.dg_l1) res.degraded ) ]
  in
  let rec go = function
    | [] -> Result.ok ()
    | g :: rest -> (
      match check_group g with Result.Ok () -> go rest | Result.Error _ as e -> e)
  in
  go groups
