module Ty = Ac_lang.Ty
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module Store = Ac_store.Store
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
   instead of offering hints found under different settings.
   [jobs] is deliberately absent — it changes scheduling and cost, never
   output.  Functions without an override share one rendering. *)
let opt_string (options : options) : string -> string =
  let b = options.budgets in
  let fl = function None -> "-" | Some f -> string_of_float f in
  let render o =
    Printf.sprintf
      "wa=%b ha=%b dg=%b polish=%b ar=%d as=%d ad=%s rf=%d ip=%b sr=%d sc=%d"
      o.word_abs o.heap_abs o.discharge_guards options.polish b.analysis_rounds
      b.analysis_steps (fl b.analysis_deadline_s) b.rewrite_fuel options.interproc
      b.summary_rounds b.summary_contexts
  in
  let default = render options.defaults in
  fun fname ->
    match List.assoc_opt fname options.overrides with
    | Some o -> render o
    | None -> default

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
  summary_walks : int; (* SCC walks the summary inference made *)
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
(* Proof-store hints. *)

(* What one function's discharge rounds did with the proof store: the
   hint each round kept (after L2, after heap/word abstraction), whether
   one differs from the function's entry, and whether a stored hint
   failed to hold.  Written only by the function's own tasks. *)
type kept = {
  mutable k_certs : Store.cert option * Store.cert option;
  mutable k_new : bool;
  mutable k_refused : bool;
}

let run ?(options = default_options) ?store ?pool:ext_pool (source : string) : result =
  Ac_obs.Obs.span ~cat:"driver" "driver.run" @@ fun () ->
  install_budgets options.budgets;
  reset_budget_counters ();
  Atomic.set Ac_analysis.solves 0;
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
  (* ---- proof store: content keys and this run's entries ---- *)
  let store =
    (* A word-abstraction extension is a closure behind its registered
       name: it cannot be rendered into a stable content key, so the store
       stands down rather than offer hints found under a different rule
       base. *)
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
  let entries : (string * Store.fentry) Index.t =
    match store with
    | None -> Index.empty
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
      |> Index.of_list fst
  in
  let entry name = Option.map snd (Index.find_opt entries name) in
  (* L1; a failure here degrades the function to its Simpl image (the
     bottom of the ladder). *)
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
      simpl.Ir.funcs
    |> List.partition_map Fun.id
  in
  let l1_funcs = List.map (fun (_, (l1f : M.func), _, _) -> l1f) l1_results in
  let l1_by_name = Index.of_list (fun (l1f : M.func) -> l1f.M.name) l1_funcs in
  let l1_prog : M.program =
    { M.lenv; globals = simpl.Ir.globals; funcs = l1_funcs; heap_types = [] }
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
     fixpoint — and keeps the last iteration's bodies and statuses. *)
  let l2_graph = Ac_analysis.Callgraph.of_funcs l1_funcs in
  (* fname -> (final conversion, its diagnostics in emission order), and
     the functions settled nothrow.  Written only from the calling
     domain. *)
  let l2_final : (string, (M.func * Thm.t) option * Diag.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let settled = ref [] in
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
    let settled = Index.names !settled in
    Index.names
      (List.filter_map
         (fun (l1f : M.func) ->
           if Index.mem settled l1f.M.name then Some l1f.M.name else None)
         l1_funcs)
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
     The summary table is computed once per run, sequentially, from the
     *pre-discharge* L2 images of the whole unit, so it is deterministic
     across [--jobs] and identical between cold and warm runs.  The table
     is an untrusted hint: every certificate that draws on a slice of it
     re-proves that slice inside the kernel against [Rules.fbodies] (same
     trust class as [nothrows] — see the summary-trust section of
     DESIGN.md). *)
  let fbodies : M.func list = List.map (fun (_, _, _, l2f, _, _) -> l2f) l2_results in
  (* With a store, the walks recorded with the entries stand in for walks
     whose inputs are unchanged, and the walks made here are saved with
     the entries.  The pass hands back the call graph it built, which
     slices the table below. *)
  let sums, walks_of, callgraph =
    if not options.interproc then ([], (fun _ -> []), None)
    else
      Profile.record "summary" (fun () ->
          let prior =
            Option.map (fun _ n -> Option.map (fun e -> e.Store.e_walks) (entry n)) store
          in
          let sums, walks_of, cg = Ac_analysis.Summary.infer ?prior lenv fbodies in
          (sums, walks_of, Some cg))
  in
  let summary_walks = if options.interproc then Atomic.get Ac_analysis.Summary.scc_walks else 0 in
  (* The slice a function's certificates may draw from: the table
     restricted to its transitive callees (self included on cycles).
     Built eagerly so lookups under [pmap] are read-only. *)
  let sums_slices =
    match callgraph with
    | None -> Index.empty
    | Some cg ->
      let restrict = Ac_analysis.Domains.restrict sums in
      List.map
        (fun (fb : M.func) ->
          (fb.M.name, restrict (Ac_analysis.Callgraph.reachable cg fb.M.name)))
        fbodies
      |> Index.of_list fst
  in
  let sums_for name =
    match Index.find_opt sums_slices name with Some (_, s) -> s | None -> []
  in
  (* Each function's slice digest, equal to [Domains.sums_digest] of its
     slice.  The slices are [restrict]ions of one table (same pairs), so
     an entry is rendered once, and only if some slice holds it.  Only the
     store reads the digests (hint lookup and save), so they are computed
     only when one is attached; eagerly, like the slices, so they are
     read-only under [pmap]. *)
  let no_slice = Ac_analysis.Domains.digest_of_entry_strings [] in
  let sums_digests =
    if Option.is_none store then Index.empty
    else begin
      let rendered = Hashtbl.create 64 in
      let render ((g, _) as entry) =
        match Hashtbl.find_opt rendered g with
        | Some text -> text
        | None ->
          let text = Ac_analysis.Domains.entry_to_string entry in
          Hashtbl.add rendered g text;
          text
      in
      Index.of_list fst
        (List.map
           (fun (fb : M.func) ->
             ( fb.M.name,
               Ac_analysis.Domains.digest_of_entry_strings
                 (List.map render (sums_for fb.M.name)) ))
           fbodies)
    end
  in
  let sums_digest_for name =
    match Index.find_opt sums_digests name with Some (_, d) -> d | None -> no_slice
  in
  (* Per-function analysis profile, with and without the table. *)
  let iprof =
    if not (options.interproc && options.summary_profile) then []
    else
      let sum_stats = Index.of_list fst (Ac_analysis.Summary.stats sums) in
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
  (* What each function's discharge rounds keep for the store. *)
  let kept =
    if Option.is_none store then Index.empty
    else
      Index.of_list fst
        (List.map
           (fun (fb : M.func) ->
             (fb.M.name, { k_certs = (None, None); k_new = false; k_refused = false }))
           fbodies)
  in
  (* Guard discharge, round 1 (after L2): the abstract-interpretation pass
     proves guards true and removes them through the kernel
     ([Rules.Rule_guard_true]); its [Equiv] theorem composes with the L2
     theorem by transitivity, so the chain below is unchanged.  The pass
     is untrusted and optional, so any failure merely keeps the guards.
     This round is the interprocedural one: each function gets its
     summary slice.  Round 2 (post HL/WA) stays intraprocedural — the
     summaries describe L2-level calling conventions and types, and the
     abstracted bodies no longer match them.

     A function's entry offers each round the hint it kept when solved
     under the same slice, in place of the fixpoint; the round reports
     what it kept and whether the hint held. *)
  let discharge_ctx = { base_ctx with Rules.nothrows } in
  let discharge ~round ?(sums = []) ctx diags (f : M.func) : (M.func * Thm.t) option =
    let name = f.M.name in
    Profile.record ~func:name "guard_discharge" (fun () ->
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
        let slot = Option.map snd (Index.find_opt kept name) in
        let slice = if round = 1 then sums_digest_for name else no_slice in
        let stored =
          match entry name with
          | Some e -> (
            match (if round = 1 then fst else snd) e.Store.e_certs with
            | Some c when String.equal c.Store.c_slice slice -> Some c
            | _ -> None)
          | None -> None
        in
        match
          attempt ~keep_going ~phase:Diag.Guard_discharge ~fname:name ~recoverable:true diags
            (fun () ->
              Ac_analysis.discharge ?on_guard
                ?hint:(Option.map (fun c -> c.Store.c_hint) stored)
                ctx ~sums f)
        with
        | None -> None
        | Some d ->
          Option.iter
            (fun k ->
              let cert =
                Option.map
                  (fun h ->
                    match stored with
                    | Some c when c.Store.c_hint == h || c.Store.c_hint = h -> c
                    | _ ->
                      k.k_new <- true;
                      { Store.c_slice = slice; c_hint = h })
                  d.Ac_analysis.d_hint
              in
              let l2, abs = k.k_certs in
              k.k_certs <- (if round = 1 then (cert, abs) else (l2, cert));
              if d.Ac_analysis.d_refused then k.k_refused <- true)
            slot;
          (match d.Ac_analysis.d_result with
          | Some (f', _) when counted ->
            let removed =
              Ac_analysis.guard_count f.M.body - Ac_analysis.guard_count f'.M.body
            in
            Ac_obs.Effort.record_discharge
              (if sums <> [] then Ac_obs.Effort.Interproc else Ac_obs.Effort.Intra)
              ~proven:(min removed !provable)
              ~scrubbed:(max 0 (removed - !provable))
          | _ -> ());
          d.Ac_analysis.d_result)
  in
  let l2_results =
    pmap
      (fun ((sf, l1f, l1_thm, l2f, l2_thm, diags) as row) ->
        if not (options_for options (l2f : M.func).M.name).discharge_guards then row
        else begin
          match
            discharge ~round:1 ~sums:(sums_for l2f.M.name) discharge_ctx diags l2f
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
  let fsigs_for enabled_names =
    let enabled_names = Index.names enabled_names in
    Index.of_list fst
      (List.map
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
  let funcs =
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
          then discharge ~round:2 ctx diags final0
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
  (* An entry whose hint did not hold is demoted, and every clean
     translation (no diagnostics, end-to-end chain assembled) is banked
     when it has no entry or its entry lacks what this run found: a hint
     that held nowhere, or a walk its SCC made (a caller's edit gave it a
     new context, say).  A degraded function is not banked: its rounds
     may have kept what a failure left. *)
  (match store with
  | None -> ()
  | Some st ->
    let save name e =
      match store_key name with
      | None -> ()
      | Some key -> (
        match Store.save st ~key e with
        | Result.Ok () -> ()
        | Result.Error m -> store_diag ~fname:name m)
    in
    Profile.record "store_save" (fun () ->
        List.iter
          (fun fr ->
            let name = fr.fr_name in
            let k = snd (Index.find kept name) in
            if k.k_refused then begin
              Store.demote_hit st;
              store_diag ~fname:name
                "stale or invalid store entry: a stored discharge certificate did not hold \
                 (solved again)"
            end;
            if Option.is_some fr.fr_chain && fr.fr_diags = [] then
              let walks = walks_of name in
              let e_walks =
                match entry name with
                | None -> Some walks
                | Some e -> (
                  match Ac_analysis.Summary.merge_walks walks e.Store.e_walks with
                  | Some _ as merged -> merged
                  | None -> if k.k_new || k.k_refused then Some e.Store.e_walks else None)
              in
              Option.iter
                (fun e_walks ->
                  save name { Store.e_name = name; e_walks; e_certs = k.k_certs })
                e_walks)
          funcs));
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
    sums; summary_walks; iprof }

(* Re-validate every derivation the pipeline produced (the independent
   checker pass), including the [Corres_l1] theorems of functions that
   degraded before L2.

   A function's end-to-end chain holds its component theorems as
   premises ([Fn_chain] over L1, L2, HL and WA), so one [Thm.check] of
   the chain re-infers every component too; the components are walked on
   their own only when no chain was assembled.  The check runs under the
   function's word-abstraction context, the one the chain was built
   under.  That is semantically identical to checking the L1/L2/HL
   components under [res.ctx]: the two contexts differ only in
   [Rules.wvars], which [Rules.infer] consults solely in the [W_abs]
   rule, and that appears only in derivations built under that same
   [wvars].  The invariant is stated (and must be maintained) next to
   [Rules.infer] in rules.ml, and the test suite pins it down by also
   checking every component theorem under [res.ctx] ("components check
   under the run context" in test_perf_layer.ml).

   [~cached:false] walks every component theorem and then the chain,
   re-inferring each component twice: the benchmark's
   [kernel.check_uncached_s] layer times that walk. *)
let check_all ?(cached = true) (res : result) : (unit, string) Result.t =
  Profile.record "check" @@ fun () ->
  let groups =
    List.map
      (fun fr ->
        (* The word-abstraction derivations were built under the
           function's variable registration, recorded in [fr_wa_wvars] at
           translation time; re-check under exactly that. *)
        let wa_ctx = { res.ctx with Rules.wvars = fr.fr_wa_wvars } in
        let components =
          [ fr.fr_l1_thm; fr.fr_l2_thm ] @ fr.fr_hl_thms @ fr.fr_wa_thms
        in
        ( wa_ctx,
          match fr.fr_chain with
          | Some t when cached -> [ t ]
          | Some t -> components @ [ t ]
          | None -> components ))
      res.funcs
    @ [ ( res.ctx,
          List.filter_map (fun d -> Option.map snd d.dg_l1) res.degraded ) ]
  in
  let rec go = function
    | [] -> Result.ok ()
    | (ctx, t :: rest) :: groups -> (
      match Thm.check ctx t with
      | Result.Ok () -> go ((ctx, rest) :: groups)
      | Result.Error _ as e -> e)
    | (_, []) :: groups -> go groups
  in
  go groups
