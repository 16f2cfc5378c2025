(** The AutoCorres driver: the library's main entry point.

    [run] executes the full pipeline of the paper's Fig 1 over a C source
    string — parsing, conservative Simpl translation, L1 monadic
    conversion, L2 control-flow simplification and local-variable lifting,
    heap abstraction (Sec 4) and word abstraction (Sec 3) — and returns
    every intermediate representation together with kernel theorems
    connecting them, culminating in one end-to-end refinement theorem per
    function.

    The pipeline is fault-isolated: each phase runs per function, and a
    failure degrades that function to its last certified level (the
    degradation ladder WA → HL → L2 → L1 → Simpl-only) while the rest of
    the unit completes.  With {!options.keep_going} off (the default),
    non-recoverable per-function failures raise {!Diag.Error} instead. *)

module Ty = Ac_lang.Ty
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm

(** Per-function abstraction switches (paper Secs 3.2 and 4.6). *)
type func_options = {
  word_abs : bool;  (** abstract machine words to ideal ℕ/ℤ *)
  heap_abs : bool;  (** lift the byte heap to typed split heaps *)
  discharge_guards : bool;
      (** statically remove provably-true UB guards: an untrusted
          abstract-interpretation pass ({!Ac_analysis}) proposes loop
          invariants, and the kernel re-checks them when applying
          [Rule_guard_true], so every discharge is certificate-checked *)
}

val default_func_options : func_options

(** Resource budgets for the unbounded engines the pipeline embeds: the
    guard analysis, the summary engine and the kernel rewriter.
    Exhaustion degrades the result (guards kept, rewriting stopped)
    instead of hanging; it is counted in {!result.budget_hits} and never
    costs soundness. *)
type budgets = {
  analysis_rounds : int;  (** widen/join rounds per loop *)
  analysis_steps : int;  (** fixpoint iterations per analysed function *)
  analysis_deadline_s : float option;  (** wall clock per analysed function *)
  rewrite_fuel : int;  (** head rewrites per kernel normalize call *)
  summary_rounds : int;
      (** interprocedural context-refinement rounds (whole-program
          bottom-up passes of the summary engine) *)
  summary_contexts : int;
      (** refined summary contexts per callee, beyond the base
          ⊤-arguments context *)
}

val default_budgets : budgets

type options = {
  defaults : func_options;
  overrides : (string * func_options) list;  (** per-function exceptions *)
  strategy : Wa.strategy;  (** word-abstraction rule-set extensions (Sec 3.3) *)
  polish : bool;
      (** run the certified clean-up rewrites; disable only for ablation *)
  keep_going : bool;
      (** degrade failing functions to their last certified level and keep
          translating the rest of the unit; off: raise {!Diag.Error} at the
          first non-recoverable per-function failure *)
  budgets : budgets;
  jobs : int;
      (** worker domains for the per-function phases (the calling domain
          counts; 1 = sequential; capped at the hardware's
          [Domain.recommended_domain_count]).  Any value produces identical
          output: {!Pool.map_on} preserves input order and first-failure
          semantics, engine counters are atomic, and per-goal state is
          domain-local *)
  interproc : bool;
      (** interprocedural guard discharge (default on): compute
          kernel-checkable per-function summaries bottom-up over the call
          graph and let guard discharge carry facts across calls; off
          reproduces the purely intraprocedural pass exactly *)
  summary_profile : bool;
      (** also measure {!result.iprof}, the per-function intra-vs-inter
          discharge attribution behind [acc stats --profile].  Costs two
          extra analysis passes per function, so it is off by default and
          never part of the store key (it cannot change any output) *)
}

val default_options : options

(** The degradation ladder: the last certified level a function reached. *)
type level = Lsimpl | Ll1 | Ll2 | Lhl | Lwa

val level_name : level -> string

(** Everything the pipeline produced for one function. *)
type func_result = {
  fr_name : string;
  fr_simpl : Ir.func;  (** the C parser's Simpl translation *)
  fr_l1 : M.func;  (** after monadic conversion *)
  fr_l1_thm : Thm.t;  (** [Corres_l1] for the L1 image *)
  fr_l2 : M.func;  (** after flow simplification + local lifting *)
  fr_l2_thm : Thm.t;  (** L1 ≡ L2 equivalence *)
  fr_hl : M.func option;  (** after heap abstraction, when selected *)
  fr_hl_thm : Thm.t option;  (** the [Abs_h_stmt] step *)
  fr_hl_thms : Thm.t list;
  fr_wa : M.func option;  (** after word abstraction, when selected *)
  fr_wa_thm : Thm.t option;  (** the [Abs_w_stmt] step *)
  fr_wa_thms : Thm.t list;
  fr_wa_wvars : (string * (Ty.sign * Ty.width)) list;
      (** the word-abstraction variable registration the W_* derivations and
          the chain were built under ([check_all] audits them under [ctx]
          extended with exactly this) *)
  fr_chain : Thm.t option;
      (** the end-to-end [Fn_refines] theorem: the final output refines the
          Simpl input through every phase *)
  fr_final : M.func;  (** what the verification engineer reasons about *)
  fr_skipped : (string * string) list;
      (** phases that fell back (phase, reason), e.g. type-unsafe code that
          could not be heap-lifted *)
  fr_diags : Diag.t list;  (** structured diagnostics for this function *)
}

(** A function that could not be carried past L1: it keeps whatever was
    certified (the Simpl image always; the L1 image and its [Corres_l1]
    theorem when monadic conversion succeeded). *)
type degraded = {
  dg_name : string;
  dg_simpl : Ir.func;
  dg_l1 : (M.func * Thm.t) option;
  dg_diags : Diag.t list;
}

(** The highest certified level of a fully-translated function ([Ll2],
    [Lhl] or [Lwa], by which abstractions applied). *)
val level_of : func_result -> level

(** [Ll1] or [Lsimpl]. *)
val degraded_level : degraded -> level

(** Per-function interprocedural-analysis profile (surfaced by
    `acc stats --profile`): summary contexts and their total abstract
    size, plus how many of the function's guards the analysis proves
    without ([ip_intra]) and with ([ip_inter]) the summary table.  Pure
    analysis verdicts — kernel-checked discharge can only be lower. *)
type iprof = {
  ip_contexts : int;
  ip_size : int;
  ip_intra : int;
  ip_inter : int;
}

type result = {
  source : string;
  simpl : Ir.program;
  final_prog : M.program;
  funcs : func_result list;
  degraded : degraded list;
      (** functions that fell below L2 (only with [keep_going]); they are
          excluded from [final_prog] *)
  diags : Diag.t list;  (** every diagnostic collected during the run *)
  budget_hits : int;  (** budget exhaustions during this run *)
  ctx : Rules.ctx;  (** the kernel context the derivations live in *)
  heap_types : Ty.cty list;  (** the split heaps of the abstract state *)
  store_hits : int;
      (** functions whose proof-store entry this run used (0 when no
          store was supplied) *)
  store_misses : int;
      (** functions with no usable entry (includes entries demoted after
          a stored certificate did not hold) *)
  retries : int;  (** always 0; kept only because perfbench/bench.ml reads it *)
  restarts : int;  (** always 0; kept only because perfbench/bench.ml reads it *)
  sums : Ac_kernel.Absdom.sums;
      (** the kernel-checkable summary table this run's certificates drew
          from ([] when {!options.interproc} is off); `acc analyze`
          reuses it to classify residual guards *)
  summary_walks : int;
      (** SCC walks the summary inference made for this result (0 when
          {!options.interproc} is off); with a proof store, an SCC whose
          members are all hits reuses a recorded walk instead, so a warm
          run with every function a hit makes none *)
  iprof : (string * iprof) list;  (** per function, source order *)
}

val find_result : result -> string -> func_result option

(** The function a phase is currently processing, if any.  The
    fault-injection harness reads this to target failures at a single
    function. *)
val processing : unit -> string option

(** Total budget exhaustions since the last {!run} started (analysis +
    summary + rewrite engines). *)
val budget_exhaustions : unit -> int

(** Run the pipeline on a C source string.

    [store] makes the run incremental: each function's content key (its
    preprocessed source, the keys of its transitive callees, the option
    vector, the ruleset tag) is looked up in the persistent proof store,
    whose entries hold what the untrusted search found: summary walks and
    discharge invariants.  The whole pipeline still runs; a hit skips the
    summary walks and discharge fixpoints its entry covers, offering the
    stored invariants to the kernel as certificates.  The store sits
    outside the TCB: every theorem in the result is minted by [Thm.by]
    during this run, and a certificate the kernel refuses, or whose
    prediction fails, is solved again, the entry demoted with a
    [Diag.Store] warning.  Runs with custom word-abstraction rules ignore
    the store (closures have no stable content key).

    [pool] supplies an external worker pool, used as-is and left running
    (the batch server amortises domain spawn across requests); without it
    the run creates and tears down its own pool when [options.jobs > 1].

    @raise Ac_cfront.Typecheck.Type_error or {!Ac_cfront.Parser.Parse_error}
    on inputs outside the supported subset.
    @raise Diag.Error on a non-recoverable per-function failure when
    [keep_going] is off. *)
val run :
  ?options:options ->
  ?store:Ac_store.Store.t ->
  ?pool:Pool.t ->
  string ->
  result

(** Independently re-validate every derivation the pipeline produced
    with the kernel's own [Thm.check]: each function's end-to-end chain
    (whose premises are its L1/L2/HL/WA theorems, so one walk covers
    them), the component theorems of a function without a chain, and the
    L1 theorems of degraded functions.  [~cached:false] also walks each
    component theorem before the chain, re-inferring it twice; it exists
    only for the benchmark's [kernel.check_uncached_s] layer. *)
val check_all : ?cached:bool -> result -> (unit, string) Result.t
