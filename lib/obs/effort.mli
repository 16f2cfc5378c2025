(** Proof-effort accounting: per-rule kernel application counters,
    refinement-chain shape histograms, and guard-discharge provenance.

    Fed by the kernel's observation hook ([Thm.set_obs_hook] — installed
    from outside the kernel by {!arm}, never by the kernel itself; the
    kernel has zero dependencies on this library) and by the driver's
    discharge/chain call sites.  Everything here observes; nothing can
    influence a theorem, and hooked runs are byte-identical to unhooked
    ones (CI asserts it). *)

(** Master gate, like [Obs.enabled]: when off, the installed hook and
    every recording entry point below are a single atomic load. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** The kernel hook body: [on_rule name id r] counts one successful
    application of the rule [r] with the given dense id
    ([Rules.rule_id]).  [name r] is called only the first time an id
    fires.
    Counts are unsynchronised on the hot path, so concurrent domains may
    drop the odd increment — exact when single-domain or quiescent.
    Install with [Thm.set_obs_hook (Some (Effort.on_rule Rules.rule_name))]. *)
val on_rule : ('r -> string) -> int -> 'r -> unit

(** Record one completed end-to-end refinement chain:
    [depth] = longest premise path, [size] = rule applications in the
    derivation. *)
val observe_chain : depth:int -> size:int -> unit

(** Which pass paid for a discharged guard: the purely intraprocedural
    certificate walk, or one strengthened by interprocedural
    summaries. *)
type provenance = Intra | Interproc

(** [record_discharge p ~proven ~scrubbed]: of the guards a discharge
    pass removed, [proven] were proven true by the analysis under
    provenance [p] and [scrubbed] disappeared with dead code scrubbed by
    the certificate walk. *)
val record_discharge : provenance -> proven:int -> scrubbed:int -> unit

(** Merged per-rule counts, most-applied first (ties by name). *)
val rule_counts : unit -> (string * int) list

val total_applications : unit -> int

(** One JSON object: rule counts, chain depth/size histograms
    (count/sum/p50/p95/p99), discharge provenance. *)
val snapshot_json : unit -> string

(** The per-rule family as labelled OpenMetrics series
    ([acc_kernel_rule_applications_total{rule="..."}]).  Chain and
    provenance series ride [Metrics.to_openmetrics] (they live in the
    registry). *)
val to_openmetrics : unit -> string

(** Zero the per-rule tables and the chain/provenance metrics. *)
val reset : unit -> unit

(** [arm Thm.set_obs_hook Rules.rule_name]: install {!on_rule} through
    the kernel's hook setter, enable accounting and {!reset}. *)
val arm : ((int -> 'r -> unit) option -> unit) -> ('r -> string) -> unit

(** Human-readable report.  With [~files:n], the [acc effort] text: the
    per-rule table over [n] files, chain shapes and discharge
    provenance.  Without, the [acc stats --profile] tail: a rule summary
    with the top five rules and the same provenance line, or [""] when
    no rule fired. *)
val report : ?files:int -> unit -> string
