(** LCF-style theorems: values of type [t] can only be produced by [by],
    which validates every rule application against the kernel's rule base
    ([Rules.infer]).  The stored derivation can be independently re-checked
    with [check]. *)

type t

exception Kernel_error of string

(** The judgment this theorem establishes. *)
val concl : t -> Judgment.judgment

val rule_name : t -> string
val premises : t -> t list

(** The kernel rule that concluded this theorem.  Exposed so external
    (untrusted) audit tooling — e.g. the memoized derivation checker in
    [Ac_core.Check_cache] — can re-run [Rules.infer] itself; exposing the
    rule reveals nothing the derivation printer does not already show, and
    grants no way to construct a theorem. *)
val rule : t -> Rules.rule

(** A unique id per theorem node (process-wide), usable as an O(1) hash
    key by external tooling — the memoized checker in
    [Ac_core.Check_cache] keys its per-run memo table on it.  Carries no
    logical content, and is read-only: external tooling can observe
    theorem nodes through it but cannot alter them. *)
val id : t -> int

(** Apply a kernel rule to premise theorems.
    @raise Kernel_error if the rule's side conditions fail. *)
val by : Rules.ctx -> Rules.rule -> t list -> t

val by_opt : Rules.ctx -> Rules.rule -> t list -> t option

(** Test-only fault injection for the robustness harness: the hook receives
    each rule name about to be applied by [by]/[by_opt] and returns [true]
    to make that application fail ([by] raises {!Kernel_error}, [by_opt]
    returns [None]).  [check] is unaffected, so theorems that were
    constructed remain independently re-validatable.  Pass [None] to
    uninstall. *)
val set_fault_hook : (string -> bool) option -> unit

(** Observation hook: receives the dense rule id ([Rules.rule_id]) and
    the rule instance of every SUCCESSFUL theorem
    mint ([by]/[by_opt]); a hook needing the name calls
    [Rules.rule_name], once per id.  Write-only telemetry — the hook
    cannot veto, alter or construct a theorem, and the kernel reads
    nothing back, so it stays outside the trusted surface.  Installed
    from outside the kernel (the CLI's proof-effort accounting installs
    [Ac_obs.Effort.on_rule Rules.rule_name]); defaults to a no-op.  Pass
    [None] to uninstall. *)
val set_obs_hook : (int -> Rules.rule -> unit) option -> unit

(** Independently re-validate the entire stored derivation.

    There is deliberately NO constructor that bypasses [Rules.infer] —
    not even a test-only one — so linked code cannot mint a theorem: the
    trusted surface is forgery-free by construction.  The corruption
    tests exercise the rejection paths by re-checking genuine derivations
    under a context other than the one they were built with (a theorem
    certifies its judgment only relative to its context, so a
    wrong-context derivation is exactly a corrupted certificate). *)
val check : Rules.ctx -> t -> (unit, string) result

(** Number of rule applications in the derivation. *)
val size : t -> int

(** Longest premise path in the derivation (a leaf has depth 1). *)
val depth : t -> int

val derivation_to_string : ?max_depth:int -> t -> string
