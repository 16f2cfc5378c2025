(** A persistent domain-based worker pool.

    The driver creates one pool per run ([create]), pushes every
    per-function phase through [map_on], and tears the domains down with
    [shutdown].  This amortises domain-spawn cost across all phases of a
    run instead of paying it per phase. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (the domain calling
    [map_on] participates in every map, so [jobs] is the total
    parallelism).  [jobs <= 1] spawns no domains. *)

val shutdown : t -> unit
(** Stop and join all worker domains.  The pool must not be used after
    shutdown. *)

val map_on : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_on pool f xs] applies [f] to every element of [xs] across the
    pool's domains (plus the calling domain) and returns the results in
    input order.

    Deterministic failure semantics: if any application raises, the
    exception of the {e lowest-indexed} failing item is re-raised with
    its original backtrace — the same exception sequential evaluation
    would have surfaced first.  A raise never takes a worker domain
    down.  Callers that need per-item isolation must catch inside [f]
    (the driver's phase wrappers do). *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [map ~jobs f xs] is [List.map f xs] when
    [jobs <= 1] or [xs] has at most one element, otherwise it creates a
    throwaway pool, maps, and shuts it down.  Prefer [create]/[map_on]
    when several maps share the same pool. *)
