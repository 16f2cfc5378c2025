(** Supervision for the worker pool: restart crashed domains, retry lost
    tasks with bounded exponential backoff + jitter, quarantine items
    that keep killing workers (re-run in-process with fault injection
    masked, under the normal degradation ladder).

    {!map} preserves the {!Pool.map_on} contract — results in input
    order, lowest-indexed failure re-raised — and adds the guarantee
    that a worker-domain crash never loses an item's result.  Because
    crash injection happens at task dispatch (before the work function
    runs), the work function runs exactly once per item and the final
    output is byte-identical to a fault-free run. *)

type t

type stats = {
  retries : int;  (** lost items re-attempted *)
  quarantined : int;  (** items re-run masked after repeated crashes *)
  restarts : int;  (** worker domains respawned *)
  crashes : int;  (** worker-domain deaths observed *)
  deadline_blown : int;  (** items that overran the task deadline *)
}

val create :
  ?max_retries:int ->
  ?backoff_base_s:float ->
  ?task_deadline_s:float ->
  ?seed:int ->
  unit ->
  t
(** [max_retries] (default 1) bounds how often a lost item is retried
    before quarantine — the default quarantines an item that kills
    workers twice.  [task_deadline_s] arms the after-the-fact deadline
    watchdog ({!stats}.deadline_blown); domains cannot be preempted, so
    the watchdog counts rather than kills — the in-phase budget plumbing
    is what bounds the work. *)

val map : t -> ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** Supervised map.  With a pool (and more than one item) the map runs
    on the pool; lost items trigger a worker respawn and are retried on
    the calling domain with backoff.  Without a pool, items run
    sequentially under the same retry/quarantine ladder. *)

val stats : t -> stats
(** Snapshot of the counters (atomics; safe from any domain). *)
