(** Per-phase profiling counters for the pipeline (wall clock and
    allocation), kept as [Metrics] registry cells: per phase, the
    histogram [profile.<phase>.wall_s] (count = calls, sum = wall
    seconds) and the counter [profile.<phase>.alloc_bytes].
    {!Driver.run} resets at its start and records each phase's
    per-function work; a snapshot taken afterwards describes that run.
    Workers record into the same atomic cells, so work done inside pool
    workers is never dropped or attributed to the main domain.  Wall
    seconds are summed across workers, so under [jobs > 1] a phase total
    can exceed the run's elapsed time — it is cumulative work. *)

(** The monotonic clock, [Ac_obs.Obs.mono_s]. *)
val mono_s : unit -> float

type entry = {
  phase : string;
  calls : int;  (** units of work recorded (usually functions processed) *)
  wall_s : float;  (** cumulative wall-clock seconds across workers *)
  alloc_bytes : float;  (** bytes allocated on the recording domains *)
}

(** Start a new measurement: later snapshots report only work recorded
    after this call.  The registry cells themselves keep growing. *)
val reset : unit -> unit

(** [record ?cat ?func phase f] runs [f ()], folding its wall time and
    allocation into [phase]'s registry cells (thread-safe; lock-free
    after a phase's first use).  Exceptions propagate, with the partial
    work still counted.  When tracing is enabled the unit of work is
    also emitted as an [Obs] span named [phase] in category [cat]
    (default ["driver"]) with [func] (the function being processed,
    when known) attached as a span argument. *)
val record : ?cat:string -> ?func:string -> string -> (unit -> 'a) -> 'a

(** Per-phase totals since the last {!reset}, in pipeline order. *)
val snapshot : unit -> entry list

(** Sum of wall seconds over all phases. *)
val total_wall : unit -> float

(** The snapshot as a JSON object [{"phases":[...]}]. *)
val to_json : unit -> string
