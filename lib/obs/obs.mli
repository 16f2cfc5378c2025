(** Structured tracing: begin/end spans with monotonic timestamps,
    buffered per domain (no cross-domain locking on the hot path) and
    harvested into Chrome [trace_event] JSON or a JSONL stream.

    Everything here is observation only — span buffers live outside the
    kernel trust boundary.  Nothing in [lib/kernel] reads them, and no
    theorem can be minted or influenced through this module; dropping
    every event (or disabling tracing entirely) changes no result.

    Cost model: every instrumentation site performs exactly one atomic
    load when tracing is off ({!enabled} is the single gate).  When on,
    an event append takes the owning domain's buffer mutex — uncontended
    in steady state, since only the owner appends; harvest and reset are
    the only cross-domain readers. *)

(** {1 Enable gate} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Clock} *)

(** Monotonic seconds ([CLOCK_MONOTONIC]): the one clock for spans,
    profile phases, deadlines and watchdogs, immune to system-clock
    steps.  Only differences are meaningful. *)
val mono_s : unit -> float

(** {1 Events} *)

type ph =
  | B  (** span begin *)
  | E  (** span end *)
  | I  (** instant *)
  | X  (** complete span: [ts] + [dur] *)

type ev = {
  ev_name : string;
  ev_cat : string;
  ev_ph : ph;
  ev_ts : float;  (** monotonic seconds *)
  ev_dur : float;  (** seconds; [X] events only, 0 otherwise *)
  ev_tid : int;  (** recording domain id *)
  ev_seq : int;  (** per-buffer append index; orders ties *)
  ev_args : (string * string) list;
}

(** {1 Recording} *)

(** [span ~cat ?args name f] wraps [f ()] in a begin/end pair on the
    calling domain.  The end event is emitted even when [f] raises
    ([Fun.protect]), so harvested B/E events stay balanced under crash
    injection.  When tracing is off this is a single atomic load and a
    tail call to [f]. *)
val span : cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Point event (Chrome "instant"). *)
val instant : cat:string -> ?args:(string * string) list -> string -> unit

(** Retrospective span: an interval measured with {!mono_s} before the
    decision to record it (queue waits, flushes).  [ts0] is the interval
    start, [dur] its length in seconds. *)
val complete :
  cat:string -> ?args:(string * string) list -> ts0:float -> dur:float -> string -> unit

(** [with_ctx id f] attaches trace id [id] (a per-request or per-function
    label) as a ["ctx"] argument to every event recorded by the calling
    domain inside [f].  Nests; restored on exit or exception. *)
val with_ctx : string -> (unit -> 'a) -> 'a

(** {1 Harvest} *)

(** All events from every domain's buffer, merged deterministically:
    sorted by [(ts, tid, seq)].  Per-domain order is preserved ([ts] is
    non-decreasing per buffer and [seq] breaks ties). *)
val harvest : unit -> ev list

(** Events discarded because a domain buffer hit its cap — in ring mode,
    events overwritten by newer ones. *)
val dropped : unit -> int

(** {1 Flight-recorder ring mode}

    [set_ring (Some n)] bounds every domain buffer to [n] slots and
    switches overflow from drop-newest to overwrite-OLDEST, so the
    buffers always hold the most recent window — dumpable after the
    interesting thing has already happened.  Per-buffer sequence numbers
    keep increasing across overwrites, so harvest merge order is
    preserved.  Arm before recording; [set_ring None] returns new pushes
    to unbounded append mode. *)

val set_ring : int option -> unit

(** Truncation repair for mid-run dumps: drops E events whose B was lost
    to the ring, and closes spans still open at dump time with synthetic
    E events at the thread's last timestamp — the output always passes
    [acc trace --validate].  The identity on balanced streams.  Apply to
    a {!harvest} result before export. *)
val repair : ev list -> ev list

(** Clear every buffer and the dropped counter. *)
val reset : unit -> unit

(** {1 Export} *)

(** Chrome [trace_event] JSON ([{"traceEvents":[...]}]), one event per
    line, timestamps in microseconds relative to the earliest event.
    Loads in about:tracing and Perfetto. *)
val to_chrome : ev list -> string

(** One JSON object per line, same fields, no array wrapper — for
    streaming consumers. *)
val to_jsonl : ev list -> string

(** Harvest every buffer and write the trace to [path] (repaired first in
    ring mode, so a dump always validates).  A write error is reported on
    stderr, never raised. *)
val write_trace : format:[ `Chrome | `Jsonl ] -> string -> unit
