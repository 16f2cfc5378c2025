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

(** Bytes allocated so far by the calling domain, exact at every call
    (unlike [Gc.allocated_bytes] under OCaml 5.1, whose minor part moves
    only at minor collections).  Only differences are meaningful. *)
val alloc_bytes : unit -> float

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
    ([Fun.protect]), so harvested B/E events stay balanced under fault
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
    {!check}.  The identity on balanced streams.  Apply to a {!harvest}
    result before export. *)
val repair : ev list -> ev list

(** Well-formedness of an event stream, per tid: timestamps never go
    back, each E closes the innermost open B, each X has a finite [dur]
    >= 0, and no span is left open.  [Error] names the first fault by its
    event's 1-based position: ["line 2: ts not monotone on tid 0"]. *)
val check : ev list -> (unit, string) result

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

(** Read back one line of {!to_chrome} or {!to_jsonl} output: [None] for
    a line that is not an event (the Chrome header and footer), else the
    event — [ts] and [dur] back in seconds, [ev_seq] 0 — or the first
    fault found in it, such as ["missing tid"] or ["unknown ph \"Q\""]. *)
val ev_of_line : string -> (ev, string) result option

(** JSON string-literal escaping, shared by every JSON writer. *)
val json_escape : string -> string

(** Harvest every buffer and write the trace to [path] (repaired first in
    ring mode, so a dump always validates).  A write error is reported on
    stderr, never raised. *)
val write_trace : format:[ `Chrome | `Jsonl ] -> string -> unit
