(** Configurable, deterministic fault injection for the service path.

    A fault spec ({!parse}, surfaced as [ACC_FAULTS] / [acc serve
    --inject]) names per-decision-point probabilities for transient I/O
    errors and request stalls.  Decisions are a pure function of (seed,
    global decision index), so a failing schedule reproduces exactly.
    Injection is process-global ({!install} / {!clear}). *)

type kind = Io_error | Slow

type config = {
  seed : int;
  io_error : float;
  slow : float;
  slow_s : float;
}

val default : config
(** All rates zero, seed zero; [slow_s] = 10ms. *)

val parse : string -> (config, string) result
(** Parse a spec like ["io_error:0.05,slow:0.01,seed:42,slow_ms:20"].
    Rates are clamped to [0,1]; unknown names and non-finite or
    malformed rates are errors. *)

val install : config -> unit
(** Make [cfg] the active configuration, reset the decision counter,
    and wire the store's I/O hook. *)

val clear : unit -> unit
(** Deactivate injection and unhook the store. *)

val active : unit -> config option

val fire : kind -> bool
(** Decide whether the fault fires at this decision point.  Always false
    when no config is installed. *)

val injected_io_error_msg : string
(** Message of the [Sys_error] the store hook raises, so tests can tell
    injected faults from real ones. *)

val sleep_if_slow : unit -> unit
(** Stall for [slow_s] if the [Slow] fault fires (serve request path). *)
