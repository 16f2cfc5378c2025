(** Concurrent socket front-end for [acc serve]: many clients over a
    Unix-domain socket (and optionally localhost TCP), newline-delimited
    framing identical to stdin mode, all feeding one bounded in-flight
    scheduler on a single-threaded [Unix.select] event loop.

    Failure model (summary; DESIGN.md has the full contract):
    - at most [max_inflight] requests queued/executing across all
      connections; beyond that, requests are shed with the structured
      line {!overloaded_response} — in request order, because shed
      markers ride the same FIFO as real requests;
    - when [shutting] flips, the loop closes its listeners, harvests
      requests already sent by clients (one final fault-free read
      sweep), answers everything queued, flushes, and returns;
    - injected [Io_error] faults skip one read/write syscall and retry
      next iteration (transient, never lossy); [Slow] delays accept. *)

type config = {
  socket_path : string option;
  tcp_port : int option;  (** bound on 127.0.0.1 only *)
  metrics_port : int option;
      (** scrape/health HTTP plane ([GET /metrics] etc.), 127.0.0.1 only.
          Served by the same select loop — scrapes are answered between
          request executions, so a render always sees the metrics
          registry quiescent, and request output stays byte-identical
          whether or not anyone is scraping. *)
  max_inflight : int;
  backlog : int;
  shutting : bool Atomic.t;  (** flipped by the session's signal handlers *)
}

type sched_stats = {
  active_conns : int;  (** connections currently open *)
  total_conns : int;  (** connections ever accepted *)
  queued : int;  (** items waiting in the scheduler (incl. shed markers) *)
  shed : int;  (** requests refused with {!overloaded_response} *)
  drained : int;  (** requests completed during shutdown drain *)
  net_io_faults : int;  (** injected socket I/O faults absorbed *)
}

type t

(** The exact line sent for a shed request (without the trailing
    newline).  Stable: ci and clients match on it byte-for-byte. *)
val overloaded_response : string

(** Bind and listen.  Unix path: a stale socket file left by a dead
    server is replaced; any other existing file is an error.  TCP binds
    loopback only. *)
val create : config -> (t, string) result

(** Event loop.  [handler] maps one trimmed, non-empty request line to
    its one-line JSON response (no trailing newline) and MUST be total —
    serve's handler answers malformed requests with an error object
    rather than raising.  [queued_s] is the time the request spent in
    the scheduler queue before execution (feeds the slow-request log).
    [on_shed] is invoked once per shed request so the session can count it
    against its request/failure counters.

    [http] answers one metrics-plane request: path -> (status, body);
    the server adds the HTTP framing and closes the connection after the
    response.  Only consulted when [metrics_port] is set.  [on_tick]
    runs once per loop iteration, between I/O and execution — the session
    uses it to honour SIGUSR1 flight-recorder dumps promptly.

    Returns after a drain completes. *)
val run :
  ?http:(string -> int * string) ->
  ?on_tick:(unit -> unit) ->
  handler:(queued_s:float -> string -> string) ->
  on_shed:(unit -> unit) ->
  t ->
  unit

val stats : t -> sched_stats
