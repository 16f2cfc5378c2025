(** The [acc serve] session: the request core ([translate], [check],
    [lint], [status], [metrics]), the slow-request log, the
    [/metrics]/[/healthz]/[/readyz] plane, the flight recorder and the
    signal-driven shutdown, over stdin or the socket {!Server}.

    One owner per fact: the session counts requests, failures, degraded
    functions, deadline overruns and latency; store and dropped-event
    figures are read from their owners by [status] and
    exposed to [/metrics] as [Metrics.probe]s of the same readers. *)

type config = {
  jobs : int;
  request_timeout : float option;  (** budget deadline + counted watchdog *)
  faults : Autocorres.Faults.config option;
  store : Ac_store.Store.t option;
  socket_path : string option;
  tcp_port : int option;  (** socket mode when either is set, else stdin *)
  max_inflight : int;
  metrics_port : int option;  (** socket mode only; arms proof-effort accounting *)
  trace : string option;  (** written after the drain *)
  trace_format : [ `Chrome | `Jsonl ];
  flight_recorder : int option;  (** ring capacity per domain *)
  flight_dump_path : string option;
  slow_ms : float option;
  slow_log : string option;
}

(** Serve until EOF (stdin) or a SIGTERM/SIGINT drain; [Error] when the
    socket server cannot be created. *)
val run : config -> (unit, string) result

(** Dump the flight recorder if a session armed it (the CLI's fatal-exit
    paths); a no-op otherwise. *)
val dump_flight : unit -> unit

(** The [--diag-json] translation report, also the serve [translate]
    response body. *)
val result_json : file:string -> Autocorres.Driver.result -> string

(** A lint/analyze finding as a structured diagnostic: the JSON shape of
    serve [lint] responses and [acc analyze --json]. *)
val diag_of_finding :
  severity:Autocorres.Diag.severity -> Ac_analysis.finding -> Autocorres.Diag.t
