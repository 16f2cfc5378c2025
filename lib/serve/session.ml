(* The `acc serve` session, meant to run for days.  Each request line
   (`translate FILE`, `check FILE`, `lint FILE`, `status`, `metrics`)
   gets exactly one JSON response line, in request order; a bad request
   answers "ok":false and never kills the session.  The proof store and
   the worker pool stay warm across requests.
   [request_timeout] rides the budget deadlines plus a watchdog that
   counts overruns — degrade and report, never kill; SIGINT/SIGTERM
   finish and flush the in-flight request, then return.  Stdin and
   socket transports share [handle_line], so a response is
   byte-identical whichever transport carried it. *)

module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Pool = Autocorres.Pool
module Faults = Autocorres.Faults
module Store = Ac_store.Store
module Obs = Ac_obs.Obs
module Metrics = Ac_obs.Metrics

let result_json ~file (res : Driver.result) : string =
  let fn name level chained =
    Printf.sprintf "{\"name\":\"%s\",\"level\":\"%s\",\"chained\":%b}"
      (Diag.json_escape name) (Driver.level_name level) chained
  in
  let funcs =
    List.map
      (fun fr ->
        fn fr.Driver.fr_name (Driver.level_of fr) (fr.Driver.fr_chain <> None))
      res.Driver.funcs
    @ List.map
        (fun d -> fn d.Driver.dg_name (Driver.degraded_level d) false)
        res.Driver.degraded
  in
  Printf.sprintf
    "{\"file\":\"%s\",\"functions\":[%s],\"budget_exhaustions\":%d,\"store\":{\"hits\":%d,\"misses\":%d,\"summary_walks\":%d},\"diagnostics\":%s}"
    (Diag.json_escape file) (String.concat "," funcs) res.Driver.budget_hits
    res.Driver.store_hits res.Driver.store_misses res.Driver.summary_walks
    (Diag.list_to_json res.Driver.diags)

let diag_of_finding ~severity (f : Ac_analysis.finding) : Diag.t =
  let msg =
    match f.Ac_analysis.lf_kind with
    | Some k ->
      Printf.sprintf "%s [%s]" f.Ac_analysis.lf_msg (Ac_simpl.Ir.guard_kind_name k)
    | None -> f.Ac_analysis.lf_msg
  in
  Diag.make ~func:f.Ac_analysis.lf_func ?pos:f.Ac_analysis.lf_pos ~severity
    Diag.Guard_discharge msg

(* A lint's findings, shared by [acc lint] and serve [lint]: refuted guards
   (executions that would dereference NULL, divide by zero, ...) plus
   possibly-uninitialised reads.  Definite initialisation runs on the typed
   front-end IR of [res.source], where uninitialised locals are still
   visible (downstream they are default-initialised).  Sorted by position,
   then guard kind, then function: deterministic at any --jobs value, and
   no duplicates when a degradation retry re-analysed a function. *)
let lint_findings (res : Driver.result) : Ac_analysis.finding list =
  let lenv = res.Driver.ctx.Ac_kernel.Rules.lenv in
  let guard_findings =
    List.concat_map
      (fun fr ->
        Ac_analysis.lint_func lenv ~simpl:fr.Driver.fr_simpl ~sums:res.Driver.sums
          fr.Driver.fr_l2)
      res.Driver.funcs
  in
  let uninit_findings =
    let tprog = Ac_cfront.Typecheck.parse_and_check res.Driver.source in
    List.concat_map Ac_analysis.uninit_findings tprog.Ac_cfront.Tir.tp_funcs
  in
  Ac_analysis.sort_findings (guard_findings @ uninit_findings)

(* Flight recorder: when armed, this holds the dump action — harvest the
   span rings, repair truncation, write the trace file.  Consulted from
   the SIGUSR1 check, the watchdog on a deadline overrun, and the CLI's
   fatal-exit paths, so a misbehaving session leaves its last N events
   on disk for post-mortem even when nobody asked for a full trace. *)
let flight_dump : (unit -> unit) option ref = ref None
let dump_flight () = match !flight_dump with Some f -> f () | None -> ()

type config = {
  jobs : int;
  request_timeout : float option;
  faults : Faults.config option;
  store : Store.t option;
  socket_path : string option;
  tcp_port : int option;
  max_inflight : int;
  metrics_port : int option;
  trace : string option;
  trace_format : [ `Chrome | `Jsonl ];
  flight_recorder : int option;
  flight_dump_path : string option;
  slow_ms : float option;
  slow_log : string option;
}

let read_source file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Stdin mode.  The line reader sits on [Unix.read] rather than
   [input_line]: OCaml channels retry EINTR internally, so a SIGTERM
   arriving while the session is blocked waiting for a request would be
   invisible until the next byte shows up.  With a raw read the signal
   interrupts the syscall, the handler flips [shutting], and the loop
   exits.  Framing goes through [Line_buf], the same framing the socket
   server uses, so delivery chunking is irrelevant. *)
let run_stdin ~shutting ~on_tick handle_line =
  let lb = Line_buf.create () in
  let chunk = Bytes.create 4096 in
  let rec next_line () : string option =
    match Line_buf.next lb with
    | Some l -> Some l
    | None ->
      if Atomic.get shutting then None
      else begin
        match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
        | 0 ->
          (* EOF: a trailing unterminated line still counts as a request. *)
          Line_buf.take_rest lb
        | n ->
          Line_buf.add lb chunk 0 n;
          next_line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line ()
      end
  in
  let rec loop () =
    on_tick ();
    if not (Atomic.get shutting) then
      match next_line () with
      | None -> ()
      | Some raw ->
        let line = String.trim raw in
        if line <> "" then begin
          print_string (handle_line ~queued_s:0. line);
          print_newline ();
          flush stdout
        end;
        loop ()
  in
  loop ()

let run (cfg : config) : (unit, string) result =
  (* Flight recorder: bounded per-domain span rings (overwrite-oldest),
     dumped on SIGUSR1, on a watchdog deadline overrun, and on fatal
     exit.  Dumps are repaired for truncation, so they always validate. *)
  let usr1_requested = Atomic.make false in
  Option.iter
    (fun n ->
      Obs.set_enabled true;
      Obs.set_ring (Some n);
      let path =
        match cfg.flight_dump_path with
        | Some p -> p
        | None -> Printf.sprintf "acc-flight-%d.json" (Unix.getpid ())
      in
      flight_dump := Some (fun () -> Obs.write_trace ~format:cfg.trace_format path);
      try
        Sys.set_signal Sys.sigusr1
          (Sys.Signal_handle (fun _ -> Atomic.set usr1_requested true))
      with Invalid_argument _ | Sys_error _ -> ())
    cfg.flight_recorder;
  (* Honour a pending SIGUSR1 outside any syscall: called once per event
     loop tick in socket mode and per line in stdin mode. *)
  let check_usr1 () =
    if Atomic.compare_and_set usr1_requested true false then dump_flight ()
  in
  (* Proof-effort accounting is armed whenever the scrape plane is up:
     the kernel hook stays a no-op otherwise, and CI byte-compares
     hooked vs unhooked sessions. *)
  if cfg.metrics_port <> None then
    Ac_obs.Effort.arm Ac_kernel.Thm.set_obs_hook Ac_kernel.Rules.rule_name;
  Option.iter Faults.install cfg.faults;
  let store = cfg.store in
  let pool = if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  let budgets =
    (* The request timeout rides the existing budget plumbing: the guard
       analysis already knows how to stop at a deadline and degrade
       (guards kept) instead of hanging. *)
    match cfg.request_timeout with
    | None -> Driver.default_budgets
    | Some t -> { Driver.default_budgets with Driver.analysis_deadline_s = Some t }
  in
  let options =
    { Driver.default_options with Driver.keep_going = true; budgets; jobs = cfg.jobs }
  in
  let started = Obs.mono_s () in
  (* The facts this session owns (one atomic op per increment, always on),
     then probes of the facts other modules own. *)
  let m_requests = Metrics.counter "serve.requests" in
  let m_failures = Metrics.counter "serve.failures" in
  let m_degraded = Metrics.counter "serve.degraded" in
  let m_over_deadline = Metrics.counter "serve.requests_over_deadline" in
  let h_latency = Metrics.histogram "serve.request_latency_s" in
  (* Set in socket mode so `status` can report the scheduler. *)
  let sched_stats : (unit -> Server.sched_stats) option ref = ref None in
  let store_count read () = match store with Some st -> read st | None -> 0 in
  Metrics.probe "serve.store_hits" (store_count Store.hits);
  Metrics.probe "serve.store_misses" (store_count Store.misses);
  Metrics.probe "serve.store_io_retries" (store_count Store.io_retries);
  Metrics.probe "serve.shed" (fun () ->
      match !sched_stats with Some f -> (f ()).Server.shed | None -> 0);
  Metrics.probe "trace.dropped_events" Obs.dropped;
  (* Slow-request log: requests whose wall-clock exceeds the threshold
     append one structured JSONL record.  The channel opens lazily (the
     common case logs nothing) and appends, so operators can tail one
     file across server restarts. *)
  let slow_cfg =
    match (cfg.slow_ms, cfg.slow_log) with
    | None, None -> None
    | ms, path ->
      let path = Option.value path ~default:"acc-slow.jsonl" in
      Some
        ( Option.value ms ~default:1000.,
          lazy (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path) )
  in
  (* Graceful shutdown: the handler only flips a flag (async-signal-safe);
     the main loop finishes the in-flight request, flushes, and returns.
     A signal while blocked in [Unix.read] surfaces as EINTR, so the
     flag is honoured immediately even on an idle session. *)
  let shutting = Atomic.make false in
  let install_signal s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set shutting true))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  install_signal Sys.sigterm;
  install_signal Sys.sigint;
  let err_json msg =
    Metrics.incr m_failures;
    Printf.sprintf "{\"ok\":false,\"error\":\"%s\"}" (Diag.json_escape msg)
  in
  (* Counter invariants (asserted by the serve tests):
     - [requests] counts EVERY non-empty request line the session
       accepts, across stdin and all socket connections — translate/
       check/lint, `status` itself, malformed and unknown lines, and
       shed requests all count, and each counted line gets exactly one
       response.
     - [failures] counts the subset answered with "ok":false (bad
       request, unknown command, internal error, shed), so
       failures <= requests always. *)
  let status_json () =
    let sched =
      match !sched_stats with
      | None -> ""
      | Some f ->
        let n = f () in
        Printf.sprintf
          ",\"conns\":{\"active\":%d,\"total\":%d},\"sched\":{\"queued\":%d,\"shed\":%d,\"drained\":%d,\"net_io_faults\":%d}"
          n.Server.active_conns n.Server.total_conns n.Server.queued n.Server.shed
          n.Server.drained n.Server.net_io_faults
    in
    (* Request-latency percentiles (ms, one log bucket ~19% precise) and
       the trace events lost to buffer caps or ring overwrites come AFTER
       every earlier field, the conditional [sched] block included, so
       consumers parsing a status prefix keep working. *)
    let ms p = 1000. *. Metrics.quantile h_latency p in
    Printf.sprintf
      "{\"ok\":true,\"cmd\":\"status\",\"uptime_s\":%.3f,\"requests\":%d,\"failures\":%d,\"degraded\":%d,\"requests_over_deadline\":%d,\"store\":{\"hits\":%d,\"misses\":%d,\"io_retries\":%d},\"faults_active\":%b,\"shutting_down\":%b%s,\"latency_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f},\"dropped\":%d}"
      (Obs.mono_s () -. started)
      (Metrics.counter_value m_requests)
      (Metrics.counter_value m_failures)
      (Metrics.counter_value m_degraded)
      (Metrics.counter_value m_over_deadline)
      (store_count Store.hits ()) (store_count Store.misses ())
      (store_count Store.io_retries ())
      (Faults.active () <> None)
      (Atomic.get shutting)
      sched (ms 0.50) (ms 0.95) (ms 0.99) (Obs.dropped ())
  in
  (* The one request-handling core, shared verbatim by stdin and socket
     modes: one trimmed non-empty request line in, its one-line JSON
     response out.  Total by construction — every exception becomes an
     "ok":false response — because in socket mode a raise would tear
     down the event loop under every other client.  Execution is
     serialized (stdin loop or the socket scheduler's execute-one). *)
  let handle_line ~queued_s line : string =
    Metrics.incr m_requests;
    let rid_n = Metrics.counter_value m_requests in
    let t0 = Obs.mono_s () in
    let verb, arg =
      match String.index_opt line ' ' with
      | Some i ->
        (String.sub line 0 i, Some (String.trim (String.sub line i (String.length line - i))))
      | None -> (line, None)
    in
    (* This request's pipeline run and whether it overran the deadline:
       the slow-log record is built from them. *)
    let ran = ref None in
    let run file =
      Faults.sleep_if_slow ();
      let t0 = Obs.mono_s () in
      let res = Driver.run ~options ?store ?pool (read_source file) in
      (* The after-the-fact half of the watchdog: the budget deadlines
         bound the engines from inside, this counts requests that still
         overran (e.g. many functions each under budget). *)
      let over =
        match cfg.request_timeout with Some t -> Obs.mono_s () -. t0 > t | None -> false
      in
      if over then begin
        Metrics.incr m_over_deadline;
        (* A deadline overrun is exactly the moment the last N events
           matter: dump the flight recorder (no-op when not armed). *)
        dump_flight ()
      end;
      Metrics.add m_degraded (List.length res.Driver.degraded);
      ran := Some (res, over);
      res
    in
    let body () =
      match
        match (verb, arg) with
        | "status", None -> status_json ()
        | "metrics", None ->
          (* The whole registry: session counters, probes and the
             latency histogram (count/mean/p50/p95/p99). *)
          Printf.sprintf "{\"ok\":true,\"cmd\":\"metrics\",\"metrics\":%s}"
            (Metrics.to_json ())
        | _, None ->
          err_json
            (Printf.sprintf "bad request %S (want: translate|check|lint FILE, or status)"
               line)
        | "translate", Some file ->
          Printf.sprintf "{\"ok\":true,\"cmd\":\"translate\",\"result\":%s}"
            (result_json ~file (run file))
        | "check", Some file ->
          let res = run file in
          let kernel =
            match Driver.check_all res with
            | Ok () -> "\"ok\""
            | Error e -> Printf.sprintf "\"failed: %s\"" (Diag.json_escape e)
          in
          Printf.sprintf
            "{\"ok\":true,\"cmd\":\"check\",\"file\":\"%s\",\"kernel\":%s,\"degraded\":%d,\"store\":{\"hits\":%d,\"misses\":%d}}"
            (Diag.json_escape file) kernel
            (List.length res.Driver.degraded)
            res.Driver.store_hits res.Driver.store_misses
        | "lint", Some file ->
          let findings = lint_findings (run file) in
          (* Findings use the --diag-json diagnostic shape, so serve and
             one-shot clients parse one format. *)
          Printf.sprintf "{\"ok\":true,\"cmd\":\"lint\",\"file\":\"%s\",\"findings\":%s}"
            (Diag.json_escape file)
            (Diag.list_to_json (List.map (diag_of_finding ~severity:Diag.Warning) findings))
        | other, Some _ -> err_json (Printf.sprintf "unknown command %S" other)
      with
      | resp -> resp
      (* One failing request (missing file, parse error, even an internal
         error) answers with ok:false and the session continues.  A
         front-end error reads as the CLI prints it. *)
      | exception Diag.Error d -> err_json (Diag.to_string d)
      | exception Sys_error m -> err_json m
      | exception e -> (
        match Option.bind arg (fun file -> Diag.frontend_error ~file e) with
        | Some m -> err_json m
        | None -> err_json (Diag.message_of_exn e))
    in
    let resp =
      if Obs.enabled () then
        (* Trace id: the request ordinal, attached to every event this
           request records (driver phases included) via the domain-local
           context. *)
        let rid = Printf.sprintf "req-%d" rid_n in
        Obs.with_ctx rid (fun () -> Obs.span ~cat:"serve" "serve.request" body)
      else body ()
    in
    let dur = Obs.mono_s () -. t0 in
    Metrics.observe h_latency dur;
    (match slow_cfg with
    | Some (threshold_ms, oc) when 1000. *. dur >= threshold_ms ->
      let hits, misses, degraded, over =
        match !ran with
        | Some (r, over) ->
          (r.Driver.store_hits, r.Driver.store_misses, List.length r.Driver.degraded, over)
        | None -> (0, 0, 0, false)
      in
      let oc = Lazy.force oc in
      Printf.fprintf oc
        "{\"rid\":%d,\"verb\":\"%s\",\"latency_ms\":%.3f,\"queue_ms\":%.3f,\"store_hits\":%d,\"store_misses\":%d,\"degraded\":%d,\"over_deadline\":%b}\n"
        rid_n (Diag.json_escape verb) (1000. *. dur) (1000. *. queued_s) hits misses
        degraded over;
      flush oc
    | _ -> ());
    resp
  in
  let served =
    match (cfg.socket_path, cfg.tcp_port) with
    | None, None -> Ok (run_stdin ~shutting ~on_tick:check_usr1 handle_line)
    | socket_path, tcp_port -> (
      (* Socket mode: many clients, one scheduler.  A client disappearing
         mid-response must not kill the server, so writes see EPIPE as an
         error, not a signal. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ());
      (* The scrape/health plane.  Rendered in the select loop between
         request executions, so every exposition sees the registry
         quiescent — cumulative histogram buckets can never tear. *)
      let readyz () =
        (* Ready = willing and able to take a request: not draining and
           the store lock reachable (a wedged lock blocks every store
           path). *)
        if Atomic.get shutting then Error "draining"
        else
          let store_ok =
            match store with
            | None -> true
            | Some st -> (
              match
                Ac_store.Lock.with_lock ~timeout_s:0.2 ~dir:(Store.dir st)
                  (fun ~locked -> locked)
              with
              | ok -> ok
              | exception _ -> false)
          in
          if store_ok then Ok () else Error "store lock unreachable"
      in
      let http = function
        | "/metrics" ->
          (200, Metrics.to_openmetrics () ^ Ac_obs.Effort.to_openmetrics () ^ "# EOF\n")
        | "/healthz" -> (200, "ok\n")
        | "/readyz" -> (
          match readyz () with Ok () -> (200, "ready\n") | Error why -> (503, why ^ "\n"))
        | _ -> (404, "not found\n")
      in
      let scfg =
        { Server.socket_path; tcp_port; metrics_port = cfg.metrics_port;
          max_inflight = max 1 cfg.max_inflight; backlog = 64; shutting }
      in
      match Server.create scfg with
      | Error m -> Error m
      | Ok srv ->
        sched_stats := Some (fun () -> Server.stats srv);
        (* A shed request is a counted request that failed — the client
           got a response line, just not the one it wanted. *)
        Ok
          (Server.run ~http ~on_tick:check_usr1 ~handler:handle_line
             ~on_shed:(fun () ->
               Metrics.incr m_requests;
               Metrics.incr m_failures)
             srv))
  in
  (* Flush everything on the way out so the final response line is
     complete even under a signal-driven shutdown; store counters are
     in-memory only, entries were already published atomically.  An
     in-progress trace is written here, right after the drain, rather
     than only from the CLI's [at_exit]: the drain promised every
     harvested request a response, and the trace of those requests is
     part of the same promise (the at_exit rewrite is then a harmless
     no-op). *)
  if Result.is_ok served then begin
    Option.iter (Obs.write_trace ~format:cfg.trace_format) cfg.trace;
    flush stdout
  end;
  served
