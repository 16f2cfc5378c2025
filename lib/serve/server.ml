(* Concurrent socket front-end for `acc serve`.

   Many clients, one scheduler.  The server accepts connections on a
   Unix-domain socket (and optionally a localhost TCP port), frames
   requests per connection with newline-delimited lines — the exact
   grammar and JSON response shape of stdin serve mode, byte for byte —
   and feeds every connection's requests into ONE bounded in-flight
   scheduler running over the session's proof store and worker pool.

   Architecture: a single-threaded [Unix.select] event loop.  Request
   execution is serialized on the main domain (the handler may run the
   full translation pipeline, which parallelizes *internally* via the
   worker pool under [--jobs]); the event loop interleaves socket I/O
   with execution by running at most one request between select calls.
   This keeps the translation core — whose global state (profile
   counters, store counters) is reset per run — on one
   domain, exactly as stdin mode has always run it, so socket mode
   inherits its correctness unchanged.

   Backpressure: at most [max_inflight] requests may be queued or
   executing across all connections.  A request arriving beyond that is
   *shed*: the client gets a structured
   [{"ok":false,"error":"overloaded"}] line instead of the server
   buffering without bound or hanging the accept loop.  Shed responses
   ride the same FIFO queue as real ones (as [i_req = None] markers) so
   each connection still sees exactly one response per request line, in
   order — a client that pipelines 10 requests into a full server gets
   its successes and its overloads in request order, never reordered.

   Shutdown: on SIGTERM/SIGINT the session flips [cfg.shutting]; the loop
   then stops accepting, closes the listeners, performs one final
   non-blocking read sweep per connection (harvesting requests the
   client had already sent — these were promised a response), executes
   everything queued, flushes all output, and returns so the process
   can exit 0.  Requests completed during this phase are counted in
   [drained].

   Fault injection: the PR 7 harness extends to the socket layer.
   [Io_error] fires ahead of connection reads and writes — the syscall
   is *skipped* for that loop iteration, modelling a transient EIO; the
   data stays in the kernel buffer (reads) or our queue (writes) and
   the next iteration retries, so injected faults degrade latency but
   never correctness.  [Slow] fires ahead of accept.  The drain sweep
   and drain-time flushes bypass injection: shutdown must terminate. *)

module Faults = Autocorres.Faults
module Obs = Ac_obs.Obs

type config = {
  socket_path : string option;
  tcp_port : int option;  (* bound on 127.0.0.1 only *)
  metrics_port : int option;  (* scrape/health HTTP plane, 127.0.0.1 only *)
  max_inflight : int;
  backlog : int;
  shutting : bool Atomic.t;  (* flipped by the session's signal handlers *)
}

type sched_stats = {
  active_conns : int;
  total_conns : int;
  queued : int;
  shed : int;
  drained : int;
  net_io_faults : int;
}

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Line_buf.t;
  (* Responses awaiting write, each '\n'-terminated, paired with their
     enqueue timestamp (0. when tracing is off) so the flush latency can
     be emitted as a span when the last byte leaves. *)
  c_out : (Bytes.t * float) Queue.t;
  mutable c_out_bytes : int;
  mutable c_ofs : int;  (* partial-write offset into the head of c_out *)
  mutable c_eof : bool;
  mutable c_pending : int;  (* this conn's items still in the scheduler queue *)
  mutable c_dead : bool;
}

(* [i_req = None] is a shed marker: it occupies the connection's slot in
   the FIFO so the overload response comes out in request order, but it
   does not count against [max_inflight] (shedding under load must not
   itself consume capacity).  [i_ts] is the ingest timestamp (0. when
   tracing is off) from which queue wait is measured. *)
type item = { i_conn : conn; i_req : string option; i_ts : float }

(* One scrape connection on the metrics plane: read until the blank line
   ending the request head, answer once, close.  Scrapes are handled in
   the select loop itself — between request executions, never during one
   — so a [/metrics] render always sees the registry quiescent with
   respect to the translation core. *)
type hconn = {
  h_fd : Unix.file_descr;
  h_buf : Buffer.t;
  mutable h_out : Bytes.t;  (* empty until the request head is complete *)
  mutable h_ofs : int;
  mutable h_responded : bool;
  mutable h_dead : bool;
}

(* A request head larger than this is not a scrape; answer 400. *)
let max_http_head = 8192

type t = {
  cfg : config;
  mutable listeners : Unix.file_descr list;
  mutable mlistener : Unix.file_descr option;  (* metrics plane *)
  mutable conns : conn list;
  mutable hconns : hconn list;
  queue : item Queue.t;
  mutable inflight : int;  (* real requests queued or executing *)
  mutable total_conns : int;
  mutable shed : int;
  mutable drained : int;
  mutable net_io_faults : int;
  mutable draining : bool;
}

let overloaded_response = "{\"ok\":false,\"error\":\"overloaded\"}"

(* Cap on un-flushed response bytes per connection before we stop
   *reading* from it: a client that pipelines requests but never reads
   responses must stall, not balloon our memory. *)
let max_unflushed = 1 lsl 20

let listen_unix path backlog =
  (match Unix.stat path with
  | st when st.Unix.st_kind = Unix.S_SOCK ->
    (* Stale socket from a previous (crashed) server; safe to replace.
       Anything else at that path is the operator's, and an error. *)
    Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  (* Bound under a temporary name in the same directory and renamed onto
     [path] once listening: a client that finds the path can connect,
     where binding [path] itself would expose it one call before
     [listen] and refuse a client that came in between. *)
  let tmp =
    Filename.concat (Filename.dirname path) (Printf.sprintf ".acc-sock%d" (Unix.getpid ()))
  in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX tmp);
     Unix.listen fd backlog;
     Unix.rename tmp path
   with e ->
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  fd

let listen_tcp port backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  fd

let create (cfg : config) : (t, string) result =
  match
    let ls = ref [] in
    (match cfg.socket_path with
    | Some p -> ls := listen_unix p cfg.backlog :: !ls
    | None -> ());
    (match cfg.tcp_port with
    | Some p -> ls := listen_tcp p cfg.backlog :: !ls
    | None -> ());
    if !ls = [] then failwith "socket server: no listen address (need --socket or --tcp)";
    let ml = Option.map (fun p -> listen_tcp p cfg.backlog) cfg.metrics_port in
    (!ls, ml)
  with
  | listeners, mlistener ->
    Ok
      {
        cfg;
        listeners;
        mlistener;
        conns = [];
        hconns = [];
        queue = Queue.create ();
        inflight = 0;
        total_conns = 0;
        shed = 0;
        drained = 0;
        net_io_faults = 0;
        draining = false;
      }
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "socket server: %s(%s): %s" fn arg (Unix.error_message e))

let stats (t : t) : sched_stats =
  {
    active_conns = List.length t.conns;
    total_conns = t.total_conns;
    queued = Queue.length t.queue;
    shed = t.shed;
    drained = t.drained;
    net_io_faults = t.net_io_faults;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let enqueue_out (c : conn) (resp : string) =
  if not c.c_dead then begin
    let b = Bytes.of_string (resp ^ "\n") in
    Queue.push (b, if Obs.enabled () then Obs.mono_s () else 0.) c.c_out;
    c.c_out_bytes <- c.c_out_bytes + Bytes.length b
  end

(* Minimal HTTP/1.0-style framing for the metrics plane: status line,
   Content-Length, Connection: close.  [body] is rendered by the session's
   [http] callback; scrapers (Prometheus, curl) need nothing more. *)
let http_response (status : int) (body : string) : Bytes.t =
  let reason =
    match status with
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  Bytes.of_string
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: text/plain; version=0.0.4; \
        charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status reason (String.length body) body)

(* First token after the verb in the request line ("GET /metrics
   HTTP/1.1" -> "/metrics"); None if the head is not a GET. *)
let http_path (head : string) : string option =
  let line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> ( match String.index_opt head '\n' with
      | Some i -> String.sub head 0 i
      | None -> head)
  in
  match String.split_on_char ' ' line with
  | "GET" :: path :: _ when path <> "" -> Some path
  | _ -> None

let run ?(http = fun (_ : string) -> (404, "not found\n"))
    ?(on_tick = fun () -> ()) ~(handler : queued_s:float -> string -> string)
    ~(on_shed : unit -> unit) (t : t) : unit =
  let chunk = Bytes.create 65536 in

  (* One trimmed request line enters the scheduler — or is shed.  Empty
     lines are skipped here, exactly as stdin mode skips them, so they
     neither get a response nor count as requests.  The ingest timestamp
     is always taken (queue wait feeds the slow-request log and the
     latency breakdown even with tracing off); only the span emission
     stays gated on [Obs.enabled]. *)
  let ingest (c : conn) raw =
    let line = String.trim raw in
    if line <> "" then begin
      let ts = Obs.mono_s () in
      if t.inflight >= t.cfg.max_inflight then begin
        t.shed <- t.shed + 1;
        on_shed ();
        Obs.instant ~cat:"serve" "req.shed";
        c.c_pending <- c.c_pending + 1;
        Queue.push { i_conn = c; i_req = None; i_ts = ts } t.queue
      end
      else begin
        t.inflight <- t.inflight + 1;
        c.c_pending <- c.c_pending + 1;
        Queue.push { i_conn = c; i_req = Some line; i_ts = ts } t.queue
      end
    end
  in
  let drain_lines (c : conn) =
    let rec go () =
      match Line_buf.next c.c_buf with
      | Some l ->
        ingest c l;
        go ()
      | None -> ()
    in
    go ()
  in
  let on_eof (c : conn) =
    c.c_eof <- true;
    (* A final unterminated line is still a request: stdin mode serves
       it at EOF, so socket mode must too. *)
    match Line_buf.take_rest c.c_buf with Some tail -> ingest c tail | None -> ()
  in

  let do_accept lfd =
    Faults.sleep_if_slow ();
    match Unix.accept ~cloexec:true lfd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      let c =
        {
          c_fd = cfd;
          c_buf = Line_buf.create ();
          c_out = Queue.create ();
          c_out_bytes = 0;
          c_ofs = 0;
          c_eof = false;
          c_pending = 0;
          c_dead = false;
        }
      in
      t.total_conns <- t.total_conns + 1;
      if Obs.enabled () then
        Obs.instant ~cat:"serve" ~args:[ ("total", string_of_int t.total_conns) ]
          "conn.accept";
      t.conns <- c :: t.conns
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      ()
  in

  (* An injected read fault is transient by construction — the fd stays
     readable, so select reschedules it and the retry sees the same
     bytes.  Injection degrades latency, never drops a request. *)
  let do_read (c : conn) =
    if Faults.fire Faults.Io_error then
      t.net_io_faults <- t.net_io_faults + 1
    else
      match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
      | 0 -> on_eof c
      | n ->
        Line_buf.add c.c_buf chunk 0 n;
        drain_lines c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> c.c_dead <- true
  in

  let do_write (c : conn) =
    if (not t.draining) && Faults.fire Faults.Io_error then
      t.net_io_faults <- t.net_io_faults + 1
    else if not (Queue.is_empty c.c_out) then begin
      let b, enq_ts = Queue.peek c.c_out in
      match Unix.write c.c_fd b c.c_ofs (Bytes.length b - c.c_ofs) with
      | n ->
        c.c_ofs <- c.c_ofs + n;
        c.c_out_bytes <- c.c_out_bytes - n;
        if c.c_ofs = Bytes.length b then begin
          ignore (Queue.pop c.c_out);
          c.c_ofs <- 0;
          (* Response fully handed to the kernel: the flush interval runs
             from response enqueue to last byte written. *)
          if enq_ts > 0. then
            Obs.complete ~cat:"serve" ~ts0:enq_ts ~dur:(Obs.mono_s () -. enq_ts)
              "req.flush"
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET: peer is gone; drop its output. *)
        c.c_dead <- true;
        Queue.clear c.c_out;
        c.c_out_bytes <- 0;
        c.c_ofs <- 0
    end
  in

  (* --- metrics plane (scrape/health HTTP) ---
     No fault injection here: the ops plane must stay readable precisely
     when the request plane is being tortured. *)
  let http_accept lfd =
    match Unix.accept ~cloexec:true lfd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      t.hconns <-
        { h_fd = cfd; h_buf = Buffer.create 256; h_out = Bytes.empty; h_ofs = 0;
          h_responded = false; h_dead = false }
        :: t.hconns
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      ()
  in
  let http_respond (h : hconn) =
    let head = Buffer.contents h.h_buf in
    let status, body =
      match http_path head with
      | Some path -> http path
      | None -> (400, "bad request\n")
    in
    h.h_out <- http_response status body;
    h.h_responded <- true
  in
  let head_complete (h : hconn) =
    let s = Buffer.contents h.h_buf in
    let mem sub =
      let n = String.length sub and l = String.length s in
      let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    mem "\r\n\r\n" || mem "\n\n"
  in
  let http_read (h : hconn) =
    match Unix.read h.h_fd chunk 0 (Bytes.length chunk) with
    | 0 -> if not h.h_responded then h.h_dead <- true
    | n ->
      Buffer.add_subbytes h.h_buf chunk 0 n;
      if head_complete h then http_respond h
      else if Buffer.length h.h_buf > max_http_head then begin
        h.h_out <- http_response 400 "bad request\n";
        h.h_responded <- true
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> h.h_dead <- true
  in
  let http_write (h : hconn) =
    match Unix.write h.h_fd h.h_out h.h_ofs (Bytes.length h.h_out - h.h_ofs) with
    | n ->
      h.h_ofs <- h.h_ofs + n;
      (* Connection: close — one answer per scrape connection. *)
      if h.h_ofs = Bytes.length h.h_out then h.h_dead <- true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> h.h_dead <- true
  in
  let http_reap () =
    let live, finished = List.partition (fun h -> not h.h_dead) t.hconns in
    List.iter (fun h -> close_quietly h.h_fd) finished;
    t.hconns <- live
  in

  (* Run at most ONE queued request, then return to the select loop so
     I/O stays responsive while a long translation runs between
     iterations. *)
  let execute_one () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some { i_conn = c; i_req = None; i_ts = _ } ->
      c.c_pending <- c.c_pending - 1;
      enqueue_out c overloaded_response
    | Some { i_conn = c; i_req = Some req; i_ts } ->
      let queued_s = Obs.mono_s () -. i_ts in
      if Obs.enabled () then
        Obs.complete ~cat:"serve" ~ts0:i_ts ~dur:queued_s "req.queue_wait";
      (* The handler runs even if the client vanished: counters and
         store effects must not depend on connection lifetime. *)
      let resp = handler ~queued_s req in
      t.inflight <- t.inflight - 1;
      c.c_pending <- c.c_pending - 1;
      if t.draining then t.drained <- t.drained + 1;
      enqueue_out c resp
  in

  let reap () =
    let live, finished =
      List.partition
        (fun c ->
          (not c.c_dead)
          && not (c.c_eof && c.c_pending = 0 && Queue.is_empty c.c_out))
        t.conns
    in
    List.iter
      (fun c ->
        close_quietly c.c_fd;
        Obs.instant ~cat:"serve" "conn.close")
      finished;
    t.conns <- live
  in

  let enter_drain () =
    t.draining <- true;
    List.iter close_quietly t.listeners;
    t.listeners <- [];
    (* The metrics plane dies immediately: scrapes, unlike request
       lines, are not promised an answer across shutdown. *)
    Option.iter close_quietly t.mlistener;
    t.mlistener <- None;
    List.iter (fun h -> close_quietly h.h_fd) t.hconns;
    t.hconns <- [];
    (* Final read sweep: harvest everything each client already sent —
       those requests were promised a response.  Non-blocking, and
       bypassing fault injection (shutdown must make progress).  After
       this sweep, reads stop for good. *)
    List.iter
      (fun c ->
        if (not c.c_dead) && not c.c_eof then begin
          let continue = ref true in
          while !continue do
            match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              on_eof c;
              continue := false
            | n ->
              Line_buf.add c.c_buf chunk 0 n;
              drain_lines c
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              ->
              continue := false
            | exception Unix.Unix_error _ ->
              c.c_dead <- true;
              continue := false
          done
        end)
      t.conns
  in

  let finished () =
    t.draining
    && Queue.is_empty t.queue
    && List.for_all (fun c -> Queue.is_empty c.c_out) t.conns
  in

  let stop = ref false in
  while not !stop do
    on_tick ();
    if Atomic.get t.cfg.shutting && not t.draining then enter_drain ();
    if finished () then begin
      List.iter (fun c -> close_quietly c.c_fd) t.conns;
      t.conns <- [];
      (match t.cfg.socket_path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      | None -> ());
      stop := true
    end
    else begin
      let rds =
        (if t.draining then [] else t.listeners)
        @ (match t.mlistener with Some fd when not t.draining -> [ fd ] | _ -> [])
        @ List.filter_map
            (fun h -> if h.h_dead || h.h_responded then None else Some h.h_fd)
            t.hconns
        @ List.filter_map
            (fun c ->
              if c.c_dead || c.c_eof || t.draining || c.c_out_bytes > max_unflushed
              then None
              else Some c.c_fd)
            t.conns
      in
      let wrs =
        List.filter_map
          (fun h ->
            if (not h.h_dead) && h.h_responded && h.h_ofs < Bytes.length h.h_out
            then Some h.h_fd
            else None)
          t.hconns
        @ List.filter_map
            (fun c ->
              if (not c.c_dead) && not (Queue.is_empty c.c_out) then Some c.c_fd
              else None)
            t.conns
      in
      let timeout = if Queue.is_empty t.queue then 0.5 else 0.0 in
      let r_ready, w_ready =
        match Unix.select rds wrs [] timeout with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      List.iter
        (fun fd ->
          if List.memq fd t.listeners then do_accept fd
          else if (match t.mlistener with Some m -> fd == m | None -> false) then
            http_accept fd
          else
            match List.find_opt (fun h -> h.h_fd == fd) t.hconns with
            | Some h -> http_read h
            | None -> (
              match List.find_opt (fun c -> c.c_fd == fd) t.conns with
              | Some c -> do_read c
              | None -> ()))
        r_ready;
      List.iter
        (fun fd ->
          match List.find_opt (fun h -> h.h_fd == fd) t.hconns with
          | Some h -> http_write h
          | None -> (
            match List.find_opt (fun c -> c.c_fd == fd) t.conns with
            | Some c -> do_write c
            | None -> ()))
        w_ready;
      execute_one ();
      reap ();
      http_reap ()
    end
  done
