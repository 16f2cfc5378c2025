(* PR 8's serve layer: the Line_buf framing fix, the socket server, and
   the counter invariants.

   The load-bearing properties:

   - framing is chunking-independent: a batch of requests delivered in
     one write produces byte-identical responses to one-at-a-time
     delivery (the O(n²) reader this PR replaced was correct too — the
     test pins behaviour while the implementation changed underneath);
   - N concurrent socket clients each see exactly the response stream a
     sequential stdin session would have given them, under 0% and 5%
     injected socket-fault rates — concurrency and fault injection are
     invisible in the bytes;
   - SIGTERM drains: requests already sent get their responses, then
     EOF, then the server exits 0;
   - backpressure sheds with the structured overload line, in request
     order, and `status` counts every shed. *)

module Line_buf = Ac_serve.Line_buf

(* ------------------------------------------------------------------ *)
(* Helpers. *)

let acc_exe = Paths.acc_exe

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let shell cmd = Sys.command cmd

(* Run `acc serve --no-store` over stdin with [reqs] as the request
   stream; return the raw response bytes. *)
let stdin_serve ?(extra = "") reqs =
  let req = Filename.temp_file "serve_req" ".txt" in
  let out = Filename.temp_file "serve_out" ".txt" in
  write_file req reqs;
  let cmd =
    Printf.sprintf "%s serve --no-store %s < %s > %s 2>/dev/null"
      (Filename.quote acc_exe) extra (Filename.quote req) (Filename.quote out)
  in
  let code = shell cmd in
  Alcotest.(check int) "stdin serve exits 0" 0 code;
  let s = read_file out in
  Sys.remove req;
  Sys.remove out;
  s

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Start `acc serve` with [args] (socket mode), return its pid.  Stdout
   is unused in socket mode; silence it so alcotest's capture stays
   clean. *)
let start_server args =
  let null = devnull () in
  let pid =
    Unix.create_process acc_exe
      (Array.of_list (("acc" :: "serve" :: args)))
      null null null
  in
  Unix.close null;
  pid

let rec wait_for_socket ?(tries = 200) path =
  if tries = 0 then Alcotest.fail (path ^ ": server socket never appeared");
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> ()
  | _ -> Alcotest.fail (path ^ ": exists but is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    Unix.sleepf 0.025;
    wait_for_socket ~tries:(tries - 1) path

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let b = Bytes.unsafe_of_string s in
  let ofs = ref 0 in
  while !ofs < Bytes.length b do
    ofs := !ofs + Unix.write fd b !ofs (Bytes.length b - !ofs)
  done

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, _ -> -1

(* ------------------------------------------------------------------ *)
(* Line_buf unit tests. *)

let test_line_buf_chunking () =
  (* Deterministic pseudo-random lines and chunk splits: whatever the
     chunking, the extracted lines are exactly the input lines. *)
  let st = Random.State.make [| 42 |] in
  let lines =
    List.init 500 (fun i ->
        let len = Random.State.int st 200 in
        String.init len (fun j ->
            Char.chr (32 + ((i + (3 * j) + Random.State.int st 64) mod 90))))
  in
  let payload = String.concat "\n" lines ^ "\n" in
  let feed_chunked chunk_of =
    let lb = Line_buf.create ~capacity:16 () in
    let got = ref [] in
    let n = String.length payload in
    let i = ref 0 in
    while !i < n do
      let k = min (chunk_of ()) (n - !i) in
      Line_buf.add lb (Bytes.of_string (String.sub payload !i k)) 0 k;
      i := !i + k;
      let rec drain () =
        match Line_buf.next lb with
        | Some l ->
          got := l :: !got;
          drain ()
        | None -> ()
      in
      drain ()
    done;
    (match Line_buf.take_rest lb with
    | Some tail -> got := tail :: !got
    | None -> ());
    List.rev !got
  in
  let whole = feed_chunked (fun () -> String.length payload) in
  let tiny = feed_chunked (fun () -> 1) in
  let random = feed_chunked (fun () -> 1 + Random.State.int st 37) in
  Alcotest.(check (list string)) "one-write delivery" lines whole;
  Alcotest.(check (list string)) "byte-at-a-time delivery" lines tiny;
  Alcotest.(check (list string)) "random chunk delivery" lines random

let test_line_buf_tail () =
  let lb = Line_buf.create () in
  Line_buf.add_string lb "complete\npartial";
  Alcotest.(check (option string)) "terminated line" (Some "complete") (Line_buf.next lb);
  Alcotest.(check (option string)) "no second line yet" None (Line_buf.next lb);
  (* The scan offset must survive: adding more bytes resumes the search,
     and the pending partial line is intact. *)
  Line_buf.add_string lb " done\n";
  Alcotest.(check (option string)) "spanning line" (Some "partial done") (Line_buf.next lb);
  Line_buf.add_string lb "eof tail";
  Alcotest.(check (option string)) "unterminated tail at EOF" (Some "eof tail")
    (Line_buf.take_rest lb);
  Alcotest.(check int) "buffer empty after take_rest" 0 (Line_buf.pending lb)

(* ------------------------------------------------------------------ *)
(* Pipelined batch vs one-at-a-time delivery: byte-identical responses
   (the reader-bugfix regression test).  10k cheap requests. *)

let test_pipelined_batch_equivalence () =
  let n = 10_000 in
  let reqs = List.init n (fun i -> Printf.sprintf "frob%d x" i) in
  let batch = stdin_serve (String.concat "\n" reqs ^ "\n") in
  (* One-at-a-time: a full round trip per request through a live serve
     process, so the server's buffer never holds more than one line. *)
  let inc, outc =
    Unix.open_process_args acc_exe [| "acc"; "serve"; "--no-store" |]
  in
  let one_at_a_time = Buffer.create (String.length batch) in
  List.iter
    (fun r ->
      output_string outc (r ^ "\n");
      flush outc;
      Buffer.add_string one_at_a_time (input_line inc);
      Buffer.add_char one_at_a_time '\n')
    reqs;
  close_out outc;
  ignore (Unix.close_process (inc, outc));
  Alcotest.(check bool) "10k pipelined = 10k one-at-a-time" true
    (String.equal batch (Buffer.contents one_at_a_time))

(* ------------------------------------------------------------------ *)
(* Socket concurrency: 4 clients, interleaved translate/check/lint, each
   client's response stream byte-identical to a sequential stdin session
   with the same requests — with and without injected faults. *)

let a_src = "int add(int a, int b) { return a + b; }\n"
let b_src = "unsigned bad_div(unsigned x) {\n  unsigned y;\n  y = 0u;\n  return x / y;\n}\n"

let client_requests ~a ~b i =
  [
    Printf.sprintf "translate %s" a;
    Printf.sprintf "check %s" b;
    Printf.sprintf "lint %s" b;
    Printf.sprintf "frob%d x" i;
    Printf.sprintf "check %s" a;
    Printf.sprintf "lint %s" a;
  ]

let run_socket_clients ~sock ~nclients ~reqs_of =
  let worker i =
    Domain.spawn (fun () ->
        let fd = connect sock in
        let reqs = reqs_of i in
        send_all fd (String.concat "\n" reqs ^ "\n");
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
        let ic = Unix.in_channel_of_descr fd in
        let buf = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_string buf (input_line ic);
             Buffer.add_char buf '\n'
           done
         with End_of_file -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Buffer.contents buf)
  in
  let domains = List.init nclients worker in
  List.map Domain.join domains

let check_socket_vs_stdin ~inject () =
  let a = Filename.temp_file "serve_a" ".c" in
  let b = Filename.temp_file "serve_b" ".c" in
  write_file a a_src;
  write_file b b_src;
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let extra = match inject with None -> [] | Some s -> [ "--inject"; s ] in
  let pid =
    start_server ([ "--no-store"; "--socket"; sock; "--max-inflight"; "64" ] @ extra)
  in
  wait_for_socket sock;
  let reqs_of i = client_requests ~a ~b i in
  let got = run_socket_clients ~sock ~nclients:4 ~reqs_of in
  let code = stop_server pid in
  Alcotest.(check int) "server exits 0 on SIGTERM" 0 code;
  (* References: the same request streams through sequential stdin mode.
     [--no-store] keeps per-request counters in responses at zero, so
     responses are independent of session history and interleaving. *)
  List.iteri
    (fun i out ->
      let expect = stdin_serve (String.concat "\n" (reqs_of i) ^ "\n") in
      Alcotest.(check bool)
        (Printf.sprintf "client %d byte-identical to stdin mode%s" i
           (match inject with None -> "" | Some s -> " under " ^ s))
        true (String.equal expect out))
    got;
  Sys.remove a;
  Sys.remove b

let test_socket_concurrency () = check_socket_vs_stdin ~inject:None ()

let test_socket_concurrency_faults () =
  check_socket_vs_stdin ~inject:(Some "io_error:0.05,seed:3") ()

(* ------------------------------------------------------------------ *)
(* SIGTERM drain: a client with requests in flight gets every response,
   then EOF; the server exits 0. *)

let test_sigterm_drain () =
  let a = Filename.temp_file "serve_a" ".c" in
  write_file a a_src;
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let pid = start_server [ "--no-store"; "--socket"; sock ] in
  wait_for_socket sock;
  let reqs = List.init 5 (fun _ -> Printf.sprintf "translate %s" a) in
  let fd = connect sock in
  send_all fd (String.concat "\n" reqs ^ "\n");
  (* No shutdown, no EOF: the connection is live with work queued. *)
  let ic = Unix.in_channel_of_descr fd in
  let first = input_line ic in
  Unix.kill pid Sys.sigterm;
  let rest = ref [] in
  (try
     while true do
       rest := input_line ic :: !rest
     done
   with End_of_file -> ());
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check int) "all 5 responses arrive across the drain" 5
    (1 + List.length !rest);
  List.iter
    (fun r -> Alcotest.(check string) "drained responses identical" first r)
    (List.rev !rest);
  Alcotest.(check int) "server exits 0 after drain" 0 code;
  Sys.remove a

(* ------------------------------------------------------------------ *)
(* Serve answers what the CLI prints: a front-end error reads as the
   CLI's stderr line, and `lint` reports the CLI's findings, the
   uninitialised reads included. *)

(* Run `acc ARGS`; return its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
  let code =
    shell
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote acc_exe) args (Filename.quote out)
         (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let test_frontend_errors () =
  List.iter
    (fun (what, src) ->
      let f = Filename.temp_file "serve_bad" ".c" in
      write_file f src;
      let code, _, err = run_cli ("translate " ^ Filename.quote f) in
      Alcotest.(check int) (what ^ ": CLI exits 2") 2 code;
      let resp = stdin_serve (Printf.sprintf "translate %s\n" f) in
      Alcotest.(check string) (what ^ ": serve error is the CLI's line")
        (Printf.sprintf "{\"ok\":false,\"error\":\"%s\"}\n"
           (Autocorres.Diag.json_escape (String.trim err)))
        resp;
      Sys.remove f)
    [ ("lex", "int f(void) { return 1 @ 2; }\n");
      ("parse", "int f( {");
      ("type", "int f(void) { return y; }\n") ]

let test_lint_matches_cli () =
  let f = Filename.temp_file "serve_lint" ".c" in
  write_file f "int f(int a) { int x; if (a > 0) x = 1; return x; }\n";
  let code, out, _ = run_cli ("lint " ^ Filename.quote f) in
  Alcotest.(check int) "CLI lint exits 1" 1 code;
  Alcotest.(check string) "CLI reports the uninitialised read"
    (Printf.sprintf "%s:1:41: warning: 'x' may be used uninitialised (in f)\n" f)
    out;
  let resp = stdin_serve (Printf.sprintf "lint %s\n" f) in
  Alcotest.(check string) "serve reports the same finding"
    (Printf.sprintf
       "{\"ok\":true,\"cmd\":\"lint\",\"file\":\"%s\",\"findings\":[{\"phase\":\"guard-discharge\",\"function\":\"f\",\"line\":1,\"col\":41,\"severity\":\"warning\",\"recoverable\":false,\"message\":\"'x' may be used uninitialised\"}]}\n"
       (Autocorres.Diag.json_escape f))
    resp;
  Sys.remove f

(* ------------------------------------------------------------------ *)
(* Backpressure: a pipelining client into --max-inflight 1 gets one
   response per request, overloads are the exact structured line, and
   `status` on the same connection accounts for every shed. *)

let test_shedding () =
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let pid = start_server [ "--no-store"; "--socket"; sock; "--max-inflight"; "1" ] in
  wait_for_socket sock;
  let n = 50 in
  let reqs = List.init n (fun i -> Printf.sprintf "frob%d x" i) in
  let fd = connect sock in
  send_all fd (String.concat "\n" reqs ^ "\n");
  let ic = Unix.in_channel_of_descr fd in
  let responses = List.init n (fun _ -> input_line ic) in
  let overloaded =
    List.filter (String.equal Ac_serve.Server.overloaded_response) responses
  in
  Alcotest.(check int) "one response per request" n (List.length responses);
  Alcotest.(check bool) "a flood into max-inflight 1 sheds most of itself" true
    (List.length overloaded >= n / 2);
  Alcotest.(check bool) "non-shed responses answer the request" true
    (List.exists (fun r -> r <> Ac_serve.Server.overloaded_response) responses);
  (* The flood is answered; the connection is idle again.  status must
     count every line so far (50 + itself) and every shed. *)
  send_all fd "status\n";
  let status = input_line ic in
  let has affix s = Astring.String.is_infix ~affix s in
  Alcotest.(check bool) "status counts all 51 request lines" true
    (has (Printf.sprintf "\"requests\":%d" (n + 1)) status);
  Alcotest.(check bool) "status counts the sheds" true
    (has (Printf.sprintf "\"shed\":%d" (List.length overloaded)) status);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let code = stop_server pid in
  Alcotest.(check int) "server exits 0" 0 code

(* ------------------------------------------------------------------ *)
(* PR 10: the metrics plane.  /metrics must parse as OpenMetrics and its
   counters must agree with the status verb on the data socket;
   /healthz and /readyz answer on the same port. *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path);
  let ic = Unix.in_channel_of_descr fd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let raw = Buffer.contents buf in
  match Astring.String.find_sub ~sub:"\r\n\r\n" raw with
  | Some i ->
    let head = String.sub raw 0 i in
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> int_of_string code
      | _ -> -1
    in
    (status, body)
  | None -> Alcotest.fail ("malformed HTTP response: " ^ raw)

let metrics_sample body name =
  let prefix = name ^ " " in
  List.find_map
    (fun l ->
      if Astring.String.is_prefix ~affix:prefix l then
        float_of_string_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    (String.split_on_char '\n' body)

let json_int_field line field =
  let key = Printf.sprintf "\"%s\":" field in
  match Astring.String.find_sub ~sub:key line with
  | None -> None
  | Some i ->
    let start = i + String.length key in
    let stop = ref start in
    while
      !stop < String.length line
      && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    int_of_string_opt (String.sub line start (!stop - start))

(* Many small functions, so a 5% store-I/O fault rate has entries to hit. *)
let many_src =
  String.concat ""
    (List.init 16 (fun i -> Printf.sprintf "int f%d(int a) { return a + %d; }\n" i i))

let test_metrics_endpoint () =
  let a = Filename.temp_file "serve_a" ".c" in
  write_file a many_src;
  let store = Filename.temp_file "serve_store" "" in
  Sys.remove store;
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let port = 21000 + (Unix.getpid () mod 10000) in
  let pid =
    start_server
      [ "--store"; store; "--jobs"; "2";
        "--inject"; "io_error:0.05,seed:7";
        "--socket"; sock; "--metrics-port"; string_of_int port ]
  in
  (* A failed check must not leave the server running: it would hold the
     test runner's output open. *)
  Fun.protect ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  @@ fun () ->
  wait_for_socket sock;
  let fd = connect sock in
  let ic = Unix.in_channel_of_descr fd in
  let reqs = [ "translate " ^ a; "check " ^ a; "frob x"; "translate " ^ a; "lint " ^ a ] in
  send_all fd (String.concat "\n" reqs ^ "\n");
  List.iter (fun _ -> ignore (input_line ic)) reqs;
  send_all fd "status\n";
  let status = input_line ic in
  (* the scrape runs on the same select loop, strictly after the status
     request we just read the answer to — the counters must agree *)
  let code, body = http_get port "/metrics" in
  Alcotest.(check int) "/metrics answers 200" 200 code;
  Alcotest.(check bool) "exposition is # EOF terminated" true
    (Astring.String.is_suffix ~affix:"# EOF\n" body);
  let counter name =
    match metrics_sample body name with
    | Some v -> int_of_float v
    | None -> Alcotest.fail (name ^ " missing from /metrics")
  in
  let field f =
    match json_int_field status f with
    | Some v -> v
    | None -> Alcotest.fail (f ^ " missing from status JSON")
  in
  List.iter
    (fun (f, series) ->
      Alcotest.(check int) (f ^ ": /metrics = status") (field f)
        (counter ("acc_" ^ series ^ "_total")))
    [ ("requests", "serve_requests");
      ("failures", "serve_failures");
      ("degraded", "serve_degraded");
      ("requests_over_deadline", "serve_requests_over_deadline");
      ("hits", "serve_store_hits");
      ("misses", "serve_store_misses");
      ("io_retries", "serve_store_io_retries");
      ("dropped", "trace_dropped_events") ];
  Alcotest.(check int) "6 request lines seen" 6 (field "requests");
  Alcotest.(check int) "1 bad verb failed" 1 (field "failures");
  Alcotest.(check bool) "the store was used" true (field "hits" + field "misses" > 0);
  Alcotest.(check bool) "latency histogram exposed with _sum" true
    (metrics_sample body "acc_serve_request_latency_s_sum" <> None);
  Alcotest.(check bool) "latency histogram has le buckets" true
    (Astring.String.is_infix ~affix:"acc_serve_request_latency_s_bucket{le=\"" body);
  let hcode, hbody = http_get port "/healthz" in
  Alcotest.(check int) "/healthz 200" 200 hcode;
  Alcotest.(check string) "/healthz body" "ok\n" hbody;
  let rcode, rbody = http_get port "/readyz" in
  Alcotest.(check int) "/readyz 200" 200 rcode;
  Alcotest.(check string) "/readyz body" "ready\n" rbody;
  let ncode, _ = http_get port "/nope" in
  Alcotest.(check int) "unknown path 404" 404 ncode;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let code = stop_server pid in
  Alcotest.(check int) "server exits 0" 0 code;
  Sys.remove a;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)))

(* ------------------------------------------------------------------ *)
(* PR 10: SIGTERM drain flushes an in-progress --trace file, and the
   flushed trace validates. *)

let test_sigterm_trace_flush () =
  let a = Filename.temp_file "serve_a" ".c" in
  write_file a a_src;
  let trace = Filename.temp_file "serve_trace" ".json" in
  Sys.remove trace;
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let pid = start_server [ "--no-store"; "--socket"; sock; "--trace"; trace ] in
  wait_for_socket sock;
  let fd = connect sock in
  let ic = Unix.in_channel_of_descr fd in
  send_all fd (Printf.sprintf "translate %s\ncheck %s\n" a a);
  let _ = input_line ic and _ = input_line ic in
  (* connection still open, requests answered: kill mid-session *)
  let code = stop_server pid in
  Alcotest.(check int) "server exits 0 on SIGTERM" 0 code;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "trace file flushed on drain" true (Sys.file_exists trace);
  let v =
    shell
      (Printf.sprintf "%s trace --validate %s > /dev/null 2>&1" (Filename.quote acc_exe)
         (Filename.quote trace))
  in
  Alcotest.(check int) "flushed trace passes acc trace --validate" 0 v;
  Sys.remove a;
  Sys.remove trace

(* ------------------------------------------------------------------ *)
(* PR 10: SIGUSR1 dumps the flight-recorder ring mid-flight; the dump
   validates while the server keeps serving. *)

let test_sigusr1_flight_dump () =
  let a = Filename.temp_file "serve_a" ".c" in
  write_file a a_src;
  let dump = Filename.temp_file "serve_flight" ".json" in
  Sys.remove dump;
  let sock = Filename.temp_file "serve" ".sock" in
  Sys.remove sock;
  let pid =
    start_server
      [
        "--no-store"; "--socket"; sock; "--flight-recorder"; "4096";
        "--flight-dump"; dump;
      ]
  in
  wait_for_socket sock;
  let fd = connect sock in
  let ic = Unix.in_channel_of_descr fd in
  send_all fd (Printf.sprintf "translate %s\n" a);
  let _ = input_line ic in
  Unix.kill pid Sys.sigusr1;
  (* the dump happens on the serve loop's next tick *)
  let rec wait_dump tries =
    if tries = 0 then Alcotest.fail "flight dump never appeared"
    else if
      Sys.file_exists dump
      && shell
           (Printf.sprintf "%s trace --validate %s > /dev/null 2>&1"
              (Filename.quote acc_exe) (Filename.quote dump))
         = 0
    then ()
    else (
      Unix.sleepf 0.05;
      wait_dump (tries - 1))
  in
  wait_dump 200;
  (* still serving after the dump *)
  send_all fd (Printf.sprintf "check %s\n" a);
  let resp = input_line ic in
  Alcotest.(check bool) "server alive after SIGUSR1 dump" true
    (Astring.String.is_infix ~affix:"\"ok\":true" resp);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let code = stop_server pid in
  Alcotest.(check int) "server exits 0" 0 code;
  Sys.remove a;
  (try Sys.remove dump with Sys_error _ -> ())

let suite =
  [
    Alcotest.test_case "line_buf: chunking-independent framing" `Quick
      test_line_buf_chunking;
    Alcotest.test_case "line_buf: spanning lines and EOF tail" `Quick
      test_line_buf_tail;
    Alcotest.test_case "10k pipelined requests = one-at-a-time" `Quick
      test_pipelined_batch_equivalence;
    Alcotest.test_case "4 socket clients = sequential stdin" `Quick
      test_socket_concurrency;
    Alcotest.test_case "4 socket clients = sequential stdin under 5% faults" `Quick
      test_socket_concurrency_faults;
    Alcotest.test_case "SIGTERM drains in-flight requests" `Quick test_sigterm_drain;
    Alcotest.test_case "backpressure sheds in order and is counted" `Quick
      test_shedding;
    Alcotest.test_case "/metrics parses and agrees with status" `Slow
      test_metrics_endpoint;
    Alcotest.test_case "SIGTERM drain flushes a validating --trace" `Slow
      test_sigterm_trace_flush;
    Alcotest.test_case "SIGUSR1 dumps the flight recorder mid-flight" `Slow
      test_sigusr1_flight_dump;
    Alcotest.test_case "front-end errors read as the CLI prints them" `Quick
      test_frontend_errors;
    Alcotest.test_case "lint reports the CLI's findings" `Quick test_lint_matches_cli;
  ]
