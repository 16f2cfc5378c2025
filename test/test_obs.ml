(* PR 9's observability layer: the metrics registry, the span runtime,
   and the instrumentation threaded through the driver.

   The load-bearing properties:

   - metrics are exact under concurrency: counters incremented from
     several domains lose nothing, histogram quantiles land in the
     bucket the observations actually fell in;
   - harvested span streams are well-formed — per-domain B/E events
     balance with stack discipline, timestamps are monotone per buffer,
     sequence numbers order ties — and stay well-formed under injected
     I/O errors (the [Fun.protect] in [Obs.span] is what this pins);
   - tracing is invisible in the results: a traced, fault-injected run
     produces the same observable surface as a clean untraced run;
   - per-phase profile totals harvested from pool workers match the
     sequential run unit-for-unit (the per-domain-accumulate/merge
     rework: no work dropped, none double-counted);
   - the CLI contract: `--trace` leaves stdout/stderr byte-identical,
     the emitted file passes `acc trace --validate`, and serve's
     `status`/`metrics` verbs expose the new latency/registry JSON. *)

module Obs = Ac_obs.Obs
module Metrics = Ac_obs.Metrics
module Driver = Autocorres.Driver
module Profile = Autocorres.Profile
module Pool = Autocorres.Pool
module Faults = Autocorres.Faults
module Csources = Ac_cases.Csources

let contains text needle = Astring.String.is_infix ~affix:needle text
let keep_going = { Driver.default_options with Driver.keep_going = true }

(* Every test leaves tracing the way it found it: off, empty. *)
let with_tracing f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let with_faults cfg f =
  Faults.install cfg;
  Fun.protect ~finally:Faults.clear f

(* ------------------------------------------------------------------ *)
(* Metrics units. *)

let test_metrics_counter_gauge () =
  Metrics.reset_all ();
  let c = Metrics.counter "t.requests" in
  Alcotest.(check int) "fresh counter" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  (* find-or-create returns the same instance *)
  Metrics.incr (Metrics.counter "t.requests");
  Alcotest.(check int) "same instance by name" 43 (Metrics.counter_value c);
  let g = Metrics.gauge "t.depth" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g);
  (* a name registered as one kind cannot come back as another *)
  (match Metrics.gauge "t.requests" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  let json = Metrics.to_json () in
  Alcotest.(check bool) "counter in json" true (contains json "\"t.requests\":43");
  Metrics.reset_all ();
  Alcotest.(check int) "reset_all zeroes" 0 (Metrics.counter_value c)

let test_metrics_histogram_quantiles () =
  Metrics.reset_all ();
  let h = Metrics.histogram "t.latency_s" in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Metrics.quantile h 0.5);
  (* observe 1..100 ms; quantiles are bucket midpoints (~19% buckets),
     so p50 must land near 50ms and p99 near 100ms, both within one
     bucket's slack. *)
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  let p50 = Metrics.quantile h 0.5 and p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p50=%.4f in [0.040,0.065]" p50)
    true
    (p50 >= 0.040 && p50 <= 0.065);
  Alcotest.(check bool)
    (Printf.sprintf "p99=%.4f in [0.080,0.125]" p99)
    true
    (p99 >= 0.080 && p99 <= 0.125);
  (* clamping: out-of-range observations land in the edge buckets
     rather than vanishing *)
  Metrics.observe h 0.;
  Metrics.observe h 1e9;
  Alcotest.(check int) "clamped observations counted" 102 (Metrics.hist_count h);
  Metrics.reset_all ()

let test_metrics_multidomain () =
  Metrics.reset_all ();
  let c = Metrics.counter "t.par" in
  let per = 10_000 in
  let work () =
    for _ = 1 to per do
      Metrics.incr c
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join ds;
  Alcotest.(check int) "4 domains x 10k increments, none lost" (4 * per)
    (Metrics.counter_value c);
  Metrics.reset_all ()

(* ------------------------------------------------------------------ *)
(* Span well-formedness: the checker. *)

let by_tid evs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = e.Obs.ev_tid in
      Hashtbl.replace tbl tid (e :: (Option.value ~default:[] (Hashtbl.find_opt tbl tid))))
    evs;
  Hashtbl.fold (fun tid es acc -> (tid, List.rev es) :: acc) tbl []

(* Per-domain stream discipline: seq strictly increasing, ts monotone,
   E matches the innermost open B, all spans closed at the end.  Returns
   an error description instead of asserting so the qcheck property can
   report the schedule that broke it. *)
let check_stream (tid, es) =
  let err fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "tid %d: %s" tid s)) fmt in
  let rec go stack last_seq last_ts = function
    | [] ->
      if stack = [] then None
      else err "%d span(s) left open: %s" (List.length stack) (String.concat "," stack)
    | e :: rest ->
      if e.Obs.ev_seq <= last_seq then err "seq not increasing at %s" e.Obs.ev_name
      else if not (Float.is_finite e.Obs.ev_ts) || e.Obs.ev_ts < 0. then
        err "bad ts on %s" e.Obs.ev_name
      else if e.Obs.ev_ts < last_ts then err "ts went backwards at %s" e.Obs.ev_name
      else
        let continue stack = go stack e.Obs.ev_seq e.Obs.ev_ts rest in
        (match e.Obs.ev_ph with
        | Obs.B -> continue (e.Obs.ev_name :: stack)
        | Obs.E -> (
          match stack with
          | top :: tl when String.equal top e.Obs.ev_name -> continue tl
          | top :: _ -> err "E %s does not match open B %s" e.Obs.ev_name top
          | [] -> err "E %s with no open span" e.Obs.ev_name)
        | Obs.I -> continue stack
        | Obs.X ->
          if e.Obs.ev_dur < 0. || not (Float.is_finite e.Obs.ev_dur) then
            err "X %s with bad dur" e.Obs.ev_name
          else continue stack)
  in
  go [] (-1) neg_infinity es

let check_wellformed evs =
  List.fold_left
    (fun acc stream -> match acc with Some _ -> acc | None -> check_stream stream)
    None (by_tid evs)

let test_span_nesting_unit () =
  with_tracing (fun () ->
      let v =
        Obs.with_ctx "req-1" (fun () ->
            Obs.span ~cat:"t" "outer" (fun () ->
                Obs.instant ~cat:"t" ~args:[ ("k", "v") ] "tick";
                Obs.span ~cat:"t" "inner" (fun () -> 7)))
      in
      Alcotest.(check int) "span returns f's value" 7 v;
      (* the E is emitted even when f raises *)
      (try Obs.span ~cat:"t" "raiser" (fun () -> failwith "boom") with Failure _ -> ());
      let evs = Obs.harvest () in
      Alcotest.(check (option string)) "well-formed" None (check_wellformed evs);
      Alcotest.(check int) "2 nested + 1 raising span + 1 instant = 7 events" 7
        (List.length evs);
      let names = List.map (fun e -> e.Obs.ev_name) evs in
      Alcotest.(check (list string)) "deterministic order"
        [ "outer"; "tick"; "inner"; "inner"; "outer"; "raiser"; "raiser" ] names;
      List.iter
        (fun e ->
          if e.Obs.ev_name <> "raiser" then
            Alcotest.(check (option string)) (e.Obs.ev_name ^ " carries ctx")
              (Some "req-1")
              (List.assoc_opt "ctx" e.Obs.ev_args))
        evs;
      (* export formats stay parseable-shaped *)
      let chrome = Obs.to_chrome evs in
      Alcotest.(check bool) "chrome wrapper" true
        (contains chrome "{\"traceEvents\":[" && contains chrome "\"displayTimeUnit\":\"ms\"");
      let jsonl = Obs.to_jsonl evs in
      Alcotest.(check int) "jsonl one line per event" 7
        (List.length
           (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl))))

(* ------------------------------------------------------------------ *)
(* Traced full pipeline runs: spans from driver, pool, store and
   analysis instrumentation all harvest into one well-formed stream,
   and the result is untouched. *)

let fingerprint (res : Driver.result) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun fr ->
      Buffer.add_string b fr.Driver.fr_name;
      Buffer.add_string b (Driver.level_name (Driver.level_of fr));
      Buffer.add_string b (Ac_monad.Mprint.func_to_string fr.Driver.fr_final);
      List.iter
        (fun (p, r) ->
          Buffer.add_string b p;
          Buffer.add_string b r)
        fr.Driver.fr_skipped)
    res.Driver.funcs;
  List.iter
    (fun d ->
      Buffer.add_string b d.Driver.dg_name;
      Buffer.add_string b (Driver.level_name (Driver.degraded_level d)))
    res.Driver.degraded;
  Buffer.add_string b (string_of_int res.Driver.budget_hits);
  Buffer.contents b

let fault_sources =
  [ Csources.max_c; Csources.gcd_c; Csources.counter_c; Csources.div_guarded_c ]

(* qcheck: any io-error schedule, traced, on a real multi-domain
   pool — the harvested stream is well-formed and the result matches the
   clean untraced baseline byte for byte.  [Driver.run] caps
   [options.jobs] at the hardware, so the pool is created directly
   ([Pool.create] is uncapped) to get genuine worker domains even on a
   single-core machine. *)
let prop_traced_faulted_wellformed =
  let open QCheck in
  let baselines = Hashtbl.create 8 in
  let baseline src =
    match Hashtbl.find_opt baselines src with
    | Some fp -> fp
    | None ->
      let fp = fingerprint (Driver.run ~options:keep_going src) in
      Hashtbl.add baselines src fp;
      fp
  in
  Test.make ~name:"traced faulted runs: spans well-formed, results unchanged"
    ~count:25
    (triple (int_bound 0x3FFFFFF) (int_bound 300)
       (int_bound (List.length fault_sources - 1)))
    (fun (seed, io, src_ix) ->
      let src = List.nth fault_sources src_ix in
      let expect = baseline src in
      let cfg =
        { Faults.default with Faults.seed; io_error = float_of_int io /. 1000. }
      in
      with_tracing (fun () ->
          let pool = Pool.create ~jobs:3 in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              let res =
                with_faults cfg (fun () ->
                    Obs.with_ctx "prop" (fun () ->
                        Driver.run ~options:keep_going ~pool src))
              in
              let evs = Obs.harvest () in
              (match check_wellformed evs with
              | Some e -> Test.fail_reportf "ill-formed stream: %s" e
              | None -> ());
              if evs = [] then Test.fail_report "traced run recorded no events";
              if fingerprint res <> expect then
                Test.fail_report "traced faulted result diverged from baseline";
              true)))

(* ------------------------------------------------------------------ *)
(* Satellite (a): the per-domain profile accumulators.  A pooled run
   must account for exactly the same units of work per phase as the
   sequential run — nothing dropped on worker domains, nothing
   double-counted by the merge. *)

let test_profile_pool_merge () =
  let src = Csources.max_c ^ "\n" ^ Csources.gcd_c in
  ignore (Driver.run ~options:keep_going src);
  let seq = Profile.snapshot () in
  Alcotest.(check bool) "sequential run recorded phases" true (seq <> []);
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> ignore (Driver.run ~options:keep_going ~pool src));
  let par = Profile.snapshot () in
  let calls phase entries =
    match List.find_opt (fun e -> String.equal e.Profile.phase phase) entries with
    | Some e -> e.Profile.calls
    | None -> 0
  in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "phase %s: same units of work pooled as sequential"
           e.Profile.phase)
        e.Profile.calls
        (calls e.Profile.phase par))
    seq;
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.Profile.phase ^ ": wall time recorded") true
        (e.Profile.calls = 0 || e.Profile.wall_s >= 0.))
    par;
  Alcotest.(check bool) "pooled total wall positive" true (Profile.total_wall () > 0.)

(* The registry-backed profile: calls stay exact at jobs 2, and a
   snapshot describes only the work recorded since the last [reset] —
   the registry cells keep growing underneath. *)
let test_profile_reset_baseline () =
  let src = Csources.max_c ^ "\n" ^ Csources.gcd_c in
  ignore (Driver.run ~options:keep_going src);
  let seq = Profile.snapshot () in
  let pool = Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> ignore (Driver.run ~options:keep_going ~pool src));
  let calls entries =
    List.map (fun e -> (e.Profile.phase, e.Profile.calls)) entries
  in
  Alcotest.(check (list (pair string int)))
    "jobs 2: the same calls per phase as jobs 1" (calls seq)
    (calls (Profile.snapshot ()));
  Profile.reset ();
  Alcotest.(check (list (pair string int))) "nothing since reset" []
    (calls (Profile.snapshot ()));
  Profile.record "test.phase" ignore;
  Profile.record "test.phase" ignore;
  Alcotest.(check (list (pair string int))) "only the runs since reset"
    [ ("test.phase", 2) ]
    (calls (Profile.snapshot ()));
  Profile.reset ();
  Profile.record "test.phase" ignore;
  Alcotest.(check (list (pair string int))) "a second reset starts over"
    [ ("test.phase", 1) ]
    (calls (Profile.snapshot ()))

(* ------------------------------------------------------------------ *)
(* CLI: --trace must not change a byte of output, and the trace must
   validate. *)

let acc_exe =
  let candidates =
    [
      Filename.concat (Sys.getcwd ()) "../bin/acc.exe";
      Filename.concat (Sys.getcwd ()) "_build/default/bin/acc.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_cli_trace_byte_identical () =
  let c = Filename.temp_file "obs" ".c" in
  let out_plain = Filename.temp_file "obs_plain" ".txt" in
  let err_plain = Filename.temp_file "obs_plain" ".err" in
  let out_traced = Filename.temp_file "obs_traced" ".txt" in
  let err_traced = Filename.temp_file "obs_traced" ".err" in
  let trace = Filename.temp_file "obs" ".trace.json" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ c; out_plain; err_plain; out_traced; err_traced; trace ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      write_file c Csources.gcd_c;
      let q = Filename.quote in
      let run fmt =
        Printf.ksprintf
          (fun cmd ->
            let code = Sys.command cmd in
            Alcotest.(check int) (cmd ^ " exits 0") 0 code)
          fmt
      in
      run "%s translate --no-store %s > %s 2> %s" (q acc_exe) (q c) (q out_plain)
        (q err_plain);
      run "%s translate --no-store --trace %s %s > %s 2> %s" (q acc_exe) (q trace)
        (q c) (q out_traced) (q err_traced);
      Alcotest.(check bool) "stdout byte-identical with --trace" true
        (String.equal (read_file out_plain) (read_file out_traced));
      Alcotest.(check bool) "stderr byte-identical with --trace" true
        (String.equal (read_file err_plain) (read_file err_traced));
      let t = read_file trace in
      Alcotest.(check bool) "chrome trace emitted" true
        (contains t "{\"traceEvents\":[");
      Alcotest.(check bool) "per-function span args present" true
        (contains t "\"func\":\"gcd\"");
      run "%s trace --validate %s > /dev/null 2>&1" (q acc_exe) (q trace))

(* ------------------------------------------------------------------ *)
(* Serve: status grows latency percentiles, and the metrics verb dumps
   the registry. *)

let stdin_serve reqs =
  let req = Filename.temp_file "obs_req" ".txt" in
  let out = Filename.temp_file "obs_out" ".txt" in
  write_file req reqs;
  let cmd =
    Printf.sprintf "%s serve --no-store < %s > %s 2>/dev/null" (Filename.quote acc_exe)
      (Filename.quote req) (Filename.quote out)
  in
  let code = Sys.command cmd in
  Alcotest.(check int) "stdin serve exits 0" 0 code;
  let s = read_file out in
  Sys.remove req;
  Sys.remove out;
  s

let test_serve_status_latency_and_metrics () =
  let c = Filename.temp_file "obs_serve" ".c" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove c with Sys_error _ -> ())
    (fun () ->
      write_file c "int add(int a, int b) { return a + b; }\n";
      let resp =
        stdin_serve
          (Printf.sprintf "translate %s\nlint %s\nstatus\nmetrics\n" c c)
      in
      match String.split_on_char '\n' (String.trim resp) with
      | [ r1; r2; status; metrics ] ->
        Alcotest.(check bool) "translate ok" true (contains r1 "\"ok\":true");
        Alcotest.(check bool) "lint ok" true (contains r2 "\"ok\":true");
        (* the pre-PR status fields are still there, in place... *)
        Alcotest.(check bool) "status keeps requests counter" true
          (contains status "\"requests\":3");
        (* ...and the latency summary is appended at the end *)
        Alcotest.(check bool) "status has latency percentiles" true
          (contains status "\"latency_ms\":{\"p50\":");
        Alcotest.(check bool) "status p99 present" true (contains status "\"p99\":");
        Alcotest.(check bool) "metrics verb answers" true
          (contains metrics "\"cmd\":\"metrics\"");
        Alcotest.(check bool) "registry counters exported" true
          (contains metrics "\"serve.requests\":");
        Alcotest.(check bool) "latency histogram exported" true
          (contains metrics "\"serve.request_latency_s\":{\"count\":")
      | ls -> Alcotest.fail (Printf.sprintf "expected 4 response lines, got %d" (List.length ls)))

(* ------------------------------------------------------------------ *)
(* PR 10: flight-recorder ring mode.  A bounded per-domain buffer that
   overwrites the oldest events must still harvest — after [Obs.repair]
   — into a stream the validator accepts, whatever got truncated. *)

let with_ring cap f =
  with_tracing (fun () ->
      Obs.set_ring (Some cap);
      Fun.protect ~finally:(fun () -> Obs.set_ring None) f)

let test_ring_repair_identity () =
  with_ring 64 (fun () ->
      Obs.span ~cat:"t" "outer" (fun () ->
          Obs.instant ~cat:"t" "tick";
          Obs.span ~cat:"t" "inner" (fun () -> ()));
      let evs = Obs.harvest () in
      Alcotest.(check int) "fits the ring: nothing dropped" 0 (Obs.dropped ());
      Alcotest.(check bool) "repair is the identity on balanced streams" true
        (Obs.repair evs = evs))

let test_ring_overwrite_and_closers () =
  with_ring 8 (fun () ->
      for _ = 1 to 10 do
        Obs.span ~cat:"t" "s" (fun () -> Obs.instant ~cat:"t" "i")
      done;
      (* dump mid-span: the ring has overwritten early events, and the
         still-open span needs a synthetic closer *)
      Obs.span ~cat:"t" "open" (fun () ->
          let evs = Obs.repair (Obs.harvest ()) in
          Alcotest.(check bool) "ring overwrote the oldest events" true
            (Obs.dropped () > 0);
          Alcotest.(check (option string)) "repaired dump well-formed" None
            (check_wellformed evs);
          Alcotest.(check bool) "open span closed synthetically" true
            (List.exists
               (fun e -> e.Obs.ev_ph = Obs.E && String.equal e.Obs.ev_name "open")
               evs)))

(* qcheck: any (capacity, nesting depth, workload size), dumped while a
   span is still open — the repaired harvest is well-formed per tid
   (balanced B/E with stack discipline, strictly increasing seq,
   monotone ts), and the dropped counter fires exactly when the workload
   exceeded the ring. *)
let prop_ring_harvest_wellformed =
  let open QCheck in
  Test.make ~name:"ring-mode harvest repairs to a well-formed stream" ~count:100
    (triple (int_range 2 48) (int_range 1 6) (int_range 0 40))
    (fun (cap, depth, rounds) ->
      with_ring cap (fun () ->
          let rec nest d =
            if d = 0 then Obs.instant ~cat:"t" "leaf"
            else Obs.span ~cat:"t" (Printf.sprintf "d%d" d) (fun () -> nest (d - 1))
          in
          for _ = 1 to rounds do
            nest depth
          done;
          Obs.span ~cat:"t" "live" (fun () ->
              let evs = Obs.repair (Obs.harvest ()) in
              (match check_wellformed evs with
              | Some e -> Test.fail_reportf "ill-formed repaired dump: %s" e
              | None -> ());
              let emitted = (rounds * ((2 * depth) + 1)) + 1 in
              if emitted > cap && Obs.dropped () = 0 then
                Test.fail_report "overflow did not bump the dropped counter";
              if emitted <= cap && Obs.dropped () > 0 then
                Test.fail_report "no overflow but dropped > 0";
              true)))

(* ------------------------------------------------------------------ *)
(* PR 10: the kernel observation hook.  Hooked runs must be
   byte-identical to unhooked ones — the hook counts successful rule
   applications and cannot influence a theorem. *)

let test_effort_hook_invisible () =
  let src = Csources.gcd_c ^ "\n" ^ Csources.div_guarded_c in
  let clean = fingerprint (Driver.run ~options:keep_going src) in
  Ac_kernel.Thm.set_obs_hook (Some (Ac_obs.Effort.on_rule Ac_kernel.Rules.rule_name));
  Ac_obs.Effort.set_enabled true;
  Ac_obs.Effort.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ac_obs.Effort.set_enabled false;
      Ac_kernel.Thm.set_obs_hook None;
      Ac_obs.Effort.reset ())
    (fun () ->
      let hooked = fingerprint (Driver.run ~options:keep_going src) in
      Alcotest.(check bool) "hooked run fingerprint-identical to unhooked" true
        (String.equal clean hooked);
      Alcotest.(check bool) "rule applications counted" true
        (Ac_obs.Effort.total_applications () > 0);
      let counts = Ac_obs.Effort.rule_counts () in
      Alcotest.(check int) "per-rule counts sum to the total"
        (Ac_obs.Effort.total_applications ())
        (List.fold_left (fun a (_, n) -> a + n) 0 counts);
      let rec descending = function
        | (_, a) :: ((_, b) :: _ as tl) -> a >= b && descending tl
        | _ -> true
      in
      Alcotest.(check bool) "rule_counts most-applied first" true (descending counts);
      let json = Ac_obs.Effort.snapshot_json () in
      Alcotest.(check bool) "snapshot has rule_applications" true
        (contains json "\"rule_applications\":{");
      Alcotest.(check bool) "snapshot has provenance" true
        (contains json "\"discharge_provenance\":{");
      Ac_obs.Effort.reset ();
      Alcotest.(check int) "reset zeroes the tables" 0
        (Ac_obs.Effort.total_applications ()))

(* ------------------------------------------------------------------ *)
(* PR 10: OpenMetrics text exposition.  Every sample line must parse,
   histogram buckets are cumulative with per-bucket [le] bounds ending
   in [+Inf] = count, and [_sum]/[_count] match the observations. *)

let test_openmetrics_exposition () =
  Metrics.reset_all ();
  let c = Metrics.counter "t.om_req" in
  Metrics.add c 3;
  let h = Metrics.histogram "t.om_lat" in
  List.iter (Metrics.observe h) [ 0.002; 0.004; 0.3 ];
  let text = Metrics.to_openmetrics () in
  Alcotest.(check bool) "counter TYPE header" true
    (contains text "# TYPE acc_t_om_req counter");
  Alcotest.(check bool) "counter sample as _total" true
    (contains text "acc_t_om_req_total 3");
  Alcotest.(check bool) "histogram TYPE header" true
    (contains text "# TYPE acc_t_om_lat histogram");
  Alcotest.(check bool) "_count" true (contains text "acc_t_om_lat_count 3");
  Alcotest.(check (float 1e-9)) "hist_sum API" 0.306 (Metrics.hist_sum h);
  let total = ref 0 in
  for i = 0 to Metrics.num_buckets - 1 do
    total := !total + Metrics.bucket_count h i
  done;
  Alcotest.(check int) "bucket counts sum to count" 3 !total;
  Alcotest.(check bool) "bucket bounds increase" true
    (Metrics.bucket_ub 1 > Metrics.bucket_ub 0);
  let lines = String.split_on_char '\n' text in
  (* every non-comment line is "name[{labels}] value" with a float value *)
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        match String.rindex_opt l ' ' with
        | None -> Alcotest.fail ("unparseable sample line: " ^ l)
        | Some i -> (
          match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
          | Some _ -> ()
          | None -> Alcotest.fail ("non-numeric sample value: " ^ l)))
    lines;
  let bucket_prefix = "acc_t_om_lat_bucket{le=\"" in
  let buckets =
    List.filter_map
      (fun l ->
        if Astring.String.is_prefix ~affix:bucket_prefix l then (
          let start = String.length bucket_prefix in
          let stop = String.index_from l start '"' in
          let le = String.sub l start (stop - start) in
          match String.rindex_opt l ' ' with
          | Some i ->
            Some (le, float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None)
        else None)
      lines
  in
  Alcotest.(check bool) "at least two finite buckets plus +Inf" true
    (List.length buckets >= 3);
  let rec cumulative last = function
    | [] -> true
    | (_, v) :: tl -> v >= last && cumulative v tl
  in
  Alcotest.(check bool) "bucket series cumulative" true (cumulative 0. buckets);
  (match List.rev buckets with
  | (le, v) :: (le_prev, _) :: _ ->
    Alcotest.(check string) "last bucket is +Inf" "+Inf" le;
    Alcotest.(check (float 0.)) "+Inf bucket equals count" 3. v;
    (* finite le labels round-trip to the shared bucket layout *)
    let ub = float_of_string le_prev in
    let matches_layout =
      let rec go i =
        i < Metrics.num_buckets
        && (Float.abs (Metrics.bucket_ub i -. ub) <= 1e-9 *. ub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "finite le matches bucket_ub layout" true matches_layout
  | _ -> Alcotest.fail "missing buckets");
  Metrics.reset_all ()

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "metrics: counters and gauges" `Quick test_metrics_counter_gauge;
    Alcotest.test_case "metrics: histogram quantiles" `Quick
      test_metrics_histogram_quantiles;
    Alcotest.test_case "metrics: multi-domain counters exact" `Quick
      test_metrics_multidomain;
    Alcotest.test_case "spans: nesting, ctx, exports" `Quick test_span_nesting_unit;
    QCheck_alcotest.to_alcotest prop_traced_faulted_wellformed;
    Alcotest.test_case "profile: pooled run matches sequential units" `Slow
      test_profile_pool_merge;
    Alcotest.test_case "profile: exact at jobs 2, snapshot since reset" `Slow
      test_profile_reset_baseline;
    Alcotest.test_case "cli: --trace is byte-invisible and validates" `Slow
      test_cli_trace_byte_identical;
    Alcotest.test_case "serve: status latency + metrics verb" `Slow
      test_serve_status_latency_and_metrics;
    Alcotest.test_case "ring: repair is identity on balanced streams" `Quick
      test_ring_repair_identity;
    Alcotest.test_case "ring: overwrite + synthetic closers validate" `Quick
      test_ring_overwrite_and_closers;
    QCheck_alcotest.to_alcotest prop_ring_harvest_wellformed;
    Alcotest.test_case "kernel hook: counted, invisible in results" `Slow
      test_effort_hook_invisible;
    Alcotest.test_case "openmetrics: exposition parses and adds up" `Quick
      test_openmetrics_exposition;
  ]
