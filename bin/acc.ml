(* acc — the AutoCorres command line.

     acc translate file.c            abstract a C file, print the output
     acc check file.c                re-check derivations + differential test
     acc stats file.c                Table 5-style pipeline statistics
     acc lint file.c                 report refutable UB guards (likely bugs)
     acc analyze file.c              whole-program guard report (discharged /
                                     refuted / residual), interprocedural
     acc serve                       long-lived batch mode (requests on stdin)
     acc cache stat|clear|gc         manage the persistent proof store

   Options select the paper's per-function abstraction switches, fault
   isolation (--keep-going), resource budgets (--timeout, --analysis-steps,
   --analysis-rounds, --rewrite-fuel, --summary-rounds, --summary-contexts),
   and the persistent proof store (--store DIR / $ACC_STORE / --no-store).

   Exit-code contract (kept by every subcommand, on every input):
     0  success (for lint: no findings)
     1  findings: lint warnings, a failed check, or functions that degraded
        below L2 during translation; also an unusable proof store (it is a
        structured [Diag.Error], not an internal error)
     2  usage or input errors (unreadable file, parse or type error) and
        internal errors — always a one-line diagnostic, never a stack trace. *)

open Cmdliner
module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Faults = Autocorres.Faults
module Store = Ac_store.Store
module Obs = Ac_obs.Obs
module Session = Ac_serve.Session

(* Usage errors: one-line diagnostic on stderr, exit 2. *)
let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* Budget values: a count must be a non-negative integer and a deadline a
   finite non-negative number of seconds ([nan] compares false against
   every clock reading, so it would silently switch the deadline off).
   A violation is a command-line error like any other. *)
let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let count = checked Arg.int (fun n -> n >= 0) "a non-negative integer"

let seconds =
  checked Arg.float (fun x -> Float.is_finite x && x >= 0.) "a finite non-negative number"

(* A malformed fault spec is a usage error: silently injecting nothing
   would defeat a soak. *)
let parse_faults ~what spec =
  match Faults.parse spec with Ok cfg -> cfg | Error m -> usage_error "%s: %s" what m

(* The last line of defence for the exit-code contract: anything a command
   body lets escape is an internal error — one line on stderr, exit 2,
   never cmdliner's uncaught-exception dump.  Both fatal paths dump a
   serve session's flight recorder, if armed. *)
let protect (f : unit -> unit) () =
  match f () with
  | () -> ()
  | exception Diag.Error d ->
    Session.dump_flight ();
    prerr_endline (Diag.to_string d);
    exit 1
  | exception e ->
    Session.dump_flight ();
    Printf.eprintf "acc: internal error: %s\n%!" (Diag.message_of_exn e);
    exit 2

let read_file path =
  if not (Sys.file_exists path) then usage_error "acc: %s: no such file" path;
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> s
  | exception Sys_error m -> usage_error "acc: %s" m

let options_of ?(no_discharge = false) ?(no_interproc = false) ?(keep_going = false)
    ?(budgets = Driver.default_budgets) ?(jobs = 1) ~no_heap ~no_word ~keep_low () =
  {
    Driver.defaults =
      {
        Driver.word_abs = not no_word;
        heap_abs = not no_heap;
        discharge_guards = not no_discharge;
      };
    overrides =
      List.map
        (fun f ->
          ( f,
            {
              Driver.word_abs = false;
              heap_abs = false;
              discharge_guards = not no_discharge;
            } ))
        keep_low;
    strategy = Autocorres.Wa.default_strategy;
    polish = true;
    keep_going;
    budgets;
    jobs = max 1 jobs;
    interproc = not no_interproc;
    summary_profile = false;
  }

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"C source file")

(* translate accepts several files (one run each, same options/store) so
   a whole corpus can be traced into one file: `acc translate --trace
   t.json corpus/*.c`.  With a single file the behaviour is unchanged. *)
let files_arg =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source file(s)")

(* ------------------------------------------------------------------ *)
(* The persistent proof store (--store DIR / $ACC_STORE / --no-store). *)

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent proof store: reuse the per-function search results \
           (summary walks, discharge certificates) across runs.  Every \
           certificate is checked by the kernel, so the store is never \
           trusted.  Defaults to \\$ACC_STORE when set.")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:"Ignore --store and \\$ACC_STORE; translate from scratch")

(* Resolve the store handle.  An unusable store directory is a structured
   diagnostic (exit 1 via [protect]), not an internal error: the store is
   part of the user's configuration, and the failure mode must match the
   exit contract. *)
let store_of ~store_dir ~no_store : Store.t option =
  let dir =
    if no_store then None
    else
      match store_dir with Some d -> Some d | None -> Sys.getenv_opt "ACC_STORE"
  in
  match dir with
  | None -> None
  | Some d -> (
    match Store.open_ ~dir:d () with
    | Ok st -> Some st
    | Error m -> raise (Diag.Error (Diag.make ~severity:Diag.Error Diag.Store m)))

(* ------------------------------------------------------------------ *)
(* Tracing (--trace FILE on translate/check/analyze/serve, `acc trace`).

   Tracing is observation only: enabling it changes no output byte —
   the CLI/serve tests and ci.sh byte-compare traced vs untraced runs.
   The trace file is written from [at_exit] because subcommands exit
   directly (e.g. translate exits 1 on degraded functions) and the trace
   must cover those paths too. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the run (per-function pipeline phases, \
           pool tasks, store I/O, serve request lifecycle) and \
           write it to $(docv) on exit.  Chrome trace_event JSON by default \
           (open in about:tracing or Perfetto); see --trace-format.  Output \
           bytes are identical with or without tracing.")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,chrome) (trace_event JSON) or $(b,jsonl) \
              (one event object per line, for streaming consumers)")

let setup_trace trace format =
  match trace with
  | None -> ()
  | Some path ->
    Obs.set_enabled true;
    at_exit (fun () -> Obs.write_trace ~format path)

let no_heap =
  Arg.(value & flag & info [ "no-heap-abs" ] ~doc:"Disable heap abstraction (Sec 4)")

let no_word =
  Arg.(value & flag & info [ "no-word-abs" ] ~doc:"Disable word abstraction (Sec 3)")

let no_discharge =
  Arg.(
    value & flag
    & info [ "no-discharge" ]
        ~doc:"Disable the abstract-interpretation guard-discharge pass")

let no_interproc =
  Arg.(
    value & flag
    & info [ "no-interproc" ]
        ~doc:
          "Disable interprocedural summaries: guard discharge and analysis \
           become purely intraprocedural (the pre-summary behaviour)")

let keep_low =
  Arg.(
    value & opt_all string []
    & info [ "keep-low-level" ] ~docv:"FUNC"
        ~doc:"Keep $(docv) in the byte-level model (callable via exec_concrete)")

let keep_going =
  Arg.(
    value & flag
    & info [ "keep-going"; "k" ]
        ~doc:
          "Fault isolation: degrade failing functions to their last certified \
           level (WA, HL, L2, L1, Simpl-only) and keep translating the rest of \
           the unit.  Exit 1 when any function fell below L2.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Translate functions on $(docv) worker domains.  Output is \
           byte-identical to sequential mode at any value: results keep \
           input order and the first failure (in input order) wins.")

let diag_json =
  Arg.(
    value & flag
    & info [ "diag-json" ]
        ~doc:
          "Machine output: print a JSON object with per-function levels and \
           all diagnostics to stdout instead of the translated program")

(* Budget flags: one term producing a [Driver.budgets]. *)
let budgets_term =
  let analysis_rounds =
    Arg.(
      value
      & opt count Driver.default_budgets.Driver.analysis_rounds
      & info [ "analysis-rounds" ] ~docv:"N"
          ~doc:"Analysis budget: widen/join rounds per loop")
  in
  let analysis_steps =
    Arg.(
      value
      & opt count Driver.default_budgets.Driver.analysis_steps
      & info [ "analysis-steps" ] ~docv:"N"
          ~doc:"Analysis budget: fixpoint iterations per analysed function")
  in
  let rewrite_fuel =
    Arg.(
      value
      & opt count Driver.default_budgets.Driver.rewrite_fuel
      & info [ "rewrite-fuel" ] ~docv:"N"
          ~doc:"Rewrite budget: head rewrites per kernel normalize call")
  in
  let timeout =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Wall-clock deadline for the guard analysis, per analysed \
             function; exhaustion keeps the guard instead of hanging")
  in
  let summary_rounds =
    Arg.(
      value
      & opt count Driver.default_budgets.Driver.summary_rounds
      & info [ "summary-rounds" ] ~docv:"N"
          ~doc:
            "Interprocedural budget: context-refinement rounds of the \
             summary engine (each re-walks only the call-graph SCCs a new \
             context reaches)")
  in
  let summary_contexts =
    Arg.(
      value
      & opt count Driver.default_budgets.Driver.summary_contexts
      & info [ "summary-contexts" ] ~docv:"N"
          ~doc:"Interprocedural budget: refined summary contexts per callee")
  in
  let mk analysis_rounds analysis_steps rewrite_fuel summary_rounds summary_contexts timeout =
    {
      Driver.analysis_rounds;
      analysis_steps;
      analysis_deadline_s = timeout;
      rewrite_fuel;
      summary_rounds;
      summary_contexts;
    }
  in
  Term.(
    const mk $ analysis_rounds $ analysis_steps $ rewrite_fuel $ summary_rounds
    $ summary_contexts $ timeout)

let stage =
  Arg.(
    value
    & opt (enum [ ("simpl", `Simpl); ("l1", `L1); ("l2", `L2); ("final", `Final) ]) `Final
    & info [ "stage" ] ~doc:"Which representation to print: simpl, l1, l2 or final")

let func_filter =
  Arg.(
    value & opt (some string) None
    & info [ "func" ] ~docv:"NAME" ~doc:"Print only this function")

let with_funcs res func_filter f =
  List.iter
    (fun fr ->
      match func_filter with
      | Some name when name <> fr.Driver.fr_name -> ()
      | _ -> f fr)
    res.Driver.funcs

(* Front-end errors carry positions; render them the way compilers do, on
   stderr, and exit 2 (a problem with the input, not a finding). *)
let run_frontend ?store ?pool ~file ~options source =
  match Driver.run ~options ?store ?pool source with
  | res -> res
  | exception e -> (
    match Diag.frontend_error ~file e with Some m -> usage_error "%s" m | None -> raise e)

let translate files no_heap no_word no_discharge no_interproc keep_low stage func_filter
    keep_going diag_json budgets jobs store_dir no_store trace trace_format =
  setup_trace trace trace_format;
  let options =
    options_of ~no_discharge ~no_interproc ~keep_going ~budgets ~jobs ~no_heap ~no_word
      ~keep_low ()
  in
  let store = store_of ~store_dir ~no_store in
  let any_degraded = ref false in
  List.iter
    (fun file ->
      let source = read_file file in
      let res = run_frontend ?store ~file ~options source in
      if diag_json then print_endline (Session.result_json ~file res)
      else begin
        with_funcs res func_filter (fun fr ->
            (match stage with
            | `Simpl -> print_endline (Ac_simpl.Print.func_to_string fr.Driver.fr_simpl)
            | `L1 -> print_endline (Ac_monad.Mprint.func_to_string fr.Driver.fr_l1)
            | `L2 -> print_endline (Ac_monad.Mprint.func_to_string fr.Driver.fr_l2)
            | `Final -> print_endline (Ac_monad.Mprint.func_to_string fr.Driver.fr_final));
            List.iter
              (fun (phase, why) -> Printf.printf "  (%s skipped: %s)\n" phase why)
              fr.Driver.fr_skipped);
        List.iter
          (fun (d : Driver.degraded) ->
            match func_filter with
            | Some name when name <> d.Driver.dg_name -> ()
            | _ ->
              Printf.printf "/* %s: degraded to %s */\n" d.Driver.dg_name
                (Driver.level_name (Driver.degraded_level d)))
          res.Driver.degraded;
        (* Diagnostics go to stderr, compiler-style. *)
        List.iter (fun d -> prerr_endline (Diag.to_string ~file d)) res.Driver.diags
      end;
      if res.Driver.degraded <> [] then any_degraded := true)
    files;
  if !any_degraded then exit 1

let check file no_heap no_word no_discharge no_interproc keep_low keep_going budgets
    cases jobs store_dir no_store trace trace_format =
  setup_trace trace trace_format;
  let source = read_file file in
  let options =
    options_of ~no_discharge ~no_interproc ~keep_going ~budgets ~jobs ~no_heap ~no_word
      ~keep_low ()
  in
  let store = store_of ~store_dir ~no_store in
  let res = run_frontend ?store ~file ~options source in
  (* In an audit run, a store entry that had to be rejected (unreadable,
     corrupt, stale) is itself a finding: report it structured and exit 1,
     even though the translation degraded gracefully past it. *)
  let store_problems =
    List.filter (fun (d : Diag.t) -> d.Diag.d_phase = Diag.Store) res.Driver.diags
  in
  List.iter (fun d -> prerr_endline (Diag.to_string ~file d)) store_problems;
  (match Driver.check_all res with
  | Ok () -> Printf.printf "kernel: all refinement derivations re-validated\n"
  | Error e ->
    Printf.printf "kernel: FAILED (%s)\n" e;
    exit 1);
  let report = Autocorres.Refine_test.check_program ~cases res in
  Printf.printf
    "differential test: %d cases, %d agree, %d abstraction-failed (no claim), %d skipped\n"
    report.Autocorres.Refine_test.cases report.Autocorres.Refine_test.agreed
    report.Autocorres.Refine_test.abstract_failed report.Autocorres.Refine_test.skipped;
  (match report.Autocorres.Refine_test.violations with
  | [] -> ()
  | (f, d) :: _ ->
    Printf.printf "VIOLATION in %s: %s\n" f d;
    exit 1);
  if res.Driver.degraded <> [] then begin
    List.iter
      (fun (d : Driver.degraded) ->
        Printf.printf "degraded: %s at %s\n" d.Driver.dg_name
          (Driver.level_name (Driver.degraded_level d)))
      res.Driver.degraded;
    exit 1
  end;
  if store_problems <> [] then exit 1

let stats file profile profile_json jobs store_dir no_store =
  let source = read_file file in
  (* Run the front end once under [run_frontend] so lexical/parse/type
     errors render compiler-style and exit 2 before measuring. *)
  let options =
    { Driver.default_options with
      Driver.keep_going = true;
      jobs = max 1 jobs;
      (* The summary columns cost two extra analysis passes per function,
         so they are only measured when the profile is requested. *)
      summary_profile = profile || profile_json }
  in
  let store = store_of ~store_dir ~no_store in
  let (_ : Driver.result) = run_frontend ~file ~options source in
  (* Proof-effort accounting for the profile, armed after the probe run
     above so the profile counts exactly one measured translation. *)
  if profile || profile_json then Ac_stats.arm_effort ();
  let row, res =
    Ac_stats.measure ~options ?store ~name:(Filename.basename file) source
  in
  (* Include derivation checking in the profile, as in a full audit run. *)
  if profile || profile_json then ignore (Driver.check_all res);
  if profile_json then print_endline (Autocorres.Profile.to_json ())
  else begin
    print_string
      (Ac_stats.render_table ~header:Ac_stats.table5_header
         [ Ac_stats.row_to_strings row ]);
    if profile then print_string (Ac_stats.profile_report res)
  end

let print_finding ~file ~severity (f : Ac_analysis.finding) =
  let where =
    match f.Ac_analysis.lf_pos with
    | Some p -> Printf.sprintf "%s:%d:%d" file p.Ac_cfront.Ast.line p.Ac_cfront.Ast.col
    | None -> file
  in
  let kind =
    match f.Ac_analysis.lf_kind with
    | Some k -> Printf.sprintf " [%s]" (Ac_simpl.Ir.guard_kind_name k)
    | None -> ""
  in
  Printf.printf "%s: %s: %s%s (in %s)\n" where (Diag.severity_name severity)
    f.Ac_analysis.lf_msg kind f.Ac_analysis.lf_func

(* `acc lint`: replay the guard analysis and report refuted guards (these
   executions would dereference NULL, divide by zero, ... — likely UB) plus
   possibly-uninitialised reads, with positions from the front end.  Exit 1
   when there are findings, 0 otherwise. *)
let lint file no_heap no_word no_interproc keep_low jobs store_dir no_store =
  let source = read_file file in
  let options =
    options_of ~no_interproc ~keep_going:true ~jobs ~no_heap ~no_word ~keep_low ()
  in
  let store = store_of ~store_dir ~no_store in
  let res = run_frontend ?store ~file ~options source in
  let findings = Session.lint_findings res in
  List.iter (print_finding ~file ~severity:Diag.Warning) findings;
  if findings <> [] then exit 1;
  Printf.printf "%s: no findings\n" file

(* `acc analyze`: the whole-program static-analysis report.  Every guard
   the C parser emitted is classified — discharged (proven impossible,
   removed under a kernel-checked certificate), refuted (the analysis
   found executions that reach the fault: likely UB, a warning), or
   residual (neither: the proof obligation the verification engineer
   keeps).  Exit 0 when nothing was refuted, 1 on refuted findings,
   2 on input/internal errors. *)
let analyze file no_heap no_word no_interproc keep_low budgets jobs json store_dir
    no_store trace trace_format =
  setup_trace trace trace_format;
  let source = read_file file in
  let options =
    options_of ~no_interproc ~keep_going:true ~budgets ~jobs ~no_heap ~no_word ~keep_low
      ()
  in
  let store = store_of ~store_dir ~no_store in
  let res = run_frontend ?store ~file ~options source in
  let lenv = res.Driver.ctx.Ac_kernel.Rules.lenv in
  let sums = res.Driver.sums in
  let rows =
    List.map
      (fun fr ->
        let src = Ac_stats.ir_guard_count fr.Driver.fr_simpl.Ac_simpl.Ir.body in
        let kept = Ac_analysis.guard_count fr.Driver.fr_l2.Ac_monad.M.body in
        let sv =
          Ac_analysis.survey_func lenv ~simpl:fr.Driver.fr_simpl ~sums fr.Driver.fr_l2
        in
        (fr.Driver.fr_name, src, max 0 (src - kept), sv))
      res.Driver.funcs
  in
  (* Severity ranking: refuted first (likely UB), then residual; each group
     in deterministic position order. *)
  let refuted =
    Ac_analysis.sort_findings
      (List.concat_map (fun (_, _, _, sv) -> sv.Ac_analysis.sv_refuted) rows)
  in
  let residual =
    Ac_analysis.sort_findings
      (List.concat_map (fun (_, _, _, sv) -> sv.Ac_analysis.sv_residual) rows)
  in
  let guards = List.fold_left (fun acc (_, src, _, _) -> acc + src) 0 rows in
  let discharged = List.fold_left (fun acc (_, _, d, _) -> acc + d) 0 rows in
  if json then begin
    let fn (name, src, d, sv) =
      Printf.sprintf
        "{\"name\":\"%s\",\"guards\":%d,\"discharged\":%d,\"refuted\":%d,\"residual\":%d}"
        (Diag.json_escape name) src d
        (List.length sv.Ac_analysis.sv_refuted)
        (List.length sv.Ac_analysis.sv_residual)
    in
    let findings =
      List.map (Session.diag_of_finding ~severity:Diag.Warning) refuted
      @ List.map (Session.diag_of_finding ~severity:Diag.Note) residual
    in
    print_endline
      (Printf.sprintf
         "{\"file\":\"%s\",\"summary\":{\"guards\":%d,\"discharged\":%d,\"refuted\":%d,\"residual\":%d},\"functions\":[%s],\"findings\":%s,\"degraded\":%d,\"budget_exhaustions\":%d}"
         (Diag.json_escape file) guards discharged (List.length refuted)
         (List.length residual)
         (String.concat "," (List.map fn rows))
         (Diag.list_to_json findings)
         (List.length res.Driver.degraded)
         res.Driver.budget_hits)
  end
  else begin
    Printf.printf "%s: %d guards: %d discharged (%.0f%%), %d refuted, %d residual\n"
      file guards discharged
      (if guards = 0 then 100.0
       else 100.0 *. float_of_int discharged /. float_of_int guards)
      (List.length refuted) (List.length residual);
    List.iter (print_finding ~file ~severity:Diag.Warning) refuted;
    List.iter (print_finding ~file ~severity:Diag.Note) residual;
    List.iter
      (fun (d : Driver.degraded) ->
        Printf.printf "%s: note: %s degraded to %s (not analysed)\n" file
          d.Driver.dg_name
          (Driver.level_name (Driver.degraded_level d)))
      res.Driver.degraded
  end;
  if refuted <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* `acc serve`: the long-lived batch mode of [Ac_serve.Session], over
   stdin or, with --socket/--tcp, many concurrent clients.  `--connect
   PATH` turns the binary into a pipelining line client for shell
   scripts instead. *)
let serve jobs request_timeout inject store_dir no_store socket_path tcp_port
    max_inflight connect_path trace trace_format metrics_port flight_recorder
    flight_dump_path slow_ms slow_log =
  (match connect_path with
  | Some path -> exit (Ac_serve.Client.run ~path)
  | None -> ());
  if metrics_port <> None && socket_path = None && tcp_port = None then
    usage_error "acc serve: --metrics-port requires socket mode (--socket or --tcp)";
  (match flight_recorder with
  | Some n when n <= 0 -> usage_error "acc serve: --flight-recorder: N must be positive"
  | _ -> ());
  let faults = Option.map (parse_faults ~what:"acc serve") inject in
  setup_trace trace trace_format;
  let cfg =
    { Session.jobs = max 1 jobs; request_timeout; faults;
      store = store_of ~store_dir ~no_store; socket_path; tcp_port; max_inflight;
      metrics_port; trace; trace_format; flight_recorder; flight_dump_path; slow_ms;
      slow_log }
  in
  match Session.run cfg with Ok () -> () | Error m -> usage_error "acc serve: %s" m

(* `acc cache stat|clear|gc|doctor`: maintenance of the persistent proof
   store.  gc and doctor take the store lock (so they never race a
   concurrent writer destructively) and honour the tmp-file grace window
   (so they never delete an in-flight write). *)
let cache action store_dir max_entries grace purge =
  let dir =
    match store_dir with Some d -> Some d | None -> Sys.getenv_opt "ACC_STORE"
  in
  match dir with
  | None -> usage_error "acc cache: no store directory (use --store DIR or $ACC_STORE)"
  | Some dir -> (
    let or_die = function
      | Ok v -> v
      | Error m -> raise (Diag.Error (Diag.make ~severity:Diag.Error Diag.Store m))
    in
    match action with
    | `Stat ->
      let s = or_die (Store.stat ~dir) in
      Printf.printf "%s: %d entries, %d bytes\n" dir s.Store.entries s.Store.bytes
    | `Clear ->
      let n = or_die (Store.clear ~dir) in
      Printf.printf "%s: removed %d entries\n" dir n
    | `Gc ->
      let n = or_die (Store.gc ?grace_s:grace ~dir ~max_entries ()) in
      Printf.printf "%s: removed %d entries (kept newest %d)\n" dir n max_entries
    | `Doctor ->
      let r = or_die (Store.doctor ?grace_s:grace ~purge ~dir ()) in
      Printf.printf
        "%s: scanned %d entries: %d ok, %d corrupt (quarantined), %d orphaned tmp \
         files quarantined; %d files in quarantine%s\n"
        dir r.Store.dr_scanned r.Store.dr_ok r.Store.dr_quarantined
        r.Store.dr_tmp_quarantined r.Store.dr_quarantine_files
        (if purge then Printf.sprintf " (purged %d)" r.Store.dr_purged else ""))

(* ------------------------------------------------------------------ *)
(* `acc trace`: run a traced translation over one or more files and write
   the merged trace, or validate an existing trace file
   (`--validate TRACE`).  The validator is deliberately self-contained —
   it checks the structural invariants a trace viewer relies on
   (balanced B/E per thread, monotone timestamps, integer pid/tid) over
   the one-event-per-line format this binary emits, so ci.sh needs no
   external JSON tooling. *)

let find_sub (s : string) (pat : string) : int option =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1)
  in
  go 0

(* Raw value text after ["key":], up to the next [,}] — fields this
   binary emits in fixed order ahead of the free-form [args] object, so
   the first match is the real field. *)
let field_raw line key =
  match find_sub line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
    let start = i + String.length key + 3 in
    let rec stop j =
      if j >= String.length line then j
      else match line.[j] with ',' | '}' -> j | _ -> stop (j + 1)
    in
    Some (String.sub line start (stop start - start))

let field_str line key =
  match field_raw line key with
  | Some v
    when String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"' ->
    Some (String.sub v 1 (String.length v - 2))
  | _ -> None

let validate_trace path =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("acc trace: invalid trace: " ^ m);
        exit 1)
      fmt
  in
  let lines = String.split_on_char '\n' (read_file path) in
  let is_event l =
    String.length l > 7 && String.sub l 0 8 = "{\"name\":"
  in
  let events = List.filter is_event lines in
  if events = [] then fail "no events in %s" path;
  (* Per-tid span stack (B pushes, E must match the top) and last
     timestamp (must be monotone per tid — events within a tid are in
     buffer order). *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let tids = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      let name =
        match field_str line "name" with
        | Some n -> n
        | None -> fail "line %d: missing name" ln
      in
      let ph =
        match field_str line "ph" with
        | Some p -> p
        | None -> fail "line %d: missing ph" ln
      in
      let int_field key =
        match field_raw line key with
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ -> fail "line %d: bad %s %S" ln key v)
        | None -> fail "line %d: missing %s" ln key
      in
      let pid = int_field "pid" in
      ignore pid;
      let tid = int_field "tid" in
      Hashtbl.replace tids tid ();
      let ts =
        match Option.bind (field_raw line "ts") float_of_string_opt with
        | Some t when t >= 0. && Float.is_finite t -> t
        | _ -> fail "line %d: bad ts" ln
      in
      (match Hashtbl.find_opt last_ts tid with
      | Some r ->
        if ts < !r then fail "line %d: ts not monotone on tid %d" ln tid;
        r := ts
      | None -> Hashtbl.add last_ts tid (ref ts));
      let stack =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks tid s;
          s
      in
      match ph with
      | "B" -> stack := name :: !stack
      | "E" -> (
        match !stack with
        | top :: rest ->
          if top <> name then
            fail "line %d: E %S does not match open span %S on tid %d" ln name top tid;
          stack := rest
        | [] -> fail "line %d: E %S with no open span on tid %d" ln name tid)
      | "i" | "I" -> ()
      | "X" -> (
        match Option.bind (field_raw line "dur") float_of_string_opt with
        | Some d when d >= 0. && Float.is_finite d -> ()
        | _ -> fail "line %d: X event with bad dur" ln)
      | other -> fail "line %d: unknown ph %S" ln other)
    events;
  Hashtbl.iter
    (fun tid s ->
      match !s with
      | [] -> ()
      | top :: _ -> fail "unbalanced trace: span %S still open on tid %d" top tid)
    stacks;
  Printf.printf "%s: OK: %d events, %d threads\n" path (List.length events)
    (Hashtbl.length tids)

let trace_run files out format jobs validate =
  match validate with
  | Some tpath -> validate_trace tpath
  | None ->
    if files = [] then
      usage_error "acc trace: no input files (or use --validate TRACE)";
    let out =
      match out with
      | Some o -> o
      | None -> usage_error "acc trace: --out FILE required"
    in
    Obs.set_enabled true;
    let options =
      options_of ~keep_going:true ~jobs ~no_heap:false ~no_word:false ~keep_low:[] ()
    in
    let funcs = ref 0 in
    List.iter
      (fun file ->
        let source = read_file file in
        Obs.with_ctx (Filename.basename file) @@ fun () ->
        let res = run_frontend ~file ~options source in
        funcs := !funcs + List.length res.Driver.funcs)
      files;
    let evs = Obs.harvest () in
    Obs.write_trace ~format out;
    Printf.printf "trace: %d file(s), %d function(s), %d event(s) -> %s\n"
      (List.length files) !funcs (List.length evs) out

(* ------------------------------------------------------------------ *)
(* `acc effort`: translate FILE(s) with proof-effort accounting armed and
   report where the kernel's work went — per-rule application counts,
   refinement-chain shapes, guard-discharge provenance.  The kernel
   observation hook is installed from outside the kernel; the
   translation output itself is byte-identical to an unhooked run (ci.sh
   asserts it). *)
let effort_run files json jobs store_dir no_store =
  if files = [] then usage_error "acc effort: no input files";
  Ac_stats.arm_effort ();
  let options =
    options_of ~keep_going:true ~jobs ~no_heap:false ~no_word:false ~keep_low:[] ()
  in
  let store = store_of ~store_dir ~no_store in
  List.iter
    (fun file ->
      let source = read_file file in
      let (_ : Driver.result) = run_frontend ?store ~file ~options source in
      ())
    files;
  print_string (Ac_stats.effort_report ~json ~files:(List.length files))

(* Wrap a fully-applied command body in [protect], keeping cmdliner's
   n-ary term application readable. *)
let protected term = Term.(const protect $ term $ const ())

let translate_cmd =
  Cmd.v
    (Cmd.info "translate" ~doc:"Abstract a C file and print the result")
    (protected
       Term.(
         const (fun a b c d e f g h i j k l m n o p () ->
             translate a b c d e f g h i j k l m n o p)
         $ files_arg $ no_heap $ no_word $ no_discharge $ no_interproc $ keep_low $ stage
         $ func_filter $ keep_going $ diag_json $ budgets_term $ jobs $ store_dir_arg
         $ no_store_arg $ trace_arg $ trace_format_arg))

let check_cmd =
  let cases =
    Arg.(value & opt int 100 & info [ "cases" ] ~doc:"Differential test cases per function")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Re-validate derivations and differential-test the abstraction")
    (protected
       Term.(
         const (fun a b c d e f g h i j k l m n () ->
             check a b c d e f g h i j k l m n)
         $ file_arg $ no_heap $ no_word $ no_discharge $ no_interproc $ keep_low
         $ keep_going $ budgets_term $ cases $ jobs $ store_dir_arg
         $ no_store_arg $ trace_arg $ trace_format_arg))

let stats_cmd =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Also print per-phase wall-clock and allocation counters \
             (cumulative across worker domains)")
  in
  let profile_json =
    Arg.(
      value & flag
      & info [ "profile-json" ]
          ~doc:"Print the per-phase profile as JSON instead of the tables")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pipeline statistics (Table 5 metrics)")
    (protected
       Term.(
         const (fun a b c d e f () -> stats a b c d e f)
         $ file_arg $ profile $ profile_json $ jobs $ store_dir_arg $ no_store_arg))

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Report statically refutable UB guards and uninitialised reads")
    (protected
       Term.(
         const (fun a b c d e f g h () -> lint a b c d e f g h)
         $ file_arg $ no_heap $ no_word $ no_interproc $ keep_low $ jobs $ store_dir_arg
         $ no_store_arg))

let analyze_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine output: one JSON object with the summary, per-function \
             counts and --diag-json-shaped findings")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Whole-program guard report: every parser-emitted UB guard classified \
          as discharged (proven impossible, kernel-checked), refuted (likely \
          UB) or residual (left for the verification engineer).  Exit 0 when \
          nothing is refuted, 1 on refuted findings, 2 on input errors.")
    (protected
       Term.(
         const (fun a b c d e f g h i j k l () -> analyze a b c d e f g h i j k l)
         $ file_arg $ no_heap $ no_word $ no_interproc $ keep_low $ budgets_term $ jobs
         $ json $ store_dir_arg $ no_store_arg $ trace_arg $ trace_format_arg))

let serve_cmd =
  let request_timeout =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "request-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request wall-clock deadline: installed as the guard analysis's \
             per-function deadline (it keeps the guard instead of hanging) and \
             watched by a monotonic clock — overruns are counted in `status`, \
             never killed")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection for soak testing, e.g. \
             'io_error:0.05,slow:0.01,seed:42' (transient store and socket I/O \
             errors, request stalls).  Overrides \\$ACC_FAULTS.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve many concurrent clients over a Unix-domain socket at $(docv) \
             instead of stdin.  Each connection is newline-framed exactly like \
             stdin mode; all connections share one bounded scheduler.  A stale \
             socket file left by a dead server is replaced.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Also (or instead) listen on 127.0.0.1:$(docv).  Loopback only — \
             the server speaks an unauthenticated local protocol.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Backpressure bound for socket mode: at most $(docv) requests \
             queued or executing across all connections; beyond that, requests \
             are shed with {\"ok\":false,\"error\":\"overloaded\"} in request \
             order rather than buffered without bound.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Client mode: relay stdin to the socket server at $(docv) and its \
             responses to stdout (a pipelining line client, so shell scripts \
             need no socat/netcat).  Exits when the server has answered \
             everything and closed the connection.")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve an OpenMetrics/Prometheus scrape endpoint on \
             127.0.0.1:$(docv): GET /metrics (counters, gauges, latency \
             histograms, proof-effort series), /healthz (liveness), /readyz \
             (store lock reachable, worker pool healthy).  Handled by the \
             same select loop as request traffic — request output stays \
             byte-identical whether or not anyone scrapes.  Socket mode \
             only.")
  in
  let flight_recorder_arg =
    Arg.(
      value
      & opt ~vopt:(Some 65536) (some int) None
      & info [ "flight-recorder" ] ~docv:"N"
          ~doc:
            "Keep the last $(docv) trace events per domain in a bounded ring \
             (overwrite-oldest, default 65536) instead of unbounded buffers, \
             and dump them on SIGUSR1, on a --request-timeout overrun, and on \
             fatal exit.  Dumps are truncation-repaired, so they always pass \
             `acc trace --validate`.")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Where --flight-recorder writes its dumps (default \
             acc-flight-<pid>.json, in --trace-format)")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request threshold: requests taking longer than $(docv) \
             milliseconds append a structured JSONL record (rid, verb, \
             latency, queue wait, store hits/misses, degraded count) to the \
             --slow-log file (default 1000 when only --slow-log is given)")
  in
  let slow_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:
            "Slow-request log file, appended and flushed per record (default \
             acc-slow.jsonl when only --slow-ms is given)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived batch mode: read newline-delimited requests (translate FILE, \
          check FILE, lint FILE, status) from stdin — or from many concurrent \
          socket clients with --socket/--tcp — and answer each with one JSON \
          line, keeping the proof store and worker pool warm.  \
          SIGINT/SIGTERM drain in-flight requests across all connections and \
          exit 0.")
    (protected
       Term.(
         const (fun a b c d e f g h i j k l m n o p () ->
             serve a b c d e f g h i j k l m n o p)
         $ jobs $ request_timeout $ inject $ store_dir_arg $ no_store_arg
         $ socket_arg $ tcp_arg $ max_inflight_arg $ connect_arg $ trace_arg
         $ trace_format_arg $ metrics_port_arg $ flight_recorder_arg
         $ flight_dump_arg $ slow_ms_arg $ slow_log_arg))

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the merged trace")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"TRACE"
          ~doc:
            "Instead of running anything, check that $(docv) is a well-formed \
             trace: every begin has a matching end on its thread, timestamps \
             are monotone per thread, pids/tids are valid.  Exit 0 when OK, 1 \
             otherwise.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced translation over FILE(s) and write the merged trace \
          (Chrome trace_event JSON for about:tracing/Perfetto, or JSONL), or \
          validate an existing trace with --validate.  Equivalent to `acc \
          translate --trace` but quiet: it prints a one-line summary instead \
          of the translated program.")
    (protected
       Term.(
         const (fun a b c d e () -> trace_run a b c d e)
         $ Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source file(s)")
         $ out_arg $ trace_format_arg $ jobs $ validate_arg))

let effort_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine output: one JSON object with per-rule application \
             counts, chain depth/size histograms and discharge provenance")
  in
  Cmd.v
    (Cmd.info "effort"
       ~doc:
         "Proof-effort report: translate FILE(s) with kernel observation \
          armed and report per-rule application counts, refinement-chain \
          depth/size, and guard-discharge provenance (intraprocedural vs \
          interprocedural vs dead-code scrubbing).  Observation only: the \
          translation output is byte-identical to an unobserved run.")
    (protected
       Term.(
         const (fun a b c d e () -> effort_run a b c d e)
         $ Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc:"C source file(s)")
         $ json $ jobs $ store_dir_arg $ no_store_arg))

let cache_cmd =
  let action =
    Arg.(
      required
      & pos 0
          (some
             (enum [ ("stat", `Stat); ("clear", `Clear); ("gc", `Gc); ("doctor", `Doctor) ]))
          None
      & info [] ~docv:"ACTION" ~doc:"stat, clear, gc or doctor")
  in
  let max_entries =
    Arg.(
      value & opt int 1024
      & info [ "max-entries" ] ~docv:"N"
          ~doc:"gc: keep only the newest $(docv) entries")
  in
  let grace =
    Arg.(
      value
      & opt (some float) None
      & info [ "grace" ] ~docv:"SECS"
          ~doc:
            "gc/doctor: treat tmp files younger than $(docv) seconds as \
             in-flight writes and leave them alone (default 60)")
  in
  let purge =
    Arg.(
      value & flag
      & info [ "purge" ] ~doc:"doctor: delete the quarantined files after reporting")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Manage the persistent proof store (stat, clear, gc, doctor).  doctor \
          verifies every entry end-to-end (read, digest, decode), quarantines \
          damaged ones into .quarantine/, and reports; gc and doctor run under \
          the store lock.")
    (protected
       Term.(
         const (fun a b c d e () -> cache a b c d e)
         $ action $ store_dir_arg $ max_entries $ grace $ purge))

let () =
  (* $ACC_FAULTS arms the fault-injection harness for any subcommand (the
     soak drives one-shot invocations too); `acc serve --inject` overrides
     it. *)
  (match Sys.getenv_opt "ACC_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> Faults.install (parse_faults ~what:"acc: ACC_FAULTS" spec));
  let info =
    Cmd.info "acc" ~version:"1.0.0"
      ~doc:"Proof-producing abstraction of C code (AutoCorres, PLDI 2014)"
  in
  (* Cmdliner answers a malformed command line with a usage message and
     its own exit codes: keep only the message's first line and exit 2. *)
  let err = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err in
  Format.pp_set_margin err_fmt 10_000;
  let code =
    Cmd.eval ~err:err_fmt
      (Cmd.group info
         [ translate_cmd; check_cmd; stats_cmd; lint_cmd; analyze_cmd; serve_cmd;
           trace_cmd; cache_cmd; effort_cmd ])
  in
  Format.pp_print_flush err_fmt ();
  (match String.split_on_char '\n' (Buffer.contents err) with
  | first :: _ when first <> "" -> prerr_endline first
  | _ -> ());
  exit (if code = Cmd.Exit.ok then 0 else 2)
