(* The robustness harness: fault injection, graceful degradation, resource
   budgets, and the CLI exit-code contract.

   The properties being defended:
   - under arbitrary injected faults the driver (in keep-going mode) never
     raises, always returns results-or-diagnostics, and never emits a
     theorem that fails [Thm.check];
   - a deliberately failing function degrades to its last certified level
     while the rest of the unit translates and certifies normally;
   - budget exhaustion degrades (guards kept, rewriting stopped) instead
     of hanging or crashing;
   - the acc CLI keeps its 0/1/2 exit-code contract on corrupted inputs —
     no uncaught exceptions, no stack traces. *)

module B = Ac_bignum
module M = Ac_monad.M
module T = Ac_prover.Term
module Solver = Ac_prover.Solver
module Thm = Ac_kernel.Thm
module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Faults = Autocorres.Faults
module Store = Ac_store.Store
module Mprint = Ac_monad.Mprint
module Csources = Ac_cases.Csources

let contains text needle = Astring.String.is_infix ~affix:needle text
let keep_going = { Driver.default_options with Driver.keep_going = true }

(* A deterministic pseudo-random bit stream (the fault schedule). *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state

let uninstall_hooks () =
  Thm.set_fault_hook None;
  Solver.set_fault_hook None;
  Ac_analysis.set_fault_hook None;
  Faults.clear ()

(* Make every kernel rule application fail while the driver is processing
   [victim]. *)
let fail_function victim =
  Thm.set_fault_hook (Some (fun _rule -> Driver.processing () = Some victim))

let two_funcs = Csources.max_c ^ "\n" ^ Csources.gcd_c

let names_of res =
  List.map (fun fr -> fr.Driver.fr_name) res.Driver.funcs

(* ------------------------------------------------------------------ *)
(* Fault isolation: the acceptance scenario.  One function is made to
   fail; with --keep-going the other still reaches WA with a checked
   end-to-end chain. *)

let test_isolation_simpl () =
  Fun.protect ~finally:uninstall_hooks (fun () ->
      fail_function "gcd";
      let res = Driver.run ~options:keep_going two_funcs in
      Alcotest.(check (list string)) "survivors" [ "max" ] (names_of res);
      (match res.Driver.degraded with
      | [ d ] ->
        Alcotest.(check string) "victim" "gcd" d.Driver.dg_name;
        Alcotest.(check string) "level" "Simpl"
          (Driver.level_name (Driver.degraded_level d));
        Alcotest.(check bool) "has diagnostics" true (d.Driver.dg_diags <> [])
      | _ -> Alcotest.fail "expected exactly one degraded function");
      let fr = Option.get (Driver.find_result res "max") in
      Alcotest.(check bool) "survivor chained" true (fr.Driver.fr_chain <> None);
      Alcotest.(check string) "survivor level" "WA"
        (Driver.level_name (Driver.level_of fr));
      Alcotest.(check bool) "all theorems re-validate" true
        (Driver.check_all res = Ok ()))

let test_isolation_l1 () =
  (* Failing only the lifting rule lets L1 complete, so the victim keeps
     its certified L1 image: one rung further up the ladder. *)
  Fun.protect ~finally:uninstall_hooks (fun () ->
      Thm.set_fault_hook
        (Some (fun rule -> rule = "rw_lift" && Driver.processing () = Some "gcd"));
      let res = Driver.run ~options:keep_going two_funcs in
      (match res.Driver.degraded with
      | [ d ] ->
        Alcotest.(check string) "victim" "gcd" d.Driver.dg_name;
        Alcotest.(check string) "level" "L1"
          (Driver.level_name (Driver.degraded_level d));
        Alcotest.(check bool) "keeps the L1 theorem" true (d.Driver.dg_l1 <> None)
      | _ -> Alcotest.fail "expected exactly one degraded function");
      Alcotest.(check bool) "all theorems re-validate (incl. the L1 one)" true
        (Driver.check_all res = Ok ()))

let test_isolation_wa_skip () =
  (* Failing only word-abstraction rules is recoverable: the victim stays
     a full result, just without the WA stage. *)
  Fun.protect ~finally:uninstall_hooks (fun () ->
      Thm.set_fault_hook
        (Some
           (fun rule ->
             String.length rule >= 2
             && String.sub rule 0 2 = "w_"
             && Driver.processing () = Some "gcd"));
      let res = Driver.run ~options:keep_going two_funcs in
      Alcotest.(check int) "no function degraded below L2" 0
        (List.length res.Driver.degraded);
      let fr = Option.get (Driver.find_result res "gcd") in
      Alcotest.(check bool) "gcd lost WA" true (fr.Driver.fr_wa = None);
      Alcotest.(check bool) "other function kept WA" true
        ((Option.get (Driver.find_result res "max")).Driver.fr_wa <> None);
      Alcotest.(check bool) "all theorems re-validate" true
        (Driver.check_all res = Ok ()))

let test_fail_fast_raises () =
  Fun.protect ~finally:uninstall_hooks (fun () ->
      fail_function "gcd";
      match Driver.run two_funcs with
      | _ -> Alcotest.fail "expected Diag.Error without --keep-going"
      | exception Diag.Error d ->
        Alcotest.(check (option string)) "diagnostic names the function"
          (Some "gcd") d.Diag.d_func;
        Alcotest.(check bool) "non-recoverable" false d.Diag.d_recoverable)

(* ------------------------------------------------------------------ *)
(* The qcheck property: under arbitrary fault schedules (random rule
   failures, solver faults, analysis faults, starved budgets) the driver
   never raises, every function is accounted for, and every theorem it
   did emit still passes the independent checker. *)

let fault_sources =
  [ Csources.max_c; Csources.gcd_c; Csources.counter_c; Csources.memset_mixed_c;
    Csources.div_guarded_c ]

(* One shared store directory for the fault property: iterations that
   draw a store reuse it, so I/O faults exercise the degrade-and-requarantine
   paths against a populated store. *)
let fault_store_dir =
  lazy
    (let d = Filename.temp_file "acc_fault_store" "" in
     Sys.remove d;
     d)

let prop_fault_schedules =
  let open QCheck in
  let arb_schedule =
    triple (int_bound 0x3FFFFFF) (int_bound 300) (int_bound (List.length fault_sources - 1))
  in
  Test.make ~name:"driver never raises under injected faults" ~count:500 arb_schedule
    (fun (seed, rate, src_ix) ->
      let src = List.nth fault_sources src_ix in
      let next = lcg seed in
      let hit () = next () mod 1000 < rate in
      let budgets =
        (* Starve a random subset of the budgets, driven by the same
           schedule. *)
        {
          Driver.default_budgets with
          Driver.rewrite_fuel =
            (if hit () then next () mod 50 else Autocorres.Rewrite.default_fuel);
          analysis_steps = (if hit () then next () mod 20 else 20_000);
          summary_contexts = (if hit () then next () mod 3 else 3);
        }
      in
      let options = { keep_going with Driver.budgets } in
      Thm.set_fault_hook (Some (fun _rule -> hit ()));
      Ac_analysis.set_fault_hook (Some hit);
      (* Layer transient-I/O faults on top of the kernel/analysis
         schedule: they hit the store hooks (when the schedule puts a
         store in play) and degrade to misses. *)
      Faults.install
        { Faults.default with Faults.seed; io_error = float_of_int (rate mod 250) /. 1000. };
      let store =
        if rate land 1 = 1 then
          match Store.open_ ~dir:(Lazy.force fault_store_dir) () with
          | Ok st -> Some st
          | Error _ -> None
        else None
      in
      let outcome =
        match Driver.run ~options ?store src with
        | res -> Ok res
        | exception e -> Error e
      in
      uninstall_hooks ();
      match outcome with
      | Error e ->
        Test.fail_reportf "driver raised %s" (Printexc.to_string e)
      | Ok res ->
        let total = List.length res.Driver.simpl.Ac_simpl.Ir.funcs in
        let accounted =
          List.length res.Driver.funcs + List.length res.Driver.degraded
        in
        if accounted <> total then
          Test.fail_reportf "%d of %d functions unaccounted for" (total - accounted)
            total
        else begin
          (* Every theorem that was emitted — under whatever faults — must
             still re-validate through the unfaulted independent checker. *)
          match Driver.check_all res with
          | Ok () -> true
          | Error e -> Test.fail_reportf "emitted theorem failed Thm.check: %s" e
        end)

(* ------------------------------------------------------------------ *)
(* Fault specs: a typo must be a hard error, never a soak that silently
   injects nothing.  The retired worker-crash kind counts as a typo; its
   name is assembled so that no live code spells it. *)

let retired_kind = String.concat "_" [ "worker"; "crash" ]

let test_faults_parse () =
  let rejected spec =
    match Faults.parse spec with
    | Ok _ -> Alcotest.failf "%S parsed, want an error" spec
    | Error _ -> ()
  in
  rejected "io_error:nan";
  rejected "slow:-nan";
  rejected "io_error:inf";
  rejected (retired_kind ^ ":0.1");
  rejected "io_errror:0.05";
  rejected "io_error:0.05,seed:x";
  match Faults.parse " io_error:0.05 , slow:2, seed:7,slow_ms:20" with
  | Error m -> Alcotest.fail m
  | Ok cfg ->
    Alcotest.(check (float 0.)) "io_error" 0.05 cfg.Faults.io_error;
    Alcotest.(check (float 0.)) "slow clamped to 1" 1. cfg.Faults.slow;
    Alcotest.(check int) "seed" 7 cfg.Faults.seed;
    Alcotest.(check (float 1e-9)) "slow_ms" 0.02 cfg.Faults.slow_s

(* ------------------------------------------------------------------ *)
(* Resource budgets: exhaustion degrades instead of hanging/crashing. *)

let test_solver_budget () =
  let goal =
    (* Needs case splitting, so it costs branches. *)
    let x = T.Var ("x", T.Sint) and y = T.Var ("y", T.Sint) in
    T.or_t (T.le_t x y) (T.le_t y x)
  in
  Alcotest.(check bool) "provable with the default budget" true
    (Solver.is_proved (fst (Solver.prove goal)));
  let saved = !Solver.budget in
  Solver.budget := { Solver.max_branches = 0; deadline_s = None };
  Atomic.set Solver.exhaustions 0;
  let out = fst (Solver.prove goal) in
  Solver.budget := saved;
  Alcotest.(check bool) "not proved when starved" false (Solver.is_proved out);
  Alcotest.(check bool) "exhaustion counted" true (Atomic.get Solver.exhaustions > 0)

let test_solver_deadline () =
  let goal =
    let x = T.Var ("x", T.Sint) and y = T.Var ("y", T.Sint) in
    T.or_t (T.le_t x y) (T.le_t y x)
  in
  let saved = !Solver.budget in
  Solver.budget := { Solver.max_branches = 40000; deadline_s = Some (-1.0) };
  Atomic.set Solver.exhaustions 0;
  let out = fst (Solver.prove goal) in
  Solver.budget := saved;
  Alcotest.(check bool) "not proved past the deadline" false (Solver.is_proved out);
  Alcotest.(check bool) "exhaustion counted" true (Atomic.get Solver.exhaustions > 0)

let test_solver_fault () =
  Fun.protect ~finally:uninstall_hooks (fun () ->
      Solver.set_fault_hook (Some (fun () -> true));
      let goal = T.eq_t (T.int_of 1) (T.int_of 1) in
      match Solver.prove goal with
      | out, _ ->
        Alcotest.(check bool) "injected timeout degrades to not-proved" false
          (Solver.is_proved out))

let test_cc_budget () =
  let module Cc = Ac_prover.Cc in
  let saved = !Cc.merge_budget in
  Cc.merge_budget := 0;
  Atomic.set Cc.exhaustions 0;
  let cc = Cc.create () in
  let a = T.Var ("a", T.Sint) and b = T.Var ("b", T.Sint) in
  Cc.assert_eq cc a b;
  let merged = Cc.equal_terms cc a b in
  Cc.merge_budget := saved;
  (* Starved closure only under-approximates: the equality is lost (the
     goal stays open), no contradiction is invented. *)
  Alcotest.(check bool) "merge skipped" false merged;
  Alcotest.(check bool) "no contradiction invented" false (Cc.inconsistent cc);
  Alcotest.(check bool) "exhaustion counted" true (Atomic.get Cc.exhaustions > 0)

let test_analysis_budget () =
  (* Starving the fixpoint keeps the guards (no discharge) but must not
     raise, and the result still certifies. *)
  (* The fixpoint engine only spends budget at loop heads, so use a
     looping program (gcd's guards need its loop invariant). *)
  let starved =
    { keep_going with
      Driver.budgets = { Driver.default_budgets with Driver.analysis_steps = 0 } }
  in
  let res = Driver.run ~options:starved Csources.gcd_c in
  Alcotest.(check bool) "budget exhaustion recorded" true (res.Driver.budget_hits > 0);
  Alcotest.(check bool) "still certifies" true (Driver.check_all res = Ok ());
  let guards r =
    List.fold_left
      (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
      0 r.Driver.funcs
  in
  let normal = Driver.run ~options:keep_going Csources.gcd_c in
  Alcotest.(check bool) "starved run keeps at least as many guards" true
    (guards res >= guards normal)

let test_rewrite_fuel () =
  let starved =
    { keep_going with
      Driver.budgets = { Driver.default_budgets with Driver.rewrite_fuel = 0 } }
  in
  let res = Driver.run ~options:starved Csources.gcd_c in
  Alcotest.(check bool) "budget exhaustion recorded" true (res.Driver.budget_hits > 0);
  Alcotest.(check bool) "still certifies" true (Driver.check_all res = Ok ());
  Alcotest.(check int) "nothing degraded" 0 (List.length res.Driver.degraded)

(* ------------------------------------------------------------------ *)
(* Structured diagnostics. *)

let test_diag_rendering () =
  let d =
    Diag.make ~func:"gcd" ~severity:Diag.Warning ~recoverable:true Diag.Word_abs
      "demoted"
  in
  let s = Diag.to_string ~file:"t.c" d in
  Alcotest.(check bool) "has file" true (contains s "t.c");
  Alcotest.(check bool) "has phase" true (contains s "word-abstraction");
  Alcotest.(check bool) "has function" true (contains s "(in gcd)");
  Alcotest.(check bool) "marks degradation" true (contains s "[degraded]")

let test_diag_json () =
  let d = Diag.make ~func:"f\"n" Diag.L1 "a \"quoted\" message\nline 2" in
  let j = Diag.to_json d in
  Alcotest.(check bool) "escapes quotes" true (contains j "\\\"quoted\\\"");
  Alcotest.(check bool) "escapes newlines" true (contains j "\\n");
  Alcotest.(check bool) "phase named" true (contains j "\"phase\":\"l1\"");
  Alcotest.(check string) "list shape" "[]" (Diag.list_to_json [])

let test_frontend_structs () =
  let expect_type_error src =
    match Ac_cfront.Typecheck.parse_and_check src with
    | _ -> Alcotest.fail "expected Type_error"
    | exception Ac_cfront.Typecheck.Type_error _ -> ()
  in
  expect_type_error "struct e {};";
  expect_type_error "struct s { struct s inner; };"

(* Hostile input: the front end is linear on long literals and long
   expressions.  Allocation is the measure: unlike wall time it is
   deterministic, and a quadratic pass shows in it just as plainly. *)
let allocated_bytes f =
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let test_frontend_long_literal () =
  (* Every value of 2^64 or more is out of range at every type, so the
     lexer stops reading digits there; a million of them used to cost a
     bignum multiply each. *)
  let src = "int f() { return " ^ String.make 1_000_000 '9' ^ "; }" in
  let bytes = allocated_bytes (fun () -> Ac_cfront.Lexer.tokenize src) in
  Alcotest.(check bool)
    (Printf.sprintf "lexing allocates %.0f bytes for a %d-byte source" bytes (String.length src))
    true
    (bytes < 8. *. float_of_int (String.length src));
  match Ac_cfront.Typecheck.parse_and_check src with
  | _ -> Alcotest.fail "a million-digit literal was accepted"
  | exception Ac_cfront.Typecheck.Type_error (m, pos) ->
    Alcotest.(check (triple string int int))
      "rejected at the literal" ("integer literal out of range", 1, 18) (m, pos.line, pos.col)

let test_frontend_long_sum () =
  (* Each level of x + x + ... + x used to re-copy its left operand's
     overflow guards: quadrupling the terms multiplied the work by 16. *)
  let sum n = "int f(int x) { return " ^ String.concat " + " (List.init n (fun _ -> "x")) ^ "; }" in
  let cost n =
    let src = sum n in
    let prog = ref None in
    let bytes = allocated_bytes (fun () -> prog := Some (Ac_simpl.C2simpl.parse src)) in
    (match !prog with
    | Some { Ac_simpl.Ir.funcs = [ f ]; _ } ->
      (* one overflow guard per addition, and the fall-off guard *)
      Alcotest.(check int) (Printf.sprintf "%d terms: guards" n) n
        (List.length f.Ac_simpl.Ir.gsrc)
    | _ -> Alcotest.fail "expected one function");
    bytes
  in
  let small = cost 2_000 and large = cost 8_000 in
  Alcotest.(check bool)
    (Printf.sprintf "4x the terms allocates %.1fx the bytes" (large /. small))
    true
    (large < 6. *. small)

(* ------------------------------------------------------------------ *)
(* The CLI crash corpus: run the real acc binary over truncated and
   byte-mutated variants of every corpus source; the exit-code contract
   (0/1/2, one-line diagnostics, no stack traces) must hold on all of
   them. *)

let acc_exe = Paths.acc_exe

let run_acc args file =
  let out = Filename.temp_file "acc_out" ".txt" in
  let err = Filename.temp_file "acc_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2> %s" (Filename.quote acc_exe) args
      (Filename.quote file) (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove p;
    s
  in
  (code, slurp out, slurp err)

(* SIGTERM during an in-flight serve request: the session must finish
   the request, emit one complete response line, flush, and exit 0 —
   whether the signal lands mid-request or while blocked waiting for the
   next one (stdin is kept open so only the signal can end the session). *)
let test_serve_sigterm_in_flight () =
  let src_file = Filename.temp_file "acc_serve" ".c" in
  let oc = open_out_bin src_file in
  output_string oc two_funcs;
  close_out oc;
  let out_file = Filename.temp_file "acc_serve_out" ".txt" in
  let out_fd = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let rd, wr = Unix.pipe () in
  let pid =
    Unix.create_process acc_exe [| acc_exe; "serve"; "--no-store" |] rd out_fd
      Unix.stderr
  in
  Unix.close rd;
  Unix.close out_fd;
  let req = Printf.sprintf "translate %s\n" src_file in
  ignore (Unix.write_substring wr req 0 (String.length req));
  Unix.sleepf 0.05;
  Unix.kill pid Sys.sigterm;
  let rec wait_exit deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "serve did not exit within 10s of SIGTERM"
      end
      else begin
        Unix.sleepf 0.02;
        wait_exit deadline
      end
    | _, status -> status
  in
  let status = wait_exit (Unix.gettimeofday () +. 10.) in
  Unix.close wr;
  Sys.remove src_file;
  let ic = open_in_bin out_file in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_file;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "serve exited %d after SIGTERM" c
  | Unix.WSIGNALED s -> Alcotest.failf "serve killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "serve stopped by signal %d" s);
  match String.split_on_char '\n' (String.trim out) with
  | [ line ] ->
    Alcotest.(check bool) "response line is complete JSON" true
      (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}');
    Alcotest.(check bool) "in-flight request succeeded" true
      (contains line "\"ok\":true")
  | lines ->
    Alcotest.failf "expected exactly one response line, got %d: %S"
      (List.length lines) out

let mutants (src : string) : string list =
  let n = String.length src in
  let truncations =
    List.filter_map
      (fun k -> if n > 1 then Some (String.sub src 0 (k * n / 4)) else None)
      [ 1; 2; 3 ]
  in
  let mutated seed =
    let next = lcg seed in
    let b = Bytes.of_string src in
    for _ = 1 to 4 do
      if n > 0 then Bytes.set b (next () mod n) (Char.chr (next () mod 256))
    done;
    Bytes.to_string b
  in
  ("" :: truncations) @ List.map mutated [ 1; 2; 3; 4; 5 ]

let test_cli_crash_corpus () =
  Alcotest.(check bool) "acc.exe present" true (Sys.file_exists acc_exe);
  List.iter
    (fun (name, src) ->
      List.iteri
        (fun i variant ->
          let file = Filename.temp_file "acc_crash" ".c" in
          let oc = open_out_bin file in
          output_string oc variant;
          close_out oc;
          let code, _out, err = run_acc "translate --keep-going" file in
          Sys.remove file;
          let label = Printf.sprintf "%s variant %d" name i in
          if not (List.mem code [ 0; 1; 2 ]) then
            Alcotest.failf "%s: exit code %d (err: %s)" label code err;
          if contains err "Fatal error" || contains err "Raised at"
             || contains err "uncaught exception" then
            Alcotest.failf "%s: stack trace leaked: %s" label err;
          (* Failures must say something: exit 2 comes with a one-line
             diagnostic on stderr. *)
          if code = 2 && String.trim err = "" then
            Alcotest.failf "%s: exit 2 with no diagnostic" label)
        (mutants src))
    Csources.all

let test_cli_diag_json () =
  let file = Filename.temp_file "acc_json" ".c" in
  let oc = open_out_bin file in
  output_string oc Csources.max_c;
  close_out oc;
  let code, out, _err = run_acc "translate --keep-going --diag-json" file in
  Sys.remove file;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "function listed" true (contains out "\"name\":\"max\"");
  Alcotest.(check bool) "level reported" true (contains out "\"level\":\"WA\"");
  Alcotest.(check bool) "diagnostics array" true (contains out "\"diagnostics\":[")

(* A retired fault kind is an unknown name: a usage error, not a soak
   that silently injects nothing.  stdin is /dev/null, so a session that
   wrongly started would end at once rather than hang. *)
let test_cli_unknown_fault () =
  let code, _out, err =
    run_acc (Printf.sprintf "serve --inject %s:0.1 <" retired_kind) "/dev/null"
  in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "names the unknown fault" true
    (contains err (Printf.sprintf "unknown fault %S" retired_kind))

(* A malformed command line is a usage error: exit 2 with a one-line
   diagnostic naming the offending option.  A non-finite or negative
   deadline and a negative count are malformed too: [nan] would switch the
   deadline off rather than fail. *)
let test_cli_malformed () =
  let file = Filename.temp_file "acc_usage" ".c" in
  let oc = open_out_bin file in
  output_string oc Csources.max_c;
  close_out oc;
  List.iter
    (fun (args, option) ->
      let code, out, err = run_acc ("translate " ^ args) file in
      Alcotest.(check int) (args ^ ": exit 2") 2 code;
      Alcotest.(check string) (args ^ ": nothing on stdout") "" out;
      Alcotest.(check int) (args ^ ": one stderr line") 1
        (List.length (String.split_on_char '\n' (String.trim err)));
      Alcotest.(check bool) (args ^ ": names " ^ option) true (contains err option))
    [
      ("--bogus", "--bogus");
      ("--rewrite-fuel abc", "--rewrite-fuel");
      ("--timeout nan", "--timeout");
      ("--timeout inf", "--timeout");
      ("--timeout=-1", "--timeout");
      ("--summary-rounds=-1", "--summary-rounds");
      ("--analysis-steps=-5", "--analysis-steps");
    ];
  (* The boundary values are accepted. *)
  let code, _out, _err = run_acc "translate --timeout 0.5 --summary-rounds 0" file in
  Sys.remove file;
  Alcotest.(check int) "finite timeout and zero count accepted" 0 code

let test_cli_budget_flags () =
  let file = Filename.temp_file "acc_budget" ".c" in
  let oc = open_out_bin file in
  output_string oc Csources.div_guarded_c;
  close_out oc;
  let code, out, _err =
    run_acc "translate --keep-going --diag-json --analysis-steps 0 --rewrite-fuel 0" file
  in
  Sys.remove file;
  Alcotest.(check int) "exit 0 (degradation is not failure)" 0 code;
  Alcotest.(check bool) "budget exhaustions surfaced" true
    (not (contains out "\"budget_exhaustions\":0"))

let suite =
  [
    ("a deliberate failure degrades one function to Simpl", `Quick, test_isolation_simpl);
    ("a lifting failure degrades one function to L1", `Quick, test_isolation_l1);
    ("a word-abstraction failure is a recoverable skip", `Quick, test_isolation_wa_skip);
    ("without --keep-going the failure raises Diag.Error", `Quick, test_fail_fast_raises);
    ("fault specs reject typos and non-finite rates", `Quick, test_faults_parse);
    ("SIGTERM during an in-flight serve request", `Quick, test_serve_sigterm_in_flight);
    ("solver branch budget degrades to not-proved", `Quick, test_solver_budget);
    ("solver deadline degrades to not-proved", `Quick, test_solver_deadline);
    ("an injected solver timeout degrades to not-proved", `Quick, test_solver_fault);
    ("congruence-closure budget under-approximates soundly", `Quick, test_cc_budget);
    ("analysis budget exhaustion keeps guards, still certifies", `Quick, test_analysis_budget);
    ("rewrite fuel exhaustion still certifies", `Quick, test_rewrite_fuel);
    ("diagnostics render compiler-style", `Quick, test_diag_rendering);
    ("diagnostics render as escaped JSON", `Quick, test_diag_json);
    ("degenerate struct declarations are type errors", `Quick, test_frontend_structs);
    ("CLI exit-code contract on the crash corpus", `Slow, test_cli_crash_corpus);
    ("CLI --diag-json machine output", `Quick, test_cli_diag_json);
    ("CLI budget flags surface exhaustions", `Quick, test_cli_budget_flags);
    ("CLI rejects an unknown fault kind", `Quick, test_cli_unknown_fault);
    ("CLI malformed command lines exit 2 with one line", `Quick, test_cli_malformed);
    ("a million-digit literal lexes in linear time", `Quick, test_frontend_long_literal);
    ("a long sum translates to Simpl in linear time", `Quick, test_frontend_long_sum);
  ]
  |> List.map (fun (n, s, f) -> Alcotest.test_case n s f)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_fault_schedules;
    ]
