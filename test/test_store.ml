(* PR 4's persistent proof store: content-keyed invalidation, kernel
   replay, and the trust story.

   The properties pinned here are the ones the store's soundness argument
   stands on:

   - a warm (replayed) run is observably identical to a cold run — same
     programs, levels, skip lists, diagnostics;
   - invalidation tracks every key component: the function's own source,
     the sources of its transitive callees (through mutual-recursion
     cycles), the driver option vector, and the ruleset tag;
   - a corrupted entry (bit flip) is rejected before deserialization and
     degrades to full translation — it can never mint a theorem;
   - a digest-valid but *wrong* entry (a forged certificate recorded from
     a different program) fails kernel replay / source anchoring and
     degrades the same way. *)

module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Store = Ac_store.Store
module Trace = Ac_store.Trace
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Mprint = Ac_monad.Mprint
module Csources = Ac_cases.Csources

(* ------------------------------------------------------------------ *)
(* Helpers. *)

let opts = { Driver.default_options with Driver.keep_going = true }

let fresh_dir () =
  let d = Filename.temp_file "accstore" ".d" in
  Sys.remove d;
  d

let open_store ?tag dir =
  match Store.open_ ?tag ~dir () with
  | Ok st -> st
  | Error m -> Alcotest.fail m

(* A fresh handle per run so [store_hits]/[store_misses] count one run. *)
let run ?tag ~dir ?(options = opts) src =
  Driver.run ~options ~store:(open_store ?tag dir) src

(* Everything the caller can observe (the same fingerprint the --jobs
   differential uses). *)
let fingerprint (res : Driver.result) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun fr ->
      Buffer.add_string b fr.Driver.fr_name;
      Buffer.add_string b (Driver.level_name (Driver.level_of fr));
      Buffer.add_string b (if fr.Driver.fr_chain = None then "-" else "+");
      Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_l1);
      Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_l2);
      Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_final);
      List.iter (fun (p, w) -> Buffer.add_string b (p ^ ":" ^ w)) fr.Driver.fr_skipped)
    res.Driver.funcs;
  List.iter
    (fun (d : Driver.degraded) ->
      Buffer.add_string b d.Driver.dg_name;
      Buffer.add_string b (Driver.level_name (Driver.degraded_level d)))
    res.Driver.degraded;
  List.iter (fun d -> Buffer.add_string b (Diag.to_string d)) res.Driver.diags;
  Buffer.add_string b (string_of_int res.Driver.budget_hits);
  Buffer.contents b

(* The fingerprint minus diagnostics: degradation paths legitimately add
   [Diag.Store] warnings, but must not change any program or theorem. *)
let prog_fingerprint (res : Driver.result) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun fr ->
      Buffer.add_string b fr.Driver.fr_name;
      Buffer.add_string b (Driver.level_name (Driver.level_of fr));
      Buffer.add_string b (if fr.Driver.fr_chain = None then "-" else "+");
      Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_final))
    res.Driver.funcs;
  Buffer.contents b

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.fail ("replace_once: substring not found: " ^ sub)
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let counters (res : Driver.result) = (res.Driver.store_hits, res.Driver.store_misses)

let check_counters what expected res =
  Alcotest.(check (pair int int)) what expected (counters res)

let has_store_diag (res : Driver.result) =
  List.exists (fun (d : Diag.t) -> d.Diag.d_phase = Diag.Store) res.Driver.diags

(* Standalone copies of the multi-function corpus files (the test corpus
   is compiled in; corpus/*.c files are exercised via ci.sh). *)
let chain_c =
  {|
int clamp(int lo, int hi, int v) {
  if (v < lo) return lo;
  if (hi < v) return hi;
  return v;
}

int clamp3(int v) {
  int r = 0;
  r = clamp(0, 3, v);
  return r;
}

int sum3(int a, int b, int c) {
  int x = 0;
  int y = 0;
  int z = 0;
  x = clamp3(a);
  y = clamp3(b);
  z = clamp3(c);
  return x + y + z;
}

int scale(int v) {
  if (v < 0) return 0;
  return v * 2;
}
|}

let parity_c =
  {|
unsigned is_even(unsigned n) {
  unsigned r = 0u;
  if (n == 0u) return 1u;
  r = is_odd(n - 1u);
  return r;
}

unsigned is_odd(unsigned n) {
  unsigned r = 0u;
  if (n == 0u) return 0u;
  r = is_even(n - 1u);
  return r;
}

unsigned parity(unsigned n) {
  unsigned e = 0u;
  e = is_even(n);
  if (e == 1u) return 0u;
  return 1u;
}
|}

(* ------------------------------------------------------------------ *)
(* Warm = cold over the whole corpus. *)

let test_corpus_roundtrip () =
  List.iter
    (fun (name, src) ->
      let dir = fresh_dir () in
      let cold = run ~dir src in
      let warm = run ~dir src in
      check_counters (name ^ ": cold run hits nothing") (0, cold.Driver.store_misses) cold;
      Alcotest.(check string)
        (name ^ ": warm output = cold output")
        (fingerprint cold) (fingerprint warm);
      Alcotest.(check bool)
        (name ^ ": warm derivations re-validate") true
        (Driver.check_all warm = Ok ()))
    Csources.all

(* ------------------------------------------------------------------ *)
(* Hit/miss counters and per-key-component invalidation. *)

let test_invalidation_cone () =
  let dir = fresh_dir () in
  check_counters "cold: all four miss" (0, 4) (run ~dir chain_c);
  check_counters "warm: all four hit" (4, 0) (run ~dir chain_c);
  (* Source edit to the leaf [clamp]: its whole caller cone (clamp,
     clamp3, sum3) must miss; the island [scale] must still hit. *)
  let edited = replace_once ~sub:"if (v < lo) return lo;" ~by:"if (v <= lo) return lo;" chain_c in
  check_counters "leaf edit invalidates exactly its cone" (1, 3) (run ~dir edited);
  (* Option vector: flipping any per-function switch misses everything. *)
  let no_wa =
    { opts with
      Driver.defaults = { Driver.default_func_options with Driver.word_abs = false } }
  in
  check_counters "option change invalidates" (0, 4) (run ~dir ~options:no_wa chain_c);
  (* Ruleset/version tag: a bumped tag never matches old entries. *)
  check_counters "tag change invalidates" (0, 4) (run ~dir ~tag:"other-ruleset" chain_c);
  (* And the original keys are all still present and valid. *)
  check_counters "original entries survived" (4, 0) (run ~dir chain_c)

let test_mutual_recursion_cone () =
  let dir = fresh_dir () in
  check_counters "cold" (0, 3) (run ~dir parity_c);
  check_counters "warm" (3, 0) (run ~dir parity_c);
  (* Editing one member of the is_even/is_odd cycle invalidates the whole
     strongly connected component and everything above it. *)
  let edited = replace_once ~sub:"r = is_even(n - 1u);" ~by:"r = is_even(n - 1u); r = r;" parity_c in
  check_counters "cycle edit invalidates cycle + caller" (0, 3) (run ~dir edited);
  (* Editing only the caller above the cycle leaves the cycle's entries
     valid. *)
  let edited = replace_once ~sub:"if (e == 1u) return 0u;" ~by:"if (e == 1u) return 2u;" parity_c in
  check_counters "caller edit keeps the cycle's entries" (2, 1) (run ~dir edited)

(* ------------------------------------------------------------------ *)
(* Poisoning. *)

let flip_all_entries dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".acc" then begin
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
        close_in ic;
        let i = Bytes.length s - 10 in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0xff));
        let oc = open_out_bin path in
        output_bytes oc s;
        close_out oc
      end)
    (Sys.readdir dir)

let test_bit_flip_poisoning () =
  let dir = fresh_dir () in
  let cold = run ~dir chain_c in
  flip_all_entries dir;
  let poisoned = run ~dir chain_c in
  (* Every entry is rejected (digest mismatch, before [Marshal] ever
     runs) and the run degrades to a full translation... *)
  check_counters "poisoned entries all miss" (0, 4) poisoned;
  Alcotest.(check bool) "corruption is diagnosed" true (has_store_diag poisoned);
  (* ...whose observable result is the cold run's, and whose theorems all
     re-validate — the corrupt entries minted nothing. *)
  Alcotest.(check string) "programs unchanged" (prog_fingerprint cold)
    (prog_fingerprint poisoned);
  Alcotest.(check bool) "all chains present" true
    (List.for_all (fun fr -> fr.Driver.fr_chain <> None) poisoned.Driver.funcs);
  Alcotest.(check bool) "derivations re-validate" true
    (Driver.check_all poisoned = Ok ());
  (* The flip also repaired nothing silently: the next run re-banked the
     entries and hits again. *)
  check_counters "store repopulated" (4, 0) (run ~dir chain_c)

(* A forged certificate with a *valid* digest: an entry recorded from a
   genuinely certified translation of a different program, saved under
   the victim's content key.  Decoding succeeds — only kernel replay and
   the source anchor can catch it, and they must. *)
let test_forged_entry_fails_replay () =
  let src_a = "int f(int x) { return x + 1; }\n" in
  let src_b = "int f(int x) { return x + 2; }\n" in
  let dir = fresh_dir () in
  (* Cold-run B once to learn the key the driver will use for it. *)
  let cold_b = run ~dir src_b in
  let key_b =
    match
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".acc")
    with
    | [ f ] -> Filename.chop_suffix f ".acc"
    | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, found %d" (List.length l))
  in
  (* Record a genuine certificate — for A. *)
  let res_a = Driver.run ~options:opts src_a in
  let fr_a = List.hd res_a.Driver.funcs in
  let chain_a =
    match fr_a.Driver.fr_chain with
    | Some t -> t
    | None -> Alcotest.fail "A produced no chain"
  in
  let forged =
    {
      Store.e_name = "f";
      e_l1 = fr_a.Driver.fr_l1;
      e_l2g = fr_a.Driver.fr_l2;
      e_l2 = fr_a.Driver.fr_l2;
      e_hl = fr_a.Driver.fr_hl;
      e_wa = fr_a.Driver.fr_wa;
      e_final = fr_a.Driver.fr_final;
      e_wvars = fr_a.Driver.fr_wa_wvars;
      e_skipped = fr_a.Driver.fr_skipped;
      e_nothrow = Ac_kernel.Index.mem res_a.Driver.ctx.Rules.nothrows "f";
      e_fsig = snd (Ac_kernel.Index.find res_a.Driver.ctx.Rules.fsigs "f");
      (* A genuine-looking digest, from A's own summary table: rejection
         must come from replay/anchoring, not from an obviously-bogus
         digest. *)
      e_sums_digest =
        Ac_analysis.Domains.sums_digest
          (Ac_analysis.Domains.restrict res_a.Driver.sums [ "f" ]);
      e_trace = Trace.record chain_a;
      e_n_hl = List.length fr_a.Driver.fr_hl_thms;
    }
  in
  let st = open_store dir in
  (match Store.save st ~key:key_b forged with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* The forged entry decodes (its digest is honest), so it surfaces as a
     hit — and then replay anchors it against B's parsed source, rejects
     it, and the driver re-translates. *)
  let warm_b = run ~dir src_b in
  Alcotest.(check bool) "forged entry is diagnosed" true (has_store_diag warm_b);
  check_counters "forged entry is demoted to a miss" (0, 1) warm_b;
  Alcotest.(check string) "B's result is B's, not A's" (prog_fingerprint cold_b)
    (prog_fingerprint warm_b);
  Alcotest.(check bool) "derivations re-validate" true (Driver.check_all warm_b = Ok ())

(* ------------------------------------------------------------------ *)
(* Trace record/replay in isolation. *)

let test_trace_roundtrip () =
  let res = Driver.run ~options:opts Csources.gcd_c in
  let fr = List.hd res.Driver.funcs in
  let chain = match fr.Driver.fr_chain with Some t -> t | None -> Alcotest.fail "no chain" in
  let tr = Trace.record chain in
  Alcotest.(check int) "tree size is preserved" (Thm.size chain) (Trace.tree_size tr);
  let ctx = { res.Driver.ctx with Rules.wvars = fr.Driver.fr_wa_wvars } in
  match Trace.replay ctx tr with
  | Error m -> Alcotest.fail ("replay failed: " ^ m)
  | Ok t ->
    Alcotest.(check bool) "replayed conclusion is the original" true
      (J.judgment_equal (Thm.concl t) (Thm.concl chain));
    (* Replay under the wrong context must not reproduce the theorem,
       exactly like the corrupted-certificate tests of the memoized
       checker: the one-step word rule recomputes its image under the
       context's registration, so without it the chain concludes another
       program or breaks. *)
    Alcotest.(check bool) "replay under the wrong context fails" true
      (match Trace.replay res.Driver.ctx tr with
      | Error _ -> true
      | Ok t -> not (J.judgment_equal (Thm.concl t) (Thm.concl chain)))

(* A trace node the kernel's rule base has no case for is an [Error] of
   replay, wherever it sits in the trace, never an escaping exception. *)
let test_trace_replay_refuses () =
  let ctx = Rules.empty_ctx Ac_lang.Layout.empty in
  let module M = Ac_monad.M in
  let bad = { Trace.n_rule = Rules.Rw_inline (M.Bind (M.Fail, M.Pwild, M.Fail), [ 0 ]); n_prems = [] } in
  let leaf = { Trace.n_rule = Rules.Eq_refl M.Fail; n_prems = [] } in
  List.iter
    (fun (where, tr) ->
      Alcotest.(check bool) (where ^ ": replay is an Error") true
        (match Trace.replay ctx tr with Error _ -> true | Ok _ -> false))
    [ ("first node", [| bad |]); ("later node", [| leaf; bad |]) ]

(* ------------------------------------------------------------------ *)
(* qcheck: warm = cold across the corpus under random option vectors. *)

let prop_replay_identical =
  QCheck.Test.make ~count:15 ~name:"store: warm replay = fresh translation"
    QCheck.(triple (int_range 0 (List.length Csources.all - 1)) bool bool)
    (fun (i, no_word, no_heap) ->
      let _, src = List.nth Csources.all i in
      let options =
        { opts with
          Driver.defaults =
            { Driver.default_func_options with
              Driver.word_abs = not no_word;
              heap_abs = not no_heap } }
      in
      let dir = fresh_dir () in
      let cold = run ~dir ~options src in
      let warm = run ~dir ~options src in
      String.equal (fingerprint cold) (fingerprint warm))

(* ------------------------------------------------------------------ *)
(* Exit-code contract through the real binary. *)

let acc_exe = Paths.acc_exe

let run_acc args =
  let out = Filename.temp_file "acc_out" ".txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" (Filename.quote acc_exe) args (Filename.quote out) in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let test_cli_exit_codes () =
  Alcotest.(check bool) "acc.exe present" true (Sys.file_exists acc_exe);
  let cfile = Filename.temp_file "acc_store" ".c" in
  let oc = open_out cfile in
  output_string oc chain_c;
  close_out oc;
  let dir = fresh_dir () in
  let code, _ = run_acc (Printf.sprintf "translate --store %s %s" (Filename.quote dir) (Filename.quote cfile)) in
  Alcotest.(check int) "translate with store: exit 0" 0 code;
  (* A corrupt entry during `acc check` is a structured finding: exit 1,
     with a [store] diagnostic, never an uncaught exception (exit 2). *)
  flip_all_entries dir;
  let code, out = run_acc (Printf.sprintf "check --store %s %s" (Filename.quote dir) (Filename.quote cfile)) in
  Alcotest.(check int) "check with corrupt entry: exit 1" 1 code;
  Alcotest.(check bool) "check names the store phase" true
    (Astring.String.is_infix ~affix:"[store]" out);
  (* An unusable store directory is a configuration error: structured,
     exit 1 (not an internal-error exit 2). *)
  let notadir = Filename.temp_file "acc_notadir" ".txt" in
  let code, out = run_acc (Printf.sprintf "check --store %s %s" (Filename.quote notadir) (Filename.quote cfile)) in
  Alcotest.(check int) "check with unusable store: exit 1" 1 code;
  Alcotest.(check bool) "unusable store is a structured diagnostic" true
    (Astring.String.is_infix ~affix:"[store]" out);
  Sys.remove cfile;
  Sys.remove notadir

(* The serve session: one JSON response line per request, lint findings in
   the exact structured-diagnostic shape `--diag-json` established
   (phase/function/line/col/severity/recoverable/message, via
   [Diag.list_to_json]), and a bad request that answers ok:false without
   ending the session. *)
let serve_lint_c =
  "unsigned bad_div(unsigned x) {\n  unsigned y;\n  y = 0u;\n  return x / y;\n}\n"

let test_serve_lint_diag_shape () =
  Alcotest.(check bool) "acc.exe present" true (Sys.file_exists acc_exe);
  let cfile = Filename.temp_file "acc_serve" ".c" in
  let oc = open_out cfile in
  output_string oc serve_lint_c;
  close_out oc;
  let req = Filename.temp_file "acc_serve_req" ".txt" in
  let oc = open_out req in
  Printf.fprintf oc "lint %s\nfrobnicate %s\nlint %s\nstatus\n" cfile cfile cfile;
  close_out oc;
  let code, out =
    run_acc (Printf.sprintf "serve --no-store < %s" (Filename.quote req))
  in
  Alcotest.(check int) "serve exits 0 at EOF" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one response line per request" 4 (List.length lines);
  let first = List.nth lines 0 in
  let bad = List.nth lines 1 in
  let again = List.nth lines 2 in
  let has affix s = Astring.String.is_infix ~affix s in
  Alcotest.(check bool) "lint response ok" true (has "\"ok\":true,\"cmd\":\"lint\"" first);
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " in findings") true (has affix first))
    [
      "\"phase\":\"guard-discharge\"";
      "\"function\":\"bad_div\"";
      "\"line\":4";
      "\"col\":";
      "\"severity\":\"warning\"";
      "\"recoverable\":";
      "\"message\":\"division by zero";
    ];
  Alcotest.(check bool) "bad request answers ok:false" true (has "\"ok\":false" bad);
  Alcotest.(check bool) "session survives a bad request" true (String.equal first again);
  (* Counter invariants (documented next to [status_json] in bin/acc.ml):
     [requests] counts every non-empty request line — the two lints, the
     malformed "frobnicate", and the status probe itself — and
     [failures] the ok:false subset, so failures <= requests.  The PR 8
     regression: malformed lines used to bump failures only, letting a
     status probe report failures > requests. *)
  let status = List.nth lines 3 in
  Alcotest.(check bool) "requests counts all four lines" true
    (has "\"requests\":4" status);
  Alcotest.(check bool) "failures counts only the malformed one" true
    (has "\"failures\":1" status);
  Sys.remove cfile;
  Sys.remove req

(* ------------------------------------------------------------------ *)
(* Crash-shaped damage: truncation and unreadable entries (this PR).
   The bit-flip test above covers random corruption; these cover the
   shapes a real crash or operator accident produces. *)

let entry_paths dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".acc")
  |> List.map (Filename.concat dir)

let test_truncation_degrades () =
  let dir = fresh_dir () in
  let cold = run ~dir chain_c in
  (* Truncate every entry to zero bytes — the classic kill-during-flush
     residue.  Zero bytes can't even carry the magic, a different failure
     path from a digest mismatch. *)
  List.iter (fun p -> close_out (open_out_bin p)) (entry_paths dir);
  let poisoned = run ~dir chain_c in
  check_counters "truncated entries all miss" (0, 4) poisoned;
  Alcotest.(check bool) "truncation is diagnosed" true (has_store_diag poisoned);
  Alcotest.(check string) "programs unchanged" (prog_fingerprint cold)
    (prog_fingerprint poisoned);
  Alcotest.(check bool) "derivations re-validate" true
    (Driver.check_all poisoned = Ok ());
  (* The damaged entries were quarantined, so the store itself is clean
     again: doctor finds only healthy entries. *)
  (match Store.doctor ~dir () with
  | Ok r ->
    Alcotest.(check int) "doctor finds no further damage" 0 r.Store.dr_quarantined;
    Alcotest.(check bool) "quarantine holds the truncated entries" true
      (r.Store.dr_quarantine_files >= 4)
  | Error m -> Alcotest.fail m);
  check_counters "store repopulated" (4, 0) (run ~dir chain_c)

let test_unreadable_degrades () =
  let dir = fresh_dir () in
  let cold = run ~dir chain_c in
  (* An unreadable entry: the path exists but can't be read as a file.
     (chmod 000 is invisible to root, which the CI user is, so model it
     as the entry replaced by a directory — same open/read failure
     path.) *)
  List.iter
    (fun p ->
      Sys.remove p;
      Unix.mkdir p 0o755)
    (entry_paths dir);
  let poisoned = run ~dir chain_c in
  check_counters "unreadable entries all miss" (0, 4) poisoned;
  Alcotest.(check bool) "unreadable entry is a structured warning" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.d_phase = Diag.Store && d.Diag.d_severity = Diag.Warning)
       poisoned.Driver.diags);
  Alcotest.(check string) "programs unchanged" (prog_fingerprint cold)
    (prog_fingerprint poisoned);
  check_counters "store repopulated" (4, 0) (run ~dir chain_c)

(* ------------------------------------------------------------------ *)
(* gc vs a concurrent writer (regression for the satellite fix): gc must
   never delete an in-flight tmp file inside the grace window, must sweep
   genuinely orphaned ones, and interleaved save/gc must never lose a
   committed entry. *)

let test_gc_skips_live_tmp () =
  let dir = fresh_dir () in
  ignore (run ~dir chain_c);
  (* A young tmp file: an in-flight write happening right now. *)
  let live = Filename.concat dir ".acc-tmp-live.part" in
  let oc = open_out_bin live in
  output_string oc "half-written";
  close_out oc;
  (* An orphaned tmp file: its writer died two minutes ago. *)
  let orphan = Filename.concat dir ".acc-tmp-orphan.part" in
  let oc = open_out_bin orphan in
  output_string oc "abandoned";
  close_out oc;
  let old = Unix.gettimeofday () -. 120. in
  Unix.utimes orphan old old;
  (match Store.gc ~dir ~max_entries:1024 () with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "gc leaves the in-flight tmp alone" true (Sys.file_exists live);
  Alcotest.(check bool) "gc sweeps the orphaned tmp" false (Sys.file_exists orphan);
  Alcotest.(check bool) "the orphan went to quarantine, not /dev/null" true
    (Sys.file_exists (Filename.concat (Store.quarantine_dir dir) ".acc-tmp-orphan.part"));
  Sys.remove live

let test_gc_interleaved_writer () =
  let dir = fresh_dir () in
  ignore (run ~dir chain_c);
  (* Recover a genuine entry to republish: its bytes don't matter to gc,
     but using the real save path exercises the real tmp+rename window. *)
  let st = open_store dir in
  let key0 =
    match entry_paths dir with
    | p :: _ -> Filename.chop_suffix (Filename.basename p) ".acc"
    | [] -> Alcotest.fail "no seeded entries"
  in
  let entry =
    match Store.load st ~key:key0 with
    | Store.Hit e -> e
    | _ -> Alcotest.fail "seed entry does not load"
  in
  (* A writer domain hammers saves under rotating keys while the main
     domain runs gc rounds with headroom: every save must succeed and no
     committed entry may vanish. *)
  let writer_failures = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to 199 do
          match Store.save st ~key:(Printf.sprintf "%s%04d" key0 i) entry with
          | Ok () -> ()
          | Error _ -> Atomic.incr writer_failures
        done)
  in
  for _ = 0 to 24 do
    match Store.gc ~dir ~max_entries:4096 () with
    | Ok n -> Alcotest.(check int) "gc with headroom removes nothing" 0 n
    | Error m -> Alcotest.fail m
  done;
  Domain.join writer;
  Alcotest.(check int) "every interleaved save succeeded" 0
    (Atomic.get writer_failures);
  Alcotest.(check bool) "all writes landed" true (List.length (entry_paths dir) >= 204);
  (* And everything in the directory verifies — the race corrupted
     nothing. *)
  (match Store.doctor ~dir () with
  | Ok r -> Alcotest.(check int) "no corrupt entries" 0 r.Store.dr_quarantined
  | Error m -> Alcotest.fail m);
  check_counters "original entries still load" (4, 0) (run ~dir chain_c)

(* ------------------------------------------------------------------ *)
(* Two-process contention through the real binary: two `acc translate`
   runs hammering one store concurrently (cold, so both write every key)
   must produce byte-identical results and leave a consistent store. *)

(* Strip the volatile counters ("store":{...}) from a --diag-json line,
   like ci.sh's sed does. *)
let strip_store_json s =
  match Astring.String.find_sub ~sub:"\"store\":{" s with
  | None -> s
  | Some i -> (
    match String.index_from_opt s i '}' with
    | None -> s
    | Some j -> String.sub s 0 i ^ String.sub s (j + 1) (String.length s - j - 1))

let test_two_process_contention () =
  Alcotest.(check bool) "acc.exe present" true (Sys.file_exists acc_exe);
  let cfile = Filename.temp_file "acc_contend" ".c" in
  let oc = open_out cfile in
  output_string oc chain_c;
  close_out oc;
  let dir = fresh_dir () in
  let out1 = Filename.temp_file "acc_contend1" ".json" in
  let out2 = Filename.temp_file "acc_contend2" ".json" in
  (* Both processes start cold on the same store and race every write;
     a gc runs beside them for good measure. *)
  let cmd =
    Printf.sprintf
      "( %s translate --keep-going --diag-json --store %s %s > %s 2>&1 & %s translate \
       --keep-going --diag-json --store %s %s > %s 2>&1 & %s cache gc --store %s \
       --max-entries 1024 > /dev/null 2>&1 ; wait )"
      (Filename.quote acc_exe) (Filename.quote dir) (Filename.quote cfile)
      (Filename.quote out1) (Filename.quote acc_exe) (Filename.quote dir)
      (Filename.quote cfile) (Filename.quote out2) (Filename.quote acc_exe)
      (Filename.quote dir)
  in
  Alcotest.(check int) "contending processes exit 0" 0 (Sys.command cmd);
  let slurp p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let o1 = strip_store_json (slurp out1) and o2 = strip_store_json (slurp out2) in
  Alcotest.(check string) "contending runs agree byte-for-byte" o1 o2;
  (* The store survived the race consistent: every entry verifies. *)
  (match Store.doctor ~dir () with
  | Ok r ->
    Alcotest.(check int) "no corrupt entries after contention" 0 r.Store.dr_quarantined;
    Alcotest.(check bool) "entries were banked" true (r.Store.dr_ok >= 4)
  | Error m -> Alcotest.fail m);
  check_counters "the contended store replays warm" (4, 0) (run ~dir chain_c);
  List.iter Sys.remove [ cfile; out1; out2 ]

(* ------------------------------------------------------------------ *)
(* qcheck: a write truncated at ANY byte (the kill -9 window) leaves the
   store openable, the damaged entry quarantined rather than trusted, and
   the rerun byte-identical to a fault-free run. *)

let prop_write_truncation =
  QCheck.Test.make ~count:20
    ~name:"store: truncation at any write point degrades cleanly"
    QCheck.(pair (int_bound 0x3FFFFFF) bool)
    (fun (seed, kill_before_rename) ->
      let dir = fresh_dir () in
      let cold = run ~dir chain_c in
      let paths = entry_paths dir in
      let victim = List.nth paths (seed mod List.length paths) in
      let raw =
        let ic = open_in_bin victim in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let cut = seed mod (String.length raw + 1) in
      let truncated = String.sub raw 0 cut in
      if kill_before_rename then begin
        (* The writer died before publishing: the entry is gone and its
           partial tmp file is an orphan from two minutes ago. *)
        Sys.remove victim;
        let tmp = Filename.concat dir ".acc-tmp-killed.part" in
        let oc = open_out_bin tmp in
        output_string oc truncated;
        close_out oc;
        let old = Unix.gettimeofday () -. 120. in
        Unix.utimes tmp old old
      end
      else begin
        (* Filesystem-level truncation of the published entry. *)
        let oc = open_out_bin victim in
        output_string oc truncated;
        close_out oc
      end;
      (* The store must open (recovery quarantines the orphan), the rerun
         must reproduce the fault-free programs, and nothing may raise. *)
      let rerun = run ~dir chain_c in
      let ok_prog = String.equal (prog_fingerprint cold) (prog_fingerprint rerun) in
      let ok_doctor =
        match Store.doctor ~dir () with
        | Ok r -> r.Store.dr_quarantined = 0 (* load already quarantined it *)
        | Error _ -> false
      in
      (* And a full truncated-at-cut=len copy is just the honest entry. *)
      ok_prog && ok_doctor)

(* ------------------------------------------------------------------ *)
(* The lock-fd regression (PR 8 satellite): POSIX record locks are owned
   by the process, and closing ANY fd on the lock file drops ALL of the
   process's locks on it.  The old [Lock] opened a fresh fd per acquire
   and closed it on release — so inside one serve process, a best-effort
   writer's [with_lock] finishing would silently evaporate a strict
   [acquire] that gc/doctor still held mid-scan.  The fix (refcounted
   singleton handle, fd never closed) is only observable from OUTSIDE
   the process, so the probe re-execs this test binary with
   $ACC_LOCK_PROBE (see test/main.ml): it tries a non-blocking lock and
   exits 0 if the parent holds it, 1 if nobody does.  (Not [Unix.fork]:
   forking is forbidden once worker domains exist, and earlier tests
   spawn them.) *)

let probe_locked dir =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env =
    Array.append (Unix.environment ())
      [| "ACC_LOCK_PROBE=" ^ Filename.concat dir ".lock" |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env null null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c = 0
  | _ -> Alcotest.fail "lock probe child died abnormally"

let test_lock_survives_same_process_release () =
  let dir = fresh_dir () in
  let module Lock = Ac_store.Lock in
  (* gc/doctor's strict lock... *)
  let strict =
    match Lock.acquire ~timeout_s:2.0 ~dir () with
    | Ok l -> l
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "strict acquire excludes other processes" true
    (probe_locked dir);
  (* ...then a writer's best-effort critical section in the SAME process.
     Same-process callers share the refcounted handle (record locks were
     always re-entrant within a process), so the writer sees locked:true
     instantly rather than timing out against itself. *)
  Lock.with_lock ~timeout_s:0.2 ~dir (fun ~locked ->
      Alcotest.(check bool) "same-process writer shares the lock" true locked);
  (* THE regression: before the fix, with_lock's release closed its fd
     and the kernel dropped the strict lock with it. *)
  Alcotest.(check bool) "strict lock survives a same-process with_lock cycle" true
    (probe_locked dir);
  Lock.release strict;
  Alcotest.(check bool) "last release actually unlocks" false (probe_locked dir);
  (* Double release is inert — it must not decrement someone else's
     refcount. *)
  Lock.release strict;
  let again =
    match Lock.acquire ~timeout_s:2.0 ~dir () with
    | Ok l -> l
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "lock is reacquirable after release" true (probe_locked dir);
  Lock.release again

(* ------------------------------------------------------------------ *)
(* qcheck: a mutated trace never makes replay raise.  A trace read from
   disk is untrusted: whatever its nodes say, replay must answer [Ok] or
   [Error], which the driver turns into a cache miss. *)

(* Every chain the corpus and the echronos-like unit translate to, with
   the context it replays under. *)
let recorded_traces =
  lazy
    (List.map snd Csources.all @ [ Ac_codegen.generate Ac_codegen.echronos_like ]
    |> List.concat_map (fun src ->
           let res = Driver.run ~options:opts src in
           List.filter_map
             (fun fr ->
               Option.map
                 (fun chain ->
                   ({ res.Driver.ctx with Rules.wvars = fr.Driver.fr_wa_wvars },
                    Trace.record chain))
                 fr.Driver.fr_chain)
             res.Driver.funcs)
    |> Array.of_list)

(* Node and position operands are taken modulo the trace's length and
   the premise list's. *)
type mutation =
  | Swap_rules of int * int
  | Drop_prem of int * int
  | Dup_prem of int * int
  | Rotate_prems of int * int
  | Bad_index of int * int
  | Truncate of int

let show_mutation = function
  | Swap_rules (i, j) -> Printf.sprintf "swap rules %d %d" i j
  | Drop_prem (i, k) -> Printf.sprintf "drop premise %d of %d" k i
  | Dup_prem (i, k) -> Printf.sprintf "duplicate premise %d of %d" k i
  | Rotate_prems (i, k) -> Printf.sprintf "rotate premises of %d by %d" i k
  | Bad_index (i, p) -> Printf.sprintf "premise index %d at %d" p i
  | Truncate k -> Printf.sprintf "truncate to %d" k

let gen_mutation =
  let open QCheck.Gen in
  let node = int_bound 1_000_000 and pos = int_bound 8 in
  oneof
    [
      map2 (fun i j -> Swap_rules (i, j)) node node;
      map2 (fun i k -> Drop_prem (i, k)) node pos;
      map2 (fun i k -> Dup_prem (i, k)) node pos;
      map2 (fun i k -> Rotate_prems (i, 1 + k)) node pos;
      (* out of range: negative, the node itself or later, past the end *)
      map2 (fun i p -> Bad_index (i, p)) node (int_range (-3) 1_000_000);
      map (fun k -> Truncate k) node;
    ]

let mutate (tr : Trace.t) m : Trace.t =
  let n = Array.length tr in
  if n = 0 then tr else
  let tr = Array.copy tr in
  let edit i f =
    let node = tr.(i mod n) in
    let ps = node.Trace.n_prems in
    let k = List.length ps in
    tr.(i mod n) <- { node with Trace.n_prems = (if k = 0 then ps else f ps k) }
  in
  match m with
  | Swap_rules (i, j) ->
    let a = tr.(i mod n) and b = tr.(j mod n) in
    tr.(i mod n) <- { a with Trace.n_rule = b.Trace.n_rule };
    tr.(j mod n) <- { b with Trace.n_rule = a.Trace.n_rule };
    tr
  | Drop_prem (i, p) ->
    edit i (fun ps k -> List.filteri (fun j _ -> j <> p mod k) ps);
    tr
  | Dup_prem (i, p) ->
    edit i (fun ps k -> List.nth ps (p mod k) :: ps);
    tr
  | Rotate_prems (i, r) ->
    edit i (fun ps k ->
        let r = r mod k in
        List.filteri (fun j _ -> j >= r) ps @ List.filteri (fun j _ -> j < r) ps);
    tr
  | Bad_index (i, p) ->
    let node = tr.(i mod n) in
    let p = if p < 0 then p else if p mod 2 = 0 then (i mod n) + (p mod 4) else n + (p mod 4) in
    tr.(i mod n) <- { node with Trace.n_prems = p :: node.Trace.n_prems };
    tr
  | Truncate k -> Array.sub tr 0 (k mod n)

let prop_mutated_replay_total =
  QCheck.Test.make ~count:2000 ~name:"store: a mutated trace replays to Ok or Error, never raises"
    QCheck.(
      make
        ~print:(fun (t, ms) ->
          Printf.sprintf "trace %d: %s" t (String.concat "; " (List.map show_mutation ms)))
        Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 3) gen_mutation)))
    (fun (t, ms) ->
      let traces = Lazy.force recorded_traces in
      let ctx, tr = traces.(t mod Array.length traces) in
      match Trace.replay ctx (List.fold_left mutate tr ms) with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "replay raised %s" (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "warm = cold across the corpus" `Quick test_corpus_roundtrip;
    Alcotest.test_case "hit/miss and per-key invalidation" `Quick test_invalidation_cone;
    Alcotest.test_case "mutual-recursion invalidation cone" `Quick test_mutual_recursion_cone;
    Alcotest.test_case "bit-flipped entry degrades, never mints" `Quick test_bit_flip_poisoning;
    Alcotest.test_case "forged digest-valid entry fails replay" `Quick
      test_forged_entry_fails_replay;
    Alcotest.test_case "trace record/replay roundtrip" `Quick test_trace_roundtrip;
    QCheck_alcotest.to_alcotest prop_replay_identical;
    Alcotest.test_case "CLI store exit codes" `Quick test_cli_exit_codes;
    Alcotest.test_case "serve lint emits --diag-json-shaped findings" `Quick
      test_serve_lint_diag_shape;
    Alcotest.test_case "truncated-to-zero entries degrade to misses" `Quick
      test_truncation_degrades;
    Alcotest.test_case "unreadable entries degrade with a structured warning" `Quick
      test_unreadable_degrades;
    Alcotest.test_case "gc honours the tmp grace window" `Quick test_gc_skips_live_tmp;
    Alcotest.test_case "gc never loses an interleaved writer's entries" `Quick
      test_gc_interleaved_writer;
    Alcotest.test_case "two processes hammering one store agree" `Quick
      test_two_process_contention;
    QCheck_alcotest.to_alcotest prop_write_truncation;
    Alcotest.test_case "strict lock survives same-process with_lock (fd-drop fix)"
      `Quick test_lock_survives_same_process_release;
    Alcotest.test_case "replay of a rule the kernel refuses is an Error" `Quick
      test_trace_replay_refuses;
    QCheck_alcotest.to_alcotest prop_mutated_replay_total;
  ]
