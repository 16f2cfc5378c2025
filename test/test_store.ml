(* The persistent proof store: content-keyed invalidation, search hints,
   and the trust story.

   The properties pinned here are the ones the store's soundness argument
   stands on:

   - a warm run is observably identical to a cold run — same programs,
     levels, skip lists, diagnostics — and skips the search its entries
     cover (summary walks, discharge fixpoints);
   - invalidation tracks every key component: the function's own source,
     the sources of its transitive callees (through mutual-recursion
     cycles), the driver option vector, and the ruleset tag;
   - a corrupted entry (bit flip) is rejected before deserialization and
     degrades to full translation — it can never mint a theorem;
   - a digest-valid but *wrong* entry (a forged certificate taken from a
     different program) is refused by the kernel, diagnosed, and solved
     again. *)

module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Store = Ac_store.Store
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
  check_counters "original entries survived" (4, 0) (run ~dir chain_c);
  (* Keys are position-free: comments, blank lines and re-indentation
     move every function without changing one. *)
  let reformatted =
    "/* a header comment */\n\n"
    ^ replace_once ~sub:"int r = 0;" ~by:"int   r = 0;   // set below\n"
        (replace_once ~sub:"int scale(int v) {" ~by:"\n\nint scale(int v)\n{" chain_c)
  in
  check_counters "comment and whitespace edits still hit" (4, 0) (run ~dir reformatted);
  (* Entries banked under the previous ruleset, which held programs and
     derivation traces, read as misses, not as errors. *)
  Alcotest.(check string) "current ruleset" "acc-store-1/ruleset-13" Store.ruleset_tag;
  let old_dir = fresh_dir () in
  check_counters "ruleset-12: banked" (0, 4)
    (run ~dir:old_dir ~tag:"acc-store-1/ruleset-12" chain_c);
  let res = run ~dir:old_dir chain_c in
  check_counters "ruleset-12 entries miss" (0, 4) res;
  Alcotest.(check bool) "ruleset-12 entries raise no store diagnostic" false (has_store_diag res)

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
(* Recorded summary walks: a warm run re-walks only the SCCs whose inputs
   changed, and its summary table is a cold run's. *)

let sums_digest (res : Driver.result) = Ac_analysis.Domains.sums_digest res.Driver.sums

let check_cold_table what (cold : Driver.result) (res : Driver.result) =
  Alcotest.(check string) (what ^ ": cold table") (sums_digest cold) (sums_digest res);
  Alcotest.(check int) (what ^ ": cold budget hits") cold.Driver.budget_hits
    res.Driver.budget_hits;
  Alcotest.(check string) (what ^ ": cold output") (fingerprint cold) (fingerprint res)

let test_warm_walks_nothing () =
  let src = Ac_codegen.generate Ac_codegen.sel4_like in
  let plain = Driver.run ~options:opts src in
  let plain_walks = plain.Driver.summary_walks in
  let dir = fresh_dir () in
  let cold = run ~dir src in
  Alcotest.(check int) "a store-less run's walks" plain_walks cold.Driver.summary_walks;
  Alcotest.(check bool) "the cold run walks every SCC" true (plain_walks > 500);
  check_cold_table "cold with a store" plain cold;
  let warm = run ~dir src in
  Alcotest.(check int) "every function hits" 0 warm.Driver.store_misses;
  Alcotest.(check int) "all hits: no walk" 0 warm.Driver.summary_walks;
  check_cold_table "all hits" cold warm

(* Discharge fixpoints, counted like the walks: a warm run whose every
   function hits takes each round's stored certificate instead of
   solving, and still produces the cold run's output. *)
let test_warm_solves_nothing () =
  let src = Ac_codegen.generate Ac_codegen.sel4_like in
  let solves () = Atomic.get Ac_analysis.solves in
  let plain = Driver.run ~options:opts src in
  let plain_solves = solves () in
  let dir = fresh_dir () in
  let cold = run ~dir src in
  Alcotest.(check int) "a store-less run's fixpoints" plain_solves (solves ());
  Alcotest.(check bool) "the cold run solves" true (plain_solves > 500);
  check_cold_table "cold with a store" plain cold;
  let warm = run ~dir src in
  Alcotest.(check int) "every function hits" 0 warm.Driver.store_misses;
  Alcotest.(check int) "all hits: no fixpoint" 0 (solves ());
  check_cold_table "all hits" cold warm;
  Alcotest.(check bool) "warm derivations re-validate" true (Driver.check_all warm = Ok ())

(* Effort accounting observes the discharge rounds without changing
   them: an armed all-hit warm run takes the stored certificates too,
   and reports what the unarmed run outputs and the cold run's
   provenance. *)
let test_armed_warm_takes_hints () =
  let src = Ac_codegen.generate Ac_codegen.echronos_like in
  let armed f =
    Ac_stats.arm_effort ();
    Fun.protect
      ~finally:(fun () ->
        Ac_obs.Effort.set_enabled false;
        Thm.set_obs_hook None;
        Ac_obs.Effort.reset ())
      (fun () ->
        let res = f () in
        let provenance =
          String.split_on_char '\n' (Ac_obs.Effort.report ~files:1 ())
          |> List.filter (String.starts_with ~prefix:"discharge provenance:")
        in
        (res, provenance))
  in
  let dir = fresh_dir () in
  let cold, cold_provenance = armed (fun () -> run ~dir src) in
  Alcotest.(check int) "one provenance line" 1 (List.length cold_provenance);
  let warm = run ~dir src in
  Alcotest.(check int) "unarmed: every function hits" 0 warm.Driver.store_misses;
  Alcotest.(check int) "unarmed: no fixpoint" 0 (Atomic.get Ac_analysis.solves);
  let armed_warm, warm_provenance = armed (fun () -> run ~dir src) in
  Alcotest.(check int) "armed: every function hits" 0 armed_warm.Driver.store_misses;
  Alcotest.(check int) "armed: no fixpoint" 0 (Atomic.get Ac_analysis.solves);
  Alcotest.(check string) "armed: the unarmed output" (fingerprint warm)
    (fingerprint armed_warm);
  Alcotest.(check (list string)) "armed: the cold provenance" cold_provenance
    warm_provenance;
  check_cold_table "armed all hits" cold armed_warm

let test_leaf_edit_one_walk () =
  let dir = fresh_dir () in
  ignore (run ~dir chain_c);
  (* [scale] is called by nothing and calls nothing. *)
  let edited = replace_once ~sub:"return v * 2;" ~by:"return v * 3;" chain_c in
  let warm = run ~dir edited in
  check_counters "only the leaf misses" (3, 1) warm;
  Alcotest.(check int) "one walk, the leaf's" 1 warm.Driver.summary_walks;
  check_cold_table "leaf edit" (run ~dir:(fresh_dir ()) edited) warm

(* The entry banked for [name], read back from [dir]. *)
let entry_named dir name =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".acc")
  |> List.find_map (fun f ->
         let key = Filename.chop_suffix f ".acc" in
         let ic = open_in_bin (Filename.concat dir f) in
         let raw = really_input_string ic (in_channel_length ic) in
         close_in ic;
         match Store.decode ~key raw with
         | Ok e when e.Store.e_name = name -> Some (key, e)
         | _ -> None)
  |> function
  | Some ke -> ke
  | None -> Alcotest.fail ("no entry for " ^ name)

let test_context_change_rewalks () =
  let dir = fresh_dir () in
  ignore (run ~dir chain_c);
  let _, before = entry_named dir "clamp" in
  (* clamp3's call site is clamp's refined context: editing its constant
     leaves clamp a hit whose context changed. *)
  let edited = replace_once ~sub:"r = clamp(0, 3, v);" ~by:"r = clamp(0, 5, v);" chain_c in
  let warm = run ~dir edited in
  check_counters "clamp and scale hit" (2, 2) warm;
  check_cold_table "context change" (run ~dir:(fresh_dir ()) edited) warm;
  (* clamp was walked again and banked again with that walk added. *)
  let _, after = entry_named dir "clamp" in
  Alcotest.(check int) "clamp's new walk is recorded"
    (List.length before.Store.e_walks + 1) (List.length after.Store.e_walks);
  Alcotest.(check int) "the edited source walks nothing the next time" 0
    (run ~dir edited).Driver.summary_walks

(* [f]'s key covers [f] and [g], but [g]'s summary contexts also come
   from [g]'s other callers: with three more of them, the context [f]'s
   call gives [g] no longer fits under the cap, and the guards [f]'s
   certificate discharged stay.  [f] is a hit whose summary slice
   changed, so its stored certificate is not offered: the round solves
   under the new slice, as a cold run does, and nothing is diagnosed. *)
let slice_c ~others =
  "int g(int x) {\n  return x;\n}\n"
  ^ String.concat ""
      (List.mapi
         (fun i k ->
           Printf.sprintf "int h%d(int v) {\n  int r = 0;\n  r = g(%d);\n  return r;\n}\n" i k)
         others)
  ^ "int f(int v) {\n  int r = 0;\n  r = g(5);\n  return 100 / r;\n}\n"

let test_slice_change_solves () =
  let dir = fresh_dir () in
  let before = run ~dir (slice_c ~others:[]) in
  let edited = slice_c ~others:[ 1; 2; 0 ] in
  let cold = run ~dir:(fresh_dir ()) edited in
  let guards (res : Driver.result) =
    match Driver.find_result res "f" with
    | Some fr -> Ac_analysis.guard_count fr.Driver.fr_l2.Ac_monad.M.body
    | None -> Alcotest.fail "no result for f"
  in
  Alcotest.(check bool) "f keeps guards it discharged before" true
    (guards cold > guards before);
  let warm = run ~dir edited in
  check_counters "g and f hit" (2, 3) warm;
  Alcotest.(check bool) "nothing is diagnosed" false (has_store_diag warm);
  Alcotest.(check string) "the cold output" (fingerprint cold) (fingerprint warm);
  let again = run ~dir edited in
  check_counters "all hit" (5, 0) again;
  Alcotest.(check int) "f was banked with the new slice: no fixpoint" 0
    (Atomic.get Ac_analysis.solves)

(* Every recorded claim of [clamp] strengthened to "never returns", saved
   under its key with an honest payload digest.  A caller whose walk
   believed it would find every guard after the call dead; the kernel
   re-verifies the slice, so no guard a cold run keeps may go. *)
let test_forged_walk_record () =
  let dir = fresh_dir () in
  ignore (run ~dir chain_c);
  let key, e = entry_named dir "clamp" in
  let never_returns (s : Ac_kernel.Absdom.summary) = { s with Ac_kernel.Absdom.s_noret = true } in
  let forge (w : Ac_analysis.Summary.walk) =
    let r = w.Ac_analysis.Summary.w_result in
    { w with
      Ac_analysis.Summary.w_result =
        { r with
          Ac_analysis.Summary.entries =
            Option.map (List.map (fun (g, ss) -> (g, List.map never_returns ss)))
              r.Ac_analysis.Summary.entries } }
  in
  (match Store.save (open_store dir) ~key { e with Store.e_walks = List.map forge e.Store.e_walks } with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let edited = replace_once ~sub:"return x + y + z;" ~by:"return x + y + z + 0;" chain_c in
  let cold = run ~dir:(fresh_dir ()) edited in
  let forged =
    match run ~dir edited with
    | res -> res
    | exception ex -> Alcotest.fail ("forged record raised " ^ Printexc.to_string ex)
  in
  Alcotest.(check bool) "the forged claim reached the table" true
    (sums_digest forged <> sums_digest cold);
  let guards (res : Driver.result) name =
    match Driver.find_result res name with
    | Some fr -> Ac_analysis.guard_count fr.Driver.fr_final.Ac_monad.M.body
    | None -> Alcotest.fail ("no result for " ^ name)
  in
  List.iter
    (fun fr ->
      let name = fr.Driver.fr_name in
      Alcotest.(check bool)
        (name ^ ": keeps every guard the cold run keeps") true
        (guards forged name >= guards cold name))
    cold.Driver.funcs;
  Alcotest.(check bool) "derivations re-validate" true (Driver.check_all forged = Ok ())

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

(* Forged certificates with a *valid* digest, saved under the victim's
   content key and slice digest: the discharge invariants a genuine
   translation of a different program found, and no invariants at all
   (valid, but weaker: the guard before the loop still goes, the one the
   loop invariant proves stays, so only the guard count the hint
   predicts gives it away).  Each decodes and is offered to the kernel,
   and must be refused: the round solves again, the entry is demoted and
   banked again, and the result is the cold run's. *)
let loop_c i bound =
  Printf.sprintf
    "int f(int n) {\n  int %s = 0;\n  int s = 0;\n  if (n > 0 && n < 100) {\n    s = n + 1;\n  }\n  while (%s < %d) {\n    s = 100 / (%s + 1);\n    %s = %s + 1;\n  }\n  return s;\n}\n"
    i i bound i i i

let round1_cert dir =
  match entry_named dir "f" with
  | key, ({ Store.e_certs = Some c, _; _ } as e) -> (
    match c.Store.c_hint with
    | Ac_analysis.Discharged (invs, left) when invs <> [] -> (key, e, c, invs, left)
    | _ -> Alcotest.fail "f's round-1 hint holds no invariants")
  | _ -> Alcotest.fail "f's entry has no round-1 certificate"

let test_forged_entry_fails_replay () =
  let src_b = loop_c "i" 9 in
  let dir_a = fresh_dir () in
  ignore (run ~dir:dir_a (loop_c "j" 2));
  let _, _, _, invs_a, left_a = round1_cert dir_a in
  List.iter
    (fun (what, forge) ->
      let dir = fresh_dir () in
      let cold_b = run ~dir src_b in
      let key_b, e_b, c_b, invs_b, left_b = round1_cert dir in
      Alcotest.(check bool) "the two programs' invariants differ" false (invs_a = invs_b);
      let forged =
        { e_b with
          Store.e_certs =
            (Some { c_b with Store.c_hint = forge left_b }, snd e_b.Store.e_certs) }
      in
      (match Store.save (open_store dir) ~key:key_b forged with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let warm_b = run ~dir src_b in
      Alcotest.(check bool) (what ^ ": diagnosed") true (has_store_diag warm_b);
      check_counters (what ^ ": demoted to a miss") (0, 1) warm_b;
      Alcotest.(check bool) (what ^ ": the round solved again") true
        (Atomic.get Ac_analysis.solves > 0);
      Alcotest.(check string) (what ^ ": B's cold programs") (prog_fingerprint cold_b)
        (prog_fingerprint warm_b);
      Alcotest.(check bool) (what ^ ": derivations re-validate") true
        (Driver.check_all warm_b = Ok ());
      let again = run ~dir src_b in
      check_counters (what ^ ": the entry banked again hits") (1, 0) again;
      Alcotest.(check string) (what ^ ": and gives the cold run") (fingerprint cold_b)
        (fingerprint again))
    [ ("another program's invariants", fun _ -> Ac_analysis.Discharged (invs_a, left_a));
      ("no invariants", fun left -> Ac_analysis.Discharged ([], left)) ]

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

let suite =
  [
    Alcotest.test_case "warm = cold across the corpus" `Quick test_corpus_roundtrip;
    Alcotest.test_case "hit/miss and per-key invalidation" `Quick test_invalidation_cone;
    Alcotest.test_case "mutual-recursion invalidation cone" `Quick test_mutual_recursion_cone;
    Alcotest.test_case "an all-hit warm run makes no summary walk" `Quick
      test_warm_walks_nothing;
    Alcotest.test_case "an all-hit warm run solves no discharge fixpoint" `Quick
      test_warm_solves_nothing;
    Alcotest.test_case "an armed all-hit warm run takes the stored hints" `Quick
      test_armed_warm_takes_hints;
    Alcotest.test_case "a leaf edit makes one summary walk" `Quick test_leaf_edit_one_walk;
    Alcotest.test_case "a hit whose context changed is walked again" `Quick
      test_context_change_rewalks;
    Alcotest.test_case "a hit whose summary slice changed solves again" `Quick
      test_slice_change_solves;
    Alcotest.test_case "a forged walk record discharges nothing" `Quick
      test_forged_walk_record;
    Alcotest.test_case "bit-flipped entry degrades, never mints" `Quick test_bit_flip_poisoning;
    Alcotest.test_case "forged digest-valid entry fails replay" `Quick
      test_forged_entry_fails_replay;
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
  ]
