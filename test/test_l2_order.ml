(* The L2 conversion schedule: callee-first over the call graph's SCC
   waves.  Scheduling must be invisible in the output, so the golden
   digests below pin everything observable about a translated unit
   (levels, chains, final bodies, degradations, diagnostics, the nothrow
   set and the kernel re-check verdict) to the values the earlier
   whole-unit nothrow-round schedule produced.  The [--jobs]
   differentials elsewhere only compare the current code with itself;
   these digests compare it with the old schedule. *)

module Rules = Ac_kernel.Rules
module Driver = Autocorres.Driver
module Diag = Autocorres.Diag
module Profile = Autocorres.Profile
module Callgraph = Ac_analysis.Callgraph

let read_file path = In_channel.with_open_bin path In_channel.input_all

let corpus_file name = read_file (Paths.corpus_file (name ^ ".c"))

let options ~jobs = { Driver.default_options with Driver.keep_going = true; jobs }

(* One digest over everything a translation exposes. *)
let unit_digest ~jobs (src : string) : string =
  let res = Driver.run ~options:(options ~jobs) src in
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (fr : Driver.func_result) ->
      add fr.Driver.fr_name;
      add (Driver.level_name (Driver.level_of fr));
      add (string_of_bool (Option.is_some fr.Driver.fr_chain));
      add (Ac_monad.Mprint.func_to_string fr.Driver.fr_final))
    res.Driver.funcs;
  List.iter
    (fun (d : Driver.degraded) ->
      add ("degraded " ^ d.Driver.dg_name ^ " " ^ Driver.level_name (Driver.degraded_level d)))
    res.Driver.degraded;
  List.iter
    (fun d -> if d.Diag.d_phase <> Diag.Store then add (Diag.to_json d))
    res.Driver.diags;
  add
    ("nothrows "
    ^ String.concat "," (Ac_kernel.Index.to_list res.Driver.ctx.Rules.nothrows));
  add (match Driver.check_all res with Ok () -> "check ok" | Error m -> "check " ^ m);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A corpus file's name, or an [Ac_codegen] profile's. *)
let unit_source name =
  match List.find_opt (fun p -> String.equal p.Ac_codegen.p_name name) Ac_codegen.profiles with
  | Some p -> Ac_codegen.generate p
  | None -> corpus_file name

(* Every corpus file and every [Ac_codegen] profile, digested as produced
   by the round-based schedule (identical at [jobs] 1 and 2).  The
   sel4-like, piccolo-like and echronos-like digests were re-recorded when
   the rewrite engine began normalising what a head step builds within the
   same sweep: 9 of their 810 functions changed, 4 losing a dead
   [x <- return e] binding and 5 only in the primes of renamed binders. *)
let golden_digests =
  [
    ("binary_search", "f2a65db7d99d95aea082144c21c35cfd");
    ("call_chain", "52bfd78d4049769335975238d2fb6d9e");
    ("clamp_shift", "d08113bc07e21d13e53dca985f6524d1");
    ("counter", "716f14516855a446616df2026a31ee12");
    ("div_guarded", "92d659cdd844f834ddad9a1a9090f7d6");
    ("gcd", "2a4b42726e6bb9ace81f24c6556c4662");
    ("max", "8571bb4ba5a3f355b4eda59a41245d96");
    ("memset", "7ac7fe79400521b868ebc889b9053d2a");
    ("memset_mixed", "80a196e737d3f8038882fe906429a350");
    ("mid", "d5a513b17eaa651831ca4ad89f43b834");
    ("mutual_parity", "9d92b7b1672325c2413e825f8e7afdbc");
    ("odd_divisor", "e92fcbf50735e0a71aba927ac98373b5");
    ("rec_bound", "d28fa16af47e687484fdb0df0bd3f646");
    ("reverse", "0a61c6956b562e7aad6acc8f84949163");
    ("schorr_waite", "51dfe5bcff2c41971253ebf1264460cb");
    ("shift_guarded", "c618aec9cfe36f1607486bc2d6d408de");
    ("suzuki", "e8ca39a4e52d4336f95e3dea4b683a95");
    ("swap", "612011e9d366329a53d6f420aa477f7a");
    ("sel4-like", "828118a770006c5fd414dfe584bea207");
    ("capdl-sysinit-like", "e4bd5f46c5fae7c73864f94b29e72802");
    ("piccolo-like", "0d5f9d3adb419a121a380a17868c23f2");
    ("echronos-like", "a6d1b1b016c4244b6cfc77af046ac530");
  ]

let test_golden jobs () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at jobs %d" name jobs)
        digest
        (unit_digest ~jobs (unit_source name)))
    golden_digests

(* The summary table and the budget-hit count at jobs 1, pinned to the
   values the refinement loop produced when every round re-walked every
   SCC: an SCC that is not re-walked must reuse exactly what a re-walk
   would recompute, and replay its exhaustions.  Each unit runs under the
   default budgets and under tight ones, which make loop fixpoints, SCC
   fixpoints and refinement rounds run dry.  The sel4-like and
   piccolo-like default-budget tables were re-recorded with the digests
   above: they summarise the changed L2 bodies. *)
let tight_budgets =
  { Driver.default_budgets with Driver.summary_rounds = 2; analysis_rounds = 3 }

(* (unit, (table digest, budget hits) by default, the same when tight) *)
let golden_sums =
  [
    ("binary_search", ("c7bf7060b382a988d55ee4e77e597cbd", 0), ("c7bf7060b382a988d55ee4e77e597cbd", 0));
    ("call_chain", ("0627505bfbbb8886d2eadaca4783e25d", 0), ("0627505bfbbb8886d2eadaca4783e25d", 0));
    ("clamp_shift", ("7b8938f63fdb25937c832b0fbe2e58f7", 0), ("7b8938f63fdb25937c832b0fbe2e58f7", 0));
    ("counter", ("85e84809f210050078132511b06ab882", 0), ("85e84809f210050078132511b06ab882", 0));
    ("div_guarded", ("42dff2ee32bd83b2592ab92d0fd9bf36", 0), ("42dff2ee32bd83b2592ab92d0fd9bf36", 0));
    ("gcd", ("0bc6b9bd74ac5cc9aa27279a9b377278", 0), ("0bc6b9bd74ac5cc9aa27279a9b377278", 0));
    ("max", ("a5d1018d558c36cf0fd1f940d95cf585", 0), ("a5d1018d558c36cf0fd1f940d95cf585", 0));
    ("memset", ("1d2b9a3b493e7e283d54a5e645e5ef78", 0), ("19ddace21b36fa62c1ce0937c3160230", 3));
    ("memset_mixed", ("449292e7bcccae9c9ab7f481d9313259", 0), ("7d100e6086ab85e109eb34fa3c0d7f5c", 5));
    ("mid", ("a0b7d2b3337a23c2ebe1e95b4215e43d", 0), ("a0b7d2b3337a23c2ebe1e95b4215e43d", 0));
    ("mutual_parity", ("8834e85d63863eea8de341241929eae3", 0), ("c4cea7f97f84330f01c20dfa82f5917b", 1));
    ("odd_divisor", ("d0d87720bf616c18701a3dc9ecff2b1d", 0), ("d0d87720bf616c18701a3dc9ecff2b1d", 0));
    ("rec_bound", ("6af9fe2c8789dcb34f6e19c42fd2c45f", 0), ("cd4b0c14c0bbbe19e6c199ae2a48afb8", 1));
    ("reverse", ("0b67d1e5f03e1b33d669dcc6eee07c98", 0), ("0b67d1e5f03e1b33d669dcc6eee07c98", 0));
    ("schorr_waite", ("2cc8cd5f9cef5c498ba6c93b40071c92", 0), ("2cc8cd5f9cef5c498ba6c93b40071c92", 0));
    ("shift_guarded", ("a49ba6045c9e3bc747a73093b14fcc08", 0), ("a49ba6045c9e3bc747a73093b14fcc08", 0));
    ("suzuki", ("4ae763582cd574545f0c289763f32e02", 0), ("4ae763582cd574545f0c289763f32e02", 0));
    ("swap", ("0060f5696f89b5b2aca6f65c02ed5c0c", 0), ("0060f5696f89b5b2aca6f65c02ed5c0c", 0));
    ("sel4-like", ("64232dd2cb0663568c3d5de8d62ff77d", 0), ("c52f382fa050e288e4dbf852b624e7fa", 1006));
    ("capdl-sysinit-like", ("3810f291791c10bae5decd0889bff3fa", 0), ("5574ea502ad1560a942d2576e05f007b", 203));
    ("piccolo-like", ("6a2f42be7caa0d767a33be39e3e351fe", 0), ("43e3cd27fb5d8bbb97926324aa7ae777", 83));
    ("echronos-like", ("b46f73bc7f227a561d06070508802fe1", 0), ("1e72e1b7c553222b7dc8ceb7ef2fe0fa", 33));
  ]

let test_golden_sums () =
  List.iter
    (fun (name, default, tight) ->
      List.iter
        (fun (tag, budgets, (digest, hits)) ->
          let res =
            Driver.run ~options:{ (options ~jobs:1) with Driver.budgets } (unit_source name)
          in
          Alcotest.(check (pair string int))
            (Printf.sprintf "%s summaries, %s budgets" name tag)
            (digest, hits)
            (Ac_analysis.Domains.sums_digest res.Driver.sums, res.Driver.budget_hits))
        [ ("default", Driver.default_budgets, default); ("tight", tight_budgets, tight) ])
    golden_sums

(* Refinement rounds re-walk only the SCCs a new context reaches: on
   the sel4-like unit every one of the four rounds used to walk every
   SCC. *)
let test_summary_walks () =
  let res =
    Driver.run ~options:(options ~jobs:1) (Ac_codegen.generate Ac_codegen.sel4_like)
  in
  let sccs =
    List.length
      (Callgraph.sccs
         (Callgraph.of_funcs (List.map (fun fr -> fr.Driver.fr_l2) res.Driver.funcs)))
  in
  let walks = Atomic.get Ac_analysis.Summary.scc_walks in
  Alcotest.(check bool)
    (Printf.sprintf "%d SCC walks for %d SCCs" walks sccs)
    true
    (sccs > 500 && walks >= sccs && walks < 2 * sccs)

(* A cycle's statuses must be judged under the guess its bodies were
   converted under: judged under the pre-cycle set instead, [parity]
   keeps a [try ... catch] and stops at HL, and the kernel re-check
   rejects the unit. *)
let test_recursive_scc () =
  List.iter
    (fun (file, cycle) ->
      let res = Driver.run ~options:(options ~jobs:1) (corpus_file file) in
      Alcotest.(check (list string)) (file ^ ": nothing degraded") []
        (List.map (fun d -> d.Driver.dg_name) res.Driver.degraded);
      List.iter
        (fun fr ->
          Alcotest.(check string)
            (file ^ ": " ^ fr.Driver.fr_name ^ " reaches WA")
            "WA"
            (Driver.level_name (Driver.level_of fr)))
        res.Driver.funcs;
      List.iter
        (fun f ->
          Alcotest.(check bool) (file ^ ": " ^ f ^ " nothrow") true
            (Ac_kernel.Index.mem res.Driver.ctx.Rules.nothrows f))
        cycle;
      Alcotest.(check bool) (file ^ ": check_all accepts") true
        (Driver.check_all res = Ok ()))
    [ ("mutual_parity", [ "is_even"; "is_odd"; "parity" ]); ("rec_bound", [ "walk_up" ]) ]

(* One L2 conversion per function on an acyclic unit: no re-conversion
   round. *)
let test_one_conversion_per_function () =
  let res =
    Driver.run ~options:(options ~jobs:1) (Ac_codegen.generate Ac_codegen.echronos_like)
  in
  let l1_converted =
    List.length res.Driver.funcs
    + List.length
        (List.filter (fun d -> Option.is_some d.Driver.dg_l1) res.Driver.degraded)
  in
  let l2_calls =
    match List.find_opt (fun e -> e.Profile.phase = "l2") (Profile.snapshot ()) with
    | Some e -> e.Profile.calls
    | None -> 0
  in
  Alcotest.(check bool) "unit is non-trivial" true (l1_converted > 1);
  Alcotest.(check int) "l2 conversions = L1-converted functions" l1_converted l2_calls

(* ------------------------------------------------------------------ *)
(* [Callgraph.waves]. *)

let graph edges = Callgraph.of_edges (List.map fst edges) edges

let wave_index waves =
  List.concat
    (List.mapi (fun i wave -> List.concat_map (List.map (fun n -> (n, i))) wave) waves)

(* Callees (outside the caller's SCC) sit in strictly lower waves, and
   every SCC stays whole in one wave. *)
let test_waves_order () =
  let g =
    graph
      [ ("main", [ "a"; "b"; "log" ]); ("a", [ "b"; "c" ]); ("b", [ "c"; "log" ]);
        ("c", [ "d" ]); ("d", [ "c"; "leaf" ]); ("leaf", []); ("log", [ "log" ]);
        ("orphan", []) ]
  in
  let waves = Callgraph.waves g in
  let idx = wave_index waves in
  let sccs = Callgraph.sccs g in
  let scc_of n = List.find (List.mem n) sccs in
  Alcotest.(check (list string)) "every node in exactly one wave"
    (List.sort String.compare g.Callgraph.nodes)
    (List.sort String.compare (List.map fst idx));
  List.iter
    (fun scc ->
      let ws = List.sort_uniq compare (List.map (fun n -> List.assoc n idx) scc) in
      Alcotest.(check int) "SCC whole in one wave" 1 (List.length ws);
      Alcotest.(check bool) "SCC appears as a unit" true
        (List.exists (List.mem scc) waves))
    sccs;
  List.iter
    (fun n ->
      List.iter
        (fun s ->
          if not (List.mem s (scc_of n)) then
            Alcotest.(check bool)
              (Printf.sprintf "%s above its callee %s" n s)
              true
              (List.assoc s idx < List.assoc n idx))
        (Callgraph.successors g n))
    g.Callgraph.nodes;
  Alcotest.(check (list (list (list string)))) "layout"
    [ [ [ "leaf" ]; [ "log" ]; [ "orphan" ] ]; [ [ "c"; "d" ] ]; [ [ "b" ] ]; [ [ "a" ] ];
      [ [ "main" ] ] ]
    (List.map (List.map (List.sort String.compare)) waves)

(* Deterministic: within a wave SCCs keep [sccs] order, so flattening the
   waves of an antichain gives the [sccs] order. *)
let test_waves_deterministic () =
  let g = graph [ ("x", [ "p" ]); ("y", [ "q" ]); ("p", []); ("q", []); ("z", []) ] in
  let waves = Callgraph.waves g in
  Alcotest.(check bool) "stable across calls" true (waves = Callgraph.waves g);
  let order = List.concat (List.concat waves) in
  let sccs = List.concat (Callgraph.sccs g) in
  List.iter
    (fun wave ->
      let members = List.concat wave in
      Alcotest.(check (list string)) "wave keeps sccs order"
        (List.filter (fun n -> List.mem n members) sccs)
        members)
    waves;
  Alcotest.(check int) "all nodes" 5 (List.length order);
  Alcotest.(check (list (list (list string)))) "empty graph" [] (Callgraph.waves (graph []))

let suite =
  [
    Alcotest.test_case "waves: callees strictly lower, SCCs whole" `Quick test_waves_order;
    Alcotest.test_case "waves: deterministic, sccs order" `Quick test_waves_deterministic;
    Alcotest.test_case "golden output at jobs 1" `Quick (test_golden 1);
    Alcotest.test_case "golden output at jobs 2" `Quick (test_golden 2);
    Alcotest.test_case "golden summary table and budget hits" `Quick test_golden_sums;
    Alcotest.test_case "summary refinement re-walks only what moved" `Quick
      test_summary_walks;
    Alcotest.test_case "recursive SCCs reach WA, whole cycle nothrow" `Quick
      test_recursive_scc;
    Alcotest.test_case "one L2 conversion per function (acyclic unit)" `Quick
      test_one_conversion_per_function;
  ]
