(* Aggregated alcotest runner: each [Test_*] module exports a [suite]. *)

let () =
  (* Out-of-process POSIX-lock probe for the store-lock tests: record
     locks are per-process, so whether THIS test process holds one can
     only be observed from another process — and [Unix.fork] is off the
     table once worker domains exist.  Re-exec'd with $ACC_LOCK_PROBE
     set, the binary tries a non-blocking lock and exits 1 if it got it
     (nobody held the lock), 0 if it couldn't (the parent holds it). *)
  match Sys.getenv_opt "ACC_LOCK_PROBE" with
  | Some path ->
    let code =
      match
        let fd = Unix.openfile path [ Unix.O_CREAT; Unix.O_WRONLY ] 0o644 in
        Unix.lockf fd Unix.F_TLOCK 0
      with
      | () -> 1
      | exception _ -> 0
    in
    exit code
  | None ->
  Alcotest.run "autocorres"
    [
      ("bignum", Test_bignum.suite);
      ("word", Test_word.suite);
      ("cfront", Test_cfront.suite);
      ("simpl", Test_simpl.suite);
      ("pipeline", Test_pipeline.suite);
      ("prover", Test_prover.suite);
      ("hoare", Test_hoare.suite);
      ("cases", Test_cases.suite);
      ("kernel", Test_kernel.suite);
      ("monad", Test_monad.suite);
      ("corpus", Test_corpus.suite);
      ("props", Test_props.suite);
      ("analysis", Test_analysis.suite);
      ("robustness", Test_robustness.suite);
      ("perf_layer", Test_perf_layer.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("l2_order", Test_l2_order.suite);
      ("rewrite", Test_rewrite.suite);
    ]
