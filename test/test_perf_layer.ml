(* PR 3's performance layer: term-order/equality consistency, hash-cons
   soundness, the memoized derivation checker, and the parallel driver.

   The ordering/equality properties are the bugfix half (compare_t used to
   ignore the sort on Var, so ordered containers could identify terms that
   [equal] distinguishes); the differentials are the performance half —
   every fast path must be observationally identical to the slow one. *)

module B = Ac_bignum
module T = Ac_prover.Term
module Driver = Autocorres.Driver
module Check_cache = Autocorres.Check_cache
module Pool = Autocorres.Pool
module Diag = Autocorres.Diag
module Thm = Ac_kernel.Thm
module Mprint = Ac_monad.Mprint
module Csources = Ac_cases.Csources

(* ------------------------------------------------------------------ *)
(* Term generators.  A deliberately tiny vocabulary (two names, two
   sorts, small constants, depth <= 2) so random pairs collide often
   enough to exercise the [equal]/[compare_t = 0] direction, and
   same-name-different-sort vars probe exactly the fixed bug. *)

let gen_term =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map T.int_of (int_range (-3) 3);
        oneofl
          [ T.Var ("x", T.Sint); T.Var ("x", T.Sbool); T.Var ("y", T.Sint);
            T.tt; T.ff ] ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 (fun a b -> T.App (T.Add, [ a; b ])) (go (n - 1)) (go (n - 1));
          map2 (fun a b -> T.App (T.Eq, [ a; b ])) (go (n - 1)) (go (n - 1));
          map (fun a -> T.App (T.Neg, [ a ])) (go (n - 1));
          map (fun a -> T.App (T.Uf "f", [ a ])) (go (n - 1)) ]
  in
  let* depth = int_range 0 2 in
  go depth

(* A structural copy sharing no nodes with the original, so the
   properties cannot be satisfied by the [==] fast paths alone. *)
let rec deep_copy (t : T.t) : T.t =
  match t with
  | T.Int n -> T.Int (B.add n B.zero)
  | T.Bool b -> T.Bool b
  | T.Var (x, s) -> T.Var (String.init (String.length x) (String.get x), s)
  | T.App (f, xs) -> T.App (f, List.map deep_copy xs)

(* Pairs biased towards equality: half the time b is a deep copy of a. *)
let gen_pair =
  let open QCheck.Gen in
  let* a = gen_term in
  let* copy = bool in
  let+ b = if copy then return (deep_copy a) else gen_term in
  (a, b)

let arb_pair =
  QCheck.make ~print:(fun (a, b) -> T.to_string a ^ " / " ^ T.to_string b) gen_pair

let arb_triple =
  QCheck.make
    ~print:(fun (a, (b, c)) ->
      String.concat " / " (List.map T.to_string [ a; b; c ]))
    QCheck.Gen.(pair gen_term (pair gen_term gen_term))

let sign n = compare n 0

let props =
  let open QCheck in
  [
    Test.make ~name:"equal a b <=> compare_t a b = 0" ~count:2000 arb_pair
      (fun (a, b) -> T.equal a b = (T.compare_t a b = 0));
    Test.make ~name:"compare_t antisymmetry" ~count:2000 arb_pair (fun (a, b) ->
        sign (T.compare_t a b) = -sign (T.compare_t b a));
    Test.make ~name:"compare_t transitivity" ~count:2000 arb_triple
      (fun (a, (b, c)) ->
        let ab = T.compare_t a b and bc = T.compare_t b c in
        if ab <= 0 && bc <= 0 then T.compare_t a c <= 0 else true);
    Test.make ~name:"hash-cons soundness: hc a == hc b <=> equal a b" ~count:2000
      arb_pair
      (fun (a, b) -> (T.hc a == T.hc b) = T.equal a b);
    Test.make ~name:"hc preserves the term" ~count:1000
      (QCheck.make ~print:T.to_string gen_term)
      (fun a -> T.equal (T.hc a) a);
  ]

(* ------------------------------------------------------------------ *)
(* The worker pool is observably List.map. *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "ordered results" (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_first_failure () =
  let xs = List.init 50 Fun.id in
  let f x = if x >= 10 then failwith (string_of_int x) else x in
  match Pool.map ~jobs:4 f xs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m ->
    Alcotest.(check string) "lowest-index failure wins" "10" m

let test_pool_reuse () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = List.init 40 Fun.id in
      Alcotest.(check (list int))
        "first map" (List.map succ xs)
        (Pool.map_on pool succ xs);
      Alcotest.(check (list int))
        "second map on the same pool"
        (List.map (fun x -> x * 3) xs)
        (Pool.map_on pool (fun x -> x * 3) xs))

(* Regression for the missed-wakeup race: a worker that slept through an
   entire map (every item drained before it woke) used to exit its wait
   loop after [map_on] had torn the task down and die on the missing
   task, which poisoned the next [shutdown].  Many tiny maps on a pool
   much wider than the work make missed maps overwhelmingly likely. *)
let test_pool_missed_wakeup () =
  let pool = Pool.create ~jobs:8 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for i = 1 to 200 do
        Alcotest.(check (list int)) "tiny map" [ i ] (Pool.map_on pool Fun.id [ i ])
      done)

(* ------------------------------------------------------------------ *)
(* The parallel driver is observably the sequential driver.  Everything
   the caller can see must match: per-function levels, final bodies,
   skip lists, diagnostics, budget accounting. *)

let opts jobs =
  { Driver.default_options with Driver.keep_going = true; jobs }

let fingerprint (res : Driver.result) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun fr ->
      Buffer.add_string b fr.Driver.fr_name;
      Buffer.add_string b (Driver.level_name (Driver.level_of fr));
      Buffer.add_string b (if fr.Driver.fr_chain = None then "-" else "+");
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

let test_driver_jobs_differential () =
  List.iter
    (fun (name, src) ->
      let seq = Driver.run ~options:(opts 1) src in
      let par = Driver.run ~options:(opts 4) src in
      Alcotest.(check string)
        (name ^ ": --jobs 4 output = --jobs 1 output")
        (fingerprint seq) (fingerprint par))
    Csources.all

(* The same differential through the real binary: `acc translate
   --diag-json --jobs 4` must be byte-identical to `--jobs 1`. *)
let acc_exe = Paths.acc_exe

let run_acc args file =
  let out = Filename.temp_file "acc_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2> /dev/null" (Filename.quote acc_exe) args
      (Filename.quote file) (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let test_cli_jobs_differential () =
  Alcotest.(check bool) "acc.exe present" true (Sys.file_exists acc_exe);
  List.iter
    (fun (name, src) ->
      let file = Filename.temp_file "acc_jobs" ".c" in
      let oc = open_out file in
      output_string oc src;
      close_out oc;
      let code1, out1 = run_acc "translate --keep-going --diag-json --jobs 1" file in
      let code4, out4 = run_acc "translate --keep-going --diag-json --jobs 4" file in
      Sys.remove file;
      Alcotest.(check int) (name ^ ": same exit code") code1 code4;
      Alcotest.(check string) (name ^ ": same --diag-json output") out1 out4)
    Csources.all

(* ------------------------------------------------------------------ *)
(* Cached vs uncached derivation checking: over every theorem the corpus
   produces, both modes accept; over a corrupted derivation, both
   reject. *)

let test_check_differential () =
  List.iter
    (fun (name, src) ->
      let res = Driver.run ~options:(opts 1) src in
      Alcotest.(check bool)
        (name ^ ": uncached accepts") true
        (Driver.check_all ~cached:false res = Ok ());
      Alcotest.(check bool)
        (name ^ ": cached accepts") true
        (Driver.check_all ~cached:true res = Ok ()))
    Csources.all

(* The kernel deliberately exposes no way to build a theorem without
   running [Rules.infer] — not even for tests — so the corrupted
   certificate the auditors must catch is a *genuine* derivation
   presented under the wrong context: gcd's end-to-end chain was built
   under its word-abstraction context (whose [wvars] the W_* steps
   depend on), so auditing it under the run context, whose [wvars] are
   empty, re-runs the same inferences against premises they cannot
   reproduce.  Both the uncached and the cached checker must reject. *)
let test_check_rejects_corruption () =
  let res = Driver.run ~options:(opts 1) Csources.gcd_c in
  let fr = List.hd res.Driver.funcs in
  let chain =
    match fr.Driver.fr_chain with
    | Some t -> t
    | None -> Alcotest.fail "gcd produced no end-to-end chain theorem"
  in
  (* Sanity: the derivation is genuine — under the context it was built
     with (recomputed by check_all), everything accepts. *)
  Alcotest.(check bool) "derivation is genuine" true
    (Driver.check_all ~cached:false res = Ok ());
  let is_err = function Error _ -> true | Ok () -> false in
  Alcotest.(check bool)
    "kernel check rejects the wrong-context derivation" true
    (is_err (Thm.check res.Driver.ctx chain));
  let cache = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool)
    "cached check rejects the wrong-context derivation" true
    (is_err (Check_cache.check cache chain));
  (* And a fresh cache re-validates from scratch: its memo table is
     private and dies with it, so nothing an earlier cache (or anyone
     else) did can pre-seed a later one. *)
  let good = fr.Driver.fr_l2_thm in
  let c1 = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool) "first cache accepts" true
    (Check_cache.check c1 good = Ok ());
  let c2 = Check_cache.create res.Driver.ctx in
  Alcotest.(check bool) "second cache accepts" true
    (Check_cache.check c2 good = Ok ());
  Alcotest.(check bool) "second cache re-walked the derivation" true
    (Check_cache.misses c2 > 0)

(* Pin down the wvars-locality invariant stated next to [Rules.infer]
   (and relied on by [Driver.check_all]'s per-function grouping): the
   L1/L2/HL component derivations contain no wvars-sensitive rule, so
   they must check under the run context too, not only under the
   function's recomputed word-abstraction context.  If a rule outside
   the W_* family starts reading [ctx.wvars], this fails. *)
let test_components_check_under_run_ctx () =
  List.iter
    (fun (name, src) ->
      let res = Driver.run ~options:(opts 1) src in
      List.iter
        (fun fr ->
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: %s checks under the run context" name
                   fr.Driver.fr_name (Thm.rule_name t))
                true
                (Thm.check res.Driver.ctx t = Ok ()))
            (fr.Driver.fr_l1_thm :: fr.Driver.fr_l2_thm :: fr.Driver.fr_hl_thms))
        res.Driver.funcs)
    Csources.all

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      ("pool map preserves order", `Quick, test_pool_map_order);
      ("pool re-raises the first failure", `Quick, test_pool_first_failure);
      ("pool survives reuse across maps", `Quick, test_pool_reuse);
      ("pool survives missed wakeups", `Quick, test_pool_missed_wakeup);
      ("driver --jobs differential over corpus", `Slow, test_driver_jobs_differential);
      ("CLI --diag-json --jobs differential", `Slow, test_cli_jobs_differential);
      ("cached vs uncached check over corpus", `Slow, test_check_differential);
      ("both check modes reject corruption", `Quick, test_check_rejects_corruption);
      ( "components check under the run context",
        `Slow,
        test_components_check_under_run_ctx );
    ]
