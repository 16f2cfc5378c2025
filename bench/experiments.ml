(* One reproduction per table and figure of the paper's evaluation.  Each
   experiment prints what the paper reports next to what this implementation
   measures; EXPERIMENTS.md records the comparison. *)

module B = Ac_bignum
module W = Ac_word
module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module M = Ac_monad.M
module Mprint = Ac_monad.Mprint
module Ir = Ac_simpl.Ir
module T = Ac_prover.Term
module Solver = Ac_prover.Solver
module Vc = Ac_hoare.Vc
module Driver = Autocorres.Driver
module Thm = Ac_kernel.Thm
module Store = Ac_store.Store
open Ac_cases

let header title = Printf.printf "\n===================== %s =====================\n\n" title

let final_output ?options src fname =
  let res = Driver.run ?options src in
  match Driver.find_result res fname with
  | Some fr -> Mprint.func_to_string fr.Driver.fr_final
  | None -> "<missing>"

(* ------------------------------------------------------------------ *)

let fig1 () =
  header "Fig 1: pipeline phases";
  let res = Driver.run Csources.max_c in
  let fr = Option.get (Driver.find_result res "max") in
  Printf.printf "C source:\n%s\n" Csources.max_c;
  Printf.printf "L1 (monadic conversion):\n%s\n" (Mprint.func_to_string fr.Driver.fr_l1);
  Printf.printf "L2 (flow simplification + local lifting):\n%s\n"
    (Mprint.func_to_string fr.Driver.fr_l2);
  (match fr.Driver.fr_hl with
  | Some f -> Printf.printf "HL (heap abstraction):\n%s\n" (Mprint.func_to_string f)
  | None -> ());
  match fr.Driver.fr_wa with
  | Some f -> Printf.printf "WA (word abstraction):\n%s\n" (Mprint.func_to_string f)
  | None -> ()

let fig2 () =
  header "Fig 2: max — C, Simpl translation, AutoCorres output";
  let res = Driver.run Csources.max_c in
  let fr = Option.get (Driver.find_result res "max") in
  Printf.printf "C source:\n%s\n" Csources.max_c;
  Printf.printf "Simpl translation (C parser output):\n%s\n"
    (Ac_simpl.Print.func_to_string fr.Driver.fr_simpl);
  Printf.printf "AutoCorres output:\n%s\n" (Mprint.func_to_string fr.Driver.fr_final);
  Printf.printf "Paper: max' a b == if a < b then b else a  (on ideal integers)\n"

let table1 () =
  header "Table 1: Simpl constructs and their monadic counterparts";
  print_string
    (Ac_stats.render_table
       ~header:[ "Simpl"; "Monad"; "Definition" ]
       [
         [ "-"; "return x"; "λs. ({(Normal x, s)}, False)" ];
         [ "Skip"; "skip"; "return ()" ];
         [ "Basic m"; "modify m"; "λs. ({(Normal (), m s)}, False)" ];
         [ "Throw"; "throw x"; "λs. ({(Except x, s)}, False)" ];
         [ "Cond c L R"; "condition c L R"; "λs. if c s then L s else R s" ];
         [ "-"; "fail"; "λs. (∅, True)" ];
         [ "Guard t g B"; "guard g"; "condition g skip fail" ];
       ]);
  (* demonstrate the pairing on a real translation *)
  let res = Driver.run "int f(int a) { if (a < 1) return 1; return a; }" in
  let fr = Option.get (Driver.find_result res "f") in
  Printf.printf
    "L1 image of an if/return function (one kernel step maps every construct as above):\n%s\n"
    (Mprint.func_to_string fr.Driver.fr_l1);
  Printf.printf "L1 derivation: %d rule application(s), revalidated: %b\n"
    (Thm.size fr.Driver.fr_l1_thm)
    (Ac_kernel.Thm.check res.Driver.ctx fr.Driver.fr_l1_thm = Ok ())

let table2 () =
  header "Table 2: incorrect word identities and their counter-examples";
  let u32 v = W.of_bignum W.W32 v in
  let equations :
      (string * string * (W.t -> bool) * (unit -> bool)) list =
    (* name, paper's counterexample, word-level check (false at cex),
       ideal-level version (must hold) *)
    [
      ( "s = s + 1 - 1",
        "s = 2^31 - 1 (undefined)",
        (fun s -> not (W.add_overflows W.Signed s (W.of_int W.W32 1))),
        fun () ->
          (* over ℤ the identity is unconditional *)
          Solver.holds
            (T.eq_t (T.Var ("s", T.Sint))
               (T.sub_t (T.add_t (T.Var ("s", T.Sint)) T.one) T.one)) );
      ( "s = -(-s)",
        "s = -2^31 (undefined)",
        (fun s -> not (B.equal (W.sint s) (W.min_value W.Signed W.W32))),
        fun () ->
          Solver.holds
            (T.eq_t (T.Var ("s", T.Sint)) (T.App (T.Neg, [ T.App (T.Neg, [ T.Var ("s", T.Sint) ]) ]))) );
      ( "u + 1 > u",
        "u = 2^32 - 1 (incorrect)",
        (fun u -> W.compare_u (W.add W.Unsigned u (W.of_int W.W32 1)) u > 0),
        fun () ->
          Solver.holds
            ~hyps:[ T.le_t T.zero (T.Var ("u", T.Sint)) ]
            (T.lt_t (T.Var ("u", T.Sint)) (T.add_t (T.Var ("u", T.Sint)) T.one)) );
      ( "u * 2 = 4 --> u = 2",
        "u = 2^31 + 2 (incorrect)",
        (fun u ->
          let prod = W.mul W.Unsigned u (W.of_int W.W32 2) in
          (not (W.equal prod (W.of_int W.W32 4))) || W.equal u (W.of_int W.W32 2)),
        fun () ->
          Solver.holds
            ~hyps:
              [ T.le_t T.zero (T.Var ("u", T.Sint));
                T.eq_t (T.mul_t (T.Var ("u", T.Sint)) (T.int_of 2)) (T.int_of 4) ]
            (T.eq_t (T.Var ("u", T.Sint)) (T.int_of 2)) );
      ( "-u = u --> u = 0",
        "u = 2^31 (incorrect)",
        (fun u ->
          (not (W.equal (W.neg W.Unsigned u) u)) || W.is_zero u),
        fun () ->
          Solver.holds
            ~hyps:
              [ T.le_t T.zero (T.Var ("u", T.Sint));
                T.eq_t (T.App (T.Neg, [ T.Var ("u", T.Sint) ])) (T.Var ("u", T.Sint)) ]
            (T.eq_t (T.Var ("u", T.Sint)) T.zero) );
    ]
  in
  let candidates =
    [ B.zero; B.one; B.of_int 2; B.pred (B.pow2 31); B.pow2 31; B.add (B.pow2 31) (B.of_int 2);
      B.pred (B.pow2 32) ]
  in
  let rows =
    List.map
      (fun (name, paper, word_check, ideal_check) ->
        let cex =
          List.find_opt (fun v -> not (word_check (u32 v))) candidates
        in
        [
          name;
          (match cex with Some v -> "falsified at " ^ B.to_string v | None -> "NO CEX FOUND");
          paper;
          (if ideal_check () then "proved" else "NOT PROVED");
        ])
      equations
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Equation"; "On 32-bit words"; "Paper's counter-example"; "On ideal ints (auto)" ]
       rows)

let table3 () =
  header "Table 3: word-abstraction rules on the midpoint example (Sec 3.3)";
  let res = Driver.run Csources.mid_c in
  let fr = Option.get (Driver.find_result res "mid") in
  Printf.printf "Input:  unsigned m = (l + r) / 2u;\nOutput:\n%s\n"
    (Mprint.func_to_string fr.Driver.fr_final);
  (match fr.Driver.fr_wa_thm with
  | Some thm ->
    (match Thm.concl thm with
    | Ac_kernel.Judgment.Abs_w_stmt (_, _, _, a, _) ->
      Printf.printf
        "WA image of mid (one kernel step applies Table 3 to the whole body, before clean-up):\n%s\n"
        (Mprint.to_string a)
    | _ -> ());
    let ctx = { res.Driver.ctx with Ac_kernel.Rules.wvars = fr.Driver.fr_wa_wvars } in
    Printf.printf "WA derivation: %d rule application(s), revalidated: %b\n" (Thm.size thm)
      (Thm.check ctx thm = Ok ())
  | None -> print_endline "word abstraction skipped!");
  print_endline
    "Paper: the generated abstraction is\n\
    \  do guard (λs. l + r <= UINT_MAX); return ((l + r) div 2) od"

let fig3 () =
  header "Fig 3: swap without heap abstraction";
  let options =
    { Driver.default_options with defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = false } }
  in
  Printf.printf "C source:\n%s\nTranslation (byte-level heap, no abstraction):\n%s\n"
    Csources.swap_c
    (final_output ~options Csources.swap_c "swap")

let fig4 () =
  header "Fig 4: the heap lifting function";
  let lenv = Ac_lang.Layout.empty in
  let w8 = Ty.Cword (Ty.Unsigned, Ty.W8) in
  let w16 = Ty.Cword (Ty.Unsigned, Ty.W16) in
  let heap = Ac_simpl.Heap.empty in
  (* Tag 0xf300 as a w8 object and 0xf302 as a w16 object, as in Fig 4. *)
  let a8 = B.of_int 0xf300 and a16 = B.of_int 0xf302 in
  let heap = Ac_simpl.Heap.retype lenv heap w8 a8 in
  let heap = Ac_simpl.Heap.retype lenv heap w16 a16 in
  let heap = Ac_simpl.Heap.write_byte heap a8 0x44 in
  let heap = Ac_simpl.Heap.write_byte heap a16 0x47 in
  let heap = Ac_simpl.Heap.write_byte heap (B.succ a16) 0xe2 in
  let show c a =
    match Ac_simpl.Heap.heap_lift lenv heap c a with
    | Some v -> Value.to_string v
    | None -> "None"
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Address"; "Lift as"; "Result"; "Why" ]
       [
         [ "0xf300"; "word8 heap"; show w8 a8; "tagged w8, aligned" ];
         [ "0xf302"; "word16 heap"; show w16 a16; "tagged w16, aligned (0xe247)" ];
         [ "0xf303"; "word16 heap"; show w16 (B.succ a16); "misaligned -> None" ];
         [ "0xf300"; "word16 heap"; show w16 a8; "wrong type tag -> None" ];
         [ "0xf304"; "word8 heap"; show w8 (B.of_int 0xf304); "untyped -> None" ];
       ])

let table4 () =
  header "Table 4: heap-abstraction rules on swap";
  let options =
    { Driver.default_options with defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = true } }
  in
  let res = Driver.run ~options Csources.swap_c in
  let fr = Option.get (Driver.find_result res "swap") in
  match fr.Driver.fr_hl_thm with
  | Some thm ->
    (match Thm.concl thm with
    | Ac_kernel.Judgment.Abs_h_stmt (a, _) ->
      Printf.printf
        "HL image of swap (one kernel step maps every access as in Table 4, before clean-up):\n%s\n"
        (Mprint.to_string a)
    | _ -> ());
    Printf.printf "HL derivation: %d rule application(s), revalidated: %b\n" (Thm.size thm)
      (Thm.check res.Driver.ctx thm = Ok ())
  | None -> print_endline "heap abstraction skipped!"

let fig5 () =
  header "Fig 5: swap with heap abstraction";
  let options =
    { Driver.default_options with defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = true } }
  in
  Printf.printf "%s\nPaper:\n%s\n"
    (final_output ~options Csources.swap_c "swap")
    "  do guard (λs. is_valid_w32 s a);\n\
    \     t ← gets (λs. s[a]);\n\
    \     guard (λs. is_valid_w32 s b);\n\
    \     modify (λs. s[a := s[b]]);\n\
    \     modify (λs. s[b := t])\n\
    \  od"

let footnote2 () =
  header "Sec 3.2 footnote 2: the midpoint VC, words vs ideals";
  let l = T.Var ("l", T.Sint) and r = T.Var ("r", T.Sint) in
  let uint_max = T.Int (B.pred (B.pow2 32)) in
  let bounds = [ T.le_t T.zero l; T.le_t l uint_max; T.le_t T.zero r; T.le_t r uint_max ] in
  let time f =
    let t0 = Sys.time () in
    let x = f () in
    (x, Sys.time () -. t0)
  in
  (* ℕ version *)
  let nat_goal =
    let m = T.App (T.Div, [ T.add_t l r; T.int_of 2 ]) in
    T.and_t (T.le_t l m) (T.lt_t m r)
  in
  let nat_res, nat_t =
    time (fun () -> fst (Solver.prove ~hyps:(T.lt_t l r :: bounds) nat_goal))
  in
  (* word version *)
  let word_goal =
    let m = T.App (T.Div, [ T.App (T.Mod, [ T.add_t l r; T.Int (B.pow2 32) ]); T.int_of 2 ]) in
    T.and_t (T.le_t l m) (T.lt_t m r)
  in
  let word_res, word_t =
    time (fun () -> fst (Solver.prove ~hyps:(T.lt_t l r :: bounds) word_goal))
  in
  let prec_res, prec_t =
    time (fun () ->
        fst (Solver.prove ~hyps:((T.lt_t l r :: T.le_t (T.add_t l r) uint_max :: bounds)) nat_goal))
  in
  let show = function
    | Solver.Proved -> "proved automatically"
    | Solver.Refuted m ->
      Printf.sprintf "refuted (%s)"
        (String.concat ", "
           (List.filter_map
              (fun (x, v) ->
                match v with
                | T.Vint n when x = "l" || x = "r" -> Some (Printf.sprintf "%s=%s" x (B.to_string n))
                | _ -> None)
              m))
    | Solver.Unknown _ -> "not discharged"
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Goal"; "Outcome"; "Time (s)" ]
       [
         [ "l <= (l+r) div 2 < r on ℕ (after WA)"; show nat_res; Printf.sprintf "%.4f" nat_t ];
         [ "same on 32-bit words, no precondition"; show word_res; Printf.sprintf "%.4f" word_t ];
         [ "words + unat l + unat r <= UINT_MAX"; show prec_res; Printf.sprintf "%.4f" prec_t ];
       ]);
  print_endline
    "Paper: 3 experienced engineers needed a median of 10 minutes for the word\n\
     version; the nat version is 'effectively zero' human effort."

let suzuki () =
  header "Sec 4.5: Suzuki's challenge";
  let options =
    { Driver.default_options with defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = true } }
  in
  let res = Driver.run ~options Csources.suzuki_c in
  Printf.printf "Abstraction:\n%s\n" (final_output ~options Csources.suzuki_c "suzuki");
  let cfg = Vc.make_config res.Driver.final_prog in
  let nodec = Ty.Cstruct "node" in
  let triple =
    {
      Vc.t_pre =
        (fun args st ->
          let ts = List.map Vc.tv_to_term args in
          let validity =
            List.map (fun p -> T.select_t (Vc.state_get st (Vc.valid_name nodec)) p) ts
          in
          let rec distinct = function
            | [] -> []
            | p :: rest -> List.map (fun q -> T.not_t (T.eq_t p q)) rest @ distinct rest
          in
          T.conj (validity @ distinct ts));
      t_post = (fun _ rv _ _ -> T.eq_t (Vc.tv_to_term rv) (T.int_of 4));
    }
  in
  let t0 = Sys.time () in
  let vcs = Vc.func_vcs cfg "suzuki" triple in
  let ok = List.for_all (fun (_, vc) -> Solver.is_proved (fst (Solver.prove vc))) vcs in
  Printf.printf "returns 4 given distinct valid pointers: %s (%.3fs)\n"
    (if ok then "proved automatically" else "NOT PROVED")
    (Sys.time () -. t0);
  print_endline "Paper: \"Isabelle/HOL's auto immediately discharges the generated VCs\""

let fig6 () =
  header "Fig 6: in-place list reversal";
  Printf.printf "C source:\n%s\nAutoCorres output:\n%s\n" Csources.reverse_c
    (final_output Csources.reverse_c "reverse");
  let r = Reverse_proof.run ~check_lemmas:true () in
  (match r.Reverse_proof.lemma_check with
  | Ok () -> print_endline "List lemma library: validated"
  | Error e -> print_endline ("List lemma library: FAILED " ^ e));
  List.iter
    (fun (label, o) ->
      Printf.printf "  %-55s %s\n" label
        (if Solver.is_proved o then "PROVED" else "NOT PROVED"))
    r.Reverse_proof.vcs;
  print_endline
    "Paper (Sec 5.2): M/N's invariant and main proof carry over; total\n\
     correctness via the decreasing length of the unreversed suffix."

let fig8 () =
  header "Fig 7/8: the Schorr-Waite algorithm";
  Printf.printf "C source (Fig 8):\n%s\nAutoCorres output:\n%s\n" Csources.schorr_waite_c
    (final_output Csources.schorr_waite_c "schorr_waite");
  let t0 = Sys.time () in
  let r = Schorr_waite_proof.run () in
  Printf.printf
    "M/N correctness statement (Fig 7) checked on %d graphs (all graphs up to 3\n\
     nodes, random larger ones): %d failures (%.1fs)\n"
    r.Schorr_waite_proof.graphs_checked
    (List.length r.Schorr_waite_proof.failures)
    (Sys.time () -. t0)

let table5 () =
  header "Table 5: pipeline statistics on larger code bases";
  let rows =
    List.map
      (fun p ->
        let src = Ac_codegen.generate p in
        let row, _ = Ac_stats.measure ~name:p.Ac_codegen.p_name src in
        row)
      Ac_codegen.profiles
  in
  let sw_row, _ = Ac_stats.measure ~name:"schorr-waite" Csources.schorr_waite_c in
  let rows = rows @ [ sw_row ] in
  print_string
    (Ac_stats.render_table ~header:Ac_stats.table5_header
       (List.map Ac_stats.row_to_strings rows));
  print_endline
    "Paper (real seL4/CapDL/Piccolo/eChronos sources; 3.3GHz Xeon):\n\
    \  spec lines 25-53% smaller, term sizes 40-61% smaller, AutoCorres\n\
    \  slower than the parser but a one-off cost.  The synthetic code bases\n\
    \  reproduce the shape: same winner, same order of reduction.";
  (* the qualitative claims, checked *)
  let ok_spec = List.for_all (fun r -> r.Ac_stats.ac_spec_lines < r.Ac_stats.parser_spec_lines) rows in
  let ok_term = List.for_all (fun r -> r.Ac_stats.ac_term_size <= r.Ac_stats.parser_term_size) rows in
  Printf.printf "spec always smaller: %b; term size never larger: %b\n" ok_spec ok_term

let count_loc path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         let t = String.trim line in
         if t <> "" && not (String.length t >= 2 && String.sub t 0 2 = "(*") then incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n

let table6 () =
  header "Table 6: proof sizes for the list-reversal/Schorr-Waite development";
  let lemmas = count_loc "lib/cases/listlib.ml" in
  let reverse = count_loc "lib/cases/reverse_proof.ml" in
  let sw = count_loc "lib/cases/schorr_waite_proof.ml" in
  let show = function Some n -> string_of_int n | None -> "n/a" in
  print_string
    (Ac_stats.render_table
       ~header:[ "Component"; "This work (OCaml)"; "M/N (Isabelle)"; "H/M (Coq)" ]
       [
         [ "List definitions (lemma library)"; show lemmas; "62"; "~900" ];
         [ "Reversal proof script (partial+fault+term.)"; show reverse; "—"; "—" ];
         [ "Schorr-Waite harness (bounded validation)"; show sw; "—"; "—" ];
         [ "Paper totals (their line counts)"; "807 (This Work)"; "577"; "3317" ];
       ]);
  print_endline
    "Note: line counts across proof systems are not directly comparable (the\n\
     paper says the same of Isabelle vs Coq).  The qualitative claim\n\
     reproduced here: the high-level proof structure (invariant, ghost\n\
     sequences, lemma library, measure) ports to the AutoCorres output of\n\
     the C code with only the three adjustments of Sec 5.2, and the VCs\n\
     fall to generic automation."

let memset () =
  header "Sec 4.6: mixing byte-level and lifted code (memset)";
  let options =
    {
      Driver.default_options with
      overrides = [ ("my_memset", { Driver.default_func_options with Driver.word_abs = false; heap_abs = false }) ];
    }
  in
  Printf.printf "my_memset stays byte-level; its lifted caller:\n%s\n"
    (final_output ~options Csources.memset_mixed_c "zero_cell");
  print_endline
    "Paper: {valid p} exec_concrete (memset' p 0 4) {valid p ∧ s[p] = 0}"

let custom_rule () =
  header "Sec 3.3: extending the word-abstraction rule set";
  let d = Custom_rule.run () in
  Printf.printf "C source:\n%s\n" Custom_rule.overflow_test_c;
  Printf.printf "Built-in rules only (the overflow test is re-concretised):\n%s\n"
    d.Custom_rule.without_rule;
  Printf.printf "With the registered custom rule (the paper's example):\n%s\n"
    d.Custom_rule.with_rule;
  print_endline "Paper: the test abstracts to  UINT_MAX < x + y"

let ablation () =
  header "Ablation: where does the abstraction's size reduction come from?";
  let corpus =
    [ ("swap", Csources.swap_c); ("gcd", Csources.gcd_c); ("reverse", Csources.reverse_c);
      ("schorr_waite", Csources.schorr_waite_c); ("suzuki", Csources.suzuki_c) ]
  in
  let configs =
    [
      ("full pipeline", Driver.default_options);
      ( "no clean-up rewrites",
        { Driver.default_options with polish = false } );
      ( "no word abstraction",
        { Driver.default_options with
          defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = true } } );
      ( "no heap abstraction",
        { Driver.default_options with
          defaults = { Driver.default_func_options with Driver.word_abs = true; heap_abs = false } } );
      ( "neither (L2 only)",
        { Driver.default_options with
          defaults = { Driver.default_func_options with Driver.word_abs = false; heap_abs = false } } );
    ]
  in
  let rows =
    List.map
      (fun (cname, options) ->
        let lines, terms =
          List.fold_left
            (fun (l, t) (_, src) ->
              let res = Driver.run ~options src in
              List.fold_left
                (fun (l, t) fr ->
                  (l + Mprint.lines_of_spec fr.Driver.fr_final,
                   t + M.func_size fr.Driver.fr_final))
                (l, t) res.Driver.funcs)
            (0, 0) corpus
        in
        (cname, lines, terms))
      configs
  in
  let _, base_l, base_t = List.hd rows in
  print_string
    (Ac_stats.render_table
       ~header:[ "Configuration"; "Spec lines"; "Term size"; "vs full" ]
       (List.map
          (fun (c, l, t) ->
            [ c; string_of_int l; string_of_int t;
              Printf.sprintf "%+.0f%% lines" (100. *. (float_of_int l /. float_of_int base_l -. 1.)) ])
          rows));
  ignore base_t;
  print_endline
    "Reading: the clean-up rewrites (guard discharge, inlining, return-flow\n\
    \     straightening) and the two semantic abstractions each contribute to the\n\
    \     reduction the paper reports; disabling any knob grows the output."

let analysis () =
  header "Guard discharge: abstract interpretation over the corpus";
  let no_discharge =
    { Driver.default_options with
      defaults = { Driver.default_func_options with Driver.discharge_guards = false } }
  in
  let final_guards options src =
    let res = Driver.run ~options src in
    List.fold_left
      (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
      0 res.Driver.funcs
  in
  let rows =
    List.map
      (fun (name, src) ->
        let simpl = Ac_simpl.C2simpl.parse src in
        let parser_guards =
          List.fold_left (fun acc f -> acc + Ac_stats.ir_guard_count f.Ir.body) 0
            simpl.Ir.funcs
        in
        let off = final_guards no_discharge src in
        let on = final_guards Driver.default_options src in
        (name, parser_guards, off, on))
      Csources.all
  in
  let tp, toff, ton =
    List.fold_left (fun (p, o, n) (_, a, b, c) -> (p + a, o + b, n + c)) (0, 0, 0) rows
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Program"; "Guards(parser)"; "rewrites only"; "+ analysis"; "analysis wins" ]
       (List.map
          (fun (name, p, off, on) ->
            [ name; string_of_int p; string_of_int off; string_of_int on;
              string_of_int (off - on) ])
          rows
       @ [ [ "TOTAL"; string_of_int tp; string_of_int toff; string_of_int ton;
             string_of_int (toff - ton) ] ]));
  Printf.printf
    "%.0f%% of the parser's UB guards are statically discharged (every removal\n\
     certified through the kernel as Rule_guard_true and re-validated by\n\
     Thm.check); the abstract interpretation accounts for the flow-sensitive\n\
     ones the syntactic rewrites cannot see.\n"
    (100. *. (1. -. (float_of_int ton /. float_of_int tp)))

let robustness () =
  header "Robustness: fault injection and graceful degradation";
  (* A deterministic per-run pseudo-random fault schedule: fail each kernel
     rule application with probability rate/1000. *)
  let lcg_hook seed rate =
    let state = ref seed in
    fun (_ : string) ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod 1000 < rate
  in
  let keep_going = { Driver.default_options with Driver.keep_going = true } in
  let ladder res =
    let count pred = List.length (List.filter pred res.Driver.funcs) in
    let dcount lv =
      List.length
        (List.filter (fun d -> Driver.degraded_level d = lv) res.Driver.degraded)
    in
    Printf.sprintf "%d/%d/%d/%d/%d"
      (dcount Driver.Lsimpl) (dcount Driver.Ll1)
      (count (fun fr -> Driver.level_of fr = Driver.Ll2))
      (count (fun fr -> Driver.level_of fr = Driver.Lhl))
      (count (fun fr -> Driver.level_of fr = Driver.Lwa))
  in
  let rows =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun rate ->
            Thm.set_fault_hook (if rate = 0 then None else Some (lcg_hook (Hashtbl.hash (name, rate)) rate));
            (* Per-function failures are recorded in the result instead of
               aborting the experiment. *)
            let res = Driver.run ~options:keep_going src in
            Thm.set_fault_hook None;
            let recheck = Driver.check_all res = Ok () in
            [ name; Printf.sprintf "%.1f%%" (float_of_int rate /. 10.); ladder res;
              string_of_int (List.length res.Driver.diags);
              (if recheck then "ok" else "FAILED") ])
          [ 0; 30; 150 ])
      [ ("gcd", Csources.gcd_c); ("reverse", Csources.reverse_c);
        ("schorr_waite", Csources.schorr_waite_c); ("memset_mixed", Csources.memset_mixed_c) ]
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Program"; "Fault rate"; "S/1/2/H/W"; "Diags"; "Recheck" ]
       rows);
  print_endline
    "Reading: as the injected fault rate grows, functions slide down the\n\
     degradation ladder (right to left) instead of aborting the unit, and\n\
     every theorem that was still emitted re-validates through Thm.check."


(* ------------------------------------------------------------------ *)
(* Shared by the timed experiments below. *)

(* Fixed GC geometry for a timed experiment (restored on exit): a minor
   heap large enough that a replay run's working set stays in it, and a
   major-heap slack factor high enough that a measurement is not
   dominated by when the collector happens to start a cycle.  Under the
   default geometry allocation-heavy runs drift 20-45% between otherwise
   identical processes, which is noise on exactly the quantities these
   experiments assert bounds for. *)
let with_pinned_gc f =
  let gc0 = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  f ()

let median l =
  let sorted = List.sort compare l in
  List.nth sorted (List.length l / 2)

(* ------------------------------------------------------------------ *)
(* The interprocedural summary engine.  Per workload: guards the C
   parser emitted, guards discharged at L2 without the summary table
   (intra) and with it (inter), and the wall time of both analysis
   configurations.  Floors asserted: the aggregate interprocedural
   discharge rate stays strictly above the 57% intraprocedural baseline,
   interprocedural discharge is never below intraprocedural on any
   workload (monotone improvement), and every result re-validates under
   [Driver.check_all] (each discharge is a kernel-checked
   [Rule_guard_true]). *)

let interproc () =
  header "Interproc: summary-based guard discharge";
  with_pinned_gc @@ fun () ->
  let baseline_pct = 57. in
  let workloads =
    Csources.all @ [ ("echronos-like", Ac_codegen.generate Ac_codegen.echronos_like) ]
  in
  let opts on = { Driver.default_options with Driver.keep_going = true; interproc = on } in
  let time_run on src =
    let times =
      List.init 5 (fun _ ->
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          ignore (Driver.run ~options:(opts on) src);
          Unix.gettimeofday () -. t0)
    in
    median times
  in
  let counts (res : Driver.result) =
    List.fold_left
      (fun (g, d) fr ->
        let src = Ac_stats.ir_guard_count fr.Driver.fr_simpl.Ac_simpl.Ir.body in
        let kept = Ac_analysis.guard_count fr.Driver.fr_l2.Ac_monad.M.body in
        (g + src, d + max 0 (src - kept)))
      (0, 0) res.Driver.funcs
  in
  let measured =
    List.map
      (fun (name, src) ->
        let res_inter = Driver.run ~options:(opts true) src in
        let res_intra = Driver.run ~options:(opts false) src in
        let guards, inter = counts res_inter in
        let _, intra = counts res_intra in
        let checked =
          Driver.check_all res_inter = Ok () && Driver.check_all res_intra = Ok ()
        in
        (name, guards, intra, inter, time_run false src, time_run true src, checked))
      workloads
  in
  let pct n d = if d = 0 then 0. else 100. *. float_of_int n /. float_of_int d in
  let rows =
    List.map
      (fun (name, g, intra, inter, t_intra, t_inter, _) ->
        [
          name; string_of_int g;
          Printf.sprintf "%d (%.0f%%)" intra (pct intra g);
          Printf.sprintf "%d (%.0f%%)" inter (pct inter g);
          Printf.sprintf "%.4f" t_intra; Printf.sprintf "%.4f" t_inter;
        ])
      measured
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Workload"; "Guards"; "Intra"; "Inter"; "Intra(s)"; "Inter(s)" ]
       rows);
  let sum f = List.fold_left (fun a m -> a + f m) 0 measured in
  let guards = sum (fun (_, g, _, _, _, _, _) -> g) in
  let intra = sum (fun (_, _, i, _, _, _, _) -> i) in
  let inter = sum (fun (_, _, _, i, _, _, _) -> i) in
  let rate_intra = pct intra guards and rate_inter = pct inter guards in
  let monotone =
    List.for_all (fun (_, _, ia, ir, _, _, _) -> ir >= ia) measured
  in
  let checked = List.for_all (fun (_, _, _, _, _, _, c) -> c) measured in
  Printf.printf
    "\naggregate: %d guards, intra %d (%.1f%%), inter %d (%.1f%%);\n\
     monotone on every workload: %s; kernel re-validation: %s.\n"
    guards intra rate_intra inter rate_inter
    (if monotone then "yes" else "NO")
    (if checked then "ok" else "FAILED");
  if rate_inter <= baseline_pct then
    failwith
      (Printf.sprintf "interproc: rate %.1f%% not above the %.0f%% baseline" rate_inter
         baseline_pct);
  if not monotone then
    failwith "interproc: a workload discharged fewer guards than intraprocedural";
  if not checked then failwith "interproc: kernel re-validation failed"

(* ------------------------------------------------------------------ *)
(* Gates: the timing bounds behind the performance claims in README.md
   and DESIGN.md, each on its own workload and statistic.

   - store: warm translate (every function takes its stored search
     hints) >= 2x cold (empty store: translate, record, save) over the three mid-size generated units; median of the
     per-cycle cold/warm ratios over 9 cycles.  A no-store run rides in
     each cycle as the reference the other two must fingerprint-match.
   - net: 4 closed-loop `acc serve --socket` clients >= 1.2x the
     throughput of 1, over a warm store; every response must byte-match
     its file's warm reference.
   - obs, off: an instrumentation site with tracing disabled costs one
     atomic load.  Measured directly (10M gated no-op spans) and
     projected over the spans a corpus translate records: <= 1% of the
     untraced translate.  (The real delta is far below timer noise.)
   - obs, on: corpus translate traced vs untraced, median per-cycle
     ratio <= 1.05.  A cycle is two ~5ms passes, so 61 cycles: over 7
     the median swung from 0.99 to 1.08 between runs.
   - telemetry: disabled (hook uninstalled, the production path and so
     an A/A twin of bare) <= 1.01x and fully armed (spans on, flight
     recorder at 65536 slots, kernel hook counting every mint) <= 1.05x
     bare, on the corpus translate; and the armed run counts at least
     one rule application.

   Writes no file; fails, after measuring everything, if any bound
   does not hold. *)

(* Everything observable about a run: per-function level, chain
   presence, printed final body, skip list, diagnostics, budget hits. *)
let fingerprint (results : Driver.result list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (res : Driver.result) ->
      List.iter
        (fun fr ->
          Buffer.add_string b fr.Driver.fr_name;
          Buffer.add_string b (Driver.level_name (Driver.level_of fr));
          Buffer.add_string b (if fr.Driver.fr_chain = None then "-" else "+");
          Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_final);
          List.iter
            (fun (p, w) -> Buffer.add_string b (p ^ ":" ^ w))
            fr.Driver.fr_skipped)
        res.Driver.funcs;
      List.iter
        (fun (d : Driver.degraded) ->
          Buffer.add_string b d.Driver.dg_name;
          Buffer.add_string b (Driver.level_name (Driver.degraded_level d)))
        res.Driver.degraded;
      List.iter
        (fun d -> Buffer.add_string b (Autocorres.Diag.to_string d))
        res.Driver.diags;
      Buffer.add_string b (string_of_int res.Driver.budget_hits))
    results;
  Buffer.contents b

(* A timed configuration: [setup] puts the process in its state,
   untimed; [run] is the timed work. *)
type config = { setup : unit -> unit; run : unit -> Driver.result list }

(* The timing loop.  Each cycle runs every configuration once, so a load
   spike or frequency excursion on a shared machine lands on every
   configuration alike instead of on whichever owned that second.  The
   order within a cycle is a seeded random permutation: a fixed rotation
   keeps each configuration's predecessor constant, so a predecessor's
   cache and allocator residue becomes a systematic bias.  A full major
   collection at each cycle start keeps one cycle's allocation debt out
   of the next; a configuration whose predecessor's debt would swamp its
   own time collects again in [setup].  Each configuration's wall times are
   prepended to [samples.(i)], one per cycle, so sample k of every
   configuration comes from the same cycle; pooling further cycles into
   the same arrays is a retry.  The last cycle's results must
   fingerprint-match across the configurations. *)
let run_cycles rng ~cycles (configs : config array) (samples : float list array) =
  let n = Array.length configs in
  let order = Array.init n Fun.id in
  let prints = Array.make n "" in
  for c = 1 to cycles do
    for i = n - 1 downto 1 do
      let k = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(k);
      order.(k) <- t
    done;
    Gc.full_major ();
    Array.iter
      (fun j ->
        configs.(j).setup ();
        let t0 = Unix.gettimeofday () in
        let res = configs.(j).run () in
        samples.(j) <- (Unix.gettimeofday () -. t0) :: samples.(j);
        if c = cycles then prints.(j) <- fingerprint res)
      order
  done;
  if Array.exists (fun p -> p <> prints.(0)) prints then
    failwith "gates: a timed configuration's results diverged from the others'"

(* The two statistics read from those samples. *)
let median_ratio num den = median (List.map2 ( /. ) num den)

let p10 l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 10)

let mkdtemp prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  d

let rm_rf path = ignore (Sys.command ("rm -rf " ^ Filename.quote path))

let corpus_configs ~options setups =
  Array.map
    (fun setup ->
      { setup; run = (fun () -> List.map (fun (_, src) -> Driver.run ~options src) Csources.all) })
    setups

let store_gate rng ~options =
  let units =
    [ Ac_codegen.echronos_like; Ac_codegen.piccolo_like; Ac_codegen.capdl_like ]
    |> List.map Ac_codegen.generate
  in
  let run_all ?store () = List.map (fun src -> Driver.run ~options ?store src) units in
  let open_store dir =
    match Store.open_ ~dir () with Ok st -> st | Error m -> failwith m
  in
  let dir_cold = mkdtemp "acc_gates_cold" and dir_warm = mkdtemp "acc_gates_warm" in
  Fun.protect ~finally:(fun () -> rm_rf dir_cold; rm_rf dir_warm) @@ fun () ->
  ignore (run_all ~store:(open_store dir_warm) ());
  let configs =
    [|
      (* cold: the store is emptied inside the timed run, as a cold
         build would find it *)
      { setup = Gc.full_major;
        run = (fun () ->
          ignore (Store.clear ~dir:dir_cold);
          run_all ~store:(open_store dir_cold) ()) };
      { setup = Gc.full_major; run = (fun () -> run_all ~store:(open_store dir_warm) ()) };
      { setup = Gc.full_major; run = (fun () -> run_all ()) };
    |]
  in
  let samples = Array.make 3 [] in
  run_cycles rng ~cycles:9 configs samples;
  (* warm vs cold, and warm vs no store (printed, not gated) *)
  (median_ratio samples.(0) samples.(1), median_ratio samples.(2) samples.(1))

(* Closed-loop clients with an explicit think time (~2x the warm service
   time, clamped to [1ms, 20ms]): the server executes requests one at a
   time on its main domain, so with zero think time N clients cannot beat
   one.  With think time t and service time s, one client caps at
   1/(s+t) while N clients approach 1/s. *)
let net_gate () =
  let acc_exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/acc.exe"
  in
  if not (Sys.file_exists acc_exe) then
    failwith (Printf.sprintf "gates: no acc at %s (run `dune build` first)" acc_exe);
  let tmp = mkdtemp "acc_gates_net" in
  Sys.mkdir tmp 0o700;
  Fun.protect ~finally:(fun () -> rm_rf tmp) @@ fun () ->
  let store_dir = Filename.concat tmp "store" in
  let req_files =
    List.filteri (fun i _ -> i < 3) Csources.all
    |> List.map (fun (name, src) ->
           let f = Filename.concat tmp (name ^ ".c") in
           Out_channel.with_open_bin f (fun oc -> output_string oc src);
           f)
  in
  let nfiles = List.length req_files in
  let with_stdin_session f =
    let ic, oc =
      Unix.open_process
        (Printf.sprintf "%s serve --store %s 2> /dev/null" (Filename.quote acc_exe)
           (Filename.quote store_dir))
    in
    let request file =
      output_string oc ("translate " ^ file ^ "\n");
      flush oc;
      input_line ic
    in
    Fun.protect ~finally:(fun () -> ignore (Unix.close_process (ic, oc))) @@ fun () ->
    f request
  in
  (* Prewarm the store, so every measured request is a warm run whose
     response bytes do not depend on client interleaving. *)
  with_stdin_session (fun request -> List.iter (fun f -> ignore (request f)) req_files);
  (* Per-file reference responses and the warm service time. *)
  let refs = Hashtbl.create 8 in
  let service_s =
    with_stdin_session (fun request ->
        List.iter (fun f -> Hashtbl.replace refs f (request f)) req_files;
        let n = 15 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to n - 1 do
          ignore (request (List.nth req_files (i mod nfiles)))
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int n)
  in
  if not (Seq.for_all (String.starts_with ~prefix:"{\"ok\":true,") (Hashtbl.to_seq_values refs))
  then
    failwith "gates: a warm reference request failed";
  let think_s = Float.min 0.02 (Float.max 0.001 (2. *. service_s)) in
  let client_reqs = List.init 30 (fun i -> List.nth req_files (i mod nfiles)) in
  let send_all fd s =
    let b = Bytes.unsafe_of_string s in
    let ofs = ref 0 in
    while !ofs < Bytes.length b do
      ofs := !ofs + Unix.write fd b !ofs (Bytes.length b - !ofs)
    done
  in
  let throughput nclients =
    let sock = Filename.concat tmp (Printf.sprintf "acc%d.sock" nclients) in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process acc_exe
        [| "acc"; "serve"; "--store"; store_dir; "--socket"; sock; "--max-inflight"; "256" |]
        null null null
    in
    Unix.close null;
    let rec wait_sock tries =
      if tries = 0 then failwith "gates: the server socket never appeared";
      if not (Sys.file_exists sock) then begin
        Unix.sleepf 0.025;
        wait_sock (tries - 1)
      end
    in
    wait_sock 200;
    let t0 = Unix.gettimeofday () in
    let clients =
      List.init nclients (fun _ ->
          Domain.spawn (fun () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX sock);
              let ic = Unix.in_channel_of_descr fd in
              let matched =
                List.for_all
                  (fun f ->
                    send_all fd ("translate " ^ f ^ "\n");
                    let r = input_line ic in
                    Unix.sleepf think_s;
                    r = Hashtbl.find refs f)
                  client_reqs
              in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              matched))
    in
    let matched = List.for_all Fun.id (List.map Domain.join clients) in
    let wall = Unix.gettimeofday () -. t0 in
    Unix.kill pid Sys.sigterm;
    ignore (Unix.waitpid [] pid);
    if not matched then
      failwith "gates: a socket response diverged from its warm reference";
    float_of_int (nclients * List.length client_reqs) /. wall
  in
  let r1 = throughput 1 in
  let r4 = throughput 4 in
  r4 /. r1

let gates () =
  header "Gates: the timing bounds";
  let module Obs = Ac_obs.Obs in
  let module Effort = Ac_obs.Effort in
  let disarm () =
    Thm.set_obs_hook None;
    Effort.set_enabled false;
    Effort.reset ();
    Obs.set_enabled false;
    Obs.set_ring None;
    Obs.reset ()
  in
  let install_hook () = Thm.set_obs_hook (Some (Effort.on_rule Ac_kernel.Rules.rule_name)) in
  let arm () =
    install_hook ();
    Effort.set_enabled true;
    Obs.set_ring (Some 65536);
    Obs.set_enabled true
  in
  Fun.protect ~finally:disarm @@ fun () ->
  with_pinned_gc @@ fun () ->
  let rng = Random.State.make [| 0x7e1e |] in
  let options = { Driver.default_options with Driver.keep_going = true } in
  let nfiles = List.length Csources.all in
  let translate_corpus () =
    List.iter (fun (_, src) -> ignore (Driver.run ~options src)) Csources.all
  in
  (* obs: how many sites a translate passes, from one traced pass. *)
  disarm ();
  Obs.set_enabled true;
  translate_corpus ();
  let events_per_file = List.length (Obs.harvest ()) / nfiles in
  disarm ();
  let obs_samples = Array.make 2 [] in
  run_cycles rng ~cycles:61
    (corpus_configs ~options
       [|
         (fun () -> disarm (); Gc.full_major ());
         (fun () -> disarm (); Obs.set_enabled true; Gc.full_major ());
       |])
    obs_samples;
  disarm ();
  let on_ratio = median_ratio obs_samples.(1) obs_samples.(0) in
  (* Each no-op span is the full instrumentation-site cost (atomic load,
     branch, call).  A span records a B/E pair; charging every event one
     site over-counts, which is the safe side. *)
  let site_ns =
    let n = 10_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Obs.span ~cat:"bench" "gate" (fun () -> 0)))
    done;
    1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let off_pct =
    let off_file_s = median obs_samples.(0) /. float_of_int nfiles in
    100. *. float_of_int events_per_file *. site_ns *. 1e-9 /. off_file_s
  in
  (* telemetry: the armed pass must count what it observes. *)
  arm ();
  translate_corpus ();
  let applications = Effort.total_applications () in
  disarm ();
  (* Pooled p10: a sample is its true cost plus nonnegative noise, so a
     low quantile over many cycles converges on the noise floor for every
     configuration alike; the raw minimum is at the mercy of one
     configuration catching a rare clean window its twin never sees.  The
     disabled configuration runs the same machine state as bare, so its
     ratio measures the harness: a batch is accepted only when that A/A
     ratio resolves within 1% and the bounds hold; otherwise another 60
     cycles are pooled into the same samples, at most 8 batches in all,
     which converges if the true cost is in bounds and runs out honestly
     if it is not. *)
  let tel_samples = Array.make 4 [] in
  let tel_configs =
    corpus_configs ~options
      [| disarm; disarm; (fun () -> disarm (); install_hook ()); (fun () -> disarm (); arm ()) |]
  in
  let rec batch k =
    run_cycles rng ~cycles:60 tel_configs tel_samples;
    disarm ();
    let ratio i = p10 tel_samples.(i) /. p10 tel_samples.(0) in
    let ok = Float.abs (ratio 1 -. 1.) <= 0.01 && ratio 3 <= 1.05 in
    if ok || k >= 8 then (ratio 1, ratio 2, ratio 3, k)
    else begin
      Printf.printf "  (batch %d: A/A ratio %.4f, armed ratio %.4f; pooling 60 more cycles)\n%!"
        k (ratio 1) (ratio 3);
      batch (k + 1)
    end
  in
  let disabled, installed, armed, batches = batch 1 in
  let store_ratio, store_vs_none = store_gate rng ~options in
  let net_ratio = net_gate () in
  let ratio r = Printf.sprintf "%.3fx" r in
  let pct r = Printf.sprintf "%.4f%%" r in
  let tel_stat = Printf.sprintf "pooled p10, %d cycles" (60 * batches) in
  let bounds =
    [
      ("store: warm vs cold", "median cycle ratio, 9 cycles", ratio store_ratio, ">= 2x",
       store_ratio >= 2.);
      ("net: 4 vs 1 clients", "req/s ratio", ratio net_ratio, ">= 1.2x", net_ratio >= 1.2);
      ("obs: tracing off", "projected overhead", pct off_pct, "<= 1%", off_pct <= 1.);
      ("obs: tracing on", "median cycle ratio, 61 cycles", ratio on_ratio, "<= 1.05x",
       on_ratio <= 1.05);
      ("telemetry: disabled (A/A)", tel_stat, ratio disabled, "<= 1.01x", disabled <= 1.01);
      ("telemetry: armed", tel_stat, ratio armed, "<= 1.05x", armed <= 1.05);
      ("telemetry: rule applications", "count, one armed pass", string_of_int applications,
       "> 0", applications > 0);
    ]
  in
  print_string
    (Ac_stats.render_table
       ~header:[ "Gate"; "Statistic"; "Measured"; "Bound"; "" ]
       (List.map
          (fun (g, s, m, b, ok) -> [ g; s; m; b; (if ok then "ok" else "FAIL") ])
          bounds
       @ [
           [ "store: warm vs no store"; "median cycle ratio, 9 cycles"; ratio store_vs_none;
             "(informational)"; "" ];
           [ "telemetry: hook only"; tel_stat; ratio installed; "(informational)"; "" ];
         ]));
  Printf.printf "\n%.1fns per disabled site, %d events per translated file.\n" site_ns
    events_per_file;
  match List.filter (fun (_, _, _, _, ok) -> not ok) bounds with
  | [] -> ()
  | failed ->
    failwith
      ("gates: bound failed: " ^ String.concat ", " (List.map (fun (g, _, _, _, _) -> g) failed))

let all : (string * (unit -> unit)) list =
  [
    ("fig1", fig1); ("fig2", fig2); ("table1", table1); ("table2", table2);
    ("table3", table3); ("fig3", fig3); ("fig4", fig4); ("table4", table4);
    ("fig5", fig5); ("footnote2", footnote2); ("suzuki", suzuki); ("fig6", fig6);
    ("fig8", fig8); ("table5", table5); ("table6", table6); ("memset", memset);
    ("custom_rule", custom_rule); ("ablation", ablation); ("analysis", analysis);
    ("robustness", robustness); ("interproc", interproc); ("gates", gates);
  ]
