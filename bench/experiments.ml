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
  Printf.printf "L1 image of an if/return function (every Simpl construct maps by rule):\n%s\n"
    (Mprint.func_to_string fr.Driver.fr_l1);
  Printf.printf "L1 derivation: %d rule applications, revalidated: %b\n"
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
    Printf.printf "Word-abstraction derivation (rules as in Table 3; truncated):\n%s\n"
      (Thm.derivation_to_string ~max_depth:4 thm);
    Printf.printf "Derivation size: %d rule applications\n" (Thm.size thm)
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
  (match fr.Driver.fr_hl_thm with
  | Some thm ->
    Printf.printf "Heap-abstraction derivation (rules as in Table 4; truncated):\n%s\n"
      (Thm.derivation_to_string ~max_depth:3 thm);
    Printf.printf "Derivation size: %d rule applications; revalidated: %b\n" (Thm.size thm)
      (Thm.check res.Driver.ctx thm = Ok ())
  | None -> print_endline "heap abstraction skipped!")

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
    "Reading: the clean-up rewrites (guard discharge, inlining, return-flow
     straightening) and the two semantic abstractions each contribute to the
     reduction the paper reports; disabling any knob grows the output."

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

(* PR 3's performance layer, measured honestly on this machine:

   - end-to-end translation of every corpus program plus the 40-function
     echronos-like unit (the workload per-function parallelism exists
     for), at jobs=1 and at --jobs 4;
   - derivation re-checking, uncached ([Thm.check], re-walks every
     occurrence) vs cached ([Check_cache], memoized on the derivation
     DAG);
   - a divergence check: both translation configurations must produce
     byte-identical output (functions, levels, bodies, diagnostics), and
     both check modes the same verdict.

   Results go to BENCH_pr3.json in the working directory.  Wall-clock
   speedup from --jobs naturally depends on the cores available; the
   JSON records the machine's core count next to the numbers. *)

(* Best-of-N wall clock, with the competing configurations interleaved
   round-robin: background load then hits every configuration in each
   round instead of skewing whichever one happened to run while the
   machine was busy, so the recorded ratios are stable under noise. *)
let time_min_all ~reps (fs : (unit -> 'a) list) : ('a * float) list =
  let n = List.length fs in
  let best = Array.make n infinity in
  let last = Array.make n None in
  for _ = 1 to reps do
    List.iteri
      (fun i f ->
        (* Start every measurement from the same heap state: without this,
           a configuration can be charged for the major-GC debt run up by
           whichever thunk happened to precede it. *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let v = f () in
        let dt = Unix.gettimeofday () -. t0 in
        last.(i) <- Some v;
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  List.init n (fun i -> (Option.get last.(i), best.(i)))

(* Everything observable about a run: per-function level, chain
   presence, printed final body, skip list, diagnostics, budget hits. *)
let fingerprint (res : Driver.result) : string =
  let b = Buffer.create 4096 in
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
  Buffer.add_string b (string_of_int res.Driver.budget_hits);
  Buffer.contents b

let perf () =
  header "Perf: check cache, parallel translation";
  let workloads =
    Csources.all @ [ ("echronos-like", Ac_codegen.generate Ac_codegen.echronos_like) ]
  in
  let translate_all jobs () =
    List.map
      (fun (_, src) ->
        Driver.run ~options:{ Driver.default_options with Driver.keep_going = true; jobs } src)
      workloads
  in
  let reps = 5 in
  let (seq_results, seq_s), (par_results, par_s) =
    match time_min_all ~reps [ translate_all 1; translate_all 4 ] with
    | [ s; p ] -> (s, p)
    | _ -> assert false
  in
  let fps l = List.map fingerprint l in
  let divergence = fps seq_results <> fps par_results in
  (* Derivation checking over every theorem those runs produced. *)
  let check_mode cached () =
    List.for_all (fun res -> Driver.check_all ~cached res = Ok ()) par_results
  in
  let (check_ok_uncached, uncached_s), (check_ok_cached, cached_s) =
    match time_min_all ~reps:9 [ check_mode false; check_mode true ] with
    | [ u; c ] -> (u, c)
    | _ -> assert false
  in
  let speedup a b = if b > 0. then a /. b else 1. in
  let cores = Domain.recommended_domain_count () in
  let rows =
    [
      [ "translate, jobs=1"; Printf.sprintf "%.3f" seq_s; "1.00x" ];
      [ "translate, jobs=4"; Printf.sprintf "%.3f" par_s;
        Printf.sprintf "%.2fx" (speedup seq_s par_s) ];
      [ "check, uncached (kernel walk)"; Printf.sprintf "%.3f" uncached_s; "1.00x" ];
      [ "check, cached (derivation DAG)"; Printf.sprintf "%.3f" cached_s;
        Printf.sprintf "%.2fx" (speedup uncached_s cached_s) ];
    ]
  in
  print_string
    (Ac_stats.render_table ~header:[ "Configuration"; "Best wall (s)"; "Speedup" ] rows);
  Printf.printf
    "\n%d workload(s), %d core(s) available; output divergence between modes: %s;\n\
     both check modes accept: %s.\n"
    (List.length workloads) cores (if divergence then "DIVERGED" else "none")
    (if check_ok_uncached && check_ok_cached then "yes" else "NO");
  let json =
    Printf.sprintf
      "{\"experiment\":\"perf\",\"workloads\":%d,\"cores\":%d,\n\
       \ \"translate_seq_s\":%.6f,\"translate_jobs4_s\":%.6f,\"translate_jobs_speedup\":%.3f,\n\
       \ \"check_uncached_s\":%.6f,\"check_cached_s\":%.6f,\"check_speedup\":%.3f,\n\
       \ \"check_cached_faster_pct\":%.1f,\"divergence\":%b,\"checks_accept\":%b}\n"
      (List.length workloads) cores seq_s par_s (speedup seq_s par_s)
      uncached_s cached_s (speedup uncached_s cached_s)
      (100. *. (1. -. (cached_s /. uncached_s)))
      divergence (check_ok_uncached && check_ok_cached)
  in
  let oc = open_out "BENCH_pr3.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_pr3.json";
  if divergence || not (check_ok_uncached && check_ok_cached) then
    failwith "perf: divergence between modes"

(* ------------------------------------------------------------------ *)
(* PR 4: the content-addressed proof store.  Three measurements:

   - cold translation (empty store, so the run also records and saves
     one derivation trace per function) vs warm translation (every
     function replays its stored trace through the kernel instead of
     re-translating) vs the no-store baseline, over the corpus plus
     generated multi-function units — warm must be >= 2x faster than
     cold, and all three byte-identical;
   - the batch server: `acc serve` round-trip throughput in requests/sec
     against a warm store;
   - a divergence check like perf's: identical fingerprints across the
     three translate configurations, and every replayed derivation must
     re-validate under [Driver.check_all].

   Results go to BENCH_pr4.json in the working directory. *)

let store () =
  header "Store: incremental translation via the proof store (PR 4)";
  (* Fixed GC geometry for the whole experiment (restored on exit): a
     minor heap large enough that a replay run's working set stays in it,
     and a major-heap slack factor high enough that the measurement is
     not dominated by when the collector happens to start a cycle.  Under
     the default geometry the allocation-heavy cold runs drift 20-45%
     between otherwise identical processes, which is noise on exactly the
     quantity this experiment asserts a floor for. *)
  let gc0 = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  (* Correctness sweep over everything: the whole test corpus plus four
     generated multi-function units.  Timing runs on the three mid-size
     generated units — multi-function translation units are the workload
     incremental translation exists for; on a 10-line toy file both sides
     of the ratio are dominated by per-run fixed costs, and on a
     sub-100ms workload the cold/warm ratio is dominated by timer noise.
     (ci.sh separately times the on-disk corpus/*.c files through the
     CLI, with its own floor.) *)
  let sweep_units =
    [
      ("echronos-like", Ac_codegen.generate Ac_codegen.echronos_like);
      ("piccolo-like", Ac_codegen.generate Ac_codegen.piccolo_like);
      ("capdl-like", Ac_codegen.generate Ac_codegen.capdl_like);
      ("sel4-like", Ac_codegen.generate Ac_codegen.sel4_like);
    ]
  in
  let units =
    List.filter (fun (n, _) -> n <> "sel4-like") sweep_units
  in
  let workloads = Csources.all @ sweep_units in
  let options = { Driver.default_options with Driver.keep_going = true } in
  let mkdtemp () =
    let d = Filename.temp_file "acc_bench_store" ".d" in
    Sys.remove d;
    d
  in
  let open_store dir =
    match Store.open_ ~dir () with Ok st -> st | Error m -> failwith m
  in
  let run_all ?store srcs = List.map (fun (_, src) -> Driver.run ~options ?store src) srcs in
  (* --- correctness: cold, warm and no-store must be byte-identical, and
     every replayed derivation must re-validate. --- *)
  let dir_sweep = mkdtemp () in
  let sweep_cold = run_all ~store:(open_store dir_sweep) workloads in
  let sweep_warm = run_all ~store:(open_store dir_sweep) workloads in
  let sweep_nostore = run_all workloads in
  let fps l = List.map fingerprint l in
  let divergence =
    fps sweep_cold <> fps sweep_warm || fps sweep_warm <> fps sweep_nostore
  in
  let sum f l = List.fold_left (fun a r -> a + f r) 0 l in
  let warm_hits = sum (fun r -> r.Driver.store_hits) sweep_warm in
  let warm_misses = sum (fun r -> r.Driver.store_misses) sweep_warm in
  let cold_misses = sum (fun r -> r.Driver.store_misses) sweep_cold in
  let replays_check =
    List.for_all (fun res -> Driver.check_all res = Ok ()) sweep_warm
  in
  (* --- timing: cold (empty store, so the run also records and saves one
     derivation trace per function) vs warm (every function replays its
     stored trace through the kernel) vs no store, over the units.

     Methodology, tuned for a stable ratio rather than a lucky one: the
     configurations are timed in PAIRED rounds — each round times one
     cold rep immediately followed by one warm rep — and the reported
     speedup is the MEDIAN of the per-round ratios.  On a shared machine
     the wall clock runs in multi-second fast and slow epochs; an epoch
     covers both members of a round, so it cancels in that round's ratio,
     where separate per-configuration blocks hand whichever one collides
     with a slow epoch a 25% penalty.  Medians rather than best-of for
     the same reason: the ratio of two minima is at the mercy of one
     GC-quiet repetition on either side.  The timing runs after the
     correctness sweep above, so the rounds see the steady process state
     a long-lived driver (`acc serve`, a build daemon) actually runs
     in. *)
  let time1 f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let median l =
    let sorted = List.sort compare l in
    List.nth sorted (List.length l / 2)
  in
  let dir_cold = mkdtemp () and dir_warm = mkdtemp () in
  let cold_thunk () =
    (match Store.clear ~dir:dir_cold with Ok _ -> () | Error _ -> ());
    run_all ~store:(open_store dir_cold) units
  in
  let warm_thunk () = run_all ~store:(open_store dir_warm) units in
  let nostore_thunk () = run_all units in
  ignore (run_all ~store:(open_store dir_warm) units);
  let rounds =
    List.init 9 (fun _ ->
        let c = time1 cold_thunk in
        let w = time1 warm_thunk in
        let n = time1 nostore_thunk in
        (c, w, n))
  in
  let cold_s = median (List.map (fun (c, _, _) -> c) rounds) in
  let warm_s = median (List.map (fun (_, w, _) -> w) rounds) in
  let nostore_s = median (List.map (fun (_, _, n) -> n) rounds) in
  let speedup = median (List.map (fun (c, w, _) -> c /. w) rounds) in
  (* Batch-server round-trip throughput, against the warm store: one
     process, N translate requests over a rotating set of files, one JSON
     response line each. *)
  let acc_exe =
    let candidates =
      [ "_build/default/bin/acc.exe"; "../bin/acc.exe"; "bin/acc.exe" ]
    in
    let find () = List.find_opt Sys.file_exists candidates in
    match find () with
    | Some p -> p
    | None -> (
        ignore (Sys.command "dune build bin/acc.exe > /dev/null 2>&1");
        match find () with
        | Some p -> p
        | None -> failwith "store bench: cannot locate acc.exe")
  in
  let req_files =
    List.filteri (fun i _ -> i < 3) Csources.all
    |> List.map (fun (name, src) ->
           let f = Filename.temp_file ("acc_serve_" ^ name) ".c" in
           let oc = open_out f in
           output_string oc src;
           close_out oc;
           f)
  in
  let dir_serve = mkdtemp () in
  let cmd =
    Printf.sprintf "%s serve --store %s 2> /dev/null" (Filename.quote acc_exe)
      (Filename.quote dir_serve)
  in
  let ic, oc = Unix.open_process cmd in
  let request f =
    output_string oc ("translate " ^ f ^ "\n");
    flush oc;
    input_line ic
  in
  (* Warm the server's store (and hash-cons tables) first. *)
  List.iter (fun f -> ignore (request f)) req_files;
  let n_requests = 60 in
  let ok_responses = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n_requests do
    let f = List.nth req_files (i mod List.length req_files) in
    let line = request f in
    if String.length line >= 11 && String.sub line 0 11 = "{\"ok\":true," then
      incr ok_responses
  done;
  let serve_s = Unix.gettimeofday () -. t0 in
  ignore (Unix.close_process (ic, oc));
  List.iter Sys.remove req_files;
  let req_per_s = if serve_s > 0. then float_of_int n_requests /. serve_s else 0. in
  let rows =
    [
      [ "translate, no store"; Printf.sprintf "%.3f" nostore_s; "" ];
      [ "translate, cold store (record + save)"; Printf.sprintf "%.3f" cold_s; "1.00x" ];
      [ "translate, warm store (kernel replay)"; Printf.sprintf "%.3f" warm_s;
        Printf.sprintf "%.2fx" speedup ];
    ]
  in
  print_string
    (Ac_stats.render_table ~header:[ "Configuration"; "Best wall (s)"; "Speedup" ] rows);
  Printf.printf
    "\n%d workload(s) swept, %d unit(s) timed; warm sweep: %d replayed, %d\n\
     re-translated (cold recorded %d); divergence between modes: %s;\n\
     replayed derivations re-validate: %s;\n\
     serve: %d/%d requests ok, %.1f req/s round-trip.\n"
    (List.length workloads) (List.length units) warm_hits warm_misses cold_misses
    (if divergence then "DIVERGED" else "none")
    (if replays_check then "yes" else "NO")
    !ok_responses n_requests req_per_s;
  let json =
    Printf.sprintf
      "{\"experiment\":\"store\",\"workloads\":%d,\n\
       \ \"translate_nostore_s\":%.6f,\"translate_cold_s\":%.6f,\"translate_warm_s\":%.6f,\n\
       \ \"warm_speedup_vs_cold\":%.3f,\"warm_hits\":%d,\"warm_misses\":%d,\n\
       \ \"divergence\":%b,\"replays_check\":%b,\n\
       \ \"serve_requests\":%d,\"serve_ok\":%d,\"serve_s\":%.6f,\"serve_req_per_s\":%.1f}\n"
      (List.length workloads) nostore_s cold_s warm_s speedup warm_hits warm_misses
      divergence replays_check n_requests !ok_responses serve_s req_per_s
  in
  let out = open_out "BENCH_pr4.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr4.json";
  if divergence then failwith "store: warm output diverged from cold";
  if not replays_check then failwith "store: a replayed derivation failed re-validation";
  if speedup < 2. then
    failwith
      (Printf.sprintf "store: warm run only %.2fx faster than cold (floor: 2x)" speedup);
  if !ok_responses <> n_requests then failwith "store: serve dropped requests"

(* ------------------------------------------------------------------ *)
(* PR 6: the interprocedural summary engine.  Per workload: guards the C
   parser emitted, guards discharged at L2 without the summary table
   (intra) and with it (inter), and the wall time of both analysis
   configurations.  Floors asserted: the aggregate interprocedural
   discharge rate stays strictly above the 57% intraprocedural baseline
   recorded in PR 1, interprocedural discharge is never below
   intraprocedural on any workload (monotone improvement), and every
   result re-validates under [Driver.check_all] (each discharge is a
   kernel-checked [Rule_guard_true]).

   Results go to BENCH_pr6.json in the working directory. *)

let interproc () =
  header "Interproc: summary-based guard discharge (PR 6)";
  (* Fixed GC geometry (restored on exit), as in the store experiment:
     the analyze-time columns drift tens of percent between identical
     processes under the default geometry. *)
  let gc0 = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  let baseline_pct = 57. in
  let workloads =
    Csources.all @ [ ("echronos-like", Ac_codegen.generate Ac_codegen.echronos_like) ]
  in
  let opts on = { Driver.default_options with Driver.keep_going = true; interproc = on } in
  let median l =
    let sorted = List.sort compare l in
    List.nth sorted (List.length l / 2)
  in
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
  let wl_json =
    String.concat ",\n  "
      (List.map
         (fun (name, g, ia, ir, ti, tp, _) ->
           Printf.sprintf
             "{\"name\":\"%s\",\"guards\":%d,\"intra\":%d,\"inter\":%d,\"intra_s\":%.6f,\"inter_s\":%.6f}"
             name g ia ir ti tp)
         measured)
  in
  let json =
    Printf.sprintf
      "{\"experiment\":\"interproc\",\"workloads\":%d,\"guards\":%d,\n\
       \ \"intra_discharged\":%d,\"inter_discharged\":%d,\n\
       \ \"intra_rate_pct\":%.2f,\"inter_rate_pct\":%.2f,\"baseline_pct\":%.1f,\n\
       \ \"monotone\":%b,\"kernel_checked\":%b,\n\
       \ \"per_workload\":[%s]}\n"
      (List.length workloads) guards intra inter rate_intra rate_inter baseline_pct
      monotone checked wl_json
  in
  let out = open_out "BENCH_pr6.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr6.json";
  if rate_inter <= baseline_pct then
    failwith
      (Printf.sprintf "interproc: rate %.1f%% not above the %.0f%% baseline" rate_inter
         baseline_pct);
  if not monotone then
    failwith "interproc: a workload discharged fewer guards than intraprocedural";
  if not checked then failwith "interproc: kernel re-validation failed"

(* ------------------------------------------------------------------ *)
(* PR 7: fault tolerance.  Drives `acc serve` over a pipe at injected
   store-I/O fault rates 0%, 1% and 5% (io_error via --inject) and
   records, per rate: cold-store and warm-store request latency, warm
   p95 and warm round-trip throughput.  Floors asserted: every request
   at every rate answers ok:true (faults degrade, they never kill the
   session or a request), and the responses are byte-identical across
   rates once the store counters and diagnostics are stripped.

   Results go to BENCH_pr7.json in the working directory. *)

let faults () =
  header "Faults: serve under injected faults";
  (* Pinned GC geometry (restored on exit), as in the store experiment:
     the latency columns drift under the default geometry. *)
  let gc0 = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  let acc_exe =
    let candidates =
      [ "_build/default/bin/acc.exe"; "../bin/acc.exe"; "bin/acc.exe" ]
    in
    let find () = List.find_opt Sys.file_exists candidates in
    match find () with
    | Some p -> p
    | None -> (
        ignore (Sys.command "dune build bin/acc.exe > /dev/null 2>&1");
        match find () with
        | Some p -> p
        | None -> failwith "faults bench: cannot locate acc.exe")
  in
  let req_files =
    List.filteri (fun i _ -> i < 3) Csources.all
    |> List.map (fun (name, src) ->
           let f = Filename.temp_file ("acc_faults_" ^ name) ".c" in
           let oc = open_out f in
           output_string oc src;
           close_out oc;
           f)
  in
  let mkdtemp () =
    let d = Filename.temp_file "acc_bench_faults" ".d" in
    Sys.remove d;
    d
  in
  (* Volatile JSON sections: the store counter object (flat, so the first
     '}' closes it) and the diagnostics array. *)
  let find_sub s key from =
    let klen = String.length key and n = String.length s in
    let rec go i =
      if i + klen > n then None
      else if String.sub s i klen = key then Some i
      else go (i + 1)
    in
    go from
  in
  let strip_to close key s =
    match find_sub s key 0 with
    | None -> s
    | Some i -> (
      match String.index_from_opt s i close with
      | None -> s
      | Some j -> String.sub s 0 i ^ String.sub s (j + 1) (String.length s - j - 1))
  in
  let strip line =
    line
    |> strip_to '}' "\"store\":{"
    |> strip_to ']' "\"diagnostics\":["
  in
  let p95 l =
    let sorted = List.sort compare l in
    let n = List.length sorted in
    if n = 0 then 0. else List.nth sorted (min (n - 1) (95 * n / 100))
  in
  let mean l =
    if l = [] then 0.
    else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let warm_reps = 30 in
  let run_rate rate =
    let dir = mkdtemp () in
    let inject =
      if rate = 0. then "" else Printf.sprintf " --inject 'io_error:%g,seed:42'" rate
    in
    let cmd =
      Printf.sprintf "%s serve --store %s%s 2> /dev/null" (Filename.quote acc_exe)
        (Filename.quote dir) inject
    in
    let ic, oc = Unix.open_process cmd in
    let request f =
      let t0 = Unix.gettimeofday () in
      output_string oc ("translate " ^ f ^ "\n");
      flush oc;
      let line = input_line ic in
      (line, Unix.gettimeofday () -. t0)
    in
    (* Cold: the store is empty, each file records and saves; warm: every
       subsequent request replays. *)
    let cold = List.map request req_files in
    let t0 = Unix.gettimeofday () in
    let warm =
      List.init warm_reps (fun i ->
          request (List.nth req_files (i mod List.length req_files)))
    in
    let warm_wall = Unix.gettimeofday () -. t0 in
    ignore (Unix.close_process (ic, oc));
    let responses = List.map fst (cold @ warm) in
    let ok =
      List.for_all
        (fun l -> String.length l >= 11 && String.sub l 0 11 = "{\"ok\":true,")
        responses
    in
    let lat = List.map snd in
    ( rate,
      mean (lat cold),
      mean (lat warm),
      p95 (lat warm),
      float_of_int warm_reps /. warm_wall,
      ok,
      List.map strip responses )
  in
  let rates = [ 0.; 0.01; 0.05 ] in
  let measured = List.map run_rate rates in
  List.iter Sys.remove req_files;
  let baseline_responses =
    match measured with
    | (_, _, _, _, _, _, r) :: _ -> r
    | [] -> []
  in
  let all_ok =
    List.for_all (fun (_, _, _, _, _, ok, _) -> ok) measured
  in
  let divergence =
    List.exists
      (fun (_, _, _, _, _, _, r) -> r <> baseline_responses)
      measured
  in
  let rows =
    List.map
      (fun (rate, cold_m, warm_m, warm_p, rps, _, _) ->
        [
          Printf.sprintf "%.0f%%" (100. *. rate);
          Printf.sprintf "%.4f" cold_m;
          Printf.sprintf "%.4f" warm_m;
          Printf.sprintf "%.4f" warm_p;
          Printf.sprintf "%.1f" rps;
        ])
      measured
  in
  print_string
    (Ac_stats.render_table
       ~header:
         [ "Faults"; "Cold mean(s)"; "Warm mean(s)"; "Warm p95(s)"; "Warm req/s" ]
       rows);
  Printf.printf
    "\n%d requests per rate over %d files; all requests ok: %s;\n\
     divergence across fault rates (store counters stripped): %s.\n"
    (warm_reps + List.length req_files)
    (List.length req_files)
    (if all_ok then "yes" else "NO")
    (if divergence then "DIVERGED" else "none");
  let per_rate_json =
    String.concat ",\n  "
      (List.map
         (fun (rate, cold_m, warm_m, warm_p, rps, ok, _) ->
           Printf.sprintf
             "{\"rate\":%.3f,\"cold_mean_s\":%.6f,\"warm_mean_s\":%.6f,\"warm_p95_s\":%.6f,\"warm_req_per_s\":%.1f,\"all_ok\":%b}"
             rate cold_m warm_m warm_p rps ok)
         measured)
  in
  let json =
    Printf.sprintf
      "{\"experiment\":\"faults\",\"requests_per_rate\":%d,\"files\":%d,\n\
       \ \"all_ok\":%b,\"divergence\":%b,\n\
       \ \"per_rate\":[%s]}\n"
      (warm_reps + List.length req_files)
      (List.length req_files) all_ok divergence per_rate_json
  in
  let out = open_out "BENCH_pr7.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr7.json";
  if not all_ok then failwith "faults: a request failed under injected faults";
  if divergence then
    failwith "faults: responses diverged across fault rates"

(* PR 8: multi-client socket throughput.  Drives `acc serve --socket`
   with 1, 2 and 4 closed-loop clients over a warm store and records
   aggregate req/s per client count, plus a 4-client row under a 5%
   injected socket-fault rate and a single-client stdin-mode baseline
   (the PR 7 transport).

   Clients are closed-loop with an explicit think time (set to ~2x the
   measured warm service time, clamped to [1ms, 20ms]): request
   execution is intentionally serialized on the server's main domain
   (one bounded scheduler over shared Pool/Store), so with
   zero think time N clients cannot beat one — concurrency pays off
   exactly when clients spend time between requests, which is what real
   callers do.  With think time t and service time s, one client caps at
   1/(s+t) while N clients approach 1/s; the floor asserted here is
   4 clients >= 1.2x 1 client.

   Floors: every response ok:true, responses byte-identical to the
   per-file warm references at every client count (stripped of volatile
   sections under injection only), all server exits 0.  Results go to
   BENCH_pr8.json. *)

let net () =
  header "Net: multi-client socket serve throughput (PR 8)";
  let acc_exe =
    let candidates =
      [ "_build/default/bin/acc.exe"; "../bin/acc.exe"; "bin/acc.exe" ]
    in
    let find () = List.find_opt Sys.file_exists candidates in
    match find () with
    | Some p -> p
    | None -> (
        ignore (Sys.command "dune build bin/acc.exe > /dev/null 2>&1");
        match find () with
        | Some p -> p
        | None -> failwith "net bench: cannot locate acc.exe")
  in
  let req_files =
    List.filteri (fun i _ -> i < 3) Csources.all
    |> List.map (fun (name, src) ->
           let f = Filename.temp_file ("acc_net_" ^ name) ".c" in
           let oc = open_out f in
           output_string oc src;
           close_out oc;
           f)
  in
  let nfiles = List.length req_files in
  let store_dir =
    let d = Filename.temp_file "acc_bench_net" ".d" in
    Sys.remove d;
    d
  in
  let find_sub s key from =
    let klen = String.length key and n = String.length s in
    let rec go i =
      if i + klen > n then None
      else if String.sub s i klen = key then Some i
      else go (i + 1)
    in
    go from
  in
  let strip_to close key s =
    match find_sub s key 0 with
    | None -> s
    | Some i -> (
      match String.index_from_opt s i close with
      | None -> s
      | Some j -> String.sub s 0 i ^ String.sub s (j + 1) (String.length s - j - 1))
  in
  let strip line =
    line
    |> strip_to '}' "\"store\":{"
    |> strip_to ']' "\"diagnostics\":["
  in
  let with_stdin_session f =
    let cmd =
      Printf.sprintf "%s serve --store %s 2> /dev/null" (Filename.quote acc_exe)
        (Filename.quote store_dir)
    in
    let ic, oc = Unix.open_process cmd in
    let request file =
      output_string oc ("translate " ^ file ^ "\n");
      flush oc;
      input_line ic
    in
    let r = f request in
    ignore (Unix.close_process (ic, oc));
    r
  in
  (* Session 1: prewarm the store, so every measured request below is a
     warm replay — deterministic response bytes (per-request store
     counters always all-hits) independent of client interleaving. *)
  with_stdin_session (fun request -> List.iter (fun f -> ignore (request f)) req_files);
  (* Session 2: per-file reference responses and the warm service time. *)
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
  let think_s = Float.min 0.02 (Float.max 0.001 (2. *. service_s)) in
  let n_per_client = 30 in
  let client_reqs = List.init n_per_client (fun i -> List.nth req_files (i mod nfiles)) in
  (* Session 3: the single-client stdin baseline (PR 7's transport), with
     the same think time the socket clients use. *)
  let stdin_rps =
    with_stdin_session (fun request ->
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun f ->
            let r = request f in
            if r <> Hashtbl.find refs f then failwith "net: stdin baseline diverged";
            Unix.sleepf think_s)
          client_reqs;
        float_of_int n_per_client /. (Unix.gettimeofday () -. t0))
  in
  let send_all fd s =
    let b = Bytes.unsafe_of_string s in
    let ofs = ref 0 in
    while !ofs < Bytes.length b do
      ofs := !ofs + Unix.write fd b !ofs (Bytes.length b - !ofs)
    done
  in
  let run_socket ?(inject = "") nclients =
    let sock = Filename.temp_file "acc_net" ".sock" in
    Sys.remove sock;
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let args =
      [ "acc"; "serve"; "--store"; store_dir; "--socket"; sock; "--max-inflight"; "256" ]
      @ (if inject = "" then [] else [ "--inject"; inject ])
    in
    let pid = Unix.create_process acc_exe (Array.of_list args) null null null in
    Unix.close null;
    let rec wait_sock tries =
      if tries = 0 then failwith "net: server socket never appeared";
      match (Unix.stat sock).Unix.st_kind with
      | Unix.S_SOCK -> ()
      | _ -> failwith "net: socket path is not a socket"
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        Unix.sleepf 0.025;
        wait_sock (tries - 1)
    in
    wait_sock 200;
    let t0 = Unix.gettimeofday () in
    let doms =
      List.init nclients (fun _ ->
          Domain.spawn (fun () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX sock);
              let ic = Unix.in_channel_of_descr fd in
              let resps =
                List.map
                  (fun f ->
                    send_all fd ("translate " ^ f ^ "\n");
                    let r = input_line ic in
                    Unix.sleepf think_s;
                    (f, r))
                  client_reqs
              in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              resps))
    in
    let results = List.map Domain.join doms in
    let wall = Unix.gettimeofday () -. t0 in
    Unix.kill pid Sys.sigterm;
    let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
    let norm = if inject = "" then fun s -> s else strip in
    let diverged =
      List.exists
        (List.exists (fun (f, r) -> norm r <> norm (Hashtbl.find refs f)))
        results
    in
    let ok =
      List.for_all
        (List.for_all (fun (_, r) ->
             String.length r >= 11 && String.sub r 0 11 = "{\"ok\":true,"))
        results
    in
    (float_of_int (nclients * n_per_client) /. wall, code, ok, diverged)
  in
  let clean = List.map (fun n -> (n, run_socket n)) [ 1; 2; 4 ] in
  let fault_rate = 0.05 in
  let fault_row =
    run_socket ~inject:(Printf.sprintf "io_error:%g,seed:13" fault_rate) 4
  in
  List.iter Sys.remove req_files;
  let r1 = match clean with (_, (r, _, _, _)) :: _ -> r | [] -> 0. in
  let r4 =
    match List.find_opt (fun (n, _) -> n = 4) clean with
    | Some (_, (r, _, _, _)) -> r
    | None -> 0.
  in
  let all_exit_0 =
    List.for_all (fun (_, (_, c, _, _)) -> c = 0) clean
    && (match fault_row with _, c, _, _ -> c = 0)
  in
  let all_ok =
    List.for_all (fun (_, (_, _, ok, _)) -> ok) clean
    && (match fault_row with _, _, ok, _ -> ok)
  in
  let diverged =
    List.exists (fun (_, (_, _, _, d)) -> d) clean
    || (match fault_row with _, _, _, d -> d)
  in
  let rows =
    [
      "stdin x1" :: Printf.sprintf "%.1f" stdin_rps
      :: Ac_stats.speedup ~baseline:r1 stdin_rps :: [ "0%" ];
    ]
    @ List.map
        (fun (n, (rps, _, _, _)) ->
          [
            Printf.sprintf "socket x%d" n;
            Printf.sprintf "%.1f" rps;
            Ac_stats.speedup ~baseline:r1 rps;
            "0%";
          ])
        clean
    @ [
        (let rps, _, _, _ = fault_row in
         [
           "socket x4"; Printf.sprintf "%.1f" rps;
           Ac_stats.speedup ~baseline:r1 rps;
           Printf.sprintf "%.0f%%" (100. *. fault_rate);
         ]);
      ]
  in
  print_string
    (Ac_stats.render_table ~header:[ "Clients"; "Req/s"; "vs socket x1"; "Faults" ] rows);
  Printf.printf
    "\n%d requests per client, think %.1fms (2x warm service %.1fms);\n\
     all ok: %s; divergence: %s; all server exits 0: %s.\n"
    n_per_client (1000. *. think_s) (1000. *. service_s)
    (if all_ok then "yes" else "NO")
    (if diverged then "DIVERGED" else "none")
    (if all_exit_0 then "yes" else "NO");
  let per_clients_json =
    String.concat ","
      (List.map
         (fun (n, (rps, _, _, _)) ->
           Printf.sprintf "{\"clients\":%d,\"req_per_s\":%.1f,\"speedup_vs_1\":%.2f}"
             n rps (if r1 > 0. then rps /. r1 else 0.))
         clean)
  in
  let fault_json =
    let rps, _, _, _ = fault_row in
    Printf.sprintf "{\"clients\":4,\"rate\":%.2f,\"req_per_s\":%.1f}" fault_rate rps
  in
  let json =
    Printf.sprintf
      "{\"experiment\":\"net\",\"n_per_client\":%d,\"think_ms\":%.2f,\"service_ms\":%.2f,\n\
       \ \"stdin_req_per_s\":%.1f,\"per_clients\":[%s],\"faulted\":%s,\n\
       \ \"all_ok\":%b,\"divergence\":%b,\"all_exit_0\":%b}\n"
      n_per_client (1000. *. think_s) (1000. *. service_s) stdin_rps
      per_clients_json fault_json all_ok diverged all_exit_0
  in
  let out = open_out "BENCH_pr8.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr8.json";
  if not all_ok then failwith "net: a request failed";
  if diverged then failwith "net: socket responses diverged from the warm references";
  if not all_exit_0 then failwith "net: a server did not exit 0 on SIGTERM";
  if r4 < 1.2 *. r1 then
    failwith
      (Printf.sprintf "net: 4-client throughput %.1f req/s not >= 1.2x 1-client %.1f"
         r4 r1)

(* ------------------------------------------------------------------ *)
(* PR 9: tracing overhead.  Two bounds back the "zero-cost when off"
   claim in lib/obs:

   - OFF: an instrumentation site costs one atomic load.  Measured
     directly (10M gated no-op spans), then scaled by the number of
     spans a full-corpus translate actually records — that projected
     cost must be <= 1% of the untraced run.  (The projection is the
     honest measurement: the real delta is far below timer noise.)
   - ON: full-corpus translate with tracing enabled vs disabled, paired
     within each round, median per-round ratio <= 1.05.

   And the invisibility floor: the traced runs' results are
   fingerprint-identical to the untraced runs'.

   Results go to BENCH_pr9.json in the working directory. *)

let obs () =
  header "Obs: tracing overhead (PR 9)";
  let module Obs = Ac_obs.Obs in
  (* Fixed GC geometry (restored on exit), as in the store/interproc
     experiments: sub-5% wall-clock comparisons drift more than that
     between identical processes under the default geometry. *)
  let gc0 = Gc.get () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ();
      Gc.set gc0)
  @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  let options = { Driver.default_options with Driver.keep_going = true } in
  let corpus = Csources.all in
  let translate_corpus () =
    List.iter (fun (_, src) -> ignore (Driver.run ~options src)) corpus
  in
  let fingerprint () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (name, src) ->
        let res = Driver.run ~options src in
        Buffer.add_string b name;
        List.iter
          (fun fr ->
            Buffer.add_string b fr.Driver.fr_name;
            Buffer.add_string b (Driver.level_name (Driver.level_of fr));
            Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_final))
          res.Driver.funcs;
        List.iter (fun d -> Buffer.add_string b d.Driver.dg_name) res.Driver.degraded;
        Buffer.add_string b (string_of_int res.Driver.budget_hits))
      corpus;
    Buffer.contents b
  in
  let median l =
    let sorted = List.sort compare l in
    List.nth sorted (List.length l / 2)
  in
  (* Invisibility: the traced corpus results match the untraced ones. *)
  Obs.set_enabled false;
  let fp_off = fingerprint () in
  Obs.reset ();
  Obs.set_enabled true;
  let fp_on = fingerprint () in
  let events_per_run = List.length (Obs.harvest ()) / List.length corpus in
  Obs.reset ();
  Obs.set_enabled false;
  let divergence = not (String.equal fp_off fp_on) in
  (* Paired rounds: disabled then enabled inside each round, per-round
     ratio, median across rounds. *)
  let rounds = 7 in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let pairs =
    List.init rounds (fun _ ->
        Obs.set_enabled false;
        let off_s = time translate_corpus in
        Obs.reset ();
        Obs.set_enabled true;
        let on_s = time translate_corpus in
        Obs.set_enabled false;
        Obs.reset ();
        (off_s, on_s))
  in
  let off_s = median (List.map fst pairs) in
  let on_s = median (List.map snd pairs) in
  let ratio = median (List.map (fun (o, n) -> n /. o) pairs) in
  (* The off-path gate: 10M no-op spans with tracing disabled.  Each is
     the full instrumentation-site cost (atomic load, branch, call). *)
  let gate_ns =
    let n = 10_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Obs.span ~cat:"bench" "gate" (fun () -> 0)))
    done;
    1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  (* A span is a B/E pair; instants count as one site each.  Charging
     every event one gate check over-counts, which is the safe side. *)
  let sites_per_run = events_per_run in
  let off_overhead_pct =
    let per_run_s = float_of_int sites_per_run *. gate_ns *. 1e-9 in
    100. *. per_run_s /. (off_s /. float_of_int (List.length corpus))
  in
  let on_overhead_pct = 100. *. (ratio -. 1.) in
  print_string
    (Ac_stats.render_table
       ~header:[ "Config"; "Corpus translate (s)"; "Overhead" ]
       [
         [ "tracing off"; Printf.sprintf "%.4f" off_s; "baseline" ];
         [ "tracing on"; Printf.sprintf "%.4f" on_s;
           Printf.sprintf "%.2f%%" on_overhead_pct ];
       ]);
  Printf.printf
    "\ngate: %.1fns per disabled site, %d events per translated file;\n\
     projected off-path overhead %.4f%% (floor: <= 1%%);\n\
     enabled overhead %.2f%% (floor: <= 5%%); divergence: %s.\n"
    gate_ns events_per_run off_overhead_pct on_overhead_pct
    (if divergence then "DIVERGED" else "none");
  let json =
    Printf.sprintf
      "{\"experiment\":\"obs\",\"rounds\":%d,\"corpus_files\":%d,\n\
       \ \"off_s\":%.6f,\"on_s\":%.6f,\"ratio\":%.4f,\n\
       \ \"enabled_overhead_pct\":%.2f,\"gate_ns\":%.2f,\n\
       \ \"events_per_file\":%d,\"disabled_overhead_pct\":%.4f,\n\
       \ \"divergence\":%b}\n"
      rounds (List.length corpus) off_s on_s ratio on_overhead_pct gate_ns
      events_per_run off_overhead_pct divergence
  in
  let out = open_out "BENCH_pr9.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr9.json";
  if divergence then failwith "obs: traced results diverged from untraced";
  if off_overhead_pct > 1.0 then
    failwith
      (Printf.sprintf "obs: disabled overhead %.4f%% above the 1%% bound"
         off_overhead_pct);
  if ratio > 1.05 then
    failwith
      (Printf.sprintf "obs: enabled/disabled ratio %.4f above the 1.05 bound" ratio)

(* ------------------------------------------------------------------ *)
(* PR 10: the full telemetry plane.  Three bounds:

   - DISARMED: kernel hook installed but the Effort gate off, tracing
     off — the per-mint cost is one ref read and one atomic load.
     Paired full-corpus rounds vs the fully-uninstalled baseline,
     median ratio <= 1.01.
   - ENABLED: everything armed — spans on, flight-recorder ring at its
     default 65536 slots, kernel hook counting every mint, chain/
     discharge accounting live.  Median paired ratio <= 1.05.
   - Invisibility: the armed runs' results are fingerprint-identical to
     the bare runs'.

   Results go to BENCH_pr10.json in the working directory. *)

let telemetry () =
  header "Telemetry: metrics + flight recorder + effort accounting (PR 10)";
  let module Obs = Ac_obs.Obs in
  let module Effort = Ac_obs.Effort in
  let gc0 = Gc.get () in
  let disarm () =
    Thm.set_obs_hook None;
    Effort.set_enabled false;
    Effort.reset ();
    Obs.set_enabled false;
    Obs.set_ring None;
    Obs.reset ()
  in
  let arm_installed () =
    (* hook installed but gate closed: not a state `acc` actually runs in
       (the CLI installs the hook and opens the gate together), measured
       as the informational cost of hook dispatch alone *)
    disarm ();
    Thm.set_obs_hook (Some Effort.on_rule)
  in
  let arm_enabled () =
    Thm.set_obs_hook (Some Effort.on_rule);
    Effort.set_enabled true;
    Obs.set_ring (Some 65536);
    Obs.set_enabled true
  in
  Fun.protect
    ~finally:(fun () ->
      disarm ();
      Gc.set gc0)
  @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 22; Gc.space_overhead = 200 };
  let options = { Driver.default_options with Driver.keep_going = true } in
  let corpus = Csources.all in
  let translate_corpus () =
    List.iter (fun (_, src) -> ignore (Driver.run ~options src)) corpus
  in
  let fingerprint () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (name, src) ->
        let res = Driver.run ~options src in
        Buffer.add_string b name;
        List.iter
          (fun fr ->
            Buffer.add_string b fr.Driver.fr_name;
            Buffer.add_string b (Driver.level_name (Driver.level_of fr));
            Buffer.add_string b (Mprint.func_to_string fr.Driver.fr_final))
          res.Driver.funcs;
        List.iter (fun d -> Buffer.add_string b d.Driver.dg_name) res.Driver.degraded;
        Buffer.add_string b (string_of_int res.Driver.budget_hits))
      corpus;
    Buffer.contents b
  in
  (* Invisibility first: armed results byte-match bare results, and the
     hook actually counted the run. *)
  disarm ();
  let fp_bare = fingerprint () in
  arm_enabled ();
  let fp_armed = fingerprint () in
  let applications = Effort.total_applications () in
  disarm ();
  let divergence = not (String.equal fp_bare fp_armed) in
  let counted = applications > 0 in
  (* Measurement. Hard-won methodology, in order of importance:

     - Pass-level interleaving: all four configs take turns translating
       the corpus once (~10 ms) inside each cycle, so a load spike or
       frequency excursion on a shared box lands on every config alike
       instead of on whichever config owned that second.
     - Low percentile, not median, not minimum: a sample's time is its
       true cost plus nonnegative noise, so a low quantile over many
       cycles converges on the noise floor for every config alike.  The
       raw minimum is fragile the other way — one config can catch a
       rare super-clean window (a frequency boost, an empty run queue)
       that its twin never sees in hundreds of tries, skewing every
       ratio; p10 keeps the noise-filtering property while shrugging
       off single outliers.
     - A/A validation: the "disabled" config runs the hook-uninstalled
       production path, which is the SAME machine state as bare — its
       ratio measures the harness, not the code.  A measurement is
       accepted only when that ratio resolves within the 1% bound AND
       the bounded configs resolve under their bounds; while either
       fails, another batch of cycles is pooled into the same sample
       sets (bounded attempts) — low quantiles only firm up with more
       samples, so pooling converges if the true cost is in bounds and
       exhausts attempts honestly if it is not.
     - The order within a cycle is a seeded random permutation (a fixed
       rotation keeps each config's predecessor constant, so a
       predecessor's cache/allocator residue becomes a systematic bias
       the minimum can never shed), and a full major collection at each
       cycle start stops one config's allocation debt from billing the
       next; GC work a config causes inside its own pass stays in that
       pass, where it belongs. *)
  let cycles = 60 in
  let steps =
    [|
      (fun () -> disarm ());
      (fun () -> disarm () (* disabled = production path, A/A *));
      (fun () -> disarm (); arm_installed ());
      (fun () -> disarm (); arm_enabled ());
    |]
  in
  (* [samples] accumulates across attempts: a retry pools more cycles
     into the same per-config sample sets instead of throwing the first
     batch away. *)
  let samples = Array.init 4 (fun _ -> ref []) in
  let rng = Random.State.make [| 0x7e1e |] in
  let order = [| 0; 1; 2; 3 |] in
  let p10 l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 10)
  in
  let measure () =
    for _c = 0 to cycles - 1 do
      for i = 3 downto 1 do
        let k = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(k);
        order.(k) <- t
      done;
      Gc.full_major ();
      for i = 0 to 3 do
        let j = order.(i) in
        steps.(j) ();
        let t0 = Unix.gettimeofday () in
        translate_corpus ();
        let dt = Unix.gettimeofday () -. t0 in
        samples.(j) := dt :: !(samples.(j))
      done
    done;
    disarm ();
    (p10 !(samples.(0)), p10 !(samples.(1)), p10 !(samples.(2)), p10 !(samples.(3)))
  in
  let attempts = 8 in
  let rec attempt k =
    let ((b, d, _, a) as r) = measure () in
    let aa_ok = Float.abs ((d /. b) -. 1.) <= 0.01 in
    let bounds_ok = d /. b <= 1.01 && a /. b <= 1.05 in
    if (aa_ok && bounds_ok) || k >= attempts then (r, k)
    else begin
      Printf.printf
        "  (attempt %d: A/A ratio %.4f, armed ratio %.4f — pooling more cycles)\n%!"
        k (d /. b) (a /. b);
      attempt (k + 1)
    end
  in
  let (bare_s, disarmed_s, installed_s, armed_s), attempts_used = attempt 1 in
  let disarmed_ratio = disarmed_s /. bare_s in
  let installed_ratio = installed_s /. bare_s in
  let armed_ratio = armed_s /. bare_s in
  let pct r = 100. *. (r -. 1.) in
  print_string
    (Ac_stats.render_table
       ~header:
         [ "Config";
           Printf.sprintf "p10 of %d passes (s)" (List.length !(samples.(0)));
           "Overhead" ]
       [
         [ "baseline"; Printf.sprintf "%.4f" bare_s; "baseline" ];
         [ "disabled (no hook, A/A)"; Printf.sprintf "%.4f" disarmed_s;
           Printf.sprintf "%.2f%%" (pct disarmed_ratio) ];
         [ "hook installed, gate off"; Printf.sprintf "%.4f" installed_s;
           Printf.sprintf "%.2f%%" (pct installed_ratio) ];
         [ "fully armed (ring 65536)"; Printf.sprintf "%.4f" armed_s;
           Printf.sprintf "%.2f%%" (pct armed_ratio) ];
       ]);
  Printf.printf
    "\n%d kernel rule applications counted per corpus pass;\n\
     disabled overhead %.2f%% (bound: <= 1%%); armed overhead %.2f%% (bound: <= 5%%);\n\
     hook-dispatch-only overhead %.2f%% (informational); divergence: %s.\n"
    applications (pct disarmed_ratio) (pct armed_ratio) (pct installed_ratio)
    (if divergence then "DIVERGED" else "none");
  let json =
    Printf.sprintf
      "{\"experiment\":\"telemetry\",\"cycles\":%d,\"attempts\":%d,\"corpus_files\":%d,\n\
       \ \"bare_s\":%.6f,\"disabled_s\":%.6f,\"hook_installed_s\":%.6f,\"armed_s\":%.6f,\n\
       \ \"disabled_ratio\":%.4f,\"hook_installed_ratio\":%.4f,\"armed_ratio\":%.4f,\n\
       \ \"disabled_overhead_pct\":%.2f,\"armed_overhead_pct\":%.2f,\n\
       \ \"rule_applications\":%d,\"divergence\":%b}\n"
      cycles attempts_used (List.length corpus) bare_s disarmed_s installed_s armed_s disarmed_ratio
      installed_ratio
      armed_ratio (pct disarmed_ratio) (pct armed_ratio) applications divergence
  in
  let out = open_out "BENCH_pr10.json" in
  output_string out json;
  close_out out;
  print_endline "wrote BENCH_pr10.json";
  if divergence then failwith "telemetry: armed results diverged from bare";
  if not counted then failwith "telemetry: armed run counted no rule applications";
  if disarmed_ratio > 1.01 then
    failwith
      (Printf.sprintf "telemetry: disabled ratio %.4f above the 1.01 bound"
         disarmed_ratio);
  if armed_ratio > 1.05 then
    failwith
      (Printf.sprintf "telemetry: armed ratio %.4f above the 1.05 bound" armed_ratio)

let all : (string * (unit -> unit)) list =
  [
    ("fig1", fig1); ("fig2", fig2); ("table1", table1); ("table2", table2);
    ("table3", table3); ("fig3", fig3); ("fig4", fig4); ("table4", table4);
    ("fig5", fig5); ("footnote2", footnote2); ("suzuki", suzuki); ("fig6", fig6);
    ("fig8", fig8); ("table5", table5); ("table6", table6); ("memset", memset);
    ("custom_rule", custom_rule); ("ablation", ablation); ("analysis", analysis);
    ("robustness", robustness); ("perf", perf); ("store", store);
    ("interproc", interproc); ("faults", faults); ("net", net); ("obs", obs);
    ("telemetry", telemetry);
  ]
