module Ir = Ac_simpl.Ir
module M = Ac_monad.M
module Driver = Autocorres.Driver

(* Table 5's metrics over a pipeline run:

   - lines of code of the C source (non-blank, non-comment);
   - number of functions;
   - CPU time of the parsing stage and of the AutoCorres stages;
   - lines of specification of the C-parser output (pretty-printed Simpl)
     and of the AutoCorres output (pretty-printed monadic definitions);
   - average term size (AST node count) of both;

   plus the robustness columns: how far down the degradation ladder each
   function landed (Simpl/L1/L2/HL/WA) and how many resource budgets were
   exhausted during the run. *)

type row = {
  name : string;
  loc : int;
  functions : int;
  parse_time : float; (* seconds *)
  autocorres_time : float;
  parser_spec_lines : int;
  ac_spec_lines : int;
  parser_term_size : int; (* average per function *)
  ac_term_size : int;
  guards_parser : int; (* UB guards emitted by the C parser *)
  guards_final : int; (* guards surviving in the final output *)
  (* Degradation ladder: functions whose final certified level is ... *)
  at_simpl : int;
  at_l1 : int;
  at_l2 : int;
  at_hl : int;
  at_wa : int;
  budget_hits : int; (* resource-budget exhaustions during the run *)
}

(* UB guards in a Simpl statement (the parser's output). *)
let ir_guard_count (s : Ir.stmt) : int =
  let n = ref 0 in
  Ir.iter_stmts (function Ir.Guard _ -> incr n | _ -> ()) s;
  !n

let measure ?options ?store ~name (source : string) : row * Driver.result =
  (* Measure with fault isolation on so a failing function shows up as a
     degradation count instead of aborting the whole measurement. *)
  let options =
    match options with
    | Some o -> o
    | None -> { Driver.default_options with Driver.keep_going = true }
  in
  (* Wall clock, not [Sys.time]: process CPU time advances [jobs]× faster
     than elapsed time once the driver runs functions on worker domains. *)
  let t0 = Unix.gettimeofday () in
  let simpl = Ac_simpl.C2simpl.parse source in
  let parse_time = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let res = Driver.run ~options ?store source in
  let autocorres_time = Unix.gettimeofday () -. t1 in
  let funcs = simpl.Ir.funcs in
  let n = max 1 (List.length funcs) in
  let parser_spec_lines =
    List.fold_left (fun acc f -> acc + Ac_simpl.Print.lines_of_spec f) 0 funcs
  in
  let parser_term_size = List.fold_left (fun acc f -> acc + Ir.func_size f) 0 funcs / n in
  let ac_spec_lines =
    List.fold_left
      (fun acc fr -> acc + Ac_monad.Mprint.lines_of_spec fr.Driver.fr_final)
      0 res.Driver.funcs
  in
  let ac_term_size =
    List.fold_left (fun acc fr -> acc + M.func_size fr.Driver.fr_final) 0 res.Driver.funcs / n
  in
  let guards_parser = List.fold_left (fun acc f -> acc + ir_guard_count f.Ir.body) 0 funcs in
  let guards_final =
    List.fold_left
      (fun acc fr -> acc + Ac_analysis.guard_count fr.Driver.fr_final.M.body)
      0 res.Driver.funcs
  in
  let count_level lv =
    List.length (List.filter (fun fr -> Driver.level_of fr = lv) res.Driver.funcs)
    + List.length
        (List.filter (fun d -> Driver.degraded_level d = lv) res.Driver.degraded)
  in
  ( {
      name;
      loc = Ac_cfront.Tir.source_loc source;
      functions = List.length funcs;
      parse_time;
      autocorres_time;
      parser_spec_lines;
      ac_spec_lines;
      parser_term_size;
      ac_term_size;
      guards_parser;
      guards_final;
      at_simpl = count_level Driver.Lsimpl;
      at_l1 = count_level Driver.Ll1;
      at_l2 = count_level Driver.Ll2;
      at_hl = count_level Driver.Lhl;
      at_wa = count_level Driver.Lwa;
      budget_hits = res.Driver.budget_hits;
    },
    res )

(* ------------------------------------------------------------------ *)
(* Plain-text table rendering (for the bench harness). *)

let render_table ~(header : string list) (rows : string list list) : string =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) header;
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row)
    rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let line row = "  " ^ String.concat "   " (List.mapi pad row) in
  let sep = "  " ^ String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" ((line header :: sep :: List.map line rows) @ [ "" ])

let pct_smaller a b =
  if a = 0 then 0. else 100. *. (1. -. (float_of_int b /. float_of_int a))

(* Throughput/latency ratio column for scaling tables ("1.00x",
   "2.31x"); a non-positive baseline renders as "-" rather than inf. *)
let speedup ~baseline v =
  if baseline <= 0. then "-" else Printf.sprintf "%.2fx" (v /. baseline)

(* The ladder column: how many functions ended at each certified level,
   bottom-up — "S/1/2/H/W".  A fully healthy word-abstracted unit reads
   0/0/0/0/n. *)
let ladder_to_string (r : row) : string =
  Printf.sprintf "%d/%d/%d/%d/%d" r.at_simpl r.at_l1 r.at_l2 r.at_hl r.at_wa

let row_to_strings (r : row) : string list =
  [
    r.name;
    string_of_int r.loc;
    string_of_int r.functions;
    Printf.sprintf "%.2f" r.parse_time;
    Printf.sprintf "%.2f" r.autocorres_time;
    string_of_int r.parser_spec_lines;
    string_of_int r.ac_spec_lines;
    string_of_int r.parser_term_size;
    string_of_int r.ac_term_size;
    Printf.sprintf "%.0f%%" (pct_smaller r.parser_spec_lines r.ac_spec_lines);
    Printf.sprintf "%.0f%%" (pct_smaller r.parser_term_size r.ac_term_size);
    string_of_int r.guards_parser;
    string_of_int r.guards_final;
    Printf.sprintf "%.0f%%" (pct_smaller r.guards_parser r.guards_final);
    ladder_to_string r;
    string_of_int r.budget_hits;
  ]

let table5_header =
  [ "Program"; "LoC"; "Fns"; "Parse(s)"; "AC(s)"; "SpecLn(P)"; "SpecLn(AC)";
    "Term(P)"; "Term(AC)"; "SpecLn↓"; "Term↓"; "Guards(P)"; "Guards(AC)"; "Guards↓";
    "S/1/2/H/W"; "BudgetX" ]

(* ------------------------------------------------------------------ *)
(* Per-phase profile rendering (`acc stats --profile`).  Wall seconds
   are cumulative across worker domains, so with --jobs > 1 a phase can
   exceed the run's elapsed time. *)

let profile_header = [ "Phase"; "Calls"; "Wall(s)"; "Alloc(MB)" ]

(* Per-function interprocedural profile (`acc stats --profile`): how many
   summary contexts the engine kept for the function and their total
   abstract size, plus how many of its guards the pure analysis proves
   without (Intra) and with (Inter) the summary table.  The Gain column
   is what crossing call boundaries bought; kernel-checked discharge can
   only be lower than either analysis count. *)
let summary_header = [ "Function"; "Contexts"; "SumSize"; "Intra"; "Inter"; "Gain" ]

let summary_rows (res : Driver.result) : string list list =
  List.map
    (fun ((name, ip) : string * Driver.iprof) ->
      [
        name;
        string_of_int ip.Driver.ip_contexts;
        string_of_int ip.Driver.ip_size;
        string_of_int ip.Driver.ip_intra;
        string_of_int ip.Driver.ip_inter;
        string_of_int (ip.Driver.ip_inter - ip.Driver.ip_intra);
      ])
    res.Driver.iprof

let profile_rows (entries : Autocorres.Profile.entry list) : string list list =
  List.map
    (fun (e : Autocorres.Profile.entry) ->
      [
        e.Autocorres.Profile.phase;
        string_of_int e.Autocorres.Profile.calls;
        Printf.sprintf "%.3f" e.Autocorres.Profile.wall_s;
        Printf.sprintf "%.1f" (e.Autocorres.Profile.alloc_bytes /. 1_048_576.);
      ])
    entries

(* ------------------------------------------------------------------ *)
(* Proof-effort accounting for `acc stats --profile` and `acc effort`.
   The kernel's observation hook is installed from here, outside the
   kernel. *)

let arm_effort () = Ac_obs.Effort.arm Ac_kernel.Thm.set_obs_hook Ac_kernel.Rules.rule_name

let effort_report ~json ~files =
  if json then Ac_obs.Effort.snapshot_json () ^ "\n" else Ac_obs.Effort.report ~files ()

(* Everything `acc stats --profile` prints after the Table 5 row: the
   phase table, the interprocedural table when summaries were profiled,
   store activity, and where the kernel's work went. *)
let profile_report (res : Driver.result) : string =
  String.concat ""
    [ "\n";
      render_table ~header:profile_header (profile_rows (Autocorres.Profile.snapshot ()));
      (if res.Driver.iprof = [] then ""
       else "\n" ^ render_table ~header:summary_header (summary_rows res));
      Printf.sprintf "\nstore: %d hits, %d misses\n" res.Driver.store_hits
        res.Driver.store_misses;
      Ac_obs.Effort.report () ]
