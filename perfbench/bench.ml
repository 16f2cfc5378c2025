(* The repository benchmark's workloads, run in one process.

   Normally started by perfbench/run.py, which builds this program and
   bin/acc.exe from source first:

     bench.exe --workload unit_cold|unit_par|unit_edit|serve_mix
               --seed N --seconds S [--trace] [--spans FILE]
               [--acc PATH] [--work DIR]

   Every input is generated from [--seed]: the Table 5 sel4-like unit of
   unit_cold and unit_par comes from the [Ac_codegen] profile whose seed
   is shifted by it, and it picks the edit sites, the arrival schedule and
   the request mix.  The program under test only ever sees the generated
   C text (in-process) or request lines (over the serve socket).

   Correctness is checked on every run, outside the timed regions:
   [Driver.check_all] must accept, a seeded sample of functions is
   differential-tested against the Simpl semantics ([Refine_test]), and
   every timed output (jobs=2, warm store, serve responses) must be
   byte-identical to a store-less jobs=1 reference built during set-up.
   Each failure counts as a failed operation.

   Tracing ([--trace]) alternates traced and untraced operations within
   the run: the untraced ones give the end-to-end figures, the traced ones
   the per-layer metrics, and their ratio the tracing overhead.  Spans are
   recorded in memory with [Ac_obs.Obs]: the benchmark's own spans
   (category "bench") around every public call it makes —
   [Typecheck.parse_and_check], [C2simpl.tr_program], [Driver.run],
   [Driver.check_all] — and the per-phase spans [Driver.run] already
   records around each layer's entry point ([L1/L2/Hl/Wa.convert_func],
   [Summary.compute], [discharge_func], [Store.load/save],
   [Trace.replay], pool tasks).  serve_mix reads the same phase spans
   from the server's own trace file, its slow-request log and its status
   verb.  The spans are written to [--spans] at the end and reduced to
   per-layer metrics here; a layer that does no work in a workload (the
   store in unit_cold, the pool at jobs=1, the server outside serve_mix)
   shows no spans there and reads 0.

   Output: human-readable lines on stderr and, as the last line of
   stdout, one JSON object (see [print_result]). *)

module D = Autocorres.Driver
module Diag = Autocorres.Diag
module Profile = Autocorres.Profile
module Refine_test = Autocorres.Refine_test
module Obs = Ac_obs.Obs
module Store = Ac_store.Store
module Thm = Ac_kernel.Thm
module Gen = Ac_codegen

let now = Obs.mono_s

(* Taken before any workload code runs; see [calib]. *)
let startup_gc = Gc.get ()

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let traced = ref false
let spans_file = ref ""
let acc = ref "_build/default/bin/acc.exe"
let work = ref ".perfbench/work"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of measurement");
      ("--trace", Arg.Set traced, " alternate traced operations and report per-layer metrics");
      ("--spans", Arg.Set_string spans_file, "FILE write the recorded spans here");
      ("--acc", Arg.Set_string acc, "PATH acc executable (serve_mix)");
      ("--work", Arg.Set_string work, "DIR directory for generated inputs and stores");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S [--trace]"

(* serve_mix: the open-loop rate the latency figures are taken at, the
   ladder serve_max_rps climbs, and the p99 limit it must meet. *)
let nominal_rate = 60.
let rate_ladder = [ 50.; 100.; 150.; 200.; 250. ]
let p99_limit_ms = 100.

(* Timed operations per run, at least: with n samples the tail reported is
   the n-10'th, so fewer would leave no tail above the median. *)
let min_ops = 22

(* serve_mix blocks per run, at least, for its bounded medians. *)
let min_blocks = 7

(* ------------------------------------------------------------------ *)
(* Utilities *)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let sum = List.fold_left ( +. ) 0.

(* Linear interpolation between order statistics; 0 for no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* The highest percentile with at least ten samples beyond it: p99 from
   1000 samples on. *)
let tail_q n = if n >= 1000 then 0.99 else Float.max 0.5 (1. -. (10. /. float n))
let tail xs = quantile (tail_q (List.length xs)) xs

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc l ->
        match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
        | Some kb -> float kb /. 1024.
        | None -> acc)
      0. (String.split_on_char '\n' s)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let dir_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | fs ->
    Array.fold_left
      (fun a f ->
        match Unix.stat (Filename.concat dir f) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> a + st_size
        | _ | (exception Unix.Unix_error _) -> a)
      0 fs

(* ------------------------------------------------------------------ *)
(* Operations, failures and metrics *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !errors < 20 then errors := what :: !errors;
    Printf.eprintf "perfbench: FAILED: %s\n%!" what
  end

(* (name, unit, value), newest first. *)
let e2e = ref []
let named = ref []
let layers = ref []
let put tbl name unit v = tbl := (name, unit, v) :: !tbl

(* Raw per-operation seconds behind the medians, newest first. *)
let samples : (string * float list) list ref = ref []

let bspan name f = Obs.span ~cat:"bench" name f

(* Successful kernel mints, counted by the kernel's write-only
   observation hook (installed around traced operations only). *)
let rule_apps = Atomic.make 0

(* Host speed.  Shared virtual CPUs drift in speed by large factors over
   tens of seconds, so raw run-to-run spread would swamp the regressions
   the benchmark must resolve.  Every timed operation is bracketed by a
   fixed calibration kernel (the benchmark's own code, allocating, hashing
   and sorting like the pipeline), and end-to-end timings are reported at
   a reference speed: the measured time scaled by [calib_ref_s] over the
   mean calibration time around it.  The kernel runs under the GC
   settings the process started with, so a change the program makes to
   them moves the program's figures and not the kernel's.  Raw wall-clock
   figures are reported beside them. *)
let calib_ref_s = 0.03

let calib_kernel ?(n = 50000) () =
  let h = Hashtbl.create 4096 in
  let l = List.init n (fun i -> ((i * 7919) land 0xffff, string_of_int i)) in
  let m = List.fold_left (fun m (k, v) -> Hashtbl.replace h k v; k :: m) [] l in
  ignore (Sys.opaque_identity (List.length (List.sort compare m)))

(* One kernel run per domain, [jobs] domains at once: at jobs=2 the
   figure follows both CPUs, as the pool does. *)
let calib_once ~jobs =
  let go = Atomic.make false in
  let helpers =
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do Domain.cpu_relax () done;
            calib_kernel ()))
  in
  let t0 = now () in
  Atomic.set go true;
  calib_kernel ();
  List.iter Domain.join helpers;
  now () -. t0

(* Median of three kernel runs. *)
let calib ~jobs =
  let current = Gc.get () in
  Gc.set startup_gc;
  Fun.protect ~finally:(fun () -> Gc.set current) @@ fun () ->
  median (List.init 3 (fun _ -> calib_once ~jobs))

(* [timed ~jobs f] is [(f (), wall seconds, speed)]: [f] and the
   calibration before it start on a collected heap, so no operation pays
   for the garbage of the one before it, and [wall *. speed] is its time
   at the reference speed measured just before it. *)
let timed ?(jobs = 1) f =
  Gc.full_major ();
  let c = calib ~jobs in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, calib_ref_s /. c)

(* Set-up is repeated three times and its median reported, so work moved
   into set-up shows without one slow start deciding the figure. *)
let setup_reps = 3

let measure_setup f =
  let times =
    List.init setup_reps (fun k ->
        let (), wall, speed = timed (fun () -> f k) in
        (wall, wall *. speed))
  in
  put named "setup_wall_s" "s" (median (List.map fst times));
  put e2e "setup_s" "s" (median (List.map snd times))

(* Run [f] until [seconds] have passed and at least [min_ops] times. *)
let timed_loop ~seconds f =
  (* Peak RSS covers the timed operations: the heap is compacted, giving
     back what set-up and populating left resident, and writing 5 to
     clear_refs resets the kernel's high-water mark. *)
  Gc.compact ();
  (try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
   with Sys_error _ -> ());
  let t_end = now () +. seconds in
  let i = ref 0 in
  while !i < min_ops || now () < t_end do
    f !i;
    incr i
  done

(* In a traced run every second operation is traced. *)
let traced_op i = !traced && i mod 2 = 1

let start_tracing () =
  Thm.set_obs_hook (Some (fun _ _ -> Atomic.incr rule_apps));
  Obs.set_enabled true

let stop_tracing () =
  Obs.set_enabled false;
  Thm.set_obs_hook None

let with_tracing on f =
  if on then start_tracing ();
  Fun.protect ~finally:(fun () -> if on then stop_tracing ()) f

(* Latency figures of one set of operations (seconds at the reference
   speed); in a traced run, of its untraced half. *)
let put_latency ~name op_s =
  let n = List.length op_s in
  put e2e "latency_p50_ms" "ms" (1000. *. median op_s);
  put e2e "latency_tail_ms" "ms" (1000. *. tail op_s);
  put named (name ^ "_count") "count" (float n);
  put named "latency_tail_quantile" "ratio" (tail_q n)

(* ------------------------------------------------------------------ *)
(* Inputs *)

let shifted (p : Gen.profile) = { p with Gen.seed = p.Gen.seed + (1000 * !seed) }
let unit_source () = Gen.generate (shifted Gen.sel4_like)
let options ~jobs = { D.default_options with D.jobs; keep_going = true }

(* A canonical rendering of everything a run delivers: per-function level,
   chain presence and final body, degraded functions, diagnostics. *)
let digest (res : D.result) =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun fr ->
      Printf.bprintf b "%s %s %b\n%s" fr.D.fr_name
        (D.level_name (D.level_of fr))
        (fr.D.fr_chain <> None)
        (Ac_monad.Mprint.func_to_string fr.D.fr_final))
    res.D.funcs;
  List.iter (fun d -> Printf.bprintf b "degraded %s\n" d.D.dg_name) res.D.degraded;
  (* Store diagnostics report cache behaviour (stale entries), like the
     store counters; everything else must match. *)
  Buffer.add_string b
    (Diag.list_to_json (List.filter (fun d -> d.Diag.d_phase <> Diag.Store) res.D.diags));
  Digest.string (Buffer.contents b)

let n_funcs (res : D.result) = List.length res.D.funcs + List.length res.D.degraded

(* The correctness gate on one reference result. *)
let gate ~what (res : D.result) =
  op (res.D.degraded = []) (what ^ ": functions degraded");
  op (Result.is_ok (D.check_all res)) (what ^ ": Driver.check_all rejected");
  let rand = Random.State.make [| !seed; 0x5eed |] in
  let names = Array.of_list (List.map (fun fr -> fr.D.fr_name) res.D.funcs) in
  for _ = 1 to 6 do
    let f = names.(Random.State.int rand (Array.length names)) in
    let r = Refine_test.check_function ~cases:20 ~seed:!seed res f in
    op (r.Refine_test.violations = []) (Printf.sprintf "%s: %s refines incorrectly" what f)
  done

(* Guards the parser emitted, guards left after L2's discharge, and guards
   in the final output. *)
let guard_counts (res : D.result) =
  let count f = List.fold_left (fun a fr -> a + f fr) 0 res.D.funcs in
  ( count (fun fr -> Ac_stats.ir_guard_count fr.D.fr_simpl.Ac_simpl.Ir.body),
    count (fun fr -> Ac_analysis.guard_count fr.D.fr_l2.Ac_monad.M.body),
    count (fun fr -> Ac_analysis.guard_count fr.D.fr_final.Ac_monad.M.body) )

(* Guard counts (deterministic per seed) and the kernel's uncached
   re-check, summed over reference results. *)
let reference_layers (results : D.result list) =
  let g_in, g_l2, g_final =
    List.fold_left
      (fun (a, b, c) r -> let x, y, z = guard_counts r in (a + x, b + y, c + z))
      (0, 0, 0) results
  in
  put named "residual_guards" "count" (float g_final);
  if !traced then begin
    put layers "analysis.guards_in" "count" (float g_in);
    put layers "analysis.guards_discharged" "count" (float (g_in - g_l2));
    put layers "analysis.residual_guards" "count" (float g_final);
    let t0 = now () in
    List.iter
      (fun r -> op (Result.is_ok (D.check_all ~cached:false r)) "uncached Driver.check_all rejected")
      results;
    put layers "kernel.check_uncached_s" "s" (now () -. t0)
  end

(* ------------------------------------------------------------------ *)
(* Span reduction (traced runs) *)

type iv = { nm : string; cat : string; t0 : float; t1 : float }

let intervals (evs : Obs.ev list) : iv list =
  let stacks = Hashtbl.create 8 in
  List.fold_left
    (fun acc (e : Obs.ev) ->
      match e.Obs.ev_ph with
      | Obs.B ->
        let st = Option.value (Hashtbl.find_opt stacks e.Obs.ev_tid) ~default:[] in
        Hashtbl.replace stacks e.Obs.ev_tid (e :: st);
        acc
      | Obs.E -> (
        match Hashtbl.find_opt stacks e.Obs.ev_tid with
        | Some (b :: rest) ->
          Hashtbl.replace stacks e.Obs.ev_tid rest;
          { nm = b.Obs.ev_name; cat = b.Obs.ev_cat; t0 = b.Obs.ev_ts; t1 = e.Obs.ev_ts } :: acc
        | _ -> acc)
      | Obs.X ->
        { nm = e.Obs.ev_name; cat = e.Obs.ev_cat; t0 = e.Obs.ev_ts;
          t1 = e.Obs.ev_ts +. e.Obs.ev_dur }
        :: acc
      | Obs.I -> acc)
    [] evs

(* The events of a JSONL trace written by [acc --trace-format jsonl]. *)
let read_jsonl_trace path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun l ->
         Scanf.sscanf_opt l "{\"name\":\"%s@\",\"cat\":\"%s@\",\"ph\":\"%s@\",\"pid\":%_d,\"tid\":%d,\"ts\":%f%s@\n"
           (fun name cat ph tid ts rest -> (name, cat, ph, tid, ts, rest)))
  |> List.mapi (fun i (name, cat, ph, tid, ts, rest) ->
         let ev_dur = Option.value (Scanf.sscanf_opt rest ",\"dur\":%f" Fun.id) ~default:0. in
         let ev_ph = match ph with "B" -> Obs.B | "E" -> Obs.E | "X" -> Obs.X | _ -> Obs.I in
         { Obs.ev_name = name; ev_cat = cat; ev_ph; ev_ts = ts /. 1e6; ev_dur = ev_dur /. 1e6;
           ev_tid = tid; ev_seq = i; ev_args = [] })

let dur i = i.t1 -. i.t0

(* Length of the union of intervals. *)
let covered ivs =
  let sorted = List.sort (fun a b -> compare a.t0 b.t0) ivs in
  let total, last =
    List.fold_left
      (fun (total, cur) i ->
        match cur with
        | None -> (total, Some (i.t0, i.t1))
        | Some (a, b) when i.t0 <= b -> (total, Some (a, Float.max b i.t1))
        | Some (a, b) -> (total +. (b -. a), Some (i.t0, i.t1)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* The driver's layer phases (Profile.record names). *)
let driver_phases =
  [ "parse"; "store_keys"; "store_load"; "l1"; "l2"; "summary"; "iprof"; "guard_discharge";
    "heap_abs"; "word_abs"; "chain"; "store_replay"; "store_save" ]

(* Per outer span named [outer]: its duration, the driver phase spans and
   the pool tasks inside it. *)
let breakdown ivs outer =
  let inner = List.filter (fun i -> (i.cat = "driver" && List.mem i.nm driver_phases) || i.nm = "pool.task") ivs in
  List.filter_map
    (fun o ->
      if o.nm <> outer then None
      else Some (o, List.filter (fun p -> p.t0 >= o.t0 && p.t1 <= o.t1) inner))
    ivs

let phase_s name inside = sum (List.map dur (List.filter (fun p -> p.nm = name) inside))
let phase_n name inside = float (List.length (List.filter (fun p -> p.nm = name) inside))
let med_of rows f = median (List.map f rows)
let outside ivs name = median (List.map dur (List.filter (fun i -> i.nm = name) ivs))

(* Per-layer metrics of the spans around each Driver.run ([outer]) and
   each kernel check ([check]): medians per run.  Layer times exclude the
   pool tasks' own bookkeeping; [pool.efficiency] is the work the pool ran
   over the time both CPUs were available for it. *)
let span_layers ~outer ~check ivs =
  let rows = breakdown ivs outer in
  let t name phase = put layers name "s" (med_of rows (fun (_, ins) -> phase_s phase ins)) in
  let n name phase = put layers name "count" (med_of rows (fun (_, ins) -> phase_n phase ins)) in
  t "l1.convert_s" "l1";
  n "l1.calls" "l1";
  t "l2.convert_s" "l2";
  n "l2.calls" "l2";
  put layers "l2.useful_ratio" "ratio"
    (med_of rows (fun (_, ins) ->
         let c = phase_n "l2" ins in
         if c = 0. then 0. else phase_n "l1" ins /. c));
  t "analysis.summary_s" "summary";
  t "analysis.discharge_s" "guard_discharge";
  t "hl.convert_s" "heap_abs";
  t "wa.convert_s" "word_abs";
  t "store.load_s" "store_load";
  n "store.load_calls" "store_load";
  t "store.replay_s" "store_replay";
  n "store.replay_calls" "store_replay";
  put layers "driver.run_s" "s" (med_of rows (fun (o, _) -> dur o));
  put layers "driver.unattributed_s" "s"
    (med_of rows (fun (o, ins) -> dur o -. covered (List.filter (fun p -> p.nm <> "pool.task") ins)));
  t "pool.work_s" "pool.task";
  let cpus = float (Domain.recommended_domain_count ()) in
  put layers "pool.efficiency" "ratio"
    (med_of rows (fun (o, ins) -> phase_s "pool.task" ins /. (cpus *. dur o)));
  put layers "kernel.check_s" "s" (outside ivs check);
  put layers "cfront.parse_s" "s" (outside ivs "bench.cfront.parse_and_check");
  put layers "simpl.emit_s" "s" (outside ivs "bench.simpl.tr_program")

(* Front-end probes, called from outside the pipeline in traced runs. *)
let frontend_probe src =
  let tprog = bspan "bench.cfront.parse_and_check" (fun () -> Ac_cfront.Typecheck.parse_and_check src) in
  ignore (bspan "bench.simpl.tr_program" (fun () -> Ac_simpl.C2simpl.tr_program tprog))

(* The in-process spans, written to [--spans]. *)
let harvest_spans () =
  let evs = Obs.repair (Obs.harvest ()) in
  if !spans_file <> "" then write_file !spans_file (Obs.to_chrome evs);
  intervals evs

(* Per-run allocation (every domain's Profile table), collections and
   kernel rule applications. *)
type gc_sample = { alloc_mb : float; majors : float; rules : float }

let gc_mark () = ((Gc.quick_stat ()).Gc.major_collections, Atomic.get rule_apps)

let gc_since (majors0, rules0) =
  let alloc = sum (List.map (fun e -> e.Profile.alloc_bytes) (Profile.snapshot ())) in
  { alloc_mb = alloc /. 1048576.;
    majors = float ((Gc.quick_stat ()).Gc.major_collections - majors0);
    rules = float (Atomic.get rule_apps - rules0) }

let gc_layers samples =
  put layers "gc.alloc_mb" "MiB" (median (List.map (fun s -> s.alloc_mb) samples));
  put layers "gc.major_collections" "count" (median (List.map (fun s -> s.majors) samples));
  put layers "gc.top_heap_mb" "MiB"
    (float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  put layers "kernel.rule_apps" "count" (median (List.map (fun s -> s.rules) samples))

(* Store figures: lookups hit over all lookups, the per-run misses (the
   re-translated cone), bytes on disk and save time per populating run. *)
let store_layers ~hits ~misses ~cone ~bytes ~save_s =
  put layers "store.hit_ratio" "ratio" (if hits + misses = 0 then 0. else float hits /. float (hits + misses));
  put layers "store.cone_misses" "count" (median cone);
  put layers "store.bytes" "bytes" (float bytes);
  put layers "store.save_s" "s" save_s

(* Serve figures from the slow-request log records (exec, queue, misses)
   of the traced requests, those requests as sent, and the status verb. *)
type req = {
  due : float;  (** absolute, on [now]'s clock *)
  line : string;
  conn : int;
  mutable sent : float;
  mutable recv : float;
  mutable resp : string;
}

let serve_layers ~records ~reqs ~shed ~hits ~misses =
  let q = List.map (fun (_, q, _) -> q) records and x = List.map (fun (e, _, _) -> e) records in
  put layers "serve.queue_ms_p50" "ms" (median q);
  put layers "serve.queue_ms_p99" "ms" (quantile 0.99 q);
  put layers "serve.exec_ms_p50" "ms" (median x);
  put layers "serve.exec_ms_p99" "ms" (quantile 0.99 x);
  (* Executions are serialized in arrival order: pair the requests with
     their records in send order. *)
  let sent = List.sort (fun a b -> compare a.sent b.sent) reqs in
  let transport =
    List.map2 (fun r (e, q, _) -> (1000. *. (r.recv -. r.sent)) -. e -. q)
      (List.filteri (fun i _ -> i < List.length records) sent)
      (List.filteri (fun i _ -> i < List.length sent) records)
  in
  put layers "serve.transport_ms_p50" "ms" (median transport);
  put layers "serve.shed" "count" (float shed);
  put layers "serve.store_hit_ratio" "ratio"
    (if hits + misses = 0 then 0. else float hits /. float (hits + misses));
  put layers "gen.late_ms_p99" "ms" (quantile 0.99 (List.map (fun r -> 1000. *. (r.sent -. r.due)) reqs))

(* Traced over untraced median operation time, minus one. *)
let put_overhead ~traced_s ~untraced_s =
  put layers "trace.overhead" "ratio" (median traced_s /. median untraced_s -. 1.)

(* ------------------------------------------------------------------ *)
(* unit_cold / unit_par: Driver.run then Driver.check_all on the
   sel4-like unit, fresh tables each iteration, no store. *)

let reference_setup unit_source =
  let src = ref "" and reference = ref "" and first = ref None in
  measure_setup (fun k ->
      let s = unit_source () in
      let res = D.run ~options:(options ~jobs:1) s in
      let dg = digest res in
      if k = 0 then begin
        src := s;
        reference := dg;
        first := Some res
      end
      else op (dg = !reference) "set-up: reference translation is not deterministic");
  let res0 = Option.get !first in
  first := None;
  gate ~what:"reference" res0;
  reference_layers [ res0 ];
  (* Only the count is kept, so the timed operations start on a heap
     without the reference result. *)
  (!src, !reference, n_funcs res0)

let unit_batch ~jobs =
  let src, reference, nf = reference_setup unit_source in
  let run_s = ref [] and check_s = ref [] and op_s = ref [] and run_wall = ref [] in
  let traced_s = ref [] and gcs = ref [] in
  let retries = ref 0 and restarts = ref 0 and hits = ref 0 and misses = ref 0 in
  timed_loop ~seconds:!seconds (fun i ->
      let tr = traced_op i in
      let (res, ok, t_run, g), wall, speed =
        with_tracing tr @@ fun () ->
        timed ~jobs (fun () ->
            let mark = gc_mark () in
            let t0 = now () in
            let res = bspan "bench.driver.run" (fun () -> D.run ~options:(options ~jobs) src) in
            let t_run = now () -. t0 in
            let ok = bspan "bench.driver.check_all" (fun () -> D.check_all res) in
            (res, ok, t_run, gc_since mark))
      in
      if tr then begin
        traced_s := (wall *. speed) :: !traced_s;
        gcs := g :: !gcs;
        with_tracing true (fun () -> frontend_probe src)
      end
      else begin
        run_s := (t_run *. speed) :: !run_s;
        check_s := ((wall -. t_run) *. speed) :: !check_s;
        op_s := (wall *. speed) :: !op_s;
        run_wall := t_run :: !run_wall
      end;
      retries := !retries + res.D.retries;
      restarts := !restarts + res.D.restarts;
      hits := !hits + res.D.store_hits;
      misses := !misses + res.D.store_misses;
      op (Result.is_ok ok) "Driver.check_all rejected";
      op (digest res = reference) (Printf.sprintf "jobs=%d output differs from the jobs=1 reference" jobs));
  put e2e "throughput_per_s" "1/s" (float nf /. median !run_s);
  put_latency ~name:"operations" !op_s;
  put named "translate_funcs_per_s" "1/s" (float nf /. median !run_s);
  put named "check_funcs_per_s" "1/s" (float nf /. median !check_s);
  put named "functions" "count" (float nf);
  put named "translate_wall_s" "s" (median !run_wall);
  samples := [ ("run_wall_s", !run_wall); ("check_s", !check_s); ("run_s", !run_s) ];
  if !traced then begin
    span_layers ~outer:"bench.driver.run" ~check:"bench.driver.check_all" (harvest_spans ());
    gc_layers !gcs;
    put layers "pool.retries" "count" (float !retries);
    put layers "pool.restarts" "count" (float !restarts);
    store_layers ~hits:!hits ~misses:!misses ~cone:[] ~bytes:0 ~save_s:0.;
    serve_layers ~records:[] ~reqs:[] ~shed:0 ~hits:0 ~misses:0;
    put_overhead ~traced_s:!traced_s ~untraced_s:!op_s
  end

(* ------------------------------------------------------------------ *)
(* unit_edit: a populated proof store, then one-function edits re-translated
   warm against it. *)

(* Edit sites: generated functions that no other function calls, that
   call none, and that write no global and take no struct pointer, so an
   edit changes no other function's summary or translation and the
   re-translated cone is that function alone.  (A constant in a caller
   refines its callees' call-site contexts and makes their stored
   replays fail.)  A generated definition starts a line; calls and global
   writes sit inside bodies. *)
let edit_candidates src =
  let lines = String.split_on_char '\n' src in
  let is_def l = String.starts_with ~prefix:"unsigned fn_" l || String.starts_with ~prefix:"void fn_" l in
  let name_at l a = String.sub l a (String.index_from l a '(' - a) in
  let called = Hashtbl.create 256 and excluded = Hashtbl.create 256 in
  let defs = ref [] and current = ref "" in
  List.iter
    (fun l ->
      if is_def l then begin
        current := name_at l (String.index l ' ' + 1);
        defs := !current :: !defs;
        if find_sub l "*obj" <> None then Hashtbl.replace excluded !current ()
      end
      else begin
        (match find_sub l "fn_" with
        | Some a ->
          Hashtbl.replace called (name_at l a) ();
          Hashtbl.replace excluded !current ()
        | None -> ());
        if String.starts_with ~prefix:"  g" l then Hashtbl.replace excluded !current ()
      end)
    lines;
  List.filter (fun f -> not (Hashtbl.mem called f || Hashtbl.mem excluded f)) (List.rev !defs)

(* Change the first integer constant among [fname]'s statements (after
   its fixed three-line prologue) to another value in 1..31: unsigned
   arithmetic, so the edit stays inside the subset.  [None] when the
   statements hold no constant. *)
let edit_function src fname =
  let is_ident c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let is_digit c = c >= '0' && c <= '9' in
  let def = Option.get (find_sub src (fname ^ "(unsigned a")) in
  let body_end = Option.get (find_sub (String.sub src def (String.length src - def)) "\n}\n") + def in
  let stmts = Option.get (find_sub (String.sub src def (body_end - def)) "0u;\n") + def + 4 in
  let rec lit i =
    if i >= body_end then None
    else if is_digit src.[i] && not (is_ident src.[i - 1]) then Some i
    else lit (i + 1)
  in
  Option.map
    (fun a ->
      let b = ref a in
      while is_digit src.[!b] do incr b done;
      let v = int_of_string (String.sub src a (!b - a)) in
      String.sub src 0 a ^ string_of_int (((v + 1) mod 31) + 1)
      ^ String.sub src !b (String.length src - !b))
    (lit stmts)

let store_entries dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".acc")

let unit_edit () =
  mkdir_p !work;
  (* The unit is the unshifted sel4-like one and the seed picks only the
     edit sites: the warm path's peak heap jumps by a third between
     generated units of this size, so with the unit varying by seed the
     peak RSS would follow the seed rather than the program. *)
  let base, base_ref, nf = reference_setup (fun () -> Gen.generate Gen.sel4_like) in
  (* Three seeded edit sites, each with its store-less reference. *)
  let rand = Random.State.make [| !seed; 0xed17 |] in
  let candidates =
    List.filter_map (fun f -> Option.map (fun s -> (f, s)) (edit_function base f)) (edit_candidates base)
    |> Array.of_list
  in
  let variants =
    Array.init 3 (fun _ ->
        let f, s = candidates.(Random.State.int rand (Array.length candidates)) in
        (f, s, digest (D.run ~options:(options ~jobs:1) s)))
  in
  let opts = options ~jobs:1 in
  let open_store dir =
    match Store.open_ ~dir () with Ok st -> st | Error m -> failwith m
  in
  (* Populate: a cold translate that saves every entry (the write path),
     each time into a new directory; the edits run against the last.  Its
     time rests on file-system metadata operations as much as on the
     program, so it is reported beside the end-to-end metrics. *)
  let populate_reps = 2 in
  let store_of i = Filename.concat !work (Printf.sprintf "store_edit.%d" i) in
  let store_dir = store_of (populate_reps - 1) in
  let populate_s = ref [] and populate_wall = ref [] and t_populate = now () in
  for i = 0 to populate_reps - 1 do
    rm_rf (store_of i);
    mkdir_p (store_of i);
    let st = open_store (store_of i) in
    let tr = traced_op i in
    let res, wall, speed =
      with_tracing tr @@ fun () ->
      timed (fun () -> bspan "bench.store.populate" (fun () -> D.run ~options:opts ~store:st base))
    in
    if not tr then begin
      populate_s := (wall *. speed) :: !populate_s;
      populate_wall := wall :: !populate_wall
    end;
    op (digest res = base_ref) "populated run differs from the store-less reference"
  done;
  for i = 0 to populate_reps - 2 do rm_rf (store_of i) done;
  let store_bytes = dir_bytes store_dir in
  let populated = Hashtbl.create 1024 in
  List.iter
    (fun f -> Hashtbl.replace populated f (read_file (Filename.concat store_dir f)))
    (store_entries store_dir);
  let st = open_store store_dir in
  let edit_s = ref [] and edit_wall = ref [] and traced_s = ref [] in
  let cone = ref [] and gcs = ref [] in
  let hits = ref 0 and misses = ref 0 and retries = ref 0 and restarts = ref 0 in
  let checked = Hashtbl.create 3 in
  timed_loop ~seconds:(Float.max 1. (!seconds -. (now () -. t_populate))) (fun i ->
      let fname, src, reference = variants.(i mod Array.length variants) in
      let tr = traced_op i in
      let (res, g), wall, speed =
        with_tracing tr @@ fun () ->
        timed (fun () ->
            let mark = gc_mark () in
            let res = bspan "bench.driver.run" (fun () -> D.run ~options:opts ~store:st src) in
            (res, gc_since mark))
      in
      if tr then begin
        traced_s := (wall *. speed) :: !traced_s;
        gcs := g :: !gcs;
        cone := float res.D.store_misses :: !cone;
        hits := !hits + res.D.store_hits;
        misses := !misses + res.D.store_misses;
        with_tracing true (fun () -> frontend_probe src)
      end
      else begin
        edit_s := (wall *. speed) :: !edit_s;
        edit_wall := wall :: !edit_wall
      end;
      retries := !retries + res.D.retries;
      restarts := !restarts + res.D.restarts;
      op (digest res = reference) (Printf.sprintf "warm run after editing %s differs from its reference" fname);
      if not (Hashtbl.mem checked fname) || tr then begin
        Hashtbl.replace checked fname ();
        op (Result.is_ok (with_tracing tr (fun () -> bspan "bench.driver.check_all" (fun () -> D.check_all res))))
          "Driver.check_all rejected a warm result"
      end;
      (* Back to the populated store, so every cycle is one fresh edit:
         new entries go, and entries the run set aside come back. *)
      List.iter
        (fun f -> if not (Hashtbl.mem populated f) then Sys.remove (Filename.concat store_dir f))
        (store_entries store_dir);
      Hashtbl.iter
        (fun f data ->
          let p = Filename.concat store_dir f in
          if not (Sys.file_exists p) then write_file p data)
        populated);
  put e2e "throughput_per_s" "1/s" (float nf /. median !edit_s);
  put_latency ~name:"edits" !edit_s;
  put named "populate_s" "s" (median !populate_s);
  put named "edit_s" "s" (median !edit_s);
  put named "functions" "count" (float nf);
  put named "populate_wall_s" "s" (median !populate_wall);
  put named "edit_wall_s" "s" (median !edit_wall);
  samples := [ ("edit_wall_s", !edit_wall); ("edit_s", !edit_s); ("populate_s", !populate_s) ];
  if !traced then begin
    let ivs = harvest_spans () in
    span_layers ~outer:"bench.driver.run" ~check:"bench.driver.check_all" ivs;
    gc_layers !gcs;
    put layers "pool.retries" "count" (float !retries);
    put layers "pool.restarts" "count" (float !restarts);
    let pop = breakdown ivs "bench.store.populate" in
    store_layers ~hits:!hits ~misses:!misses ~cone:!cone ~bytes:store_bytes
      ~save_s:(med_of pop (fun (_, ins) -> phase_s "store_save" ins));
    serve_layers ~records:[] ~reqs:[] ~shed:0 ~hits:0 ~misses:0;
    put_overhead ~traced_s:!traced_s ~untraced_s:!edit_s
  end;
  rm_rf store_dir

(* ------------------------------------------------------------------ *)
(* serve_mix: acc serve over its socket, open-loop Poisson arrivals from
   this process over two connections. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; pending : req Queue.t }

let chunk = Bytes.create 65536

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Read what is available on [c]; complete response lines answer the
   oldest pending requests (a connection answers in request order). *)
let read_conn c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "serve closed the connection";
  let t = now () in
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  let rec lines start answered =
    match String.index_from_opt s start '\n' with
    | None ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s start (String.length s - start));
      answered
    | Some j ->
      let r = Queue.pop c.pending in
      r.resp <- String.sub s start (j - start);
      r.recv <- t;
      lines (j + 1) (answered + 1)
  in
  lines 0 0

(* Send each request when due, regardless of replies (open loop); wait
   at most [drain_s] after the last due time for the stragglers.  Between
   sends the loop sleeps until the next request is due or a reply comes,
   so it takes no time from the server on the CPU they share. *)
let drive conns (reqs : req array) ~drain_s =
  let n = Array.length reqs in
  let next = ref 0 and answered = ref 0 in
  let deadline = (if n = 0 then now () else reqs.(n - 1).due) +. drain_s in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while !answered < n && now () < deadline do
    while !next < n && reqs.(!next).due <= now () do
      let r = reqs.(!next) in
      let c = conns.(r.conn) in
      write_all c.fd (r.line ^ "\n") 0;
      r.sent <- now ();
      Queue.push r c.pending;
      incr next
    done;
    let until = if !next < n then reqs.(!next).due else deadline in
    let wait = Float.min 0.05 (Float.max 0. (until -. now ())) in
    match Unix.select fds [] [] wait with
    | ready, _, _ ->
      List.iter
        (fun fd ->
          Array.iter (fun c -> if c.fd = fd then answered := !answered + read_conn c) conns)
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let mk_req ~due ~conn line = { due; line; conn; sent = 0.; recv = 0.; resp = "" }

(* Responses carry per-request store counters; everything else must match
   the store-less reference byte for byte. *)
let strip_store s =
  match find_sub s "\"store\":{" with
  | None -> s
  | Some i ->
    let j = String.index_from s i '}' in
    String.sub s 0 i ^ String.sub s (j + 1) (String.length s - j - 1)

let serve_mix () =
  (* A server that dies mid-write fails the run instead of killing it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p !work;
  let heavy_files =
    List.map
      (fun (p : Gen.profile) ->
        let path = Filename.concat !work (p.Gen.p_name ^ ".c") in
        (* Unshifted profiles: the heavy units' size sets the tail, so it
           must not move with the seed. *)
        write_file path (Gen.generate p);
        path)
      [ Gen.echronos_like; Gen.piccolo_like ]
  in
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (Filename.concat "corpus")
  in
  let verbs = [ "translate"; "check"; "lint" ] in
  let lines_of files = Array.of_list (List.concat_map (fun f -> List.map (fun v -> v ^ " " ^ f) verbs) files) in
  let light = lines_of corpus and heavy = lines_of heavy_files in
  let all_lines = Array.append light heavy in
  (* Store-less jobs=1 references, one per distinct request line. *)
  let reference = Hashtbl.create 64 in
  let ref_in = Filename.concat !work "ref.in" and ref_out = Filename.concat !work "ref.out" in
  write_file ref_in (String.concat "\n" (Array.to_list all_lines) ^ "\n");
  let fd_in = Unix.openfile ref_in [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile ref_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process !acc [| !acc; "serve"; "--no-store" |] fd_in fd_out Unix.stderr in
  Unix.close fd_in;
  Unix.close fd_out;
  ignore (Unix.waitpid [] pid);
  let outs = Array.of_list (String.split_on_char '\n' (read_file ref_out)) in
  Array.iteri (fun i l -> Hashtbl.replace reference l (strip_store outs.(i))) all_lines;
  let sock = Filename.concat !work "acc.sock" in
  let store_dir = Filename.concat !work "store_serve" in
  let slow_log = Filename.concat !work "slow.jsonl" in
  let server_trace = Filename.concat !work "serve-trace.jsonl" in
  let log_file = Filename.concat !work "serve.log" in
  let server = ref None in
  let stop () =
    match !server with
    | None -> ()
    | Some (pid, conns) ->
      Array.iter (fun c -> Unix.close c.fd) conns;
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid);
      server := None
  in
  (* A server on a fresh store; [tr]: with its own trace and a record
     of every request in the slow-request log. *)
  let start ~tr =
    rm_rf store_dir;
    rm_rf slow_log;
    rm_rf server_trace;
    let args =
      [ !acc; "serve"; "--socket"; sock; "--store"; store_dir; "--max-inflight"; "100000" ]
      @
      if tr then
        [ "--slow-ms"; "0"; "--slow-log"; slow_log; "--trace"; server_trace; "--trace-format"; "jsonl" ]
      else []
    in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let lfd = Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let pid = Unix.create_process !acc (Array.of_list args) null lfd lfd in
    Unix.close null;
    Unix.close lfd;
    let deadline = now () +. 60. in
    let rec connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> { fd; buf = Buffer.create 4096; pending = Queue.create () }
      | exception Unix.Unix_error _ ->
        Unix.close fd;
        if now () > deadline then failwith "acc serve did not open its socket";
        Unix.sleepf 0.005;
        connect ()
    in
    let conns = [| connect (); connect () |] in
    server := Some (pid, conns);
    conns
  in
  Fun.protect ~finally:stop @@ fun () ->
  (* Set-up: start the server on a fresh store and prewarm it with every
     distinct request once. *)
  let prewarm conns =
    let t = now () in
    let reqs = Array.mapi (fun i l -> mk_req ~due:t ~conn:(i mod 2) l) all_lines in
    drive conns reqs ~drain_s:120.;
    Array.iter
      (fun r -> op (strip_store r.resp = Hashtbl.find reference r.line) ("prewarm: " ^ r.line))
      reqs
  in
  measure_setup (fun k ->
      if k > 0 then stop ();
      prewarm (start ~tr:false));
  let rand = Random.State.make [| !seed; 0x5e7e |] in
  (* Every 20th arrival is heavy, and each pool's lines are drawn in
     seeded rounds that use every line once: the mix is fixed, only its
     order and timing are random, so the latency percentiles do not move
     with which lines a seed happens to draw more often, nor with two
     heavy requests landing back to back. *)
  let dealer pool =
    let deck = ref [] in
    fun () ->
      if !deck = [] then begin
        let keyed = Array.map (fun l -> (Random.State.bits rand, l)) pool in
        Array.sort compare keyed;
        deck := Array.to_list (Array.map snd keyed)
      end;
      let l = List.hd !deck in
      deck := List.tl !deck;
      l
  in
  let next_light = dealer light and next_heavy = dealer heavy in
  let schedule ~rate ~duration =
    let t0 = now () +. 0.01 in
    let rec go t i acc =
      let t = t +. (-.log (1. -. Random.State.float rand 1.) /. rate) in
      if t > duration then Array.of_list (List.rev acc)
      else begin
        let line = if i mod 20 = 19 then next_heavy () else next_light () in
        go t (i + 1) (mk_req ~due:(t0 +. t) ~conn:(i mod 2) line :: acc)
      end
    in
    go 0. 0 []
  in
  let answer_ok r = r.resp <> "" && strip_store r.resp = Hashtbl.find reference r.line in
  let latencies reqs =
    Array.to_list reqs |> List.filter (fun r -> r.resp <> "") |> List.map (fun r -> 1000. *. (r.recv -. r.due))
  in
  let open_loop conns ~duration =
    let reqs = schedule ~rate:nominal_rate ~duration in
    drive conns reqs ~drain_s:10.;
    Array.iter (fun r -> op (answer_ok r) ("serve: " ^ r.line)) reqs;
    reqs
  in
  (* The nominal phase: two seconds of the same traffic first, untimed,
     so the measured part does not start on an idle host; then at least
     1000 requests, open loop, so p99 has ten beyond it.  Latencies stay
     raw: the server runs in another process on the other CPU, and
     neither a calibration kernel beside it nor pinning it to a CPU made
     them steadier. *)
  let nominal conns =
    let warm = open_loop conns ~duration:2. in
    ( Array.length warm,
      bspan "bench.serve.nominal" (fun () ->
          open_loop conns ~duration:(Float.max (!seconds /. 2.) (1060. /. nominal_rate))) )
  in
  (* The median is taken per fifth of the phase, in arrival order, and
     the lowest of the five reported.  On a shared host the server's
     small requests are slowed by stalls that come and go within seconds
     (its throughput in the bursts does not move with them); a change to
     the program moves every fifth, a stall only some. *)
  let windowed_p50 reqs =
    let n = Array.length reqs in
    List.fold_left Float.min Float.infinity
      (List.init 5 (fun w -> median (latencies (Array.sub reqs (w * n / 5) (((w + 1) * n / 5) - (w * n / 5))))))
  in
  let conns = snd (Option.get !server) in
  (* The bounded figures come from blocks of the mix with its exact
     composition (every light line twice, every heavy line once: 5.3%
     heavy), in seeded order, sent one request at a time: each round trip
     is the service time with nothing queued ahead.  A sub-millisecond
     round trip also waits on wake-ups the host may delay, so each request
     line's time is its median over every block, and the figures are read
     off the mix built from those: a stall spoils a sample, not the
     figure.  Throughput is the mix's requests over the sum of their
     times.  The times stay raw: the server runs in another process, and
     the calibration kernel run in this one before each block made them
     less steady, not more.  Open-loop latencies depend on how the seed's
     arrivals fall around the heavy requests; they are printed beside. *)
  let mix = Array.concat [ light; light; heavy ] in
  let block () =
    let keyed = Array.map (fun l -> (Random.State.bits rand, l)) mix in
    Array.sort compare keyed;
    Array.map snd keyed
  in
  let service = Hashtbl.create 64 in
  let kernel_s = ref [] in
  let one_at_a_time lines =
    Array.iteri
      (fun i l ->
        let k0 = now () in
        calib_kernel ~n:2500 ();
        let k = now () -. k0 in
        kernel_s := k :: !kernel_s;
        let speed = calib_ref_s /. 20. /. median (List.filteri (fun j _ -> j < 9) !kernel_s) in
        let r = mk_req ~due:(now ()) ~conn:(i mod 2) l in
        drive conns [| r |] ~drain_s:60.;
        op (answer_ok r) ("serve: " ^ l);
        let ms = 1000. *. (r.recv -. r.due) in
        Hashtbl.replace service l ((ms *. speed, ms) :: Option.value ~default:[] (Hashtbl.find_opt service l)))
      lines
  in
  let blocks = ref 0 in
  let t_end = now () +. (!seconds *. 0.6) in
  while !blocks < min_blocks || now () < t_end do
    one_at_a_time (block ());
    incr blocks
  done;
  let profile f = Array.to_list (Array.map (fun l -> median (List.map f (Hashtbl.find service l))) mix) in
  let wall = profile snd in
  put named "service_p50_wall_ms" "ms" (median wall);
  put named "kernel_ms" "ms" (1000. *. median !kernel_s);
  put named "service_wall_rps" "1/s" (float (Array.length mix) /. (sum wall /. 1000.));
  let profile = profile fst in
  put e2e "latency_p50_ms" "ms" (median profile);
  put e2e "latency_tail_ms" "ms" (quantile 0.99 profile);
  put e2e "throughput_per_s" "1/s" (float (Array.length mix) /. (sum profile /. 1000.));
  put named "latency_tail_quantile" "ratio" 0.99;
  put named "blocks" "count" (float !blocks);
  samples := [ ("service_ms", profile) ];
  let _, reqs = nominal conns in
  let lat = latencies reqs in
  let p50 = windowed_p50 reqs in
  put named "serve_p50_ms" "ms" p50;
  put named "serve_p99_ms" "ms" (quantile 0.99 lat);
  put named "serve_nominal_rps" "1/s" nominal_rate;
  put named "serve_p99_limit_ms" "ms" p99_limit_ms;
  put named "requests" "count" (float (Array.length reqs));
  (* The rate ladder: the highest rate whose p99 stays within the limit
     with no growing backlog, interpolated between the last passing and
     the first failing rung.  Rungs are short, so their p99 rests on
     fewer than ten samples: a coarse figure, reported beside the
     end-to-end metrics. *)
  let rung_s = !seconds /. 16. in
  let rec climb prev = function
    | [] -> fst prev
    | rate :: rest ->
      let reqs = schedule ~rate ~duration:rung_s in
      drive conns reqs ~drain_s:2.;
      Array.iter (fun r -> op (answer_ok r) ("serve ladder: " ^ r.line)) reqs;
      let lat = latencies reqs in
      let n = Array.length reqs in
      let backlog = median (List.filteri (fun i _ -> i >= 3 * n / 4) lat) > p99_limit_ms in
      let p99 = if List.length lat < n || backlog then Float.infinity else quantile 0.99 lat in
      Printf.eprintf "serve ladder: %.0f req/s: p99 %.1f ms over %d requests\n%!" rate p99 n;
      if p99 <= p99_limit_ms then climb (rate, p99) rest
      else
        let r0, p0 = prev in
        if not (Float.is_finite p99) then r0
        else r0 +. ((rate -. r0) *. ((p99_limit_ms -. p0) /. (p99 -. p0)))
  in
  if not !traced then put named "serve_max_rps" "1/s" (climb (0., 0.) rate_ladder);
  put e2e "peak_rss_mb" "MiB" (peak_rss_mb (string_of_int (fst (Option.get !server))));
  (* Traced: a second server, prewarmed the same way but recording its
     spans and every request, runs a second nominal phase. *)
  if !traced then begin
    stop ();
    let conns = start ~tr:true in
    prewarm conns;
    let warm_n, traced_reqs = nominal conns in
    let st = mk_req ~due:(now ()) ~conn:0 "status" in
    drive conns [| st |] ~drain_s:10.;
    stop ();
    let int_after key =
      match find_sub st.resp key with
      | Some i -> Scanf.sscanf (String.sub st.resp (i + String.length key) 16) "%d" Fun.id
      | None -> 0
    in
    let records =
      String.split_on_char '\n' (read_file slow_log)
      |> List.filter (fun l -> l <> "")
      |> List.map (fun l ->
             Scanf.sscanf l
               "{\"rid\":%d,\"verb\":\"%s@\",\"latency_ms\":%f,\"queue_ms\":%f,\"store_hits\":%_d,\"store_misses\":%d"
               (fun rid _ exec queue misses -> (rid, (exec, queue, misses))))
      |> List.sort compare |> List.map snd
    in
    (* The records after the prewarm's and the two untimed seconds' are the
       nominal phase's. *)
    let mine = List.filteri (fun i _ -> i >= Array.length all_lines + warm_n) records in
    let mine = List.filteri (fun i _ -> i < Array.length traced_reqs) mine in
    (* What the server's spans do not carry, measured in this process on
       every distinct input of the mix: the front end, guard counts, the
       uncached kernel check, and allocation and rule applications per
       input (medians). *)
    let inputs = List.map read_file (corpus @ heavy_files) in
    with_tracing true (fun () -> List.iter frontend_probe inputs);
    let runs =
      List.map
        (fun src ->
          Thm.set_obs_hook (Some (fun _ _ -> Atomic.incr rule_apps));
          let mark = gc_mark () in
          let res = D.run ~options:(options ~jobs:1) src in
          let g = gc_since mark in
          Thm.set_obs_hook None;
          (res, g))
        inputs
    in
    reference_layers (List.map fst runs);
    gc_layers (List.map snd runs);
    let srv = intervals (read_jsonl_trace server_trace) in
    span_layers ~outer:"driver.run" ~check:"check" (srv @ harvest_spans ());
    put layers "pool.retries" "count" (float (int_after "\"retries\":"));
    put layers "pool.restarts" "count" (float (int_after "\"restarts\":"));
    let hits = int_after "\"store\":{\"hits\":" and misses = int_after "\"misses\":" in
    store_layers ~hits ~misses
      ~cone:(List.map (fun (_, _, m) -> float m) mine)
      ~bytes:(dir_bytes store_dir) ~save_s:0.;
    serve_layers ~records:mine ~reqs:(Array.to_list traced_reqs)
      ~shed:(int_after "\"shed\":") ~hits ~misses;
    put layers "trace.overhead" "ratio" (windowed_p50 traced_reqs /. p50 -. 1.)
  end

(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics tbl =
  "{"
  ^ String.concat ","
      (List.rev_map
         (fun (name, unit, v) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (json_num v) unit)
         tbl)
  ^ "}"

let json_samples () =
  "{"
  ^ String.concat ","
      (List.rev_map
         (fun (name, xs) ->
           Printf.sprintf "\"%s\":[%s]" name (String.concat "," (List.rev_map json_num xs)))
         !samples)
  ^ "}"

let print_result () =
  Printf.printf
    "{\"workload\":\"%s\",\"seed\":%d,\"traced\":%b,\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"end_to_end\":%s,\"named\":%s,\"per_layer\":%s,\"samples\":%s}\n%!"
    !workload !seed !traced !attempted !failed
    (String.concat "," (List.rev_map (fun e -> Printf.sprintf "%S" e) !errors))
    (json_metrics !e2e) (json_metrics !named) (json_metrics !layers) (json_samples ())

let () =
  (match !workload with
  | "unit_cold" -> unit_batch ~jobs:1
  | "unit_par" -> unit_batch ~jobs:2
  | "unit_edit" -> unit_edit ()
  | "serve_mix" -> serve_mix ()
  | w ->
    prerr_endline ("perfbench: unknown workload " ^ w);
    exit 2);
  if not (List.exists (fun (n, _, _) -> n = "peak_rss_mb") !e2e) then
    put e2e "peak_rss_mb" "MiB" (peak_rss_mb "self");
  print_result ()
