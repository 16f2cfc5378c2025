(* Proof-effort accounting: where did the kernel's work go?

   The paper's pitch is proof-effort reduction, so the thing worth
   metering in production is kernel activity: how many times each
   inference rule was applied, how deep and large the per-function
   refinement chains come out, and which pass paid for each discharged
   guard (intraprocedural analysis, interprocedural summaries, or
   dead-code scrubbing inside the certificate walk).

   Trust boundary: the kernel exposes one observation hook
   ([Thm.set_obs_hook], fed the dense rule id and the rule instance of
   every successful mint) and knows nothing about this module — the hook
   is installed from outside the kernel ([arm]), defaults to a no-op,
   and observing changes no theorem.  CI byte-compares hooked vs
   unhooked runs.

   Cost model: rule minting is the kernel's hot path — the whole
   translation pipeline averages under 100 ns of work per mint, so the
   budget here is single-digit nanoseconds.  Per-rule counts are one
   unsynchronised flat-array increment indexed by the dense rule id:
   immediate ints, no hashing, no write barrier, no domain-local-state
   lookup.  Concurrent domains may lose an occasional increment to the
   race (plain int stores are memory-safe in the OCaml 5 model, just not
   atomic); telemetry counters are allowed to be approximate under
   contention and exact in the single-domain case the bench bounds.  The
   rule NAME is only computed, and stored, the first time an id fires
   (this module has no kernel dependency, so the caller supplies the
   naming function with the hook: [on_rule Rules.rule_name]).  Chain
   shapes and discharge provenance are rare events (once per function)
   and go straight to the {!Metrics} registry, which also makes them
   scrapeable for free. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- per-rule application counters (per-domain tables) --- *)

(* Capacity of the dense-id fast path.  Must be >= the kernel's
   [Rules.num_rule_ids]; this module deliberately has no kernel
   dependency, so the bound is duplicated (generously) here; an id
   outside [0, id_capacity) is not counted. *)
let id_capacity = 128

(* Sentinel for "no name recorded yet" — compared physically, so a fresh
   literal that can never be [==] to a real rule name. *)
let no_name = String.make 0 'x'

(* Fast path: applications of rule id [i] land in [counts.(i)] — an
   immediate-int store, no write barrier.  [names.(i)] is written once,
   on the id's first hit (racing writers store the same literal, so the
   race is benign; a reader either sees [no_name] and skips the slot or
   sees the name with whatever count has accumulated). *)
let counts = Array.make id_capacity 0
let names = Array.make id_capacity no_name

(* The kernel hook body.  [enabled] is re-checked here because the hook
   stays installed for the life of the process once armed (bench rounds
   flip the flag instead of racing hook deinstallation against worker
   domains mid-map). *)
let on_rule (name : 'r -> string) (id : int) (r : 'r) : unit =
  if Atomic.get enabled_flag && id >= 0 && id < id_capacity then begin
    Array.unsafe_set counts id (Array.unsafe_get counts id + 1);
    if Array.unsafe_get names id == no_name then names.(id) <- name r
  end

let rule_counts () : (string * int) list =
  let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add rule n =
    if n > 0 then
      Hashtbl.replace merged rule
        (n + Option.value ~default:0 (Hashtbl.find_opt merged rule))
  in
  for i = 0 to id_capacity - 1 do
    let name = names.(i) in
    if name != no_name then add name counts.(i)
  done;
  Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) merged []
  |> List.sort (fun (a, na) (b, nb) ->
         match Int.compare nb na with 0 -> String.compare a b | c -> c)

let total_applications () =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (rule_counts ())

(* --- chain shapes and discharge provenance (Metrics registry) --- *)

(* Find-or-create is mutex-guarded in [Metrics], so resolve handles
   lazily and cache them. *)
let h_chain_depth = lazy (Metrics.histogram "kernel.chain_depth")
let h_chain_size = lazy (Metrics.histogram "kernel.chain_size")
let c_chains = lazy (Metrics.counter "kernel.chains")
let c_intra = lazy (Metrics.counter "kernel.discharged_intra")
let c_inter = lazy (Metrics.counter "kernel.discharged_interproc")
let c_scrub = lazy (Metrics.counter "kernel.discharged_scrub_dead")

let observe_chain ~depth ~size =
  if Atomic.get enabled_flag then begin
    Metrics.incr (Lazy.force c_chains);
    Metrics.observe (Lazy.force h_chain_depth) (float_of_int depth);
    Metrics.observe (Lazy.force h_chain_size) (float_of_int size)
  end

type provenance = Intra | Interproc

let record_discharge (p : provenance) ~proven ~scrubbed =
  if Atomic.get enabled_flag then begin
    Metrics.add (Lazy.force (match p with Intra -> c_intra | Interproc -> c_inter))
      proven;
    Metrics.add (Lazy.force c_scrub) scrubbed
  end

(* --- reports --- *)

let reset () =
  Array.fill counts 0 id_capacity 0;
  Array.fill names 0 id_capacity no_name;
  List.iter
    (fun c -> Metrics.set_counter (Lazy.force c) 0)
    [ c_chains; c_intra; c_inter; c_scrub ];
  List.iter (fun h -> Metrics.reset_histogram (Lazy.force h)) [ h_chain_depth; h_chain_size ]

(* The caller passes the kernel's hook setter: this module has no kernel
   dependency, by design. *)
let arm install name =
  install (Some (fun id r -> on_rule name id r));
  set_enabled true;
  reset ()

(* The text report of `acc effort` ([~files]: the per-rule table) and of
   `acc stats --profile` (a one-line rule summary, nothing when no rule
   fired); both show the chain shapes and the discharge provenance. *)
let report ?files () =
  let b = Buffer.create 1024 in
  let counts = rule_counts () in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  let chains = Metrics.counter_value (Lazy.force c_chains) in
  let q h p = Metrics.quantile (Lazy.force h) p in
  let shape =
    Printf.sprintf "(depth p50 %.0f p95 %.0f, size p50 %.0f p95 %.0f)" (q h_chain_depth 0.50)
      (q h_chain_depth 0.95) (q h_chain_size 0.50) (q h_chain_size 0.95)
  in
  (match files with
  | Some n ->
    Printf.bprintf b "proof effort over %d file(s):\n  %-32s %10s\n" n "rule" "applied";
    List.iter (fun (r, n) -> Printf.bprintf b "  %-32s %10d\n" r n) (counts @ [ ("total", total) ]);
    Printf.bprintf b "chains: %d %s\n" chains shape
  | None when total > 0 ->
    List.filteri (fun i _ -> i < 5) counts
    |> List.map (fun (r, n) -> Printf.sprintf "%s %d" r n)
    |> String.concat ", "
    |> Printf.bprintf b "kernel: %d rule applications; %d chains %s\ntop rules: %s\n" total
         chains shape
  | None -> ());
  if files <> None || total > 0 then
    Printf.bprintf b "discharge provenance: %d intra, %d interproc, %d scrub_dead\n"
      (Metrics.counter_value (Lazy.force c_intra))
      (Metrics.counter_value (Lazy.force c_inter))
      (Metrics.counter_value (Lazy.force c_scrub));
  Buffer.contents b

let snapshot_json () =
  let rules =
    String.concat ","
      (List.map
         (fun (rule, n) -> Printf.sprintf "\"%s\":%d" rule n)
         (rule_counts ()))
  in
  let hist h =
    let h = Lazy.force h in
    let n = Metrics.hist_count h in
    Printf.sprintf
      "{\"count\":%d,\"sum\":%.0f,\"p50\":%.0f,\"p95\":%.0f,\"p99\":%.0f}" n
      (Metrics.hist_sum h)
      (Metrics.quantile h 0.50) (Metrics.quantile h 0.95) (Metrics.quantile h 0.99)
  in
  Printf.sprintf
    "{\"rule_applications\":{%s},\"total_applications\":%d,\"chains\":%d,\"chain_depth\":%s,\"chain_size\":%s,\"discharge_provenance\":{\"intra\":%d,\"interproc\":%d,\"scrub_dead\":%d}}"
    rules (total_applications ())
    (Metrics.counter_value (Lazy.force c_chains))
    (hist h_chain_depth) (hist h_chain_size)
    (Metrics.counter_value (Lazy.force c_intra))
    (Metrics.counter_value (Lazy.force c_inter))
    (Metrics.counter_value (Lazy.force c_scrub))

(* Per-rule counters as labelled OpenMetrics series.  The chain
   histograms and provenance counters live in the [Metrics] registry and
   ride [Metrics.to_openmetrics]; only the labelled family is rendered
   here (the registry is flat-name only). *)
let to_openmetrics () =
  let buf = Buffer.create 1024 in
  (match rule_counts () with
  | [] -> ()
  | counts ->
    Buffer.add_string buf "# TYPE acc_kernel_rule_applications counter\n";
    List.iter
      (fun (rule, n) ->
        Buffer.add_string buf
          (Printf.sprintf "acc_kernel_rule_applications_total{rule=\"%s\"} %d\n" rule
             n))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) counts));
  Buffer.contents buf
