(* Per-phase profiling counters for the pipeline, kept in the [Metrics]
   registry.

   [record phase f] measures one unit of phase work — wall-clock seconds
   on [Obs.mono_s] and bytes allocated on the executing domain — and
   folds it into two registry cells: the histogram
   [profile.<phase>.wall_s] (its count is the phase's calls, its sum the
   wall seconds) and the counter [profile.<phase>.alloc_bytes].  Both
   are atomics, so workers under [--jobs N] record without a lock and
   nothing is attributed to the wrong domain; the cells are also
   scrapeable from a serve session for free.

   Two readings to keep straight:
   - wall seconds are summed across workers, so under [--jobs N] a
     phase's total can exceed the elapsed time of the run (it is
     cumulative work, the quantity a speedup is computed against);
   - allocation is per-domain ([Obs.alloc_bytes] reads the calling
     domain's counters in OCaml 5), which is exactly right: the delta is
     taken on the domain running the work.

   Registry counters only grow (a scrape must never see one go
   backwards), so [reset] records a baseline and [snapshot] reports the
   difference.  The driver resets at the start of every [Driver.run], so
   a snapshot taken after [run] (+ [check_all]) describes that run. *)

module Metrics = Ac_obs.Metrics

let mono_s = Ac_obs.Obs.mono_s

type entry = {
  phase : string;
  calls : int;
  wall_s : float;  (* cumulative across workers *)
  alloc_bytes : float;
}

(* Phase -> its registry cells.  Copy-on-write, so [record] costs one
   atomic load and a short list scan; a racing insert of the same phase
   is harmless because [Metrics] find-or-create returns the same cells. *)
let cells : (string * (Metrics.histogram * Metrics.counter)) list Atomic.t = Atomic.make []

let rec cells_of phase =
  let known = Atomic.get cells in
  match List.assoc_opt phase known with
  | Some c -> c
  | None ->
    let c =
      ( Metrics.histogram ("profile." ^ phase ^ ".wall_s"),
        Metrics.counter ("profile." ^ phase ^ ".alloc_bytes") )
    in
    if Atomic.compare_and_set cells known ((phase, c) :: known) then c else cells_of phase

let totals () =
  List.map
    (fun (phase, (h, a)) ->
      { phase;
        calls = Metrics.hist_count h;
        wall_s = Metrics.hist_sum h;
        alloc_bytes = float_of_int (Metrics.counter_value a) })
    (Atomic.get cells)

let baseline : entry list Atomic.t = Atomic.make []

let reset () = Atomic.set baseline (totals ())

let record ?(cat = "driver") ?func (phase : string) (f : unit -> 'a) : 'a =
  let measured () =
    let t0 = mono_s () in
    let a0 = Ac_obs.Obs.alloc_bytes () in
    Fun.protect
      ~finally:(fun () ->
        let dt = mono_s () -. t0 and da = Ac_obs.Obs.alloc_bytes () -. a0 in
        let h, a = cells_of phase in
        Metrics.observe h dt;
        Metrics.add a (int_of_float da))
      f
  in
  (* Gate here (not just inside [Obs.span]) so the args list is never
     allocated when tracing is off. *)
  if Ac_obs.Obs.enabled () then
    let args = match func with Some fn -> [ ("func", fn) ] | None -> [] in
    Ac_obs.Obs.span ~cat ~args phase measured
  else measured ()

(* Phases in pipeline order, so snapshots render in a stable, meaningful
   order regardless of which phase happened to be recorded first. *)
let canonical_order =
  [ "parse"; "l1"; "l2"; "guard_discharge"; "heap_abs"; "word_abs"; "chain"; "check" ]

let snapshot () : entry list =
  let base = Atomic.get baseline in
  let since e =
    match List.find_opt (fun b -> String.equal b.phase e.phase) base with
    | None -> e
    | Some b ->
      { e with
        calls = e.calls - b.calls;
        wall_s = e.wall_s -. b.wall_s;
        alloc_bytes = e.alloc_bytes -. b.alloc_bytes }
  in
  let rank p =
    let rec go i = function
      | [] -> List.length canonical_order
      | q :: rest -> if String.equal p q then i else go (i + 1) rest
    in
    go 0 canonical_order
  in
  List.map since (totals ())
  |> List.filter (fun e -> e.calls > 0)
  |> List.sort (fun a b ->
         match Int.compare (rank a.phase) (rank b.phase) with
         | 0 -> String.compare a.phase b.phase
         | c -> c)

let total_wall () = List.fold_left (fun acc e -> acc +. e.wall_s) 0. (snapshot ())

let to_json () : string =
  let entries =
    List.map
      (fun e ->
        Printf.sprintf
          "{\"phase\":\"%s\",\"calls\":%d,\"wall_s\":%.6f,\"alloc_bytes\":%.0f}"
          e.phase e.calls e.wall_s e.alloc_bytes)
      (snapshot ())
  in
  Printf.sprintf "{\"phases\":[%s]}" (String.concat "," entries)
