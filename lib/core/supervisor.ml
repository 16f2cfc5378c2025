(* Supervision for the worker pool: restart crashed domains, retry lost
   tasks with bounded backoff, quarantine repeat offenders.

   The policy mirrors classic supervisor trees, adapted to the pool's
   semantics: a map reports per-item outcomes ([Pool.map_outcomes]); any
   [Lost] item means worker domains died holding it.  Dead workers are
   respawned once per map, and each lost item is retried *in-process*
   (on the supervisor's own domain) with exponential backoff + jitter.
   An item that crashes more than [max_retries] times is quarantined:
   re-run with fault injection masked, so it completes under the normal
   degradation ladder instead of poisoning the pool forever.  Because
   crash injection happens at dispatch (before the work function runs),
   a retried item runs the work function exactly once — the final output
   is byte-identical to a fault-free run.

   All counters are atomics: the supervisor is shared across requests by
   `acc serve`, whose status verb reports them. *)

type stats = {
  retries : int;
  quarantined : int;
  restarts : int;
  crashes : int;
  deadline_blown : int;
}

type t = {
  retries : int Atomic.t;
  quarantined : int Atomic.t;
  restarts : int Atomic.t;
  crashes : int Atomic.t;
  deadline_blown : int Atomic.t;
  max_retries : int;
  backoff_base_s : float;
  task_deadline_s : float option;
  rng : int Atomic.t; (* jitter state; contention-tolerant LCG *)
}

let create ?(max_retries = 1) ?(backoff_base_s = 0.002) ?task_deadline_s ?(seed = 0) () =
  {
    retries = Atomic.make 0;
    quarantined = Atomic.make 0;
    restarts = Atomic.make 0;
    crashes = Atomic.make 0;
    deadline_blown = Atomic.make 0;
    max_retries;
    backoff_base_s;
    task_deadline_s;
    rng = Atomic.make (seed lxor 0x5DEECE6);
  }

let stats (t : t) : stats =
  {
    retries = Atomic.get t.retries;
    quarantined = Atomic.get t.quarantined;
    restarts = Atomic.get t.restarts;
    crashes = Atomic.get t.crashes;
    deadline_blown = Atomic.get t.deadline_blown;
  }

(* Jitter in [0, 1).  A racy read-modify-write is fine: jitter only needs
   to decorrelate backoffs, not be a sound RNG. *)
let jitter (t : t) =
  let s = Atomic.get t.rng in
  let s' = ((s * 0x41C64E6D) + 0x3039) land 0x3FFFFFFF in
  ignore (Atomic.compare_and_set t.rng s s');
  float_of_int (s' land 0xFFFF) /. 65536.

(* Exponential backoff with jitter in [0.5x, 1.5x] of the nominal delay:
   full-synchronization of retries is exactly what jitter exists to
   avoid. *)
let backoff (t : t) ~attempt =
  let nominal = t.backoff_base_s *. Float.pow 2.0 (float_of_int (attempt - 1)) in
  Unix.sleepf (nominal *. (0.5 +. jitter t))

(* Run one work item, timing it against the task deadline.  Domains
   cannot be preempted, so a blown deadline is detected after the fact
   and *counted* (the budget plumbing inside the phases is what actually
   bounds the work); the service degrades rather than kills.

   Measured on the monotonic clock ([Obs.mono_s]): the deadline is
   the step-proof watchdog of a serve session that may run for days, so
   an NTP step or VM resume must not spuriously blow (or mask) it —
   [Unix.gettimeofday] did both before PR 8. *)
let timed (t : t) (f : 'a -> 'b) (x : 'a) : 'b =
  match t.task_deadline_s with
  | None -> f x
  | Some d ->
    let t0 = Ac_obs.Obs.mono_s () in
    let finish () = if Ac_obs.Obs.mono_s () -. t0 > d then Atomic.incr t.deadline_blown in
    let r = try f x with e -> finish (); raise e in
    finish ();
    r

(* Retry ladder for one item on the current domain.  [prior] counts
   crashes this item has already caused.  Injection stays live during
   retries (a retried item can crash again); only quarantine masks it. *)
let rec run_item (t : t) ~prior (f : 'a -> 'b) (x : 'a) : 'b =
  if prior > t.max_retries then begin
    (* Killed workers [max_retries + 1] times: quarantine.  Masked, the
       item runs under the ordinary degradation ladder — any real
       failure inside [f] surfaces normally. *)
    Atomic.incr t.quarantined;
    if Ac_obs.Obs.enabled () then
      Ac_obs.Obs.instant ~cat:"sup" ~args:[ ("prior", string_of_int prior) ]
        "sup.quarantine";
    Faults.with_mask (fun () -> timed t f x)
  end
  else begin
    if prior > 0 then begin
      backoff t ~attempt:prior;
      Atomic.incr t.retries;
      if Ac_obs.Obs.enabled () then
        Ac_obs.Obs.instant ~cat:"sup" ~args:[ ("attempt", string_of_int prior) ]
          "sup.retry"
    end;
    match
      if Faults.fire Faults.Worker_crash then
        raise (Pool.Crash "injected worker-domain crash");
      timed t f x
    with
    | v -> v
    | exception Pool.Crash _ ->
      Atomic.incr t.crashes;
      run_item t ~prior:(prior + 1) f x
  end

(* Supervised map: [Pool.map_on] semantics (input order, lowest-index
   failure re-raised) plus crash recovery — no result is ever lost to a
   worker-domain death. *)
let map (t : t) ?pool (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match pool with
  | Some p when List.length xs > 1 ->
    let slots = Pool.map_outcomes p (timed t f) xs in
    let items = Array.of_list xs in
    let lost = Array.fold_left (fun n -> function Pool.Lost _ -> n + 1 | _ -> n) 0 slots in
    if lost > 0 then begin
      (* Workers died during this map.  Restore pool capacity first so
         the *next* map runs at full parallelism, then retry the lost
         items here. *)
      ignore (Atomic.fetch_and_add t.crashes lost);
      ignore (Atomic.fetch_and_add t.restarts (Pool.respawn p));
      if Ac_obs.Obs.enabled () then
        Ac_obs.Obs.instant ~cat:"sup" ~args:[ ("lost", string_of_int lost) ] "sup.recover"
    end;
    let resolved =
      Array.mapi
        (fun i outcome ->
          match outcome with
          | Pool.Done v -> Ok v
          | Pool.Failed (e, bt) -> Error (e, bt)
          | Pool.Lost _ -> (
            (* First retry: the pool-side dispatch already crashed once,
               so enter the ladder at [prior = 1].  [run_item] calls
               [timed] itself. *)
            match run_item t ~prior:1 f items.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())))
        slots
    in
    Array.iter
      (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
      resolved;
    Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) resolved)
  | _ -> List.map (fun x -> run_item t ~prior:0 f x) xs
