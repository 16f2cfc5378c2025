(* A persistent domain-based worker pool for the per-function pipeline
   phases.

   The driver creates one pool per run and pushes every per-function map
   through it, so worker domains are spawned once per run instead of once
   per phase (domain startup plus the first minor-heap faults cost more
   than an entire small phase).  Workers block on a condition variable
   between maps.

   [map] behaves exactly like [List.map]: results come back in input
   order, and if any application raises, the exception of the
   *lowest-indexed* failing item is re-raised (with its backtrace) — the
   same one sequential evaluation would have surfaced first.  Workers
   pull items off a shared atomic index, so scheduling is dynamic but the
   output is deterministic.

   A worker fails only by raising, and a raise is confined to the item's
   result slot, so a worker domain never dies mid-map and the pool needs
   no supervision.

   The pool is safe for the pipeline because PR 2 made every phase
   per-function fault-isolated and the engines keep their per-goal state
   in domain-local storage (hash-cons tables, solver deadlines) or
   atomics (budget-exhaustion counters); see DESIGN.md. *)

type task = { run : int -> unit; items : int }
(* [run i] processes item [i] and never raises; workers grab indices
   from [t.next]. *)

type t = {
  mutable workers : unit Domain.t list;
  mu : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable task : task option;
  mutable next : int Atomic.t;
  mutable active : int; (* workers currently inside task.run *)
  mutable generation : int; (* bumped per map, wakes workers *)
  mutable stop : bool;
}

let worker_loop (t : t) () =
  let gen = ref 0 in
  let rec loop () =
    Mutex.lock t.mu;
    (* Proceed only on a NEW map whose task is still installed.  A worker
       can sleep through an entire map: [map_on] waits only for workers
       that entered the task ([t.active]), so if every item was drained
       before this worker woke, the map is torn down ([t.task = None])
       with [t.generation] already bumped.  Waking on generation alone
       would then crash on the missing task — treat it as a missed map
       and go back to waiting for the next one. *)
    while (not t.stop) && (t.generation = !gen || Option.is_none t.task) do
      Condition.wait t.work_ready t.mu
    done;
    if t.stop then Mutex.unlock t.mu
    else begin
      gen := t.generation;
      let task = Option.get t.task in
      t.active <- t.active + 1;
      Mutex.unlock t.mu;
      let rec drain () =
        let i = Atomic.fetch_and_add t.next 1 in
        if i < task.items then begin
          task.run i;
          drain ()
        end
      in
      drain ();
      Mutex.lock t.mu;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mu;
      loop ()
    end
  in
  loop ()

let create ~(jobs : int) : t =
  let t =
    {
      workers = [];
      mu = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      task = None;
      next = Atomic.make 0;
      active = 0;
      generation = 0;
      stop = false;
    }
  in
  (* The calling domain participates in every map, so spawn jobs - 1. *)
  t.workers <- List.init (max 0 (jobs - 1)) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown (t : t) =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mu;
  List.iter Domain.join t.workers;
  t.workers <- []

let map_on (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let items = Array.of_list xs in
    let slots = Array.make n None in
    let run_item i =
      slots.(i) <-
        Some
          (match f items.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    (* Span per dispatched item, on the executing domain. *)
    let run i =
      if Ac_obs.Obs.enabled () then
        Ac_obs.Obs.span ~cat:"pool" ~args:[ ("item", string_of_int i) ] "pool.task"
          (fun () -> run_item i)
      else run_item i
    in
    let next = Atomic.make 0 in
    Mutex.lock t.mu;
    t.task <- Some { run; items = n };
    t.next <- next;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mu;
    (* The calling domain drains alongside the workers. *)
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run i;
        drain ()
      end
    in
    drain ();
    (* Wait for stragglers still inside [run]. *)
    Mutex.lock t.mu;
    while t.active > 0 do
      Condition.wait t.work_done t.mu
    done;
    t.task <- None;
    Mutex.unlock t.mu;
    (* Deterministic failure semantics: surface the lowest-indexed
       failure, exactly as sequential evaluation would. *)
    Array.iter
      (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
      slots;
    List.init n (fun i -> match slots.(i) with Some (Ok v) -> v | _ -> assert false)
  end

(* One-shot convenience used when no pool is alive: sequential for
   [jobs <= 1], otherwise a throwaway pool. *)
let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if jobs <= 1 || List.length xs <= 1 then List.map f xs
  else begin
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map_on t f xs)
  end
