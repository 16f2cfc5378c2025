(* Advisory inter-process locking for the proof store directory.

   Uses POSIX record locks ([Unix.lockf]) on a dedicated [.lock] file
   inside the store directory.  Record locks have exactly the semantics
   we need for crash tolerance: they are owned by the *process* (so a
   re-entrant acquire from the same process never self-deadlocks the way
   flock-between-fds can) and they evaporate when the owning process
   dies — including a hard [kill -9] — so a crashed writer can never
   wedge the store for everyone else.

   But process ownership has a notorious sharp edge (SUSv4, fcntl):
   closing *any* descriptor on the locked file drops *all* of the
   process's locks on it, no matter which descriptor took them.  The
   original implementation opened a fresh fd per [acquire] and closed it
   on [release] — so inside a long-lived serve process, a best-effort
   writer finishing its [with_lock] would silently evaporate a strict
   lock concurrently held by [gc]/[doctor] in the same process,
   mid-scan, exactly when exclusion mattered.

   The fix: one refcounted singleton handle per lock path, process-wide.
   The fd is opened on first use and *never closed*; a process-level
   mutex guards the refcount table and the lockf calls (lockf state is
   per-process, so within-process callers must not race each other on
   it).  While any caller holds the lock, later same-process acquires
   simply share it (refcount++), preserving the record-lock re-entrancy
   the store already relied on; the kernel-level F_ULOCK happens only
   when the last same-process holder releases.  Leaking one fd per
   distinct store directory for the life of the process is the cost, and
   it is the point: no close, no dropped locks.

   The lock is advisory: it serializes the store's own maintenance
   operations (gc, doctor, tmp-file recovery) against writers.  Entry
   publication itself stays crash-safe without the lock — entries are
   written to a tmp file and published with an atomic [rename] — so
   writers only take the lock best-effort (see [with_lock]); maintenance
   takes it strictly (see [acquire]). *)

(* Backoff deadlines are measured on the monotonic clock: a serve
   process holding stores open for days must not have its lock waits cut
   short (or stretched) by an NTP step. *)
let mono_s = Ac_obs.Obs.mono_s

(* One per lock path, kept forever.  [h_refs] counts live same-process
   holders; the kernel lock is held iff [h_refs > 0]. *)
type handle = { h_fd : Unix.file_descr; mutable h_refs : int }

type t = { l_handle : handle; mutable l_released : bool }

let mu = Mutex.create ()
let handles : (string, handle) Hashtbl.t = Hashtbl.create 4

let lock_path dir = Filename.concat dir ".lock"

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The singleton handle for [path], opening it on first use.  Called
   with [mu] held. *)
let handle_of path =
  match Hashtbl.find_opt handles path with
  | Some h -> Ok h
  | None -> (
    match
      Unix.openfile path [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644
    with
    | exception (Unix.Unix_error _ | Sys_error _) ->
      Error (Printf.sprintf "store lock: cannot open %s" path)
    | fd ->
      let h = { h_fd = fd; h_refs = 0 } in
      Hashtbl.add handles path h;
      Ok h)

(* Try to take the lock, retrying with exponential backoff until
   [timeout_s] elapses.  [F_TLOCK] is the non-blocking probe; blocking
   [F_LOCK] would be simpler but gives no way to bound the wait — and
   must never run under [mu] anyway.  The mutex is held only across the
   refcount check and the probe itself, so a caller backing off never
   inflates another caller's wait. *)
let acquire ?(timeout_s = 5.0) ~dir () =
  Ac_obs.Obs.span ~cat:"store" "store.lock_wait" @@ fun () ->
  mkdirs dir;
  let path = lock_path dir in
  let deadline = mono_s () +. timeout_s in
  let rec try_lock delay =
    Mutex.lock mu;
    let outcome =
      match handle_of path with
      | Error e -> Error (`Fatal e)
      | Ok h ->
        if h.h_refs > 0 then begin
          (* Another caller in this process already holds the kernel
             lock; share it.  This is the refcounted form of the
             re-entrancy POSIX record locks gave the old code for free
             (minus the drop-on-close bug). *)
          h.h_refs <- h.h_refs + 1;
          Ok h
        end
        else begin
          match Unix.lockf h.h_fd Unix.F_TLOCK 0 with
          | () ->
            h.h_refs <- 1;
            Ok h
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES | Unix.EINTR), _, _)
            ->
            Error `Busy
          | exception e ->
            Error (`Fatal (Printf.sprintf "store lock: %s" (Printexc.to_string e)))
        end
    in
    Mutex.unlock mu;
    match outcome with
    | Ok h -> Ok { l_handle = h; l_released = false }
    | Error (`Fatal e) -> Error e
    | Error `Busy ->
      if mono_s () >= deadline then
        Error
          (Printf.sprintf "store lock: timed out after %.1fs waiting for %s"
             timeout_s path)
      else begin
        Unix.sleepf delay;
        try_lock (Float.min 0.05 (delay *. 1.7))
      end
  in
  try_lock 0.002

let release (l : t) =
  Mutex.lock mu;
  if not l.l_released then begin
    l.l_released <- true;
    let h = l.l_handle in
    h.h_refs <- h.h_refs - 1;
    if h.h_refs = 0 then
      (* Last same-process holder: give the lock back to other
         processes.  The fd stays open for the life of the process —
         closing it is precisely the bug this module exists to avoid. *)
      try Unix.lockf h.h_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock mu

(* Best-effort critical section for writers: run [f ~locked:true] under
   the lock when it can be had within [timeout_s], and [f ~locked:false]
   otherwise.  Availability wins over exclusion here because the atomic
   tmp+rename publication protocol is what actually guarantees entry
   integrity; the lock only narrows the window in which gc can observe
   (and must grace-period-skip) an in-flight tmp file. *)
let with_lock ?(timeout_s = 1.0) ~dir (f : locked:bool -> 'a) : 'a =
  match acquire ~timeout_s ~dir () with
  | Error _ -> f ~locked:false
  | Ok l -> Fun.protect ~finally:(fun () -> release l) (fun () -> f ~locked:true)
