(* Tracing runtime.  Design constraints, in order:

   1. Zero cost when off: one [Atomic.get] per site, nothing else — no
      allocation, no clock read.  Callers with non-trivial argument
      lists should gate on [enabled ()] themselves so the list is never
      built when tracing is off.
   2. No cross-domain locking on the hot path: each domain appends to
      its own buffer under its own mutex.  Only the owner appends, so
      the lock is uncontended except during harvest/reset — it exists
      to make those two cross-domain readers safe, not to arbitrate
      writers.
   3. Crash-tolerant balance: [span] emits its end event from
      [Fun.protect ~finally], so a [Pool.Crash] (or any exception)
      escaping the traced work still closes the span and harvested B/E
      events stay balanced under fault injection.

   Trust boundary: this module is observation only.  The kernel never
   reads these buffers; no certificate or theorem depends on them. *)

(* The process's one monotonic clock (bechamel's CLOCK_MONOTONIC stub):
   spans, profile phases, and every deadline and watchdog — serve's
   request watchdog, [Supervisor.timed], store-lock backoff, the analysis
   budget — read it, so an NTP step, a manual `date` or a VM resume moves
   none of them.  [Unix.gettimeofday] is for calendar timestamps and
   file-mtime comparisons only. *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type ph = B | E | I | X

type ev = {
  ev_name : string;
  ev_cat : string;
  ev_ph : ph;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_seq : int;
  ev_args : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Cap per domain: a runaway traced loop degrades to dropped events, not
   to unbounded memory.  2^20 events ~ 100MB worst case per domain. *)
let max_events_per_domain = 1 lsl 20

let dropped_total = Atomic.make 0
let dropped () = Atomic.get dropped_total

(* Flight-recorder ring mode: when [ring_cap] is positive, each domain
   buffer becomes a bounded ring of that many slots and a full buffer
   overwrites its OLDEST event instead of dropping the new one.  The
   per-buffer append counter [b_seq] keeps increasing across wraps, so
   (ts, tid, seq) merge order — and the validator's per-tid seq
   monotonicity — survive overwrites.  Overwritten events count as
   dropped: overflow stays visible either way.  Arm before recording
   (the CLI does, at startup); flipping modes mid-buffer is not
   supported. *)
let ring_cap = Atomic.make 0
let set_ring n = Atomic.set ring_cap (match n with Some c when c > 0 -> c | _ -> 0)
let ring () = match Atomic.get ring_cap with 0 -> None | c -> Some c

let dummy_ev =
  { ev_name = ""; ev_cat = ""; ev_ph = I; ev_ts = 0.; ev_dur = 0.; ev_tid = 0;
    ev_seq = 0; ev_args = [] }

type buf = {
  b_tid : int;
  b_mu : Mutex.t;
  mutable b_evs : ev array;
  mutable b_len : int;  (* live slots (= min b_seq cap in ring mode) *)
  mutable b_seq : int;  (* events ever appended; never decreases *)
}

let reg_mu = Mutex.create ()
let registry : buf list ref = ref []

(* One buffer per domain, created lazily on first event and registered
   for harvest.  A respawned worker domain gets a fresh buffer; dead
   domains' buffers stay registered (their events are still wanted) —
   growth is bounded by the number of respawns. *)
let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { b_tid = (Domain.self () :> int); b_mu = Mutex.create ();
          b_evs = Array.make 256 dummy_ev; b_len = 0; b_seq = 0 }
      in
      Mutex.lock reg_mu;
      registry := b :: !registry;
      Mutex.unlock reg_mu;
      b)

let ctx_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let grow_to (b : buf) (want : int) =
  if want > Array.length b.b_evs then begin
    let bigger = Array.make (max want (2 * Array.length b.b_evs)) dummy_ev in
    Array.blit b.b_evs 0 bigger 0 b.b_len;
    b.b_evs <- bigger
  end

let push (b : buf) (e : ev) =
  Mutex.lock b.b_mu;
  (match Atomic.get ring_cap with
  | 0 ->
    (* Unbounded append mode: drop when the per-domain cap is hit. *)
    let n = b.b_len in
    if n >= max_events_per_domain then Atomic.incr dropped_total
    else begin
      if n = Array.length b.b_evs then grow_to b (2 * n);
      b.b_evs.(n) <- { e with ev_seq = b.b_seq };
      b.b_len <- n + 1;
      b.b_seq <- b.b_seq + 1
    end
  | cap ->
    (* Ring mode: overwrite the oldest slot once full.  The array only
       ever grows up to [cap], so a quiet domain stays small. *)
    let slot = b.b_seq mod cap in
    grow_to b (min cap (slot + 1));
    if b.b_seq >= cap then Atomic.incr dropped_total;
    b.b_evs.(slot) <- { e with ev_seq = b.b_seq };
    b.b_seq <- b.b_seq + 1;
    b.b_len <- min b.b_seq cap);
  Mutex.unlock b.b_mu

let emit ~cat ~ph ?(dur = 0.) ?(ts = nan) ~args name =
  let b = Domain.DLS.get buf_key in
  let args =
    match Domain.DLS.get ctx_key with
    | Some c -> ("ctx", c) :: args
    | None -> args
  in
  let ts = if Float.is_nan ts then mono_s () else ts in
  push b
    { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts = ts; ev_dur = dur;
      ev_tid = b.b_tid; ev_seq = 0; ev_args = args }

let span ~cat ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    emit ~cat ~ph:B ~args name;
    Fun.protect ~finally:(fun () -> emit ~cat ~ph:E ~args:[] name) f
  end

let instant ~cat ?(args = []) name =
  if Atomic.get enabled_flag then emit ~cat ~ph:I ~args name

let complete ~cat ?(args = []) ~ts0 ~dur name =
  if Atomic.get enabled_flag then emit ~cat ~ph:X ~dur ~ts:ts0 ~args name

let with_ctx id f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let old = Domain.DLS.get ctx_key in
    Domain.DLS.set ctx_key (Some id);
    Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key old) f
  end

let harvest () : ev list =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  let all =
    List.concat_map
      (fun b ->
        Mutex.lock b.b_mu;
        let l = Array.to_list (Array.sub b.b_evs 0 b.b_len) in
        Mutex.unlock b.b_mu;
        l)
      bufs
  in
  (* Deterministic merge: [ts] is non-decreasing within a buffer (the
     clock is monotonic), so sorting by (ts, tid, seq) preserves each
     domain's append order while interleaving domains stably. *)
  List.sort
    (fun a b ->
      match Float.compare a.ev_ts b.ev_ts with
      | 0 -> (
        match Int.compare a.ev_tid b.ev_tid with
        | 0 -> Int.compare a.ev_seq b.ev_seq
        | c -> c)
      | c -> c)
    all

(* Truncation repair for flight-recorder dumps.  A ring overwrite cuts a
   prefix off each domain's stream, and a dump can land while spans are
   still open, so a raw harvest may contain:
   - E events whose B was overwritten (they close spans opened before
     the retained window), and
   - B events with no E yet (spans open at dump time).
   Repair restores the validator's invariants without touching any event
   that already pairs up: walking each tid in order, an E that matches
   no open B in the window is dropped; every B still open at the end is
   closed with a synthetic E at that tid's final timestamp.  On an
   already-balanced stream this is the identity. *)
let repair (evs : ev list) : ev list =
  let stacks : (int, (string * string) list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  let kept =
    List.filter
      (fun e ->
        Hashtbl.replace last_ts e.ev_tid e.ev_ts;
        match e.ev_ph with
        | B ->
          let s = stack_of e.ev_tid in
          s := (e.ev_name, e.ev_cat) :: !s;
          true
        | E -> (
          let s = stack_of e.ev_tid in
          match !s with
          | (top, _) :: rest when top = e.ev_name ->
            s := rest;
            true
          | _ -> false (* closes a span lost to the ring: orphaned *))
        | I | X -> true)
      evs
  in
  (* Close every span still open, innermost first, at the tid's last
     seen timestamp (ts stays monotone per tid). *)
  let closers =
    Hashtbl.fold
      (fun tid s acc ->
        let ts = try Hashtbl.find last_ts tid with Not_found -> 0. in
        List.fold_left
          (fun acc (name, cat) ->
            { ev_name = name; ev_cat = cat; ev_ph = E; ev_ts = ts; ev_dur = 0.;
              ev_tid = tid; ev_seq = 0; ev_args = [] }
            :: acc)
          acc !s)
      stacks []
  in
  (* Synthetic closers get fresh sequence numbers above every real one,
     assigned in emission order, so per-tid seq stays strictly
     increasing through the repaired tail. *)
  let next = ref (List.fold_left (fun m e -> max m e.ev_seq) (-1) evs + 1) in
  kept
  @ List.map
      (fun e ->
        let s = !next in
        incr next;
        { e with ev_seq = s })
      (List.rev closers)

let reset () =
  Mutex.lock reg_mu;
  let bufs = !registry in
  Mutex.unlock reg_mu;
  List.iter
    (fun b ->
      Mutex.lock b.b_mu;
      b.b_len <- 0;
      b.b_seq <- 0;
      Mutex.unlock b.b_mu)
    bufs;
  Atomic.set dropped_total 0

(* --- export --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ph_str = function B -> "B" | E -> "E" | I -> "i" | X -> "X"

(* One event rendered as a single-line JSON object.  [t0] rebases the
   monotonic timestamps so traces start near 0; Chrome wants ts (and
   dur) in microseconds. *)
let render_ev buf ~pid ~t0 e =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f"
       (json_escape e.ev_name) (json_escape e.ev_cat) (ph_str e.ev_ph) pid e.ev_tid
       ((e.ev_ts -. t0) *. 1e6));
  if e.ev_ph = X then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" (e.ev_dur *. 1e6));
  if e.ev_ph = I then Buffer.add_string buf ",\"s\":\"t\"";
  (match e.ev_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let min_ts evs = List.fold_left (fun acc e -> Float.min acc e.ev_ts) infinity evs

let to_chrome evs =
  let pid = Unix.getpid () in
  let t0 = match evs with [] -> 0. | _ -> min_ts evs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      render_ev buf ~pid ~t0 e)
    evs;
  Buffer.add_string buf
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\"%d\"}}\n"
       (dropped ()));
  Buffer.contents buf

let to_jsonl evs =
  let pid = Unix.getpid () in
  let t0 = match evs with [] -> 0. | _ -> min_ts evs in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      render_ev buf ~pid ~t0 e;
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let write_trace ~format path =
  let evs = harvest () in
  (* Ring mode overwrites the oldest events, which can orphan B/E pairs;
     repair the stream so every dump passes `acc trace --validate`.
     Identity when the buffers are unbounded, so plain --trace output is
     byte-for-byte what it always was. *)
  let evs = if ring () <> None then repair evs else evs in
  let s = match format with `Chrome -> to_chrome evs | `Jsonl -> to_jsonl evs in
  match
    let oc = open_out path in
    output_string oc s;
    close_out oc
  with
  | () -> ()
  | exception Sys_error m -> Printf.eprintf "acc: cannot write trace: %s\n%!" m
