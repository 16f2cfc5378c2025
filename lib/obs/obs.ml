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
   3. Exception-safe balance: [span] emits its end event from
      [Fun.protect ~finally], so any exception escaping the traced work
      still closes the span and harvested B/E events stay balanced under
      fault injection.

   Trust boundary: this module is observation only.  The kernel never
   reads these buffers; no certificate or theorem depends on them. *)

(* The process's one monotonic clock (bechamel's CLOCK_MONOTONIC stub):
   spans, profile phases, and every deadline and watchdog — serve's
   request watchdog, store-lock backoff, the analysis budget — read it,
   so an NTP step, a manual `date` or a VM resume moves none of them.  [Unix.gettimeofday] is for calendar timestamps and
   file-mtime comparisons only. *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Exact at any moment: under OCaml 5.1 the minor part of
   [Gc.allocated_bytes] moves only at minor collections, so a short run's
   delta is off by up to a minor heap; [Gc.minor_words] is not. *)
let alloc_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

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
   for harvest.  Every worker domain gets a fresh buffer; joined
   domains' buffers stay registered (their events are still wanted) —
   growth is bounded by the number of domains spawned. *)
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

(* The per-tid walk [repair] and [check] share, in stream order: each
   tid's open spans, innermost first, and its last timestamp.  [visit]
   sees each event first; then a B opens a span and an E naming the
   innermost one closes it.  Any other E goes to [orphan], which says
   whether to keep it.  Returns the kept events and the final lanes. *)
type lane = { mutable opened : ev list; mutable last_ts : float }

let walk_lanes ?(visit = fun _ _ _ -> ()) ~orphan evs =
  let lanes = Hashtbl.create 8 in
  let fresh tid = let l = { opened = []; last_ts = neg_infinity } in Hashtbl.add lanes tid l; l in
  let keep i e =
    let l = match Hashtbl.find_opt lanes e.ev_tid with Some l -> l | None -> fresh e.ev_tid in
    visit i e l;
    l.last_ts <- e.ev_ts;
    match (e.ev_ph, l.opened) with
    | B, opened -> l.opened <- e :: opened; true
    | E, top :: rest when top.ev_name = e.ev_name -> l.opened <- rest; true
    | E, _ -> orphan i e l
    | (I | X), _ -> true
  in
  (List.filteri keep evs, lanes)

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
  let kept, lanes = walk_lanes ~orphan:(fun _ _ _ -> false) evs in
  (* Close every span still open, innermost first, at the tid's last
     seen timestamp (ts stays monotone per tid). *)
  let closers =
    Hashtbl.fold
      (fun _ l acc ->
        List.fold_left
          (fun acc b -> { b with ev_ph = E; ev_ts = l.last_ts; ev_dur = 0.; ev_args = [] } :: acc)
          acc l.opened)
      lanes []
  in
  (* Synthetic closers get fresh sequence numbers above every real one,
     assigned in emission order, so per-tid seq stays strictly
     increasing through the repaired tail. *)
  let next = List.fold_left (fun m e -> max m e.ev_seq) (-1) evs + 1 in
  kept @ List.mapi (fun i e -> { e with ev_seq = next + i }) (List.rev closers)

(* What a trace viewer relies on; the first fault is named by its
   event's 1-based position among the events. *)
let check (evs : ev list) : (unit, string) result =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let visit i e l =
    if e.ev_ts < l.last_ts then bad "line %d: ts not monotone on tid %d" (i + 1) e.ev_tid;
    if e.ev_ph = X && not (Float.is_finite e.ev_dur && e.ev_dur >= 0.) then
      bad "line %d: X event with bad dur" (i + 1)
  in
  let orphan i e l =
    match l.opened with
    | top :: _ ->
      bad "line %d: E %S does not match open span %S on tid %d" (i + 1) e.ev_name
        top.ev_name e.ev_tid
    | [] -> bad "line %d: E %S with no open span on tid %d" (i + 1) e.ev_name e.ev_tid
  in
  let still_open tid = function
    | { opened = b :: _; _ } -> bad "unbalanced trace: span %S still open on tid %d" b.ev_name tid
    | _ -> ()
  in
  try Ok (Hashtbl.iter still_open (snd (walk_lanes ~visit ~orphan evs)))
  with Bad m -> Error m

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

(* --- reading back --- *)

(* A JSON string literal's contents: the inverse of [json_escape]. *)
let unquote raw =
  let n = String.length raw in
  let b = Buffer.create n in
  let rec go i =
    match raw.[i] with
    | '"' when i = n - 1 -> Some (Buffer.contents b)
    | '\\' when raw.[i + 1] = 'u' ->
      Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub raw (i + 2) 4)));
      go (i + 6)
    | '\\' ->
      Buffer.add_char b (match raw.[i + 1] with 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t' | c -> c);
      go (i + 2)
    | c -> Buffer.add_char b c; go (i + 1)
  in
  try if raw.[0] = '"' then go 1 else None with Failure _ | Invalid_argument _ -> None

(* The fields of one object as [render_ev] writes it, each key with the
   raw text of its value: a string with its quotes, an object with its
   braces, a number up to the next [,] or [}].  A line cut off after a
   value reads up to the cut. *)
let fields_of s =
  let n = String.length s in
  let rec past_string i =
    match s.[i] with '"' -> i + 1 | '\\' -> past_string (i + 2) | _ -> past_string (i + 1)
  in
  let rec until stops i =
    if i >= n || String.contains stops s.[i] then i
    else until stops (if s.[i] = '"' then past_string (i + 1) else i + 1)
  in
  let rec fields i acc =
    let k = if s.[i] = '"' then past_string (i + 1) else raise Exit in
    if s.[k] <> ':' then raise Exit;
    let v = if s.[k + 1] = '{' then until "}" (k + 2) + 1 else until ",}" (k + 1) in
    let acc = (String.sub s i (k - i), String.sub s (k + 1) (v - k - 1)) :: acc in
    if v < n && s.[v] = ',' then fields (v + 1) acc else List.rev acc
  in
  try if s.[0] = '{' then Some (fields 1 []) else None with Exit | Invalid_argument _ -> None

let ev_of_line line : (ev, string) result option =
  let read () =
    let fields = match fields_of line with Some f -> f | None -> failwith "malformed event" in
    let raw key = List.assoc_opt (Printf.sprintf "%S" key) fields in
    let str key = Option.bind (raw key) unquote in
    let need find key = match find key with Some v -> v | None -> failwith ("missing " ^ key) in
    let id key =
      let v = need raw key in
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> failwith (Printf.sprintf "bad %s %S" key v)
    in
    let micros key = Option.value ~default:nan (Option.bind (raw key) float_of_string_opt) /. 1e6 in
    let ev_name = need str "name" in
    let ph = need str "ph" in
    let _pid = id "pid" in
    let ev_tid = id "tid" in
    let ev_ts = micros "ts" in
    if not (Float.is_finite ev_ts && ev_ts >= 0.) then failwith "bad ts";
    let ev_ph =
      match ph with
      | "B" -> B | "E" -> E | "i" | "I" -> I | "X" -> X
      | p -> failwith (Printf.sprintf "unknown ph %S" p)
    in
    let arg (k, v) = match (unquote k, unquote v) with Some k, Some v -> Some (k, v) | _ -> None in
    { ev_name; ev_cat = Option.value ~default:"" (str "cat"); ev_ph; ev_ts;
      ev_dur = (if ev_ph = X then micros "dur" else 0.); ev_tid; ev_seq = 0;
      ev_args = List.filter_map arg (Option.value ~default:[] (Option.bind (raw "args") fields_of)) }
  in
  if not (String.starts_with ~prefix:"{\"name\":" line) then None
  else Some (try Ok (read ()) with Failure m -> Error m)

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
  (match
     let oc = open_out path in
     output_string oc s;
     close_out oc
   with
  | () -> ()
  | exception Sys_error m -> Printf.eprintf "acc: cannot write trace: %s\n%!" m);
  List.length evs
