module Ir = Ac_simpl.Ir

(* The persistent proof store: a content-addressed, on-disk cache of
   what the untrusted search found for each function — the summary walks
   of its SCC and the loop invariants of its guard-discharge
   certificates.

   Trust story (see DESIGN.md): the store is OUTSIDE the trusted computing
   base.  An entry holds no theorem, no program and no derivation, only
   search hints.  A warm run runs the whole pipeline from the fresh parse
   and offers the hints where the search would run: a recorded walk
   stands in for a summary walk with exactly the same inputs, and stored
   invariants stand in for the discharge fixpoint, as a certificate the
   kernel checks like any other.  A hint the kernel refuses, or whose
   prediction does not hold, costs a fresh search and demotes the entry;
   so a stale, corrupted or malicious entry can cost at most a discharge,
   and nothing it holds needs anchoring to the source.

   Integrity: entries carry a digest over the serialized payload, checked
   before deserialization, so random corruption (the bit-flip test) is
   caught before [Marshal.from_string] ever runs.  A hand-crafted entry
   with a matching digest still only offers hints.

   Keying: an entry is addressed by a digest over
     - the format/ruleset version tag (bumped whenever the kernel's rule
       base or the pipeline's semantics change),
     - the per-function driver option vector (and that of every function
       in the cone, since each member's local digest includes its own),
     - the preprocessed source of the function — its Simpl image without
       source positions, which is stable under comments/whitespace/
       reordering of unrelated code,
     - the layout environment and globals (struct layouts change
       semantics),
     - the digests of all transitively called functions ("the cone"),
       computed over the call graph's SCC condensation so mutual
       recursion needs no special-casing.
   Editing one function therefore invalidates exactly the functions whose
   cone contains it. *)

(* Bump when the entry format, or anything the hints depend on (the
   kernel rule base, the analysis), changes shape.  Tags up to ruleset-12
   followed the derivation traces entries used to hold, whose rule
   constructors moved with every change to the kernel's rule base.
   ruleset-13: entries keep search hints only (walks and discharge
   invariants) instead of programs and derivation traces, so an older
   entry would not decode as the current [fentry]. *)
let ruleset_tag = "acc-store-1/ruleset-13"

let magic = "ACC-STORE v1\n"

(* ------------------------------------------------------------------ *)
(* Content keys. *)

let hex s = Digest.to_hex (Digest.string s)

(* Direct call targets of a Simpl function body, sorted. *)
let callees_of_func (f : Ir.func) : string list =
  let acc = ref [] in
  Ir.iter_stmts (function Ir.Call (_, g, _) -> acc := g :: !acc | _ -> ()) f.Ir.body;
  List.sort_uniq String.compare !acc

(* [cone_keys ~tag ~opt_string prog] returns [(fname, key)] for every
   function of [prog].  [opt_string fname] must render every driver
   option that can influence that function's translation result.

   A function's key must cover its whole transitive call cone, including
   through mutual-recursion cycles, so we condense the call graph into
   strongly connected components (Tarjan) and digest the condensation
   bottom-up: every member of an SCC gets the digest of the whole
   component (the sorted local digests of its members plus the component
   digests of everything the component calls), which is exactly the
   "editing any member of a cycle invalidates the cycle and its callers"
   semantics, in one linear pass instead of a quadratic chained-digest
   fixpoint. *)
let cone_keys ~(tag : string) ~(opt_string : string -> string) (prog : Ir.program) :
    (string * string) list =
  (* Marshalled without sharing: the bytes then follow the values alone,
     not which of their subterms happen to be physically shared, and
     marshalling skips the sharing table.  Digests stay raw (16 bytes)
     until the final key. *)
  let image v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ]) in
  let lenv_d = image prog.Ir.lenv in
  let globals_d = image prog.Ir.globals in
  let funcs = prog.Ir.funcs in
  let local (f : Ir.func) =
    (* Digest the semantic fields of the parsed Simpl image only: name,
       signature, locals and body are position-free, so the digest is
       stable under comments, whitespace and edits to unrelated functions
       (which only shift [fpos]/[gsrc] positions). *)
    Digest.string
      (String.concat "\x00"
         [ tag; opt_string f.Ir.name;
           image (f.Ir.name, f.Ir.params, f.Ir.locals, f.Ir.ret_ty, f.Ir.body);
           lenv_d; globals_d ])
  in
  let locals = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace locals f.Ir.name (local f)) funcs;
  (* SCC condensation via the analysis library's call-graph module (the
     Tarjan that used to live here moved there so the interprocedural
     summary pass and the store share one implementation).  Emission is
     callees-first, so digesting components in order sees every callee
     component before its callers. *)
  let cg =
    Ac_analysis.Callgraph.of_edges
      (List.map (fun f -> f.Ir.name) funcs)
      (List.map (fun f -> (f.Ir.name, callees_of_func f)) funcs)
  in
  let sccs = Ac_analysis.Callgraph.sccs cg in
  let comp_of = Hashtbl.create 64 (* function -> SCC id, emission order *) in
  List.iteri
    (fun id members -> List.iter (fun m -> Hashtbl.replace comp_of m id) members)
    sccs;
  let comp_digest = Hashtbl.create 64 in
  List.iteri
    (fun id members ->
      let member_parts =
        List.sort String.compare
          (List.map (fun m -> m ^ "=" ^ Hashtbl.find locals m) members)
      in
      let callee_parts =
        List.concat_map
          (fun m ->
            List.filter_map
              (fun g ->
                match Hashtbl.find_opt comp_of g with
                | Some gid when gid <> id -> Some (g ^ "@" ^ Hashtbl.find comp_digest gid)
                | Some _ -> None (* same component: covered by member_parts *)
                | None -> Some ("extern:" ^ g))
              (Ac_analysis.Callgraph.successors cg m))
          members
        |> List.sort_uniq String.compare
      in
      Hashtbl.replace comp_digest id
        (Digest.string (String.concat "\x00" (member_parts @ callee_parts))))
    sccs;
  (* A function's key: its own local digest chained with its component's
     cone digest (so two members of one cycle still get distinct keys). *)
  List.map
    (fun f ->
      let cd = Hashtbl.find comp_digest (Hashtbl.find comp_of f.Ir.name) in
      (f.Ir.name, hex (Hashtbl.find locals f.Ir.name ^ "\x00" ^ cd)))
    funcs

(* ------------------------------------------------------------------ *)
(* Entries. *)

(* One discharge round's hint ([Ac_analysis.hint]) with the digest of
   the summary slice it was solved under (the table restricted to the
   function's transitive callees, [Domains.digest_of_entry_strings]).  A
   run offers the hint only when its own slice has the same digest: a
   callee's summary can change without the function's key changing (a
   budget, or another caller's context). *)
type cert = { c_slice : string; c_hint : Ac_analysis.hint }

(* What the untrusted search found for one function.  [e_certs] holds
   the hint of each discharge round, after L2 and after heap/word
   abstraction ([None]: that round kept nothing).  [e_walks] holds the
   summary walks the function's SCC made ([Summary.infer]); a later run
   whose SCC members all have entries reuses a walk whose inputs are
   exactly the current ones instead of walking.  Both are untrusted: a
   wrong one can only cost a discharge, since the kernel checks every
   certificate and every summary slice it carries. *)
type fentry = {
  e_name : string;
  e_walks : Ac_analysis.Summary.walk list;
  e_certs : cert option * cert option;
}

(* ------------------------------------------------------------------ *)
(* Fault-tolerant I/O plumbing. *)

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The store cannot depend on the core library (the dependency points the
   other way), so fault injection reaches it through this hook rather
   than through [Faults] directly; [Faults.install] wires it up.  The
   hook is consulted at the top of every I/O attempt and may raise
   [Sys_error] to simulate a transient failure. *)
let io_hook : (string -> unit) option ref = ref None
let set_io_hook h = io_hook := h

(* Retry a whole I/O operation a few times with exponential backoff.
   Each attempt re-runs [f] from scratch (reopening files), so a failure
   mid-attempt never leaves a half-consumed channel behind.  Only
   plausibly-transient exceptions ([Sys_error], [Unix_error]) are
   retried; anything else propagates immediately.  [on_retry] is called
   once per failed attempt that is retried. *)
let io_attempts = 3

let with_io_retry ~on_retry (op : string) (f : unit -> 'a) : 'a =
  let rec go attempt =
    match
      (match !io_hook with Some h -> h op | None -> ());
      f ()
    with
    | v -> v
    | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
      if attempt >= io_attempts then raise e
      else begin
        on_retry ();
        Unix.sleepf (0.002 *. Float.pow 2.0 (float_of_int (attempt - 1)));
        go (attempt + 1)
      end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Quarantine: where damaged files go instead of aborting the run. *)

let quarantine_dirname = ".quarantine"
let quarantine_dir dir = Filename.concat dir quarantine_dirname

(* Tmp files from [save]'s atomic-publication protocol: skipping anything
   younger than the grace window is what keeps recovery/gc from deleting
   a live writer's in-flight file out from under it. *)
let default_tmp_grace_s = 60.
let is_tmp_file f =
  String.length f >= 13
  && String.sub f 0 8 = ".acc-tmp"
  && Filename.check_suffix f ".part"

(* Move a damaged file into [.quarantine/]; best-effort (a concurrent
   process may have quarantined or replaced it already). *)
let quarantine_file ~dir fname =
  try
    mkdirs (quarantine_dir dir);
    Unix.rename (Filename.concat dir fname)
      (Filename.concat (quarantine_dir dir) fname);
    true
  with Unix.Unix_error _ | Sys_error _ -> false

(* Sweep orphaned tmp files (a writer killed mid-write leaves its
   [.acc-tmp*.part] behind) into quarantine.  Cheap enough to run on
   every open; full entry verification is [doctor]'s job. *)
let recover_scan ?(grace_s = default_tmp_grace_s) ~(dir : string) () : int =
  if not (Sys.file_exists dir) then 0
  else begin
    let now = Unix.gettimeofday () in
    let moved = ref 0 in
    Array.iter
      (fun f ->
        if is_tmp_file f then begin
          match Unix.stat (Filename.concat dir f) with
          | st ->
            if now -. st.Unix.st_mtime > grace_s && quarantine_file ~dir f then
              incr moved
          | exception Unix.Unix_error _ -> ()
        end)
      (try Sys.readdir dir with Sys_error _ -> [||]);
    !moved
  end

(* ------------------------------------------------------------------ *)
(* The on-disk store. *)

type t = {
  dir : string;
  tag : string;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable io_retries : int; (* I/O attempts that failed and were retried *)
}

let dir t = t.dir
let tag t = t.tag
let hits t = t.hits
let misses t = t.misses
let corrupt_count t = t.corrupt
let io_retries t = t.io_retries

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.corrupt <- 0;
  t.io_retries <- 0

let count_retry t () = t.io_retries <- t.io_retries + 1

(* A hit whose hint the kernel refused is really a miss; the driver
   reclassifies it so counters describe usable entries. *)
let demote_hit t =
  t.hits <- max 0 (t.hits - 1);
  t.misses <- t.misses + 1

let open_ ?(tag = ruleset_tag) ?grace_s ~(dir : string) () : (t, string) result =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Result.error (Printf.sprintf "store: %s exists and is not a directory" dir)
  else begin
    (* Crash recovery on open: orphaned tmp files from a killed writer are
       quarantined (never deleted — they may be evidence) so the directory
       listing stays clean for gc and stat. *)
    ignore (recover_scan ?grace_s ~dir ());
    Result.ok { dir; tag; hits = 0; misses = 0; corrupt = 0; io_retries = 0 }
  end

let entry_path dir key = Filename.concat dir (key ^ ".acc")

type load_result = Hit of fentry | Miss | Corrupt of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse "<magic><key>\n<digest>\n<payload>"; digest is checked before the
   payload is deserialized. *)
let decode ~key (raw : string) : (fentry, string) result =
  let fail m = Result.error m in
  let mlen = String.length magic in
  if String.length raw < mlen || String.sub raw 0 mlen <> magic then
    fail "bad magic (format version mismatch?)"
  else begin
    match String.index_from_opt raw mlen '\n' with
    | None -> fail "truncated header"
    | Some key_end -> (
      let stored_key = String.sub raw mlen (key_end - mlen) in
      if stored_key <> key then fail "key mismatch (entry stored under wrong name)"
      else
        match String.index_from_opt raw (key_end + 1) '\n' with
        | None -> fail "truncated header"
        | Some dg_end ->
          let dg = String.sub raw (key_end + 1) (dg_end - key_end - 1) in
          let pofs = dg_end + 1 in
          if Digest.to_hex (Digest.substring raw pofs (String.length raw - pofs)) <> dg
          then fail "payload digest mismatch (corrupt entry)"
          else begin
            match (Marshal.from_string raw pofs : fentry) with
            | e -> Result.ok e
            | exception _ -> fail "payload deserialization failed"
          end)
  end

let load (t : t) ~(key : string) : load_result =
  Ac_obs.Obs.span ~cat:"store" "store.load" @@ fun () ->
  let path = entry_path t.dir key in
  if not (Sys.file_exists path) then begin
    t.misses <- t.misses + 1;
    Miss
  end
  else begin
    (* A damaged entry degrades to a miss *and* is moved aside, so the
       next run doesn't pay the read-and-reject cost again and [doctor]
       can report what was found.  Quarantining is best-effort: if the
       rename loses a race the entry was concurrently repaired or
       quarantined by someone else. *)
    let poison m =
      t.corrupt <- t.corrupt + 1;
      t.misses <- t.misses + 1;
      ignore (quarantine_file ~dir:t.dir (key ^ ".acc"));
      Corrupt m
    in
    match with_io_retry ~on_retry:(count_retry t) "read" (fun () -> read_file path) with
    | exception e ->
      poison (Printf.sprintf "unreadable entry %s: %s" path (Printexc.to_string e))
    | raw -> (
      match decode ~key raw with
      | Result.Ok e ->
        t.hits <- t.hits + 1;
        Hit e
      | Result.Error m -> poison (Printf.sprintf "corrupt entry %s: %s" path m))
  end

(* Atomic publication: write a temp file in the store directory, then
   rename over the final name.  Concurrent writers of the same key race
   benignly (same content — keys are content addresses).  Writes are
   retried on transient I/O errors (each attempt starts over with a
   fresh tmp file), and publication happens under the store lock when it
   can be had quickly — the lock is best-effort here because the atomic
   rename is what carries correctness; it exists to shrink the window in
   which gc can observe the in-flight tmp file. *)
let save (t : t) ~(key : string) (e : fentry) : (unit, string) result =
  Ac_obs.Obs.span ~cat:"store" "store.save" @@ fun () ->
  try
    mkdirs t.dir;
    let payload = Marshal.to_string e [] in
    let dg = Digest.to_hex (Digest.string payload) in
    with_io_retry ~on_retry:(count_retry t) "write" (fun () ->
        let tmp = Filename.temp_file ~temp_dir:t.dir ".acc-tmp" ".part" in
        let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
        match
          let oc = open_out_bin tmp in
          (try
             output_string oc magic;
             output_string oc (key ^ "\n");
             output_string oc (dg ^ "\n");
             output_string oc payload;
             close_out oc
           with e ->
             close_out_noerr oc;
             raise e);
          Lock.with_lock ~timeout_s:1.0 ~dir:t.dir (fun ~locked:_ ->
              Sys.rename tmp (entry_path t.dir key))
        with
        | () -> ()
        | exception e -> cleanup (); raise e);
    Result.ok ()
  with e -> Result.error (Printf.sprintf "store: cannot save entry: %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Maintenance (the `acc cache` subcommands). *)

let entry_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".acc")
    |> List.map (Filename.concat dir)

type dstat = { entries : int; bytes : int }

let stat ~(dir : string) : (dstat, string) result =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Result.error (Printf.sprintf "store: %s is not a directory" dir)
  else
    try
      let files = entry_files dir in
      let bytes =
        List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files
      in
      Result.ok { entries = List.length files; bytes }
    with e -> Result.error (Printf.sprintf "store: %s" (Printexc.to_string e))

let clear ~(dir : string) : (int, string) result =
  try
    let files = entry_files dir in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files;
    Result.ok (List.length files)
  with e -> Result.error (Printf.sprintf "store: %s" (Printexc.to_string e))

(* Keep the newest [max_entries] by modification time, remove the rest.

   Runs under the store lock (strictly — gc is maintenance, so failing
   loudly beats racing) and sweeps orphaned tmp files older than the
   grace window into quarantine first.  Young tmp files are left alone:
   they belong to a writer that is mid-publication right now, and
   deleting one would make its rename fail.  A concurrently *published*
   entry is never at risk — it either predates the listing (counted) or
   postdates it (untouched). *)
let gc ?grace_s ~(dir : string) ~(max_entries : int) () : (int, string) result =
  match Lock.acquire ~timeout_s:10.0 ~dir () with
  | Error m -> Result.error m
  | Ok lock ->
    Fun.protect
      ~finally:(fun () -> Lock.release lock)
      (fun () ->
        try
          ignore (recover_scan ?grace_s ~dir ());
          let files = entry_files dir in
          let with_mtime =
            List.filter_map
              (fun f ->
                (* A load may quarantine an entry between listing and
                   stat; skip it rather than abort the whole gc. *)
                match Unix.stat f with
                | st -> Some (f, st.Unix.st_mtime)
                | exception Unix.Unix_error _ -> None)
              files
            |> List.sort (fun (_, a) (_, b) -> compare b a)
          in
          let doomed = List.filteri (fun i _ -> i >= max 0 max_entries) with_mtime in
          List.iter (fun (f, _) -> try Sys.remove f with Sys_error _ -> ()) doomed;
          Result.ok (List.length doomed)
        with e -> Result.error (Printf.sprintf "store: %s" (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Doctor: full integrity scan (the heavyweight sibling of the cheap
   open-time [recover_scan]). *)

type doctor_report = {
  dr_scanned : int; (* entries examined *)
  dr_ok : int; (* entries whose digest and payload decode cleanly *)
  dr_quarantined : int; (* damaged entries moved to .quarantine/ now *)
  dr_tmp_quarantined : int; (* orphaned tmp files moved now *)
  dr_quarantine_files : int; (* files sitting in .quarantine/ after the scan *)
  dr_purged : int; (* quarantined files deleted (with ~purge:true) *)
}

(* Verify every entry end-to-end: read, digest-check, deserialize.  Any
   failure quarantines the entry.  After the scan every surviving entry
   decodes (its hints are checked where a run uses them, so format
   integrity is all doctor owes).
   With [purge] the quarantine directory is emptied afterwards. *)
let doctor ?grace_s ?(purge = false) ~(dir : string) () : (doctor_report, string) result =
  match Lock.acquire ~timeout_s:10.0 ~dir () with
  | Error m -> Result.error m
  | Ok lock ->
    Fun.protect
      ~finally:(fun () -> Lock.release lock)
      (fun () ->
        try
          let tmp_quarantined = recover_scan ?grace_s ~dir () in
          let scanned = ref 0 and ok = ref 0 and quarantined = ref 0 in
          List.iter
            (fun path ->
              incr scanned;
              let fname = Filename.basename path in
              let key = Filename.chop_suffix fname ".acc" in
              let damaged =
                match read_file path with
                | exception _ -> true
                | raw -> Result.is_error (decode ~key raw)
              in
              if damaged then begin
                if quarantine_file ~dir fname then incr quarantined
              end
              else incr ok)
            (entry_files dir);
          let qdir = quarantine_dir dir in
          let qfiles =
            if Sys.file_exists qdir then
              (try Array.to_list (Sys.readdir qdir) with Sys_error _ -> [])
            else []
          in
          let purged = ref 0 in
          if purge then
            List.iter
              (fun f ->
                let p = Filename.concat qdir f in
                (* Quarantined "files" can be directories (an entry path
                   replaced by a directory is how an unreadable entry
                   manifests); remove either shape. *)
                try
                  if Sys.is_directory p then Unix.rmdir p else Sys.remove p;
                  incr purged
                with Sys_error _ | Unix.Unix_error _ -> ())
              qfiles;
          Result.ok
            {
              dr_scanned = !scanned;
              dr_ok = !ok;
              dr_quarantined = !quarantined;
              dr_tmp_quarantined = tmp_quarantined;
              dr_quarantine_files = (if purge then List.length qfiles - !purged else List.length qfiles);
              dr_purged = !purged;
            }
        with e -> Result.error (Printf.sprintf "store: %s" (Printexc.to_string e)))
