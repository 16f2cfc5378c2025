module Rules = Ac_kernel.Rules
module Judgment = Ac_kernel.Judgment
module Thm = Ac_kernel.Thm

(* Memoized derivation checking.

   [Thm.check] re-walks the stored derivation tree and re-runs every
   inference.  Derivations are DAGs, not trees: the end-to-end [Fn_chain]
   theorem holds the per-phase theorems as premises, and the rewrite
   engine's transitivity spine shares sub-derivations liberally, so the
   same physical node is re-walked once per occurrence.  This module
   memoizes the walk on the *identity* of theorem nodes, which is sound
   because a [Thm.t] is immutable and, under one inference context,
   re-checking the same node always yields the same verdict.

   Mechanism: every cache owns a private set of the [Thm.id]s (the
   kernel's read-only per-node key) that checked out Ok; a revisit is
   then one set lookup.  The set is open-addressing over a flat int
   array — ids are allocated densely, so [id land mask] spreads nearly
   collision-free and a lookup is typically a single array read, with
   capacity proportional to the nodes this cache actually verified (ids
   are process-wide and ever-growing, so anything indexed from 0 would
   pay for every theorem ever allocated).  Only successes are recorded —
   a failing node fails the whole audit immediately, so there is nothing
   to memoize.  The set is private to the cache value, so nothing
   outside this module can pre-seed it: the only way a node gets
   recorded is this module re-running its inference.

   Deliberately OUTSIDE the kernel (see DESIGN.md): a cache bug can only
   affect this module's answer — it cannot mint a theorem (the kernel
   exposes no constructor that bypasses [Rules.infer], and [Thm.id] is
   read-only), and the uncached [Thm.check] remains available as the
   ground truth (the test suite runs both on every corpus theorem).

   A cache is bound to the [Rules.ctx] it was created with, because the
   verdict of a node depends on the context ([wvars] for the one word
   rule, [W_abs], whose image is computed under the registration);
   callers create one cache per context and drop it when the run ends
   (per-run invalidation — the memo dies with the cache, so no verdict
   survives into a later run). *)

type t = {
  ctx : Rules.ctx;
  mutable slots : int array; (* -1 = empty; linear probing *)
  mutable mask : int; (* capacity - 1; capacity a power of two *)
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
}

(* Small initial capacity: the driver creates one cache per function
   group, and most groups verify a few hundred nodes at most — growth
   doubles with rehash, so a large group amortizes to O(1) anyway. *)
let create (ctx : Rules.ctx) : t =
  { ctx; slots = Array.make 256 (-1); mask = 255; count = 0; hits = 0; misses = 0 }

let hits c = c.hits
let misses c = c.misses

let rec probe slots mask id i =
  let v = Array.unsafe_get slots i in
  if v = id then true else v >= 0 && probe slots mask id ((i + 1) land mask)

let seen c id = probe c.slots c.mask id (id land c.mask)

let rec insert slots mask id i =
  if Array.unsafe_get slots i >= 0 then insert slots mask id ((i + 1) land mask)
  else Array.unsafe_set slots i id

let record c id =
  (* Keep the load factor under 1/2 so probe chains stay short. *)
  if 2 * (c.count + 1) > c.mask + 1 then begin
    let mask' = (2 * (c.mask + 1)) - 1 in
    let slots' = Array.make (mask' + 1) (-1) in
    Array.iter (fun v -> if v >= 0 then insert slots' mask' v (v land mask')) c.slots;
    c.slots <- slots';
    c.mask <- mask'
  end;
  insert c.slots c.mask id (id land c.mask);
  c.count <- c.count + 1

let rec check (c : t) (thm : Thm.t) : (unit, string) result =
  let id = Thm.id thm in
  if seen c id then begin
    c.hits <- c.hits + 1;
    Result.ok ()
  end
  else begin
    c.misses <- c.misses + 1;
    match check_node c thm with
    | Result.Ok () as ok ->
      record c id;
      ok
    | Result.Error _ as e -> e
  end

and check_node c thm =
  let rec check_prems = function
    | [] -> Result.ok ()
    | p :: rest -> (
      match check c p with Result.Ok () -> check_prems rest | Result.Error _ as e -> e)
  in
  let prems = Thm.premises thm in
  match check_prems prems with
  | Result.Error _ as e -> e
  | Result.Ok () -> (
    match Rules.infer c.ctx (Thm.rule thm) (List.map Thm.concl prems) with
    | Result.Ok concl ->
      if Judgment.judgment_equal concl (Thm.concl thm) then Result.ok ()
      else Result.error ("conclusion mismatch at rule " ^ Thm.rule_name thm)
    | Result.Error msg -> Result.error (Thm.rule_name thm ^ ": " ^ msg))
