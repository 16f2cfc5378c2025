(* LCF-style theorems.

   [t] is abstract outside this module (see the interface): the only way to
   obtain one is [by], which runs the kernel's inference function.  A
   theorem therefore carries, by construction, a valid derivation of its
   conclusion from the rule base — exactly the discipline Isabelle enforces
   for the paper's abstraction proofs.  [check] independently re-walks the
   stored derivation, re-running every inference; it exists so that external
   audits do not need to trust the phase code at all. *)

type t = {
  concl : Judgment.judgment;
  rule : Rules.rule;
  prems : t list;
  d_depth : int;
  d_size : int;
      (* Derivation shape, maintained incrementally at mint time (a fold
         over [prems], which the constructor is holding anyway).  The
         recursive definitions — depth = longest premise path, size =
         applications counted with multiplicity under sharing — would
         cost a full derivation walk per query, which telemetry performs
         once per function chain; these fields make that O(1).  They
         carry no logical content and [check] never reads them. *)
}

exception Kernel_error of string

let concl t = t.concl
let rule_name t = Rules.rule_name t.rule
let rule t = t.rule
let premises t = t.prems

(* Test-only fault injection: when installed, the hook is consulted before
   every proof-constructing inference ([by]/[by_opt]) and, by answering
   [true], makes that rule application fail as if its side conditions had
   not held.  It deliberately does NOT affect [check]: theorems constructed
   before (or despite) injected faults remain re-validatable, which is
   exactly the property the robustness suite asserts.  Never installed in
   production code paths. *)
let fault_hook : (string -> bool) option ref = ref None

let set_fault_hook h = fault_hook := h

let injected rule =
  match !fault_hook with Some f -> f (Rules.rule_name rule) | None -> false

(* Observation hook: when installed, called with the dense rule id
   ([Rules.rule_id]) and the rule instance of every
   SUCCESSFUL mint ([by]/[by_opt]).  The kernel computes nothing else for
   it: a hook that wants a name asks [Rules.rule_name] itself, once per id.
   Strictly write-only telemetry — the hook cannot veto, alter or
   construct a theorem, and the kernel never reads anything back from it,
   so the trusted surface is unchanged.  It is installed from outside (the
   CLI's effort accounting); the kernel itself depends on no
   observability code and defaults to a no-op.  Cost when uninstalled:
   one ref read per mint. *)
let obs_hook : (int -> Rules.rule -> unit) option ref = ref None

let set_obs_hook h = obs_hook := h

let observed rule =
  match !obs_hook with Some f -> f (Rules.rule_id rule) rule | None -> ()

let rec shape d s = function
  | [] -> (d + 1, s + 1)
  | p :: tl -> shape (if p.d_depth > d then p.d_depth else d) (s + p.d_size) tl

let mint concl rule prems =
  let d_depth, d_size = shape 0 0 prems in
  { concl; rule; prems; d_depth; d_size }

(* [Rules.infer], total: an instance whose inference raises (an ill-typed
   constant folded, a struct the layout does not declare, ...) is refused
   like any failed side condition.  Refusing is always sound; running out
   of memory or stack still propagates. *)
let infer ctx rule prems =
  match Rules.infer ctx rule (List.map (fun p -> p.concl) prems) with
  | r -> r
  | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
  | exception e -> Result.Error ("inference raised " ^ Printexc.to_string e)

let by (ctx : Rules.ctx) (rule : Rules.rule) (prems : t list) : t =
  if injected rule then
    raise (Kernel_error (Printf.sprintf "%s: injected fault" (Rules.rule_name rule)));
  match infer ctx rule prems with
  | Result.Ok concl ->
    observed rule;
    mint concl rule prems
  | Result.Error msg ->
    raise (Kernel_error (Printf.sprintf "%s: %s" (Rules.rule_name rule) msg))

let by_opt ctx rule prems =
  if injected rule then None
  else
    match infer ctx rule prems with
    | Result.Ok concl ->
      observed rule;
      Some (mint concl rule prems)
    | Result.Error _ -> None

(* Re-validate an entire derivation bottom-up. *)
let rec check (ctx : Rules.ctx) (t : t) : (unit, string) result =
  let rec check_all = function
    | [] -> Result.ok ()
    | p :: rest -> (
      match check ctx p with
      | Result.Ok () -> check_all rest
      | Result.Error _ as e -> e)
  in
  match check_all t.prems with
  | Result.Error _ as e -> e
  | Result.Ok () -> (
    match infer ctx t.rule t.prems with
    | Result.Ok concl ->
      if Judgment.judgment_equal concl t.concl then Result.ok ()
      else Result.error ("conclusion mismatch at rule " ^ Rules.rule_name t.rule)
    | Result.Error msg -> Result.error (Rules.rule_name t.rule ^ ": " ^ msg))

(* Statistics and display. *)
let size t = t.d_size
let depth t = t.d_depth

let rec pp_derivation ?(depth = 0) ?(max_depth = max_int) fmt t =
  if depth <= max_depth then begin
    Format.fprintf fmt "%s%s: %a@." (String.make (2 * depth) ' ') (rule_name t)
      Judgment.pp_judgment t.concl;
    List.iter (pp_derivation ~depth:(depth + 1) ~max_depth fmt) t.prems
  end

let derivation_to_string ?max_depth t =
  Format.asprintf "%a" (fun fmt -> pp_derivation ?max_depth fmt) t
