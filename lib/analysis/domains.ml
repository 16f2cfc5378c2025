module A = Ac_kernel.Absdom

(* Analysis-side domain machinery, shared by the intraprocedural pass
   ([Ac_analysis], which re-exports most of this for compatibility) and
   the interprocedural summary engine ([Summary]):

   - the resource budget and the widening fixpoint solver over [A.aenv]
     (the kernel's [A.walk] is parameterised by a [solver]; the trusted
     one lives in [Absdom.check_solver], this untrusted one may widen
     and may give up),
   - the lattice of summaries (ascending from a ⊥ "no outcome yet" claim,
     used by the bottom-up SCC fixpoint),
   - digests and restrictions of summary tables (store keys, certificate
     slimming).

   Nothing here is trusted: a bug loses precision or produces a summary
   table the kernel's [check_sums] rejects. *)

(* ------------------------------------------------------------------ *)
(* Budget. *)

type budget = {
  max_rounds : int;  (* widen/join rounds per loop *)
  max_steps : int;  (* iterate calls per analysed function *)
  deadline_s : float option;  (* elapsed seconds per analysed function, monotonic *)
}

let default_budget = { max_rounds = 40; max_steps = 20_000; deadline_s = None }
let budget = ref default_budget

(* How many times the analysis ran out of budget (for `acc stats`).  Reset
   by the driver per run. *)
let exhaustions = Atomic.make 0

(* Test-only fault injection: answers [true] to make the current fixpoint
   behave as if its fuel were exhausted. *)
let fault_hook : (unit -> bool) option ref = ref None

let set_fault_hook h = fault_hook := h

let widen_after = 3

(* ------------------------------------------------------------------ *)
(* The solver.  Joins for a few rounds, then widens; loop bodies walked
   during iteration report guard verdicts against not-yet-stable
   environments, so [on_guard] is muted inside [solve] and only the final
   stabilised walk (performed by [A.walk] after [solve] returns) reports:
   one walk under this solver hears each guard occurrence exactly once.

   The fixpoint runs under the budget above: a per-loop round limit, a
   per-function step limit (total [iterate] calls across all loops of one
   walk) and an optional elapsed-time deadline.  Exhausting any of them
   answers ⊤ for the remaining loops — precision is lost (guards stay,
   nothing discharges), soundness and availability are not.  [spent]
   turns true when this solver has run out. *)

let fixpoint_solver ?(on_guard = fun _ _ _ -> ()) ?(sums = []) ?(on_call = fun _ _ -> ())
    ?(spent = ref false) (tbl : (int, A.aenv) Hashtbl.t) : A.solver =
  let muted = ref false in
  let steps = ref 0 in
  (* Monotonic elapsed time (see Solver): CPU time races ahead under
     parallel workers, and a system-clock step must not cut a run short. *)
  let deadline = Option.map (fun d -> Ac_obs.Obs.mono_s () +. d) !budget.deadline_s in
  let out_of_budget () =
    !spent
    || !steps >= !budget.max_steps
    || (match deadline with
       | Some d -> !steps land 15 = 0 && Ac_obs.Obs.mono_s () > d
       | None -> false)
    || (match !fault_hook with Some f -> f () | None -> false)
  in
  let exhaust () =
    if not !spent then begin
      spent := true;
      Atomic.incr exhaustions
    end;
    A.env_top
  in
  {
    A.solve =
      (fun idx head iterate ->
        let was = !muted in
        muted := true;
        let rec go round cur =
          if round > !budget.max_rounds || out_of_budget () then exhaust ()
          else begin
            incr steps;
            match iterate cur with
            | None -> cur
            | Some nxt ->
              if A.env_leq nxt cur then cur
              else if round >= widen_after then go (round + 1) (A.env_widen cur nxt)
              else go (round + 1) (A.env_join cur nxt)
          end
        in
        let inv = go 0 head in
        muted := was;
        Hashtbl.replace tbl idx inv;
        inv);
    A.on_guard = (fun k c v -> if not !muted then on_guard k c v);
    A.sums = sums;
    A.on_call = (fun g ds -> if not !muted then on_call g ds);
  }

(* ------------------------------------------------------------------ *)
(* The summary lattice.  Ascending from [sum_bottom] ("no outcome yet"),
   as the optimistic SCC fixpoint wants; [s_invs] is not part of the
   order — the final harvest walk supplies it. *)

let sum_bottom (args : A.vdom list) : A.summary =
  { A.s_args = args; s_ret = A.Dtop; s_noret = true; s_throws = false; s_invs = [] }

let sum_leq (a : A.summary) (b : A.summary) : bool =
  (a.A.s_noret || ((not b.A.s_noret) && A.vdom_leq a.A.s_ret b.A.s_ret))
  && ((not a.A.s_throws) || b.A.s_throws)

let sum_combine f (a : A.summary) (b : A.summary) : A.summary =
  {
    a with
    A.s_noret = a.A.s_noret && b.A.s_noret;
    s_ret =
      (if a.A.s_noret then b.A.s_ret
       else if b.A.s_noret then a.A.s_ret
       else f a.A.s_ret b.A.s_ret);
    s_throws = a.A.s_throws || b.A.s_throws;
    s_invs = b.A.s_invs;
  }

let sum_join = sum_combine A.vdom_join
let sum_widen = sum_combine A.vdom_widen

(* ------------------------------------------------------------------ *)
(* Sizes (for `acc stats --profile`). *)

let rec vdom_size (d : A.vdom) : int =
  match d with
  | A.Dtuple ds -> 1 + List.fold_left (fun acc d -> acc + vdom_size d) 0 ds
  | _ -> 1

let env_size (e : A.aenv) : int =
  let m f = A.SMap.fold (fun _ d acc -> acc + vdom_size d) (f e) 0 in
  m (fun e -> e.A.avars) + m (fun e -> e.A.aglobs)

let summary_size (s : A.summary) : int =
  List.fold_left (fun acc d -> acc + vdom_size d) (vdom_size s.A.s_ret) s.A.s_args
  + List.fold_left (fun acc (_, e) -> acc + env_size e) 0 s.A.s_invs

(* ------------------------------------------------------------------ *)
(* Table plumbing: deterministic digests (the store offers a discharge
   hint only under the summary slice it was solved under) and restriction
   to a callee cone (certificates only carry the summaries their
   verification walk can reach). *)

(* [restrict sums names]: the entries of [sums] named in [names], in the
   table's order.  Apply it to the table once and to each cone after: the
   partial application indexes the table by name, so a cone costs lookups
   of its own names, not a scan of the whole table. *)
let restrict (sums : A.sums) : string list -> A.sums =
  let index = Hashtbl.create 64 in
  List.iteri (fun i ((g, _) as entry) -> Hashtbl.add index g (i, entry)) sums;
  fun names ->
    List.concat_map (Hashtbl.find_all index) names
    |> List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j)
    |> List.map snd

(* Digest a canonical text rendering, not [Marshal] bytes: marshalling
   records physical sharing, which differs between a table computed from
   freshly-converted bodies and one computed from unmarshalled store
   images even when the tables are equal.  The Absdom printers are
   canonical (sorted [SMap.bindings], exact interval bounds), so equal
   tables digest equally whatever their heap layout.  The digest is a
   cache-coherence key only — soundness always rests on the kernel
   re-checking the certificate's own table. *)
let summary_to_string (s : A.summary) : string =
  Printf.sprintf "(%s)->%s%s%s[%s]"
    (String.concat "," (List.map A.vdom_to_string s.A.s_args))
    (A.vdom_to_string s.A.s_ret)
    (if s.A.s_noret then "!" else "")
    (if s.A.s_throws then "^" else "")
    (String.concat ";"
       (List.map
          (fun (i, e) -> string_of_int i ^ ":" ^ A.env_to_string e)
          s.A.s_invs))

let entry_to_string ((g, ss) : string * A.summary list) : string =
  g ^ " " ^ String.concat " | " (List.map summary_to_string ss)

let digest_of_entry_strings (entries : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" entries))

let sums_digest (sums : A.sums) : string =
  digest_of_entry_strings (List.map entry_to_string sums)
