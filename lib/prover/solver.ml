module B = Ac_bignum
open Term

(* The automatic prover ("auto"): simplification, case splitting, congruence
   closure and linear integer arithmetic.

   This is deliberately a *generic* prover over ideal integers and split
   heaps: the paper's thesis is that, once AutoCorres has removed machine
   words and byte-level memory, ordinary automation of this kind discharges
   the verification conditions (Sec 5).  The same prover, pointed at
   word-level goals, fails exactly where Isabelle users report pain
   (footnote 2) — see the benchmarks. *)

type outcome =
  | Proved
  | Unknown of Term.t list list (* open branches (their remaining facts) *)
  | Refuted of (string * Term.value) list (* countermodel for the original goal *)

type stats = { mutable branches : int; mutable cc_closed : int; mutable la_closed : int }

let new_stats () = { branches = 0; cc_closed = 0; la_closed = 0 }

(* ------------------------------------------------------------------ *)
(* Div/mod elaboration: replace div/mod by fresh variables constrained by
   the division identity, making the arithmetic linear. *)

let elaborate_divmod (facts : Term.t list) : Term.t list =
  let counter = ref 0 in
  let table : (Term.t * (Term.t * Term.t)) list ref = ref [] in
  (* association by [Term.equal], not the polymorphic equality *)
  let assoc_term key l =
    List.find_map (fun (k, v) -> if Term.equal k key then Some v else None) l
  in
  let extra = ref [] in
  let rec walk (t : Term.t) : Term.t =
    match t with
    | App (((Div | Mod) as op), [ a; (Int k as divisor) ]) when B.gt k B.zero -> (
      let a = walk a in
      let key = App (Div, [ a; divisor ]) in
      let q, r =
        match assoc_term key !table with
        | Some qr -> qr
        | None ->
          incr counter;
          let q = Var (Printf.sprintf "q%d'" !counter, Sint) in
          let r = Var (Printf.sprintf "r%d'" !counter, Sint) in
          table := (key, (q, r)) :: !table;
          (* Truncated division identity, valid for dividends of either
             sign (the remainder takes the dividend's sign):
               a = k*q + r  ∧  (a ≥ 0 → 0 ≤ r < k ∧ q ≥ 0)
                            ∧  (a < 0 → -k < r ≤ 0 ∧ q ≤ 0) *)
          extra :=
            eq_t a (add_t (mul_t (Int k) q) r)
            :: imp_t (le_t zero a)
                 (conj [ le_t zero r; lt_t r (Int k); le_t zero q ])
            :: imp_t (lt_t a zero)
                 (conj [ lt_t (Int (B.neg k)) r; le_t r zero; le_t q zero ])
            :: !extra;
          (q, r)
      in
      match op with Div -> q | _ -> r)
    | App (f, args) -> App (f, List.map walk args)
    | _ -> t
  in
  let facts = List.map walk facts in
  facts @ !extra

(* ------------------------------------------------------------------ *)
(* Splitting: one step of tableau expansion on a composite fact; facts are
   things assumed true on the current branch. *)

let rec split_fact (t : Term.t) : [ `Units of Term.t list | `Branch of Term.t list list | `Literal ]
    =
  match t with
  | App (And, [ a; b ]) -> `Units [ a; b ]
  | App (Not, [ App (Or, [ a; b ]) ]) -> `Units [ not_t a; not_t b ]
  | App (Not, [ App (Imp, [ a; b ]) ]) -> `Units [ a; not_t b ]
  | App (Not, [ App (Not, [ a ]) ]) -> `Units [ a ]
  | App (Or, [ a; b ]) -> `Branch [ [ a ]; [ b ] ]
  | App (Imp, [ a; b ]) -> `Branch [ [ not_t a ]; [ b ] ]
  | App (Not, [ App (And, [ a; b ]) ]) -> `Branch [ [ not_t a ]; [ not_t b ] ]
  | App (Eq, [ a; b ]) when sort_equal (sort_of a) Sbool && sort_equal (sort_of b) Sbool ->
    `Branch [ [ a; b ]; [ not_t a; not_t b ] ]
  | App (Not, [ App (Eq, [ a; b ]) ])
    when sort_equal (sort_of a) Sbool && sort_equal (sort_of b) Sbool ->
    `Branch [ [ a; not_t b ]; [ not_t a; b ] ]
  | App (Ite, [ c; a; b ]) when sort_equal (sort_of t) Sbool ->
    `Branch [ [ c; a ]; [ not_t c; b ] ]
  | App (Not, [ App (Ite, [ c; a; b ]) ]) -> `Branch [ [ c; not_t a ]; [ not_t c; not_t b ] ]
  | _ -> `Literal

and find_ite (t : Term.t) : Term.t option =
  (* an ite in a non-boolean position, to split on *)
  match t with
  | App (Ite, [ c; _; _ ]) when not (sort_equal (sort_of t) Sbool) -> Some c
  | App (_, args) ->
    List.fold_left
      (fun acc a -> match acc with Some _ -> acc | None -> find_ite a)
      None args
  | _ -> None

(* Replace ites under a decided condition. *)
let rec resolve_ite cond value (t : Term.t) : Term.t =
  match t with
  | App (Ite, [ c; a; b ]) when Term.equal c cond ->
    if value then resolve_ite cond value a else resolve_ite cond value b
  | App (f, args) -> App (f, List.map (resolve_ite cond value) args)
  | _ -> t

(* ------------------------------------------------------------------ *)
(* Branch closing. *)

(* Recover an equation pair from a linear-canonicalised integer equality
   (0 = u - v, 0 = u - c, ...), so congruence closure sees through the
   simplifier's normal form. *)
let as_eq_pair a b : (Term.t * Term.t) option =
  let d = Simp.Lin.sub (Simp.linearize b) (Simp.linearize a) in
  match d.Simp.Lin.terms with
  | [ (u, c1); (v, c2) ]
    when B.is_zero d.Simp.Lin.const && B.equal (B.abs c1) B.one && B.equal (B.add c1 c2) B.zero
    ->
    Some (u, v)
  | [ (u, c1) ] when B.equal (B.abs c1) B.one ->
    let rhs = if B.equal c1 B.one then B.neg d.Simp.Lin.const else d.Simp.Lin.const in
    Some (u, Int rhs)
  | _ -> Some (a, b)

let close_with_cc (lits : Term.t list) : bool =
  let cc = Cc.create () in
  (* Intern everything first so later merges re-congruence all
     applications, then equalities, then disequalities. *)
  List.iter (fun l -> ignore (Cc.intern cc l)) lits;
  List.iter
    (fun l ->
      match l with
      | App (Eq, [ a; b ]) -> (
        (match as_eq_pair a b with
        | Some (u, v) -> Cc.assert_eq cc u v
        | None -> ());
        Cc.assert_eq cc a b)
      | App (Not, [ _ ]) | Bool _ -> ()
      | a -> Cc.assert_eq cc a tt)
    lits;
  List.iter
    (fun l ->
      match l with
      | App (Not, [ App (Eq, [ a; b ]) ]) -> (
        (match as_eq_pair a b with
        | Some (u, v) -> Cc.assert_neq cc u v
        | None -> ());
        Cc.assert_neq cc a b)
      | App (Not, [ a ]) -> Cc.assert_neq cc a tt
      | Bool false -> Cc.assert_neq cc tt tt
      | _ -> ())
    lits;
  Cc.inconsistent cc

let close_with_la (lits : Term.t list) : bool =
  let arith =
    List.filter_map
      (fun l ->
        match l with
        | App ((Le | Lt), _) -> Some l
        | App (Eq, [ a; _ ]) when sort_equal (sort_of a) Sint -> Some l
        | App (Not, [ (App ((Le | Lt), _) as cmp) ]) -> La.negate_term cmp
        | _ -> None)
      lits
  in
  (* Disequalities over integers: try both strict sides on at most two of
     them (cheap completeness boost). *)
  let diseqs =
    List.filter_map
      (fun l ->
        match l with
        | App (Not, [ App (Eq, [ a; b ]) ]) when sort_equal (sort_of a) Sint -> Some (a, b)
        | _ -> None)
      lits
  in
  let rec with_diseqs base = function
    | [] -> La.unsat base
    | (a, b) :: rest when List.length rest < 3 ->
      with_diseqs (lt_t a b :: base) rest && with_diseqs (lt_t b a :: base) rest
    | _ :: rest -> with_diseqs base rest
  in
  if arith = [] then false else with_diseqs arith (if List.length diseqs <= 3 then diseqs else [])

let complementary (lits : Term.t list) : bool =
  List.exists (fun l -> Term.equal l ff) lits
  || List.exists
       (fun l ->
         match l with
         | App (Not, [ a ]) -> List.exists (Term.equal a) lits
         | _ -> List.exists (fun l' -> Term.equal l' (not_t l)) lits)
       lits

(* ------------------------------------------------------------------ *)
(* The tableau loop, under a resource budget: a branch limit (as before)
   plus an optional per-goal deadline.  Exhausting either aborts the
   refutation ([Too_hard]) and the caller degrades to [Unknown] — the goal
   stays open, soundness is untouched, and the prover cannot hang a
   pipeline that embeds it. *)

type budget = { max_branches : int; deadline_s : float option (* seconds per goal *) }

let default_budget = { max_branches = 40000; deadline_s = None }
let budget = ref default_budget

(* How many times a proof attempt ran out of budget (for `acc stats` /
   degradation reporting).  Reset by the driver per run; atomic because
   the driver's worker domains prove goals concurrently. *)
let exhaustions = Atomic.make 0

(* Test-only fault injection: answers [true] to abort the current proof
   attempt as if the budget had run out (a simulated solver timeout). *)
let fault_hook : (unit -> bool) option ref = ref None

let set_fault_hook h = fault_hook := h

exception Too_hard

(* Absolute deadline for the goal currently being proved; [prove] is not
   reentrant (nothing in the code base re-enters it), but a caller may
   prove goals in several domains at once, so the deadline is
   domain-local.  Elapsed time, not [Sys.time]: process CPU time advances
   once per busy domain, which would make per-goal deadlines fire early.
   Monotonic nanoseconds, not [Unix.gettimeofday]: a system-clock step
   must not cut a proof short and so change its outcome. *)
let deadline_key : int64 option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let out_of_time () =
  match Domain.DLS.get deadline_key with
  | None -> false
  | Some d -> Int64.compare (Monotonic_clock.now ()) d > 0

let rec refute (stats : stats) (pending : Term.t list) (lits : Term.t list) : bool =
  stats.branches <- stats.branches + 1;
  if stats.branches > !budget.max_branches then raise Too_hard;
  (* The clock is polled on the first branch and then every 64th, keeping
     its cost off the hot path. *)
  if stats.branches land 63 = 1 && out_of_time () then raise Too_hard;
  (match !fault_hook with Some f when f () -> raise Too_hard | _ -> ());
  match pending with
  | [] ->
    (* leaf: try the closing procedures *)
    if complementary lits then true
    else if close_with_cc lits then begin
      stats.cc_closed <- stats.cc_closed + 1;
      true
    end
    else if close_with_la lits then begin
      stats.la_closed <- stats.la_closed + 1;
      true
    end
    else begin
      (* last resort: split on an ite condition buried in a literal *)
      match
        List.fold_left
          (fun acc l -> match acc with Some _ -> acc | None -> find_ite l)
          None lits
      with
      | Some c ->
        let with_c =
          c :: List.map (fun l -> hc (Simp.normalize (resolve_ite c true l))) lits
        in
        let without_c =
          not_t c :: List.map (fun l -> hc (Simp.normalize (resolve_ite c false l))) lits
        in
        refute stats with_c [] && refute stats without_c []
      | None -> false
    end
  | f :: rest -> (
    (* Normalised facts are hash-consed: branch literals end up maximally
       shared, so the membership tests above ([complementary], the literal
       lookups) hit [Term.equal]'s physical fast path. *)
    let f = hc (Simp.normalize f) in
    match f with
    | Bool true -> refute stats rest lits
    | Bool false -> true
    | _ -> (
      match split_fact f with
      | `Units us -> refute stats (us @ rest) lits
      | `Branch branches ->
        List.for_all (fun br -> refute stats (br @ rest) lits) branches
      | `Literal ->
        if List.exists (Term.equal (not_t f)) lits then true
        else refute stats rest (f :: lits)))

(* ------------------------------------------------------------------ *)
(* Countermodel search: random assignments evaluated against the goal. *)

let try_refute ?(attempts = 400) (hyps : Term.t list) (goal : Term.t) :
    (string * Term.value) list option =
  let vars =
    List.sort_uniq
      (fun (x, s) (y, u) ->
        let c = String.compare x y in
        if c <> 0 then c else sort_compare s u)
      (List.concat_map var_sorts (goal :: hyps))
  in
  let rand = Random.State.make [| 0xBEEF |] in
  let sample (s : sort) : Term.value =
    match s with
    | Sbool -> Vbool (Random.State.bool rand)
    | Sint -> (
      match Random.State.int rand 8 with
      | 0 -> Vint B.zero
      | 1 -> Vint B.one
      | 2 -> Vint (B.pred (B.pow2 32))
      | 3 -> Vint (B.pow2 31)
      | 4 -> Vint (B.neg (B.of_int (Random.State.int rand 1000)))
      | _ -> Vint (B.of_int (Random.State.int rand 1_000_000)))
    | Sarr _ -> Varr ([], Vint B.zero)
    | Sseq ->
      Vseq
        (List.init (Random.State.int rand 4) (fun _ ->
             Vint (B.of_int (Random.State.int rand 6))))
  in
  let rec go n =
    if n <= 0 then None
    else begin
      let env = List.map (fun (x, s) -> (x, sample s)) vars in
      let interp = Seq.interp in
      let is_bool b t =
        match Term.eval ~interp env t with Vbool b' -> Bool.equal b b' | _ -> false
      in
      match List.for_all (is_bool true) hyps && is_bool false goal with
      | true -> Some env
      | false -> go (n - 1)
      | exception Term.Eval_failed _ -> go (n - 1)
    end
  in
  go attempts

(* ------------------------------------------------------------------ *)

let prove ?(hyps = []) (goal : Term.t) : outcome * stats =
  let stats = new_stats () in
  Domain.DLS.set deadline_key
    (Option.map
       (fun d -> Int64.add (Monotonic_clock.now ()) (Int64.of_float (d *. 1e9)))
       !budget.deadline_s);
  let facts =
    List.map hc (elaborate_divmod (List.map Simp.normalize (not_t goal :: hyps)))
  in
  let refuted =
    match refute stats facts [] with
    | r -> r
    | exception Too_hard ->
      Atomic.incr exhaustions;
      false
  in
  Domain.DLS.set deadline_key None;
  match refuted with
  | true -> (Proved, stats)
  | false -> (
    match try_refute hyps goal with
    | Some model -> (Refuted model, stats)
    | None -> (Unknown [], stats))

let is_proved = function Proved -> true | _ -> false

(* Convenience: prove and return a boolean. *)
let holds ?hyps goal = is_proved (fst (prove ?hyps goal))
