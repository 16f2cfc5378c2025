module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module W = Ac_word
module B = Ac_bignum
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module SMap = Map.Make (String)

(* Abstract interpretation over the monadic language, in the kernel.

   Three cooperating domains run in one pass: integer intervals over
   [Ac_bignum] (so ideal ℤ/ℕ after word abstraction and wrapped machine
   words before it are both representable), pointer nullness, and
   definite values for booleans.  The pass serves the certificate checker
   behind [Rules.Rule_guard_true]: the *untrusted* analysis in
   [Ac_analysis] runs a widening fixpoint and records one loop invariant
   per [While]; [discharge] below re-walks the term, *verifying* each
   recorded invariant by a single inductiveness check (no fixpoint, no
   widening), and rewrites every guard whose condition the abstract state
   decides to [return ()].  Everything the theorem depends on is in this
   file and re-runs identically under [Thm.check] — the fixpoint engine
   stays outside the trusted base, exactly the trust story of the
   existing reflection rules.

   Soundness baseline (shared with the rest of the kernel, cf. [Esimp]):
   environments and states are well-typed and well-scoped — a variable's
   binding matches its annotation and free variables are bound.  Beyond
   that, discharging [Guard (k, c)] requires not only that [c] *decides*
   to true but that its evaluation provably cannot get stuck ([clean]
   below): [guard c = return ()] only holds when [c] evaluates, to true,
   in every reachable state.  Abstract states over-approximate the
   concrete states *reaching* a program point; executions that fail or
   get stuck beforehand stop there in both programs, which is why
   stuck-refining transfers (e.g. a [nat] cast clamping to [0, ∞)) are
   sound. *)

(* ------------------------------------------------------------------ *)
(* Intervals with optional (= infinite) bounds. *)

type itv = { lo : B.t option; hi : B.t option }

let itv_top = { lo = None; hi = None }
let itv_const n = { lo = Some n; hi = Some n }
let itv_make lo hi = { lo; hi }
let nat_top = { lo = Some B.zero; hi = None }

let itv_is_empty i =
  match (i.lo, i.hi) with Some l, Some h -> B.gt l h | _ -> false

let itv_mem n i =
  (match i.lo with None -> true | Some l -> B.le l n)
  && match i.hi with None -> true | Some h -> B.le n h

(* a ⊆ b *)
let itv_leq a b =
  itv_is_empty a
  || (match b.lo with
     | None -> true
     | Some bl -> ( match a.lo with None -> false | Some al -> B.ge al bl))
     && (match b.hi with
        | None -> true
        | Some bh -> ( match a.hi with None -> false | Some ah -> B.le ah bh))

let itv_join a b =
  if itv_is_empty a then b
  else if itv_is_empty b then a
  else
    {
      lo = (match (a.lo, b.lo) with Some x, Some y -> Some (B.min x y) | _ -> None);
      hi = (match (a.hi, b.hi) with Some x, Some y -> Some (B.max x y) | _ -> None);
    }

(* May be empty; callers treat an empty meet as bottom. *)
let itv_meet a b =
  {
    lo = (match (a.lo, b.lo) with Some x, Some y -> Some (B.max x y) | x, None -> x | None, y -> y);
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (B.min x y) | x, None -> x | None, y -> y);
  }

(* a ∇ b: keep a's bounds where b stayed inside them, drop the rest. *)
let itv_widen a b =
  {
    lo =
      (match (a.lo, b.lo) with
      | Some x, Some y when B.ge y x -> Some x
      | _ -> None);
    hi =
      (match (a.hi, b.hi) with
      | Some x, Some y when B.le y x -> Some x
      | _ -> None);
  }

let opt_map2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let itv_add a b = { lo = opt_map2 B.add a.lo b.lo; hi = opt_map2 B.add a.hi b.hi }
let itv_neg a = { lo = Option.map B.neg a.hi; hi = Option.map B.neg a.lo }
let itv_sub a b = itv_add a (itv_neg b)

let itv_all_finite is =
  List.for_all (fun i -> i.lo <> None && i.hi <> None) is

(* Extrema over box corners; valid for operations monotone along every
   axis-parallel line of the box (B.mul, and truncated B.div with a
   sign-pure divisor). *)
let itv_corners f a b =
  match (a.lo, a.hi, b.lo, b.hi) with
  | Some al, Some ah, Some bl, Some bh ->
    let cs = [ f al bl; f al bh; f ah bl; f ah bh ] in
    { lo = Some (List.fold_left B.min (List.hd cs) cs);
      hi = Some (List.fold_left B.max (List.hd cs) cs) }
  | _ -> itv_top

let itv_mul a b =
  if itv_all_finite [ a; b ] then itv_corners B.mul a b
  else if itv_leq a (itv_const B.zero) || itv_leq b (itv_const B.zero) then itv_const B.zero
  else itv_top

(* Requires 0 ∉ b (checked by the caller). *)
let itv_div a b =
  if itv_all_finite [ a; b ] then itv_corners B.div a b else itv_top

(* Largest |remainder| bound from the divisor: max(|lo|,|hi|) - 1. *)
let itv_rem_bound b =
  opt_map2 (fun l h -> B.sub (B.max (B.abs l) (B.abs h)) B.one) b.lo b.hi

let itv_to_string i =
  let b = function None -> "_" | Some n -> B.to_string n in
  Printf.sprintf "[%s,%s]" (b i.lo) (b i.hi)

(* ------------------------------------------------------------------ *)
(* Parity of the sign-interpreted value (= of bit 0 of the two's-
   complement representation, since rep ≡ value mod 2^w and w ≥ 1).  A
   second, independent component of the word domain: wrapping mod 2^w
   preserves it, so it survives exactly the overflows that force the
   interval component to the full range. *)

type parity = Peven | Podd | Ptop

let par_of_const n = if B.is_zero (B.rem n (B.of_int 2)) then Peven else Podd
let par_of_itv i =
  match (i.lo, i.hi) with
  | Some a, Some b when B.equal a b -> par_of_const a
  | _ -> Ptop

let par_leq a b = b = Ptop || a = b
let par_join a b = if a = b then a else Ptop

(* x + y and x xor y agree mod 2. *)
let par_add a b =
  match (a, b) with
  | Ptop, _ | _, Ptop -> Ptop
  | x, y -> if x = y then Peven else Podd

let par_mul a b =
  match (a, b) with
  | Peven, _ | _, Peven -> Peven
  | Podd, Podd -> Podd
  | _ -> Ptop

(* bit 0 of x land y / x lor y. *)
let par_and a b =
  match (a, b) with
  | Peven, _ | _, Peven -> Peven
  | Podd, Podd -> Podd
  | _ -> Ptop

let par_or a b =
  match (a, b) with
  | Podd, _ | _, Podd -> Podd
  | Peven, Peven -> Peven
  | _ -> Ptop

(* lognot x = -x - 1: parity flips. *)
let par_flip = function Peven -> Podd | Podd -> Peven | Ptop -> Ptop

let par_to_string = function Peven -> "e" | Podd -> "o" | Ptop -> ""

(* ------------------------------------------------------------------ *)
(* Value domains. *)

type nullness = Nnull | Nnonnull | Ntop

type vdom =
  | Dtop
  | Dword of Ty.sign * Ty.width * itv * parity
      (* interval × parity of the sign-interpreted value *)
  | Dint of itv (* definitely a Vint *)
  | Dnat of itv (* definitely a Vnat; itv within [0, ∞) *)
  | Dbool of bool option
  | Dptr of nullness
  | Dtuple of vdom list

let word_range s w = itv_make (Some (W.min_value s w)) (Some (W.max_value s w))

(* Reduced product: a singleton interval determines the parity (and wins
   over a contradictory claim — the state is then empty, and keeping the
   exact component is a sound over-approximation of ∅). *)
let mk_word s w i p =
  let p = match par_of_itv i with Ptop -> p | q -> q in
  Dword (s, w, i, p)

(* Result of a word operation: exact when in range, else the wrap can hit
   anything of the type.  The parity argument must be wrap-stable (all
   callers compute it mod 2, and 2 | 2^w). *)
let word_result s w i p =
  if itv_leq i (word_range s w) then mk_word s w i p
  else Dword (s, w, word_range s w, p)

let rec type_top (t : Ty.t) : vdom =
  match t with
  | Ty.Tword (s, w) -> Dword (s, w, word_range s w, Ptop)
  | Ty.Tint -> Dint itv_top
  | Ty.Tnat -> Dnat nat_top
  | Ty.Tbool -> Dbool None
  | Ty.Tptr _ -> Dptr Ntop
  | Ty.Ttuple ts -> Dtuple (List.map type_top ts)
  | Ty.Tunit | Ty.Tstruct _ -> Dtop

let rec vdom_leq a b =
  match (a, b) with
  | _, Dtop -> true
  | Dword (s1, w1, i1, p1), Dword (s2, w2, i2, p2) ->
    s1 = s2 && w1 = w2 && itv_leq i1 i2 && par_leq p1 p2
  | Dint i1, Dint i2 | Dnat i1, Dnat i2 -> itv_leq i1 i2
  | Dbool a, Dbool b -> b = None || a = b
  | Dptr a, Dptr b -> b = Ntop || a = b
  | Dtuple xs, Dtuple ys ->
    List.length xs = List.length ys && List.for_all2 vdom_leq xs ys
  | (Dtop | Dword _ | Dint _ | Dnat _ | Dbool _ | Dptr _ | Dtuple _), _ -> false

let rec vdom_join a b =
  match (a, b) with
  | Dword (s1, w1, i1, p1), Dword (s2, w2, i2, p2) when s1 = s2 && w1 = w2 ->
    Dword (s1, w1, itv_join i1 i2, par_join p1 p2)
  | Dint i1, Dint i2 -> Dint (itv_join i1 i2)
  | Dnat i1, Dnat i2 -> Dnat (itv_join i1 i2)
  | Dbool x, Dbool y -> Dbool (if x = y then x else None)
  | Dptr x, Dptr y -> Dptr (if x = y then x else Ntop)
  | Dtuple xs, Dtuple ys when List.length xs = List.length ys ->
    Dtuple (List.map2 vdom_join xs ys)
  | _ -> Dtop

let rec vdom_widen a b =
  match (a, b) with
  | Dword (s1, w1, i1, p1), Dword (s2, w2, i2, p2) when s1 = s2 && w1 = w2 ->
    (* Words stay finite: a dropped bound lands on the type extreme, so
       widening still terminates in at most two steps per bound.  Parity
       is a finite lattice, so joining it already terminates. *)
    let wd = itv_widen i1 i2 in
    Dword (s1, w1, itv_meet wd (word_range s1 w1), par_join p1 p2)
  | Dint i1, Dint i2 -> Dint (itv_widen i1 i2)
  | Dnat i1, Dnat i2 -> Dnat (itv_meet (itv_widen i1 i2) nat_top)
  | Dbool x, Dbool y -> Dbool (if x = y then x else None)
  | Dptr x, Dptr y -> Dptr (if x = y then x else Ntop)
  | Dtuple xs, Dtuple ys when List.length xs = List.length ys ->
    Dtuple (List.map2 vdom_widen xs ys)
  | _ -> Dtop

let to_bool3 = function Dbool b -> b | _ -> None

let rec vdom_to_string = function
  | Dtop -> "⊤"
  | Dword (s, w, i, p) ->
    Printf.sprintf "%s%d%s%s"
      (match s with Ty.Signed -> "s" | Ty.Unsigned -> "u")
      (W.bits w) (itv_to_string i) (par_to_string p)
  | Dint i -> "int" ^ itv_to_string i
  | Dnat i -> "nat" ^ itv_to_string i
  | Dbool None -> "bool"
  | Dbool (Some b) -> string_of_bool b
  | Dptr Nnull -> "null"
  | Dptr Nnonnull -> "nonnull"
  | Dptr Ntop -> "ptr"
  | Dtuple ds -> "(" ^ String.concat ", " (List.map vdom_to_string ds) ^ ")"

(* ------------------------------------------------------------------ *)
(* Abstract environments.  Absent key = top (constrained only by the
   variable's type annotation, injected at lookup). *)

type aenv = { avars : vdom SMap.t; aglobs : vdom SMap.t }

let env_top = { avars = SMap.empty; aglobs = SMap.empty }

let map_leq a b =
  SMap.for_all
    (fun x d ->
      match SMap.find_opt x a with Some da -> vdom_leq da d | None -> false)
    b

let env_leq a b = map_leq a.avars b.avars && map_leq a.aglobs b.aglobs

let map_join a b =
  SMap.merge
    (fun _ da db ->
      match (da, db) with
      | Some da, Some db -> (
        match vdom_join da db with Dtop -> None | d -> Some d)
      | _ -> None)
    a b

let env_join a b = { avars = map_join a.avars b.avars; aglobs = map_join a.aglobs b.aglobs }

let map_widen a b =
  SMap.merge
    (fun _ da db ->
      match (da, db) with
      | Some da, Some db -> (
        match vdom_widen da db with Dtop -> None | d -> Some d)
      | _ -> None)
    a b

let env_widen a b = { avars = map_widen a.avars b.avars; aglobs = map_widen a.aglobs b.aglobs }

let set_var env x d =
  match d with
  | Dtop -> { env with avars = SMap.remove x env.avars }
  | _ -> { env with avars = SMap.add x d env.avars }

let set_glob env x d =
  match d with
  | Dtop -> { env with aglobs = SMap.remove x env.aglobs }
  | _ -> { env with aglobs = SMap.add x d env.aglobs }

let lookup_var env x t =
  match SMap.find_opt x env.avars with Some d -> d | None -> type_top t

let lookup_glob env x t =
  match SMap.find_opt x env.aglobs with Some d -> d | None -> type_top t

let env_to_string env =
  let part name m =
    SMap.bindings m
    |> List.map (fun (x, d) -> Printf.sprintf "%s%s: %s" name x (vdom_to_string d))
  in
  "{" ^ String.concat "; " (part "" env.avars @ part "g:" env.aglobs) ^ "}"

(* ------------------------------------------------------------------ *)
(* Abstract evaluation: [aeval] returns the value domain together with a
   cleanliness bit — [true] means evaluation in any well-typed state
   described by [env] provably cannot get stuck.  The domain component is
   sound for possibly-stuck expressions too (it over-approximates the
   non-stuck results). *)

let and3 a b =
  match (a, b) with
  | Some false, _ -> Some false
  | Some true, b -> b
  | None, Some false -> Some false
  | None, _ -> None

let or3 a b =
  match (a, b) with
  | Some true, _ -> Some true
  | Some false, b -> b
  | None, Some true -> Some true
  | None, _ -> None

let not3 = Option.map not

let bool_shape = function Dbool _ -> true | _ -> false
let ptr_shape = function Dptr _ -> true | _ -> false
let numeric_shape = function Dword _ | Dint _ | Dnat _ -> true | _ -> false

(* Shifts of ideal integers call [B.to_int_exn] / reject negative counts;
   only certify (and only compute) genuinely small non-negative amounts. *)
let small_shift i = itv_leq i (itv_make (Some B.zero) (Some (B.of_int 256)))

let rec cmp_itv op i1 i2 =
  if itv_is_empty i1 || itv_is_empty i2 then None
  else begin
    let lt_def a b = opt_map2 (fun x y -> B.lt x y) a b in
    let le_def a b = opt_map2 (fun x y -> B.le x y) a b in
    match (op : E.binop) with
    | E.Lt -> (
      match lt_def i1.hi i2.lo with
      | Some true -> Some true
      | _ -> ( match le_def i2.hi i1.lo with Some true -> Some false | _ -> None))
    | E.Le -> (
      match le_def i1.hi i2.lo with
      | Some true -> Some true
      | _ -> ( match lt_def i2.hi i1.lo with Some true -> Some false | _ -> None))
    | E.Gt -> (
      match lt_def i2.hi i1.lo with
      | Some true -> Some true
      | _ -> ( match le_def i1.hi i2.lo with Some true -> Some false | _ -> None))
    | E.Ge -> (
      match le_def i2.hi i1.lo with
      | Some true -> Some true
      | _ -> ( match lt_def i1.hi i2.lo with Some true -> Some false | _ -> None))
    | E.Eq -> (
      match (i1.lo, i1.hi, i2.lo, i2.hi) with
      | Some a, Some b, Some c, Some d when B.equal a b && B.equal c d && B.equal a c ->
        Some true
      | _ ->
        if
          (match lt_def i1.hi i2.lo with Some true -> true | _ -> false)
          || (match lt_def i2.hi i1.lo with Some true -> true | _ -> false)
        then Some false
        else None)
    | E.Ne -> not3 (cmp_itv_eq i1 i2)
    | _ -> None
  end

and cmp_itv_eq i1 i2 = cmp_itv E.Eq i1 i2

let is_cmp = function
  | E.Eq | E.Ne | E.Lt | E.Le | E.Gt | E.Ge -> true
  | _ -> false

(* Word comparison: the interval verdict, refined by the parity component
   for (dis)equalities — values of different parity are never equal. *)
let cmp_word op i1 p1 i2 p2 =
  match cmp_itv op i1 i2 with
  | Some r -> Some r
  | None -> (
    let disjoint =
      match (p1, p2) with Peven, Podd | Podd, Peven -> true | _ -> false
    in
    match (op : E.binop) with
    | E.Eq when disjoint -> Some false
    | E.Ne when disjoint -> Some true
    | _ -> None)

(* Arithmetic and comparisons on two evaluated operands (the non-short-
   circuit binops).  Mirrors [Expr.eval_binop]: word results take the left
   operand's sign and wrap; ideal subtraction is monus on two naturals. *)
let binop_dom lenv op da db : vdom * bool =
  ignore lenv;
  match (da, db) with
  | Dword (s1, w1, i1, p1), Dword (s2, w2, i2, p2) when s1 = s2 && w1 = w2 -> (
    let s, w = (s1, w1) in
    match (op : E.binop) with
    | E.Add -> (word_result s w (itv_add i1 i2) (par_add p1 p2), true)
    | E.Sub -> (word_result s w (itv_sub i1 i2) (par_add p1 p2), true)
    | E.Mul -> (word_result s w (itv_mul i1 i2) (par_mul p1 p2), true)
    | E.Div ->
      (* An odd divisor is nonzero even when its interval straddles 0. *)
      if itv_mem B.zero i2 && p2 <> Podd then (Dword (s, w, word_range s w, Ptop), false)
      else if itv_mem B.zero i2 then (Dword (s, w, word_range s w, Ptop), true)
      else (word_result s w (itv_div i1 i2) Ptop, true)
    | E.Rem ->
      if itv_mem B.zero i2 && p2 <> Podd then (Dword (s, w, word_range s w, Ptop), false)
      else if itv_mem B.zero i2 then (Dword (s, w, word_range s w, Ptop), true)
      else
        let m = itv_rem_bound i2 in
        let i =
          match i1.lo with
          | Some l when B.ge l B.zero ->
            itv_meet (itv_make (Some B.zero) m) (itv_make (Some B.zero) i1.hi)
          | _ -> itv_make (Option.map B.neg m) m
        in
        (word_result s w i Ptop, true)
    | E.Shl ->
      (* The evaluator shifts by [unat count] and wraps.  [small_shift]
         forces the count's interpretation into [0, 256], where unat and
         the interpreted value agree; a shift by ≥ 1 is even mod 2^w
         whatever the count, so parity survives the wrap (and the
         non-finite fallback). *)
      let shl_par =
        if not (itv_mem B.zero i2) then Peven
        else if itv_leq i2 (itv_const B.zero) then p1
        else par_join p1 Peven
      in
      if small_shift i2 && itv_all_finite [ i1; i2 ] then
        (word_result s w
           (itv_corners (fun x n -> B.shift_left x (B.to_int_exn n)) i1 i2)
           shl_par,
         true)
      else (Dword (s, w, word_range s w, shl_par), true)
    | E.Shr ->
      (* Arithmetic shift of the interpretation for signed, logical for
         unsigned — either way ⌊x / 2^n⌋ of the interpreted value, which
         never leaves the type range.  Monotone along each axis, so box
         corners bound it. *)
      if small_shift i2 && itv_all_finite [ i1; i2 ] then
        (word_result s w
           (itv_corners (fun x n -> B.shift_right x (B.to_int_exn n)) i1 i2)
           Ptop,
         true)
      else (Dword (s, w, word_range s w, Ptop), true)
    | E.Band ->
      let i =
        match s with
        | Ty.Unsigned -> itv_meet (word_range s w) (itv_make (Some B.zero) (opt_map2 B.min i1.hi i2.hi))
        | Ty.Signed -> word_range s w
      in
      (mk_word s w i (par_and p1 p2), true)
    | E.Bor -> (Dword (s, w, word_range s w, par_or p1 p2), true)
    | E.Bxor -> (Dword (s, w, word_range s w, par_add p1 p2), true)
    | E.Eq | E.Ne | E.Lt | E.Le | E.Gt | E.Ge -> (Dbool (cmp_word op i1 p1 i2 p2), true)
    | E.And | E.Or | E.Imp -> (Dtop, false))
  | Dword (s, w, _, _), Dword _ ->
    (* Mixed signs or widths: ill-typed for arithmetic, and comparisons
       interpret the right word with the left sign — give up on both. *)
    if is_cmp op then (Dbool None, false) else (Dword (s, w, word_range s w, Ptop), false)
  | (Dint i1 | Dnat i1), (Dint i2 | Dnat i2) -> (
    let both_nat = match (da, db) with Dnat _, Dnat _ -> true | _ -> false in
    let wrap i = if both_nat then Dnat (itv_meet i nat_top) else Dint i in
    match (op : E.binop) with
    | E.Add -> (wrap (itv_add i1 i2), true)
    | E.Sub ->
      if both_nat then
        (* monus: max 0 (x - y) *)
        let i = itv_sub i1 i2 in
        (Dnat { lo = Some (match i.lo with Some l -> B.max B.zero l | None -> B.zero);
                hi = (match i.hi with Some h -> Some (B.max B.zero h) | None -> None) },
         true)
      else (Dint (itv_sub i1 i2), true)
    | E.Mul -> (wrap (itv_mul i1 i2), true)
    | E.Div ->
      if itv_mem B.zero i2 then ((if both_nat then Dnat nat_top else Dint itv_top), false)
      else if itv_all_finite [ i1; i2 ] then (wrap (itv_div i1 i2), true)
      else if both_nat then
        (* nat / (≥1) never grows *)
        (Dnat (itv_make (Some B.zero) i1.hi), true)
      else (Dint itv_top, true)
    | E.Rem ->
      if itv_mem B.zero i2 then ((if both_nat then Dnat nat_top else Dint itv_top), false)
      else
        let m = itv_rem_bound i2 in
        if both_nat then
          let hi =
            match (m, i1.hi) with
            | Some a, Some b -> Some (B.min a b)
            | Some a, None -> Some a
            | None, h -> h
          in
          (Dnat (itv_make (Some B.zero) hi), true)
        else (Dint (itv_make (Option.map B.neg m) m), true)
    | E.Shl ->
      if small_shift i2 && itv_all_finite [ i1; i2 ] then
        (wrap (itv_corners (fun x n -> B.shift_left x (B.to_int_exn n)) i1 i2), true)
      else ((if both_nat then Dnat nat_top else Dint itv_top), small_shift i2)
    | E.Shr ->
      if small_shift i2 && itv_all_finite [ i1; i2 ] then
        (wrap (itv_corners (fun x n -> B.shift_right x (B.to_int_exn n)) i1 i2), true)
      else ((if both_nat then Dnat nat_top else Dint itv_top), small_shift i2)
    | E.Band | E.Bor | E.Bxor ->
      (* [B.logand] raises on negative operands. *)
      let nonneg i = match i.lo with Some l -> B.ge l B.zero | None -> false in
      let ok = nonneg i1 && nonneg i2 in
      let i =
        if not ok then itv_top
        else
          match op with
          | E.Band -> itv_make (Some B.zero) (opt_map2 B.min i1.hi i2.hi)
          | _ -> itv_top
      in
      ((if both_nat then Dnat (itv_meet i nat_top) else Dint i), ok)
    | E.Eq | E.Ne | E.Lt | E.Le | E.Gt | E.Ge -> (Dbool (cmp_itv op i1 i2), true)
    | E.And | E.Or | E.Imp -> (Dtop, false))
  | Dptr n1, Dptr n2 -> (
    match (op : E.binop) with
    | E.Eq -> (
      match (n1, n2) with
      | Nnull, Nnull -> (Dbool (Some true), true)
      | Nnull, Nnonnull | Nnonnull, Nnull -> (Dbool (Some false), true)
      | _ -> (Dbool None, true))
    | E.Ne -> (
      match (n1, n2) with
      | Nnull, Nnull -> (Dbool (Some false), true)
      | Nnull, Nnonnull | Nnonnull, Nnull -> (Dbool (Some true), true)
      | _ -> (Dbool None, true))
    | E.Lt | E.Le | E.Gt | E.Ge -> (Dbool None, true)
    | E.Sub -> (Dint itv_top, true)
    | _ -> (Dtop, false))
  | Dbool b1, Dbool b2 -> (
    match (op : E.binop) with
    | E.Eq -> (Dbool (match (b1, b2) with Some x, Some y -> Some (x = y) | _ -> None), true)
    | E.Ne -> (Dbool (match (b1, b2) with Some x, Some y -> Some (x <> y) | _ -> None), true)
    | _ -> (Dtop, false))
  | _ -> if is_cmp op then (Dbool None, false) else (Dtop, false)

let dom_of_value (v : Value.t) : vdom =
  let rec go = function
    | Value.Vunit -> Dtop
    | Value.Vbool b -> Dbool (Some b)
    | Value.Vword (s, w) ->
      let v = W.value s w in
      Dword (s, W.width_of w, itv_const v, par_of_const v)
    | Value.Vint n -> Dint (itv_const n)
    | Value.Vnat n -> Dnat (itv_const n)
    | Value.Vptr (a, _) -> Dptr (if B.is_zero a then Nnull else Nnonnull)
    | Value.Vstruct _ -> Dtop
    | Value.Vtuple vs -> Dtuple (List.map go vs)
  in
  go v

exception Cert_error of string

let cert_error fmt = Printf.ksprintf (fun m -> raise (Cert_error m)) fmt

let rec aeval (lenv : Layout.env) (env : aenv) (e : E.t) : vdom * bool =
  match e with
  | E.Const v -> (dom_of_value v, true)
  | E.Var (x, t) -> (lookup_var env x t, true)
  | E.Global (g, t) -> (lookup_glob env g t, true)
  | E.Unop (op, x) -> (
    let dx, cx = aeval lenv env x in
    match (op, dx) with
    | E.Neg, Dword (s, w, i, p) -> (word_result s w (itv_neg i) p, cx)
    | E.Neg, Dint i -> (Dint (itv_neg i), cx)
    | E.Neg, Dnat i -> (Dint (itv_neg i), cx) (* eval: Neg Vnat = Vint *)
    | E.Bnot, Dword (s, w, i, p) ->
      (* lognot x = -x - 1 two's-complement-wise; exact on the signed
         interpretation, full wrap on unsigned bounds crossing. *)
      let i' = itv_sub (itv_neg i) (itv_const B.one) in
      (word_result s w i' (par_flip p), cx)
    | E.Not, Dbool b -> (Dbool (not3 b), cx)
    | E.Neg, Dtop | E.Bnot, Dtop -> (Dtop, false)
    | E.Not, _ -> (Dbool None, false)
    | _ -> (Dtop, false))
  | E.Binop (E.And, a, b) -> (
    let da, ca = aeval lenv env a in
    let ca = ca && bool_shape da in
    match assume lenv env a true with
    | None -> (Dbool (Some false), ca)
    | Some enva ->
      let db, cb = aeval lenv enva b in
      ( Dbool (and3 (to_bool3 da) (to_bool3 db)),
        ca && (to_bool3 da = Some false || (cb && bool_shape db)) ))
  | E.Binop (E.Or, a, b) -> (
    let da, ca = aeval lenv env a in
    let ca = ca && bool_shape da in
    match assume lenv env a false with
    | None -> (Dbool (Some true), ca)
    | Some enva ->
      let db, cb = aeval lenv enva b in
      ( Dbool (or3 (to_bool3 da) (to_bool3 db)),
        ca && (to_bool3 da = Some true || (cb && bool_shape db)) ))
  | E.Binop (E.Imp, a, b) -> (
    let da, ca = aeval lenv env a in
    let ca = ca && bool_shape da in
    match assume lenv env a true with
    | None -> (Dbool (Some true), ca)
    | Some enva ->
      let db, cb = aeval lenv enva b in
      ( Dbool (or3 (not3 (to_bool3 da)) (to_bool3 db)),
        ca && (to_bool3 da = Some false || (cb && bool_shape db)) ))
  | E.Binop (op, a, b) ->
    let da, ca = aeval lenv env a in
    let db, cb = aeval lenv env b in
    let d, cop = binop_dom lenv op da db in
    (d, ca && cb && cop)
  | E.Ite (c, x, y) -> (
    let dc, cc = aeval lenv env c in
    let branch pol t =
      match assume lenv env c pol with None -> None | Some e -> Some (aeval lenv e t)
    in
    let cc = cc && bool_shape dc in
    match (branch true x, branch false y) with
    | Some (dx, cx), Some (dy, cy) -> (vdom_join dx dy, cc && cx && cy)
    | Some (dx, cx), None -> (dx, cc && cx)
    | None, Some (dy, cy) -> (dy, cc && cy)
    | None, None -> (Dtop, false))
  | E.Cast (t, x) -> (
    let dx, cx = aeval lenv env x in
    match (t, dx) with
    | Ty.Tword (s, w), (Dword _ | Dint _ | Dnat _) ->
      let i =
        match dx with Dword (_, _, i, _) | Dint i | Dnat i -> i | _ -> itv_top
      in
      (* Reduction mod 2^w preserves parity. *)
      let p = match dx with Dword (_, _, _, p) -> p | _ -> par_of_itv i in
      (* [of_bignum] reduces the source interpretation mod 2^w; when the
         value already lies in the target range the reinterpretation is
         the identity.  Mixed sign/width sources are fine: the source
         interval is an interval of the *interpreted* value either way. *)
      if itv_leq i (word_range s w) then (mk_word s w i p, cx)
      else (Dword (s, w, word_range s w, p), cx)
    | Ty.Tword (s, w), Dptr _ -> (Dword (s, w, word_range s w, Ptop), cx)
    | Ty.Tptr _, Dword (_, _, i, _) ->
      let pb = W.bits (Layout.ptr_width lenv) in
      let pr = itv_make (Some (B.neg (B.sub (B.pow2 pb) B.one))) (Some (B.sub (B.pow2 pb) B.one)) in
      let n =
        if itv_leq i (itv_const B.zero) then Nnull
        else if (not (itv_mem B.zero i)) && itv_leq i pr then Nnonnull
        else Ntop
      in
      (Dptr n, cx)
    | Ty.Tptr _, Dptr n -> (Dptr n, cx)
    | Ty.Tint, (Dint i | Dnat i) -> (Dint i, cx)
    | Ty.Tnat, (Dint i | Dnat i) ->
      (* Stuck-refining: a negative operand gets stuck, so states reaching
         the continuation satisfy the clamp. *)
      let nonneg = match i.lo with Some l -> B.ge l B.zero | None -> false in
      (Dnat (itv_meet i nat_top), cx && nonneg)
    | _ -> (Dtop, false))
  | E.OfWord (t, x) -> (
    let dx, cx = aeval lenv env x in
    match (t, dx) with
    | Ty.Tnat, Dword (Ty.Unsigned, _, i, _) -> (Dnat (itv_meet i nat_top), cx)
    | Ty.Tnat, Dword (Ty.Signed, w, i, _) ->
      if itv_leq i nat_top then (Dnat i, cx)
      else (Dnat (itv_make (Some B.zero) (Some (B.sub (B.pow2 (W.bits w)) B.one))), cx)
    | Ty.Tint, Dword (Ty.Signed, _, i, _) -> (Dint i, cx)
    | Ty.Tint, Dword (Ty.Unsigned, w, i, _) ->
      if itv_leq i (word_range Ty.Signed w) then (Dint i, cx)
      else (Dint (word_range Ty.Signed w), cx)
    | Ty.Tnat, _ -> (Dnat nat_top, false)
    | Ty.Tint, _ -> (Dint itv_top, false)
    | _ -> (Dtop, false))
  | E.HeapRead (c, p) | E.TypedRead (c, p) ->
    let dp, cp = aeval lenv env p in
    (type_top (Ty.of_cty c), cp && ptr_shape dp)
  | E.IsValid (_, p) -> (
    let dp, cp = aeval lenv env p in
    match dp with
    | Dptr Nnull -> (Dbool (Some false), cp) (* lift_valid needs span_ok, hence ≠ 0 *)
    | Dptr _ -> (Dbool None, cp)
    | _ -> (Dbool None, false))
  | E.PtrAligned (c, p) -> (
    let dp, cp = aeval lenv env p in
    match dp with
    | Dptr n ->
      (match c with
      | Ty.Cstruct sname when not (Layout.has_struct lenv sname) ->
        cert_error "undeclared struct %s" sname
      | _ -> ());
      if Layout.align_of lenv c = 1 then (Dbool (Some true), cp)
      else if n = Nnull then (Dbool (Some true), cp) (* 0 mod a = 0 *)
      else (Dbool None, cp)
    | _ -> (Dbool None, false))
  | E.PtrSpan (_, p) -> (
    let dp, cp = aeval lenv env p in
    match dp with
    | Dptr Nnull -> (Dbool (Some false), cp)
    | Dptr _ -> (Dbool None, cp)
    | _ -> (Dbool None, false))
  | E.PtrAdd (_, p, n) ->
    let dp, cp = aeval lenv env p in
    let dn, cn = aeval lenv env n in
    (Dptr Ntop, cp && cn && ptr_shape dp && numeric_shape dn)
  | E.FieldAddr (sname, fname, p) ->
    let dp, cp = aeval lenv env p in
    let known =
      match Layout.field_offset lenv sname fname with _ -> true | exception _ -> false
    in
    (Dptr Ntop, cp && ptr_shape dp && known)
  | E.StructGet (sname, fname, _) ->
    let d =
      match Layout.field_type lenv sname fname with
      | c -> type_top (Ty.of_cty c)
      | exception _ -> Dtop
    in
    (d, false)
  | E.StructSet _ -> (Dtop, false)
  | E.Tuple xs ->
    let ds = List.map (aeval lenv env) xs in
    (Dtuple (List.map fst ds), List.for_all snd ds)
  | E.Proj (i, x) -> (
    let dx, cx = aeval lenv env x in
    match dx with
    | Dtuple ds when i >= 0 && i < List.length ds -> (List.nth ds i, cx)
    | _ -> (Dtop, false))

(* ------------------------------------------------------------------ *)
(* Assuming a condition: [assume lenv env c pol] is an over-approximation
   of the states in [env] where [c] evaluates (without getting stuck) to
   [pol]; [None] means no such state exists. *)

and assume lenv (env : aenv) (e : E.t) (pol : bool) : aenv option =
  let ( >>= ) o f = match o with None -> None | Some x -> f x in
  match e with
  | E.Const (Value.Vbool b) -> if b = pol then Some env else None
  | E.Unop (E.Not, x) -> assume lenv env x (not pol)
  | E.Binop (E.And, a, b) when pol ->
    assume lenv env a true >>= fun env -> assume lenv env b true
  | E.Binop (E.Or, a, b) when not pol ->
    assume lenv env a false >>= fun env -> assume lenv env b false
  | E.Binop (E.Imp, a, b) when not pol ->
    assume lenv env a true >>= fun env -> assume lenv env b false
  | E.Binop (E.And, a, b) (* ¬(a ∧ b): a false, or a true and b false *) ->
    join_assume lenv
      (assume lenv env a false)
      (assume lenv env a true >>= fun env -> assume lenv env b false)
  | E.Binop (E.Or, a, b) ->
    join_assume lenv (assume lenv env a true) (assume lenv env a false >>= fun env -> assume lenv env b true)
  | E.Binop (E.Imp, a, b) ->
    join_assume lenv (assume lenv env a false) (assume lenv env a true >>= fun env -> assume lenv env b true)
  | E.Binop (op, a, b) when is_cmp op -> assume_cmp lenv env op a b pol
  | E.Var (x, Ty.Tbool) -> (
    match lookup_var env x Ty.Tbool with
    | Dbool (Some b) -> if b = pol then Some env else None
    | _ -> Some (set_var env x (Dbool (Some pol))))
  | E.IsValid (_, p) when pol -> assume_nonnull lenv env p
  | E.PtrSpan (_, p) when pol -> assume_nonnull lenv env p
  | E.Ite (c, x, y) ->
    join_assume lenv
      (assume lenv env c true >>= fun e -> assume lenv e x pol)
      (assume lenv env c false >>= fun e -> assume lenv e y pol)
  | _ -> (
    let d, _ = aeval lenv env e in
    match to_bool3 d with
    | Some b -> if b = pol then Some env else None
    | None -> Some env)

and join_assume _lenv a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some e1, Some e2 -> Some (env_join e1 e2)

and assume_nonnull lenv env p =
  match p with
  | E.Var (x, (Ty.Tptr _ as t)) -> (
    match lookup_var env x t with
    | Dptr Nnull -> None
    | Dptr Nnonnull -> Some env
    | _ -> Some (set_var env x (Dptr Nnonnull)))
  | _ -> (
    let d, _ = aeval lenv env p in
    match d with Dptr Nnull -> None | _ -> Some env)

(* Comparison assumption: decide outright when possible, then narrow
   variable (or unat/sint-of-variable) operands with the interval the
   comparison forces.  Only same-sign same-width word comparisons are
   meaningful (the evaluator interprets the right operand with the left
   operand's sign). *)
and assume_cmp lenv env op a b pol =
  let op = if pol then op else negate_cmp op in
  let da, _ = aeval lenv env a in
  let db, _ = aeval lenv env b in
  (* Pointer facts. *)
  let ptr_fact () =
    match (op, da, db) with
    | E.Eq, _, Dptr Nnull -> assume_null lenv env a
    | E.Eq, Dptr Nnull, _ -> assume_null lenv env b
    | E.Ne, _, Dptr Nnull -> assume_nonnull lenv env a
    | E.Ne, Dptr Nnull, _ -> assume_nonnull lenv env b
    | _ -> Some env
  in
  match (itv_of_dom da, itv_of_dom db) with
  | Some (sa, ia), Some (sb, ib) when sa = sb -> (
    match cmp_itv op ia ib with
    | Some r -> if r then Some env else None
    | None ->
      let ca = constraint_itv op ia ib `Left in
      let cb = constraint_itv op ia ib `Right in
      refine lenv env a ca >>== fun env -> refine lenv env b cb)
  | _ -> (
    match binop_dom lenv op da db with
    | Dbool (Some r), _ -> if r then Some env else None
    | _ -> ptr_fact ())

and ( >>== ) o f = match o with None -> None | Some x -> f x

and assume_null lenv env p =
  match p with
  | E.Var (x, (Ty.Tptr _ as t)) -> (
    match lookup_var env x t with
    | Dptr Nnonnull -> None
    | _ -> Some (set_var env x (Dptr Nnull)))
  | _ -> (
    let d, _ = aeval lenv env p in
    match d with Dptr Nnonnull -> None | _ -> Some env)

and negate_cmp = function
  | E.Eq -> E.Ne
  | E.Ne -> E.Eq
  | E.Lt -> E.Ge
  | E.Le -> E.Gt
  | E.Gt -> E.Le
  | E.Ge -> E.Lt
  | op -> op

(* The interpreted-value interval of a numeric domain, tagged with a sign
   marker so word comparisons only narrow when interpretations agree.
   Ideal ints and nats share the `I` marker (B comparisons are uniform). *)
and itv_of_dom = function
  | Dword (s, w, i, _) -> Some (`W (s, w), i)
  | Dint i | Dnat i -> Some (`I, i)
  | _ -> None

(* Interval forced on the chosen side by [a op b]. *)
and constraint_itv op ia ib side =
  let pred o = Option.map B.pred o in
  let succ o = Option.map B.succ o in
  match (op, side) with
  | E.Eq, `Left -> ib
  | E.Eq, `Right -> ia
  | E.Lt, `Left -> itv_make None (pred ib.hi)
  | E.Lt, `Right -> itv_make (succ ia.lo) None
  | E.Le, `Left -> itv_make None ib.hi
  | E.Le, `Right -> itv_make ia.lo None
  | E.Gt, `Left -> itv_make (succ ib.lo) None
  | E.Gt, `Right -> itv_make None (pred ia.hi)
  | E.Ge, `Left -> itv_make ib.lo None
  | E.Ge, `Right -> itv_make None ia.hi
  | E.Ne, `Left -> ne_itv ia ib
  | E.Ne, `Right -> ne_itv ib ia
  | _ -> itv_top

(* x ≠ y: when y is a single point sitting on one of x's bounds, shave it. *)
and ne_itv ix iy =
  match (iy.lo, iy.hi) with
  | Some c, Some c' when B.equal c c' -> (
    match (ix.lo, ix.hi) with
    | Some l, _ when B.equal l c -> itv_make (Some (B.succ c)) ix.hi
    | _, Some h when B.equal h c -> itv_make ix.lo (Some (B.pred c))
    | _ -> itv_top)
  | _ -> itv_top

(* Push an interval constraint onto a variable-like operand. *)
and refine lenv env e (c : itv) : aenv option =
  if c.lo = None && c.hi = None then Some env
  else begin
    let narrow_var x t interp_ok =
      if not interp_ok then Some env
      else begin
        let d = lookup_var env x t in
        match d with
        | Dword (s, w, i, p) ->
          let i' = itv_meet i c in
          if itv_is_empty i' then None else Some (set_var env x (mk_word s w i' p))
        | Dint i ->
          let i' = itv_meet i c in
          if itv_is_empty i' then None else Some (set_var env x (Dint i'))
        | Dnat i ->
          let i' = itv_meet (itv_meet i c) nat_top in
          if itv_is_empty i' then None else Some (set_var env x (Dnat i'))
        | _ -> Some env
      end
    in
    match e with
    | E.Var (x, (Ty.Tword _ | Ty.Tint | Ty.Tnat as t)) -> narrow_var x t true
    | E.OfWord (Ty.Tnat, E.Var (x, (Ty.Tword (Ty.Unsigned, _) as t))) ->
      (* unat of an unsigned word is its interpreted value *)
      narrow_var x t true
    | E.OfWord (Ty.Tint, E.Var (x, (Ty.Tword (Ty.Signed, _) as t))) -> narrow_var x t true
    | E.Cast (Ty.Tint, E.Var (x, ((Ty.Tint | Ty.Tnat) as t))) -> narrow_var x t true
    | _ -> Some env
  end

(* ------------------------------------------------------------------ *)
(* Certificates, summaries and the abstract walk. *)

(* A function summary: an untrusted interprocedural claim, verified by
   [check_sums] below before any walk is allowed to use it.

   [s_args] is the applicability constraint: a call site may use the
   summary only when the abstract domains of the actual arguments are
   pointwise ⊑ [s_args].  Under that constraint the claims are: a normal
   return (if any) yields a value in [s_ret] ([s_noret] claims there is
   none), and the call can throw only if [s_throws].  [s_invs] carries
   the callee's loop invariants for the verification walk, keyed like a
   certificate's.

   Soundness is by strong induction on the depth of the concrete call
   tree: an execution of the callee whose own calls have depth < n
   satisfies the claims because the verifying walk over-approximates it —
   each inner call either uses a summary (applicable because abstract
   actuals over-approximate concrete ones, and correct for depth < n by
   the induction hypothesis) or havocs.  The table is checked as a whole,
   so mutual recursion needs no stratification. *)
type summary = {
  s_args : vdom list;
  s_ret : vdom;
  s_noret : bool;
  s_throws : bool;
  s_invs : (int * aenv) list;
}

(* Contexts per callee, most specific first: [find_summary] takes the
   first applicable entry, so the order is part of the certificate and
   the analysis and the checker agree on which context a site uses. *)
type sums = (string * summary list) list

let find_summary (sums : sums) (g : string) (argds : vdom list) : summary option =
  match List.assoc_opt g sums with
  | None -> None
  | Some ss ->
    List.find_opt
      (fun s ->
        List.length s.s_args = List.length argds
        && List.for_all2 vdom_leq argds s.s_args)
      ss

(* One invariant per [While], keyed by structural preorder index, plus
   the summary table the walk may consult at call sites. *)
type cert = { c_invs : (int * aenv) list; c_sums : sums }

let cert_of_invs invs = { c_invs = invs; c_sums = [] }

let rec count_loops (m : M.t) : int =
  match m with
  | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _
  | M.Call _ | M.Exec_concrete _ ->
    0
  | M.Bind (a, _, b) | M.Try (a, _, b) -> count_loops a + count_loops b
  | M.Cond (_, a, b) -> count_loops a + count_loops b
  | M.While (_, _, body, _) -> 1 + count_loops body

(* The checker (and the analysis) are parameterised by how loop
   invariants are obtained and what to do with per-guard verdicts: the
   analysis solves by widening fixpoint and harvests verdicts for
   lint, the checker looks the invariant up in the certificate and
   verifies a single inductiveness step. *)
type solver = {
  solve : int -> aenv -> (aenv -> aenv option) -> aenv;
  on_guard : Ir.guard_kind -> E.t -> bool option -> unit;
  sums : sums; (* summaries call sites may use (verified before any trusted walk) *)
  on_call : string -> vdom list -> unit; (* context-discovery hook; no-op in the checker *)
}

type aout = { onorm : (aenv * vdom) option; oexn : (aenv * vdom) option }

let dead_out = { onorm = None; oexn = None }

let join_res a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (e1, v1), Some (e2, v2) -> Some (env_join e1 e2, vdom_join v1 v2)

let join_out a b = { onorm = join_res a.onorm b.onorm; oexn = join_res a.oexn b.oexn }

let rec bind_pat_dom (env : aenv) (p : M.pat) (d : vdom) : aenv =
  match (p, d) with
  | M.Pwild, _ -> env
  | M.Pvar (x, _), d -> set_var env x d
  | M.Ptuple ps, Dtuple ds when List.length ps = List.length ds ->
    List.fold_left2 bind_pat_dom env ps ds
  | M.Ptuple [ p ], d -> bind_pat_dom env p d
  | M.Ptuple ps, _ ->
    (* Unknown tuple shape: every bound variable becomes top. *)
    List.fold_left (fun env (x, _) -> set_var env x Dtop) env (List.concat_map M.pat_vars ps)

let rec dom_of_pat (env : aenv) (p : M.pat) : vdom =
  match p with
  | M.Pwild -> Dtop
  | M.Pvar (x, t) -> lookup_var env x t
  | M.Ptuple ps -> Dtuple (List.map (dom_of_pat env) ps)

(* Pattern variables go out of scope when the binder's body ends; restore
   their outer domains (or absence) in the resulting environments. *)
let save_pat_vars env p = List.map (fun (x, _) -> (x, SMap.find_opt x env.avars)) (M.pat_vars p)

let restore_pat_vars saved env =
  List.fold_left
    (fun env (x, old) ->
      match old with
      | Some d -> { env with avars = SMap.add x d env.avars }
      | None -> { env with avars = SMap.remove x env.avars })
    env saved

let restore_out saved (o : aout) =
  {
    onorm = Option.map (fun (e, v) -> (restore_pat_vars saved e, v)) o.onorm;
    oexn = Option.map (fun (e, v) -> (restore_pat_vars saved e, v)) o.oexn;
  }

let apply_smod_abs lenv (env : aenv) (sm : M.smod) : aenv =
  match sm with
  | M.Heap_write _ | M.Typed_write _ | M.Retype _ -> env (* heap values untracked *)
  | M.Global_set (x, e) -> set_glob env x (fst (aeval lenv env e))
  | M.Local_set (x, e) ->
    (* L1 only: the state-resident local shares the namespace with lambda
       bindings in the evaluation environment; drop to top to stay safe. *)
    ignore e;
    set_var env x Dtop

(* The walk: returns the (possibly rewritten) term and abstract outcomes
   for normal return and thrown exception; [None] means no concrete
   execution reaches that outcome.  Loop bodies inside [m] get the indices
   [idx .. idx + count_loops m - 1] in structural preorder, so indices are
   stable between the analysis and the checker. *)
let rec walk lenv (sv : solver) (idx : int) (env : aenv) (m : M.t) : M.t * aout =
  match m with
  | M.Return e | M.Gets e ->
    (m, { onorm = Some (env, fst (aeval lenv env e)); oexn = None })
  | M.Modify sms ->
    let env' = List.fold_left (apply_smod_abs lenv) env sms in
    (m, { onorm = Some (env', Dtop); oexn = None })
  | M.Guard (k, c) -> (
    let d, cl = aeval lenv env c in
    let verdict =
      match to_bool3 d with
      | Some true when cl -> Some true
      | Some false -> Some false
      | _ -> None
    in
    sv.on_guard k c verdict;
    match verdict with
    | Some true -> (M.Return E.unit_e, { onorm = Some (env, Dtop); oexn = None })
    | Some false -> (m, dead_out)
    | None -> (
      match assume lenv env c true with
      | Some env' -> (m, { onorm = Some (env', Dtop); oexn = None })
      | None -> (m, dead_out)))
  | M.Fail -> (m, dead_out)
  | M.Throw e -> (m, { onorm = None; oexn = Some (env, fst (aeval lenv env e)) })
  | M.Unknown t -> (m, { onorm = Some (env, type_top t); oexn = None })
  | M.Call (g, args) -> (
    (* Callees may write globals and the heap; caller-local bindings are
       lambda-bound or saved/restored, so [avars] survives.  With an
       applicable (verified) summary the return value and throw behaviour
       narrow from havoc to the summary's claims. *)
    let argds = List.map (fun a -> fst (aeval lenv env a)) args in
    sv.on_call g argds;
    let env' = { env with aglobs = SMap.empty } in
    match find_summary sv.sums g argds with
    | Some s ->
      ( m,
        { onorm = (if s.s_noret then None else Some (env', s.s_ret));
          oexn = (if s.s_throws then Some (env', Dtop) else None) } )
    | None -> (m, { onorm = Some (env', Dtop); oexn = Some (env', Dtop) }))
  | M.Exec_concrete _ ->
    let env' = { env with aglobs = SMap.empty } in
    (m, { onorm = Some (env', Dtop); oexn = Some (env', Dtop) })
  | M.Bind (a, p, b) -> (
    let a', oa = walk lenv sv idx env a in
    let bidx = idx + count_loops a in
    match oa.onorm with
    | None -> (mk_bind m a' p (scrub_dead sv b), { onorm = None; oexn = oa.oexn })
    | Some (enva, va) ->
      let saved = save_pat_vars enva p in
      let envb = bind_pat_dom enva p va in
      let b', ob = walk lenv sv bidx envb b in
      let ob = restore_out saved ob in
      (mk_bind m a' p b', { onorm = ob.onorm; oexn = join_res oa.oexn ob.oexn }))
  | M.Try (a, p, h) -> (
    let a', oa = walk lenv sv idx env a in
    let hidx = idx + count_loops a in
    match oa.oexn with
    | None -> (mk_try m a' p (scrub_dead sv h), { onorm = oa.onorm; oexn = None })
    | Some (enve, ve) ->
      let saved = save_pat_vars enve p in
      let envh = bind_pat_dom enve p ve in
      let h', oh = walk lenv sv hidx envh h in
      let oh = restore_out saved oh in
      (mk_try m a' p h', { onorm = join_res oa.onorm oh.onorm; oexn = oh.oexn }))
  | M.Cond (c, a, b) ->
    let a', oa =
      match assume lenv env c true with
      | None -> (scrub_dead sv a, dead_out)
      | Some ea -> walk lenv sv idx ea a
    in
    let b', ob =
      match assume lenv env c false with
      | None -> (scrub_dead sv b, dead_out)
      | Some eb -> walk lenv sv (idx + count_loops a) eb b
    in
    (mk_cond m c a' b', join_out oa ob)
  | M.While (p, cond, body, init) ->
    let dinit, _ = aeval lenv env init in
    let saved = save_pat_vars env p in
    let head0 = bind_pat_dom env p dinit in
    let iterate inv =
      match assume lenv inv cond true with
      | None -> None
      | Some envc -> (
        let _, ob = walk lenv sv (idx + 1) envc body in
        match ob.onorm with
        | None -> None
        | Some (envb, rv) -> Some (bind_pat_dom (restore_pat_vars saved envb) p rv))
    in
    let inv = sv.solve idx head0 iterate in
    let body', obody =
      match assume lenv inv cond true with
      | None -> (scrub_dead sv body, dead_out)
      | Some envc -> walk lenv sv (idx + 1) envc body
    in
    let onorm =
      match assume lenv inv cond false with
      | None -> None
      | Some envx ->
        let rv = dom_of_pat envx p in
        Some (restore_pat_vars saved envx, rv)
    in
    (mk_while m p cond body' init, { onorm; oexn = Option.map (fun (e, v) -> (restore_pat_vars saved e, v)) obody.oexn })

(* Code the walk proved unreachable (a callee summary says the call never
   returns / never throws, a branch condition contradicts the environment,
   a loop condition is unsatisfiable): no concrete execution enters it, so
   every guard inside may be discharged outright.  Firing the solver hook
   with a definite verdict keeps the analysis' accounting aligned with the
   rewrite; the checker's hook ignores it.  Without this pass a *more*
   precise walk could keep guards a less precise one discharges, merely
   because precision proved their whole region dead.  The right child is
   scrubbed first, so the hook sees guards in the order lint's position
   pairing was recorded in. *)
and scrub_dead (sv : solver) (m : M.t) : M.t =
  match m with
  | M.Guard (k, c) ->
    sv.on_guard k c (Some true);
    M.Return E.unit_e
  | M.Bind (a, p, b) ->
    let b' = scrub_dead sv b in
    mk_bind m (scrub_dead sv a) p b'
  | M.Try (a, p, h) ->
    let h' = scrub_dead sv h in
    mk_try m (scrub_dead sv a) p h'
  | M.Cond (c, a, b) ->
    let b' = scrub_dead sv b in
    mk_cond m c (scrub_dead sv a) b'
  | M.While (p, c, body, init) -> mk_while m p c (scrub_dead sv body) init
  | M.Return _ | M.Gets _ | M.Modify _ | M.Fail | M.Throw _ | M.Unknown _
  | M.Call _ | M.Exec_concrete _ -> m

(* Rebuild [m] over its walked children, or return [m] itself when no
   child changed: the walk's result is [==] its input exactly when it is
   structurally equal to it, so callers test "nothing discharged" in
   O(1) and no unchanged spine is copied.  [mk_bind] drops a discharged
   guard's [return ()] when nothing is bound to it; the constant cannot
   get stuck, so the bind is pure glue. *)
and mk_bind m a p b =
  match (a, p) with
  | M.Return (E.Const Value.Vunit), M.Pwild -> b
  | _ -> (
    match m with
    | M.Bind (a0, _, b0) when a == a0 && b == b0 -> m
    | _ -> M.Bind (a, p, b))

and mk_try m a p h =
  match m with M.Try (a0, _, h0) when a == a0 && h == h0 -> m | _ -> M.Try (a, p, h)

and mk_cond m c a b =
  match m with M.Cond (_, a0, b0) when a == a0 && b == b0 -> m | _ -> M.Cond (c, a, b)

and mk_while m p c body init =
  match m with
  | M.While (_, _, body0, _) when body == body0 -> m
  | _ -> M.While (p, c, body, init)

(* ------------------------------------------------------------------ *)
(* The certificate checker: no fixpoint — verify that each recorded
   invariant covers the loop head and is inductive, then reuse it.  A
   missing entry defaults to ⊤, which is trivially both. *)

let check_solver (sums : sums) (invs : (int * aenv) list) : solver =
  {
    solve =
      (fun idx head iterate ->
        let inv = match List.assoc_opt idx invs with Some e -> e | None -> env_top in
        if not (env_leq head inv) then
          cert_error "loop %d: head state %s not within invariant %s" idx
            (env_to_string head) (env_to_string inv);
        (match iterate inv with
        | None -> ()
        | Some nxt ->
          if not (env_leq nxt inv) then
            cert_error "loop %d: invariant %s not inductive (step gives %s)" idx
              (env_to_string inv) (env_to_string nxt));
        inv);
    on_guard = (fun _ _ _ -> ());
    sums;
    on_call = (fun _ _ -> ());
  }

(* Verify every summary in the table against the callee bodies the
   context supplies: one walk of the body from the claimed argument
   constraint, using the table itself at call sites (see the induction
   argument at [summary]).  No fixpoint — loop invariants ride in
   [s_invs] and get the same single inductiveness check as a
   certificate's.  Raises [Cert_error] on any violation. *)
let check_sums (lenv : Layout.env) (fbodies : M.func Index.t) (sums : sums) : unit =
  List.iter
    (fun (g, ss) ->
      let f =
        match Index.find_opt fbodies g with
        | Some f -> f
        | None -> cert_error "summary for unknown function %s" g
      in
      List.iter
        (fun s ->
          if List.length s.s_args <> List.length f.M.params then
            cert_error "summary %s: arity %d vs %d parameters" g
              (List.length s.s_args) (List.length f.M.params);
          let env =
            List.fold_left2
              (fun e (x, _) d -> set_var e x d)
              env_top f.M.params s.s_args
          in
          let sv = check_solver sums s.s_invs in
          let _, out = walk lenv sv 0 env f.M.body in
          (match out.onorm with
          | None -> ()
          | Some (_, rv) ->
            if s.s_noret then
              cert_error "summary %s: claims no normal return, body may return" g;
            if not (vdom_leq rv s.s_ret) then
              cert_error "summary %s: return %s exceeds claim %s" g
                (vdom_to_string rv) (vdom_to_string s.s_ret));
          match out.oexn with
          | Some _ when not s.s_throws -> cert_error "summary %s: body may throw" g
          | _ -> ())
        ss)
    sums

(* Kernel entry point, called from [Rules.infer] for [Rule_guard_true]:
   verify the certificate's summary table against the unit's callee
   bodies, then re-walk [m] under the certificate and return the
   rewritten term.  The walk is deterministic, so [Thm.check] reproduces
   it exactly. *)
let discharge (lenv : Layout.env) (fbodies : M.func Index.t) (cert : cert) (m : M.t) :
    (M.t, string) result =
  match
    check_sums lenv fbodies cert.c_sums;
    walk lenv (check_solver cert.c_sums cert.c_invs) 0 env_top m
  with
  | m', _ -> Result.Ok m'
  | exception Cert_error msg -> Result.Error msg
