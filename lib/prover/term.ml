module B = Ac_bignum

(* The prover's term language.

   Verification conditions over the abstracted programs live here: ideal
   integers (naturals carry explicit non-negativity facts), booleans, and
   the split heaps as select/store arrays indexed by addresses-as-integers.
   This is deliberately the vocabulary of Mehta and Nipkow's high-level
   proofs [18]: the heap-abstraction phase is what makes C code fit it. *)

type sort =
  | Sint (* ideal integers; also pointers (addresses) *)
  | Sbool
  | Sarr of sort (* integer-indexed arrays: split heaps, validity maps *)
  | Sseq (* finite sequences (ghost lists) *)

let rec sort_equal a b =
  match (a, b) with
  | Sint, Sint | Sbool, Sbool | Sseq, Sseq -> true
  | Sarr x, Sarr y -> sort_equal x y
  | (Sint | Sbool | Sarr _ | Sseq), _ -> false

(* Total order on sorts, consistent with [sort_equal]. *)
let rec sort_compare a b =
  let rank = function Sint -> 0 | Sbool -> 1 | Sarr _ -> 2 | Sseq -> 3 in
  match (a, b) with
  | Sarr x, Sarr y -> sort_compare x y
  | _ -> Int.compare (rank a) (rank b)

let rec pp_sort fmt = function
  | Sint -> Format.pp_print_string fmt "int"
  | Sbool -> Format.pp_print_string fmt "bool"
  | Sarr s -> Format.fprintf fmt "(array %a)" pp_sort s
  | Sseq -> Format.pp_print_string fmt "seq"

(* Sorts of the sequence-theory function symbols (see Seq). *)
let uf_sort = function
  | "islist" | "mem" | "disjoint" -> Sbool
  | "nil" | "cons" | "append" | "rev" | "stail" -> Sseq
  | _ -> Sint

type sym =
  | Add
  | Sub
  | Neg
  | Mul
  | Div (* truncated, matching the spec language *)
  | Mod
  | Le
  | Lt
  | Eq (* polymorphic *)
  | Not
  | And
  | Or
  | Imp
  | Ite (* polymorphic *)
  | Select (* array read *)
  | Store (* array write *)
  | Uf of string (* uninterpreted / user-defined function *)

let sym_name = function
  | Add -> "+"
  | Sub -> "-"
  | Neg -> "neg"
  | Mul -> "*"
  | Div -> "div"
  | Mod -> "mod"
  | Le -> "<="
  | Lt -> "<"
  | Eq -> "="
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Imp -> "=>"
  | Ite -> "ite"
  | Select -> "select"
  | Store -> "store"
  | Uf f -> f

(* Explicit equality and order on symbols: [Uf] carries a string, and the
   constant constructors get a fixed rank, so neither relies on the
   polymorphic primitives (a requirement for anything used as a hash-cons
   or map key — see [compare_t]/[hash_t] below). *)
let sym_equal f g =
  match (f, g) with
  | Uf a, Uf b -> String.equal a b
  | Uf _, _ | _, Uf _ -> false
  | _ -> f = g (* both constant constructors: immediate *)

let sym_rank = function
  | Add -> 0 | Sub -> 1 | Neg -> 2 | Mul -> 3 | Div -> 4 | Mod -> 5
  | Le -> 6 | Lt -> 7 | Eq -> 8 | Not -> 9 | And -> 10 | Or -> 11
  | Imp -> 12 | Ite -> 13 | Select -> 14 | Store -> 15 | Uf _ -> 16

let sym_compare f g =
  match (f, g) with
  | Uf a, Uf b -> String.compare a b
  | _ -> Int.compare (sym_rank f) (sym_rank g)

type t =
  | Int of B.t
  | Bool of bool
  | Var of string * sort
  | App of sym * t list

let tt = Bool true
let ff = Bool false
let zero = Int B.zero
let one = Int B.one
let int_of n = Int (B.of_int n)

(* ------------------------------------------------------------------ *)
(* Structure. *)

(* The physical fast path makes equality O(1) on hash-consed terms (see
   [hc] below): two interned terms are equal iff they are the same node,
   and structurally-compared terms short-circuit on shared subterms. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Int x, Int y -> B.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Var (x, s), Var (y, u) -> String.equal x y && sort_equal s u
  | App (f, xs), App (g, ys) ->
    sym_equal f g && List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Int _ | Bool _ | Var _ | App _), _ -> false

(* Total order, consistent with [equal]: [compare_t a b = 0 <=> equal a b].
   In particular variables are ordered by name *and then sort*, matching
   the name-and-sort equality above (two same-named variables of different
   sorts must not collapse in a [compare_t]-keyed map), and no case falls
   back to the polymorphic primitives. *)
let rec compare_t a b =
  if a == b then 0
  else
    match (a, b) with
    | Int x, Int y -> B.compare x y
    | Bool x, Bool y -> Bool.compare x y
    | Var (x, s), Var (y, u) ->
      let c = String.compare x y in
      if c <> 0 then c else sort_compare s u
    | App (f, xs), App (g, ys) ->
      let c = sym_compare f g in
      if c <> 0 then c
      else begin
        let c = Int.compare (List.length xs) (List.length ys) in
        if c <> 0 then c
        else
          List.fold_left2 (fun acc x y -> if acc <> 0 then acc else compare_t x y) 0 xs ys
      end
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Bool _, _ -> -1
    | _, Bool _ -> 1
    | Var _, _ -> -1
    | _, Var _ -> 1

(* Hashtables keyed on *physical* identity.  [Hashtbl.hash] is fine as
   the bucket function: it bounds its own traversal (so it is O(1) even
   on deep terms), and any collision is resolved by a pointer compare. *)
module PhysTbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Per-domain memo of the full structural hash of interned nodes (see the
   hash-consing section below; [hc] populates it, [hc_clear] drops it).
   A node is in this table iff it is this domain's canonical
   representative — [hc] also uses membership as its O(1) fast path. *)
let hash_memo_key : int PhysTbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> PhysTbl.create 1024)

(* Full structural hash, consistent with [equal]: integer leaves go
   through [B.hash] (the polymorphic hash would be wrong on any
   non-canonical bignum representation).  The traversal is NOT
   depth-bounded — truncating made every deep term that agrees near the
   root land in one bucket, degrading the hash-cons table and the cc
   index to linear scans — instead the hash of every interned node is
   memoized, so hashing a term built from interned children is O(arity),
   and interning a fresh term is O(1) amortized per node. *)
let comb acc h = ((acc * 65599) + h) land max_int

let rec hash_t (t : t) : int =
  match PhysTbl.find_opt (Domain.DLS.get hash_memo_key) t with
  | Some h -> h
  | None -> (
    match t with
    | Int n -> comb 3 (B.hash n)
    | Bool b -> if b then 5 else 7
    | Var (x, s) -> comb (comb 11 (Hashtbl.hash x)) (Hashtbl.hash s)
    | App (f, xs) ->
      List.fold_left
        (fun acc x -> comb acc (hash_t x))
        (comb (comb 13 (Hashtbl.hash (sym_name f))) (List.length xs))
        xs)

(* Hashtables keyed on terms (structural equality, [B]-aware hash).  Used
   by the hash-cons table below and by the congruence closure's term
   index. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash_t
end)

(* ------------------------------------------------------------------ *)
(* Hash-consing.

   [hc] returns the canonical, maximally-shared representative of a term:
   for any [a] and [b], [hc a == hc b <=> equal a b] (within one domain).
   Canonical nodes also carry a unique id ([hc_id]), usable as a cheap
   hash key.  This is a pure performance layer: nothing in the kernel or
   the prover *relies* on sharing for soundness — the tables live outside
   any trusted code, and [equal] falls back to the structural walk for
   non-interned terms.

   The state is domain-local (each worker of the parallel driver interns
   into its own table), so no locking is needed and physical-identity
   claims never cross domains.  The driver clears the main domain's table
   per run; worker tables die with their domain. *)

type hc_state = {
  hc_tbl : t Tbl.t; (* structural term -> canonical representative *)
  hc_ids : int Tbl.t; (* canonical representative -> unique id *)
  mutable hc_next : int;
}

let hc_key =
  Domain.DLS.new_key (fun () ->
      { hc_tbl = Tbl.create 1024; hc_ids = Tbl.create 1024; hc_next = 0 })

let rec hc (t : t) : t =
  let memo = Domain.DLS.get hash_memo_key in
  if PhysTbl.mem memo t then t (* already this domain's canonical node *)
  else begin
    (* Canonicalise the children first (sharing them), THEN look the
       rebuilt node up: its children are interned, so hashing it costs
       O(arity) via the memo rather than a full structural walk. *)
    let c =
      match t with
      | Int _ | Bool _ | Var _ -> t
      | App (f, xs) ->
        let xs' = List.map hc xs in
        if List.for_all2 ( == ) xs xs' then t else App (f, xs')
    in
    let st = Domain.DLS.get hc_key in
    match Tbl.find_opt st.hc_tbl c with
    | Some canon -> canon
    | None ->
      Tbl.replace st.hc_tbl c c;
      st.hc_next <- st.hc_next + 1;
      Tbl.replace st.hc_ids c st.hc_next;
      PhysTbl.replace memo c (hash_t c);
      c
  end

(* The unique id of a term's canonical representative. *)
let hc_id (t : t) : int =
  let st = Domain.DLS.get hc_key in
  match Tbl.find_opt st.hc_ids (hc t) with Some i -> i | None -> assert false

(* Number of distinct terms interned in this domain's table. *)
let hc_size () = Tbl.length (Domain.DLS.get hc_key).hc_tbl

(* Drop this domain's table (the driver calls this per run, so canonical
   nodes — and their ids — never leak across runs). *)
let hc_clear () =
  let st = Domain.DLS.get hc_key in
  Tbl.reset st.hc_tbl;
  Tbl.reset st.hc_ids;
  st.hc_next <- 0;
  PhysTbl.reset (Domain.DLS.get hash_memo_key)

let children = function App (_, xs) -> xs | _ -> []

let rec fold f acc t = List.fold_left (fold f) (f acc t) (children t)

let size t = fold (fun n _ -> n + 1) 0 t

let free_vars t =
  let module SSet = Set.Make (String) in
  fold (fun acc t -> match t with Var (x, _) -> SSet.add x acc | _ -> acc) SSet.empty t
  |> SSet.elements

let var_sorts t =
  fold
    (fun acc t ->
      match t with
      | Var (x, s) -> if List.mem_assoc x acc then acc else (x, s) :: acc
      | _ -> acc)
    [] t

let rec subst (bindings : (string * t) list) t =
  match t with
  | Var (x, _) -> ( match List.assoc_opt x bindings with Some v -> v | None -> t)
  | App (f, xs) -> App (f, List.map (subst bindings) xs)
  | Int _ | Bool _ -> t

(* ------------------------------------------------------------------ *)
(* Constructors with light simplification. *)

let not_t = function
  | Bool b -> Bool (not b)
  | App (Not, [ x ]) -> x
  | x -> App (Not, [ x ])

let and_t a b =
  match (a, b) with
  | Bool true, x | x, Bool true -> x
  | Bool false, _ | _, Bool false -> ff
  | _ -> App (And, [ a; b ])

let or_t a b =
  match (a, b) with
  | Bool false, x | x, Bool false -> x
  | Bool true, _ | _, Bool true -> tt
  | _ -> App (Or, [ a; b ])

let imp_t a b =
  match (a, b) with
  | Bool true, x -> x
  | Bool false, _ | _, Bool true -> tt
  | _ -> App (Imp, [ a; b ])

let conj = function [] -> tt | x :: xs -> List.fold_left and_t x xs
let disj = function [] -> ff | x :: xs -> List.fold_left or_t x xs

let eq_t a b = if equal a b then tt else App (Eq, [ a; b ])
let le_t a b = App (Le, [ a; b ])
let lt_t a b = App (Lt, [ a; b ])
let add_t a b = App (Add, [ a; b ])
let sub_t a b = App (Sub, [ a; b ])
let mul_t a b = App (Mul, [ a; b ])
let ite_t c a b = match c with Bool true -> a | Bool false -> b | _ -> App (Ite, [ c; a; b ])
let select_t a i = App (Select, [ a; i ])
let store_t a i v = App (Store, [ a; i; v ])

(* ------------------------------------------------------------------ *)
(* Sort inference (best effort; terms are constructed well-sorted). *)

let rec sort_of (t : t) : sort =
  match t with
  | Int _ -> Sint
  | Bool _ -> Sbool
  | Var (_, s) -> s
  | App (f, args) -> (
    match f with
    | Add | Sub | Neg | Mul | Div | Mod -> Sint
    | Le | Lt | Eq | Not | And | Or | Imp -> Sbool
    | Ite -> ( match args with [ _; a; _ ] -> sort_of a | _ -> Sint)
    | Select -> (
      match args with
      | [ a; _ ] -> ( match sort_of a with Sarr s -> s | _ -> Sint)
      | _ -> Sint)
    | Store -> ( match args with a :: _ -> sort_of a | _ -> Sarr Sint)
    | Uf f -> uf_sort f)

(* ------------------------------------------------------------------ *)
(* Printing. *)

let rec pp fmt (t : t) =
  match t with
  | Int n -> B.pp fmt n
  | Bool b -> Format.pp_print_bool fmt b
  | Var (x, _) -> Format.pp_print_string fmt x
  | App (f, args) ->
    Format.fprintf fmt "@[<hov 1>(%s%a)@]" (sym_name f)
      (fun fmt -> List.iter (fun a -> Format.fprintf fmt "@ %a" pp a))
      args

let to_string t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* Ground evaluation under an assignment, for counter-model checking.
   Arrays are association lists with a default. *)

type value =
  | Vint of B.t
  | Vbool of bool
  | Varr of (B.t * value) list * value
  | Vseq of value list

exception Eval_failed of string

let rec veq a b =
  match (a, b) with
  | Vint x, Vint y -> B.equal x y
  | Vbool x, Vbool y -> Bool.equal x y
  | Varr (xs, dx), Varr (ys, dy) ->
    (* compare on the union of defined indices *)
    let keys = List.sort_uniq B.compare (List.map fst xs @ List.map fst ys) in
    veq dx dy
    && List.for_all
         (fun k ->
           let look l = match List.assoc_opt k l with Some v -> v | None -> dx in
           let looky l = match List.assoc_opt k l with Some v -> v | None -> dy in
           veq (look xs) (looky ys))
         keys
  | Vseq xs, Vseq ys -> List.length xs = List.length ys && List.for_all2 veq xs ys
  | (Vint _ | Vbool _ | Varr _ | Vseq _), _ -> false

let rec eval ?(interp : (string -> value list -> value) option) (env : (string * value) list)
    (t : t) : value =
  let eval env t = eval ?interp env t in
  let int_v t = match eval env t with Vint n -> n | _ -> raise (Eval_failed "int expected") in
  let bool_v t =
    match eval env t with Vbool b -> b | _ -> raise (Eval_failed "bool expected")
  in
  match t with
  | Int n -> Vint n
  | Bool b -> Vbool b
  | Var (x, _) -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None -> raise (Eval_failed ("unbound " ^ x)))
  | App (f, args) -> (
    match (f, args) with
    | Add, [ a; b ] -> Vint (B.add (int_v a) (int_v b))
    | Sub, [ a; b ] -> Vint (B.sub (int_v a) (int_v b))
    | Neg, [ a ] -> Vint (B.neg (int_v a))
    | Mul, [ a; b ] -> Vint (B.mul (int_v a) (int_v b))
    | Div, [ a; b ] ->
      let d = int_v b in
      Vint (if B.is_zero d then B.zero else B.div (int_v a) d)
    | Mod, [ a; b ] ->
      let d = int_v b in
      Vint (if B.is_zero d then int_v a else B.rem (int_v a) d)
    | Le, [ a; b ] -> Vbool (B.le (int_v a) (int_v b))
    | Lt, [ a; b ] -> Vbool (B.lt (int_v a) (int_v b))
    | Eq, [ a; b ] -> Vbool (veq (eval env a) (eval env b))
    | Not, [ a ] -> Vbool (not (bool_v a))
    | And, [ a; b ] -> Vbool (bool_v a && bool_v b)
    | Or, [ a; b ] -> Vbool (bool_v a || bool_v b)
    | Imp, [ a; b ] -> Vbool ((not (bool_v a)) || bool_v b)
    | Ite, [ c; a; b ] -> if bool_v c then eval env a else eval env b
    | Select, [ a; i ] -> (
      match eval env a with
      | Varr (entries, d) -> (
        match List.assoc_opt (int_v i) entries with Some v -> v | None -> d)
      | _ -> raise (Eval_failed "array expected"))
    | Store, [ a; i; v ] -> (
      match eval env a with
      | Varr (entries, d) -> Varr ((int_v i, eval env v) :: entries, d)
      | _ -> raise (Eval_failed "array expected"))
    | Uf f, _ -> (
      match interp with
      | Some i -> i f (List.map (eval env) args)
      | None -> raise (Eval_failed ("uninterpreted " ^ f)))
    | _ -> raise (Eval_failed ("arity: " ^ sym_name f)))
