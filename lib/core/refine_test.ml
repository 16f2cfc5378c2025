module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module B = Ac_bignum
module W = Ac_word
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module Heap = Ac_simpl.Heap
module State = Ac_simpl.State
module Sem = Ac_simpl.Sem
module M = Ac_monad.M
module Interp = Ac_monad.Interp
module Rules = Ac_kernel.Rules
module J = Ac_kernel.Judgment

(* Differential refinement testing.

   The kernel guarantees that each theorem follows from the rule base; this
   module provides the complementary empirical check that the *rule base
   itself* means what it claims: it executes the original Simpl program and
   the final abstraction side by side on randomised states and checks the
   refinement relation of the paper's abs_w_stmt/abs_h_stmt definitions —
   if the abstraction does not fail, the concrete program must not fail
   either and must produce the related result and state. *)

type verdict =
  | Agree (* both executed; results and states related *)
  | Abstract_failed (* the abstraction failed: no claim about the source *)
  | Skipped of string (* divergence/fuel: no verdict *)
  | Violation of string

let fuel = 50_000

(* ------------------------------------------------------------------ *)
(* Random state and argument generation. *)

type gen = {
  rand : Random.State.t;
  lenv : Layout.env;
  mutable heap : Heap.t;
  mutable ptr_pool : (Ty.cty * B.t) list;
}

let rand_word g width =
  let bits = W.bits width in
  let rec go acc remaining =
    if remaining <= 0 then acc
    else
      go
        (B.add (B.shift_left acc 16) (B.of_int (Random.State.int g.rand 0x10000)))
        (remaining - 16)
  in
  (* Bias toward boundary values, where overflow behaviour lives. *)
  match Random.State.int g.rand 6 with
  | 0 -> W.of_int width (Random.State.int g.rand 8)
  | 1 -> W.of_bignum width (B.pred (B.pow2 bits))
  | 2 -> W.of_bignum width (B.pow2 (bits - 1))
  | 3 -> W.of_bignum width (B.pred (B.pow2 (bits - 1)))
  | _ -> W.of_bignum width (go B.zero bits)

let rec alloc_object g (c : Ty.cty) : B.t =
  let addr, h = Heap.alloc g.lenv g.heap c in
  g.heap <- h;
  (* Fill with a random value of the right type. *)
  let v = rand_value g (Ty.of_cty c) in
  g.heap <- Heap.write_obj g.lenv g.heap c addr v;
  g.ptr_pool <- (c, addr) :: g.ptr_pool;
  addr

and rand_ptr g (c : Ty.cty) : B.t =
  let existing = List.filter (fun (c', _) -> Ty.cty_equal c c') g.ptr_pool in
  match Random.State.int g.rand 10 with
  | 0 -> B.zero (* NULL *)
  | _ when List.length existing >= 8 || (existing <> [] && Random.State.bool g.rand) ->
    snd (List.nth existing (Random.State.int g.rand (List.length existing)))
  | _ -> alloc_object g c

and rand_value g (t : Ty.t) : Value.t =
  match t with
  | Ty.Tunit -> Value.Vunit
  | Ty.Tbool -> Value.Vbool (Random.State.bool g.rand)
  | Ty.Tword (s, w) -> Value.vword s (rand_word g w)
  | Ty.Tint ->
    Value.Vint (B.of_int (Random.State.int g.rand 2_000_001 - 1_000_000))
  | Ty.Tnat -> Value.vnat (B.of_int (Random.State.int g.rand 1_000_000))
  | Ty.Tptr c -> Value.vptr (rand_ptr g c) c
  | Ty.Tstruct n ->
    Value.Vstruct
      ( n,
        List.map
          (fun (f : Layout.field) -> (f.Layout.fname, rand_value g (Ty.of_cty f.Layout.fty)))
          (Layout.fields_of g.lenv n) )
  | Ty.Ttuple ts -> Value.Vtuple (List.map (rand_value g) ts)

(* Random initial state + concrete arguments for a Simpl function. *)
let random_case (res : Driver.result) (rand : Random.State.t) (fname : string) :
    Value.t list * State.t =
  let simpl = res.Driver.simpl in
  let f = Option.get (Ac_simpl.Ir.find_func simpl fname) in
  let g = { rand; lenv = simpl.Ac_simpl.Ir.lenv; heap = Heap.empty; ptr_pool = [] } in
  (* Seed the heap with a few extra objects of the program's heap types so
     pointer chains (e.g. linked lists) have somewhere to point. *)
  List.iter
    (fun c -> ignore (alloc_object g c))
    (List.concat_map (fun c -> [ c; c ]) res.Driver.heap_types);
  let args = List.map (fun (_, t) -> rand_value g t) f.Ac_simpl.Ir.params in
  let globals =
    List.fold_left
      (fun s (x, t) -> State.set_global s x (rand_value g t))
      State.empty simpl.Ac_simpl.Ir.globals
  in
  (args, State.with_heap globals g.heap)

(* ------------------------------------------------------------------ *)
(* The refinement check itself. *)

let ret_conv (res : Driver.result) fname : J.conv =
  match Ac_kernel.Index.find_opt res.Driver.ctx.Rules.fsigs fname with
  | Some (_, (_, rc)) -> rc
  | None -> J.Cid

let param_convs (res : Driver.result) fname : J.conv list option =
  match Ac_kernel.Index.find_opt res.Driver.ctx.Rules.fsigs fname with
  | Some (_, (pcs, _)) -> Some pcs
  | None -> None

let run_case (res : Driver.result) fname (args : Value.t list) (state : State.t) : verdict =
  let concrete () = Sem.run_func res.Driver.simpl ~fuel state fname args in
  let abstract_args =
    match param_convs res fname with
    | Some pcs -> List.map2 J.apply_conv pcs args
    | None -> args
  in
  match Interp.run_func res.Driver.final_prog ~fuel state fname abstract_args with
  | Interp.Fails _ -> Abstract_failed
  | Interp.Diverges -> Skipped "abstract diverges (fuel)"
  | Interp.Gets_stuck m -> Violation ("abstract stuck: " ^ m)
  | Interp.Throws _ -> Violation "abstract threw at function level"
  | Interp.Returns (va, sa) -> (
    match concrete () with
    | Sem.Faults k ->
      Violation
        (Printf.sprintf "concrete faults (%s) while the abstraction succeeds"
           (Ac_simpl.Ir.guard_kind_name k))
    | Sem.Gets_stuck m -> Violation ("concrete stuck: " ^ m)
    | Sem.Diverges -> Skipped "concrete diverges (fuel)"
    | Sem.Returns (rv, sc) ->
      let vc = match rv with Some v -> v | None -> Value.Vunit in
      let expected = J.apply_conv (ret_conv res fname) vc in
      if not (Value.equal expected va) then
        Violation
          (Printf.sprintf "results differ: abstract %s, concrete %s"
             (Value.to_string va) (Value.to_string vc))
      else if not (Heap.equal sa.State.heap sc.State.heap) then Violation "final heaps differ"
      else if
        not
          (List.for_all
             (fun (x, _) ->
               Value.equal (State.get_global sa x) (State.get_global sc x))
             res.Driver.simpl.Ac_simpl.Ir.globals)
      then Violation "final globals differ"
      else Agree)

type report = {
  cases : int;
  agreed : int;
  abstract_failed : int;
  skipped : int;
  violations : (string * string) list; (* function, description *)
}

let check_function ?(cases = 100) ?(seed = 0xC0FFEE) (res : Driver.result) fname : report =
  let rand = Random.State.make [| seed; Hashtbl.hash fname |] in
  let agreed = ref 0 and failed = ref 0 and skipped = ref 0 in
  let violations = ref [] in
  for _ = 1 to cases do
    let args, state = random_case res rand fname in
    match run_case res fname args state with
    | Agree -> incr agreed
    | Abstract_failed -> incr failed
    | Skipped _ -> incr skipped
    | Violation d -> violations := (fname, d) :: !violations
  done;
  {
    cases;
    agreed = !agreed;
    abstract_failed = !failed;
    skipped = !skipped;
    violations = List.rev !violations;
  }

let check_program ?(cases = 100) ?seed (res : Driver.result) : report =
  List.fold_left
    (fun acc fr ->
      let r = check_function ~cases ?seed res fr.Driver.fr_name in
      {
        cases = acc.cases + r.cases;
        agreed = acc.agreed + r.agreed;
        abstract_failed = acc.abstract_failed + r.abstract_failed;
        skipped = acc.skipped + r.skipped;
        violations = acc.violations @ r.violations;
      })
    { cases = 0; agreed = 0; abstract_failed = 0; skipped = 0; violations = [] }
    res.Driver.funcs
