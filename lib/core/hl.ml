module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* Phase HL: heap abstraction (paper Sec 4).

   Byte-level heap operations become functional accesses of per-type split
   heaps, pointer-validity guards become [is_valid] checks, and calls into
   non-lifted (type-unsafe) functions are wrapped in [exec_concrete]
   (Sec 4.6).  Table 4 is syntax-directed, so the whole body is abstracted
   by one [Hl] kernel step, which computes the image itself. *)

(* Abstract one function, then run the certified clean-up (de-duplicating
   and discharging the freshly introduced validity guards).  Returns the
   function plus the derivation steps: the abs_h_stmt theorem and, when it
   changed anything, the clean-up equivalence, chained by the driver into
   the per-function refinement theorem. *)
let convert_func ?(polish = true) (ctx : Rules.ctx) (f : M.func) : M.func * Thm.t list =
  let thm = Thm.by ctx (Rules.Hl f.M.body) [] in
  let abs =
    match Thm.concl thm with J.Abs_h_stmt (a, _) -> a | _ -> invalid_arg "Hl.convert_func"
  in
  let cleaned = if polish then Rewrite.normalize ctx abs else None in
  let body = match cleaned with Some t -> Rewrite.abs_of t | None -> abs in
  ({ f with M.body = body; heap_model = M.Typed_split }, thm :: Option.to_list cleaned)

(* The split heaps required by a set of lifted functions: every C type the
   code reads or writes through the heap (paper Sec 4.4). *)
let heap_types_of_func (f : M.func) : Ty.cty list =
  let acc = ref [] in
  let add c = if not (List.exists (Ty.cty_equal c) !acc) then acc := c :: !acc in
  let scan_expr e =
    let rec go e =
      (match e with
      | E.HeapRead (c, _) | E.TypedRead (c, _) | E.IsValid (c, _)
      | E.PtrAligned (c, _) | E.PtrSpan (c, _) ->
        add c
      | E.FieldAddr (sname, _, _) -> add (Ty.Cstruct sname)
      | _ -> ());
      List.iter go (E.children e)
    in
    go e
  in
  M.iter_exprs scan_expr f.M.body;
  let rec scan_writes m =
    match m with
    | M.Modify sms ->
      List.iter
        (function
          | M.Heap_write (c, _, _) | M.Typed_write (c, _, _) | M.Retype (c, _) -> add c
          | M.Global_set _ | M.Local_set _ -> ())
        sms
    | M.Bind (a, _, b) | M.Try (a, _, b) ->
      scan_writes a;
      scan_writes b
    | M.Cond (_, a, b) ->
      scan_writes a;
      scan_writes b
    | M.While (_, _, body, _) -> scan_writes body
    | _ -> ()
  in
  scan_writes f.M.body;
  List.rev !acc
