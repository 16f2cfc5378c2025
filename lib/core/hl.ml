module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Index = Ac_kernel.Index

(* Phase HL: heap abstraction (paper Sec 4).

   Byte-level heap operations become functional accesses of per-type split
   heaps, pointer-validity guards become [is_valid] checks, and calls into
   non-lifted (type-unsafe) functions are wrapped in [exec_concrete]
   (Sec 4.6).  Each step is a Table 4 rule application in the kernel. *)

exception Not_liftable of string

let abs_of_stmt (thm : Thm.t) : M.t =
  match Thm.concl thm with
  | J.Abs_h_stmt (a, _) -> a
  | _ -> invalid_arg "Hl.abs_of_stmt"

(* Value abstraction (abs_h_val). *)
let rec hv (ctx : Rules.ctx) (e : E.t) : Thm.t =
  match e with
  | E.HeapRead (_, E.FieldAddr (sname, fname, p)) ->
    Thm.by ctx (Rules.Hv_read_field (sname, fname)) [ hv ctx p ]
  | E.HeapRead (c, p) -> Thm.by ctx (Rules.Hv_read c) [ hv ctx p ]
  | _ when not (E.reads_concrete_heap e) -> Thm.by ctx (Rules.Hv_id e) []
  (* Short-circuit connectives weaken the right operand's validity
     obligations by the left operand's value (cf. the translation's
     conditional guards). *)
  | E.Binop (((E.And | E.Or) as op), a, b) ->
    Thm.by ctx (Rules.Hv_shortcircuit op) [ hv ctx a; hv ctx b ]
  | E.Ite (c, a, b) -> Thm.by ctx Rules.Hv_ite [ hv ctx c; hv ctx a; hv ctx b ]
  | _ -> Thm.by ctx (Rules.Hv_node e) (List.map (hv ctx) (E.children e))

(* Statement abstraction (abs_h_stmt).  [go] answers [None] for a
   statement that never touches the byte heap (no heap read or write, no
   retype, no pointer-validity guard nor one [strengthen_positive]
   rewrites, no call), deciding it from its children's answers; the
   largest such subterms are then abstracted by one [Hs_id] step each. *)
let hs (ctx : Rules.ctx) (m : M.t) : Thm.t =
  let pure e = not (E.reads_concrete_heap e) in
  let sub m = function Some thm -> thm | None -> Thm.by ctx (Rules.Hs_id m) [] in
  let value rule e = if pure e then None else Some (Thm.by ctx rule [ hv ctx e ]) in
  let rec go (m : M.t) : Thm.t option =
    match m with
    | M.Return e -> value Rules.Hs_ret e
    | M.Gets e -> value Rules.Hs_gets e
    | M.Guard (Ir.Ptr_valid, E.Binop (E.And, E.PtrAligned (c, p), E.PtrSpan (c', p')))
      when Ty.cty_equal c c' && E.equal p p' ->
      Some (Thm.by ctx (Rules.Hs_guard_ptr c) [ hv ctx p ])
    | M.Guard (k, g) ->
      let g' = Rules.strengthen_positive g in
      if not (E.equal g' g) then Some (Thm.by ctx (Rules.Hs_guard_strengthen k) [ hv ctx g' ])
      else if k <> Ir.Ptr_valid && pure g then None
      else Some (Thm.by ctx (Rules.Hs_guard k) [ hv ctx g ])
    | M.Modify [ M.Heap_write (_, E.FieldAddr (sname, fname, p), v) ] ->
      Some (Thm.by ctx (Rules.Hs_write_field (sname, fname)) [ hv ctx p; hv ctx v ])
    | M.Modify [ M.Heap_write (c, p, v) ] ->
      Some (Thm.by ctx (Rules.Hs_write c) [ hv ctx p; hv ctx v ])
    | M.Modify sms ->
      if List.exists (function M.Retype _ -> true | _ -> false) sms then
        raise (Not_liftable "retype in heap-lifted code");
      let prems =
        List.map
          (function
            | M.Global_set (_, e) | M.Local_set (_, e) -> e
            | M.Heap_write _ | M.Typed_write _ | M.Retype _ ->
              raise (Not_liftable "compound heap modify"))
          sms
      in
      if List.for_all pure prems then None
      else Some (Thm.by ctx (Rules.Hs_modify sms) (List.map (hv ctx) prems))
    | M.Fail | M.Unknown _ -> None
    | M.Throw e -> value Rules.Hs_throw e
    | M.Bind (a, p, b) -> (
      match (go a, go b) with
      | None, None -> None
      | ra, rb -> Some (Thm.by ctx (Rules.Hs_bind p) [ sub a ra; sub b rb ]))
    | M.Try (a, p, h) -> (
      match (go a, go h) with
      | None, None -> None
      | ra, rh -> Some (Thm.by ctx (Rules.Hs_try p) [ sub a ra; sub h rh ]))
    | M.Cond (c, a, b) -> (
      match (go a, go b) with
      | None, None when pure c -> None
      | ra, rb -> Some (Thm.by ctx Rules.Hs_cond [ hv ctx c; sub a ra; sub b rb ]))
    | M.While (p, c, body, init) -> (
      match go body with
      | None when pure c && pure init -> None
      | rb -> Some (Thm.by ctx (Rules.Hs_while p) [ hv ctx init; hv ctx c; sub body rb ]))
    | M.Call (f, args) ->
      let prems = List.map (hv ctx) args in
      if Index.mem ctx.Rules.lifted f then Some (Thm.by ctx (Rules.Hs_call f) prems)
      else Some (Thm.by ctx (Rules.Hs_call_concrete f) prems)
    | M.Exec_concrete _ -> raise (Not_liftable "exec_concrete below heap abstraction")
  in
  sub m (go m)

(* Abstract one function, then run the certified clean-up (de-duplicating
   and discharging the freshly introduced validity guards). *)
(* Returns the function plus the derivation steps: the abs_h_stmt theorem
   and, when it changed anything, the clean-up equivalence, chained by the
   driver into the per-function refinement theorem. *)
let convert_func ?(polish = true) (ctx : Rules.ctx) (f : M.func) : M.func * Thm.t list =
  let thm = hs ctx f.M.body in
  let abs = abs_of_stmt thm in
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
