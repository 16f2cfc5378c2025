module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module W = Ac_word
module B = Ac_bignum
module Value = Ac_lang.Value
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Index = Ac_kernel.Index

(* Phase WA: word abstraction (paper Sec 3).

   Local variables and arguments of machine-word type become ideal naturals
   (unsigned) or integers (signed).  The strategy below drives the kernel's
   Table 3 rule set:

   - arithmetic whose operands abstract ideally becomes ideal arithmetic,
     with no-overflow preconditions collected and emitted as guards;
   - anything outside the ruleset falls back to re-concretisation
     (of_nat/of_int around the ideal variables), which is always sound;
   - users can extend the strategy with custom rules (Sec 3.3), e.g. for
     overflow-test idioms. *)

exception Not_abstractable of string

(* A user extension: tries to produce an Abs_w_val theorem for an
   expression; consulted before the built-in strategy. *)
type custom_value_rule = Rules.ctx -> E.t -> Thm.t option

let conv_of_sign = Rules.conv_of_sign

(* Lightweight type hint for concrete expressions, from annotations. *)
let rec ty_hint (e : E.t) : Ty.t option =
  match e with
  | E.Const v -> Some (Value.ty_of v)
  | E.Var (_, t) | E.Global (_, t) -> Some t
  | E.Unop (E.Not, _) -> Some Ty.Tbool
  | E.Unop (_, x) -> ty_hint x
  | E.Binop ((E.Eq | E.Ne | E.Lt | E.Le | E.Gt | E.Ge | E.And | E.Or | E.Imp), _, _) ->
    Some Ty.Tbool
  | E.Binop (_, x, y) -> ( match ty_hint x with Some t -> Some t | None -> ty_hint y)
  | E.Ite (_, x, y) -> ( match ty_hint x with Some t -> Some t | None -> ty_hint y)
  | E.Cast (t, _) | E.OfWord (t, _) -> Some t
  | E.HeapRead (c, _) | E.TypedRead (c, _) -> Some (Ty.of_cty c)
  | E.IsValid _ | E.PtrAligned _ | E.PtrSpan _ -> Some Ty.Tbool
  | E.PtrAdd (c, _, _) -> Some (Ty.Tptr c)
  | E.FieldAddr _ | E.StructGet _ | E.StructSet _ | E.Tuple _ | E.Proj _ -> None

let word_hint e =
  match ty_hint e with Some (Ty.Tword (s, w)) -> Some (s, w) | _ -> None

type strategy = { customs : custom_value_rule list }

let default_strategy = { customs = [] }

(* ------------------------------------------------------------------ *)
(* Value abstraction. *)

(* Ideal-route abstraction of a word-typed expression: produce a theorem
   with conv = unat/sint.  Fails (None) outside the ruleset. *)
let rec wv_ideal strat ctx (sign, w) (e : E.t) : Thm.t option =
  let custom =
    List.fold_left
      (fun acc rule ->
        match acc with
        | Some _ -> acc
        | None -> (
          match rule ctx e with
          | Some thm -> (
            match Thm.concl thm with
            | J.Abs_w_val (_, f, _, _) when J.conv_equal f (conv_of_sign sign w) -> Some thm
            | _ -> None)
          | None -> None))
      None strat.customs
  in
  match custom with
  | Some thm -> Some thm
  | None -> (
    match e with
    | E.Const (Value.Vword (s, word)) when s = sign && W.width_of word = w ->
      Thm.by_opt ctx (Rules.W_const (sign, w, W.unat word)) []
    | E.Var (x, Ty.Tword (s, w')) when s = sign && w' = w -> (
      match List.assoc_opt x ctx.Rules.wvars with
      | Some _ -> Thm.by_opt ctx (Rules.W_var x) []
      | None -> None)
    | E.Binop (((E.Add | E.Sub | E.Mul | E.Div | E.Rem) as op), a, b) -> (
      match (wv_ideal strat ctx (sign, w) a, wv_ideal strat ctx (sign, w) b) with
      | Some ta, Some tb -> Thm.by_opt ctx (Rules.W_binop (op, sign, w)) [ ta; tb ]
      | _ -> None)
    | E.Unop (E.Neg, a) when sign = Ty.Signed -> (
      match wv_ideal strat ctx (sign, w) a with
      | Some ta -> Thm.by_opt ctx (Rules.W_neg (sign, w)) [ ta ]
      | None -> None)
    | E.Ite (c, a, b) -> (
      let tc = wv_cid ~safe:true strat ctx c in
      match (wv_ideal strat ctx (sign, w) a, wv_ideal strat ctx (sign, w) b) with
      | Some ta, Some tb -> Thm.by_opt ctx Rules.W_ite [ tc; ta; tb ]
      | _ -> None)
    | _ -> None)

(* Cid abstraction: always succeeds.  [safe] avoids rules that introduce
   preconditions (used for loop conditions, which cannot be guarded). *)
and wv_cid ?(safe = false) strat ctx (e : E.t) : Thm.t =
  let custom =
    List.fold_left
      (fun acc rule ->
        match acc with
        | Some _ -> acc
        | None -> (
          match rule ctx e with
          | Some thm -> (
            match Thm.concl thm with
            | J.Abs_w_val (p, J.Cid, _, _) when (not safe) || E.equal p E.true_e -> Some thm
            | _ -> None)
          | None -> None))
      None strat.customs
  in
  match custom with
  | Some thm -> thm
  | None -> (
    if not (Rules.mentions_wvar ctx e) then Thm.by ctx (Rules.W_id e) []
    else begin
      match e with
      | E.Var (x, Ty.Tword (s, w)) when List.mem_assoc x ctx.Rules.wvars ->
        Thm.by ctx (Rules.W_recon (s, w)) [ Thm.by ctx (Rules.W_var x) [] ]
      | E.OfWord (Ty.Tint, x) -> (
        match word_hint x with
        | Some (Ty.Signed, w) -> (
          match wv_ideal strat ctx (Ty.Signed, w) x with
          | Some t when (not safe) || precond_trivial t ->
            Thm.by ctx (Rules.W_unconv (Ty.Signed, w)) [ t ]
          | _ -> node_fallback ~safe strat ctx e)
        | _ -> node_fallback ~safe strat ctx e)
      | E.OfWord (Ty.Tnat, x) -> (
        match word_hint x with
        | Some (Ty.Unsigned, w) -> (
          match wv_ideal strat ctx (Ty.Unsigned, w) x with
          | Some t when (not safe) || precond_trivial t ->
            Thm.by ctx (Rules.W_unconv (Ty.Unsigned, w)) [ t ]
          | _ -> node_fallback ~safe strat ctx e)
        | _ -> node_fallback ~safe strat ctx e)
      | E.Binop (((E.Lt | E.Le | E.Gt | E.Ge | E.Eq | E.Ne) as op), a, b) -> (
        (* Prefer the ideal comparison when both operands lift. *)
        match word_hint a with
        | Some (s, w) -> (
          match (wv_ideal strat ctx (s, w) a, wv_ideal strat ctx (s, w) b) with
          | Some ta, Some tb -> (
            match Thm.by_opt ctx (Rules.W_binop (op, s, w)) [ ta; tb ] with
            | Some t when (not safe) || precond_trivial t -> t
            | _ -> node_fallback ~safe strat ctx e)
          | _ -> node_fallback ~safe strat ctx e)
        | None -> node_fallback ~safe strat ctx e)
      | _ -> node_fallback ~safe strat ctx e
    end)

and precond_trivial (t : Thm.t) =
  match Thm.concl t with
  | J.Abs_w_val (p, _, _, _) -> E.equal p E.true_e
  | _ -> false

and node_fallback ~safe strat ctx (e : E.t) : Thm.t =
  match e with
  | E.Var (x, _) when List.mem_assoc x ctx.Rules.wvars -> (
    match List.assoc_opt x ctx.Rules.wvars with
    | Some (s, w) -> Thm.by ctx (Rules.W_recon (s, w)) [ Thm.by ctx (Rules.W_var x) [] ]
    | None -> assert false)
  | E.Binop (((E.And | E.Or) as op), a, b) when not safe ->
    Thm.by ctx (Rules.W_shortcircuit op)
      [ wv_cid ~safe strat ctx a; wv_cid ~safe strat ctx b ]
  | _ ->
    Thm.by ctx (Rules.W_node e) (List.map (wv_cid ~safe strat ctx) (E.children e))

(* Abstraction at a target conv. *)
let rec wv strat ctx (want : J.conv) (e : E.t) : Thm.t =
  match want with
  | J.Cid -> wv_cid strat ctx e
  | J.Cunat w -> (
    match wv_ideal strat ctx (Ty.Unsigned, w) e with
    | Some t -> t
    | None -> Thm.by ctx (Rules.W_abs_any (Ty.Unsigned, w)) [ wv_cid strat ctx e ])
  | J.Csint w -> (
    match wv_ideal strat ctx (Ty.Signed, w) e with
    | Some t -> t
    | None -> Thm.by ctx (Rules.W_abs_any (Ty.Signed, w)) [ wv_cid strat ctx e ])
  | J.Ctuple cs -> (
    match e with
    | E.Tuple es when List.length es = List.length cs ->
      Thm.by ctx Rules.W_tuple (List.map2 (wv strat ctx) cs es)
    | E.Ite (c, a, b) ->
      (* distribute the tuple conv over the conditional *)
      Thm.by ctx Rules.W_ite
        [ wv_cid strat ctx c; wv strat ctx want a; wv strat ctx want b ]
    | _ when cs = [] -> Thm.by ctx Rules.W_tuple []
    | _ -> (
      match cs with
      | [ c1 ] -> wv strat ctx c1 e
      | _ ->
        raise
          (Not_abstractable
             (Format.asprintf "tuple-conv (%d comps: %a) of expression: %a" (List.length cs)
                (Format.pp_print_list J.pp_conv) cs
                (Ac_lang.Pretty.pp_expr ~ctx:0) e))))

(* ------------------------------------------------------------------ *)
(* Statement abstraction.  Always returns a theorem with trivial
   precondition (guards are prepended by the kernel's wrap rule). *)

let wrap ctx (t : Thm.t) : Thm.t =
  match Thm.concl t with
  | J.Abs_w_stmt (p, _, _, _, _) when E.equal p E.true_e -> t
  | J.Abs_w_stmt _ -> Thm.by ctx Rules.Ws_wrap_guard [ t ]
  | _ -> invalid_arg "Wa.wrap"

let rec ws strat ctx (want : J.conv) (m : M.t) : Thm.t =
  match m with
  | M.Return e -> wrap ctx (Thm.by ctx Rules.Ws_ret [ wv strat ctx want e ])
  | M.Gets e -> wrap ctx (Thm.by ctx Rules.Ws_gets [ wv strat ctx want e ])
  | M.Guard (k, g) -> wrap ctx (Thm.by ctx (Rules.Ws_guard k) [ wv_cid strat ctx g ])
  | M.Modify sms ->
    let prems =
      List.concat_map
        (function
          | M.Heap_write (_, p, v) | M.Typed_write (_, p, v) ->
            [ wv_cid strat ctx p; wv_cid strat ctx v ]
          | M.Global_set (_, e) | M.Local_set (_, e) | M.Retype (_, e) ->
            [ wv_cid strat ctx e ])
        sms
    in
    wrap ctx (Thm.by ctx (Rules.Ws_modify sms) prems)
  | M.Fail -> Thm.by ctx (Rules.Ws_fail (want, J.Cid)) []
  | M.Unknown t -> Thm.by ctx (Rules.Ws_unknown t) []
  | M.Throw e ->
    (* the exception conv mirrors the registration of the carried locals *)
    let ex_conv = throw_conv ctx e in
    wrap ctx (Thm.by ctx (Rules.Ws_throw want) [ wv strat ctx ex_conv e ])
  | M.Bind (a, p, b) ->
    let pconv = Rules.pat_conv ctx p in
    let ta = ws strat ctx pconv a in
    let tb = ws strat ctx want b in
    Thm.by ctx (Rules.Ws_bind p) [ ta; tb ]
  | M.Try (a, p, h) ->
    let ta = ws strat ctx want a in
    let th = ws strat ctx want h in
    Thm.by ctx (Rules.Ws_try p) [ ta; th ]
  | M.Cond (c, a, b) ->
    let tc = wv_cid strat ctx c in
    let ta = ws strat ctx want a in
    let tb = ws strat ctx want b in
    wrap ctx (Thm.by ctx Rules.Ws_cond [ tc; ta; tb ])
  | M.While (p, c, body, init) ->
    let iconv = Rules.pat_conv ctx p in
    let ti = wv strat ctx iconv init in
    let tc = wv_cid ~safe:true strat ctx c in
    let tb = ws strat ctx iconv body in
    wrap ctx (Thm.by ctx (Rules.Ws_while p) [ ti; tc; tb ])
  | M.Call (f, args) -> (
    match Index.find_opt ctx.Rules.fsigs f with
    | None -> raise (Not_abstractable ("no word-abstraction signature for " ^ f))
    | Some (_, (param_convs, _)) ->
      let prems = List.map2 (wv strat ctx) param_convs args in
      wrap ctx (Thm.by ctx (Rules.Ws_call f) prems))
  | M.Exec_concrete (f, args) ->
    let prems = List.map (wv_cid strat ctx) args in
    wrap ctx (Thm.by ctx (Rules.Ws_exec_concrete f) prems)

(* The conv of a thrown (code, ret, locals...) tuple under the current
   registration. *)
and throw_conv ctx (e : E.t) : J.conv =
  match e with
  | E.Tuple es ->
    (* Every word-typed component is abstracted by its type, so that all
       throw sites and the catch pattern agree on one exception conv. *)
    J.Ctuple
      (List.map
         (fun el ->
           match word_hint el with
           | Some (s, w) -> conv_of_sign s w
           | None -> J.Cid)
         es)
  | _ -> J.Cid

(* ------------------------------------------------------------------ *)
(* Registration: which variables are abstracted. *)

(* Collect every word-typed binder of the function: parameters, bind
   patterns, loop iterators and catch patterns.  A name bound at two
   different word types is left unregistered (the re-concretisation
   fallback covers it). *)
let collect_wvars (fsigs : (string * (J.conv list * J.conv)) Index.t) (f : M.func) :
    (string * (Ty.sign * Ty.width)) list =
  let table : (string, (Ty.sign * Ty.width) option) Hashtbl.t = Hashtbl.create 16 in
  let exclude x = Hashtbl.replace table x None in
  let note (x, (t : Ty.t)) =
    match t with
    | Ty.Tword (s, w) -> (
      match Hashtbl.find_opt table x with
      | None -> Hashtbl.replace table x (Some (s, w))
      | Some (Some (s', w')) when s = s' && w = w' -> ()
      | Some _ -> exclude x)
    | _ -> exclude x
  in
  List.iter note f.M.params;
  let rec scan m =
    match m with
    | M.Bind (a, p, b) ->
      (* Results of calls follow the callee's signature: variables bound to
         a non-abstracted result stay at the machine level. *)
      (match (a, p) with
      | (M.Call (g, _) | M.Exec_concrete (g, _)), M.Pvar (x, _) -> (
        match Index.find_opt fsigs g with
        | Some (_, (_, J.Cid)) | None -> exclude x
        | Some _ -> List.iter note (M.pat_vars p))
      | _ -> List.iter note (M.pat_vars p));
      scan a;
      scan b
    | M.Try (a, p, b) ->
      List.iter note (M.pat_vars p);
      scan a;
      scan b
    | M.Cond (_, a, b) ->
      scan a;
      scan b
    | M.While (p, _, body, _) ->
      List.iter note (M.pat_vars p);
      scan body
    | _ -> ()
  in
  scan f.M.body;
  Hashtbl.fold (fun x v acc -> match v with Some sw -> (x, sw) :: acc | None -> acc) table []

(* The word-abstraction signature of a function: how its parameters and
   result abstract.  Functions not selected for WA keep Cid everywhere. *)
let func_sig ~enabled (f : M.func) : J.conv list * J.conv =
  if not enabled then (List.map (fun _ -> J.Cid) f.M.params, J.Cid)
  else begin
    let pconv (_, t) =
      match (t : Ty.t) with Ty.Tword (s, w) -> conv_of_sign s w | _ -> J.Cid
    in
    let rconv =
      match f.M.ret_ty with Ty.Tword (s, w) -> conv_of_sign s w | _ -> J.Cid
    in
    (List.map pconv f.M.params, rconv)
  end

(* Abstract one function. *)
(* Returns the function plus the derivation steps (abs_w_stmt, then the
   clean-up equivalence when it changed anything). *)
let convert_func ?(strategy = default_strategy) ?(polish = true) (ctx : Rules.ctx) (f : M.func) :
    M.func * Thm.t list =
  if f.M.convention <> M.Lambda_bound then invalid_arg "Wa.convert_func: not an L2+ function";
  let wvars = collect_wvars ctx.Rules.fsigs f in
  let ctx = { ctx with Rules.wvars } in
  let _, ret_conv =
    match Index.find_opt ctx.Rules.fsigs f.M.name with
    | Some (_, s) -> s
    | None -> func_sig ~enabled:true f
  in
  let thm = ws strategy ctx ret_conv f.M.body in
  let abs =
    match Thm.concl thm with
    | J.Abs_w_stmt (_, _, _, a, _) -> a
    | _ -> assert false
  in
  (* Certified clean-up of the freshly introduced overflow guards. *)
  let cleaned = if polish then Rewrite.normalize ctx abs else None in
  let final = match cleaned with Some t -> Rewrite.abs_of t | None -> abs in
  let params =
    List.map
      (fun (x, t) ->
        match (t : Ty.t) with
        | Ty.Tword (s, _) when List.mem_assoc x wvars ->
          (x, Ty.ideal_of_word_sign s)
        | _ -> (x, t))
      f.M.params
  in
  let ret_ty =
    match (ret_conv, f.M.ret_ty) with
    | J.Cunat _, _ -> Ty.Tnat
    | J.Csint _, _ -> Ty.Tint
    | _, t -> t
  in
  ({ f with M.body = final; params; ret_ty }, thm :: Option.to_list cleaned)
