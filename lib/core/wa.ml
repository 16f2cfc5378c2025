module Ty = Ac_lang.Ty
module M = Ac_monad.M
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment
module Index = Ac_kernel.Index

(* Phase WA: word abstraction (paper Sec 3).

   Local variables and arguments of machine-word type become ideal naturals
   (unsigned) or integers (signed).  The kernel's [W_abs] rule maps a whole
   function body at once (Table 3): arithmetic whose operands abstract
   ideally becomes ideal arithmetic, with no-overflow preconditions
   emitted as guards, and anything outside the rule set is
   re-concretised (of_nat/of_int around the ideal variables), which is
   always sound.  This phase chooses the registration (which variables are
   abstracted) and the user extensions the kernel consults (Sec 3.3), then
   cleans up the guards. *)

(* The user extensions to consult, by the name they were registered under
   with [Rules.register_custom_rule]. *)
type strategy = string list

let default_strategy : strategy = []

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
    let conv (t : Ty.t) =
      match t with
      | Ty.Tword (Ty.Unsigned, w) -> J.Cunat w
      | Ty.Tword (Ty.Signed, w) -> J.Csint w
      | _ -> J.Cid
    in
    (List.map (fun (_, t) -> conv t) f.M.params, conv f.M.ret_ty)
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
  let thm = Thm.by ctx (Rules.W_abs (ret_conv, strategy, f.M.body)) [] in
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
