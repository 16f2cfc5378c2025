module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* Phase L2 (paper Fig 1): local-variable lifting, control-flow
   simplification for abrupt return, elimination of conservative
   translation artefacts, and guard discharging.

   Every step goes through the kernel:
   - [Rw_lift] turns state-resident locals into lambda bindings,
   - the rewrite engine cleans up translation artefacts,
   - [Rw_elim_returns] straightens tail return-throws, after which
     [Rw_try_nothrow] removes the wrapper (type specialisation for
     functions that provably never throw). *)

let convert_func ?(polish = true) (ctx : Rules.ctx) (f : M.func) : M.func * Thm.t =
  if f.M.convention <> M.Locals_in_state then invalid_arg "L2.convert_func: not an L1 function";
  let lift_thm =
    Thm.by ctx (Rules.Rw_lift (f.M.params, f.M.locals, f.M.ret_ty, f.M.body)) []
  in
  let lifted = Rewrite.abs_of lift_thm in
  if not polish then
    ({ f with M.body = lifted; convention = M.Lambda_bound; locals = [] }, lift_thm)
  else begin
  (* Clean up the raw lifted output. *)
  let clean1 = Rewrite.chain_onto ctx (Rewrite.normalize ctx lifted) lift_thm in
  (* Try straightening the return flow; fall back to the exception form. *)
  let final =
    let cur = Rewrite.abs_of clean1 in
    match Thm.by_opt ctx (Rules.Rw_elim_returns (cur, f.M.ret_ty)) [] with
    | Some elim ->
      let straightened = Rewrite.trans ctx elim clean1 in
      Rewrite.chain_onto ctx (Rewrite.normalize ctx (Rewrite.abs_of straightened)) straightened
    | None -> clean1
  in
  ( {
      f with
      M.body = Rewrite.abs_of final;
      convention = M.Lambda_bound;
      locals = [];
    },
    final )
  end
