module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module J = Ac_kernel.Judgment

(* Phase L1: monadic conversion (paper Sec 2, Table 1).

   A plain structural translation of Simpl into the monadic language, made
   by one kernel rule application per statement: the kernel computes the
   image itself, so the result comes with a [Corres_l1] theorem. *)

let convert (ctx : Rules.ctx) (s : Ir.stmt) : Thm.t = Thm.by ctx (Rules.L1 s) []

let monad_of (thm : Thm.t) : M.t =
  match Thm.concl thm with
  | J.Corres_l1 (_, m) -> m
  | _ -> invalid_arg "L1.monad_of"

(* Convert a whole function.  The L1 function keeps its locals in the state
   (paper Fig 1: local-variable lifting comes later). *)
let convert_func (ctx : Rules.ctx) (f : Ir.func) : M.func * Thm.t =
  let thm = convert ctx f.Ir.body in
  ( {
      M.name = f.Ir.name;
      params = f.Ir.params;
      ret_ty = f.Ir.ret_ty;
      body = monad_of thm;
      convention = M.Locals_in_state;
      heap_model = M.Byte_level;
      locals = f.Ir.locals;
    },
    thm )
