module Ty = Ac_lang.Ty
module E = Ac_lang.Expr
module Value = Ac_lang.Value
module Layout = Ac_lang.Layout
module M = Ac_monad.M
module Ir = Ac_simpl.Ir
module SMap = Map.Make (String)

(* Local-variable lifting (the paper's "Local Var Lifting" phase, Fig 1).

   Input: an L1 body, where locals live in the state (Modify/Local_set) and
   THROW communicates through the ghost locals global_exn_var and ret.
   Output: an L2 body where locals are lambda-bound, every sub-program
   returns the tuple of locals it modifies, and exceptions carry a tuple of
   (exit code, return value, live modified locals) so that abrupt exits
   transport local updates to their catch site — the same discipline the
   Isabelle AutoCorres uses for its L2 exception values.

   The transformation lives inside the kernel and is exposed through the
   single reflective rule [Rw_lift]; the refinement between its input and
   output (state-resident locals vs lambda bindings, with locals
   default-initialised at function entry) is exercised by the differential
   test suite on random programs and states.

   Invariants assumed of L1 input (checked, failing the rule otherwise):
   - non-wildcard [Bind] patterns only bind call results (never locals);
   - [Throw] carries unit;
   - every sub-program's value is unit. *)

exception Lift_failure of string

let failwith_lift fmt = Format.kasprintf (fun m -> raise (Lift_failure m)) fmt

type env = {
  lenv : Layout.env;
  var_tys : Ty.t SMap.t; (* declared locals and parameters *)
  ret_ty : Ty.t;
  bound : unit SMap.t; (* locals currently lambda-bound *)
  catch_shape : string list; (* locals transported by a throw to the
                                innermost enclosing catch *)
}

let default_expr env (t : Ty.t) : E.t =
  match t with
  | Ty.Tunit -> E.unit_e
  | Ty.Tbool -> E.false_e
  | Ty.Tword (s, w) -> E.word_e s w 0
  | Ty.Tint -> E.int_e 0
  | Ty.Tnat -> E.nat_e 0
  | Ty.Tptr c -> E.null_e c
  | Ty.Tstruct n -> E.Const (Value.default env.lenv (Ty.Cstruct n))
  | Ty.Ttuple _ -> failwith_lift "tuple-typed local"

let var_ty env x =
  match SMap.find_opt x env.var_tys with
  | Some t -> t
  | None -> failwith_lift "unknown local %s" x

let current_value env x =
  if SMap.mem x env.bound then E.Var (x, var_ty env x) else default_expr env (var_ty env x)

(* Replace reads of not-yet-assigned locals by their default value (locals
   are default-initialised at function entry).  An expression reading none
   is returned as it is. *)
let resolve env (e : E.t) : E.t =
  let rec go (e : E.t) =
    match e with
    | E.Var (x, _) when SMap.mem x env.var_tys && not (SMap.mem x env.bound) ->
      default_expr env (var_ty env x)
    | E.Var _ -> e
    | _ -> E.map_children go e
  in
  go e

let canon vars = List.sort_uniq String.compare vars

let tuple_pat env vars =
  match vars with
  | [] -> M.Pwild
  | [ x ] -> M.Pvar (x, var_ty env x)
  | xs -> M.Ptuple (List.map (fun x -> M.Pvar (x, var_ty env x)) xs)

let bind_all env vars =
  { env with bound = List.fold_left (fun b x -> SMap.add x () b) env.bound vars }

let tuple_of_current env vars =
  match vars with
  | [] -> E.unit_e
  | [ x ] -> current_value env x
  | xs -> E.Tuple (List.map (current_value env) xs)

(* Locals assigned (Local_set) anywhere in an L1 term: the statically
   computed modified set. *)
let scan_modified (m : M.t) : string list =
  let acc = ref [] in
  (* The exit code and return value ride in the first two components of
     every exception tuple already. *)
  let add x =
    if (not (List.mem x !acc)) && not (String.equal x Ir.exn_var || String.equal x Ir.ret_var)
    then acc := x :: !acc
  in
  let rec scan m =
    match m with
    | M.Modify sms -> List.iter (function M.Local_set (x, _) -> add x | _ -> ()) sms
    | M.Bind (a, _, b) | M.Try (a, _, b) ->
      scan a;
      scan b
    | M.Cond (_, a, b) ->
      scan a;
      scan b
    | M.While (_, _, body, _) -> scan body
    | M.Return _ | M.Gets _ | M.Guard _ | M.Fail | M.Throw _ | M.Unknown _ | M.Call _
    | M.Exec_concrete _ ->
      ()
  in
  scan m;
  canon !acc

(* The value thrown to the innermost catch: exit code, return value, then
   the catch-shape locals' current values. *)
let throw_value env =
  E.Tuple
    ([ current_value env Ir.exn_var; current_value env Ir.ret_var ]
    @ List.map (current_value env) env.catch_shape)

(* The pattern a catch handler binds, for a given shape. *)
let exn_pat env shape =
  M.Ptuple
    ([ M.Pvar (Ir.exn_var, Ir.exn_ty); M.Pvar (Ir.ret_var, env.ret_ty) ]
    @ List.map (fun x -> M.Pvar (x, var_ty env x)) shape)

(* Wrap a lifted sub-program so its value is the canonical [modified] tuple
   (locals it did not touch keep their pre-existing values). *)
let complete env (m', mine) modified =
  let env_full = bind_all env mine in
  if mine = modified then m'
  else M.Bind (m', tuple_pat env mine, M.Return (tuple_of_current env_full modified))

(* [go env m] lifts [m], returning (m', modified) where [m'] computes the
   tuple of [modified] locals in canonical order. *)
let rec go env (m : M.t) : M.t * string list =
  match m with
  | M.Return _ -> (m, [])
  | M.Gets e -> (M.Gets (resolve env e), [])
  | M.Guard (k, e) -> (M.Guard (k, resolve env e), [])
  | M.Fail -> (M.Fail, [])
  | M.Unknown t -> (M.Unknown t, [])
  | M.Throw e ->
    if not (E.equal e E.unit_e) then failwith_lift "L1 throw carries a value";
    (M.Throw (throw_value env), [])
  | M.Modify sms -> (
    let locals, others =
      List.partition (function M.Local_set _ -> true | _ -> false) sms
    in
    match (locals, others) with
    | [], others ->
      let others =
        List.map
          (function
            | M.Heap_write (c, p, v) -> M.Heap_write (c, resolve env p, resolve env v)
            | M.Typed_write (c, p, v) -> M.Typed_write (c, resolve env p, resolve env v)
            | M.Global_set (x, e) -> M.Global_set (x, resolve env e)
            | M.Retype (c, e) -> M.Retype (c, resolve env e)
            | M.Local_set _ -> assert false)
          others
      in
      (M.Modify others, [])
    | [ M.Local_set (x, e) ], [] ->
      let e = resolve env e in
      let m' = if E.reads_state e then M.Gets e else M.Return e in
      (m', [ x ])
    | _ -> failwith_lift "mixed or multiple local updates in one modify")
  | M.Bind (a, M.Pwild, b) ->
    let a', ma = go env a in
    let env_a = bind_all env ma in
    let b', mb = go env_a b in
    let env_b = bind_all env_a mb in
    let modified = canon (ma @ mb) in
    ( M.Bind
        ( a',
          tuple_pat env_a ma,
          M.Bind (b', tuple_pat env_b mb, M.Return (tuple_of_current env_b modified)) ),
      modified )
  | M.Bind (a, p, b) ->
    let a', ma = go env a in
    if ma <> [] then failwith_lift "value bind of a local-modifying program";
    let vars = M.pat_vars p in
    let env_p =
      bind_all
        { env with var_tys = List.fold_left (fun m (x, t) -> SMap.add x t m) env.var_tys vars }
        (List.map fst vars)
    in
    let b', mb = go env_p b in
    (M.Bind (a', p, b'), mb)
  | M.Cond (c, a, b) ->
    let c = resolve env c in
    let a', ma = go env a in
    let b', mb = go env b in
    let modified = canon (ma @ mb) in
    (M.Cond (c, complete env (a', ma) modified, complete env (b', mb) modified), modified)
  | M.While (M.Pwild, cond, body, init) ->
    if not (E.equal init E.unit_e) then failwith_lift "L1 loop has an iterator";
    let carried = scan_modified body in
    let env_in = bind_all env carried in
    let body', mb = go env_in body in
    let body_wrapped = complete env_in (body', mb) carried in
    (M.While (tuple_pat env_in carried, resolve env_in cond, body_wrapped, tuple_of_current env carried),
      carried )
  | M.While _ -> failwith_lift "unexpected iterator pattern at L1"
  | M.Try (a, M.Pwild, handler) ->
    let shape = scan_modified a in
    let a', ma = go { env with catch_shape = shape } a in
    (* Handler entry: exit code, return value and the shape locals are all
       pattern-bound with their values at the throw site. *)
    let henv =
      bind_all
        { env with
          var_tys =
            SMap.add Ir.ret_var env.ret_ty (SMap.add Ir.exn_var Ir.exn_ty env.var_tys) }
        (Ir.exn_var :: Ir.ret_var :: shape)
    in
    let h', mh = go henv handler in
    let modified = canon (ma @ mh @ shape) in
    ( M.Try (complete env (a', ma) modified, exn_pat henv shape, complete henv (h', mh) modified),
      modified )
  | M.Try _ -> failwith_lift "unexpected catch pattern at L1"
  | M.Call (f, args) -> (M.Call (f, List.map (resolve env) args), [])
  | M.Exec_concrete (f, args) -> (M.Exec_concrete (f, List.map (resolve env) args), [])

(* Lift a whole L1 function body (shape: TRY inner [;; guard] CATCH SKIP). *)
let lift_body lenv ~(params : (string * Ty.t) list) ~(locals : (string * Ty.t) list)
    ~(ret_ty : Ty.t) (body : M.t) : M.t =
  let var_tys =
    List.fold_left (fun m (x, t) -> SMap.add x t m) SMap.empty (params @ locals)
  in
  let var_tys = SMap.add Ir.ret_var ret_ty (SMap.add Ir.exn_var Ir.exn_ty var_tys) in
  let env =
    {
      lenv;
      var_tys;
      ret_ty;
      bound = List.fold_left (fun b (x, _) -> SMap.add x () b) SMap.empty params;
      catch_shape = [];
    }
  in
  match body with
  | M.Try (inner, M.Pwild, M.Return u) when E.equal u E.unit_e ->
    let shape = scan_modified inner in
    let inner', mi = go { env with catch_shape = shape } inner in
    let normal_result =
      if Ty.equal ret_ty Ty.Tunit then E.unit_e else default_expr env ret_ty
    in
    let henv =
      bind_all
        { env with var_tys = SMap.add Ir.ret_var ret_ty (SMap.add Ir.exn_var Ir.exn_ty var_tys) }
        (Ir.exn_var :: Ir.ret_var :: shape)
    in
    (* Normal completion: a void function's unit result (non-void functions
       cannot complete normally — the DontReach guard precedes this point).
       Abrupt completion: the transported return value. *)
    M.Try
      ( M.Bind (inner', tuple_pat (bind_all env mi) mi, M.Return normal_result),
        exn_pat henv shape,
        M.Return (E.Var (Ir.ret_var, ret_ty)) )
  | _ -> failwith_lift "unexpected L1 function shape"
