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
   Output: an L2 body where locals are lambda-bound and exceptions carry a
   tuple of (exit code, return value, live modified locals) so that abrupt
   exits transport local updates to their catch site — the same discipline
   the Isabelle AutoCorres uses for its L2 exception values.  A local update
   binds the local for the rest of its statement sequence; only a join (a
   condition, loop, catch or value bind) returns the tuple of the locals it
   assigns, which the code after it binds (DESIGN.md, "Lean lifting").

   The transformation lives inside the kernel and is exposed through the
   single reflective rule [Rw_lift]; the refinement between its input and
   output (state-resident locals vs lambda bindings, with locals
   default-initialised at function entry) is exercised by the differential
   test suite on random programs and states.

   Invariants assumed of L1 input (checked, failing the rule otherwise):
   - non-wildcard [Bind] patterns only bind the value of a statement with
     no sub-program and no local update (at L1, a call result);
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
  | Ty.Tstruct n ->
    if not (Layout.has_struct env.lenv n) then failwith_lift "undeclared struct %s" n;
    E.Const (Value.default env.lenv (Ty.Cstruct n))
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

let union a b = List.sort_uniq String.compare (a @ b)

(* The exit code and return value ride in the first two components of
   every exception tuple already, so neither is part of a catch shape or
   carried round a loop. *)
let drop_ghosts =
  List.filter (fun x -> not (String.equal x Ir.exn_var || String.equal x Ir.ret_var))

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

(* A statement without sub-programs or local updates, its reads resolved. *)
let atom env (m : M.t) : M.t =
  match m with
  | M.Gets e -> M.Gets (resolve env e)
  | M.Guard (k, e) -> M.Guard (k, resolve env e)
  | M.Call (f, args) -> M.Call (f, List.map (resolve env) args)
  | M.Exec_concrete (f, args) -> M.Exec_concrete (f, List.map (resolve env) args)
  | M.Modify sms ->
    M.Modify
      (List.map
         (function
           | M.Heap_write (c, p, v) -> M.Heap_write (c, resolve env p, resolve env v)
           | M.Typed_write (c, p, v) -> M.Typed_write (c, resolve env p, resolve env v)
           | M.Global_set (x, e) -> M.Global_set (x, resolve env e)
           | M.Retype (c, e) -> M.Retype (c, resolve env e)
           | M.Local_set _ -> failwith_lift "local update in a value bind")
         sms)
  | M.Return _ | M.Fail | M.Unknown _ -> m
  | _ -> failwith_lift "value bind of a compound program"

(* [m] then [rest] under [p]; just [m] when [rest] returns what [m] does
   ([unit]: [m]'s value is unit). *)
let bind ?(unit = false) m p rest =
  match rest with
  | M.Return e when (unit || p <> M.Pwild) && E.equal e (M.pat_expr p) -> m
  | _ -> M.Bind (m, p, rest)

(* A join: [m] computes the tuple of the [carried] locals, which the
   continuation sees bound. *)
let join env carried m k =
  bind ~unit:(carried = []) m (tuple_pat env carried) (k (bind_all env carried))

let return_carried carried env = M.Return (tuple_of_current env carried)

(* [go m] returns the locals [m] assigns, computed once bottom-up, and a
   builder: [build env k] is the lifted [m] followed by [k env'], where
   [env'] binds the locals as [m] leaves them.  A local update binds the
   local for the rest of the statement sequence; only a condition, a
   loop, a catch and a value bind build a tuple of what they assign. *)
let rec go (m : M.t) : string list * (env -> (env -> M.t) -> M.t) =
  match m with
  | M.Return _ -> ([], fun env k -> k env)
  | M.Throw e ->
    if not (E.equal e E.unit_e) then failwith_lift "L1 throw carries a value";
    ([], fun env _ -> M.Throw (throw_value env))
  | M.Fail -> ([], fun _ _ -> M.Fail)
  | M.Modify [ M.Local_set (x, e) ] ->
    ( [ x ],
      fun env k ->
        let e = resolve env e in
        bind (if E.reads_state e then M.Gets e else M.Return e) (M.Pvar (x, var_ty env x))
          (k (bind_all env [ x ])) )
  | M.Modify sms when List.exists (function M.Local_set _ -> true | _ -> false) sms ->
    failwith_lift "mixed or multiple local updates in one modify"
  | M.Gets _ | M.Guard _ | M.Unknown _ | M.Call _ | M.Exec_concrete _ | M.Modify _ ->
    let unit = match m with M.Guard _ | M.Modify _ -> true | _ -> false in
    ([], fun env k -> bind ~unit (atom env m) M.Pwild (k env))
  | M.Bind (a, M.Pwild, b) ->
    let ma, build_a = go a in
    let mb, build_b = go b in
    (union ma mb, fun env k -> build_a env (fun env -> build_b env k))
  | M.Bind (a, p, b) ->
    (* Stays a join, so [p]'s temporaries do not outlive [b]. *)
    let mb, build_b = go b in
    let vars = M.pat_vars p in
    ( mb,
      fun env k ->
        let env_p =
          bind_all
            { env with var_tys = List.fold_left (fun m (x, t) -> SMap.add x t m) env.var_tys vars }
            (List.map fst vars)
        in
        join env mb (M.Bind (atom env a, p, build_b env_p (return_carried mb))) k )
  | M.Cond (c, a, b) ->
    let ma, build_a = go a in
    let mb, build_b = go b in
    let carried = union ma mb in
    ( carried,
      fun env k ->
        let ret = return_carried carried in
        join env carried (M.Cond (resolve env c, build_a env ret, build_b env ret)) k )
  | M.While (M.Pwild, cond, body, init) ->
    if not (E.equal init E.unit_e) then failwith_lift "L1 loop has an iterator";
    let mb, build_body = go body in
    let carried = drop_ghosts mb in
    ( carried,
      fun env k ->
        let env_in = bind_all env carried in
        join env carried
          (M.While
             ( tuple_pat env carried,
               resolve env_in cond,
               build_body env_in (return_carried carried),
               tuple_of_current env carried ))
          k )
  | M.While _ -> failwith_lift "unexpected iterator pattern at L1"
  | M.Try (a, M.Pwild, handler) ->
    let ma, build_a = go a in
    let mh, build_h = go handler in
    let shape = drop_ghosts ma in
    let carried = union ma mh in
    ( carried,
      fun env k ->
        let ret = return_carried carried in
        (* Handler entry: exit code, return value and the shape locals are
           all pattern-bound with their values at the throw site. *)
        let henv = bind_all env (Ir.exn_var :: Ir.ret_var :: shape) in
        let body = build_a { env with catch_shape = shape } ret in
        join env carried (M.Try (body, exn_pat henv shape, build_h henv ret)) k )
  | M.Try _ -> failwith_lift "unexpected catch pattern at L1"

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
    let mi, build = go inner in
    let shape = drop_ghosts mi in
    let normal_result =
      if Ty.equal ret_ty Ty.Tunit then E.unit_e else default_expr env ret_ty
    in
    (* Normal completion: a void function's unit result (non-void functions
       cannot complete normally — the DontReach guard precedes this point).
       Abrupt completion: the transported return value. *)
    M.Try
      ( build { env with catch_shape = shape } (fun _ -> M.Return normal_result),
        exn_pat env shape,
        M.Return (E.Var (Ir.ret_var, ret_ty)) )
  | _ -> failwith_lift "unexpected L1 function shape"
