(* The rewrite engine's derivation invariant: a theorem is minted only for
   a subterm the engine changed.  So no transitivity step composes with a
   reflexivity proof, and no congruence rule sits over children that are
   all unchanged.  Checked on every function chain of every corpus file and
   [Ac_codegen] profile, at jobs 1 and 2, with the kernel re-checking each
   chain. *)

module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm
module Driver = Autocorres.Driver

let units = List.map fst Test_l2_order.golden_digests

let is_refl t = match Thm.rule t with Rules.Eq_refl _ -> true | _ -> false

(* The first node breaking the invariant, by rule name.  Derivations share
   premises, so each node is visited once. *)
let violation (chain : Thm.t) : string option =
  let seen = Hashtbl.create 256 in
  let rec walk t =
    if Hashtbl.mem seen (Thm.id t) then None
    else begin
      Hashtbl.add seen (Thm.id t) ();
      let prems = Thm.premises t in
      match Thm.rule t with
      | Rules.Eq_trans when List.exists is_refl prems -> Some "eq_trans over eq_refl"
      | Rules.(Eq_bind _ | Eq_try _ | Eq_cond _ | Eq_while _) when List.for_all is_refl prems ->
        Some (Thm.rule_name t ^ " over unchanged children")
      | _ -> List.find_map walk prems
    end
  in
  walk chain

let test_identity_free jobs () =
  List.iter
    (fun name ->
      let res =
        Driver.run ~options:(Test_l2_order.options ~jobs) (Test_l2_order.unit_source name)
      in
      List.iter
        (fun (fr : Driver.func_result) ->
          Option.iter
            (fun chain ->
              let where = Printf.sprintf "%s/%s at jobs %d" name fr.Driver.fr_name jobs in
              Alcotest.(check (option string)) (where ^ ": identity-free") None
                (violation chain);
              let ctx = { res.Driver.ctx with Rules.wvars = fr.Driver.fr_wa_wvars } in
              Alcotest.(check bool) (where ^ ": kernel re-check") true
                (Thm.check ctx chain = Ok ()))
            fr.Driver.fr_chain)
        res.Driver.funcs)
    units

(* Regression ceiling: the summed chain size (rule applications, counted
   with multiplicity) of the echronos-like unit.  The engine that minted a
   reflexivity proof for every unchanged subterm reached 11921. *)
let echronos_ceiling = 7711

let test_chain_size_ceiling () =
  let res =
    Driver.run ~options:(Test_l2_order.options ~jobs:1)
      (Ac_codegen.generate Ac_codegen.echronos_like)
  in
  let total =
    List.fold_left
      (fun acc (fr : Driver.func_result) ->
        acc + match fr.Driver.fr_chain with Some c -> Thm.size c | None -> 0)
      0 res.Driver.funcs
  in
  Alcotest.(check bool)
    (Printf.sprintf "summed chain size %d <= %d" total echronos_ceiling)
    true (total <= echronos_ceiling)

(* Allocation ceiling: the bytes one jobs-1 run of the echronos-like unit
   allocates once the process is warm, at most 1.1x the 11.8 MB measured
   once bignum arithmetic took native fast paths and the term maps stopped
   rebuilding unchanged nodes (18.5 MB before).  Allocation, unlike wall
   time, is stable enough to gate on. *)
let echronos_alloc_ceiling_mb = 13.0

let test_alloc_ceiling () =
  let src = Ac_codegen.generate Ac_codegen.echronos_like in
  let run () = ignore (Sys.opaque_identity (Driver.run ~options:(Test_l2_order.options ~jobs:1) src)) in
  (* The first run in a process also fills tables that live across runs. *)
  run ();
  let before = Gc.allocated_bytes () in
  run ();
  let mb = (Gc.allocated_bytes () -. before) /. 1048576. in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.1f MB <= %.1f MB" mb echronos_alloc_ceiling_mb)
    true (mb <= echronos_alloc_ceiling_mb)

let suite =
  [
    Alcotest.test_case "identity-free derivations at jobs 1" `Quick (test_identity_free 1);
    Alcotest.test_case "identity-free derivations at jobs 2" `Quick (test_identity_free 2);
    Alcotest.test_case "echronos-like chain size ceiling" `Quick test_chain_size_ceiling;
    Alcotest.test_case "echronos-like allocation ceiling" `Quick test_alloc_ceiling;
  ]
