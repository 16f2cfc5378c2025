module Rules = Ac_kernel.Rules
module Thm = Ac_kernel.Thm

(* Derivation traces: the serializable image of a kernel derivation.

   A [Thm.t] already carries its entire derivation (rule + premises) — the
   kernel keeps it so [Thm.check] can re-validate independently.  This
   module flattens that DAG into a plain data value ([t]) that can be
   marshalled to disk, and replays it back into real theorems by
   re-running every recorded rule application through [Thm.by] (and hence
   [Rules.infer]).

   This is the certificate discipline of CH2O/VeriFast-style proof
   caching: what is persisted is never a theorem, only a *recipe* for one.
   Replay re-mints each node through the kernel, so a trace read from an
   untrusted medium can fail to replay (stale, corrupted, or malicious),
   but it can never produce a theorem the kernel would not have produced
   itself — the store adds zero trusted code.

   Recording is deliberately OUTSIDE the kernel: it only reads the
   observation API ([Thm.rule]/[Thm.premises]/[Thm.id]) that the memoized
   checker already uses, so the kernel's forgery-free surface is
   untouched.

   Representation: a postorder array of nodes whose premise references are
   strictly-smaller indices, so sharing in the derivation DAG is recorded
   once and replayed once (the same economy [Check_cache] exploits when
   re-checking).  The root is the last node. *)

type node = {
  n_rule : Rules.rule;
  n_prems : int list; (* indices into the array, each < this node's index *)
}

type t = node array

let length (tr : t) = Array.length tr

(* Total rule applications if the DAG were expanded to a tree (matches
   [Thm.size] of the replayed theorem). *)
let tree_size (tr : t) : int =
  let sizes = Array.make (Array.length tr) 0 in
  Array.iteri
    (fun i n ->
      sizes.(i) <- 1 + List.fold_left (fun acc p -> acc + sizes.(p)) 0 n.n_prems)
    tr;
  if Array.length tr = 0 then 0 else sizes.(Array.length tr - 1)

(* ------------------------------------------------------------------ *)
(* Recording. *)

let record (thm : Thm.t) : t =
  let nodes = ref [] in
  let count = ref 0 in
  (* Memoize on the kernel's per-node id so shared subderivations are
     emitted once. *)
  let memo : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec go (t : Thm.t) : int =
    match Hashtbl.find_opt memo (Thm.id t) with
    | Some i -> i
    | None ->
      let prems = List.map go (Thm.premises t) in
      let i = !count in
      incr count;
      nodes := { n_rule = Thm.rule t; n_prems = prems } :: !nodes;
      Hashtbl.add memo (Thm.id t) i;
      i
  in
  ignore (go thm);
  let arr = Array.of_list (List.rev !nodes) in
  arr

(* ------------------------------------------------------------------ *)
(* Replay. *)

exception Bad of string

(* The minted theorems a node's premise indices name: each must point at
   an earlier node. *)
let rec premises (minted : Thm.t array) i = function
  | [] -> []
  | p :: ps ->
    if p < 0 || p >= i then
      raise (Bad (Printf.sprintf "node %d: premise index %d out of range" i p))
    else minted.(p) :: premises minted i ps

(* Re-mint every node through the kernel.  Malformed indices and failing
   side conditions both surface as [Error]; the caller treats any error as
   a cache miss and falls back to full translation. *)
let replay (ctx : Rules.ctx) (tr : t) : (Thm.t, string) result =
  let n = Array.length tr in
  if n = 0 then Result.error "empty trace"
  else begin
    let mint i prems =
      let rule = tr.(i).n_rule in
      match Thm.by ctx rule prems with
      | t -> t
      | exception Thm.Kernel_error m ->
        raise (Bad (Printf.sprintf "%s: %s" (Rules.rule_name rule) m))
    in
    try
      (* Node 0 has no premises (each must be an earlier node), and its
         theorem fills the array until the later ones are minted. *)
      let minted = Array.make n (mint 0 (premises [||] 0 tr.(0).n_prems)) in
      for i = 1 to n - 1 do
        minted.(i) <- mint i (premises minted i tr.(i).n_prems)
      done;
      Result.ok minted.(n - 1)
    with Bad m -> Result.error ("replay: " ^ m)
  end
