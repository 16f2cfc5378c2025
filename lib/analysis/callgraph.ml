module M = Ac_monad.M
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* Call graphs over the unit's functions, and the generic SCC machinery
   they (and the proof store's invalidation cones, which extracted their
   Tarjan from here as of this PR) share.

   Everything is deterministic: nodes keep insertion order, successor
   lists keep first-occurrence order, and Tarjan's emission order is a
   function of those — so the bottom-up summary fixpoint, the store's
   cone keys and the per-function certificate restriction are all stable
   across runs and across [--jobs] levels. *)

type t = {
  nodes : string list; (* insertion order *)
  succs : string list SMap.t; (* per node, first-occurrence order *)
}

let successors (g : t) (n : string) : string list =
  match SMap.find_opt n g.succs with Some l -> l | None -> []

let of_edges (nodes : string list) (edges : (string * string list) list) : t =
  let succs =
    List.fold_left (fun acc (n, ss) -> SMap.add n ss acc) SMap.empty edges
  in
  { nodes; succs }

(* Direct callees of a body, in first-occurrence order.  [Exec_concrete]
   counts: it runs the named function's low-level body. *)
let callees (m : M.t) : string list =
  let seen = ref SSet.empty in
  let out = ref [] in
  let add f =
    if not (SSet.mem f !seen) then begin
      seen := SSet.add f !seen;
      out := f :: !out
    end
  in
  let rec go = function
    | M.Return _ | M.Gets _ | M.Modify _ | M.Guard _ | M.Fail | M.Throw _
    | M.Unknown _ ->
      ()
    | M.Call (f, _) | M.Exec_concrete (f, _) -> add f
    | M.Bind (a, _, b) | M.Try (a, _, b) | M.Cond (_, a, b) ->
      go a;
      go b
    | M.While (_, _, body, _) -> go body
  in
  go m;
  List.rev !out

let of_funcs (fs : M.func list) : t =
  of_edges
    (List.map (fun f -> f.M.name) fs)
    (List.map (fun f -> (f.M.name, callees f.M.body)) fs)

(* ------------------------------------------------------------------ *)
(* Tarjan's SCC algorithm (iterative).  Emission order is reverse
   topological on the condensation: every SCC appears after all SCCs it
   reaches — i.e. callees first — which is exactly the order a bottom-up
   summary pass wants.  Successors outside [nodes] are ignored. *)

let sccs (g : t) : string list list =
  (* Nodes as their first positions in [g.nodes], successors as those
     positions (unknown ones dropped), in the same orders. *)
  let names = Array.of_list g.nodes in
  let n = Array.length names in
  let id = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i v -> if not (Hashtbl.mem id v) then Hashtbl.add id v i) names;
  let succs = Array.map (fun v -> List.filter_map (Hashtbl.find_opt id) (successors g v)) names in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then names.(w) :: acc else pop (names.(w) :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter
    (fun v ->
      let i = Hashtbl.find id v in
      if index.(i) < 0 then strong i)
    g.nodes;
  List.rev !out

(* The SCCs grouped into waves, lowest first: an SCC's wave is one more
   than the highest wave of any SCC it calls (0 when it calls none), so
   every callee outside an SCC sits in a strictly lower wave and the SCCs
   of one wave are independent of each other.  Within a wave SCCs keep
   their [sccs] order. *)
let waves (g : t) : string list list list =
  let wave_of = Hashtbl.create 64 in
  let ranked =
    List.map
      (fun scc ->
        (* Callee SCCs precede this one in [sccs], so their waves are
           known; members of [scc] itself are not yet in the table. *)
        let w =
          List.fold_left
            (fun acc v ->
              List.fold_left
                (fun acc s ->
                  match Hashtbl.find_opt wave_of s with Some ws -> max acc (ws + 1) | None -> acc)
                acc (successors g v))
            0 scc
        in
        List.iter (fun v -> Hashtbl.replace wave_of v w) scc;
        (w, scc))
      (sccs g)
  in
  let depth = List.fold_left (fun acc (w, _) -> max acc (w + 1)) 0 ranked in
  let buckets = Array.make depth [] in
  List.iter (fun (w, scc) -> buckets.(w) <- scc :: buckets.(w)) (List.rev ranked);
  Array.to_list buckets

(* Whether any member of [scc] has an edge back into the scc — a
   singleton without a self-edge needs no fixpoint. *)
let scc_cyclic (g : t) (scc : string list) : bool =
  match scc with
  | [ v ] -> List.exists (String.equal v) (successors g v)
  | _ -> true

(* Transitive successors of [n] (excluding [n] itself unless it sits on
   a cycle through itself), sorted for use as a digest/restriction key. *)
let reachable (g : t) (n : string) : string list =
  let seen = ref SSet.empty in
  let rec go v =
    List.iter
      (fun w ->
        if not (SSet.mem w !seen) then begin
          seen := SSet.add w !seen;
          go w
        end)
      (successors g v)
  in
  go n;
  List.sort String.compare (SSet.elements !seen)
