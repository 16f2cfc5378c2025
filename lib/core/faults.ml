(* Configurable fault injection for the long-running service path.

   PR 2 gave the kernel, solver and analysis test-only fault hooks; this
   module grows them into an operator-facing harness: a parseable spec
   (`ACC_FAULTS` / `--inject`, e.g. "io_error:0.05,slow:0.01")
   drives a deterministic seeded RNG threaded through store I/O, socket
   I/O and serve request handling.

   Determinism matters more than statistical quality here: a CI failure
   under "io_error:0.05,seed:42" must reproduce byte-for-byte, so each
   decision hashes (seed, global decision counter) rather than consuming
   a shared mutable RNG stream whose interleaving would vary across
   domains.  The counter is a single atomic, so decision *indices* can
   still interleave across domains — but every index yields the same
   verdict for a given seed, and the properties we assert (byte-identical
   output when the run completes, structured degradation otherwise) are
   schedule-independent by design. *)

type kind = Io_error | Slow

type config = {
  seed : int;
  io_error : float; (* per-I/O-attempt probability of a transient Sys_error *)
  slow : float; (* per-request probability of an injected stall *)
  slow_s : float; (* stall duration *)
}

let default = { seed = 0; io_error = 0.; slow = 0.; slow_s = 0.01 }

let state : config option Atomic.t = Atomic.make None
let tick = Atomic.make 0

let active () = Atomic.get state

(* A cheap integer mix (murmur-style finalizer) mapped into [0, 2^30). *)
let mix seed n =
  let h = ((seed + 0x9E37) * 0x9E3779B1) lxor ((n + 1) * 0x85EBCA6B) in
  let h = h lxor (h lsr 15) in
  let h = h * 0xC2B2AE35 in
  let h = h lxor (h lsr 13) in
  h land 0x3FFFFFFF

let rate_of cfg = function Io_error -> cfg.io_error | Slow -> cfg.slow

(* Decide whether fault [k] fires at this decision point. *)
let fire (k : kind) : bool =
  match Atomic.get state with
  | None -> false
  | Some cfg ->
    let rate = rate_of cfg k in
    rate > 0.
    && float_of_int (mix cfg.seed (Atomic.fetch_and_add tick 1)) < rate *. 1073741824.

let injected_io_error_msg = "injected transient I/O fault"

let sleep_if_slow () =
  match Atomic.get state with
  | Some cfg when fire Slow -> Unix.sleepf cfg.slow_s
  | _ -> ()

let install (cfg : config) : unit =
  Atomic.set state (Some cfg);
  Atomic.set tick 0;
  (* The store library sits below this one, so its injection point is a
     hook rather than a direct call. *)
  Ac_store.Store.set_io_hook
    (if cfg.io_error > 0. then
       Some (fun _op -> if fire Io_error then raise (Sys_error injected_io_error_msg))
     else None)

let clear () =
  Atomic.set state None;
  Ac_store.Store.set_io_hook None

(* Parse "io_error:0.05,slow:0.01,seed:42,slow_ms:20".  Unknown names
   and malformed values are hard errors — a typo in a fault spec
   silently injecting nothing would defeat the soak.  That includes a
   non-finite rate: [float_of_string_opt "nan"] succeeds, and a NaN
   rate compares false against every draw, so it would never fire. *)
let parse (spec : string) : (config, string) result =
  let clamp01 x = Float.max 0. (Float.min 1. x) in
  let parse_pair acc pair =
    match acc with
    | Error _ as e -> e
    | Ok cfg -> (
      match String.index_opt pair ':' with
      | None -> Error (Printf.sprintf "fault spec: expected name:value, got %S" pair)
      | Some i -> (
        let name = String.sub pair 0 i in
        let value = String.sub pair (i + 1) (String.length pair - i - 1) in
        let rate k =
          match float_of_string_opt value with
          | Some r when Float.is_finite r -> Ok (k (clamp01 r))
          | _ -> Error (Printf.sprintf "fault spec: bad rate %S for %s" value name)
        in
        match name with
        | "io_error" -> rate (fun r -> { cfg with io_error = r })
        | "slow" -> rate (fun r -> { cfg with slow = r })
        | "seed" -> (
          match int_of_string_opt value with
          | Some s -> Ok { cfg with seed = s }
          | None -> Error (Printf.sprintf "fault spec: bad seed %S" value))
        | "slow_ms" -> (
          match int_of_string_opt value with
          | Some ms when ms >= 0 -> Ok { cfg with slow_s = float_of_int ms /. 1000. }
          | _ -> Error (Printf.sprintf "fault spec: bad slow_ms %S" value))
        | _ -> Error (Printf.sprintf "fault spec: unknown fault %S" name)))
  in
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map String.trim
  |> List.fold_left parse_pair (Ok default)
