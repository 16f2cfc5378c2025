(* Metrics registry.  Counters and histogram buckets are [Atomic] ints,
   so increments from worker domains need no lock; the registry table
   itself is mutex-guarded (creation is rare).  Float cells (gauges, the
   histogram sum) are [float Atomic.t]: the float is boxed, and
   [compare_and_set] compares the box physically — correct for the
   read-modify-CAS loop below, which always CASes against the box it
   read.  (Packing float bits into an int Atomic would truncate 64 bits
   into OCaml's 63-bit int and flip the sign of any value with
   bit 62 set, i.e. anything >= 2.0.) *)

type counter = { c_name : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_v : float Atomic.t }

(* Log-bucketed histogram: bucket i covers [lo·r^i, lo·r^(i+1)) with
   lo = 1e-6 and r = 2^(1/4).  128 buckets reach lo·2^32 ≈ 4295 s.
   An observation is one float log2 + one atomic increment. *)
let h_lo = 1e-6
let h_buckets = 128

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array;
  h_total : int Atomic.t;
  h_sum : float Atomic.t;  (* CAS loop on observe *)
}

(* A probe is a counter whose value is owned elsewhere (the store, the
   scheduler, the span buffers): the registry holds only the reader and
   calls it at exposition, so the series can never disagree with its
   owner. *)
type probe = { p_name : string; p_read : unit -> int }

type metric = C of counter | G of gauge | H of histogram | P of probe

let mu = Mutex.create ()
let tbl : (string, metric) Hashtbl.t = Hashtbl.create 32

let kind_mismatch name = invalid_arg ("Metrics: kind mismatch for " ^ name)

let counter name : counter =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt tbl name with
    | Some (C c) -> Some c
    | Some _ -> None
    | None ->
      let c = { c_name = name; c_v = Atomic.make 0 } in
      Hashtbl.add tbl name (C c);
      Some c
  in
  Mutex.unlock mu;
  match r with Some c -> c | None -> kind_mismatch name

let gauge name : gauge =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt tbl name with
    | Some (G g) -> Some g
    | Some _ -> None
    | None ->
      let g = { g_name = name; g_v = Atomic.make 0. } in
      Hashtbl.add tbl name (G g);
      Some g
  in
  Mutex.unlock mu;
  match r with Some g -> g | None -> kind_mismatch name

let histogram name : histogram =
  Mutex.lock mu;
  let r =
    match Hashtbl.find_opt tbl name with
    | Some (H h) -> Some h
    | Some _ -> None
    | None ->
      let h =
        { h_name = name;
          h_counts = Array.init h_buckets (fun _ -> Atomic.make 0);
          h_total = Atomic.make 0;
          h_sum = Atomic.make 0. }
      in
      Hashtbl.add tbl name (H h);
      Some h
  in
  Mutex.unlock mu;
  match r with Some h -> h | None -> kind_mismatch name

(* Registering a name again replaces its reader: the newest owner wins. *)
let probe name read =
  Mutex.lock mu;
  let ok =
    match Hashtbl.find_opt tbl name with None | Some (P _) -> true | Some _ -> false
  in
  if ok then Hashtbl.replace tbl name (P { p_name = name; p_read = read });
  Mutex.unlock mu;
  if not ok then kind_mismatch name

let incr c = Atomic.incr c.c_v
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let counter_value c = Atomic.get c.c_v

let set_counter c n = Atomic.set c.c_v n

let set_gauge g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

let bucket_of v =
  if Float.is_nan v || v <= h_lo then 0
  else
    let i = int_of_float (Float.floor (Float.log2 (v /. h_lo) *. 4.)) in
    if i < 0 then 0 else if i >= h_buckets then h_buckets - 1 else i

let observe h v =
  Atomic.incr h.h_counts.(bucket_of v);
  Atomic.incr h.h_total;
  let rec loop () =
    let old = Atomic.get h.h_sum in
    if not (Atomic.compare_and_set h.h_sum old (old +. v)) then loop ()
  in
  loop ()

let hist_count h = Atomic.get h.h_total
let hist_sum h = Atomic.get h.h_sum

let reset_histogram h =
  Array.iter (fun a -> Atomic.set a 0) h.h_counts;
  Atomic.set h.h_total 0;
  Atomic.set h.h_sum 0.

(* Geometric midpoint of bucket i: lo·r^(i+0.5). *)
let bucket_mid i = h_lo *. Float.pow 2. ((float_of_int i +. 0.5) /. 4.)

(* Exclusive upper bound of bucket i: lo·r^(i+1).  This is the value an
   OpenMetrics exposition needs for the cumulative [le] label — the
   midpoints alone cannot express the bucket layout. *)
let num_buckets = h_buckets
let bucket_ub i = h_lo *. Float.pow 2. (float_of_int (i + 1) /. 4.)
let bucket_count h i = Atomic.get h.h_counts.(i)

let quantile h p =
  let total = hist_count h in
  if total = 0 then 0.
  else begin
    let target =
      let t = int_of_float (Float.ceil (p *. float_of_int total)) in
      if t < 1 then 1 else if t > total then total else t
    in
    let rec go i cum =
      if i >= h_buckets then bucket_mid (h_buckets - 1)
      else
        let cum = cum + Atomic.get h.h_counts.(i) in
        if cum >= target then bucket_mid i else go (i + 1) cum
    in
    go 0 0
  end

let json_num v =
  (* Stable float rendering for JSON: no exponent surprises for the
     magnitudes we emit (seconds, ratios). *)
  Printf.sprintf "%.6f" v

(* Every registered metric, sorted by name (taken under the registry
   lock, read outside it). *)
let sorted_metrics () =
  Mutex.lock mu;
  let all = Hashtbl.fold (fun _ m acc -> m :: acc) tbl [] in
  Mutex.unlock mu;
  let name_of = function
    | C c -> c.c_name | G g -> g.g_name | H h -> h.h_name | P p -> p.p_name
  in
  List.sort (fun a b -> String.compare (name_of a) (name_of b)) all

(* A counter or probe as (name, value); probes render as counters. *)
let counter_sample = function
  | C c -> Some (c.c_name, counter_value c)
  | P p -> Some (p.p_name, p.p_read ())
  | G _ | H _ -> None

let to_json () =
  let all = sorted_metrics () in
  let gs = List.filter_map (function G g -> Some g | _ -> None) all in
  let hs = List.filter_map (function H h -> Some h | _ -> None) all in
  let counters =
    String.concat ","
      (List.map
         (fun (name, v) -> Printf.sprintf "\"%s\":%d" name v)
         (List.filter_map counter_sample all))
  in
  let gauges =
    String.concat ","
      (List.map (fun g -> Printf.sprintf "\"%s\":%s" g.g_name (json_num (gauge_value g))) gs)
  in
  let hists =
    String.concat ","
      (List.map
         (fun h ->
           let n = hist_count h in
           let mean = if n = 0 then 0. else hist_sum h /. float_of_int n in
           Printf.sprintf
             "\"%s\":{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
             h.h_name n (json_num mean)
             (json_num (quantile h 0.50))
             (json_num (quantile h 0.95))
             (json_num (quantile h 0.99)))
         hs)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}" counters gauges
    hists

(* --- OpenMetrics / Prometheus text exposition --- *)

(* Registry names use dots ("serve.requests"); a Prometheus metric name
   is [a-zA-Z_:][a-zA-Z0-9_:]*.  Map every other byte to '_' and prefix
   "acc_" so the series namespace is ours. *)
let om_name name =
  let b = Bytes.of_string ("acc_" ^ name) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Stable float rendering for sample values and [le] bounds: shortest
   round-trippable decimal keeps the labels identical across scrapes. *)
let om_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* The whole registry in Prometheus/OpenMetrics text exposition:
   counters as [_total] samples, gauges plain, histograms as cumulative
   [_bucket{le="..."}] series (non-empty buckets plus the mandatory
   [+Inf]) with [_sum] and [_count].  No trailing [# EOF] — the caller
   composes additional series and terminates the exposition. *)
let to_openmetrics () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      match m with
      | C _ | P _ ->
        let name, v = Option.get (counter_sample m) in
        let n = om_name name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string buf (Printf.sprintf "%s_total %d\n" n v)
      | G g ->
        let n = om_name g.g_name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
        Buffer.add_string buf (Printf.sprintf "%s %s\n" n (om_num (gauge_value g)))
      | H h ->
        let n = om_name h.h_name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
        let cum = ref 0 in
        for i = 0 to h_buckets - 1 do
          let c = Atomic.get h.h_counts.(i) in
          if c > 0 then begin
            cum := !cum + c;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (om_num (bucket_ub i)) !cum)
          end
        done;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (hist_count h));
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (om_num (hist_sum h)));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (hist_count h)))
    (sorted_metrics ());
  Buffer.contents buf

(* Probes are left alone: their owners hold the value. *)
let reset_all () =
  List.iter
    (function
      | C c -> Atomic.set c.c_v 0
      | G g -> Atomic.set g.g_v 0.
      | H h -> reset_histogram h
      | P _ -> ())
    (sorted_metrics ())
