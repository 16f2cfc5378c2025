(** Metrics registry: named counters, gauges and log-bucketed
    histograms.  Cheap enough to stay always-on (an increment is one
    [Atomic] op); spans are the gated, heavier half of [lib/obs].

    Like span buffers, metrics live outside the kernel trust boundary:
    they observe the pipeline, they cannot influence any theorem. *)

type counter
type gauge
type histogram

(** Find-or-create by name.  Registered metrics are process-global and
    survive across runs; names are unique per kind — asking for an
    existing name returns the same instance.  Raises [Invalid_argument]
    if the name is already registered as a different kind. *)

val counter : string -> counter

val gauge : string -> gauge

val histogram : string -> histogram

(** {1 Counters} *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** Overwrite the counter (zeroing one for a new measurement). *)
val set_counter : counter -> int -> unit

(** [probe name read] registers a read-at-exposition counter: a fact
    owned elsewhere (supervisor, store, span buffers) exposed under
    [name] by calling [read] whenever the registry is rendered, so the
    series cannot diverge from its owner.  Re-registering replaces the
    reader; {!reset_all} leaves probes alone.  Raises [Invalid_argument]
    if [name] is registered as another kind. *)
val probe : string -> (unit -> int) -> unit

(** {1 Gauges} *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Buckets are logarithmic: base 1e-6 (1µs when observing seconds),
    ratio 2^(1/4) per bucket (~19% relative width), 128 buckets —
    covering 1µs to ~71min.  Observations clamp into the edge
    buckets. *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int

(** Sum of every observed value (CAS-accumulated float).  With
    {!hist_count} this is the OpenMetrics [_sum]/[_count] pair. *)
val hist_sum : histogram -> float

(** Number of buckets (fixed layout, shared by every histogram). *)
val num_buckets : int

(** Exclusive upper bound of bucket [i] — the OpenMetrics [le] label.
    [bucket_ub (num_buckets - 1)] is the bound of the clamp bucket;
    observations beyond it are still counted there. *)
val bucket_ub : int -> float

(** Observations landed in bucket [i] (non-cumulative). *)
val bucket_count : histogram -> int -> int

(** Zero one histogram (see {!reset_all} for the whole registry). *)
val reset_histogram : histogram -> unit

(** [quantile h p] for [p] in [0,1]: the geometric midpoint of the
    bucket containing the [p]-th ranked observation; 0 if empty.
    Accurate to one bucket width (~19%). *)
val quantile : histogram -> float -> float

(** {1 Registry} *)

(** All metrics as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,
    "mean":..,"p50":..,"p95":..,"p99":..}}}] — names sorted, floats
    rendered with [%.6g]-style stability. *)
val to_json : unit -> string

(** The whole registry in Prometheus/OpenMetrics text exposition —
    [# TYPE] headers, counters as [name_total], histograms as cumulative
    [name_bucket{le="..."}] series (non-empty buckets plus [+Inf]) with
    [name_sum] and [name_count].  Registry names are sanitised to
    Prometheus identifiers and prefixed [acc_].  The caller appends any
    extra series and the terminating [# EOF] line. *)
val to_openmetrics : unit -> string

(** Zero every registered metric except probes (tests and bench
    rounds). *)
val reset_all : unit -> unit
