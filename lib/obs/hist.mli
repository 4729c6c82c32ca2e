(** Fixed-memory log-bucketed histograms with bounded relative error.

    DDSketch-style: for accuracy {!alpha} (1%), bucket boundaries
    grow geometrically by [gamma = (1 + alpha) / (1 - alpha)], so any
    quantile estimate [v'] of a true value [v] inside the tracked range
    satisfies [|v' - v| <= alpha * v]. Memory is O(log(hi/lo) / alpha)
    and independent of how many samples are recorded — the point of
    using this in {!Overlay_metrics} instead of unbounded sample lists.

    Values at or below [lo] land in a dedicated underflow bucket whose
    quantiles report the tracked minimum; values above [hi] clamp into
    the top bucket (quantiles there report the tracked maximum), so the
    relative-error bound holds for values in ([lo], [hi]] and the
    extremes stay exact. The default range (lo = 1e-6, hi = 1e4) suits
    latencies in seconds: ~1150 buckets, 1% error, from 1µs to ~2.8
    hours. *)

type t

val alpha : float
(** The relative error bound of every histogram: 0.01. *)

val create : ?lo:float -> ?hi:float -> unit -> t
(** Raises [Invalid_argument] unless [0 < lo < hi]. *)

val add : t -> float -> unit
(** Record one sample. Non-finite and negative values raise
    [Invalid_argument] (all our metrics are non-negative). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
(** Exact tracked minimum; [nan] when empty. *)

val max_value : t -> float
(** Exact tracked maximum; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; [nan] when empty. The estimate
    targets the order statistic of rank [floor (q * (n - 1))] and is
    within relative error [alpha] of it for in-range values. *)

val percentile : t -> float -> float
(** [percentile t p = quantile t (p /. 100.)]. *)

val merge : t -> t -> t
(** Combine two histograms into a fresh one. Raises [Invalid_argument]
    if they were created with different [lo]/[hi]. Associative
    and commutative. *)

val summary_json : t -> Json.t
(** [{count; min; max; mean; p50; p90; p99; p999; alpha}] — the form
    embedded in run manifests. *)
