(** Statistics helpers used throughout the evaluation harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val median : float array -> float
(** Median (does not mutate the argument); 0 for the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation.
    Does not mutate the argument. The exact reference behind {!median};
    reported latency percentiles come from bounded histograms instead. *)

val cdf : float array -> (float * float) array
(** Empirical CDF points [(value, fraction <= value)], sorted. *)

(** Zipf-distributed sampler over [\{0, …, n−1\}] with exponent [s]. *)
module Zipf : sig
  type t

  val create : n:int -> s:float -> t
  val sample : t -> Rng.t -> int
end
