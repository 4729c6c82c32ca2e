(** Windowed time series.

    Samples are tagged with a simulation timestamp and aggregated into
    fixed-width windows, matching the paper's "averaged over a 10 minute
    window" presentation of control traffic, RDP, and failure rates. *)

type t

val create : window:float -> t
(** [create ~window] aggregates into windows of [window] seconds starting
    at time 0. *)

val add : t -> time:float -> float -> unit
(** Record one sample. A sample in the same window as the previous one
    skips the window lookup; times may arrive in any order. *)

val count : t -> time:float -> unit
(** Shorthand for [add t ~time 1.0] — counting events per window. *)

val copy : t -> t
(** An independent series with the same samples. *)

val means : t -> (float * float) array
(** [(window_mid_time, mean of samples)] for every non-empty window, in
    time order. *)

val sums : t -> (float * float) array
(** [(window_mid_time, sum of samples)] for every non-empty window. *)
