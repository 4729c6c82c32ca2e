(** Windowed time series.

    Samples are tagged with a simulation timestamp and aggregated into
    fixed-width windows, matching the paper's "averaged over a 10 minute
    window" presentation of control traffic, RDP, and failure rates.
    Window [w] covers [\[w * window, (w + 1) * window)]; its number
    [int_of_float (time /. window)] is the one index every windowed value
    is read and joined by. A window's sum adds its samples in arrival
    order. *)

type t

val create : window:float -> t
(** [create ~window] aggregates into windows of [window] seconds starting
    at time 0. Raises [Invalid_argument] unless [window > 0]. *)

val mid : t -> int -> float
(** [mid t w] is window [w]'s midpoint, the time the series report it
    at. *)

val add : t -> time:float -> float -> unit
(** Record one sample in the window of [time]; times may arrive in any
    order. Memory grows with the highest window number recorded. Raises
    [Invalid_argument] unless [0 <= time < infinity]. *)

val count : t -> time:float -> unit
(** Shorthand for [add t ~time 1.0] — counting events per window. *)

val integrate : t -> from:float -> until:float -> float -> unit
(** [integrate t ~from ~until level] credits a quantity held at [level]
    over [\[from, until)]: each window the interval overlaps receives one
    sample, [level] times the overlap, in time order. Nothing when
    [until <= from]. Population-time (node-seconds) is kept this way. *)

val length : t -> int
(** One past the highest window with a sample; windows [0 .. length - 1]
    cover every sample. *)

val samples : t -> int -> int
(** Samples recorded in window [w] (0 outside the series). *)

val sum : t -> int -> float
(** Sum of window [w]'s samples (0 when it has none). *)

val means : t -> (float * float) array
(** [(window_mid_time, mean of samples)] for every window with a sample,
    in time order. *)

val sums : t -> (float * float) array
(** [(window_mid_time, sum of samples)] for every window with a sample,
    in time order. *)
