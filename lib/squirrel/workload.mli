(** Web-browsing workload generator for the Squirrel experiment.

    Produces a timed stream of (client, URL) requests with the features
    the deployment trace shows in Fig 8: Zipf-distributed object
    popularity, office-hours diurnal intensity, and a weekday/weekend
    split. *)

type request = { time : float; client : int; url : string }

type t

val generate :
  ?n_objects:int ->
  ?peak_rate:float ->
  rng:Repro_util.Rng.t ->
  n_clients:int ->
  duration:float ->
  unit ->
  t
(** [peak_rate] is requests per second per client at the busiest hour
    (default 0.05). Weekends run at 15% of weekday intensity; nights at
    10%. Object popularity is Zipf with exponent 0.9 (web-like skew). *)

val requests : t -> request array
(** Time-sorted. *)

val n_requests : t -> int
val distinct_urls : t -> int
