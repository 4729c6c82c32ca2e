(** Self-tuning of the routing-table probing period Trt (§4.1).

    Each node estimates the overlay size [N] from its leaf-set density
    and the node failure rate [µ] from a history of the last [K]
    failures it observed among the [M] unique nodes in its routing state.
    From these it solves the raw-loss-rate equation

    {v Lr = 1 − (1 − Pf(Tls + (r+1)·To, µ)) · (1 − Pf(Trt + (r+1)·To, µ))^(h−1) v}

    with [Pf(T,µ) = 1 − (1/(Tµ))·(1 − e^(−Tµ))] and
    [h = (2^b − 1)/2^b · log_{2^b} N], for the [Trt] that meets the
    configured target [Lr]. Nodes piggyback their local solution on
    protocol messages and adopt the median of received values. *)

type t

val create : Config.t -> now:float -> t
(** The failure history is seeded with the creation (join) time. *)

val record_failure : t -> now:float -> unit
(** Note one observed failure of a routing-state member. *)

val observe_remote : t -> float -> unit
(** Record a Trt value piggybacked by another node. *)

val failures_seen : t -> int

val estimate_mu : t -> m:int -> now:float -> float
(** Failures per node per second, from the K-failure history over [m]
    unique routing-state nodes. 0 until a failure is seen. *)

val estimate_n : Pastry.Leafset.t -> float
(** Overlay size from leaf-set identifier density; 1 for an empty set. *)

val pf : t_detect:float -> mu:float -> float
(** Probability that a given next hop is dead, when failures at rate [mu]
    are detected within at most [t_detect] seconds. *)

val expected_hops : b:int -> n:float -> float

val raw_loss_rate : Config.t -> trt:float -> n:float -> mu:float -> float

val solve_trt : Config.t -> n:float -> mu:float -> float
(** Smallest Trt in [\[(retries+1)·To, t_rt_max\]] meeting the target raw
    loss rate ([t_rt_max] when even the slowest probing beats the target;
    the floor when the target is unreachable). *)

val local_trt : t -> leafset:Pastry.Leafset.t -> m:int -> now:float -> float
(** This node's own solution, from its current estimates. *)

val current_trt : t -> local:float -> float
(** Median of the remembered remote values and [local], the node's own
    {!local_trt} — the Trt the node actually uses. *)
