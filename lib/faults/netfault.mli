(** Composable network fault models.

    A fault model is a (possibly stateful) per-message decision process:
    given the sender and receiver {e endpoints} of a message about to be
    transmitted, it rules the message through, lost, or delayed by some
    extra latency. The network layer consults the installed model once
    per send, so models can express everything from i.i.d. uniform loss
    to correlated processes with per-link memory:

    - {!uniform} — the paper's fault model (Bernoulli drops);
    - {!gilbert_elliott} / {!bursty} — two-state Markov bursty loss with
      per-directional-link channel state;
    - {!blackhole} — silently failed (possibly asymmetric) links;
    - {!partition} — topology split into groups with all cross-group
      traffic dropped;
    - {!extra_delay} — degraded links adding constant latency;
    - {!compose} — stack any of the above.

    All randomness flows through the [rng] handed to {!decide} (the
    network's own stream), so runs stay reproducible from one seed. *)

type verdict =
  | Pass
  | Lose of { uniform : bool }
      (** drop; [uniform] is true iff the paper's i.i.d. process
          ({!uniform}) made it, so the network can tell random loss from
          injected faults without asking which model is installed *)
  | Delay of float  (** deliver, but add this many seconds of latency *)

type t

val none : t
(** Always {!Pass}. *)

val uniform : rate:float -> t
(** I.i.d. Bernoulli loss, the only model whose drops carry [uniform =
    true]. [rate] must be in [\[0, 1)]; rate 0 is {!none}. *)

val gilbert_elliott :
  ?loss_good:float ->
  ?loss_bad:float ->
  p_good_to_bad:float ->
  p_bad_to_good:float ->
  unit ->
  t
(** Classic two-state Gilbert–Elliott channel, one chain per directional
    (src endpoint, dst endpoint) link, stepped once per message: sample a
    drop with the current state's loss probability ([loss_good] default 0,
    [loss_bad] default 1), then transition. Each link's chain starts from
    the stationary distribution, so the long-run average loss holds even
    on lightly-used links. Endpoints must lie in [\[0, 2^31)]; {!decide}
    raises [Invalid_argument] for any other. *)

val bursty : avg_loss:float -> burst:float -> t
(** A {!gilbert_elliott} channel parameterised by observables: long-run
    average loss rate [avg_loss] (in [\[0, 1)]) and mean loss-burst
    length [burst] (messages, ≥ 1). Uses [loss_good = 0], [loss_bad = 1],
    [p_bad_to_good = 1/burst] and the stationary-balance value of
    [p_good_to_bad], so the chain loses [avg_loss] of traffic in bursts
    of mean length [burst]. *)

val blackhole : ?symmetric:bool -> links:(int * int) list -> unit -> t
(** Fail the given [(src, dst)] endpoint links completely. Directional by
    default — an asymmetric failure drops A→B while B→A still delivers;
    [symmetric:true] also fails every reverse direction. Endpoints, in
    [links] and at {!decide}, must lie in [\[0, 2^31)]; any other raises
    [Invalid_argument]. *)

val partition : group_of:(int -> int) -> t
(** Split the network: a message is lost iff [group_of src <> group_of
    dst]. [group_of] maps topology endpoints to partition-group ids. *)

val extra_delay : float -> t
(** Add a constant extra latency to every message (degraded paths). *)

val compose : t list -> t
(** Consult models left to right: any {!Lose} loses the message, extra
    delays accumulate. *)

val describe : t -> string
(** Human-readable summary (used in trace [Fault] events and logs). *)

val decide : t -> rng:Repro_util.Rng.t -> time:float -> src:int -> dst:int -> verdict
(** Rule on one message from endpoint [src] to endpoint [dst] at
    simulation time [time]. Stateful models advance their state. *)
