(** Packet-level network simulation on top of a topology.

    Endpoints register message handlers under small non-negative integer
    addresses (the topology's endpoint indices); handlers and queue
    states live in arrays indexed by address, grown to the largest one
    used. A sent message is delivered after
    the topology's one-way propagation delay unless one stage of the
    fault pipeline drops it. Every send runs the same stages in a fixed
    order, and each drop is counted (and traced) under the stage that
    made it:

    + the link model ({!Repro_faults.Netfault}, on topology endpoints)
      drops the message — [dropped_loss] / reason [Loss] when the
      i.i.d. uniform process made the drop, [dropped_fault] / [Faulted]
      for any other model — or adds extra delay;
    + the node model ({!Repro_faults.Nodefault}, on overlay addresses):
      a mute sender's message is dropped ([dropped_node] /
      [Node_fault]); the sender's and receiver's slowdowns stretch the
      delay;
    + the capacity queue, when the net was created with one: the
      message joins its destination's bounded queue and is dropped on
      overflow ([dropped_congestion] / [Congested]);
    + at delivery time, the receiver's mute is re-judged ([dropped_node]
      / [Node_fault]) and then the destination must still be registered
      ([dropped_dead] / [Dead_destination]).

    A fresh net passes everything ({!Repro_faults.Netfault.none},
    {!Repro_faults.Nodefault.none}); {!set_faults} installs the pair of
    models the pipeline consults. The harness installs the paper's
    uniform loss as the base link model.

    The capacity model is fixed at {!create} and off by default —
    matching the paper's simulator, which models neither congestion
    delays nor congestion losses. Queueing draws no randomness, so a net
    without it schedules exactly the same events.

    Runtime counters (total sends/deliveries, drops split by cause,
    per-class send counts) are maintained unconditionally; structured
    [Send]/[Recv]/[Drop]/[Queue] events flow to an optional
    {!Repro_obs.Trace}. *)

type 'm t

(** Counter snapshot; [sent_by_class] lists the classes sent at least
    once, sorted by name. Every send ends in exactly one of [delivered]
    or a [dropped_*] counter. *)
type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;  (** dropped by the i.i.d. uniform link process *)
  dropped_dead : int;  (** destination unregistered at delivery time *)
  dropped_fault : int;  (** dropped by any other link model *)
  dropped_node : int;
      (** swallowed by a per-node fault: a fail-silent/flapping sender at
          send time, or a flapping receiver down at delivery time *)
  dropped_congestion : int;
      (** rejected by the destination's full bounded queue *)
  sent_by_class : (string * int) list;
}

(** Per-node capacity: the node services [service_rate] messages per
    second, one at a time, from a queue holding at most [queue_limit]
    unserviced messages. *)
type capacity = { service_rate : float; queue_limit : int }

val create :
  ?endpoint_of:(int -> int) ->
  ?classes:string array * ('m -> int) ->
  ?seq_of:('m -> int option) ->
  ?priority_of:('m -> int) ->
  ?capacity:capacity ->
  ?trace:Repro_obs.Trace.t ->
  engine:Simkit.Engine.t ->
  topology:Topology.t ->
  rng:Repro_util.Rng.t ->
  unit ->
  'm t
(** [endpoint_of] maps addresses to topology endpoints (default identity)
    — distinct addresses may share an endpoint; they then see a fixed
    small LAN delay instead of zero. [classes] is [(names, class_of)]:
    [class_of m] is the index in [names] of [m]'s traffic class, counted
    per class and named in trace events (default one class, ["msg"]).
    The names must be distinct, or [Invalid_argument] is raised; an
    index outside [names] raises [Invalid_argument] at send time.
    [seq_of] extracts a lookup sequence number so trace [Send]/[Drop]
    events can be attributed to a lookup (default [None]).

    [capacity] turns the per-node queue on for the net's lifetime: every
    message that survives the fault verdicts joins its destination's
    bounded queue at its (uncongested) arrival time, waits behind the
    backlog, and is delivered one service interval
    ([1 / c.service_rate]) after reaching the head; a message arriving
    at a queue already holding [c.queue_limit] unserviced messages is
    dropped. [priority_of] assigns a queueing priority: messages with
    priority > 0 wait only behind the high-priority backlog (later
    low-priority traffic is pushed back) and overflow is charged to the
    low band first; without it the queue is plain FIFO. Each accepted
    message is traced as a [Queue] event carrying its queueing delay and
    the post-enqueue occupancy. Raises [Invalid_argument] unless
    [service_rate > 0] and [queue_limit >= 1]. *)

val engine : 'm t -> Simkit.Engine.t
val topology : 'm t -> Topology.t

val set_faults :
  'm t -> link:Repro_faults.Netfault.t -> node:Repro_faults.Nodefault.t -> unit
(** Install the models stages 1, 2 and 4 consult from now on. Messages
    already in flight keep their send-time verdicts but meet the new
    node model at delivery. *)

val queue_occupancy : 'm t -> addr:int -> int
(** Number of unserviced messages in [addr]'s queue at the current
    virtual time (0 without a capacity model) — the local load signal a
    node can consult for backpressure. *)

val on_queue : 'm t -> (addr:int -> cls:string -> delay:float -> unit) -> unit
(** Metrics tap invoked for every message accepted into a bounded queue;
    [delay] is its queueing delay (wait + service beyond the propagation
    delay) at destination [addr]. Never invoked without a capacity
    model. *)

val register : 'm t -> addr:int -> (src:int -> 'm -> unit) -> unit
(** Attach (or replace) the message handler for an endpoint. Raises
    [Invalid_argument] for a negative address. *)

val unregister : 'm t -> addr:int -> unit
(** Crash the endpoint: undelivered and future messages to it vanish. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Fire-and-forget unicast. [src] must equal the sender's own address —
    it is what the receiver's handler sees. Sending to self delivers on
    the next event-loop step with zero delay. A message to an address
    with no handler, including one above every registered address, is
    dropped as dead at delivery time; with a capacity model, a negative
    [dst] raises [Invalid_argument]. *)

val delay : 'm t -> int -> int -> float
val rtt : 'm t -> int -> int -> float

val on_send : 'm t -> (time:float -> src:int -> dst:int -> 'm -> unit) -> unit
(** Metrics tap invoked for every {!send}, including messages later lost. *)

val n_sent : 'm t -> int
val n_delivered : 'm t -> int

val n_dropped : 'm t -> int
(** All drops, whatever stage made them. *)

val sent_in_class : 'm t -> string -> int
(** Sends so far in the class of the given name (0 for an unknown name). *)

val stats : 'm t -> stats
