(** An MSPastry protocol node.

    The node is a pure state machine over an {!env} of capabilities
    (virtual clock, message send, timers, application upcalls, observers,
    load signal, event trace). The [env] is the only connection between
    a node and its host, so the same code runs under the packet simulator
    and under unit tests with a scripted environment — mirroring the
    paper's "the code that runs in the simulator and in the real
    deployment is the same".

    Lifecycle: {!create} → either {!bootstrap} (first node of a fresh
    overlay) or {!join} via any live node's address → the node probes its
    prospective leaf set (Fig 2) and fires [on_active] once routing
    consistency is established → {!lookup} routes application messages →
    {!crash} silences it (voluntary departures are treated as failures,
    as in the paper's traces). *)

open Pastry

type forward_decision =
  | Continue  (** route the message on as usual *)
  | Absorb  (** consume it here, without delivering it *)
  | Redirect of Peer.t
      (** send it to this peer instead of the routing decision: a routed
          hop (per-hop ack, hop count advanced) whose silence re-routes
          honestly after the hop timeout *)

type env = {
  now : unit -> float;
  send : dst:int -> Message.t -> unit;
  schedule : delay:float -> (unit -> unit) -> Simkit.Engine.event_id;
  cancel : Simkit.Engine.event_id -> unit;
  rng : Repro_util.Rng.t;
  deliver : Message.lookup -> unit;
      (** the node is the root of the lookup's key and is active *)
  forward : prev:Pastry.Peer.t option -> Message.lookup -> forward_decision;
      (** the common-API forward upcall: invoked before this node routes a
          lookup onward. [prev] is the hop it arrived from; it is [None]
          at the origin and on the node's own re-routes (hop timeout,
          buffer flush, end-to-end retry), so a hook that only acts on
          [Some _] never intercepts a re-route. Returning [Absorb]
          consumes the message here without delivering it — Scribe-style
          applications build multicast trees this way; [Redirect] changes
          the next hop. Return [Continue] when in doubt. *)
  on_active : unit -> unit;  (** fired once, when the join completes *)
  on_join_failed : unit -> unit;
      (** join retries exhausted; the node never became active *)
  on_suspicion : target:int -> unit;
      (** called with the target's overlay address each time this node's
          failure detector (newly or again) quarantines a peer — the
          harness uses it to score detector accuracy against ground
          truth *)
  on_progress_suspect : target:int -> unit;
      (** called with the suspect's overlay address each time the
          progress check ([cfg.progress_check]) convicts a previous hop
          of a non-progressing forward (Byzantine hardening, DESIGN.md
          §10) *)
  on_poison_reject : target:int -> unit;
      (** called with the advertising peer's overlay address each time
          gossip verification ([cfg.verify_gossip]) unmasks a fabricated
          entry (DESIGN.md §10) *)
  load : unit -> int;
      (** the node's local load signal: the number of messages currently
          backlogged at this node (the harness reads
          {!Netsim.Net.queue_occupancy}). Read only when
          [cfg.backpressure] is on; with the signal at or above
          {!Config.overload_threshold} the node sheds deferrable work —
          probe volleys collapse to single packets, routing-table probe
          rounds and maintenance gossip are skipped, and join admission
          ([Nn_request] / [Join_request] service) is deferred — while
          heartbeats, leaf-set probing and acking continue. *)
  trace : Repro_obs.Trace.t;
      (** the structured event trace ({!Repro_obs.Trace.disabled} for
          none). An enabled trace receives protocol-level events: a
          [Lookup_hop] with the routing stage each time the node routes
          or delivers a lookup, [Hop_ack] / [Ack_timeout] with per-hop ack
          timing, a [Probe] per liveness / distance probe launched,
          failure-detector, end-to-end retry and hardening events, and
          [Node_join] / [Node_crash] lifecycle events. *)
}

type t

val create : cfg:Config.t -> env:env -> id:Nodeid.t -> addr:int -> t

val me : t -> Peer.t

val bootstrap : t -> unit
(** Become the first, immediately-active node of a new overlay. *)

val join : t -> bootstrap_addr:int -> unit
(** Join via the given address: nearest-neighbour seed discovery, routed
    join request, leaf-set probing, activation. *)

val handle : t -> src:int -> Message.t -> unit
(** Network upcall — wire this to {!Netsim.Net.register}. *)

val lookup : t -> key:Nodeid.t -> seq:int -> unit
(** Route an application lookup from this node. *)

val crash : t -> unit
(** Halt the node: it stops processing messages and timers. The caller
    must also unregister it from the network. *)

val leave : t -> unit
(** Graceful departure: announce GOODBYE to the leaf-set members (they
    evict and repair immediately, without burning probe timeouts on a
    node known to be gone), then halt as {!crash}. *)

val is_active : t -> bool
val is_alive : t -> bool

val leafset : t -> Leafset.t
val table : t -> Routing_table.t

val current_trt : t -> float
(** The routing-table probing period currently in force. *)

val local_trt : t -> float
(** The probing period this node derives from its own state, which its
    probes and probe replies advertise. *)

val estimated_n : t -> float
val estimated_mu : t -> float

val failed_set : t -> Nodeid.t list
(** Contents of [failed_i] (test introspection). *)

val pending_probes : t -> int
val pending_hops : t -> int

val suspected_set : t -> Nodeid.t list
(** Peers currently quarantined by the suspicion list (negative
    caching): probe retries were exhausted on them, and until the
    per-peer backoff expires they are excluded from routing and cannot
    be re-admitted or re-probed from gossip. Expired entries are not
    listed (the doubled backoff is remembered internally). *)

val pending_e2e : t -> int
(** Lookups this origin is still waiting on end-to-end (receipts
    outstanding, retries possibly pending). Always 0 when
    [e2e_lookup_retries = 0]. *)

val distrusted_set : t -> Nodeid.t list
(** Peers currently distrusted for routing by the Byzantine hardening
    (progress check convictions and e2e diversions). Unlike the
    suspicion list, distrust is {e not} cleared by hearing from the
    peer — misrouters are transport-alive by construction — only by
    expiry ({!Config.exclusion_period}). Expired entries are not listed. *)
