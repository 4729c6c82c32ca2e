(** Whole-system simulation runner.

    Replays a churn trace against a network topology: every trace arrival
    creates an MSPastry node with a fresh random identifier that joins via
    a random live node; departures are crashes (as in the paper's fault
    injection). Active nodes issue lookups to uniformly random keys as a
    Poisson process. All metrics flow into a {!Overlay_metrics.Collector}.*)

type topology_kind =
  | Gatech  (** scaled transit-stub (~380 routers) *)
  | Gatech_full  (** the paper's 5050-router dimensions *)
  | Mercator
  | Corpnet
  | Flat of float  (** constant one-way delay — fast, for tests *)

val topology_name : topology_kind -> string

val make_topology :
  topology_kind -> rng:Repro_util.Rng.t -> n_endpoints:int -> Topology.t

(** Where structured trace events go (see {!Repro_obs}): nowhere, a
    bounded in-memory ring, or a JSONL file. *)
type tracing =
  | Trace_off
  | Trace_memory of int  (** ring-buffer capacity (events) *)
  | Trace_jsonl of string  (** output path, truncated on open *)

type config = {
  pastry : Mspastry.Config.t;
  topology : topology_kind;
  loss_rate : float;
      (** the default base link model: i.i.d. uniform message loss at
          this rate. A [Set_base] fault event replaces it, [Heal]
          restores it *)
  lookup_rate : float;  (** lookups per second per active node *)
  seed : int;
  warmup : float;  (** measurement window starts here *)
  window : float;  (** metrics averaging window *)
  drain : float;  (** extra simulated time after the trace ends *)
  tracing : tracing;  (** structured event tracing (default off) *)
  fault_schedule : Repro_faults.Schedule.t;
      (** timed fault injections (mass crashes, partitions, loss-model
          swaps) applied on top of the churn trace; default empty. Each
          event is executed at its timestamp via {!Live.inject}. *)
  capacity : Netsim.Net.capacity option;
      (** per-node service capacity (bounded inbound queue), fixed for
          the run; default [None] — infinite capacity, bit-identical to
          the pre-capacity simulator. See {!Netsim.Net.create}. *)
  prioritize_control : bool;
      (** serve control traffic ahead of lookup forwarding in the
          capacity model's queues (default [true]; irrelevant while
          [capacity] is [None]) *)
  manifest_out : string option;
      (** write a run manifest (see {!Manifest}, DESIGN.md §9) to this
          path when the run is {!Live.close}d; default [None] *)
}

val default_config : config

(** Access to live simulation internals, for integration tests and
    applications (e.g. Squirrel) that need to drive the overlay directly. *)
module Live : sig
  type t

  val create : config -> n_endpoints:int -> t
  val engine : t -> Simkit.Engine.t
  val net : t -> Mspastry.Message.t Netsim.Net.t
  val collector : t -> Overlay_metrics.Collector.t
  val oracle : t -> Oracle.t
  val topology : t -> Topology.t

  val spawn : ?id:Pastry.Nodeid.t -> t -> unit -> Mspastry.Node.t
  (** Create a node (first call bootstraps the overlay; later calls join
      via a random active node) and register it with the network. Nodes
      attach to topology endpoints round-robin (address mod endpoints);
      control placement by choosing spawn order. [id] forces the node's
      identifier instead of drawing a fresh random one — the sybil-flood
      injection uses this to craft ids crowding one victim's arc. *)

  val spawn_at : t -> time:float -> unit -> unit
  (** Schedule a {!spawn} at an absolute simulation time. *)

  (** [crash_node ?graceful t node] — [graceful:true] sends GOODBYE to
      the leaf set before halting. *)
  val crash_node : ?graceful:bool -> t -> Mspastry.Node.t -> unit

  val crash_fraction : ?graceful:bool -> t -> float -> int
  (** [crash_fraction t f] crashes fraction [f] (in [\[0, 1\]]) of the
      currently-active nodes at the same instant — the paper's "massive
      failure" scenario — picking victims uniformly at random from a
      dedicated RNG stream. Returns the number crashed (at least one when
      [f > 0] and anyone is active). *)

  val inject : t -> Repro_faults.Schedule.event -> unit
  (** Execute one fault-schedule event {e now}: crash a fraction of
      nodes, replace the base link model, start an overload episode (a
      [Lookup_storm] adds an extra Poisson lookup process per active
      node for its duration; a [Flash_crowd] spawns its joiners spread
      over its interval), launch a [Sybil_flood] of short-lived joiners
      with ids crafted around one random victim, or heal everything.

      Link overlays, partitions, node faults and [Adversary] compromises
      are {e episodes} in one fault registry: each lasts for its
      duration, and every start, expiry and [Heal] recomposes the
      registry into the net's link model (the base composed with the
      link episodes), its node model, and the {!adversaries} the
      harness runs around the compromised nodes — a node compromised by
      overlapping episodes runs the union of their flags, and an
      expiring episode lifts only its own. Records the event with the
      collector (except [Heal]) and emits a [Fault] trace event.
      [config.fault_schedule] events are applied through this at their
      timestamps. *)

  val ring_audit : t -> Oracle.ring_audit
  (** Audit routing consistency now: compare every active node's leaf-set
      ring neighbours against the oracle's ground-truth ring
      ({!Oracle.ring_audit}). [agreement = 1.0] means every key has
      exactly one root — call it at the end of (or during) an experiment
      to check the overlay's consistency invariant. *)

  val adversaries : t -> Repro_faults.Advfault.t
  (** The active adversary episodes merged: each compromised address,
      crashed or not (it stays in the eclipse audit's ground truth), with
      the union of its episodes' flags. The harness runs them around the
      honest node: the forward upcall misroutes or drops a lookup that
      arrived from another hop and that the node did not originate
      ({!Repro_faults.Advfault.on_lookup}); a poisoner follows each
      [Ls_probe] it sends or receives with a forged volley (at most one
      per victim per [t_ls]) and answers a probe of an identity it does
      not own under that identity. *)

  (** Eclipse exposure: how much honest routing state points at
      attackers under fabricated identities. *)
  type eclipse = {
    poisoned_entries : int;
        (** leaf-set + routing-table entries at honest active nodes whose
            address belongs to a compromised node but whose id is not
            that node's genuine id *)
    state_entries : int;  (** all state entries audited *)
    poisoned_nodes : int;  (** honest nodes holding ≥ 1 poisoned entry *)
  }

  val eclipse_audit : t -> eclipse
  (** Audit every active honest node's leaf set and routing table against
      the harness's ground truth of compromised addresses and their
      genuine ids — the poisoning exposure metric for the adversary
      experiments. All-zero when no adversary has been injected. *)

  val active_nodes : t -> Mspastry.Node.t list
  val node_count : t -> int
  val lookup : t -> Mspastry.Node.t -> key:Pastry.Nodeid.t -> int
  (** Issue a lookup, returning its sequence number. Delivery can happen
      synchronously (when the issuing node is the key's root) — callers
      that must install per-sequence state before delivery should use
      {!alloc_lookup} + {!Mspastry.Node.lookup} instead. *)

  val alloc_lookup : t -> int
  (** Reserve a sequence number and record the lookup as sent. *)

  val on_deliver : t -> (Mspastry.Node.t -> Mspastry.Message.lookup -> unit) -> unit
  (** Extra application-level delivery hook (Squirrel uses this). *)

  val on_forward :
    t ->
    (Mspastry.Node.t ->
    prev:Pastry.Peer.t option ->
    Mspastry.Message.lookup ->
    Mspastry.Node.forward_decision) ->
    unit
  (** Common-API forward upcall: called at every node a lookup passes
      through, with the previous hop. The most recently added hook that
      answers other than [Continue] decides: [Absorb] consumes the
      message at that node (Scribe builds its multicast trees this way),
      [Redirect] changes its next hop. A compromised node's attack
      ({!adversaries}) decides before any hook. *)

  val find_node : t -> addr:int -> Mspastry.Node.t option
  (** The live node registered at an address, if any. *)

  val run_until : t -> float -> unit

  val summary :
    ?since:float -> ?until:float -> t -> Overlay_metrics.Collector.summary
  (** The collector's {!Overlay_metrics.Collector.summary} over
      [\[since, until\]]; defaults: [config.warmup] to the end of the
      trace the session replays (to the last recorded event when it
      replays none). *)

  val join_failures : t -> int
  val nodes_created : t -> int

  val close : t -> unit
  (** Flush and close the trace sink (a JSONL file would otherwise lose
      buffered events), writing the run manifest first if
      [config.manifest_out] is set. {!run} calls this; drivers using
      [run_until] directly should call it once they are done with the
      session. *)

  val manifest : t -> Repro_obs.Json.t
  (** Assemble the run manifest now (schema in DESIGN.md §9), labelled
      ["run"]: config + seed + git describe, registry counters, histogram
      summaries, the global profile breakdown and engine statistics. *)

  val trace : t -> Repro_obs.Trace.t
  (** The structured event trace built from [config.tracing] (the
      disabled trace when [Trace_off]). With [Trace_memory] the events
      are available via {!Repro_obs.Trace.events}; with [Trace_jsonl]
      call {!close} when done — {!run} does this automatically,
      [run_until] does not. *)

  val registry : t -> Repro_obs.Registry.t
  (** A gauge registry over the live engine, network and overlay:
      [engine.*] (events scheduled / fired / cancelled / pending, heap
      high-water mark, events per simulated second), [net.*] (sent,
      delivered, drops by cause, per-class [net.sent.<class>]), and
      [overlay.*] (active nodes, join failures). Values are read live at
      {!Repro_obs.Registry.dump} time. *)
end

(** Fault models and schedules (re-exported from {!Repro_faults} for
    convenience when building a [config]). *)
module Netfault = Repro_faults.Netfault

module Schedule = Repro_faults.Schedule

val live_of_trace : config -> trace:Churn.Trace.t -> Live.t
(** A {!Live} session with the trace's joins and crashes pre-scheduled
    (lookups stop at the trace's end); the caller drives the clock. The
    network has twice the trace's peak membership in attachment points,
    at least 16 and at most 4096. *)

val run : config -> trace:Churn.Trace.t -> Live.t
(** {!live_of_trace}, replayed to the trace's end plus [config.drain]
    and {!Live.close}d, with the collector's population credited up to
    the trace's end (see {!Overlay_metrics.Collector.flush}) so its
    windowed series cover the whole trace. *)
