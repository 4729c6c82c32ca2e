(** Adversarial (Byzantine) node models: participants that actively
    misbehave rather than merely fail.

    Where {!Netfault} rules on links and {!Nodefault} on honest-but-sick
    nodes, an adversarial fault assigns a {e behaviour} to a set of
    compromised overlay nodes. The protocol layer executes the behaviour
    (misrouting, dropping, state poisoning happen inside the MSPastry
    node, not in the network), so this module is only the declarative
    vocabulary: which addresses are compromised and how.

    All three behaviours keep the node {e alive at the transport level} —
    it answers probes, acks hops and replies to heartbeats — so the
    liveness failure detector stays green. That is the point: these
    faults are invisible to the crash detector and must be caught by the
    routing layer itself (progress checking, gossip verification; see
    DESIGN.md §10).

    Like the other fault models this is deterministic and consumes no
    RNG: victim selection happens once, in the harness, from the
    dedicated fault RNG stream. Addresses are overlay addresses. *)

type behavior = {
  misroute : bool;
      (** forward lookups to a wrong-but-plausible next hop (a live
          leaf-set member that makes no progress towards the key) *)
  drop : bool;
      (** silently consume lookups in transit while still acking the
          hop — the origin only learns via its end-to-end timeout *)
  poison : bool;
      (** advertise fabricated leaf-set/routing-table entries (real
          transport address, forged identifier) through the
          maintenance gossip path — the eclipse attack *)
}

val no_behavior : behavior
(** All flags off — an honest node. *)

val behavior_name : behavior -> string
(** ["misroute+poison"], ["honest"], ... *)

type t

val none : t
(** No node is compromised. *)

val compromise : behavior -> addrs:int list -> unit -> t
(** Mark [addrs] compromised with [behavior]. Raises [Invalid_argument]
    when the behaviour has no flag set. *)

val compose : t list -> t
(** Union; a node compromised by several models merges the flags. *)

val behavior_of : t -> addr:int -> behavior option
(** The behaviour assigned to [addr], if compromised. *)

val compromised : t -> int
(** Number of compromised addresses. *)

val iter : t -> (int -> behavior -> unit) -> unit

val describe : t -> string
