(** Adversarial (Byzantine) node models: participants that actively
    misbehave rather than merely fail.

    Where {!Netfault} rules on links and {!Nodefault} on honest-but-sick
    nodes, an adversarial fault assigns a {e behaviour} to a set of
    compromised overlay nodes. The harness runs the behaviour around an
    honest MSPastry node: {!on_lookup} decides a lookup's fate in the
    node's common-API forward upcall, and the forged-identity volleys and
    replies of the eclipse attack ({!forged_ids}) go out beside the
    node's own messages. The protocol node itself knows nothing of
    attacks.

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

(** What a compromised node does with a lookup in transit. *)
type lookup_action =
  | Pass  (** route it honestly *)
  | Drop  (** consume it; the hop has already been acked *)
  | Misroute of Pastry.Peer.t  (** forward it to this peer instead *)

val on_lookup :
  behavior ->
  members:Pastry.Peer.t list ->
  key:Pastry.Nodeid.t ->
  seq:int ->
  hops:int ->
  lookup_action
(** The fate of a transit lookup (sequence number [seq], [hops] hops so
    far) at a node with [behavior] and leaf-set [members]. A dropper
    drops; with both [drop] and [misroute] set, odd sequence numbers are
    dropped and even ones misrouted, so each vector stays observable. A
    misrouter picks, among the at most four members farthest from [key],
    the one at index [hops] modulo their number, so adversarial cycles
    cannot lock into a fixed orbit. Lookups at 64 hops or more, far past
    any honest path, and lookups at a node with no members [Pass],
    which bounds the walk. *)

val forged_ids : Pastry.Nodeid.t -> Pastry.Nodeid.t list
(** The identifiers a poisoner claims around a victim: victim + 1, - 1,
    + 2 and - 2, the most admissible into its leaf set. *)
