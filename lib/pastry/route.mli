(** The Pastry next-hop function — Figure 2's [route_i], pure.

    Given the local node's leaf set and routing table, decide where a
    message addressed to a key goes next. The [excluded] predicate
    supports per-hop-ack rerouting: peers that failed to acknowledge are
    skipped without being declared faulty. *)

type decision =
  | Deliver  (** this node is the root (or no better hop exists) *)
  | Forward of Peer.t

(** Which of the three routing rules produced a decision — the per-hop
    "routing stage" recorded in lookup hop traces. *)
type rule =
  | Via_leafset  (** key covered by the leaf set *)
  | Via_table  (** routing-table entry matching one more digit *)
  | Via_closest  (** fallback over all known strictly-closer peers *)

val next_hop_explained :
  ?excluded:(Nodeid.t -> bool) ->
  leafset:Leafset.t ->
  table:Routing_table.t ->
  key:Nodeid.t ->
  unit ->
  decision * rule
(** As {!next_hop}, also naming the rule that made the decision. *)

val next_hop :
  ?excluded:(Nodeid.t -> bool) ->
  leafset:Leafset.t ->
  table:Routing_table.t ->
  key:Nodeid.t ->
  unit ->
  decision
(** Pastry's rule: if the key is covered by the leaf set, forward to the
    member closest to the key (deliver if that is the local node);
    otherwise use the routing-table entry matching one more digit; if that
    slot is empty or excluded, fall back to any known peer that is
    strictly closer to the key and shares at least as long a prefix
    (preferring longer prefixes, then proximity to the key). *)

val empty_slot_on_path :
  leafset:Leafset.t ->
  table:Routing_table.t ->
  key:Nodeid.t ->
  (int * int) option
(** If normal routing for [key] found its routing-table slot empty,
    return that (row, column) — the trigger for passive repair. *)
