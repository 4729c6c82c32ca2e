(** MSPastry wire messages.

    Every message names its overlay-level sender. Routed payloads
    (lookups and join requests) optionally carry a per-hop ack tag; the
    receiving hop acknowledges immediately at the network level, before
    any routing decision (§3.2). *)

open Pastry

type lookup = {
  key : Nodeid.t;
  seq : int;  (** harness-assigned, identifies the lookup end-to-end *)
  origin : Peer.t;
  hops : int;  (** overlay hops taken so far *)
  retx : bool;  (** this transmission is a per-hop reroute *)
}

type entry = Peer.t * float
(** A routing-table entry with the sender's RTT estimate (seconds;
    [infinity] when unmeasured). *)

type payload =
  | Join_request of { joiner : Peer.t; rows : (int * entry list) list }
      (** routed towards the joiner's id; nodes along the route prepend
          their row [shared-prefix-length] entries *)
  | Join_reply of { rows : (int * entry list) list; leaf : Peer.t list }
  | Ls_probe of {
      leaf : Peer.t list;
      failed : Nodeid.t list;
      trt : float;
      target : Nodeid.t;
    }
      (** [target] is the identifier being liveness-checked — normally
          the recipient's own id. Honest nodes ignore it (they answer
          under their genuine identity regardless), but it lets a probe
          of a stale or fabricated identifier be answered precisely by
          whoever holds the address *)
  | Ls_probe_reply of { leaf : Peer.t list; failed : Nodeid.t list; trt : float }
  | Heartbeat
  | Lookup of lookup
  | Lookup_ack of { seq : int }
      (** end-to-end receipt: the root delivered lookup [seq]; sent
          straight back to the origin when end-to-end retries are on *)
  | Hop_ack of { hop_id : int }
  | Rt_probe of { target : Nodeid.t }
      (** routing-table liveness probe; [target] as in {!Ls_probe} *)
  | Rt_probe_reply of { trt : float }
  | Distance_probe of { probe_seq : int }
  | Distance_probe_reply of { probe_seq : int }
  | Rtt_report of { rtt : float }  (** symmetric distance probes, §4.2 *)
  | Row_announce of { row : int; entries : entry list }
      (** a fresh node pushing its row to the row's members *)
  | Row_request of { row : int }  (** periodic RT maintenance gossip *)
  | Row_reply of { row : int; entries : entry list }
  | Slot_request of { row : int; col : int }  (** passive RT repair *)
  | Slot_reply of { row : int; col : int; entry : entry option }
  | Repair_request of { left_side : bool }
      (** generalized leaf-set repair: ask for the l+1 nodes closest to
          the sender known to the receiver *)
  | Repair_reply of { candidates : Peer.t list }
  | Nn_request  (** nearest-neighbour seed discovery: ask for the leaf set *)
  | Nn_reply of { leaf : Peer.t list }
  | Id_challenge of { nonce : int }
      (** gossip verification (DESIGN.md §10): prove the identifier you
          were advertised under before admission *)
  | Id_response of { nonce : int; id : Nodeid.t }
      (** the responder's {e genuine} identifier — modelling certified
          nodeIds, the transport answers with the id it can prove *)
  | Goodbye
      (** graceful departure: the sender is leaving; treat it as failed
          without probe verification (it told us itself) *)

type t = {
  sender : Peer.t;
  hop : int option;  (** per-hop ack tag: receiver must ack this id *)
  payload : payload;
}

val make : ?hop:int -> sender:Peer.t -> payload -> t

(** Control-traffic classes, matching the Fig 4 breakdown (maintenance
    gossip is reported separately and folded into "RT probes" when
    printing the paper's five categories). *)
type traffic_class =
  | C_lookup  (** first transmission of a lookup hop — not control *)
  | C_lookup_ack  (** end-to-end delivery receipts (control) *)
  | C_distance_probe
  | C_leafset
  | C_rt_probe
  | C_ack_retransmit
  | C_join
  | C_maintenance

val classify : t -> traffic_class
val class_name : traffic_class -> string
val all_classes : traffic_class list

val class_index : traffic_class -> int
(** Position of the class in {!all_classes}. *)

val is_control : traffic_class -> bool

val priority : traffic_class -> int
(** Queueing priority for {!Netsim.Net}'s capacity model: control
    traffic (everything {!is_control}) is 1, plain lookup forwarding is
    0 — under overload a node keeps heartbeating, probing and acking
    while lookups queue behind (and overflow first). *)
