open Pastry

type lookup = {
  key : Nodeid.t;
  seq : int;
  origin : Peer.t;
  hops : int;
  retx : bool;
}

type entry = Peer.t * float

type payload =
  | Join_request of { joiner : Peer.t; rows : (int * entry list) list }
  | Join_reply of { rows : (int * entry list) list; leaf : Peer.t list }
  | Ls_probe of {
      leaf : Peer.t list;
      failed : Nodeid.t list;
      trt : float;
      target : Nodeid.t;
    }
  | Ls_probe_reply of { leaf : Peer.t list; failed : Nodeid.t list; trt : float }
  | Heartbeat
  | Lookup of lookup
  | Lookup_ack of { seq : int }
  | Hop_ack of { hop_id : int }
  | Rt_probe of { target : Nodeid.t }
  | Rt_probe_reply of { trt : float }
  | Distance_probe of { probe_seq : int }
  | Distance_probe_reply of { probe_seq : int }
  | Rtt_report of { rtt : float }
  | Row_announce of { row : int; entries : entry list }
  | Row_request of { row : int }
  | Row_reply of { row : int; entries : entry list }
  | Slot_request of { row : int; col : int }
  | Slot_reply of { row : int; col : int; entry : entry option }
  | Repair_request of { left_side : bool }
  | Repair_reply of { candidates : Peer.t list }
  | Nn_request
  | Nn_reply of { leaf : Peer.t list }
  | Id_challenge of { nonce : int }
  | Id_response of { nonce : int; id : Nodeid.t }
  | Goodbye

type t = { sender : Peer.t; hop : int option; payload : payload }

let make ?hop ~sender payload = { sender; hop; payload }

type traffic_class =
  | C_lookup
  | C_lookup_ack
  | C_distance_probe
  | C_leafset
  | C_rt_probe
  | C_ack_retransmit
  | C_join
  | C_maintenance

let classify t =
  match t.payload with
  | Lookup l -> if l.retx then C_ack_retransmit else C_lookup
  | Lookup_ack _ -> C_lookup_ack
  | Hop_ack _ -> C_ack_retransmit
  | Join_request _ | Join_reply _ | Row_announce _ | Nn_request | Nn_reply _ -> C_join
  | Ls_probe _ | Ls_probe_reply _ | Heartbeat | Repair_request _ | Repair_reply _
  | Goodbye ->
      C_leafset
  | Rt_probe _ | Rt_probe_reply _ -> C_rt_probe
  | Distance_probe _ | Distance_probe_reply _ | Rtt_report _ -> C_distance_probe
  | Row_request _ | Row_reply _ | Slot_request _ | Slot_reply _
  | Id_challenge _ | Id_response _ ->
      C_maintenance

let class_name = function
  | C_lookup -> "lookup"
  | C_lookup_ack -> "lookup-acks"
  | C_distance_probe -> "distance-probes"
  | C_leafset -> "leafset-hb/probes"
  | C_rt_probe -> "rt-probes"
  | C_ack_retransmit -> "acks+retransmits"
  | C_join -> "join"
  | C_maintenance -> "rt-maintenance"

let all_classes =
  [
    C_lookup;
    C_lookup_ack;
    C_distance_probe;
    C_leafset;
    C_rt_probe;
    C_ack_retransmit;
    C_join;
    C_maintenance;
  ]

let class_index = function
  | C_lookup -> 0
  | C_lookup_ack -> 1
  | C_distance_probe -> 2
  | C_leafset -> 3
  | C_rt_probe -> 4
  | C_ack_retransmit -> 5
  | C_join -> 6
  | C_maintenance -> 7

let is_control = function C_lookup -> false | _ -> true

(* queueing priority under the netsim capacity model: keeping failure
   detection and per-hop acking alive under overload matters more than
   forwarding one more lookup *)
let priority = function C_lookup -> 0 | _ -> 1
