(** Typed simulator events.

    One constructor per observable occurrence in the stack: network sends
    / deliveries / drops (with their traffic class) and capacity queueing,
    injected faults, node lifecycle, per-lookup routing hops with the
    stage of the routing rule that chose the hop, per-hop ack timing,
    failure-detection probes and suspicions, end-to-end retries, and
    Byzantine-hardening verdicts. Every event carries its virtual timestamp;
    node-level events carry the overlay address of the node that emitted
    them. Events serialise to single-line JSON (one per line in a JSONL
    trace) and parse back losslessly. *)

(** Which routing rule chose a lookup's next hop (or delivery). *)
type stage =
  | Leafset  (** key covered by the leaf set *)
  | Table  (** routing-table entry matching one more digit *)
  | Closest  (** fallback: any strictly-closer known peer *)

type drop_reason =
  | Loss  (** dropped by the i.i.d. uniform link process *)
  | Dead_destination  (** destination unregistered (crashed) by delivery time *)
  | Faulted  (** dropped by any other link model (burst, blackhole, partition) *)
  | Node_fault  (** swallowed by a per-node fault (fail-silent or flapping) *)
  | Congested
      (** rejected by a full bounded queue under the per-node capacity
          model (overload; see {!Netsim.Net.create}) *)

type body =
  | Send of { src : int; dst : int; cls : string; seq : int option }
      (** a message left [src]; [seq] set when it carries a lookup *)
  | Recv of { src : int; dst : int; cls : string }
  | Drop of {
      src : int;
      dst : int;
      cls : string;
      seq : int option;
      reason : drop_reason;
    }
  | Node_join of { addr : int }  (** the node's join completed (active) *)
  | Node_crash of { addr : int }
  | Lookup_hop of { seq : int; addr : int; stage : stage; hops : int; retx : bool }
      (** lookup [seq] was routed (or delivered) at [addr]; [hops] is the
          overlay hop count so far, [retx] marks a per-hop reroute *)
  | Hop_ack of { addr : int; dst : int; rtt : float }
      (** [addr]'s per-hop ack from [dst] arrived after [rtt] seconds *)
  | Ack_timeout of { addr : int; dst : int; waited : float; reroutes : int }
      (** [addr] gave up waiting for [dst]'s per-hop ack *)
  | Probe of { addr : int; target : int; kind : string }
      (** a liveness / distance probe launched ([kind]: "leafset", "rt",
          "distance") *)
  | Fault of { label : string; action : string }
      (** a scheduled fault was injected (or healed): [label] names the
          episode, [action] describes what happened (e.g.
          "crash 25% (30 nodes)", "partition 2 ways", "heal") *)
  | Suspected of { addr : int; target : int; backoff : float }
      (** [addr]'s failure detector quarantined [target] for [backoff]
          seconds after it exhausted probe retries *)
  | Unsuspected of { addr : int; target : int }
      (** [addr] heard directly from suspected [target] and cleared it *)
  | Lookup_retry of { seq : int; addr : int; attempt : int }
      (** origin [addr] re-issued lookup [seq] end-to-end ([attempt] ≥ 1
          counts re-issues) after its e2e timeout expired undelivered *)
  | Queue of { addr : int; cls : string; delay : float; occ : int }
      (** a message to [addr] was queued for [delay] seconds behind the
          per-node capacity model; [occ] is the queue occupancy after
          enqueue (see {!Netsim.Net.create}) *)
  | Progress_suspect of { addr : int; suspect : int; seq : int; hops : int }
      (** [addr] received lookup [seq] from [suspect] after [hops] hops
          without routing progress (the Pastry invariant: strictly longer
          shared prefix or strictly smaller ring distance) — [suspect] is
          now distrusted for routing (Byzantine hardening, DESIGN.md §10) *)
  | Route_diverted of { addr : int; suspect : int; seq : int; attempt : int }
      (** origin [addr]'s end-to-end retry [attempt] of lookup [seq] will
          divert around [suspect], the first hop of the failed attempt *)
  | Poison_rejected of { addr : int; claimed : string; peer : int }
      (** [addr]'s identifier challenge unmasked a fabricated gossip
          entry: the node at [peer] could not prove the id [claimed]
          (hex); the entry is rejected and the forged id blacklisted *)
  | Join_deferred of { addr : int; joiner : int }
      (** [addr] deferred admission service for [joiner] because its
          per-arc join budget ([join_rate_limit] per [join_rate_window])
          is exhausted; the joiner's retry machinery will try again *)

type t = { time : float; body : body }

val stage_name : stage -> string
val drop_reason_name : drop_reason -> string
val kind_name : t -> string
(** The event's JSON tag ("send", "lookup-hop", ...). *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
